package core_test

import (
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
)

// ktimeSpec calls bpf_ktime_get_ns twice and returns BPF_OK, so the
// helper histogram has something to count.
func ktimeSpec() *bpf.ProgramSpec {
	return &bpf.ProgramSpec{
		Name: "ktime_ok",
		Instructions: asm.Instructions{
			asm.CallHelper(bpf.HelperKtimeGetNS),
			asm.CallHelper(bpf.HelperKtimeGetNS),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
		},
		License: "GPL",
	}
}

// TestProgStatsCountsRuns: the bpftool-style counters account every
// program execution — run_cnt, retired instructions, helper calls by
// name and the verdict breakdown.
func TestProgStatsCountsRuns(t *testing.T) {
	end := attachEnd(t, ktimeSpec())
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: end.Behaviour(),
	})

	const packets = 5
	for i := 0; i < packets; i++ {
		g.send(t, dstB)
	}

	s := end.ProgStats()
	if s.Name != "ktime_ok" || s.Hook != "lwt_seg6local" {
		t.Errorf("identity = %q/%q", s.Name, s.Hook)
	}
	if s.Insns != 4 {
		t.Errorf("static insns = %d, want 4", s.Insns)
	}
	if s.RunCnt != packets {
		t.Errorf("run_cnt = %d, want %d", s.RunCnt, packets)
	}
	if s.InsnExecuted != packets*4 {
		t.Errorf("insn_executed = %d, want %d", s.InsnExecuted, packets*4)
	}
	if s.HelperCalls != packets*2 {
		t.Errorf("helper_calls = %d, want %d", s.HelperCalls, packets*2)
	}
	if s.Helpers["ktime_get_ns"] != packets*2 {
		t.Errorf("helpers[ktime_get_ns] = %d, want %d", s.Helpers["ktime_get_ns"], packets*2)
	}
	if s.Verdicts["ok"] != packets || len(s.Verdicts) != 1 {
		t.Errorf("verdicts = %v, want ok=%d only", s.Verdicts, packets)
	}
	if s.MeanInsns() != 4 {
		t.Errorf("mean insns = %v, want 4", s.MeanInsns())
	}
	if names := s.HelperNames(); len(names) != 1 || names[0] != "ktime_get_ns" {
		t.Errorf("helper names = %v", names)
	}
}

// TestProgStatsVerdictsAndQuarantine: faulting runs count as "error"
// verdicts, and quarantined drops do not inflate run_cnt — the
// program never executed.
func TestProgStatsVerdictsAndQuarantine(t *testing.T) {
	end := attachEnd(t, wildReadSpec())
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: end.Behaviour(),
	})
	const packets = core.DefaultMaxFaults + 4
	for i := 0; i < packets; i++ {
		g.send(t, dstB)
	}
	s := end.ProgStats()
	if s.RunCnt != core.DefaultMaxFaults {
		t.Errorf("run_cnt = %d, want %d (quarantined drops must not count)",
			s.RunCnt, core.DefaultMaxFaults)
	}
	if s.Verdicts["error"] != core.DefaultMaxFaults {
		t.Errorf("verdicts[error] = %d, want %d", s.Verdicts["error"], core.DefaultMaxFaults)
	}
	if !s.Quarantined || s.Faults != core.DefaultMaxFaults {
		t.Errorf("fault state not reflected: quarantined=%v faults=%d", s.Quarantined, s.Faults)
	}
}

// TestHelperNameFallback: IDs outside the installed set render as
// helper_<id> instead of being dropped.
func TestHelperNameFallback(t *testing.T) {
	if got := core.HelperName(bpf.HelperLWTSeg6Action); got != "lwt_seg6_action" {
		t.Errorf("HelperName(76) = %q", got)
	}
	if got := core.HelperName(123); got != "helper_123" {
		t.Errorf("HelperName(123) = %q", got)
	}
}
