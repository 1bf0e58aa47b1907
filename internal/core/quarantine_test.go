package core_test

import (
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

// wildReadSpec builds a program that passes the verifier (packet
// bounds are a runtime property) but faults on every small packet: it
// loads the packet pointer from the ctx and reads far past data_end.
func wildReadSpec() *bpf.ProgramSpec {
	return &bpf.ProgramSpec{
		Name: "wild_read",
		Instructions: asm.Instructions{
			asm.LoadMem(asm.R2, asm.R1, core.CtxOffData, asm.DWord),
			asm.LoadMem(asm.R0, asm.R2, 4096, asm.Word),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
		},
		License: "GPL",
	}
}

func attachEnd(t *testing.T, spec *bpf.ProgramSpec) *core.EndBPF {
	t.Helper()
	prog, err := bpf.LoadProgram(spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end, err := core.AttachEndBPF(prog)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestFaultingProgramQuarantined: a program that keeps faulting is
// detached after DefaultMaxFaults packets — later packets die in a
// cheap counted drop without executing it, like the kernel unloading a
// misbehaving program instead of paying its fault path per packet.
func TestFaultingProgramQuarantined(t *testing.T) {
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

	if g.gotB != nil {
		t.Fatal("a faulting program forwarded a packet")
	}
	if !end.Quarantined() {
		t.Fatal("program not quarantined after repeated faults")
	}
	if end.Faults() != core.DefaultMaxFaults {
		t.Errorf("faults = %d, want %d (quarantine must stop the program running)",
			end.Faults(), core.DefaultMaxFaults)
	}
	rc := g.r.Counters()
	if rc["prog_quarantined"] != 1 {
		t.Errorf("prog_quarantined = %d, want 1", rc["prog_quarantined"])
	}
	if rc["drop_prog_quarantined"] != packets-core.DefaultMaxFaults {
		t.Errorf("drop_prog_quarantined = %d, want %d",
			rc["drop_prog_quarantined"], packets-core.DefaultMaxFaults)
	}
}

// TestSetMaxFaultsThreshold: a threshold of 1 quarantines on the first
// fault.
func TestSetMaxFaultsThreshold(t *testing.T) {
	end := attachEnd(t, wildReadSpec())
	end.SetMaxFaults(1)
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: end.Behaviour(),
	})
	g.send(t, dstB)
	if !end.Quarantined() || end.Faults() != 1 {
		t.Errorf("after one fault with threshold 1: quarantined=%v faults=%d",
			end.Quarantined(), end.Faults())
	}
}

// TestCleanDropIsNotAFault: BPF_DROP is a verdict, not a fault — a
// program dropping every packet must never be quarantined.
func TestCleanDropIsNotAFault(t *testing.T) {
	end := attachEnd(t, &bpf.ProgramSpec{
		Name: "dropper",
		Instructions: asm.Instructions{
			asm.Mov64Imm(asm.R0, core.BPFDrop), asm.Return(),
		},
		License: "GPL",
	})
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: end.Behaviour(),
	})
	for i := 0; i < core.DefaultMaxFaults+2; i++ {
		g.send(t, dstB)
	}
	if end.Faults() != 0 || end.Quarantined() {
		t.Errorf("clean drops counted as faults: faults=%d quarantined=%v",
			end.Faults(), end.Quarantined())
	}
}

// TestLWTFaultQuarantine mirrors the End.BPF quarantine on the transit
// hook.
func TestLWTFaultQuarantine(t *testing.T) {
	prog, err := bpf.LoadProgram(wildReadSpec(), core.LWTOutHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix: pfx("2001:db8:b::/48"), Kind: netsim.RouteLWTBPF, BPF: lwt,
		Nexthops: []netsim.Nexthop{{Iface: g.rbIf}},
	})
	const packets = core.DefaultMaxFaults + 3
	for i := 0; i < packets; i++ {
		raw, _ := packet.BuildPacket(srcA, dstB, packet.WithUDP(1, 9))
		g.a.Output(raw)
		g.sim.Run()
	}
	if g.gotB != nil {
		t.Fatal("a faulting LWT program forwarded a packet")
	}
	if !lwt.Quarantined() || lwt.Faults() != core.DefaultMaxFaults {
		t.Errorf("quarantined=%v faults=%d", lwt.Quarantined(), lwt.Faults())
	}
	rc := g.r.Counters()
	if rc["drop_prog_quarantined"] != packets-core.DefaultMaxFaults {
		t.Errorf("drop_prog_quarantined = %d, want %d",
			rc["drop_prog_quarantined"], packets-core.DefaultMaxFaults)
	}
}
