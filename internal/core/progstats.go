package core

import (
	"fmt"
	"sort"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/vm"
)

// Verdict indices for progCounters.verdicts. "error" covers VM faults
// and post-run integrity failures; the clean BPF return codes map to
// the first three.
const (
	verdictOK = iota
	verdictDrop
	verdictRedirect
	verdictError
	verdictCount
)

var verdictNames = [verdictCount]string{"ok", "drop", "redirect", "error"}

// progCounters is an attachment's bpftool-style run statistics:
// run_cnt, retired instructions, helper invocations (aggregate and
// per helper ID) and a verdict breakdown.
type progCounters struct {
	runCnt    uint64
	insns     uint64
	helpers   uint64
	verdicts  [verdictCount]uint64
	helperCnt [vm.MaxHelperID]uint64
}

// record accounts one program run; its verdict is counted apart, once
// the hook has made something of the return code.
func (p *progCounters) record(insns, helpers uint64) {
	p.runCnt++
	p.insns += insns
	p.helpers += helpers
}

// ProgStats is the exported per-attachment statistics snapshot, the
// simulator's analogue of `bpftool prog show` plus the fault state of
// the quarantine machinery.
type ProgStats struct {
	// Name is the program name, Hook the attachment hook
	// ("lwt_seg6local" or "lwt_out").
	Name string `json:"name"`
	Hook string `json:"hook"`
	// Insns is the static (assembled) instruction count; JIT reports
	// whether the cost model charges the instance at the JIT rate.
	Insns int  `json:"insns"`
	JIT   bool `json:"jit"`
	// RunCnt / InsnExecuted / HelperCalls mirror the kernel's
	// BPF_ENABLE_STATS counters.
	RunCnt       uint64 `json:"run_cnt"`
	InsnExecuted uint64 `json:"insn_executed"`
	HelperCalls  uint64 `json:"helper_calls"`
	// Helpers breaks HelperCalls down by helper name.
	Helpers map[string]uint64 `json:"helpers,omitempty"`
	// Verdicts counts runs by outcome: ok, drop, redirect, error.
	Verdicts map[string]uint64 `json:"verdicts,omitempty"`
	// Faults / Quarantined expose the quarantine state.
	Faults      int  `json:"faults"`
	Quarantined bool `json:"quarantined"`
}

// MeanInsns returns the average retired instructions per run.
func (s ProgStats) MeanInsns() float64 {
	if s.RunCnt == 0 {
		return 0
	}
	return float64(s.InsnExecuted) / float64(s.RunCnt)
}

// HelperNames lists the observed helper names sorted by descending
// count (name-ascending on ties), for stable listings.
func (s ProgStats) HelperNames() []string {
	names := make([]string, 0, len(s.Helpers))
	for name := range s.Helpers {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if s.Helpers[names[i]] != s.Helpers[names[j]] {
			return s.Helpers[names[i]] > s.Helpers[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// helperNames maps the helper IDs installed by this repository's
// hooks to their UAPI names (see bpf.GenericHelperSigs and the hook
// constructors in core.go).
var helperNames = map[int]string{
	bpf.HelperMapLookupElem:    "map_lookup_elem",
	bpf.HelperMapUpdateElem:    "map_update_elem",
	bpf.HelperMapDeleteElem:    "map_delete_elem",
	bpf.HelperKtimeGetNS:       "ktime_get_ns",
	bpf.HelperTracePrintk:      "trace_printk",
	bpf.HelperGetPrandomU32:    "get_prandom_u32",
	bpf.HelperPerfEventOutput:  "perf_event_output",
	bpf.HelperSkbLoadBytes:     "skb_load_bytes",
	bpf.HelperLWTPushEncap:     "lwt_push_encap",
	bpf.HelperLWTSeg6StoreByte: "lwt_seg6_store_bytes",
	bpf.HelperLWTSeg6AdjustSRH: "lwt_seg6_adjust_srh",
	bpf.HelperLWTSeg6Action:    "lwt_seg6_action",
	bpf.HelperHWTimestamp:      "hw_timestamp",
	bpf.HelperSeg6ECMPNexthops: "seg6_ecmp_nexthops",
}

// HelperName resolves a helper ID to its UAPI name, falling back to
// "helper_<id>" for IDs outside the installed set.
func HelperName(id int) string {
	if name, ok := helperNames[id]; ok {
		return name
	}
	return fmt.Sprintf("helper_%d", id)
}

// ProgStats returns the attachment's current statistics snapshot.
func (a *attachment) ProgStats() ProgStats {
	c := &a.stats
	s := ProgStats{
		Name:         a.name,
		Hook:         a.hook,
		Insns:        len(a.inst.Program().Instructions()),
		JIT:          a.inst.JIT(),
		RunCnt:       c.runCnt,
		InsnExecuted: c.insns,
		HelperCalls:  c.helpers,
		Faults:       a.faults.faults,
		Quarantined:  a.faults.quarantined,
	}
	for id, n := range c.helperCnt {
		if n == 0 {
			continue
		}
		if s.Helpers == nil {
			s.Helpers = make(map[string]uint64)
		}
		s.Helpers[HelperName(id)] = n
	}
	for i, n := range c.verdicts {
		if n == 0 {
			continue
		}
		if s.Verdicts == nil {
			s.Verdicts = make(map[string]uint64)
		}
		s.Verdicts[verdictNames[i]] = n
	}
	return s
}
