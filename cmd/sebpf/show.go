package main

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
)

// progShow implements `sebpf prog show [program] [runs]`: it executes
// each bundled program against its synthetic probe a number of times
// and prints the bpftool-style statistics the attachment layer keeps —
// run_cnt, retired instructions, helper-call histogram, verdict
// breakdown and quarantine state.
func progShow(w io.Writer, reg map[string]entry, sel string, runs int) error {
	names := make([]string, 0, len(reg))
	for n := range reg {
		if sel != "" && n != sel {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown program %q (try `sebpf list`)", sel)
	}
	sort.Strings(names)

	for i, name := range names {
		stats, err := execForStats(name, reg[name], runs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printProgStats(w, i, stats)
	}
	return nil
}

// execForStats loads and attaches one bundled program, drives runs
// synthetic probes through it, and returns its statistics.
func execForStats(name string, e entry, runs int) (core.ProgStats, error) {
	src := netip.MustParseAddr("2001:db8:1::1")
	dst := netip.MustParseAddr("2001:db8:2::1")
	sid := netip.MustParseAddr("fc00:10::1")

	sim := netsim.New(1)
	rtr := sim.AddNode("rtr", netsim.ServerCostModel())
	rtr.AddAddress(netip.MustParseAddr("2001:db8:10::1"))
	rIf, _ := netsim.ConnectSymmetric(rtr, sim.AddNode("peer", netsim.HostCostModel()), netem.Config{RateBps: 1e10})
	if err := rtr.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rIf}}}); err != nil {
		return core.ProgStats{}, err
	}

	avail := demoMaps(name)
	prog, err := bpf.LoadProgram(e.spec, e.hook, avail, bpf.LoadOptions{})
	if err != nil {
		return core.ProgStats{}, err
	}

	meta := &netsim.PacketMeta{RxTimestamp: sim.Now()}
	switch e.hook.Name {
	case "lwt_seg6local":
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return core.ProgStats{}, err
		}
		for i := 0; i < runs; i++ {
			// Programs rewrite the packet in place; each run gets a
			// fresh probe, like distinct packets hitting the SID.
			raw, err := demoPacket(name, src, dst, sid)
			if err != nil {
				return core.ProgStats{}, err
			}
			end.RunSeg6Local(rtr, raw, meta)
		}
		return end.ProgStats(), nil
	case "lwt_out":
		lwt, err := core.AttachLWT(prog)
		if err != nil {
			return core.ProgStats{}, err
		}
		for i := 0; i < runs; i++ {
			raw, err := demoPacket(name, src, dst, sid)
			if err != nil {
				return core.ProgStats{}, err
			}
			lwt.RunLWTOut(rtr, raw, meta)
		}
		return lwt.ProgStats(), nil
	default:
		return core.ProgStats{}, fmt.Errorf("hook %s not runnable", e.hook.Name)
	}
}

// printProgStats renders one attachment in the layout of
// `bpftool prog show` with the kernel's BPF_ENABLE_STATS counters.
func printProgStats(w io.Writer, id int, s core.ProgStats) {
	mode := "interpreted"
	if s.JIT {
		mode = "jited"
	}
	quar := ""
	if s.Quarantined {
		quar = "  QUARANTINED"
	}
	fmt.Fprintf(w, "%d: %s  name %s  %s%s\n", id, s.Hook, s.Name, mode, quar)
	fmt.Fprintf(w, "\tinsns %d  run_cnt %d  insn_executed %d  mean_insns %.1f  helper_calls %d  faults %d\n",
		s.Insns, s.RunCnt, s.InsnExecuted, s.MeanInsns(), s.HelperCalls, s.Faults)
	if len(s.Helpers) > 0 {
		fmt.Fprintf(w, "\thelpers:")
		for _, name := range s.HelperNames() {
			fmt.Fprintf(w, " %s=%d", name, s.Helpers[name])
		}
		fmt.Fprintln(w)
	}
	if len(s.Verdicts) > 0 {
		names := make([]string, 0, len(s.Verdicts))
		for n := range s.Verdicts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\tverdicts:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, s.Verdicts[n])
		}
		fmt.Fprintln(w)
	}
}

// parseRuns reads the optional trailing run-count argument.
func parseRuns(args []string) (string, int, error) {
	sel, runs := "", 10
	for _, a := range args {
		if n, err := strconv.Atoi(a); err == nil {
			if n <= 0 {
				return "", 0, fmt.Errorf("run count must be positive, got %d", n)
			}
			runs = n
			continue
		}
		sel = a
	}
	return sel, runs, nil
}
