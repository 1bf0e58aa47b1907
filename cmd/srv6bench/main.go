// Command srv6bench regenerates the tables and figures of the paper's
// evaluation and prints them in the same form the paper reports:
// normalized forwarding rates for Figures 2 and 3, the goodput-vs-
// payload series of Figure 4 and the §4.2 TCP goodputs; -fig 2 ends
// with the §3.2 JIT factor read off its own rows.
//
// Usage:
//
//	srv6bench [-fig 2|3|4] [-tcp] [-frr] [-flapstorm] [-ablation] [-pdr]
//	          [-matrix] [-shards N] [-all] [-duration 200ms]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"srv6bpf/internal/experiments"
)

// errUsage reports a command line that selects no experiment; run has
// printed the usage.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "srv6bench:", err)
		os.Exit(1)
	}
}

// run parses args and prints the selected experiments to stdout, in
// the order below, stopping at the first that fails.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("srv6bench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (2, 3 or 4; 2 ends with the §3.2 JIT factor)")
	tcp := fs.Bool("tcp", false, "run the §4.2 TCP experiment")
	frr := fs.Bool("frr", false, "run the fast-reroute recovery experiment")
	flapstorm := fs.Bool("flapstorm", false, "run the flap-storm damping experiment")
	ablation := fs.Bool("ablation", false, "run the design-choice ablations")
	shards := fs.Int("shards", 0,
		"run the shard-scaling experiment up to this many shards (1,2,4,...) on a 208-node fat-tree")
	topoK := fs.Int("topo-k", 8, "fat-tree arity for the shard-scaling experiment")
	topology := fs.String("topo", "fattree",
		"shard-scaling topology: fattree or waxman (the seeded 256-node graph)")
	partitionName := fs.String("partition", "contiguous",
		"shard-scaling node placement: contiguous (creation-order blocks) or mincut (topology-aware)")
	shardDuration := fs.Duration("shard-duration", 20*time.Millisecond,
		"virtual window of the shard-scaling experiment")
	pdr := fs.Bool("pdr", false, "run the SRPerf-style PDR saturation scan (all behaviors)")
	matrix := fs.Bool("matrix", false,
		"run the behaviour-matrix scenarios sequentially and on two shards and compare fingerprints")
	all := fs.Bool("all", false, "run everything")
	duration := fs.Duration("duration", 200*time.Millisecond,
		"virtual measurement window per data point")
	tcpDuration := fs.Duration("tcp-duration", 60*time.Second,
		"virtual duration of each TCP transfer")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	win := duration.Nanoseconds()
	if *all && *shards == 0 {
		*shards = 4
	}
	// Figure 4 runs once: the JIT ablation reads its interpreted WRR
	// curve off the same points.
	figure4 := sync.OnceValues(func() ([]experiments.Fig4Point, error) { return experiments.Figure4(win) })
	steps := []struct {
		on  bool
		run func(io.Writer) error
	}{
		{*all || *pdr, runPDR},
		{*all || *matrix, runMatrix},
		{*all || *fig == 2, func(w io.Writer) error { return runFig2(w, win) }},
		{*all || *fig == 3, func(w io.Writer) error { return runFig3(w, win) }},
		{*all || *fig == 4, func(w io.Writer) error { return runFig4(w, figure4) }},
		{*all || *tcp, func(w io.Writer) error { return runTCP(w, tcpDuration.Nanoseconds()) }},
		{*all || *frr, runFRR},
		{*all || *flapstorm, runFlapStorm},
		{*all || *ablation, func(w io.Writer) error { return runAblations(w, win, figure4) }},
		{*shards > 0, func(w io.Writer) error {
			return runShards(w, *shards, *topoK, *topology, *partitionName, shardDuration.Nanoseconds())
		}},
	}
	ran := false
	for _, st := range steps {
		if !st.on {
			continue
		}
		ran = true
		if err := st.run(stdout); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return errUsage
	}
	return nil
}

func runFig2(w io.Writer, win int64) error {
	fmt.Fprintln(w, "== Figure 2: packets forwarded per second, normalized (§3.2) ==")
	fmt.Fprintln(w, "   paper: End.BPF -3% vs static End; Tag++ -3% vs End.BPF;")
	fmt.Fprintln(w, "   End.T.BPF -5% vs static End.T; AddTLV -5% vs End.BPF; no-JIT /1.8")
	rows, err := experiments.Figure2(win)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %9.1f kpps   %5.1f%%\n", r.Name, r.KPPS, r.Normalized*100)
	}
	f, err := experiments.JITFactor(rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  whole-router throughput JIT/no-JIT = %.2f (paper: 1.8)\n\n", f)
	return nil
}

func runFig3(w io.Writer, win int64) error {
	fmt.Fprintln(w, "== Figure 3: delay monitoring overhead, normalized (§4.1) ==")
	fmt.Fprintln(w, "   paper: transit encap ≈ -5%; End.DM ≈ no impact")
	rows, err := experiments.Figure3(win)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %9.1f kpps   %5.1f%%\n", r.Name, r.KPPS, r.Normalized*100)
	}
	fmt.Fprintln(w)
	return nil
}

func runFig4(w io.Writer, figure4 func() ([]experiments.Fig4Point, error)) error {
	fmt.Fprintln(w, "== Figure 4: aggregated UDP goodput through the CPE (§4.2) ==")
	fmt.Fprintln(w, "   paper: decap ≈ -10%; interpreted WRR lowest, near baseline at 1400B")
	pts, err := figure4()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-16s", "payload (B)")
	for _, p := range experiments.Fig4Payloads {
		fmt.Fprintf(w, " %6d", p)
	}
	fmt.Fprintln(w)
	last := ""
	for _, p := range pts {
		if p.Config != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "  %-16s", p.Config)
			last = p.Config
		}
		fmt.Fprintf(w, " %6.0f", p.GoodputMbps)
	}
	fmt.Fprintln(w, "   (Mbps)")
	fmt.Fprintln(w)
	return nil
}

func runTCP(w io.Writer, win int64) error {
	fmt.Fprintln(w, "== §4.2 TCP over the hybrid access network ==")
	fmt.Fprintln(w, "   paper: 3.8 Mbps uncompensated; 68 Mbps compensated; 70 Mbps with 4 conns")
	fmt.Fprintf(w, "   (each transfer runs %s of virtual time)\n", time.Duration(win))
	res, err := experiments.TCPHybrid(win)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Fprintf(w, "  %-34s %7.1f Mbps\n", r.Name, r.GoodputMbps)
	}
	fmt.Fprintln(w)
	return nil
}

func runFRR(w io.Writer) error {
	fmt.Fprintln(w, "== Fast reroute: recovery time vs probe interval (K=3 misses) ==")
	fmt.Fprintln(w, "   bound: recovery < K x interval + one probe RTT; FIB backup is the")
	fmt.Fprintln(w, "   link-state (oracle detection) floor")
	rows, err := experiments.FRRRecovery()
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Mode == "FIB backup" {
			fmt.Fprintf(w, "  %-10s %18s  recovery %8.3f ms   lost %4d\n",
				r.Mode, "(link-state)", r.RecoveryMs, r.PacketsLost)
			continue
		}
		fmt.Fprintf(w, "  %-10s interval %4.0f ms K=%d  recovery %8.3f ms (budget %8.3f)  lost %4d\n",
			r.Mode, r.ProbeIntervalMs, r.Misses, r.RecoveryMs, r.BudgetMs, r.PacketsLost)
	}
	fmt.Fprintln(w)
	return nil
}

func runFlapStorm(w io.Writer) error {
	fmt.Fprintln(w, "== Fast reroute under a flap storm: damping on vs off ==")
	fmt.Fprintln(w, "   the protected link flaps at the detection timescale; damping must")
	fmt.Fprintln(w, "   collapse route churn without trading delivery away")
	rows, err := experiments.FRRFlapStorm()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s period %2.0f ms x%d  route transitions %3d  delivered %6.2f%%  lost %4d\n",
			r.Mode, r.FlapPeriodMs, r.Cycles, r.Transitions, r.DeliveredPct, r.PacketsLost)
	}
	fmt.Fprintln(w)
	return nil
}

func runAblations(w io.Writer, win int64, figure4 func() ([]experiments.Fig4Point, error)) error {
	fmt.Fprintln(w, "== Ablation: Figure 4 WRR with a working CPE JIT ==")
	fmt.Fprintln(w, "   (the paper's hypothesis: the 1.8x JIT speedup would lift the WRR curve)")
	fig4, err := figure4()
	if err != nil {
		return err
	}
	interp, jit, err := experiments.Fig4JITAblation(fig4, win)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-16s", "payload (B)")
	for _, p := range experiments.Fig4Payloads {
		fmt.Fprintf(w, " %6d", p)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-16s", "WRR interp")
	for _, p := range interp {
		fmt.Fprintf(w, " %6.0f", p.GoodputMbps)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-16s", "WRR JIT")
	for _, p := range jit {
		fmt.Fprintf(w, " %6.0f", p.GoodputMbps)
	}
	fmt.Fprintln(w, "   (Mbps)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Ablation: WRR weights vs link capacities ==")
	rows, err := experiments.WRRWeightAblation(win * 4)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %6.1f Mbps delivered of 80 offered, %d link drops\n",
			r.Name, r.GoodputMbps, r.LinkDrops)
	}
	fmt.Fprintln(w)
	return nil
}

func runPDR(w io.Writer) error {
	fmt.Fprintln(w, "== PDR saturation (SRPerf method): max offered load with drops <= 0.5% ==")
	fmt.Fprintln(w, "   fixed point from a 3 Mpps overload probe, checked 0.2% either side; 100ms window per probe")
	rows, err := experiments.PDRScan()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s PDR %9.1f kpps   drop %.3f%% (threshold %.1f%%)  %d probes\n",
			r.Name, r.PDRKPPS, r.DropRate*100, r.Threshold*100, r.Iterations)
	}
	fmt.Fprintln(w)
	return nil
}

func runMatrix(w io.Writer) error {
	fmt.Fprintln(w, "== Behaviour matrix: committed scenarios, sequential vs 2 shards (must be bit-identical) ==")
	fmt.Fprintln(w, "   L3VPN (End.DT4/DT6/DT46), SFC proxies (End.AS/End.AM), TI-LFA binding SID")
	rows, err := experiments.MatrixScan()
	if err != nil {
		return err
	}
	bad := false
	for _, r := range rows {
		verdict := "MATCH"
		if !r.Match {
			verdict, bad = "MISMATCH", true
		}
		fmt.Fprintf(w, "  %-16s delivered %5d  %s\n", r.Scenario, r.Delivered, verdict)
		for _, run := range r.Runs {
			fmt.Fprintf(w, "    %-16s %s\n", run.Engine, run.Fingerprint)
		}
	}
	fmt.Fprintln(w)
	if bad {
		return fmt.Errorf("behaviour matrix: sequential and sharded runs disagree")
	}
	return nil
}

// shardCountsUpTo returns 1, 2, 4, ... up to and including max.
func shardCountsUpTo(max int) []int {
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

func runShards(w io.Writer, max, k int, topology, partitionName string, win int64) error {
	label := fmt.Sprintf("k=%d fat-tree", k)
	if topology == "waxman" {
		label = fmt.Sprintf("%d-node Waxman", experiments.WaxmanScalingNodes)
	}
	fmt.Fprintf(w, "== Shard scaling: %s permutation mix, %s partition, %s virtual (GOMAXPROCS=%d) ==\n",
		label, partitionName, time.Duration(win), runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "   identical per-node counters are re-verified across shard counts")
	rows, err := experiments.ShardScalingRun(experiments.ShardScalingSpec{
		Shards: shardCountsUpTo(max), Topology: topology, K: k,
		Partition: partitionName, DurationNs: win,
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  shards=%d  %8.1f ms wall  %9.0f pkts/s  %10.0f events/s  speedup %.2fx  (%d events, %d windows, cut %d links, %d msgs, %d delivered, %d of %d buffers reused)\n",
			r.Shards, r.WallMs, r.PktsPerSec, r.EventsPerSec, r.Speedup, r.Events, r.Windows, r.CutLinks, r.Messages, r.Delivered, r.BufReuses, r.BufGets)
	}
	fmt.Fprintln(w)
	return nil
}
