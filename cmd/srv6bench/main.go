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
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"srv6bpf/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (2, 3 or 4; 2 ends with the §3.2 JIT factor)")
	tcp := flag.Bool("tcp", false, "run the §4.2 TCP experiment")
	frr := flag.Bool("frr", false, "run the fast-reroute recovery experiment")
	flapstorm := flag.Bool("flapstorm", false, "run the flap-storm damping experiment")
	ablation := flag.Bool("ablation", false, "run the design-choice ablations")
	shards := flag.Int("shards", 0,
		"run the shard-scaling experiment up to this many shards (1,2,4,...) on a 208-node fat-tree")
	topoK := flag.Int("topo-k", 8, "fat-tree arity for the shard-scaling experiment")
	topology := flag.String("topo", "fattree",
		"shard-scaling topology: fattree or waxman (the seeded 256-node graph)")
	partitionName := flag.String("partition", "contiguous",
		"shard-scaling node placement: contiguous (creation-order blocks) or mincut (topology-aware)")
	shardDuration := flag.Duration("shard-duration", 20*time.Millisecond,
		"virtual window of the shard-scaling experiment")
	pdr := flag.Bool("pdr", false, "run the SRPerf-style PDR saturation scan (all behaviors)")
	matrix := flag.Bool("matrix", false,
		"run the behaviour-matrix scenarios sequentially and on two shards and compare fingerprints")
	all := flag.Bool("all", false, "run everything")
	duration := flag.Duration("duration", 200*time.Millisecond,
		"virtual measurement window per data point")
	tcpDuration := flag.Duration("tcp-duration", 60*time.Second,
		"virtual duration of each TCP transfer")
	flag.Parse()

	win := duration.Nanoseconds()
	ran := false

	if *all || *pdr {
		ran = true
		runPDR()
	}
	if *all || *matrix {
		ran = true
		runMatrix()
	}
	if *all || *fig == 2 {
		ran = true
		runFig2(win)
	}
	if *all || *fig == 3 {
		ran = true
		runFig3(win)
	}
	if *all || *fig == 4 {
		ran = true
		runFig4(win)
	}
	if *all || *tcp {
		ran = true
		runTCP(tcpDuration.Nanoseconds())
	}
	if *all || *frr {
		ran = true
		runFRR()
	}
	if *all || *flapstorm {
		ran = true
		runFlapStorm()
	}
	if *all || *ablation {
		ran = true
		runAblations(win)
	}
	if *all && *shards == 0 {
		*shards = 4
	}
	if *shards > 0 {
		ran = true
		runShards(*shards, *topoK, *topology, *partitionName, shardDuration.Nanoseconds())
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "srv6bench:", err)
	os.Exit(1)
}

func runFig2(win int64) {
	fmt.Println("== Figure 2: packets forwarded per second, normalized (§3.2) ==")
	fmt.Println("   paper: End.BPF -3% vs static End; Tag++ -3% vs End.BPF;")
	fmt.Println("   End.T.BPF -5% vs static End.T; AddTLV -5% vs End.BPF; no-JIT /1.8")
	rows, err := experiments.Figure2(win)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-16s %9.1f kpps   %5.1f%%\n", r.Name, r.KPPS, r.Normalized*100)
	}
	f, err := experiments.JITFactor(rows)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  whole-router throughput JIT/no-JIT = %.2f (paper: 1.8)\n\n", f)
}

func runFig3(win int64) {
	fmt.Println("== Figure 3: delay monitoring overhead, normalized (§4.1) ==")
	fmt.Println("   paper: transit encap ≈ -5%; End.DM ≈ no impact")
	rows, err := experiments.Figure3(win)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-16s %9.1f kpps   %5.1f%%\n", r.Name, r.KPPS, r.Normalized*100)
	}
	fmt.Println()
}

func runFig4(win int64) {
	fmt.Println("== Figure 4: aggregated UDP goodput through the CPE (§4.2) ==")
	fmt.Println("   paper: decap ≈ -10%; interpreted WRR lowest, near baseline at 1400B")
	pts, err := experiments.Figure4(win)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %-16s", "payload (B)")
	for _, p := range experiments.Fig4Payloads {
		fmt.Printf(" %6d", p)
	}
	fmt.Println()
	last := ""
	for _, p := range pts {
		if p.Config != last {
			if last != "" {
				fmt.Println()
			}
			fmt.Printf("  %-16s", p.Config)
			last = p.Config
		}
		fmt.Printf(" %6.0f", p.GoodputMbps)
	}
	fmt.Println("   (Mbps)")
	fmt.Println()
}

func runTCP(win int64) {
	fmt.Println("== §4.2 TCP over the hybrid access network ==")
	fmt.Println("   paper: 3.8 Mbps uncompensated; 68 Mbps compensated; 70 Mbps with 4 conns")
	fmt.Printf("   (each transfer runs %s of virtual time)\n", time.Duration(win))
	res, err := experiments.TCPHybrid(win)
	if err != nil {
		fail(err)
	}
	for _, r := range res {
		fmt.Printf("  %-34s %7.1f Mbps\n", r.Name, r.GoodputMbps)
	}
	fmt.Println()
}

func runFRR() {
	fmt.Println("== Fast reroute: recovery time vs probe interval (K=3 misses) ==")
	fmt.Println("   bound: recovery < K x interval + one probe RTT; FIB backup is the")
	fmt.Println("   link-state (oracle detection) floor")
	rows, err := experiments.FRRRecovery()
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		if r.Mode == "FIB backup" {
			fmt.Printf("  %-10s %18s  recovery %8.3f ms   lost %4d\n",
				r.Mode, "(link-state)", r.RecoveryMs, r.PacketsLost)
			continue
		}
		fmt.Printf("  %-10s interval %4.0f ms K=%d  recovery %8.3f ms (budget %8.3f)  lost %4d\n",
			r.Mode, r.ProbeIntervalMs, r.Misses, r.RecoveryMs, r.BudgetMs, r.PacketsLost)
	}
	fmt.Println()
}

func runFlapStorm() {
	fmt.Println("== Fast reroute under a flap storm: damping on vs off ==")
	fmt.Println("   the protected link flaps at the detection timescale; damping must")
	fmt.Println("   collapse route churn without trading delivery away")
	rows, err := experiments.FRRFlapStorm()
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-9s period %2.0f ms x%d  route transitions %3d  delivered %6.2f%%  lost %4d\n",
			r.Mode, r.FlapPeriodMs, r.Cycles, r.Transitions, r.DeliveredPct, r.PacketsLost)
	}
	fmt.Println()
}

func runAblations(win int64) {
	fmt.Println("== Ablation: Figure 4 WRR with a working CPE JIT ==")
	fmt.Println("   (the paper's hypothesis: the 1.8x JIT speedup would lift the WRR curve)")
	interp, jit, err := experiments.Fig4JITAblation(win)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %-16s", "payload (B)")
	for _, p := range experiments.Fig4Payloads {
		fmt.Printf(" %6d", p)
	}
	fmt.Println()
	fmt.Printf("  %-16s", "WRR interp")
	for _, p := range interp {
		fmt.Printf(" %6.0f", p.GoodputMbps)
	}
	fmt.Println()
	fmt.Printf("  %-16s", "WRR JIT")
	for _, p := range jit {
		fmt.Printf(" %6.0f", p.GoodputMbps)
	}
	fmt.Println("   (Mbps)")
	fmt.Println()

	fmt.Println("== Ablation: WRR weights vs link capacities ==")
	rows, err := experiments.WRRWeightAblation(win * 4)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %6.1f Mbps delivered of 80 offered, %d link drops\n",
			r.Name, r.GoodputMbps, r.LinkDrops)
	}
	fmt.Println()
}

func runPDR() {
	fmt.Println("== PDR saturation (SRPerf method): max offered load with drops <= 0.5% ==")
	fmt.Println("   9 bisection steps, 100ms window per probe") // PDRScan's fixed depth
	rows, err := experiments.PDRScan()
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-16s PDR %9.1f kpps   drop %.3f%% (threshold %.1f%%)  bracket %.0f..%.0f kpps, %d probes\n",
			r.Name, r.PDRKPPS, r.DropRate*100, r.Threshold*100, r.LoKPPS, r.HiKPPS, r.Iterations)
	}
	fmt.Println()
}

func runMatrix() {
	fmt.Println("== Behaviour matrix: committed scenarios, sequential vs 2 shards (must be bit-identical) ==")
	fmt.Println("   L3VPN (End.DT4/DT6/DT46), SFC proxies (End.AS/End.AM), TI-LFA binding SID")
	rows, err := experiments.MatrixScan()
	if err != nil {
		fail(err)
	}
	bad := false
	for _, r := range rows {
		verdict := "MATCH"
		if !r.Match {
			verdict, bad = "MISMATCH", true
		}
		fmt.Printf("  %-16s delivered %5d  %s\n", r.Scenario, r.Delivered, verdict)
		for _, run := range r.Runs {
			fmt.Printf("    %-16s %s\n", run.Engine, run.Fingerprint)
		}
	}
	fmt.Println()
	if bad {
		fail(fmt.Errorf("behaviour matrix: sequential and sharded runs disagree"))
	}
}

// shardCountsUpTo returns 1, 2, 4, ... up to and including max.
func shardCountsUpTo(max int) []int {
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

func runShards(max, k int, topology, partitionName string, win int64) {
	label := fmt.Sprintf("k=%d fat-tree", k)
	if topology == "waxman" {
		label = fmt.Sprintf("%d-node Waxman", experiments.WaxmanScalingNodes)
	}
	fmt.Printf("== Shard scaling: %s permutation mix, %s partition, %s virtual (GOMAXPROCS=%d) ==\n",
		label, partitionName, time.Duration(win), runtime.GOMAXPROCS(0))
	fmt.Println("   identical per-node counters are re-verified across shard counts")
	rows, err := experiments.ShardScalingRun(experiments.ShardScalingSpec{
		Shards: shardCountsUpTo(max), Topology: topology, K: k,
		Partition: partitionName, DurationNs: win,
	})
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("  shards=%d  %8.1f ms wall  %9.0f pkts/s  %10.0f events/s  speedup %.2fx  (%d events, %d windows, cut %d links, %d msgs, %d delivered, %d of %d buffers reused)\n",
			r.Shards, r.WallMs, r.PktsPerSec, r.EventsPerSec, r.Speedup, r.Events, r.Windows, r.CutLinks, r.Messages, r.Delivered, r.BufReuses, r.BufGets)
	}
	fmt.Println()
}
