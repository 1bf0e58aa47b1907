package srv6bpf

// Regression locks for the zero-allocation End.BPF datapath. The
// numbers behind BenchmarkDatapath are an acceptance surface, not
// just telemetry: the steady-state End.BPF path (ParseInfo walk,
// in-place SRH advance, pooled execEnv, rebound packet segment,
// pre-decoded VM dispatch) must stay allocation-free. Timing is
// machine-dependent and is not asserted; allocation counts are exact
// and are.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"srv6bpf/internal/experiments"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/tcpsim"
)

// TestDatapathAllocRegression runs the canonical datapath benchmark
// (the same experiments.DatapathBench that srv6bench -bench-json
// publishes, measured via testing.Benchmark — the -benchmem figures)
// and requires 0 allocs/op on every row that must be allocation-free
// in the steady state. Add TLV legitimately allocates: the program
// grows the packet, which cannot be done in place.
func TestDatapathAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed regression test skipped in -short mode")
	}
	rows, err := experiments.DatapathBench(32)
	if err != nil {
		t.Fatal(err)
	}
	zeroAlloc := map[string]bool{
		"End-static-go":  true,
		"EndBPF-jit":     true,
		"EndBPF-interp":  true,
		"TagInc-jit":     true,
		"TagInc-interp":  true,
		"SimUDP-burst1":  true,
		"SimUDP-burst32": true,
	}
	seen := 0
	for _, r := range rows {
		t.Logf("%-15s %6.0f ns/op  %d allocs/op  %d B/op", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if !zeroAlloc[r.Name] {
			continue
		}
		seen++
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0", r.Name, r.AllocsPerOp, r.BytesPerOp)
		}
	}
	if seen != len(zeroAlloc) {
		t.Fatalf("datapath bench reported %d of %d zero-alloc rows", seen, len(zeroAlloc))
	}
}

// TestHybridTCPAllocsPerSegment is the end-to-end allocation pin of the
// build → encap → decap path: the §4.2 hybrid-access testbed exactly as
// the benchmark's hybrid-tcp workload builds it (WRR both ways, End.DM,
// TWD compensator, four tcpsim transfers), two seconds of model time in
// steady state, heap objects allocated per data segment delivered to
// S2. That covers everything a segment costs end to end — the segment
// and its ACK (one BuildPacket buffer each), their encapsulation at the
// aggregation box and the CPE (one buffer each), decapsulation (none),
// the RTO timer and the amortised DM probes. The count is exact and
// repeats: 4.61 with packets built once into one buffer, 37.08 at the
// parent commit (6f8da04: multi-buffer BuildPacket, struct-decoding
// push_encap, cloning decap). The limit is this change's measurement
// plus one object of slack and must stay under 40 % of the parent's.
func TestHybridTCPAllocsPerSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second hybrid-access run skipped in -short mode")
	}
	sim := netsim.New(1)
	tb, err := hybrid.NewTestbed(sim, hybrid.Params{
		Link0: hybrid.LinkSpec{RateBps: 50_000_000, OneWayDelay: 15 * netsim.Millisecond, OneWayJitter: 2_500_000, QueueLimit: 300},
		Link1: hybrid.LinkSpec{RateBps: 30_000_000, OneWayDelay: 2_500_000, OneWayJitter: 1_000_000, QueueLimit: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, enable := range []func() error{tb.EnableWRRDownstream, tb.EnableWRRUpstream, func() error { return tb.DeployEndDM(true) }} {
		if err := enable(); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := tcpsim.NewStack(tb.S1), tcpsim.NewStack(tb.S2)
	var senders []*tcpsim.Sender
	for i := 0; i < 4; i++ {
		snd, _, err := tcpsim.NewTransfer(s1, s2, hybrid.S1Addr, hybrid.S2Addr,
			uint16(41000+i), uint16(5001+i), tcpsim.Config{FlowLabel: uint32(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, snd)
	}
	comp := tb.StartCompensator(100 * netsim.Millisecond)
	sim.RunUntil(2 * netsim.Second)
	for _, snd := range senders {
		snd.Start()
	}
	sim.RunUntil(3 * netsim.Second) // slow start and map/queue growth are done

	var before, after runtime.MemStats
	segs := tb.S2.Counters()["tcp_delivered"]
	runtime.ReadMemStats(&before)
	sim.RunUntil(5 * netsim.Second)
	runtime.ReadMemStats(&after)
	segs = tb.S2.Counters()["tcp_delivered"] - segs
	comp.Stop()
	if segs < 10000 {
		t.Fatalf("only %d data segments delivered in 2 s of model time", segs)
	}
	perSeg := float64(after.Mallocs-before.Mallocs) / float64(segs)
	t.Logf("%d segments delivered, %.2f allocations per delivered segment", segs, perSeg)
	const limit, parent = 5.61, 37.08
	if perSeg > limit || limit >= 0.4*parent {
		t.Errorf("%.2f allocations per delivered data segment, want <= %.2f (and the limit under 40 %% of the parent's %.2f)", perSeg, limit, parent)
	}
}

// benchFile is the slice of a BENCH_PR*.json report the trajectory
// check cares about.
type benchFile struct {
	name         string
	pr           int
	Schema       string                        `json:"schema"`
	Host         *benchHostFile                `json:"host"`
	Datapath     []experiments.DatapathRow     `json:"datapath"`
	ShardScaling []experiments.ShardScalingRow `json:"shard_scaling"`
	PDR          []experiments.PDRRow          `json:"pdr"`
}

// benchHostFile mirrors the report's host record. Reports up to PR 6
// predate it; they are exempt from every wall-clock comparison.
type benchHostFile struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Burst      int    `json:"burst"`
	Partition  string `json:"partition"`
	PR         int    `json:"pr"`
}

// fingerprint identifies the machine/toolchain and the measurement
// configuration, ignoring the PR stamp: timings are only comparable
// between reports with equal fingerprints. The burst knob is part of
// it — numbers taken under different burst settings measure different
// datapaths (reports predating the knob carry b0 and are never
// wall-clock-compared against batched ones). The shard partition is
// part of it too: together with GOMAXPROCS it keeps the single-core
// trajectory reports and the multi-core min-cut scaling reports in
// separate timing lineages (reports predating the partitioner ran
// contiguous and say so implicitly).
func (h *benchHostFile) fingerprint() string {
	part := h.Partition
	if part == "" {
		part = "contiguous"
	}
	return h.GOOS + "/" + h.GOARCH + "/" + h.GoVersion + "/p" +
		strconv.Itoa(h.GOMAXPROCS) + "/c" + strconv.Itoa(h.NumCPU) +
		"/b" + strconv.Itoa(h.Burst) + "/" + part
}

// scratchBenchReport is the git-ignored name `make bench-ci` writes its
// fresh report under. It matches the committed reports' glob, so the
// trajectory never picks it up from there: a stale or partial one left
// in a checkout must not fail `go test ./...`.
const scratchBenchReport = "BENCH_PR999.json"

// benchReport names a fresh report to diff after every committed one:
//
//	go test -run TestBenchTrajectory . -args -bench-report BENCH_PR999.json
var benchReport = flag.String("bench-report", "", "fresh srv6bench -bench-json report for TestBenchTrajectory to diff after the committed ones")

// committedBenchReports lists dir's BENCH_PR*.json reports, the scratch
// one excluded.
func committedBenchReports(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	return slices.DeleteFunc(paths, func(p string) bool { return filepath.Base(p) == scratchBenchReport }), err
}

// TestBenchTrajectoryIgnoresScratchReport: a leftover scratch report is
// not part of the default trajectory.
func TestBenchTrajectoryIgnoresScratchReport(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR9.json", "BENCH_PR10.json", scratchBenchReport} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := committedBenchReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "BENCH_PR10.json"), filepath.Join(dir, "BENCH_PR9.json")}
	if !slices.Equal(got, want) {
		t.Errorf("committed reports = %v, want %v", got, want)
	}
}

// TestBenchTrajectory diffs the committed BENCH_PR*.json trajectory,
// followed by the report -bench-report names, if any (`make bench-ci`):
// every report must parse against the current schema, later PRs must
// keep publishing every datapath row an earlier PR published (a
// silently dropped benchmark is how a regression hides), and the rows
// the zero-allocation datapath promise covers must report 0 allocs/op
// in every report from the moment they first appear. Wall-clock
// timings are machine-dependent and are only diffed between
// consecutive reports whose host fingerprints match (the tracing-off
// overhead gate, from PR 7 on); across differing hosts they are
// deliberately not compared.
func TestBenchTrajectory(t *testing.T) {
	paths, err := committedBenchReports(".")
	if err != nil {
		t.Fatal(err)
	}
	// Order by PR number, not lexicographically: BENCH_PR10.json must
	// follow BENCH_PR9.json. The fresh report is gated as the newest PR.
	prNum := func(p string) int {
		if p == *benchReport {
			return math.MaxInt
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_PR"), ".json"))
		if err != nil {
			t.Fatalf("unparseable bench report name %q: %v", p, err)
		}
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return prNum(paths[i]) < prNum(paths[j]) })
	if *benchReport != "" {
		paths = append(paths, *benchReport)
	}
	if len(paths) < 2 {
		t.Skipf("need at least two bench reports, found %d", len(paths))
	}
	var files []benchFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f := benchFile{name: p, pr: prNum(p)}
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s does not parse: %v", p, err)
		}
		if f.Schema != "srv6bpf-bench/1" {
			t.Errorf("%s: schema %q, want srv6bpf-bench/1", p, f.Schema)
		}
		if len(f.Datapath) == 0 {
			t.Errorf("%s: no datapath rows", p)
		}
		files = append(files, f)
	}
	zeroAlloc := map[string]bool{
		"End-static-go": true,
		"EndBPF-jit":    true,
		"EndBPF-interp": true,
		"TagInc-jit":    true,
		"TagInc-interp": true,
	}
	for i, f := range files {
		rows := make(map[string]experiments.DatapathRow, len(f.Datapath))
		for _, r := range f.Datapath {
			rows[r.Name] = r
			if zeroAlloc[r.Name] && r.AllocsPerOp != 0 {
				t.Errorf("%s: %s reports %d allocs/op; the zero-allocation datapath regressed",
					f.name, r.Name, r.AllocsPerOp)
			}
		}
		// Observability gates, effective from PR 7 (the PR that added
		// the plane): the report must fingerprint its host and publish
		// the sim-level datapath pair, and the full recorder must stay
		// cheap and allocation-free relative to the obs-off run.
		if f.pr >= 7 {
			if f.Host == nil {
				t.Errorf("%s: PR %d report lacks the host record", f.name, f.pr)
			}
			checkObsRows(t, f, rows)
		}
		// Batched-datapath and PDR gates, effective from PR 8 (the PR
		// that added both): the report must publish the SimUDP burst
		// pair (allocation-free, batching visibly faster) and a PDR
		// saturation row per behavior.
		if f.pr >= 8 {
			checkBurstRows(t, f, rows)
			checkPDRRows(t, f)
		}
		// Partition-aware gate, effective from PR 10 (the PR that added
		// the topology-aware partitioner): the report must name the shard
		// placement in its host record — the partition joins GOMAXPROCS
		// in the fingerprint, so a single-core contiguous trajectory
		// report and a multi-core min-cut report never timing-compare —
		// and every scaling row must say which placement produced its
		// cross-shard message count.
		if f.pr >= 10 {
			if f.Host != nil && f.Host.Partition == "" {
				t.Errorf("%s: PR %d report does not name its shard partition", f.name, f.pr)
			}
			for _, r := range f.ShardScaling {
				if r.Partition == "" {
					t.Errorf("%s: shard-scaling row (%d shards) does not name its partition", f.name, r.Shards)
				}
			}
		}
		if i == 0 {
			continue
		}
		for _, prev := range files[i-1].Datapath {
			if _, ok := rows[prev.Name]; !ok {
				t.Errorf("%s: datapath row %q published by %s disappeared",
					f.name, prev.Name, files[i-1].name)
			}
		}
		checkTracingOffOverhead(t, files[i-1], f)
	}
}

// Tracing-off overhead gate: with the observability plane compiled in
// but disabled, the datapath must not get slower. Between consecutive
// reports from the *same* host fingerprint, each zero-alloc row (and
// the sim-level obs-off row once both reports publish it) may grow by
// obsTracingOffMaxX plus a noise allowance. The engineering target is
// ≤3%, but the enforced bound is looser: on the shared
// 1-core runner, identical code drifts up to ±25% (±55 ns/op) on the
// sub-µs rows and ~5% on the µs-scale sim rows between consecutive
// reports, so the gate only attributes regressions clearly above that
// envelope (a lost nil-check fast path — a per-hop ParseInfo across
// three nodes — costs several hundred ns on the SimUDP rows and fails
// cleanly).
const (
	obsTracingOffMaxX = 1.03
	obsNoiseFloorNs   = 100.0 // absolute allowance: sub-100ns deltas are scheduler noise
	obsNoiseFloorX    = 0.12  // relative allowance for the µs-scale rows
	// The full flight recorder (every flow sampled) may cost at most
	// this factor over the obs-off sim datapath, within one report.
	obsTracingOnMaxX = 1.5
)

func checkTracingOffOverhead(t *testing.T, prev, cur benchFile) {
	if prev.Host == nil || cur.Host == nil ||
		prev.Host.fingerprint() != cur.Host.fingerprint() {
		return
	}
	gated := map[string]bool{
		"End-static-go": true, "EndBPF-jit": true, "EndBPF-interp": true,
		"TagInc-jit": true, "TagInc-interp": true, "SimUDP-obs-off": true,
		"SimUDP-burst1": true, "SimUDP-burst32": true,
	}
	base := make(map[string]float64, len(prev.Datapath))
	for _, r := range prev.Datapath {
		if gated[r.Name] && r.NsPerOp > 0 {
			base[r.Name] = r.NsPerOp
		}
	}
	for _, r := range cur.Datapath {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		noise := obsNoiseFloorNs
		if rel := b * obsNoiseFloorX; rel > noise {
			noise = rel
		}
		if allow := b*obsTracingOffMaxX + noise; r.NsPerOp > allow {
			t.Errorf("%s: %s runs at %.0f ns/op vs %.0f in %s (+%.1f%%); budget %.0f%% + %.0f ns same-host noise allowance",
				cur.name, r.Name, r.NsPerOp, b, prev.name,
				(r.NsPerOp/b-1)*100, (obsTracingOffMaxX-1)*100, noise)
		}
	}
}

// checkObsRows enforces the within-report observability contract: both
// sim-level rows exist, turning the recorder on allocates nothing
// extra per packet, and costs at most obsTracingOnMaxX.
func checkObsRows(t *testing.T, f benchFile, rows map[string]experiments.DatapathRow) {
	off, okOff := rows["SimUDP-obs-off"]
	on, okOn := rows["SimUDP-obs-on"]
	if !okOff || !okOn {
		t.Errorf("%s: missing sim-level datapath rows (obs-off %v, obs-on %v)", f.name, okOff, okOn)
		return
	}
	if on.AllocsPerOp != off.AllocsPerOp {
		t.Errorf("%s: flight recorder allocates: %d allocs/op with tracing on vs %d off",
			f.name, on.AllocsPerOp, off.AllocsPerOp)
	}
	if off.NsPerOp > 0 && on.NsPerOp > off.NsPerOp*obsTracingOnMaxX {
		t.Errorf("%s: full recorder costs %.2fx over obs-off (%.0f vs %.0f ns/op), budget %.2fx",
			f.name, on.NsPerOp/off.NsPerOp, on.NsPerOp, off.NsPerOp, obsTracingOnMaxX)
	}
}

// burstMinSpeedupX is the trajectory floor on the batched datapath:
// the burst=N SimUDP row must beat the burst=1 row by at least this
// factor in every committed report. The engineering target at
// generation time is 1.25x; the enforced floor is looser because the
// two rows are measured seconds apart on a shared runner and their
// ratio wobbles several percent between identical runs.
const burstMinSpeedupX = 1.05

// checkBurstRows enforces the batched-datapath contract within one
// report: the burst=1 baseline and a burst>1 row both exist, both are
// allocation-free (the whole batch, not just one packet), and batching
// actually pays.
func checkBurstRows(t *testing.T, f benchFile, rows map[string]experiments.DatapathRow) {
	base, okBase := rows["SimUDP-burst1"]
	var batched []experiments.DatapathRow
	for _, r := range f.Datapath {
		if r.Burst > 1 {
			batched = append(batched, r)
		}
	}
	if !okBase || len(batched) == 0 {
		t.Errorf("%s: missing SimUDP burst pair (burst1 %v, batched rows %d)", f.name, okBase, len(batched))
		return
	}
	if base.AllocsPerOp != 0 {
		t.Errorf("%s: SimUDP-burst1 allocates (%d allocs/op), want 0", f.name, base.AllocsPerOp)
	}
	for _, r := range batched {
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: %s allocates (%d allocs/op), want 0", f.name, r.Name, r.AllocsPerOp)
		}
		if base.NsPerOp > 0 && r.NsPerOp > 0 {
			if x := base.NsPerOp / r.NsPerOp; x < burstMinSpeedupX {
				t.Errorf("%s: %s runs at %.2fx the burst=1 events/s (%.0f vs %.0f ns/op), floor %.2fx",
					f.name, r.Name, x, r.NsPerOp, base.NsPerOp, burstMinSpeedupX)
			}
		}
	}
}

// pdrRequired lists the behaviors every report from PR 8 on must
// publish a PDR saturation row for — the SRPerf measurement matrix.
var pdrRequired = []string{"End", "End.BPF-interp", "End.BPF-jit", "T.Encaps", "FRR-steer"}

// pdrRequiredPR9 extends the matrix from PR 9 on (the PR that added
// the registry-dispatched behaviors): the cross-connect and the
// router-side decap join the scan.
var pdrRequiredPR9 = []string{"End.X", "End.DT6"}

// checkPDRRows enforces the PDR contract: one converged saturation row
// per required behavior, with a sane bracket and a drop rate at or
// under the threshold it claims.
func checkPDRRows(t *testing.T, f benchFile) {
	byName := make(map[string]experiments.PDRRow, len(f.PDR))
	for _, r := range f.PDR {
		byName[r.Name] = r
	}
	required := pdrRequired
	if f.pr >= 9 {
		required = append(append([]string{}, pdrRequired...), pdrRequiredPR9...)
	}
	for _, name := range required {
		r, ok := byName[name]
		if !ok {
			t.Errorf("%s: no PDR row for %s", f.name, name)
			continue
		}
		if r.PDRKPPS <= 0 {
			t.Errorf("%s: PDR(%s) = %.1f kpps, want > 0 (search never passed its lower bracket)", f.name, name, r.PDRKPPS)
		}
		if r.DropRate > r.Threshold {
			t.Errorf("%s: PDR(%s) reports drop rate %.4f above its own threshold %.4f", f.name, name, r.DropRate, r.Threshold)
		}
	}
}

// TestSimSteadyStateAllocs guards the netsim-side pooling: scheduling
// and draining events must not allocate per event beyond the commit
// closure itself (heap entries are stored by value and reused).
func TestSimSteadyStateAllocs(t *testing.T) {
	sim := netsim.New(7)
	sim.AddNode("solo", netsim.HostCostModel())

	// Warm the event heap so slice growth is done.
	for i := 0; i < 64; i++ {
		sim.After(int64(i), func() {})
	}
	sim.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		sim.After(10, func() {})
		sim.Run()
	})
	// One closure per After is expected; the event itself must not be
	// a second heap object (container/heap boxed one per push).
	if allocs > 1 {
		t.Fatalf("sim schedule/drain allocates %.1f objects per event, want <= 1 (the closure)", allocs)
	}
}
