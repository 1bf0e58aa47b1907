// Command benchmark is the repository's wall-clock benchmark: six
// workloads built from the public functions of internal/*, six
// end-to-end metrics per workload measured with tracing off, and a
// traced pass that times calls into each layer from outside. See
// README.md for why each workload and metric exists.
//
// The harness contract (BENCHMARK.json) drives it one workload at a
// time:
//
//	benchmark --workload lab3-end --seed 1 --seconds 10 --trace 0
//
// and reads the JSON object on the last line of standard output.
// Without --workload every workload runs, repetitions interleaved
// round-robin; without --trace both passes run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config selects what one invocation measures.
type config struct {
	seed    int64
	seconds int    // wall seconds each workload spends per pass
	trace   string // "0": end-to-end only, "1": per-layer only, "": both
	only    string // one workload, or "" for all
	// scaleDiv divides every model-time window; 1 outside the smoke
	// test. Golden fingerprints are checked only at 1.
	scaleDiv int64
}

// Before every repetition of the end-to-end pass the workload is also
// built and discarded for setupBudget, in batches of at least
// setupBatch: one set-up sample is one batch's mean. The lab set-ups
// take tens of microseconds and single ones scatter fivefold; a batch
// mean does not, and setup_s is the median of batches spread over the
// whole run instead of a handful taken in one burst of host noise.
const (
	setupBudget = 150 * time.Millisecond
	setupBatch  = 20 * time.Millisecond
)

func main() {
	var cfg config
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for netsim.New, the permutation pairing and the flow-label phase")
	flag.IntVar(&cfg.seconds, "seconds", 10, "wall seconds each workload measures per pass")
	flag.StringVar(&cfg.trace, "trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; empty: both")
	flag.StringVar(&cfg.only, "workload", "", "run one workload (default: all, interleaved)")
	traceOut := flag.String("trace-out", "", "write the traced pass's wall-clock spans to this file (Chrome trace_event JSON)")
	jsonOut := flag.String("json", "", "write the full report to this file (the input of -compare)")
	doCompare := flag.Bool("compare", false, "compare two -json reports given as arguments; exit 1 on a breach")
	goldenOut := flag.String("write-golden", "", "run every workload at seed 1 and write the golden file to this path")
	flag.Parse()
	cfg.scaleDiv = 1

	// Two Ps: one per shard of waxman256-par2, and the same schedule
	// on every host with at least two cores.
	runtime.GOMAXPROCS(2)

	if err := run(cfg, *doCompare, *traceOut, *jsonOut, *goldenOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, doCompare bool, traceOut, jsonOut, goldenOut string, args []string) error {
	switch {
	case doCompare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		a, err := readReport(args[0])
		if err != nil {
			return err
		}
		b, err := readReport(args[1])
		if err != nil {
			return err
		}
		if !compare(os.Stdout, a, b) {
			return fmt.Errorf("%s is worse than %s beyond a bound", args[1], args[0])
		}
		return nil
	case goldenOut != "":
		return writeGolden(goldenOut)
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case cfg.trace != "" && cfg.trace != "0" && cfg.trace != "1":
		return fmt.Errorf("-trace must be 0 or 1, got %q", cfg.trace)
	case cfg.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	}

	rep, tr, err := measure(cfg, os.Stdout)
	if err != nil {
		return err
	}
	if traceOut != "" && tr != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.writeChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, rep); err != nil {
			return err
		}
	}
	return printResultLine(os.Stdout, rep)
}

// state is one workload's progress through the two passes.
type state struct {
	w *workload
	// End-to-end pass: untraced repetitions and set-up timings.
	reps    []*rep
	setups  []float64
	elapsed time.Duration
	// Traced pass: untraced, traced (and for a sharded workload,
	// sequential) repetitions taken in turn.
	arms          arms
	tracedElapsed time.Duration
}

// measure runs the selected workloads and prints the report.
func measure(cfg config, out io.Writer) (*report, *tracer, error) {
	var states []*state
	for i := range workloads {
		if cfg.only == "" || cfg.only == workloads[i].name {
			states = append(states, &state{w: &workloads[i]})
		}
	}
	if len(states) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.only)
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	h := host()
	h.print(out, cfg.seed)
	budget := time.Duration(cfg.seconds) * time.Second / time.Duration(cfg.scaleDiv)

	// Repetitions go round-robin over the workloads (repetition 1 of
	// each, then repetition 2, ...) so a noisy minute on a shared host
	// is spread over all of them.
	roundRobin := func(step func(*state) (bool, error)) error {
		for progressed := true; progressed; {
			progressed = false
			for _, s := range states {
				more, err := step(s)
				if err != nil {
					return err
				}
				progressed = progressed || more
			}
		}
		return nil
	}

	if cfg.trace != "1" {
		err := roundRobin(func(s *state) (bool, error) {
			if s.elapsed >= budget && len(s.reps) >= 2 {
				return false, nil
			}
			t0 := time.Now()
			if err := s.timeSetups(cfg); err != nil {
				return false, err
			}
			r, err := runRep(s.w, cfg.seed, cfg.scaleDiv, false, nil)
			if err != nil {
				return false, err
			}
			s.elapsed += time.Since(t0)
			s.reps = append(s.reps, r)
			if r.SetupS >= (setupBatch / time.Duration(cfg.scaleDiv)).Seconds() {
				s.setups = append(s.setups, r.SetupS) // long enough to be a batch of its own
			}
			return true, nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	var tr *tracer
	var probes map[string]float64
	if cfg.trace != "0" {
		tr = newTracer()
		tr.workload = "probes"
		probes = runProbes(tr)
		err := roundRobin(func(s *state) (bool, error) {
			// Take the arms in turn so each sees the same host weather.
			type arm struct {
				reps   *[]*rep
				w      *workload
				traced bool
			}
			turn := []arm{{&s.arms.untraced, s.w, false}, {&s.arms.traced, s.w, true}}
			if s.w.buildSeq != nil {
				seq := *s.w
				seq.build = s.w.buildSeq
				turn = append(turn, arm{&s.arms.seq, &seq, false})
			}
			n := len(s.arms.untraced) + len(s.arms.traced) + len(s.arms.seq)
			if s.tracedElapsed >= budget && n >= len(turn) {
				return false, nil
			}
			a := turn[n%len(turn)]
			var t *tracer
			if a.traced {
				t = tr
			}
			t0 := time.Now()
			r, err := runRep(a.w, cfg.seed, cfg.scaleDiv, a.traced, t)
			if err != nil {
				return false, err
			}
			s.tracedElapsed += time.Since(t0)
			*a.reps = append(*a.reps, r)
			return true, nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	rp := &report{Host: h, Seed: cfg.seed, Seconds: cfg.seconds}
	for _, s := range states {
		wr := s.report(cfg, golden, probes, tr)
		wr.print(out)
		rp.Workloads = append(rp.Workloads, wr)
	}
	return rp, tr, nil
}

// timeSetups builds and discards the workload, recording each
// batch's mean set-up time.
func (s *state) timeSetups(cfg config) error {
	budget, batch := setupBudget/time.Duration(cfg.scaleDiv), setupBatch/time.Duration(cfg.scaleDiv)
	for start := time.Now(); time.Since(start) < budget; {
		t0, n := time.Now(), 0
		for n == 0 || time.Since(t0) < batch {
			inst, err := s.w.build(cfg.seed, nil)
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", s.w.name, err)
			}
			runtime.KeepAlive(inst)
			n++
		}
		s.setups = append(s.setups, time.Since(t0).Seconds()/float64(n))
	}
	return nil
}

// report turns the repetitions into the workload's report: the
// correctness verdict over every repetition of both passes, then the
// metrics of whichever passes ran.
func (s *state) report(cfg config, golden map[string]goldenEntry, probes map[string]float64, tr *tracer) workloadReport {
	wr := workloadReport{Name: s.w.name, Correct: true}
	all := append(append(append(append([]*rep(nil), s.reps...), s.arms.untraced...), s.arms.traced...), s.arms.seq...)
	want := all[0].Fingerprint
	wr.Fingerprint = want
	if g, ok := golden[s.w.name]; cfg.seed == goldenSeed && cfg.scaleDiv == 1 {
		if !ok {
			wr.Notes = append(wr.Notes, "no golden entry for this workload")
			want = ""
		} else if want = g.Fingerprint; all[0].Fingerprint != want {
			wr.Notes = append(wr.Notes, fmt.Sprintf("model state differs from golden.json: got %+v, want %+v", goldenOf(all[0]), g))
		}
	}
	for i, r := range all {
		wr.Attempted += r.Originated
		switch {
		case r.Fingerprint != want:
			// The model did something else: none of its packets count.
			wr.Failed += r.Originated
			if r.Fingerprint != all[0].Fingerprint {
				wr.Notes = append(wr.Notes, fmt.Sprintf("repetition %d fingerprints %s, repetition 0 %s: the run is not deterministic", i, r.Fingerprint, all[0].Fingerprint))
			}
		case r.Failed > 0:
			wr.Failed += r.Failed
			wr.Notes = append(wr.Notes, fmt.Sprintf("repetition %d lost %d of %d packets (delivered %d, intended drops %d)", i, r.Failed, r.Originated, r.Delivered, r.IntendedDrops))
		}
	}
	wr.Correct = wr.Failed == 0

	if len(s.reps) > 0 {
		wall := wallSamples(s.reps)
		perPkt := func(f func(*rep) uint64) float64 {
			return median(over(s.reps, func(r *rep) float64 { return float64(f(r)) / float64(r.WindowPkts) }))
		}
		wr.Reps, wr.Samples = len(s.reps), len(wall)
		wr.SliceP50, wr.SliceP95 = median(wall), quantile(wall, 0.95)
		wr.EndToEnd = named(endToEnd, map[string]float64{
			// Interference on a shared host only adds time, so the
			// gated figures take the fast decile of the slices.
			"sim_pkts_per_wall_s": 1e9 / quantile(wall, 0.10),
			"cpu_ns_per_pkt":      quantile(cpuSamples(s.reps), 0.10),
			"allocs_per_pkt":      perPkt(func(r *rep) uint64 { return r.Mallocs }),
			"alloc_bytes_per_pkt": perPkt(func(r *rep) uint64 { return r.AllocBytes }),
			"live_heap_mb":        median(over(s.reps, func(r *rep) float64 { return float64(r.LiveHeap) / 1e6 })),
			"setup_s":             median(s.setups),
		})
	}
	if len(s.arms.traced) > 0 {
		wr.TracedReps = len(s.arms.traced)
		wr.TracedSamples = len(wallSamples(s.arms.traced))
		for _, r := range s.arms.traced {
			wr.WindowWallS += float64(r.WindowWallNs) / 1e9
		}
		wr.PerLayer = named(perLayer, layerMetrics(s.w, probes, s.arms))
		var runs uint64
		for _, ps := range s.arms.traced[0].Progs {
			runs += ps.RunCnt
		}
		for _, ps := range s.arms.traced[0].Progs {
			wr.Programs = append(wr.Programs, progShare{ps.Hook + "/" + ps.Name, ps.RunCnt, 100 * ratio(ps.RunCnt, runs)})
		}
		wr.SelfTimes = tr.selfTimes(s.w.name)
	}
	return wr
}

func (wr *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: correct=%v attempted=%d failed=%d fingerprint=%s\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Fingerprint)
	for _, n := range wr.Notes {
		fmt.Fprintf(out, "   !! %s\n", n)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(out, "   end to end, tracing off (%d repetitions, n=%d slices; gated throughput and CPU are the p10 slice)\n", wr.Reps, wr.Samples)
		for _, d := range endToEnd {
			fmt.Fprintf(out, "     %-34s %16.6g %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
		}
		p95 := ""
		if wr.Samples < 200 {
			p95 = " (fewer than ten samples beyond p95)"
		}
		fmt.Fprintf(out, "     %-34s %16.6g ns  p95 %.6g ns  n=%d%s\n", "slice wall per packet: p50", wr.SliceP50, wr.SliceP95, wr.Samples, p95)
	}
	if wr.PerLayer != nil {
		fmt.Fprintf(out, "   per layer, traced pass (%d traced repetitions, n=%d slices, window %.3f s; probes: median of %d batches of %d calls)\n",
			wr.TracedReps, wr.TracedSamples, wr.WindowWallS, probeBatches, probeCalls)
		for _, d := range perLayer {
			fmt.Fprintf(out, "     %-34s %16.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
		for _, ps := range wr.Programs {
			fmt.Fprintf(out, "     program %-26s %16d runs  %6.2f %% of runs\n", ps.Name, ps.Runs, ps.SharePct)
		}
		fmt.Fprintf(out, "   benchmark spans by self time (span - children)\n")
		for _, st := range wr.SelfTimes {
			fmt.Fprintf(out, "     %-34s n=%-5d total %10.3f ms  self %10.3f ms\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
		}
	}
}

// printResultLine writes the one JSON object the harness reads from
// the last line of standard output. With a single workload the metric
// names are bare; with several each is prefixed "<workload>:".
func printResultLine(out io.Writer, rp *report) error {
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, wr := range rp.Workloads {
		res.Correct = res.Correct && wr.Correct
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		prefix := ""
		if len(rp.Workloads) > 1 {
			prefix = wr.Name + ":"
		}
		for _, set := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
			for k, v := range set {
				res.Metrics[prefix+k] = v
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "\n%s\n", b)
	return err
}

// writeGolden records the seed-1 model outcome of every workload,
// after checking that two repetitions agree.
func writeGolden(path string) error {
	g := map[string]goldenEntry{}
	for i := range workloads {
		w := &workloads[i]
		var reps [2]*rep
		for j := range reps {
			r, err := runRep(w, goldenSeed, 1, false, nil)
			if err != nil {
				return err
			}
			reps[j] = r
		}
		if reps[0].Fingerprint != reps[1].Fingerprint {
			return fmt.Errorf("%s: two repetitions fingerprint differently (%s, %s)", w.name, reps[0].Fingerprint, reps[1].Fingerprint)
		}
		if reps[0].Failed > 0 {
			return fmt.Errorf("%s: %d packets lost at seed %d", w.name, reps[0].Failed, goldenSeed)
		}
		g[w.name] = goldenOf(reps[0])
		fmt.Printf("%-18s %+v\n", w.name, g[w.name])
	}
	return writeJSON(path, g)
}
