package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions, and main_test.go checks that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// The end-to-end metrics, the same six on every workload.
var endToEnd = []metricDef{
	{"sim_pkts_per_wall_s", "1/s", "higher", 0.20},
	{"cpu_ns_per_pkt", "ns", "lower", 0.20},
	{"allocs_per_pkt", "count", "lower", 0.01},
	{"alloc_bytes_per_pkt", "B", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// setupFloorS is the smallest set-up time difference -compare treats
// as a regression: below it the lab workloads' sub-millisecond
// set-ups are timer and allocator noise.
const setupFloorS = 0.010

// The per-layer metrics, grouped by the package they measure.
var perLayer = []metricDef{
	{"packet.parse_srh_ns", "ns", "lower", 0},
	{"packet.parse_plain_ns", "ns", "lower", 0},
	{"packet.clone_ns", "ns", "lower", 0},
	{"packet.decode_hdr_ns", "ns", "lower", 0},
	{"packet.share_pct", "%", "lower", 0},
	{"seg6.end_ns", "ns", "lower", 0},
	{"seg6.encap_ns", "ns", "lower", 0},
	{"seg6.dt6_ns", "ns", "lower", 0},
	{"seg6.share_pct", "%", "lower", 0},
	{"bpf_vm.alu_ns_per_insn_jit", "ns", "lower", 0},
	{"bpf_vm.alu_ns_per_insn_interp", "ns", "lower", 0},
	{"bpf_vm.insns_per_run", "count", "lower", 0},
	{"core.endbpf_end_jit_ns", "ns", "lower", 0},
	{"core.endbpf_end_interp_ns", "ns", "lower", 0},
	{"core.endbpf_endt_jit_ns", "ns", "lower", 0},
	{"core.endbpf_tag_jit_ns", "ns", "lower", 0},
	{"core.endbpf_tag_interp_ns", "ns", "lower", 0},
	{"core.endbpf_addtlv_jit_ns", "ns", "lower", 0},
	{"core.endbpf_addtlv_interp_ns", "ns", "lower", 0},
	{"core.lwt_out_ns", "ns", "lower", 0},
	{"core.bpf_runs_per_pkt", "count", "lower", 0},
	{"core.helper_calls_per_run", "count", "lower", 0},
	{"core.share_pct", "%", "lower", 0},
	{"bpf_verifier.load_us", "us", "lower", 0},
	{"bpf_maps.hash_lookup_ns", "ns", "lower", 0},
	{"bpf_maps.hash_update_ns", "ns", "lower", 0},
	{"bpf_maps.lpm_lookup_ns", "ns", "lower", 0},
	{"netem.admit_ns", "ns", "lower", 0},
	{"netem.admit_jitter_ns", "ns", "lower", 0},
	{"netem.share_pct", "%", "lower", 0},
	{"netsim_fib.lookup_lab_ns", "ns", "lower", 0},
	{"netsim_fib.lookup_fattree_ns", "ns", "lower", 0},
	{"netsim_fib.select_nexthop_ns", "ns", "lower", 0},
	{"netsim_fib.share_pct", "%", "lower", 0},
	{"netsim_engine.event_ns", "ns", "lower", 0},
	{"netsim_engine.events_per_pkt", "count", "lower", 0},
	{"netsim_engine.share_pct", "%", "lower", 0},
	{"netsim_engine.slice_ns_per_pkt_p50", "ns", "lower", 0},
	{"netsim_engine.slice_ns_per_pkt_p95", "ns", "lower", 0},
	{"netsim_node.ns_per_pkt_hop", "ns", "lower", 0},
	{"netsim_node.rx_ring_full_pct", "%", "lower", 0},
	{"netsim_node.unattributed_pct", "%", "lower", 0},
	{"netsim_shard.windows", "count", "lower", 0},
	{"netsim_shard.cross_shard_msgs", "count", "lower", 0},
	{"netsim_shard.cut_links", "count", "lower", 0},
	{"netsim_shard.speedup_vs_seq", "x", "higher", 0},
	{"netsim_shard.cpu_s_per_wall_s", "s/s", "lower", 0},
	{"partition.mincut_ms", "ms", "lower", 0},
	{"topo.fattree_build_ms", "ms", "lower", 0},
	{"topo.waxman_build_ms", "ms", "lower", 0},
	{"tcpsim.model_goodput_mbps", "Mbit/s", "higher", 0},
	{"tcpsim.retransmits", "count", "lower", 0},
	{"nf_hybrid.wrr_insns_per_run", "count", "lower", 0},
	{"obs.hist_observe_ns", "ns", "lower", 0},
	{"obs.span_start_ns", "ns", "lower", 0},
	{"obs.publish_us", "us", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named attaches the declared units to computed values; a value
// missing for a declared name is a bug in this program.
func named(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("benchmark: no value computed for metric " + d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// workloadReport is everything one invocation measured on a workload.
type workloadReport struct {
	Name        string `json:"name"`
	Correct     bool   `json:"correct"`
	Attempted   uint64 `json:"attempted"`
	Failed      uint64 `json:"failed"`
	Fingerprint string `json:"fingerprint"`
	// Notes explain a fingerprint or conservation failure.
	Notes []string `json:"notes,omitempty"`
	// Reps and Samples count the untraced repetitions and the pooled
	// slice timings behind the end-to-end metrics.
	Reps     int               `json:"reps,omitempty"`
	Samples  int               `json:"samples,omitempty"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	// SliceP50 and SliceP95 are the diagnostics printed beside the
	// gated p10 (wall ns per packet).
	SliceP50 float64 `json:"slice_ns_per_pkt_p50,omitempty"`
	SliceP95 float64 `json:"slice_ns_per_pkt_p95,omitempty"`
	// The traced pass.
	TracedReps    int               `json:"traced_reps,omitempty"`
	TracedSamples int               `json:"traced_samples,omitempty"`
	WindowWallS   float64           `json:"traced_window_wall_s,omitempty"`
	PerLayer      map[string]metric `json:"per_layer,omitempty"`
	// Programs lists each BPF attachment's share of the program runs.
	Programs  []progShare `json:"programs,omitempty"`
	SelfTimes []selfTime  `json:"self_times,omitempty"`
}

type progShare struct {
	Name     string  `json:"name"`
	Runs     uint64  `json:"runs"`
	SharePct float64 `json:"share_pct"`
}

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Git        string `json:"git"`
}

type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

// host fingerprints the machine and build every report is tied to.
func host() hostInfo {
	h := hostInfo{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", Git: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only ask git inside a work tree rooted here: the driver's
	// checkouts are plain directories and git would search upwards.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
			h.Git = strings.TrimSpace(string(out))
		}
	}
	return h
}

func (h hostInfo) print(w io.Writer, seed int64) {
	fmt.Fprintf(w, "host: %s/%s %s, %d CPUs, GOMAXPROCS %d, %s, git %s, seed %d\n",
		h.GOOS, h.GOARCH, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.Git, seed)
	if h.NumCPU < 2 {
		fmt.Fprintln(w, "WARNING: fewer than 2 CPUs: waxman256-par2 measures synchronisation overhead here, NOT parallelism")
	}
}

// golden.json holds, for seed 1 at full scale, the model-observable
// outcome of one repetition of each workload. It is the model-time
// half of the benchmark: recorded once, gated by equality.
//
//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

type goldenEntry struct {
	Fingerprint   string  `json:"fingerprint"`
	Originated    uint64  `json:"originated"`
	Delivered     uint64  `json:"delivered"`
	IntendedDrops uint64  `json:"intended_drops"`
	SinkRate      float64 `json:"sink_rate"`
}

func goldenOf(r *rep) goldenEntry {
	return goldenEntry{r.Fingerprint, r.Originated, r.Delivered, r.IntendedDrops, r.SinkRate}
}

func loadGolden() (map[string]goldenEntry, error) {
	var g map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, per workload and end-to-end metric, the baseline
// value a, the candidate value b, the change and the bound, and
// reports whether b stays within every bound and fails no larger a
// share of its packets than a.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: the reports come from different hosts or builds:\n  a: %+v\n  b: %+v\n", a.Host, b.Host)
	}
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from the second report: BREACH\n", wa.Name)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := (vb - va) / va // share of the baseline by which b is worse
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > d.Bound && !(d.Name == "setup_s" && vb-va < setupFloorS) {
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %14.6g -> %14.6g %-5s %+7.2f%% worse (bound %4.1f%%, %s is better)  %s\n",
				d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, d.Better, verdict)
		}
		fa, fb := ratio(wa.Failed, wa.Attempted), ratio(wb.Failed, wb.Attempted)
		verdict := "ok"
		if fb > fa || !wb.Correct {
			verdict = "BREACH"
			ok = false
		}
		fmt.Fprintf(w, "  %-22s %14.6g -> %14.6g %-5s correct %v -> %v  %s\n", "failed_share", fa, fb, "", wa.Correct, wb.Correct, verdict)
	}
	return ok
}
