package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the parts of ../BENCHMARK.json the smoke test
// checks this program against.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload through both passes at 1/50 scale and
// checks what the harness and later PRs rely on: names and units
// agree with BENCHMARK.json, repetitions fingerprint identically and
// lose no packet, a report compares clean against itself, and the
// trace's slice spans add up to the reported window.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	rp, tr, err := measure(config{seed: 3, seconds: 1, scaleDiv: 50}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() || testing.Verbose() {
		t.Log(out.String())
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Name != rp.Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q, report %q", i, w.Name, workloads[i].name, rp.Workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q breaks the naming rule", w.Name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json and the program give different reasons", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if !strings.Contains(out.String(), " "+d.Name+" ") {
			t.Errorf("metric %s is not printed", d.Name)
		}
	}

	for _, wr := range rp.Workloads {
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
		}
		if wr.Reps < 2 || wr.TracedReps < 1 {
			t.Errorf("%s: %d untraced and %d traced repetitions, want at least 2 and 1 to compare fingerprints", wr.Name, wr.Reps, wr.TracedReps)
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics reported", wr.Name, len(wr.EndToEnd), len(wr.PerLayer))
		}
		for name, m := range wr.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wr.Name, name, m.Value)
			}
		}

		// The layer shares and the remainder add up by construction;
		// the no-op cells are what the workloads were chosen for.
		sum := wr.PerLayer["netsim_node.unattributed_pct"].Value
		for _, l := range []string{"packet", "seg6", "core", "netem", "netsim_fib", "netsim_engine"} {
			sum += wr.PerLayer[l+".share_pct"].Value
		}
		if sum < 99.999 || sum > 100.001 {
			t.Errorf("%s: shares + unattributed = %v, want 100", wr.Name, sum)
		}
		bpf := wr.PerLayer["core.bpf_runs_per_pkt"].Value
		if (wr.Name == "lab3-end" || wr.Name == "fattree208-seq") && bpf != 0 {
			t.Errorf("%s runs BPF %v times per packet, want 0", wr.Name, bpf)
		}
		windows := wr.PerLayer["netsim_shard.windows"].Value
		if (wr.Name == "waxman256-par2") != (windows > 0) {
			t.Errorf("%s: %v shard windows", wr.Name, windows)
		}

		if strings.HasPrefix(wr.Name, "lab3-bpf") {
			if len(wr.Programs) != 4 {
				t.Errorf("%s: %d programs ran, want the four of Fig. 2", wr.Name, len(wr.Programs))
			}
			for _, ps := range wr.Programs {
				if ps.SharePct < 23 || ps.SharePct > 27 {
					t.Errorf("%s: %s got %.2f%% of the runs, want 25 +- 2", wr.Name, ps.Name, ps.SharePct)
				}
			}
		}

		// The trace's slice spans are the reported window.
		var slices float64
		for _, st := range wr.SelfTimes {
			if st.Name == "run.slice" {
				slices = st.TotalMs / 1e3
			}
		}
		if d := slices/wr.WindowWallS - 1; d < -0.02 || d > 0.02 {
			t.Errorf("%s: run.slice spans sum to %.4f s, reported window %.4f s", wr.Name, slices, wr.WindowWallS)
		}
	}

	var cmp bytes.Buffer
	if !compare(&cmp, rp, rp) {
		t.Errorf("a report does not compare clean against itself:\n%s", cmp.String())
	}
	var worse report
	b, _ := json.Marshal(rp)
	if err := json.Unmarshal(b, &worse); err != nil {
		t.Fatal(err)
	}
	m := worse.Workloads[0].EndToEnd["sim_pkts_per_wall_s"]
	m.Value *= 0.7
	worse.Workloads[0].EndToEnd["sim_pkts_per_wall_s"] = m
	if compare(&cmp, rp, &worse) {
		t.Errorf("-compare accepts a 30%% throughput loss")
	}

	var trace bytes.Buffer
	if err := tr.writeChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &loaded); err != nil || len(loaded.TraceEvents) != len(tr.spans) {
		t.Errorf("trace does not load back: %v (%d events, %d spans)", err, len(loaded.TraceEvents), len(tr.spans))
	}
}
