package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"srv6bpf/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/model.golden.json from this run")

const modelGoldenPath = "testdata/model.golden.json"

// modelGolden is every model-time figure the repo publishes. Model time
// is virtual nanoseconds charged by netsim/cost.go: a function of the
// calibration and of which packets take which path, never of the host,
// so the file is compared by equality.
type modelGolden struct {
	WindowMs  int         `json:"window_ms"`
	Fig2      []Row       `json:"fig2"`
	Fig3      []Row       `json:"fig3"`
	Fig4      []Fig4Point `json:"fig4"`
	JITFactor float64     `json:"jit_factor"`
	PDR       []PDRRow    `json:"pdr"`
}

// TestModelGolden pins the Fig 2 / Fig 3 / Fig 4 rows at the 50 ms
// window, the JIT factor and the seven PDR saturation points against the
// committed golden file, holds Figure 2 to the ratios the paper reports
// (§3.2), and Figure 4's JIT ablation to a curve never below the
// interpreted one (§4.2). It runs in parallel with TestTCPHybrid.
// Regenerate with: go test ./internal/experiments -run TestModelGolden -update
func TestModelGolden(t *testing.T) {
	t.Parallel()
	const windowMs = 50
	window := int64(windowMs) * netsim.Millisecond
	got := modelGolden{WindowMs: windowMs}
	var err error
	if got.Fig2, err = Figure2(window); err != nil {
		t.Fatal(err)
	}
	if got.Fig3, err = Figure3(window); err != nil {
		t.Fatal(err)
	}
	if got.Fig4, err = Figure4(window); err != nil {
		t.Fatal(err)
	}
	if got.JITFactor, err = JITFactor(got.Fig2); err != nil {
		t.Fatal(err)
	}
	interp, jit, err := Fig4JITAblation(got.Fig4, window)
	if err != nil {
		t.Fatal(err)
	}
	for i := range interp {
		if jit[i].GoodputMbps < interp[i].GoodputMbps {
			t.Errorf("Fig 4 JIT ablation: JIT %.1f Mbps slower than interpreter %.1f at %d B", jit[i].GoodputMbps, interp[i].GoodputMbps, interp[i].Payload)
		}
	}

	kpps := make(map[string]float64, len(got.Fig2))
	for _, r := range got.Fig2 {
		kpps[r.Name] = r.KPPS
	}
	under := func(name, ref string) float64 { return 100 * (1 - kpps[name]/kpps[ref]) }
	if d := under("End BPF", "End static"); math.Abs(d-3) > 1 {
		t.Errorf("End.BPF is %.2f%% under static End, paper: 3 ± 1%%", d)
	}
	if d := under("Add TLV BPF", "End BPF"); math.Abs(d-5) > 1 {
		t.Errorf("Add TLV is %.2f%% under End.BPF, paper: about 5%%", d)
	}
	if math.Abs(got.JITFactor-1.8) > 0.1 {
		t.Errorf("JIT factor %.3f, paper: 1.8 ± 0.1", got.JITFactor)
	}

	if got.PDR, err = PDRScan(); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(modelGoldenPath, marshalGolden(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(modelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out := marshalGolden(t, got); !bytes.Equal(out, file) {
		t.Errorf("model-time figures differ from %s (regenerate with -update only when cost.go or a datapath decision changed on purpose)\ngot:\n%s", modelGoldenPath, out)
	}
}

func marshalGolden(t *testing.T, g modelGolden) []byte {
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
