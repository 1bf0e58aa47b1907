package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"srv6bpf/internal/experiments"
)

// wantFig2 is what `srv6bench -fig 2 -duration 50ms` prints. The rows
// are model time, so they must also be the Figure 2 rows and the JIT
// factor the model-time golden file holds (TestFig2MatchesGolden).
const wantFig2 = `== Figure 2: packets forwarded per second, normalized (§3.2) ==
   paper: End.BPF -3% vs static End; Tag++ -3% vs End.BPF;
   End.T.BPF -5% vs static End.T; AddTLV -5% vs End.BPF; no-JIT /1.8
  IPv6 forward         610.1 kpps   100.0%
  End static           592.1 kpps    97.0%
  End BPF              576.4 kpps    94.5%
  End.T static         580.1 kpps    95.1%
  End.T BPF            562.5 kpps    92.2%
  Tag++ BPF            559.6 kpps    91.7%
  Add TLV BPF          546.8 kpps    89.6%
  Add TLV no JIT       308.7 kpps    50.6%
  whole-router throughput JIT/no-JIT = 1.77 (paper: 1.8)

`

// wantFRR is what `srv6bench -frr` prints: recovery grows with the
// probe interval and stays inside K x interval + one probe RTT.
const wantFRR = `== Fast reroute: recovery time vs probe interval (K=3 misses) ==
   bound: recovery < K x interval + one probe RTT; FIB backup is the
   link-state (oracle detection) floor
  eBPF FRR   interval    1 ms K=3  recovery    3.196 ms (budget    3.240)  lost  158
  eBPF FRR   interval    2 ms K=3  recovery    6.196 ms (budget    6.240)  lost  308
  eBPF FRR   interval    5 ms K=3  recovery   15.196 ms (budget   15.240)  lost  758
  eBPF FRR   interval   10 ms K=3  recovery   30.196 ms (budget   30.240)  lost 1508
  FIB backup       (link-state)  recovery    0.146 ms   lost    5

`

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("srv6bench %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestFig2MatchesGolden(t *testing.T) {
	got := runOK(t, "-fig", "2", "-duration", "50ms")
	if got != wantFig2 {
		t.Errorf("srv6bench -fig 2 -duration 50ms:\n%s\nwant:\n%s", got, wantFig2)
	}
	file, err := os.ReadFile("../../internal/experiments/testdata/model.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		WindowMs  int               `json:"window_ms"`
		Fig2      []experiments.Row `json:"fig2"`
		JITFactor float64           `json:"jit_factor"`
	}
	if err := json.Unmarshal(file, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.WindowMs != 50 || len(golden.Fig2) != 8 {
		t.Fatalf("golden file holds a %d ms window and %d Figure 2 rows, want 50 ms and 8", golden.WindowMs, len(golden.Fig2))
	}
	lines := strings.Split(got, "\n")
	for i, r := range golden.Fig2 {
		if want := fmt.Sprintf("  %-16s %9.1f kpps   %5.1f%%", r.Name, r.KPPS, r.Normalized*100); 3+i >= len(lines) || lines[3+i] != want {
			t.Errorf("Figure 2 row %d is not the golden row %q", i, want)
		}
	}
	if want := fmt.Sprintf("JIT/no-JIT = %.2f ", golden.JITFactor); !strings.Contains(got, want) {
		t.Errorf("JIT factor line does not read the golden %q", want)
	}
}

func TestFRR(t *testing.T) {
	if got := runOK(t, "-frr"); got != wantFRR {
		t.Errorf("srv6bench -frr:\n%s\nwant:\n%s", got, wantFRR)
	}
}

// TestNoExperimentIsUsage: a command line that selects nothing prints
// the usage and is refused.
func TestNoExperimentIsUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) || out.Len() != 0 {
		t.Errorf("run() = %v with %q on stdout, want errUsage and nothing", err, out.String())
	}
}
