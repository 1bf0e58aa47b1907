package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestPDRFixedPoint drives the scan with synthetic probes, no
// simulation: each delivers a closed-form count for the offered rate.
func TestPDRFixedPoint(t *testing.T) {
	const (
		windowS = float64(pdrWindowNs) / 1e9
		mu      = 400_000.0 // bottleneck service rate, pps
		ring    = 512.0
	)
	bottleneck := mu*windowS + ring
	closedForm := bottleneck / ((1 - PDRThreshold) * windowS) // pps
	// synthetic offers rate for the window and delivers what capacity
	// allows of it; call numbers the probes from 1.
	synthetic := func(capacity func(rate float64, call int) float64) pdrProbe {
		call := 0
		return func(rate float64, windowNs int64) (uint64, uint64, error) {
			call++
			offered := math.Floor(rate * float64(windowNs) / 1e9)
			return uint64(offered), uint64(math.Min(offered, capacity(rate, call))), nil
		}
	}
	for _, c := range []struct {
		name    string
		probe   pdrProbe
		kpps    float64 // closed form, when the scan succeeds
		probes  int
		wantErr string
	}{
		{
			// D = min(λT, μT + R): one overload probe lands on the PDR.
			name:   "single bottleneck",
			probe:  synthetic(func(float64, int) float64 { return bottleneck }),
			kpps:   closedForm * (1 - pdrTolerance) / 1e3,
			probes: 4,
		},
		{
			// An upstream stage overloaded above 420 kpps drains 300 more
			// packets into the bottleneck after the window, so the first
			// step overshoots and the second corrects it.
			name: "two-stage overshoot",
			probe: synthetic(func(rate float64, _ int) float64 {
				if rate > 420_000 {
					return bottleneck + 300
				}
				return bottleneck
			}),
			kpps:   closedForm * (1 - pdrTolerance) / 1e3,
			probes: 5,
		},
		{
			name: "nothing offered",
			probe: func(float64, int64) (uint64, uint64, error) {
				return 0, 0, nil
			},
			wantErr: "offered nothing",
		},
		{
			name: "delivered more than offered",
			probe: func(float64, int64) (uint64, uint64, error) {
				return 10, 11, nil
			},
			wantErr: "delivered 11 of 10",
		},
		{
			// The bottleneck alternates between two capacities, so
			// successive predictions never agree.
			name: "oscillating",
			probe: synthetic(func(_ float64, call int) float64 {
				return bottleneck * float64(1+call%2)
			}),
			wantErr: "no fixed point in 8 probes",
		},
		{
			name:    "no drops at 3 Mpps",
			probe:   synthetic(func(rate float64, _ int) float64 { return rate }),
			wantErr: "does not saturate",
		},
		{
			// 0.4 % is lost at every rate from 400 kpps to 1 Mpps, so the
			// check above the fixed point passes the threshold.
			name: "wrong-way check",
			probe: synthetic(func(rate float64, _ int) float64 {
				if rate >= 400_000 && rate <= 1_000_000 {
					return 0.996 * rate * windowS
				}
				return bottleneck
			}),
			wantErr: "wrong side of 0.5%",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			row, err := pdrFixedPoint(c.name, c.probe)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), c.name) {
					t.Fatalf("got %+v, %v; want an error naming %q with %q", row, err, c.name, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(row.PDRKPPS-c.kpps) > 1e-9*c.kpps || row.Iterations != c.probes {
				t.Errorf("PDR %.6f kpps in %d probes, want %.6f in %d", row.PDRKPPS, row.Iterations, c.kpps, c.probes)
			}
			if row.DropRate > PDRThreshold {
				t.Errorf("drop %.4f%% at the reported PDR", row.DropRate*100)
			}
		})
	}
}
