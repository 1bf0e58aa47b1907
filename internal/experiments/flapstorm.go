package experiments

import (
	"fmt"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/chaos"
)

// FlapStormRow is one arm of the flap-storm experiment.
type FlapStormRow struct {
	Mode         string  `json:"mode"` // "undamped" or "damped"
	FlapPeriodMs float64 `json:"flap_period_ms"`
	Cycles       int     `json:"cycles"`
	Transitions  int     `json:"transitions"`   // detector decisions (route churn)
	DeliveredPct float64 `json:"delivered_pct"` // of offered packets
	PacketsLost  int     `json:"packets_lost"`
}

// FRRFlapStorm measures what flap damping buys under a pathological
// link: the protected link flaps at roughly the detection timescale
// for `cycles` periods while protected traffic runs at 50 kpps. The
// undamped detector chases the flap frequency — one route flip per
// cycle, each down decision paying the K-probe blackout again. The
// damped detector pays its exponentially-growing hold-down, converges
// onto the backup path and stays there, so churn collapses while
// delivery stays in the same band (the detour keeps carrying traffic
// through the storm). A clean single failure keeps its
// K × interval + RTT recovery bound with damping on —
// TestDampedCleanFailureKeepsRecoveryBound locks that separately.
func FRRFlapStorm() ([]FlapStormRow, error) {
	const (
		k        = 2
		interval = netsim.Millisecond
		gap      = 20 * netsim.Microsecond // 50 kpps
		cycles   = 20
		downNs   = 4 * netsim.Millisecond
		upNs     = 4 * netsim.Millisecond
	)
	stormStart := int64(10 * netsim.Millisecond)
	stormEnd := stormStart + int64(cycles)*(downNs+upNs)
	until := stormEnd + 100*netsim.Millisecond // quiet tail: both arms re-converge

	var rows []FlapStormRow
	for _, damping := range []bool{false, true} {
		l, err := newFRRLab(7)
		if err != nil {
			return nil, err
		}
		f, err := l.protect(interval, k, damping)
		if err != nil {
			return nil, err
		}

		offered := l.offer(gap, until)
		ch := chaos.New(l.sim, 7)
		ch.FlapLink(l.pdIf, stormStart, downNs, upNs, cycles)

		l.sim.RunUntil(until)
		f.Stop()
		l.sim.Run()

		lost := offered - len(l.delivered)
		mode := "undamped"
		if damping {
			mode = "damped"
		}
		rows = append(rows, FlapStormRow{
			Mode:         mode,
			FlapPeriodMs: float64(downNs+upNs) / 1e6,
			Cycles:       cycles,
			Transitions:  len(f.Transitions),
			DeliveredPct: 100 * float64(offered-lost) / float64(offered),
			PacketsLost:  lost,
		})
		if f.Down(1) {
			return nil, fmt.Errorf("experiments: %s detector stuck down after the storm", mode)
		}
	}

	// The experiment's claim, enforced like FRRRecovery enforces its
	// budget: damping must cut route churn by well over 3x.
	if rows[1].Transitions*3 >= rows[0].Transitions {
		return nil, fmt.Errorf("experiments: damping did not bound churn (%d vs %d undamped)",
			rows[1].Transitions, rows[0].Transitions)
	}
	return rows, nil
}
