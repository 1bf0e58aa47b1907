package experiments

// SRPerf-style PDR saturation: for each SRv6 behavior, the highest
// offered load whose drop rate stays within the Partial Drop Rate
// threshold (SRPerf uses 0.5%). A probe offers a constant-rate flow for
// a virtual window and then drains the simulation, so every offered
// packet was either delivered or dropped: no averaging, no boundary.

import (
	"errors"
	"fmt"
	"math"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/trafgen"
)

// PDRThreshold is the SRPerf Partial Drop Rate: the saturation point
// is the highest offered load with at most this fraction dropped.
const PDRThreshold = 0.005

// tEncapsDecapSID is the End.DT6 SID the T.Encaps probe traffic is
// encapsulated towards; it lives on S2 inside the fc00:2::/32 prefix
// lab1's router already forwards there.
var tEncapsDecapSID = netip.MustParseAddr("fc00:2::d6")

// rDT6SID is the decap SID the End.DT6 probe installs on the router
// itself: S1 encapsulates toward it, R decapsulates and table-forwards
// the inner packet, so the saturation point measures R's decap cost
// (T.Encaps measures the encap side with the decap at the host).
var rDT6SID = netip.MustParseAddr("fc00:1::d6")

// PDRRow is one behavior's saturation point.
type PDRRow struct {
	Name string `json:"name"`
	// PDRKPPS is the highest offered load (kpps) whose measured drop
	// rate stayed at or below Threshold.
	PDRKPPS float64 `json:"pdr_kpps"`
	// DropRate is the drop rate measured at PDRKPPS.
	DropRate  float64 `json:"drop_rate"`
	Threshold float64 `json:"threshold"`
	// Iterations counts the probes spent (the two checks included).
	Iterations int `json:"iterations"`
}

// Each probe offers a 100 ms virtual window; the first overloads the
// router at the §3.2 offered load.
const (
	pdrWindowNs    = 100 * netsim.Millisecond
	pdrOverloadPPS = 3_000_000.0
	pdrTolerance   = 0.002 // fixed-point agreement and check offset
	pdrMaxProbes   = 8     // before the fixed point must have settled
)

// pdrProbe offers ratePPS for windowNs of virtual time and reports
// (offered, delivered) after the simulation fully drained.
type pdrProbe func(ratePPS float64, windowNs int64) (offered, delivered uint64, err error)

// pdrLabProbe measures a lab1 behavior: setup configures the router
// (and sink host), then a constant-rate UDP flow is offered towards
// dst (with an optional SRH) and counted at the S2 sink.
func pdrLabProbe(setup func(l *lab1) error, dst netip.Addr, withSRH bool) pdrProbe {
	return func(ratePPS float64, windowNs int64) (uint64, uint64, error) {
		l, err := newLab1(8)
		if err != nil {
			return 0, 0, err
		}
		if err := setup(l); err != nil {
			return 0, 0, err
		}
		gen := l.udp(dst, withSRH, ratePPS)
		if err := gen.Start(l.sim.Now() + windowNs); err != nil {
			return 0, 0, err
		}
		l.sim.Run()
		return gen.Sent(), l.sink.Packets, nil
	}
}

// pdrEndBPFSetup loads the End program (JIT or interpreter) and hangs
// it off R's SID.
func pdrEndBPFSetup(jit bool) func(l *lab1) error {
	return func(l *lab1) error {
		prog, err := bpf.LoadProgram(progs.EndSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &jit})
		if err != nil {
			return err
		}
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return err
		}
		return l.r.AddRoute(local(rSID, end.Behaviour()))
	}
}

// pdrFRRProbe measures the protected path of the FRR lab with the
// eBPF steering in place and the primary healthy: S's plain traffic
// is steered onto the primary SID at P, decapsulated at D and counted
// at T. Probes keep running, so the window ends with RunUntil plus a
// drain margin before the detector is stopped.
func pdrFRRProbe(ratePPS float64, windowNs int64) (uint64, uint64, error) {
	l, err := newFRRLab(8)
	if err != nil {
		return 0, 0, err
	}
	f, err := l.protect(10*netsim.Millisecond, 3, false)
	if err != nil {
		return 0, 0, err
	}
	gen := &trafgen.UDPGen{
		Node: l.s, Src: frrSrc, Dst: frrDst,
		SrcPort: 5000, DstPort: 9999,
		PayloadLen: 64,
		RatePPS:    ratePPS,
	}
	if err := gen.Start(l.sim.Now() + windowNs); err != nil {
		return 0, 0, err
	}
	// Let the offered window plus a generous drain margin elapse, then
	// silence the prober so the event queue can empty.
	l.sim.RunUntil(l.sim.Now() + windowNs + 5*netsim.Millisecond)
	f.Stop()
	l.sim.Run()
	return gen.Sent(), uint64(len(l.delivered)), nil
}

// PDRScan finds the saturation point of every behavior, in report
// order.
func PDRScan() ([]PDRRow, error) {
	var rows []PDRRow
	for _, b := range []struct {
		name  string
		probe pdrProbe
	}{
		{"End", pdrLabProbe(func(l *lab1) error {
			return l.r.AddRoute(local(rSID, &seg6.Behaviour{Action: seg6.ActionEnd}))
		}, rSID, true)},
		{"End.BPF-interp", pdrLabProbe(pdrEndBPFSetup(false), rSID, true)},
		{"End.BPF-jit", pdrLabProbe(pdrEndBPFSetup(true), rSID, true)},
		{"End.X", pdrLabProbe(func(l *lab1) error {
			// Cross-connect: R advances the SRH and forwards out the
			// configured nexthop. The model charges End.X 60 ns against
			// End's 50 on top of the same per-packet forwarding cost,
			// so its row sits just under End's.
			return l.r.AddRoute(local(rSID, &seg6.Behaviour{Action: seg6.ActionEndX, Nexthop: s2Addr}))
		}, rSID, true)},
		{"End.DT6", pdrLabProbe(func(l *lab1) error {
			// S1 pre-encapsulates toward R's decap SID; R decapsulates
			// and forwards the inner packet to the sink via the main
			// table, so R's DT6 processing is the measured bottleneck.
			if err := l.s1.AddRoute(&netsim.Route{
				Prefix: netip.PrefixFrom(s2Addr, 128), Kind: netsim.RouteSeg6Encap,
				SRH: packet.NewSRH([]netip.Addr{rDT6SID}),
			}); err != nil {
				return err
			}
			return l.r.AddRoute(local(rDT6SID, &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable}))
		}, s2Addr, false)},
		{"T.Encaps", pdrLabProbe(func(l *lab1) error {
			// R encapsulates everything towards S2 with the decap SID;
			// S2 runs End.DT6 and the inner packet reaches the sink.
			encap := &netsim.Route{
				Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteSeg6Encap,
				SRH: packet.NewSRH([]netip.Addr{tEncapsDecapSID}),
			}
			return errors.Join(
				l.r.AddRoute(encap),
				l.s2.AddRoute(local(tEncapsDecapSID, &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable})),
			)
		}, s2Addr, false)},
		{"FRR-steer", pdrFRRProbe},
	} {
		row, err := pdrFixedPoint(b.name, b.probe)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// pdrFixedPoint measures one behavior's PDR without a search. It
// relies on two conditions of the simulated router: below line rate
// its rx ring is the only loss point, and a dropped packet costs it no
// CPU. A window T at rate λ then delivers D = min(λT, μT + R) for
// service rate μ and ring size R, and the PDR is the λ* with
// D(λ*) = (1 − θ)·λ*·T, which any overloading probe predicts as
// D/((1 − θ)T) whatever μ is. A second stage that drains into the
// bottleneck after the window makes that step overshoot, so it is
// repeated until two rates agree within pdrTolerance. The prediction
// becomes a measurement through two checks pdrTolerance either side:
// the lower must pass θ and is the row, the upper must fail it.
func pdrFixedPoint(name string, probe pdrProbe) (row PDRRow, err error) {
	defer func() {
		if err != nil {
			row, err = PDRRow{}, fmt.Errorf("experiments: PDR %s: %w", name, err)
		}
	}()
	row = PDRRow{Name: name, Threshold: PDRThreshold}
	// measure returns the drop rate at rate and the PDR its delivered
	// count predicts.
	measure := func(rate float64) (drop, next float64, err error) {
		row.Iterations++
		offered, delivered, err := probe(rate, pdrWindowNs)
		switch {
		case err != nil:
			return 0, 0, err
		case offered == 0:
			return 0, 0, fmt.Errorf("probe at %.0f pps offered nothing", rate)
		case delivered > offered:
			return 0, 0, fmt.Errorf("probe at %.0f pps delivered %d of %d offered", rate, delivered, offered)
		}
		return 1 - float64(delivered)/float64(offered), float64(delivered) / ((1 - PDRThreshold) * float64(pdrWindowNs) / 1e9), nil
	}

	rate := pdrOverloadPPS
	drop, next, err := measure(rate)
	if err != nil {
		return row, err
	}
	if drop <= PDRThreshold {
		return row, fmt.Errorf("%.3f%% dropped at the %.0f kpps overload probe: the router does not saturate", drop*100, rate/1e3)
	}
	for math.Abs(next-rate) > pdrTolerance*rate {
		if row.Iterations == pdrMaxProbes {
			return row, fmt.Errorf("no fixed point in %d probes: %.2f kpps predicts %.2f", pdrMaxProbes, rate/1e3, next/1e3)
		}
		rate = next
		if _, next, err = measure(rate); err != nil {
			return row, err
		}
	}
	for _, side := range []float64{-1, 1} {
		check := next * (1 + side*pdrTolerance)
		if drop, _, err = measure(check); err != nil {
			return row, err
		}
		if (drop > PDRThreshold) != (side > 0) {
			return row, fmt.Errorf("check at %.2f kpps dropped %.3f%%, the wrong side of %.1f%%", check/1e3, drop*100, PDRThreshold*100)
		}
		if side < 0 {
			row.PDRKPPS, row.DropRate = check/1e3, drop
		}
	}
	return row, nil
}
