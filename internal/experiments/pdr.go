package experiments

// SRPerf-style PDR saturation: for each SRv6 behavior, find the
// highest offered load whose drop rate stays within the Partial Drop
// Rate threshold (SRPerf uses 0.5%), by bisecting the offered rate.
// The simulator makes the measurement exact where hardware SRPerf has
// to average: a probe offers a constant-rate flow for a virtual
// window, then runs the simulation to full drain, so every offered
// packet is either delivered or was dropped at the router's rx ring
// (the only loss point below line rate) and the drop rate needs no
// boundary correction beyond the ring's one-time absorption.

import (
	"errors"
	"fmt"
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
	// LoKPPS/HiKPPS is the initial search bracket.
	LoKPPS float64 `json:"lo_kpps"`
	HiKPPS float64 `json:"hi_kpps"`
	// Iterations counts the probes spent (bracket check included).
	Iterations int `json:"iterations"`
}

// The scan's depth: each probe offers a constant rate for a 100 ms
// virtual window, and nine bisection steps follow the bracket check, so
// the rate resolution is (hi-lo) / 2^9.
const (
	pdrWindowNs   = 100 * netsim.Millisecond
	pdrIterations = 9
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

// pdrBehaviors is the scanned behavior set, in report order.
func pdrBehaviors() []struct {
	name  string
	probe pdrProbe
} {
	return []struct {
		name  string
		probe pdrProbe
	}{
		{"End", pdrLabProbe(func(l *lab1) error {
			return l.r.AddRoute(local(rSID, &seg6.Behaviour{Action: seg6.ActionEnd}))
		}, rSID, true)},
		{"End.BPF-interp", pdrLabProbe(pdrEndBPFSetup(false), rSID, true)},
		{"End.BPF-jit", pdrLabProbe(pdrEndBPFSetup(true), rSID, true)},
		{"End.X", pdrLabProbe(func(l *lab1) error {
			// Cross-connect: R advances the SRH and forwards straight
			// out the resolved nexthop, skipping the FIB lookup the
			// plain End verdict pays.
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
	}
}

// PDRScan runs the saturation search for every behavior.
func PDRScan() ([]PDRRow, error) {
	var rows []PDRRow
	for _, b := range pdrBehaviors() {
		row, err := pdrSearch(b.name, b.probe)
		if err != nil {
			return nil, fmt.Errorf("experiments: PDR %s: %w", b.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PDR search bracket: every behavior saturates well under 3 Mpps (the
// §3.2 offered load) and well over 50 kpps on the calibrated router.
const (
	pdrBracketLoPPS = 50_000.0
	pdrBracketHiPPS = 3_000_000.0
)

// pdrSearch bisects the offered rate. Invariant: lo passes the
// threshold, hi fails it. The bracket edges are probed first so a
// behavior outside the expected range is reported instead of
// silently clamped.
func pdrSearch(name string, probe pdrProbe) (PDRRow, error) {
	row := PDRRow{
		Name:      name,
		Threshold: PDRThreshold,
		LoKPPS:    pdrBracketLoPPS / 1e3,
		HiKPPS:    pdrBracketHiPPS / 1e3,
	}
	measure := func(rate float64) (float64, error) {
		row.Iterations++
		offered, delivered, err := probe(rate, pdrWindowNs)
		if err != nil {
			return 0, err
		}
		if offered == 0 {
			return 0, fmt.Errorf("probe at %.0f pps offered nothing", rate)
		}
		if delivered > offered {
			return 0, fmt.Errorf("probe at %.0f pps delivered %d of %d offered", rate, delivered, offered)
		}
		return 1 - float64(delivered)/float64(offered), nil
	}
	lo, hi := pdrBracketLoPPS, pdrBracketHiPPS
	dropAtLo, err := measure(lo)
	if err != nil {
		return PDRRow{}, err
	}
	if dropAtLo > PDRThreshold {
		return PDRRow{}, fmt.Errorf("drops %.2f%% already at the %.0f kpps bracket floor", dropAtLo*100, lo/1e3)
	}
	dropAtHi, err := measure(hi)
	if err != nil {
		return PDRRow{}, err
	}
	if dropAtHi <= PDRThreshold {
		// Saturation is above the bracket; report the ceiling honestly.
		row.PDRKPPS, row.DropRate = hi/1e3, dropAtHi
		return row, nil
	}
	for i := 0; i < pdrIterations; i++ {
		mid := (lo + hi) / 2
		drop, err := measure(mid)
		if err != nil {
			return PDRRow{}, err
		}
		if drop <= PDRThreshold {
			lo, dropAtLo = mid, drop
		} else {
			hi = mid
		}
	}
	row.PDRKPPS, row.DropRate = lo/1e3, dropAtLo
	return row, nil
}
