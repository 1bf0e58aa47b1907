package experiments

import (
	"errors"
	"fmt"
	"net/netip"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/frr"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// The fast-reroute evaluation extends the paper's use cases with the
// follow-up work's scenario ("Flexible failure detection and fast
// reroute using eBPF and SRv6"): a protected link is cut under
// constant load and we measure how long traffic blacks out before the
// eBPF detector flips it onto the precomputed backup segment list —
// as a function of the probe interval — and how many packets die in
// the gap. The netsim-native FIB backup (link-state driven, the
// TI-LFA ideal with oracle detection) is included as the floor.

// FRR lab addresses.
var (
	frrSrc     = netip.MustParseAddr("2001:db8:1::1")
	frrP       = netip.MustParseAddr("2001:db8:10::1")
	frrD       = netip.MustParseAddr("2001:db8:20::1")
	frrB       = netip.MustParseAddr("2001:db8:30::1")
	frrDst     = netip.MustParseAddr("2001:db8:2::1")
	frrNbrSID  = netip.MustParseAddr("fc00:20::ee")
	frrPrim    = netip.MustParseAddr("fc00:20::d6")
	frrDetour  = netip.MustParseAddr("fc00:30::e")
	frrBkDecap = netip.MustParseAddr("fc00:21::d6")
	frrTrack   = netip.MustParseAddr("fc00:10::7a")
	frrProbeTo = netip.MustParseAddr("fc00:f0::1")
)

// FRRRow is one measurement of the recovery experiment.
type FRRRow struct {
	Mode            string  `json:"mode"`              // "eBPF FRR" or "FIB backup"
	ProbeIntervalMs float64 `json:"probe_interval_ms"` // 0 for FIB backup
	Misses          int     `json:"misses"`            // K (0 for FIB backup)
	RecoveryMs      float64 `json:"recovery_ms"`       // failure -> first backup delivery
	BudgetMs        float64 `json:"budget_ms"`         // K x interval + probe RTT
	PacketsLost     int     `json:"packets_lost"`
}

// frrLab is the protection triangle: S - P =(primary)= D - T with a
// detour through B. The primary link carries 100 us of propagation
// delay, so a probe RTT is ~240 us including serialisation slack.
type frrLab struct {
	sim        *netsim.Sim
	s, p, d, b *netsim.Node
	t          *netsim.Node
	pdIf       *netsim.Iface
	pbIf       *netsim.Iface
	psIf       *netsim.Iface
	delivered  []int64
	// firstBackupTx is when the first data packet left P on the
	// backup egress (-1 until it happens). Recovery is measured
	// against deliveries at or after this instant, so a pre-failure
	// packet still in flight on the primary cannot masquerade as a
	// recovered one.
	firstBackupTx int64
}

// frrProbeRTTNs is the budget's RTT term: two crossings of the
// primary link plus scheduling/serialisation slack.
const frrProbeRTTNs = 2 * (100*netsim.Microsecond + 20*netsim.Microsecond)

func newFRRLab(seed int64) (*frrLab, error) {
	sim := netsim.New(seed)
	l := &frrLab{
		sim: sim,
		s:   sim.AddNode("S", netsim.HostCostModel()),
		p:   sim.AddNode("P", netsim.ServerCostModel()),
		d:   sim.AddNode("D", netsim.ServerCostModel()),
		b:   sim.AddNode("B", netsim.ServerCostModel()),
		t:   sim.AddNode("T", netsim.HostCostModel()),
	}
	l.s.AddAddress(frrSrc)
	l.p.AddAddress(frrP)
	l.d.AddAddress(frrD)
	l.b.AddAddress(frrB)
	l.t.AddAddress(frrDst)

	edge := netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond}
	primary := netem.Config{RateBps: 1e10, DelayNs: 100 * netsim.Microsecond}
	detour := netem.Config{RateBps: 1e10, DelayNs: 60 * netsim.Microsecond}

	sIf, psIf := netsim.ConnectSymmetric(l.s, l.p, edge)
	pdIf, dpIf := netsim.ConnectSymmetric(l.p, l.d, primary)
	pbIf, _ := netsim.ConnectSymmetric(l.p, l.b, detour)
	bdIf, _ := netsim.ConnectSymmetric(l.b, l.d, detour)
	dtIf, tIf := netsim.ConnectSymmetric(l.d, l.t, edge)
	l.pdIf, l.pbIf, l.psIf = pdIf, pbIf, psIf

	end := func() *seg6.Behaviour { return &seg6.Behaviour{Action: seg6.ActionEnd} }
	dt6 := func() *seg6.Behaviour { return &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable} }
	if err := errors.Join(
		l.s.AddRoute(fwd("::/0", sIf)),
		l.t.AddRoute(fwd("::/0", tIf)),

		l.p.AddRoute(fwd("fc00:20::/32", pdIf)),
		l.p.AddRoute(fwd("fc00:30::/32", pbIf)),
		l.p.AddRoute(fwd("fc00:21::/32", pbIf)),
		l.p.AddRoute(fwd("2001:db8:1::/48", psIf)),

		l.b.AddRoute(local(frrDetour, end())),
		l.b.AddRoute(fwd("fc00:21::/32", bdIf)),

		l.d.AddRoute(local(frrNbrSID, end())),
		l.d.AddRoute(local(frrPrim, dt6())),
		l.d.AddRoute(local(frrBkDecap, dt6())),
		l.d.AddRoute(fwd("fc00:10::/32", dpIf)),
		l.d.AddRoute(fwd("2001:db8:2::/48", dtIf)),
	); err != nil {
		return nil, err
	}

	l.t.HandleUDP(9999, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		l.delivered = append(l.delivered, meta.RxTimestamp)
	})
	// Only protected data traffic ever uses the P->B egress (probes
	// are pinned to the primary), so its first transmission marks the
	// moment protection engaged.
	l.firstBackupTx = -1
	l.pbIf.Tap = func([]byte) {
		if l.firstBackupTx < 0 {
			l.firstBackupTx = l.sim.Now()
		}
	}
	return l, nil
}

// protect starts P's eBPF detector (JIT on) probing D over the primary
// link every interval, and steers S2's prefix onto the primary SID with
// the detour through B as its backup.
func (l *frrLab) protect(interval int64, misses int, damping bool) (*frr.FRR, error) {
	f, err := frr.New(l.p, frr.Config{
		TrackSID:      frrTrack,
		ProbeInterval: interval,
		Misses:        misses,
		JIT:           true,
		Damping:       damping,
	})
	if err != nil {
		return nil, err
	}
	if err := f.AddNeighbor(frr.Neighbor{ID: 1, ProbeAddr: frrProbeTo, SID: frrNbrSID, Iface: l.pdIf}); err != nil {
		return nil, err
	}
	if err := f.Protect(frr.Protection{
		Prefix:     pfx("2001:db8:2::/48"),
		NeighborID: 1,
		PrimarySID: frrPrim,
		Backup:     []netip.Addr{frrDetour, frrBkDecap},
	}); err != nil {
		return nil, err
	}
	f.Start()
	return f, nil
}

// offer schedules constant-rate UDP traffic S -> T and returns the
// packet count.
func (l *frrLab) offer(gapNs, untilNs int64) int {
	n := int(untilNs / gapNs)
	for i := 0; i < n; i++ {
		at := int64(i) * gapNs
		l.sim.Schedule(at, func() {
			raw, err := packet.BuildPacket(frrSrc, frrDst,
				packet.WithUDP(5000, 9999),
				packet.WithPayload(make([]byte, 64)))
			if err != nil {
				panic(err)
			}
			l.s.Output(raw)
		})
	}
	return n
}

// results extracts (recovery, lost) once the simulation has fully
// drained, so end-of-window in-flight packets don't count as losses.
// Recovery is the failure-to-first-backup-delivery gap: a delivery
// counts only if it left P on the backup egress (at or after
// firstBackupTx), so pre-failure packets still in flight on the
// primary cannot fake an instant recovery.
func (l *frrLab) results(failAt int64, offered int) (recoveryNs int64, lost int) {
	lost = offered - len(l.delivered)
	if l.firstBackupTx < 0 {
		return -1, lost
	}
	for _, at := range l.delivered {
		if at > failAt && at >= l.firstBackupTx {
			return at - failAt, lost
		}
	}
	return -1, lost
}

// FRRRecovery measures recovery time and loss vs probe interval for
// K=3 misses, plus the link-state FIB backup floor. Traffic runs at
// 50 kpps; the failure is injected just before a probe transmission
// (the phase that realises the K x interval bound).
func FRRRecovery() ([]FRRRow, error) {
	const k = 3
	const gap = 20 * netsim.Microsecond // 50 kpps
	var rows []FRRRow

	for _, intervalMs := range []int64{1, 2, 5, 10} {
		interval := intervalMs * netsim.Millisecond
		l, err := newFRRLab(100 + intervalMs)
		if err != nil {
			return nil, err
		}
		f, err := l.protect(interval, k, false)
		if err != nil {
			return nil, err
		}

		// Fail just before the probe tick at 10 intervals; run long
		// enough for detection plus margin.
		failAt := 10*interval - 50*netsim.Microsecond
		until := failAt + int64(k+2)*interval + 5*netsim.Millisecond
		offered := l.offer(gap, until)
		l.sim.FailLink(failAt, l.pdIf)
		l.sim.RunUntil(until)
		f.Stop()
		l.sim.Run()
		recovery, lost := l.results(failAt, offered)

		budget := int64(k)*interval + frrProbeRTTNs
		if recovery < 0 || recovery >= budget {
			return nil, fmt.Errorf("experiments: FRR recovery %.3f ms exceeds budget %.3f ms at interval %d ms",
				float64(recovery)/1e6, float64(budget)/1e6, intervalMs)
		}
		rows = append(rows, FRRRow{
			Mode:            "eBPF FRR",
			ProbeIntervalMs: float64(intervalMs),
			Misses:          k,
			RecoveryMs:      float64(recovery) / 1e6,
			BudgetMs:        float64(budget) / 1e6,
			PacketsLost:     lost,
		})
	}

	// Floor: netsim's FIB backup with oracle (link-state) detection.
	l, err := newFRRLab(99)
	if err != nil {
		return nil, err
	}
	if err := l.p.AddRoute(&netsim.Route{
		Prefix:   pfx("2001:db8:2::/48"),
		Kind:     netsim.RouteForward,
		Nexthops: []netsim.Nexthop{{Iface: l.pdIf}},
		Backup: &netsim.Backup{
			Nexthops: []netsim.Nexthop{{Iface: l.pbIf}},
			SRH:      packet.NewSRH([]netip.Addr{frrBkDecap}),
		},
	}); err != nil {
		return nil, err
	}
	failAt := 10 * netsim.Millisecond
	until := failAt + 10*netsim.Millisecond
	offered := l.offer(gap, until)
	l.sim.FailLink(failAt, l.pdIf)
	l.sim.Run()
	recovery, lost := l.results(failAt, offered)
	rows = append(rows, FRRRow{
		Mode:        "FIB backup",
		RecoveryMs:  float64(recovery) / 1e6,
		BudgetMs:    0,
		PacketsLost: lost,
	})
	return rows, nil
}
