// Package experiments regenerates every table and figure of the
// paper's evaluation. Each function builds the corresponding lab
// setup in the simulator, runs the workload, and returns the same
// rows/series the paper reports. bench_test.go and cmd/srv6bench are
// thin wrappers around this package; EXPERIMENTS.md records the
// outputs next to the paper's numbers.
package experiments

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/trafgen"
)

// Lab addresses (setup 1 of Figure 1: S1 -- R -- S2).
var (
	s1Addr = netip.MustParseAddr("2001:db8:1::1")
	rAddr  = netip.MustParseAddr("2001:db8:10::1")
	s2Addr = netip.MustParseAddr("2001:db8:2::1")
	rSID   = netip.MustParseAddr("fc00:10::f1")
	dmSID  = netip.MustParseAddr("fc00:2::dd")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lab1 is the §3.2 measurement lab: 10 Gbps links, the router R
// limited by its single core, a generator and a sink.
type lab1 struct {
	sim       *netsim.Sim
	s1, r, s2 *netsim.Node
	rToS2     *netsim.Iface
	sink      *trafgen.Sink
}

func newLab1(seed int64) *lab1 {
	sim := netsim.New(seed)
	l := &lab1{
		sim: sim,
		s1:  sim.AddNode("S1", netsim.HostCostModel()),
		r:   sim.AddNode("R", netsim.ServerCostModel()),
		s2:  sim.AddNode("S2", netsim.HostCostModel()),
	}
	l.s1.AddAddress(s1Addr)
	l.r.AddAddress(rAddr)
	l.s2.AddAddress(s2Addr)

	tenG := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	s1If, rs1If := netsim.ConnectSymmetric(l.s1, l.r, tenG)
	rs2If, s2If := netsim.ConnectSymmetric(l.r, l.s2, tenG)
	l.rToS2 = rs2If

	l.s1.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: s1If}}})
	l.s2.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: s2If}}})
	l.r.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rs1If}}})
	l.r.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rs2If}}})
	l.r.AddRoute(&netsim.Route{Prefix: pfx("fc00:2::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rs2If}}})

	l.sink = trafgen.NewSink(l.s2, 9999)
	return l
}

// offer runs the §3.2 workload: 64-byte UDP payloads inside a
// 2-segment SRH, offered at 3 Mpps ("the source sent 3 million
// packets per second"), for the given duration. dst selects the first
// segment (R's SID for endpoint tests, S2 for raw forwarding).
func (l *lab1) offer(firstSeg netip.Addr, durationNs int64) float64 {
	srh := packet.NewSRH([]netip.Addr{firstSeg, s2Addr})
	gen := &trafgen.UDPGen{
		Node: l.s1, Src: s1Addr, Dst: firstSeg,
		SrcPort: 1000, DstPort: 9999,
		PayloadLen: 64,
		SRH:        srh,
		RatePPS:    3_000_000,
	}
	if err := gen.Start(l.sim.Now() + durationNs); err != nil {
		panic(err)
	}
	// Warm up 10% of the window, then measure.
	l.sim.RunUntil(l.sim.Now() + durationNs/10)
	l.sink.Reset()
	l.sim.RunUntil(l.sim.Now() + durationNs)
	gen.Stop()
	return l.sink.RatePPS()
}

// Row is one bar/point of a reproduced figure.
type Row struct {
	Name       string  `json:"name"`
	KPPS       float64 `json:"kpps"`       // delivered rate
	Normalized float64 `json:"normalized"` // relative to the raw-forwarding baseline
}

// Figure2Config selects the endpoint function variants of Figure 2.
type fig2Variant struct {
	name   string
	static *seg6.Behaviour
	spec   *bpf.ProgramSpec
	jit    bool
}

// Figure2 reproduces §3.2 Figure 2: forwarding rate of the static and
// eBPF endpoint functions, normalized to raw IPv6 forwarding
// (610 kpps in the paper's lab, calibrated identically here).
func Figure2(durationNs int64) ([]Row, error) {
	variants := []fig2Variant{
		{name: "End static", static: &seg6.Behaviour{Action: seg6.ActionEnd}},
		{name: "End BPF", spec: progs.EndSpec(), jit: true},
		{name: "End.T static", static: &seg6.Behaviour{Action: seg6.ActionEndT, Table: 7}},
		{name: "End.T BPF", spec: progs.EndTSpec(7), jit: true},
		{name: "Tag++ BPF", spec: progs.TagIncrementSpec(), jit: true},
		{name: "Add TLV BPF", spec: progs.AddTLVSpec(), jit: true},
		{name: "Add TLV no JIT", spec: progs.AddTLVSpec(), jit: false},
	}

	// Baseline: raw IPv6 forwarding of the same packets.
	base := newLab1(1)
	baseline := base.offer(s2Addr, durationNs)

	rows := []Row{{Name: "IPv6 forward", KPPS: baseline / 1e3, Normalized: 1.0}}
	for _, v := range variants {
		l := newLab1(1)
		// Table 7 (End.T) forwards S2's prefix like main.
		if err := l.r.Table(7).Add(&netsim.Route{
			Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward,
			Nexthops: []netsim.Nexthop{{Iface: l.rToS2}},
		}); err != nil {
			return nil, err
		}
		route := &netsim.Route{Prefix: netip.PrefixFrom(rSID, 128), Kind: netsim.RouteSeg6Local}
		if v.static != nil {
			route.Behaviour = v.static
		} else {
			prog, err := bpf.LoadProgram(v.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &v.jit})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
			end, err := core.AttachEndBPF(prog)
			if err != nil {
				return nil, err
			}
			route.Behaviour = end.Behaviour()
		}
		if err := l.r.AddRoute(route); err != nil {
			return nil, err
		}
		rate := l.offer(rSID, durationNs)
		rows = append(rows, Row{Name: v.name, KPPS: rate / 1e3, Normalized: rate / baseline})
	}
	return rows, nil
}

// offerPlain measures forwarding of SRH-less IPv6 traffic (the
// pktgen workload of §4.1).
func (l *lab1) offerPlain(durationNs int64) float64 {
	gen := &trafgen.UDPGen{
		Node: l.s1, Src: s1Addr, Dst: s2Addr,
		SrcPort: 1000, DstPort: 9999, PayloadLen: 64,
		RatePPS: 3_000_000,
	}
	if err := gen.Start(l.sim.Now() + durationNs); err != nil {
		panic(err)
	}
	l.sim.RunUntil(l.sim.Now() + durationNs/10)
	l.sink.Reset()
	l.sim.RunUntil(l.sim.Now() + durationNs)
	gen.Stop()
	return l.sink.RatePPS()
}

// Figure3 reproduces §4.1 Figure 3: the impact of the delay
// monitoring programs on forwarding, for probing ratios 1:10000 and
// 1:100. "Encap" runs the transit encapsulation program on every
// packet; "End.DM" processes a traffic mix where one packet in
// <ratio> is a DM probe that must be reported and decapsulated.
// The baseline is plain (SRH-less) IPv6 forwarding, matching the
// pktgen workload the programs see.
func Figure3(durationNs int64) ([]Row, error) {
	baselineLab := newLab1(2)
	baseline := baselineLab.offerPlain(durationNs)
	rows := []Row{{Name: "IPv6 forward", KPPS: baseline / 1e3, Normalized: 1.0}}

	for _, ratio := range []uint32{10000, 100} {
		// (a) Transit encapsulation on R for all traffic towards S2.
		l := newLab1(2)
		conf := mustDMConf(ratio)
		events := mustDMEvents()
		avail := mapsOf(conf, events)
		encapProg, err := bpf.LoadProgram(progs.DMEncapSpec(), core.LWTOutHook(), avail, bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		lwt, err := core.AttachLWT(encapProg)
		if err != nil {
			return nil, err
		}
		l.r.AddRoute(&netsim.Route{
			Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteLWTBPF, BPF: lwt,
			Nexthops: []netsim.Nexthop{{Iface: l.rToS2}},
		})
		// S2 hosts the End.DM SID so sampled probes still reach the sink.
		dmProg, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), avail, bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		endDM, err := core.AttachEndBPF(dmProg)
		if err != nil {
			return nil, err
		}
		l.s2.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(dmSID, 128), Kind: netsim.RouteSeg6Local, Behaviour: endDM.Behaviour()})

		gen := &trafgen.UDPGen{
			Node: l.s1, Src: s1Addr, Dst: s2Addr,
			SrcPort: 1000, DstPort: 9999, PayloadLen: 64,
			RatePPS: 3_000_000,
		}
		if err := gen.Start(l.sim.Now() + durationNs); err != nil {
			return nil, err
		}
		l.sim.RunUntil(l.sim.Now() + durationNs/10)
		l.sink.Reset()
		l.sim.RunUntil(l.sim.Now() + durationNs)
		gen.Stop()
		rate := l.sink.RatePPS()
		rows = append(rows, Row{
			Name: fmt.Sprintf("Encap 1:%d", ratio), KPPS: rate / 1e3, Normalized: rate / baseline,
		})

		// (b) End.DM on R: a mix of plain packets and DM probes.
		l2 := newLab1(3)
		events2 := mustDMEvents()
		dmProg2, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), mapsOf(nil, events2), bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		endDM2, err := core.AttachEndBPF(dmProg2)
		if err != nil {
			return nil, err
		}
		rDMSID := netip.MustParseAddr("fc00:10::dd")
		l2.r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(rDMSID, 128), Kind: netsim.RouteSeg6Local, Behaviour: endDM2.Behaviour()})

		plainRate := 3_000_000.0 * (1.0 - 1.0/float64(ratio))
		probeRate := 3_000_000.0 / float64(ratio)
		plain := &trafgen.UDPGen{
			Node: l2.s1, Src: s1Addr, Dst: s2Addr,
			SrcPort: 1000, DstPort: 9999, PayloadLen: 64,
			RatePPS: plainRate,
		}
		probe := &trafgen.RawGen{Node: l2.s1, Template: dmProbe(rDMSID), RatePPS: probeRate}
		if err := plain.Start(l2.sim.Now() + durationNs); err != nil {
			return nil, err
		}
		if err := probe.Start(l2.sim.Now() + durationNs); err != nil {
			return nil, err
		}
		l2.sim.RunUntil(l2.sim.Now() + durationNs/10)
		l2.sink.Reset()
		l2.sim.RunUntil(l2.sim.Now() + durationNs)
		plain.Stop()
		probe.Stop()
		rate2 := l2.sink.RatePPS()
		rows = append(rows, Row{
			Name: fmt.Sprintf("End.DM 1:%d", ratio), KPPS: rate2 / 1e3, Normalized: rate2 / baseline,
		})
	}
	return rows, nil
}

// dmProbe builds a pre-encapsulated delay-measurement probe addressed
// to sid, carrying an inner UDP packet for the sink.
func dmProbe(sid netip.Addr) []byte {
	inner, err := packet.BuildPacket(s1Addr, s2Addr,
		packet.WithUDP(1000, 9999), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		panic(err)
	}
	srh := packet.NewSRH(
		[]netip.Addr{sid, s2Addr},
		packet.DMTLV{TxTimestampNS: 1},
		packet.ControllerTLV{Addr: rAddr, Port: 7788},
	)
	outer, err := packet.BuildPacket(s1Addr, sid,
		packet.WithSRH(srh), packet.WithInnerPacket(inner))
	if err != nil {
		panic(err)
	}
	return outer
}
