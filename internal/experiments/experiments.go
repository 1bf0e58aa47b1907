// Package experiments regenerates every table and figure of the
// paper's evaluation. Each function builds the corresponding lab
// setup in the simulator, runs the workload, and returns the same
// rows/series the paper reports. cmd/srv6bench prints them,
// testdata/model.golden.json pins them, and EXPERIMENTS.md records the
// outputs next to the paper's numbers.
package experiments

import (
	"errors"
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

// fwd is a plain forwarding route for prefix out of via.
func fwd(prefix string, via *netsim.Iface) *netsim.Route {
	return &netsim.Route{Prefix: pfx(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
}

// local is a seg6local route binding b to sid.
func local(sid netip.Addr, b *seg6.Behaviour) *netsim.Route {
	return &netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: b}
}

// generator is a trafgen source: UDPGen or RawGen.
type generator interface {
	Start(until int64) error
	Stop()
}

// window is the one measurement window of Figures 2, 3 and 4: start
// gens to stop durationNs from now, run the first 10 % as warm-up,
// reset the sink, run durationNs more and stop the generators. The sink
// then holds what the window delivered.
func window(sim *netsim.Sim, sink *trafgen.Sink, durationNs int64, gens ...generator) error {
	until := sim.Now() + durationNs
	for _, g := range gens {
		if err := g.Start(until); err != nil {
			return err
		}
	}
	sim.RunUntil(sim.Now() + durationNs/10)
	sink.Reset()
	sim.RunUntil(sim.Now() + durationNs)
	for _, g := range gens {
		g.Stop()
	}
	return nil
}

// lab1 is the §3.2 measurement lab: 10 Gbps links, the router R
// limited by its single core, a generator and a sink.
type lab1 struct {
	sim       *netsim.Sim
	s1, r, s2 *netsim.Node
	rToS2     *netsim.Iface
	sink      *trafgen.Sink
}

func newLab1(seed int64) (*lab1, error) {
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

	if err := errors.Join(
		l.s1.AddRoute(fwd("::/0", s1If)),
		l.s2.AddRoute(fwd("::/0", s2If)),
		l.r.AddRoute(fwd("2001:db8:1::/48", rs1If)),
		l.r.AddRoute(fwd("2001:db8:2::/48", rs2If)),
		l.r.AddRoute(fwd("fc00:2::/32", rs2If)),
	); err != nil {
		return nil, err
	}
	l.sink = trafgen.NewSink(l.s2, 9999)
	return l, nil
}

// offeredPPS is the §3.2 offered load: "the source sent 3 million
// packets per second".
const offeredPPS = 3_000_000

// udp is S1's generator of 64-byte UDP payloads towards dst at ratePPS,
// inside a 2-segment SRH (dst, then S2) when withSRH is set.
func (l *lab1) udp(dst netip.Addr, withSRH bool, ratePPS float64) *trafgen.UDPGen {
	var srh *packet.SRH
	if withSRH {
		srh = packet.NewSRH([]netip.Addr{dst, s2Addr})
	}
	return &trafgen.UDPGen{
		Node: l.s1, Src: s1Addr, Dst: dst,
		SrcPort: 1000, DstPort: 9999,
		PayloadLen: 64,
		SRH:        srh,
		RatePPS:    ratePPS,
	}
}

// offer runs one window of gens and returns the rate S2's sink received.
func (l *lab1) offer(durationNs int64, gens ...generator) (float64, error) {
	if err := window(l.sim, l.sink, durationNs, gens...); err != nil {
		return 0, err
	}
	return l.sink.RatePPS(), nil
}

// Row is one bar/point of a reproduced figure.
type Row struct {
	Name       string  `json:"name"`
	KPPS       float64 `json:"kpps"`       // delivered rate
	Normalized float64 `json:"normalized"` // relative to the raw-forwarding baseline
}

// fig2Variant is one endpoint function variant of Figure 2.
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
	base, err := newLab1(1)
	if err != nil {
		return nil, err
	}
	baseline, err := base.offer(durationNs, base.udp(s2Addr, true, offeredPPS))
	if err != nil {
		return nil, err
	}

	rows := []Row{{Name: "IPv6 forward", KPPS: baseline / 1e3, Normalized: 1.0}}
	for _, v := range variants {
		l, err := newLab1(1)
		if err != nil {
			return nil, err
		}
		// Table 7 (End.T) forwards S2's prefix like main.
		if err := l.r.Table(7).Add(fwd("2001:db8:2::/48", l.rToS2)); err != nil {
			return nil, err
		}
		b := v.static
		if b == nil {
			prog, err := bpf.LoadProgram(v.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &v.jit})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
			end, err := core.AttachEndBPF(prog)
			if err != nil {
				return nil, err
			}
			b = end.Behaviour()
		}
		if err := l.r.AddRoute(local(rSID, b)); err != nil {
			return nil, err
		}
		rate, err := l.offer(durationNs, l.udp(rSID, true, offeredPPS))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Name: v.name, KPPS: rate / 1e3, Normalized: rate / baseline})
	}
	return rows, nil
}

// JITFactor reproduces the §3.2 observation that disabling the JIT
// divides the Add TLV throughput by 1.8: the ratio of the JIT to the
// interpreter whole-router forwarding rate in Figure 2's rows.
func JITFactor(fig2 []Row) (float64, error) {
	var jit, nojit float64
	for _, r := range fig2 {
		switch r.Name {
		case "Add TLV BPF":
			jit = r.KPPS
		case "Add TLV no JIT":
			nojit = r.KPPS
		}
	}
	if nojit == 0 {
		return 0, fmt.Errorf("experiments: missing no-JIT row")
	}
	return jit / nojit, nil
}

// Figure3 reproduces §4.1 Figure 3: the impact of the delay
// monitoring programs on forwarding, for probing ratios 1:10000 and
// 1:100. "Encap" runs the transit encapsulation program on every
// packet; "End.DM" processes a traffic mix where one packet in
// <ratio> is a DM probe that must be reported and decapsulated.
// The baseline is plain (SRH-less) IPv6 forwarding, matching the
// pktgen workload the programs see.
func Figure3(durationNs int64) ([]Row, error) {
	baselineLab, err := newLab1(2)
	if err != nil {
		return nil, err
	}
	baseline, err := baselineLab.offer(durationNs, baselineLab.udp(s2Addr, false, offeredPPS))
	if err != nil {
		return nil, err
	}
	rows := []Row{{Name: "IPv6 forward", KPPS: baseline / 1e3, Normalized: 1.0}}

	for _, ratio := range []uint32{10000, 100} {
		// (a) Transit encapsulation on R for all traffic towards S2.
		l, err := newLab1(2)
		if err != nil {
			return nil, err
		}
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
		// S2 hosts the End.DM SID so sampled probes still reach the sink.
		dmProg, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), avail, bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		endDM, err := core.AttachEndBPF(dmProg)
		if err != nil {
			return nil, err
		}
		transit := &netsim.Route{
			Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteLWTBPF, BPF: lwt,
			Nexthops: []netsim.Nexthop{{Iface: l.rToS2}},
		}
		if err := errors.Join(l.r.AddRoute(transit), l.s2.AddRoute(local(dmSID, endDM.Behaviour()))); err != nil {
			return nil, err
		}
		rate, err := l.offer(durationNs, l.udp(s2Addr, false, offeredPPS))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Name: fmt.Sprintf("Encap 1:%d", ratio), KPPS: rate / 1e3, Normalized: rate / baseline,
		})

		// (b) End.DM on R: a mix of plain packets and DM probes.
		l2, err := newLab1(3)
		if err != nil {
			return nil, err
		}
		dmProg2, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), mapsOf(nil, mustDMEvents()), bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		endDM2, err := core.AttachEndBPF(dmProg2)
		if err != nil {
			return nil, err
		}
		rDMSID := netip.MustParseAddr("fc00:10::dd")
		if err := l2.r.AddRoute(local(rDMSID, endDM2.Behaviour())); err != nil {
			return nil, err
		}
		plain := l2.udp(s2Addr, false, offeredPPS*(1.0-1.0/float64(ratio)))
		probe := &trafgen.RawGen{Node: l2.s1, Template: dmProbe(rDMSID), RatePPS: offeredPPS / float64(ratio)}
		rate2, err := l2.offer(durationNs, plain, probe)
		if err != nil {
			return nil, err
		}
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
