// Package hybrid implements the paper's second use case (§4.2):
// hybrid access networks that aggregate two access links (xDSL and
// LTE in deployments, per TR-349) with SRv6 instead of GRE tunnel
// bonding.
//
// An aggregation box in the ISP network and the CPE both run the same
// eBPF LWT program — a per-packet Weighted Round-Robin scheduler over
// two single-segment SRHs (internal/nf/progs) — and the opposite end
// decapsulates natively with End.DT6. A TWD (two-way delay) daemon on
// the aggregation box measures the per-link delays with End.DM probes
// and compensates the difference with a netem-style extra delay on
// the fastest link, which is what rescues TCP from reordering
// collapse.
package hybrid

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// Addresses of the fixed testbed (setup 2 of Figure 1: S1, A, two
// links to M, S2 behind M).
var (
	S1Addr  = netip.MustParseAddr("2001:db8:1::1")
	AggAddr = netip.MustParseAddr("2001:db8:a::1")
	CPEAddr = netip.MustParseAddr("2001:db8:c::1")
	S2Addr  = netip.MustParseAddr("2001:db8:2::1")

	// Decap SIDs on the CPE, one reachable over each link.
	SIDCPELink0 = netip.MustParseAddr("fc00:c::d0")
	SIDCPELink1 = netip.MustParseAddr("fc00:c::d1")
	// Decap SIDs on the aggregation box for upstream traffic.
	SIDAggLink0 = netip.MustParseAddr("fc00:a::d0")
	SIDAggLink1 = netip.MustParseAddr("fc00:a::d1")
	// End.DM SIDs on the CPE for the TWD probes, one per link.
	SIDDMLink0 = netip.MustParseAddr("fc00:c::e0")
	SIDDMLink1 = netip.MustParseAddr("fc00:c::e1")
	// Per-link return addresses on the aggregation box, so a TWD
	// probe's reply rides the same link it probed.
	AggAddrLink0 = netip.MustParseAddr("2001:db8:a::10")
	AggAddrLink1 = netip.MustParseAddr("2001:db8:a::11")
)

// LinkSpec shapes one access link direction-symmetrically.
type LinkSpec struct {
	RateBps      int64
	OneWayDelay  int64
	OneWayJitter int64
	QueueLimit   int
}

// Params configures the testbed.
type Params struct {
	// Link0 and Link1 are the two access links. The paper's TCP
	// experiment: 50 Mbps / RTT 30±5 ms and 30 Mbps / RTT 5±2 ms.
	Link0, Link1 LinkSpec
	// AccessRate shapes the S1—A and M—S2 stub links (default 1 Gbps).
	AccessRate int64
	// CPECost is the CPE's CPU model (default CPECostModel — the
	// Turris Omnia).
	CPECost *netsim.CostModel
	// WRRJIT runs the scheduler with the JIT. The paper's CPE cannot
	// (ARM32 JIT bug), so the default is interpreted.
	WRRJIT bool
	// Weights are the WRR weights for link 0 and 1 (default 5:3,
	// matching 50:30 Mbps).
	Weights [2]uint32
}

func (p *Params) setDefaults() {
	if p.AccessRate == 0 {
		p.AccessRate = 1_000_000_000
	}
	if p.Weights == [2]uint32{} {
		p.Weights = [2]uint32{5, 3}
	}
}

// Testbed is the instantiated topology.
type Testbed struct {
	Sim              *netsim.Sim
	S1, Agg, CPE, S2 *netsim.Node

	// Interfaces, indexed by link (0/1): the aggregation box side and
	// the CPE side of each access link.
	AggLink [2]*netsim.Iface
	CPELink [2]*netsim.Iface

	params Params

	// Maps of the two schedulers (down = on Agg, up = on CPE).
	DownConf, DownState *maps.Map
	UpConf, UpState     *maps.Map
}

// NewTestbed builds the topology with static routing and native
// (End.DT6) decapsulation SIDs at both ends, but no WRR yet.
func NewTestbed(sim *netsim.Sim, params Params) (*Testbed, error) {
	params.setDefaults()
	tb := &Testbed{Sim: sim, params: params}

	tb.S1 = sim.AddNode("S1", netsim.HostCostModel())
	tb.Agg = sim.AddNode("A", netsim.ServerCostModel())
	cpeCost := netsim.CPECostModel()
	if params.CPECost != nil {
		cpeCost = *params.CPECost
	}
	tb.CPE = sim.AddNode("M", cpeCost)
	tb.S2 = sim.AddNode("S2", netsim.HostCostModel())

	tb.S1.AddAddress(S1Addr)
	tb.Agg.AddAddress(AggAddr)
	tb.Agg.AddAddress(AggAddrLink0)
	tb.Agg.AddAddress(AggAddrLink1)
	tb.CPE.AddAddress(CPEAddr)
	tb.S2.AddAddress(S2Addr)

	stub := netem.Config{RateBps: params.AccessRate, DelayNs: 20 * netsim.Microsecond}
	s1If, aggS1If := netsim.ConnectSymmetric(tb.S1, tb.Agg, stub)
	cpeS2If, s2If := netsim.ConnectSymmetric(tb.CPE, tb.S2, stub)

	mk := func(l LinkSpec) netem.Config {
		return netem.Config{
			RateBps:    l.RateBps,
			DelayNs:    l.OneWayDelay,
			JitterNs:   l.OneWayJitter,
			QueueLimit: l.QueueLimit,
		}
	}
	tb.AggLink[0], tb.CPELink[0] = netsim.ConnectSymmetric(tb.Agg, tb.CPE, mk(params.Link0))
	tb.AggLink[1], tb.CPELink[1] = netsim.ConnectSymmetric(tb.Agg, tb.CPE, mk(params.Link1))

	fwd := func(p netip.Prefix, via *netsim.Iface) *netsim.Route {
		return &netsim.Route{Prefix: p, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
	}
	// Native decapsulation SIDs (the kernel's static End.DT6): CPE for
	// downstream, aggregation box for upstream.
	dt6 := func(sid netip.Addr) *netsim.Route {
		return &netsim.Route{
			Prefix:    sidPfx(sid),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable},
		}
	}
	for _, in := range []struct {
		node  *netsim.Node
		route *netsim.Route
	}{
		// Hosts default towards their gateways.
		{tb.S1, fwd(pfx("::/0"), s1If)},
		{tb.S2, fwd(pfx("::/0"), s2If)},

		// Aggregation box routing.
		{tb.Agg, fwd(pfx("2001:db8:1::/48"), aggS1If)},
		{tb.Agg, fwd(sidPfx(SIDCPELink0), tb.AggLink[0])},
		{tb.Agg, fwd(sidPfx(SIDCPELink1), tb.AggLink[1])},
		{tb.Agg, fwd(sidPfx(SIDDMLink0), tb.AggLink[0])},
		{tb.Agg, fwd(sidPfx(SIDDMLink1), tb.AggLink[1])},
		// Without WRR, downstream takes link 0 only.
		{tb.Agg, fwd(pfx("2001:db8:2::/48"), tb.AggLink[0])},
		{tb.Agg, fwd(pfx("2001:db8:c::/48"), tb.AggLink[0])},

		// CPE routing.
		{tb.CPE, fwd(pfx("2001:db8:2::/48"), cpeS2If)},
		{tb.CPE, fwd(sidPfx(SIDAggLink0), tb.CPELink[0])},
		{tb.CPE, fwd(sidPfx(SIDAggLink1), tb.CPELink[1])},
		{tb.CPE, fwd(pfx("2001:db8:1::/48"), tb.CPELink[0])},
		{tb.CPE, fwd(pfx("2001:db8:a::/48"), tb.CPELink[0])},
		// TWD probe replies are pinned to the probed link.
		{tb.CPE, fwd(sidPfx(AggAddrLink0), tb.CPELink[0])},
		{tb.CPE, fwd(sidPfx(AggAddrLink1), tb.CPELink[1])},

		{tb.CPE, dt6(SIDCPELink0)},
		{tb.CPE, dt6(SIDCPELink1)},
		{tb.Agg, dt6(SIDAggLink0)},
		{tb.Agg, dt6(SIDAggLink1)},
	} {
		if err := in.node.AddRoute(in.route); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func sidPfx(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 128) }

// wrrMaps creates a conf/state map pair initialised with the weights
// and decap SIDs.
func wrrMaps(weights [2]uint32, sid0, sid1 netip.Addr) (conf, state *maps.Map, err error) {
	conf, err = maps.New(maps.Spec{
		Name: progs.WRRConfMap, Type: maps.Array,
		KeySize: 4, ValueSize: progs.WRRConfSize, MaxEntries: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	v := make([]byte, progs.WRRConfSize)
	binary.LittleEndian.PutUint32(v[0:], weights[0])
	binary.LittleEndian.PutUint32(v[4:], weights[1])
	a0, a1 := sid0.As16(), sid1.As16()
	copy(v[8:24], a0[:])
	copy(v[24:40], a1[:])
	if err := conf.Update(bpf.PutUint32(0), v, maps.UpdateAny); err != nil {
		return nil, nil, err
	}
	state, err = maps.New(maps.Spec{
		Name: progs.WRRStateMap, Type: maps.Array,
		KeySize: 4, ValueSize: progs.WRRStateSize, MaxEntries: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	return conf, state, nil
}

// attachWRR loads the scheduler and installs it as an LWT route for
// prefix on node.
func attachWRR(node *netsim.Node, prefix netip.Prefix, conf, state *maps.Map, jit bool) error {
	avail := map[string]*maps.Map{progs.WRRConfMap: conf, progs.WRRStateMap: state}
	prog, err := bpf.LoadProgram(progs.WRRSpec(), core.LWTOutHook(), avail, bpf.LoadOptions{JIT: &jit})
	if err != nil {
		return fmt.Errorf("hybrid: loading WRR: %w", err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		return err
	}
	return node.AddRoute(&netsim.Route{
		Prefix: prefix,
		Kind:   netsim.RouteLWTBPF,
		BPF:    lwt,
		// No nexthops: the encapsulated packet is re-routed towards
		// the SID the scheduler chose.
	})
}

// EnableWRRDownstream installs the scheduler on the aggregation box
// for traffic towards the client LAN.
func (tb *Testbed) EnableWRRDownstream() error {
	conf, state, err := wrrMaps(tb.params.Weights, SIDCPELink0, SIDCPELink1)
	if err != nil {
		return err
	}
	tb.DownConf, tb.DownState = conf, state
	return attachWRR(tb.Agg, pfx("2001:db8:2::/48"), conf, state, tb.params.WRRJIT)
}

// EnableWRRUpstream installs the scheduler on the CPE for traffic
// towards the ISP side.
func (tb *Testbed) EnableWRRUpstream() error {
	conf, state, err := wrrMaps(tb.params.Weights, SIDAggLink0, SIDAggLink1)
	if err != nil {
		return err
	}
	tb.UpConf, tb.UpState = conf, state
	return attachWRR(tb.CPE, pfx("2001:db8:1::/48"), conf, state, tb.params.WRRJIT)
}

// EnableStaticEncapDownstream is the "kernel decap" configuration of
// Figure 4: the aggregation box applies a fixed (non-BPF) T.Encaps
// over link 0 and the CPE decapsulates — measuring pure decap cost.
func (tb *Testbed) EnableStaticEncapDownstream() error {
	return tb.Agg.AddRoute(&netsim.Route{
		Prefix:   pfx("2001:db8:2::/48"),
		Kind:     netsim.RouteSeg6Encap,
		SRH:      packet.NewSRH([]netip.Addr{SIDCPELink0}),
		Nexthops: []netsim.Nexthop{{Iface: tb.AggLink[0]}},
	})
}
