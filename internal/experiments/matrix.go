package experiments

// The behaviour matrix: three committed end-to-end scenarios that
// exercise the registry-driven SRv6 behaviour set (RFC 8986) on
// nontrivial topologies, each run sequentially and on two shards. A
// scenario passes when both runs produce bit-identical counter
// fingerprints and full delivery — the same property the shard
// equivalence fuzzer checks, pinned here on curated control-plane
// configurations instead of random ones:
//
//   - l3vpn-fattree: multi-tenant L3VPN over a k=4 fat-tree. Two
//     tenants with overlapping IPv4 address plans ride End.DT4
//     SIDs into per-tenant tables, a third tenant's IPv6 traffic is
//     steered with reduced encapsulation (H.Encaps.Red) through a
//     mid-point End SID into End.DT6, and a fourth carries mixed
//     IPv4+IPv6 over a single End.DT46 SID.
//   - sfc-proxy: a service chain through two legacy, SR-unaware VNFs
//     using the static proxies — End.AS (full de/re-encapsulation)
//     then End.AM (masquerading) — with the proxy return paths bound
//     to the VNF-facing interfaces.
//   - tilfa-bsid: a binding SID (End.B6.Encaps with reduced encap)
//     fronting a protected route whose TI-LFA backup steers around a
//     failed link via an intermediate End+PSP repair segment; the
//     link is cut mid-run and delivery must resume on the backup.

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"strings"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/trafgen"
)

// MatrixRun is one engine configuration's outcome for a scenario.
type MatrixRun struct {
	Engine      string
	Fingerprint string
	Delivered   uint64
}

// MatrixRow is one scenario's cross-engine comparison.
type MatrixRow struct {
	Scenario  string
	Delivered uint64 // packets delivered in the sequential reference run
	Match     bool   // all runs produced identical fingerprints
	Runs      []MatrixRun
}

// matrixScenario builds and runs one scenario on the given shard
// count and returns a deterministic fingerprint plus the delivered
// packet count. shards <= 1 means the sequential engine.
type matrixScenario struct {
	name string
	run  func(shards int) (string, uint64, error)
}

func matrixScenarios() []matrixScenario {
	return []matrixScenario{
		{"l3vpn-fattree", matrixL3VPN},
		{"sfc-proxy", matrixSFC},
		{"tilfa-bsid", matrixTILFA},
	}
}

// MatrixScan runs every committed scenario sequentially and on two
// shards and compares fingerprints. It is the engine-equivalence gate
// of `srv6bench -matrix` and the matrix-smoke CI target.
func MatrixScan() ([]MatrixRow, error) {
	configs := []struct {
		label  string
		shards int
	}{
		{"sequential", 1},
		{"conservative-2", 2},
	}
	var rows []MatrixRow
	for _, sc := range matrixScenarios() {
		row := MatrixRow{Scenario: sc.name, Match: true}
		for i, cfg := range configs {
			fp, delivered, err := sc.run(cfg.shards)
			if err != nil {
				return rows, fmt.Errorf("%s/%s: %w", sc.name, cfg.label, err)
			}
			row.Runs = append(row.Runs, MatrixRun{Engine: cfg.label, Fingerprint: fp, Delivered: delivered})
			if i == 0 {
				row.Delivered = delivered
			} else if fp != row.Runs[0].Fingerprint {
				row.Match = false
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// matrixSetShards applies the shard count; the sequential reference
// never calls SetShards at all.
func matrixSetShards(sim *netsim.Sim, shards int) error {
	if shards <= 1 {
		return nil
	}
	return sim.SetShards(shards)
}

// matrixFingerprint hashes every node's sorted counter set plus any
// scenario-specific extra lines into a short hex digest: identical
// digests mean identical executions.
func matrixFingerprint(sim *netsim.Sim, extra ...string) string {
	h := fnv.New64a()
	for _, n := range sim.Nodes() {
		cs := n.Counters()
		keys := make([]string, 0, len(cs))
		for k := range cs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "node %s\n", n.Name)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%d\n", k, cs[k])
		}
	}
	for _, e := range extra {
		fmt.Fprintf(h, "%s\n", e)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// matrixL3VPN is the multi-tenant L3VPN scenario: four tenants over a
// k=4 fat-tree between two PE hosts, each CE pair attached by 10G
// access links. Tenants A and B use the *same* overlapping IPv4 plan
// (10.1.0.1 -> 10.9.0.1) and stay isolated because each CE-facing
// interface is bound to its own ingress table and each tenant SID
// decapsulates into its own egress table (End.DT4). Tenant C is IPv6
// through a 2-segment reduced encapsulation via a mid-point End SID
// (End.DT6 at the egress); tenant D sends IPv4 and IPv6 over one
// End.DT46 SID. Every tenant's egress CE journals each delivery as
// (rx time, hop limit or TTL): the inner packets arrive through the
// decap behaviours, whose result aliases the outer buffer, so a hop
// limit decremented twice — bytes shared between two owners — would
// show in the fingerprint.
func matrixL3VPN(shards int) (string, uint64, error) {
	sim := netsim.New(9101)
	nw, err := topo.FatTree(sim, 4, topo.Opts{})
	if err != nil {
		return "", 0, err
	}
	pe1, pe2, mid := nw.Hosts[0], nw.Hosts[1], nw.Hosts[2]
	access := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	hostCost := netsim.HostCostModel()

	// Egress SIDs live inside PE2's /48 (2001:db8:1::/48) so the fat-
	// tree's ECMP routes deliver them; the mid-point End SID likewise
	// sits inside Hosts[2]'s /48.
	sidA := netip.MustParseAddr("2001:db8:1::a4")
	sidB := netip.MustParseAddr("2001:db8:1::b4")
	sidC := netip.MustParseAddr("2001:db8:1::c6")
	sidD := netip.MustParseAddr("2001:db8:1::46")
	midSID := netip.MustParseAddr("2001:db8:2::e1")

	v4Src := netip.MustParseAddr("10.1.0.1")
	v4Dst := netip.MustParseAddr("10.9.0.1")
	v4Net := netip.MustParsePrefix("10.9.0.0/24")
	c1 := netip.MustParseAddr("fd00:c1::1")
	c9 := netip.MustParseAddr("fd00:c9::1")
	cNet := netip.MustParsePrefix("fd00:c9::/48")
	d1 := netip.MustParseAddr("fd00:d1::1")
	d9 := netip.MustParseAddr("fd00:d9::1")
	dNet := netip.MustParsePrefix("fd00:d9::/48")

	// attach creates a CE on pe with default routes pointing back and
	// returns the PE-side interface (the one the tenant table binds
	// to).
	attach := func(name string, pe *netsim.Node, addrs ...netip.Addr) (*netsim.Node, *netsim.Iface, error) {
		ce := sim.AddNode(name, hostCost)
		for _, a := range addrs {
			ce.AddAddress(a)
		}
		ceIf, peIf := netsim.ConnectSymmetric(ce, pe, access)
		for _, def := range []string{"::/0", "0.0.0.0/0"} {
			if err := ce.AddRoute(&netsim.Route{
				Prefix:   netip.MustParsePrefix(def),
				Kind:     netsim.RouteForward,
				Nexthops: []netsim.Nexthop{{Iface: ceIf}},
			}); err != nil {
				return nil, nil, err
			}
		}
		return ce, peIf, nil
	}

	type tenant struct {
		name            string
		ingress, egress int // table IDs
		sid             netip.Addr
		action          seg6.Action
		port            uint16
	}
	tenants := []tenant{
		{"A", 201, 111, sidA, seg6.ActionEndDT4, 9001},
		{"B", 202, 112, sidB, seg6.ActionEndDT4, 9002},
		{"C", 203, 113, sidC, seg6.ActionEndDT6, 9003},
		{"D", 204, 114, sidD, seg6.ActionEndDT46, 9004},
	}

	journals := make([]*netsim.Journal, len(tenants))
	var gens []interface{ Sent() uint64 }
	for ti := range tenants {
		tn := &tenants[ti]
		var inAddrs, outAddrs []netip.Addr
		var nets []netip.Prefix // steered at the ingress, delivered at the egress
		switch tn.name {
		case "A", "B":
			inAddrs, outAddrs, nets = []netip.Addr{v4Src}, []netip.Addr{v4Dst}, []netip.Prefix{v4Net}
		case "C":
			inAddrs, outAddrs, nets = []netip.Addr{c1}, []netip.Addr{c9}, []netip.Prefix{cNet}
		case "D":
			inAddrs, outAddrs, nets = []netip.Addr{d1, v4Src}, []netip.Addr{d9, v4Dst}, []netip.Prefix{dNet, v4Net}
		}
		ceIn, peInIf, err := attach("ce"+tn.name+"1", pe1, inAddrs...)
		if err != nil {
			return "", 0, err
		}
		ceOut, _, err := attach("ce"+tn.name+"2", pe2, outAddrs...)
		if err != nil {
			return "", 0, err
		}

		// Ingress: bind the CE-facing interface to the tenant VRF and
		// steer the tenant's prefixes onto the SID.
		if err := pe1.BindIfaceTable(peInIf, tn.ingress); err != nil {
			return "", 0, err
		}
		srh := packet.NewSRH([]netip.Addr{tn.sid})
		mode := netsim.EncapModeEncap
		if tn.name == "C" {
			// Tenant C travels a 2-segment list in reduced form: the
			// first segment rides only in the outer destination.
			srh = packet.NewSRH([]netip.Addr{midSID, tn.sid})
			mode = netsim.EncapModeEncapRed
		}
		ingressTable := pe1.Table(tn.ingress)
		egressTable := pe2.Table(tn.egress)
		// The PE2-side interface of the egress CE link is the last
		// interface added to pe2 (attach connected it just above).
		peOutIf := lastIface(pe2)
		for _, p := range nets {
			if err := ingressTable.Add(&netsim.Route{Prefix: p, Kind: netsim.RouteSeg6Encap, SRH: srh, Mode: mode}); err != nil {
				return "", 0, err
			}
			if err := egressTable.Add(&netsim.Route{Prefix: p, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: peOutIf}}}); err != nil {
				return "", 0, err
			}
		}

		// Egress: the tenant SID decapsulates into the tenant table.
		if err := pe2.AddRoute(&netsim.Route{
			Prefix:    netip.PrefixFrom(tn.sid, 128),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: tn.action, Table: tn.egress},
		}); err != nil {
			return "", 0, err
		}

		j := netsim.NewJournal()
		journals[ti] = j
		ceOut.HandleUDP(tn.port, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
			hl, _ := packet.HopLimit(p.Raw)
			j.Addf("%d:hl%d", meta.RxTimestamp, hl)
		})

		const rate = 100_000
		const until = 1 * netsim.Millisecond
		switch tn.name {
		case "A", "B":
			tmpl, err := packet.BuildIPv4UDP(v4Src, v4Dst, 40000, tn.port, make([]byte, 64), 64)
			if err != nil {
				return "", 0, err
			}
			g := &trafgen.RawGen{Node: ceIn, Template: tmpl, RatePPS: rate}
			if err := g.Start(until); err != nil {
				return "", 0, err
			}
			gens = append(gens, g)
		case "C":
			g := &trafgen.UDPGen{Node: ceIn, Src: c1, Dst: c9, SrcPort: 40000, DstPort: tn.port, PayloadLen: 64, RatePPS: rate}
			if err := g.Start(until); err != nil {
				return "", 0, err
			}
			gens = append(gens, g)
		case "D":
			g6 := &trafgen.UDPGen{Node: ceIn, Src: d1, Dst: d9, SrcPort: 40000, DstPort: tn.port, PayloadLen: 64, RatePPS: rate / 2}
			if err := g6.Start(until); err != nil {
				return "", 0, err
			}
			tmpl, err := packet.BuildIPv4UDP(v4Src, v4Dst, 40001, tn.port, make([]byte, 64), 64)
			if err != nil {
				return "", 0, err
			}
			g4 := &trafgen.RawGen{Node: ceIn, Template: tmpl, RatePPS: rate / 2}
			if err := g4.Start(until); err != nil {
				return "", 0, err
			}
			gens = append(gens, g6, g4)
		}
	}

	// The mid-point End SID for tenant C's reduced 2-segment list.
	if err := mid.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(midSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd},
	}); err != nil {
		return "", 0, err
	}

	if err := matrixSetShards(sim, shards); err != nil {
		return "", 0, err
	}
	sim.Run()

	var sent, delivered uint64
	for _, g := range gens {
		sent += g.Sent()
	}
	extra := make([]string, 0, len(journals))
	got := make([]uint64, len(journals))
	for i, j := range journals {
		got[i] = uint64(len(j.Lines()))
		delivered += got[i]
		extra = append(extra, fmt.Sprintf("tenant%s=%d trace=%s", tenants[i].name, got[i], strings.Join(j.Lines(), ",")))
	}
	if delivered != sent {
		return "", 0, fmt.Errorf("l3vpn: delivered %d of %d offered", delivered, sent)
	}
	// Isolation: each tenant's egress CE saw exactly its own offered load.
	// Overlapping tenants leaking across VRFs would skew both counts.
	if got[0] != gens[0].Sent() || got[1] != gens[1].Sent() {
		return "", 0, fmt.Errorf("l3vpn: tenant isolation broken: A=%d/%d B=%d/%d",
			got[0], gens[0].Sent(), got[1], gens[1].Sent())
	}
	return matrixFingerprint(sim, extra...), delivered, nil
}

// lastIface returns the interface most recently added to n — the
// scenario builders connect one access link at a time, so this is the
// link just created.
func lastIface(n *netsim.Node) *netsim.Iface {
	ifs := n.Ifaces()
	if len(ifs) == 0 {
		return nil
	}
	return ifs[len(ifs)-1]
}

// matrixSFC is the service-chaining scenario: traffic from S to D is
// steered through two SR-unaware VNFs by static proxies. P1 runs
// End.AS (decapsulate toward the VNF, re-encapsulate with the
// configured segment list on return); P2 runs End.AM (masquerade the
// destination address toward the VNF, restore it from the SRH on
// return). The VNFs are plain forwarders with a default route back —
// they never see an SRH.
func matrixSFC(shards int) (string, uint64, error) {
	sim := netsim.New(9102)
	host := netsim.HostCostModel()
	server := netsim.ServerCostModel()

	s := sim.AddNode("sfc-src", host)
	p1 := sim.AddNode("sfc-p1", server)
	p2 := sim.AddNode("sfc-p2", server)
	d := sim.AddNode("sfc-dst", host)
	vnf1 := sim.AddNode("sfc-vnf1", host)
	vnf2 := sim.AddNode("sfc-vnf2", host)

	sAddr := netip.MustParseAddr("fd00:1::1")
	p1Addr := netip.MustParseAddr("fc00:a1::1")
	p2Addr := netip.MustParseAddr("fc00:b1::1")
	dAddr := netip.MustParseAddr("fd00:2::1")
	asSID := netip.MustParseAddr("fc00:a1::a5")
	amSID := netip.MustParseAddr("fc00:b1::a6")
	decapSID := netip.MustParseAddr("fd00:2::d6")
	s.AddAddress(sAddr)
	p1.AddAddress(p1Addr)
	p2.AddAddress(p2Addr)
	d.AddAddress(dAddr)
	vnf1.AddAddress(netip.MustParseAddr("fd00:a1:f::1"))
	vnf2.AddAddress(netip.MustParseAddr("fd00:b1:f::1"))

	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	sIf, p1sIf := netsim.ConnectSymmetric(s, p1, link)
	_ = p1sIf
	p1p2If, p2p1If := netsim.ConnectSymmetric(p1, p2, link)
	_ = p2p1If
	p2dIf, dIf := netsim.ConnectSymmetric(p2, d, link)
	_ = dIf
	vnf1If, p1vIf := netsim.ConnectSymmetric(vnf1, p1, link)
	vnf2If, p2vIf := netsim.ConnectSymmetric(vnf2, p2, link)

	def := netip.MustParsePrefix("::/0")
	dsts := netip.MustParsePrefix("fd00:2::/48")
	p2net := netip.MustParsePrefix("fc00:b1::/48")

	// S steers fd00:2::/48 onto the chain <AS, AM, decap>.
	chain := packet.NewSRH([]netip.Addr{asSID, amSID, decapSID})
	if err := s.AddRoute(&netsim.Route{Prefix: dsts, Kind: netsim.RouteSeg6Encap, SRH: chain}); err != nil {
		return "", 0, err
	}
	if err := s.AddRoute(&netsim.Route{Prefix: def, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: sIf}}}); err != nil {
		return "", 0, err
	}

	// P1: End.AS toward VNF1, rebuilding <AM, decap> on return.
	asB := &seg6.Behaviour{
		Action: seg6.ActionEndAS,
		SRH:    packet.NewSRH([]netip.Addr{amSID, decapSID}),
		Src:    p1Addr,
		OIF:    p1vIf,
	}
	if err := p1.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(asSID, 128), Kind: netsim.RouteSeg6Local, Behaviour: asB}); err != nil {
		return "", 0, err
	}
	if err := p1.BindProxyReturn(p1vIf, asB); err != nil {
		return "", 0, err
	}
	for _, pfx := range []netip.Prefix{p2net, dsts} {
		if err := p1.AddRoute(&netsim.Route{Prefix: pfx, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: p1p2If}}}); err != nil {
			return "", 0, err
		}
	}

	// P2: End.AM toward VNF2 (masquerade/demasquerade).
	amB := &seg6.Behaviour{Action: seg6.ActionEndAM, OIF: p2vIf}
	if err := p2.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(amSID, 128), Kind: netsim.RouteSeg6Local, Behaviour: amB}); err != nil {
		return "", 0, err
	}
	if err := p2.BindProxyReturn(p2vIf, amB); err != nil {
		return "", 0, err
	}
	if err := p2.AddRoute(&netsim.Route{Prefix: dsts, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: p2dIf}}}); err != nil {
		return "", 0, err
	}

	// The VNFs bounce everything back over their uplink.
	if err := vnf1.AddRoute(&netsim.Route{Prefix: def, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: vnf1If}}}); err != nil {
		return "", 0, err
	}
	if err := vnf2.AddRoute(&netsim.Route{Prefix: def, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: vnf2If}}}); err != nil {
		return "", 0, err
	}

	// D: the chain's last SID decapsulates into the main table.
	if err := d.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(decapSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6},
	}); err != nil {
		return "", 0, err
	}

	sink := trafgen.NewSink(d, 9999)
	gen := &trafgen.UDPGen{Node: s, Src: sAddr, Dst: dAddr, SrcPort: 40000, DstPort: 9999, PayloadLen: 64, RatePPS: 200_000}
	if err := gen.Start(1 * netsim.Millisecond); err != nil {
		return "", 0, err
	}

	if err := matrixSetShards(sim, shards); err != nil {
		return "", 0, err
	}
	sim.Run()

	// Full delivery is the chain proof: the only route to D traverses
	// both proxies, and either proxy failing drops the packet.
	if sink.Packets != gen.Sent() || gen.Sent() == 0 {
		return "", 0, fmt.Errorf("sfc: delivered %d of %d through the chain", sink.Packets, gen.Sent())
	}
	return matrixFingerprint(sim, fmt.Sprintf("sink=%d", sink.Packets)), sink.Packets, nil
}

// matrixTILFA is the protection scenario: an ingress steers traffic
// onto a binding SID at A (End.B6.Encaps, reduced) whose expansion
// crosses the protected link A-B. The route for that expansion
// carries a TI-LFA backup — a repair segment list through C (End with
// the PSP flavor) — and the A-B link is cut mid-run: the second half
// of the traffic must arrive via the backup, with A's backup_tx
// counter recording the switch.
func matrixTILFA(shards int) (string, uint64, error) {
	sim := netsim.New(9103)
	host := netsim.HostCostModel()
	server := netsim.ServerCostModel()

	in := sim.AddNode("tilfa-in", host)
	a := sim.AddNode("tilfa-a", server)
	b := sim.AddNode("tilfa-b", server)
	c := sim.AddNode("tilfa-c", server)
	dst := sim.AddNode("tilfa-dst", host)

	inAddr := netip.MustParseAddr("fd00:10::1")
	aAddr := netip.MustParseAddr("fc00:aa::1")
	bAddr := netip.MustParseAddr("fc00:bb::1")
	cAddr := netip.MustParseAddr("fc00:cc::1")
	dstAddr := netip.MustParseAddr("fd00:63::1")
	bsid := netip.MustParseAddr("fc00:aa::b6")
	d6 := netip.MustParseAddr("fc00:bb::d6")
	d7 := netip.MustParseAddr("fc00:bb::d7")
	cSID := netip.MustParseAddr("fc00:cc::e9")
	in.AddAddress(inAddr)
	a.AddAddress(aAddr)
	b.AddAddress(bAddr)
	c.AddAddress(cAddr)
	dst.AddAddress(dstAddr)

	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	inIf, _ := netsim.ConnectSymmetric(in, a, link)
	abIf, _ := netsim.ConnectSymmetric(a, b, link)
	acIf, _ := netsim.ConnectSymmetric(a, c, link)
	cbIf, _ := netsim.ConnectSymmetric(c, b, link)
	bdIf, _ := netsim.ConnectSymmetric(b, dst, link)

	def := netip.MustParsePrefix("::/0")
	dstNet := netip.MustParsePrefix("fd00:63::/48")
	bNet := netip.MustParsePrefix("fc00:bb::/48")

	// Ingress: destination traffic rides the binding SID, then the
	// egress SID d6.
	if err := in.AddRoute(&netsim.Route{Prefix: dstNet, Kind: netsim.RouteSeg6Encap, SRH: packet.NewSRH([]netip.Addr{bsid, d6})}); err != nil {
		return "", 0, err
	}
	if err := in.AddRoute(&netsim.Route{Prefix: def, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: inIf}}}); err != nil {
		return "", 0, err
	}

	// A: the binding SID expands (reduced) to <d7>, and the route
	// toward B carries the TI-LFA backup through C.
	if err := a.AddRoute(&netsim.Route{
		Prefix: netip.PrefixFrom(bsid, 128),
		Kind:   netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{
			Action:  seg6.ActionEndB6Encap,
			SRH:     packet.NewSRH([]netip.Addr{d7}),
			Src:     aAddr,
			Reduced: true,
		},
	}); err != nil {
		return "", 0, err
	}
	if err := a.AddRoute(&netsim.Route{
		Prefix:   bNet,
		Kind:     netsim.RouteForward,
		Nexthops: []netsim.Nexthop{{Iface: abIf}},
		Backup: &netsim.Backup{
			Nexthops: []netsim.Nexthop{{Iface: acIf}},
			SRH:      packet.NewSRH([]netip.Addr{cSID, d7}),
		},
	}); err != nil {
		return "", 0, err
	}

	// C: the repair segment — plain End with PSP so the repair SRH is
	// popped before the packet re-enters B.
	if err := c.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(cSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd, Flavors: seg6.FlavorPSP},
	}); err != nil {
		return "", 0, err
	}
	if err := c.AddRoute(&netsim.Route{Prefix: bNet, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cbIf}}}); err != nil {
		return "", 0, err
	}

	// B: both egress SIDs decapsulate to the main table; the inner
	// destination then forwards to the attached host.
	for _, sid := range []netip.Addr{d6, d7} {
		if err := b.AddRoute(&netsim.Route{
			Prefix:    netip.PrefixFrom(sid, 128),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6},
		}); err != nil {
			return "", 0, err
		}
	}
	if err := b.AddRoute(&netsim.Route{Prefix: dstNet, Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: bdIf}}}); err != nil {
		return "", 0, err
	}

	// Phase 1 on port 9999, then the A-B link dies and phase 2 runs on
	// port 9998 — everything scheduled up front so the run is one
	// deterministic event sequence at any shard count.
	sink1 := trafgen.NewSink(dst, 9999)
	sink2 := trafgen.NewSink(dst, 9998)
	gen1 := &trafgen.UDPGen{Node: in, Src: inAddr, Dst: dstAddr, SrcPort: 40000, DstPort: 9999, PayloadLen: 64, RatePPS: 200_000}
	gen2 := &trafgen.UDPGen{Node: in, Src: inAddr, Dst: dstAddr, SrcPort: 40000, DstPort: 9998, PayloadLen: 64, RatePPS: 200_000}
	if err := gen1.Start(300 * netsim.Microsecond); err != nil {
		return "", 0, err
	}
	sim.FailLink(400*netsim.Microsecond, abIf)
	var genErr error
	in.Schedule(500*netsim.Microsecond, func() {
		genErr = gen2.Start(800 * netsim.Microsecond)
	})

	if err := matrixSetShards(sim, shards); err != nil {
		return "", 0, err
	}
	sim.Run()
	if genErr != nil {
		return "", 0, genErr
	}

	if sink1.Packets != gen1.Sent() || gen1.Sent() == 0 {
		return "", 0, fmt.Errorf("tilfa: pre-failure delivered %d of %d", sink1.Packets, gen1.Sent())
	}
	if sink2.Packets != gen2.Sent() || gen2.Sent() == 0 {
		return "", 0, fmt.Errorf("tilfa: post-failure delivered %d of %d", sink2.Packets, gen2.Sent())
	}
	if a.Counters()["backup_tx"] == 0 {
		return "", 0, fmt.Errorf("tilfa: protection never fired")
	}
	delivered := sink1.Packets + sink2.Packets
	return matrixFingerprint(sim,
		fmt.Sprintf("pre=%d post=%d backup=%d", sink1.Packets, sink2.Packets, a.Counters()["backup_tx"]),
	), delivered, nil
}
