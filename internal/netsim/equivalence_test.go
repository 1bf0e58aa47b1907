package netsim_test

// Sequential-vs-parallel equivalence: the acceptance surface of the
// sharded engine. The same seed must produce bit-identical per-node
// counters and delivery traces whether the simulation runs on one
// event heap or is partitioned across shards — on a control-plane-heavy
// scenario (FRR failover: link failures, probe timers, map updates), a
// TCP transfer through a tunnel, and the generated topologies of
// fuzz_equiv_test.go's scenario runner, among them a 200+ node fat-tree
// running an ECMP-spread permutation traffic mix.

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"srv6bpf/internal/experiments"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/frr"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/tcpsim"
)

func endBehaviour() *seg6.Behaviour { return &seg6.Behaviour{Action: seg6.ActionEnd} }

func endDT6Behaviour() *seg6.Behaviour {
	return &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable}
}

// fingerprint renders every node's counters (sorted, via the
// zero-alloc CountersInto into one reused map) plus any extra lines
// into one comparable string.
func fingerprint(sim *netsim.Sim, extra []string) string {
	var b strings.Builder
	scratch := make(map[string]uint64, 32)
	keys := make([]string, 0, 32)
	for _, n := range sim.Nodes() {
		for k := range scratch {
			delete(scratch, k)
		}
		n.CountersInto(scratch)
		keys = keys[:0]
		for k := range scratch {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s{", n.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d ", k, scratch[k])
		}
		b.WriteString("}\n")
	}
	for _, line := range extra {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardEquivalenceFatTree: the 208-node k=8 fat-tree running an
// ECMP-spread permutation mix for 4 ms on 2, 4 and 8 contiguous shards,
// every host receiving and every split exchanging cross-shard messages.
func TestShardEquivalenceFatTree(t *testing.T) {
	sc := scenario{seed: 7, kind: "fattree", k: 8, link: tenGig, duration: 4 * netsim.Millisecond,
		rate: 20_000, pairs: 99, flowMod: 16}
	if nw := buildTopo(t, netsim.New(sc.seed), sc); len(nw.Nodes) != 208 {
		t.Fatalf("fat-tree k=8 has %d nodes, want 208", len(nw.Nodes))
	}
	counts := []int{2, 4, 8}
	base, stats := equivalent(t, sc, counts...)
	if stats[0].Events == 0 {
		t.Fatal("no events executed")
	}
	// Sanity: traffic actually flowed to every host.
	for _, line := range strings.Split(base, "\n") {
		if strings.HasSuffix(line, "]=") {
			t.Fatalf("no deliveries at %s", line)
		}
	}
	for i, shards := range counts {
		st := stats[i+1]
		if st.Shards != shards {
			t.Errorf("engine ran with %d shards, want %d", st.Shards, shards)
		}
		if st.Messages == 0 {
			t.Errorf("%d shards exchanged no cross-shard messages — partition degenerate?", shards)
		}
		t.Logf("shards=%d events=%d windows=%d msgs=%d", st.Shards, st.Events, st.Windows, st.Messages)
	}
}

// diffReport points at the first differing line so a determinism
// regression is debuggable.
func diffReport(t *testing.T, base, got string, shards int) {
	t.Helper()
	bl := strings.Split(base, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(bl) && i < len(gl); i++ {
		if bl[i] != gl[i] {
			t.Fatalf("%d-shard run diverges from sequential at line %d:\n  seq: %.200s\n  par: %.200s",
				shards, i, bl[i], gl[i])
		}
	}
	t.Fatalf("%d-shard run diverges from sequential (length %d vs %d lines)", shards, len(bl), len(gl))
}

// frrRun executes the FRR failover scenario (the protection triangle
// of internal/experiments) under the given shard count.
func frrRun(t *testing.T, shards int) string {
	t.Helper()
	var (
		src     = netip.MustParseAddr("2001:db8:1::1")
		pAddr   = netip.MustParseAddr("2001:db8:10::1")
		dAddr   = netip.MustParseAddr("2001:db8:20::1")
		bAddr   = netip.MustParseAddr("2001:db8:30::1")
		dst     = netip.MustParseAddr("2001:db8:2::1")
		nbrSID  = netip.MustParseAddr("fc00:20::ee")
		primSID = netip.MustParseAddr("fc00:20::d6")
		detour  = netip.MustParseAddr("fc00:30::e")
		bkDecap = netip.MustParseAddr("fc00:21::d6")
		track   = netip.MustParseAddr("fc00:10::7a")
		probeTo = netip.MustParseAddr("fc00:f0::1")
	)
	pfx := netip.MustParsePrefix

	sim := netsim.New(11)
	s := sim.AddNode("S", netsim.HostCostModel())
	p := sim.AddNode("P", netsim.ServerCostModel())
	d := sim.AddNode("D", netsim.ServerCostModel())
	bb := sim.AddNode("B", netsim.ServerCostModel())
	tt := sim.AddNode("T", netsim.HostCostModel())
	s.AddAddress(src)
	p.AddAddress(pAddr)
	d.AddAddress(dAddr)
	bb.AddAddress(bAddr)
	tt.AddAddress(dst)

	edge := netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond}
	primary := netem.Config{RateBps: 1e10, DelayNs: 100 * netsim.Microsecond}
	detourCfg := netem.Config{RateBps: 1e10, DelayNs: 60 * netsim.Microsecond}

	sIf, psIf := netsim.ConnectSymmetric(s, p, edge)
	pdIf, dpIf := netsim.ConnectSymmetric(p, d, primary)
	pbIf, _ := netsim.ConnectSymmetric(p, bb, detourCfg)
	bdIf, _ := netsim.ConnectSymmetric(bb, d, detourCfg)
	dtIf, tIf := netsim.ConnectSymmetric(d, tt, edge)

	s.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: sIf}}})
	tt.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: tIf}}})
	p.AddRoute(&netsim.Route{Prefix: pfx("fc00:20::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pdIf}}})
	p.AddRoute(&netsim.Route{Prefix: pfx("fc00:30::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pbIf}}})
	p.AddRoute(&netsim.Route{Prefix: pfx("fc00:21::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pbIf}}})
	p.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: psIf}}})
	bb.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(detour, 128), Kind: netsim.RouteSeg6Local,
		Behaviour: endBehaviour()})
	bb.AddRoute(&netsim.Route{Prefix: pfx("fc00:21::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: bdIf}}})
	d.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(nbrSID, 128), Kind: netsim.RouteSeg6Local,
		Behaviour: endBehaviour()})
	for _, sid := range []netip.Addr{primSID, bkDecap} {
		d.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local,
			Behaviour: endDT6Behaviour()})
	}
	d.AddRoute(&netsim.Route{Prefix: pfx("fc00:10::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: dpIf}}})
	d.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: dtIf}}})

	delivered := netsim.NewJournal()
	tt.HandleUDP(9999, func(n *netsim.Node, pk *packet.Packet, meta *netsim.PacketMeta) {
		delivered.Addf("%d", meta.RxTimestamp)
	})

	f, err := frr.New(p, frr.Config{TrackSID: track, ProbeInterval: 2 * netsim.Millisecond, Misses: 3, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddNeighbor(frr.Neighbor{ID: 1, ProbeAddr: probeTo, SID: nbrSID, Iface: pdIf}); err != nil {
		t.Fatal(err)
	}
	if err := f.Protect(frr.Protection{
		Prefix: pfx("2001:db8:2::/48"), NeighborID: 1,
		PrimarySID: primSID, Backup: []netip.Addr{detour, bkDecap},
	}); err != nil {
		t.Fatal(err)
	}

	if err := sim.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	f.Start()
	// Constant-rate traffic S -> T, scheduled on S's shard.
	const gap = 20 * netsim.Microsecond
	const until = 25 * netsim.Millisecond
	for i := 0; i < int(until/gap); i++ {
		s.Schedule(int64(i)*gap, func() {
			raw, err := packet.BuildPacket(src, dst,
				packet.WithUDP(5000, 9999), packet.WithPayload(make([]byte, 64)))
			if err != nil {
				panic(err)
			}
			s.Output(raw)
		})
	}
	sim.FailLink(10*netsim.Millisecond-50*netsim.Microsecond, pdIf)
	sim.RunUntil(until)
	f.Stop()
	sim.Run()

	extra := []string{
		fmt.Sprintf("delivered=%v", delivered.Lines()),
		fmt.Sprintf("probes=%d transitions=%v", f.ProbesSent, f.Transitions),
		fmt.Sprintf("pd.tx=%d pd.downdrops=%d pb.tx=%d", pdIf.TxPackets, pdIf.DownDrops(), pbIf.TxPackets),
	}
	return fingerprint(sim, extra)
}

func TestShardEquivalenceFRR(t *testing.T) {
	base := frrRun(t, 1)
	if !strings.Contains(base, "transitions=[{1 false") {
		t.Fatalf("FRR scenario never detected the failure:\n%s", base)
	}
	for _, shards := range []int{2, 4} {
		if got := frrRun(t, shards); got != base {
			diffReport(t, base, got, shards)
		}
	}
}

// smoke is TestShardEquivalenceSmoke's scenario: a trimmed fat-tree
// (k=4, 36 nodes) for 1 ms, about 200 windows on 2 shards.
var smoke = scenario{seed: 3, kind: "fattree", k: 4, link: tenGig, duration: netsim.Millisecond,
	rate: 50_000, pairs: 5, flowMod: 8}

// TestShardEquivalenceSmoke is the quick 2-shard determinism gate
// that `make check` runs under the race detector.
func TestShardEquivalenceSmoke(t *testing.T) {
	equivalent(t, smoke, 2)
}

// TestShardFewerProcsThanShards: a window's waiters spin and then yield,
// so shards that outnumber the Ps still take turns — 2 shards on one P,
// 4 on two — and the schedule is still the sequential one.
//
// A waiter that never yields is still preempted by the runtime, but only
// after 10 ms of spinning, at nearly every one of the smoke scenario's
// ~200 windows: about 2 s per arm, against 3 ms (50 ms under the race
// detector) for one that yields. The 1 s bound tells the two apart.
func TestShardFewerProcsThanShards(t *testing.T) {
	base, _ := runScenario(t, smoke, 1)
	for _, c := range []struct{ procs, shards int }{{1, 2}, {2, 4}} {
		start := time.Now()
		got := func() string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			fp, _ := runScenario(t, smoke, c.shards)
			return fp
		}()
		if got != base {
			t.Logf("GOMAXPROCS=%d", c.procs)
			diffReport(t, base, got, c.shards)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%d shards on GOMAXPROCS=%d took %v: do the barrier's waiters yield?", c.shards, c.procs, took)
		}
	}
}

// tcpTunnelRun is a TCP transfer S → T through a tunnel A ⇄ M (static
// H.Encaps one way, End.DT6 the other, in both directions): every
// segment and every ACK leaves its sender with headroom and is
// encapsulated in place one hop later. assign places the four nodes
// (creation order S, A, M, T); nil runs on one shard.
func tcpTunnelRun(t *testing.T, assign []int) string {
	t.Helper()
	var (
		sAddr  = netip.MustParseAddr("2001:db8:1::1")
		aAddr  = netip.MustParseAddr("2001:db8:a::1")
		mAddr  = netip.MustParseAddr("2001:db8:c::1")
		tAddr  = netip.MustParseAddr("2001:db8:2::1")
		sidAtM = netip.MustParseAddr("fc00:c::d6")
		sidAtA = netip.MustParseAddr("fc00:a::d6")
	)
	pfx := netip.MustParsePrefix

	sim := netsim.New(5)
	s := sim.AddNode("S", netsim.HostCostModel())
	a := sim.AddNode("A", netsim.ServerCostModel())
	m := sim.AddNode("M", netsim.ServerCostModel())
	tt := sim.AddNode("T", netsim.HostCostModel())
	s.AddAddress(sAddr)
	a.AddAddress(aAddr)
	m.AddAddress(mAddr)
	tt.AddAddress(tAddr)

	edge := netem.Config{RateBps: 1e9, DelayNs: 20 * netsim.Microsecond}
	// A bottleneck with a short queue, so the transfer also loses and
	// retransmits segments.
	access := netem.Config{RateBps: 50e6, DelayNs: 500 * netsim.Microsecond, QueueLimit: 20}
	sIf, asIf := netsim.ConnectSymmetric(s, a, edge)
	amIf, maIf := netsim.ConnectSymmetric(a, m, access)
	mtIf, tIf := netsim.ConnectSymmetric(m, tt, edge)

	s.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: sIf}}})
	tt.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: tIf}}})
	a.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: asIf}}})
	a.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteSeg6Encap,
		SRH: packet.NewSRH([]netip.Addr{sidAtM}), Nexthops: []netsim.Nexthop{{Iface: amIf}}})
	a.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sidAtA, 128), Kind: netsim.RouteSeg6Local, Behaviour: endDT6Behaviour()})
	m.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: mtIf}}})
	m.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteSeg6Encap,
		SRH: packet.NewSRH([]netip.Addr{sidAtA}), Nexthops: []netsim.Nexthop{{Iface: maIf}}})
	m.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sidAtM, 128), Kind: netsim.RouteSeg6Local, Behaviour: endDT6Behaviour()})

	// Delivery traces, each appended by the transmitting node's shard:
	// segments as M hands them to T, ACKs as A hands them to S.
	trace := func(i *netsim.Iface) *netsim.Journal {
		j := netsim.NewJournal()
		i.Tap = func(raw []byte) {
			p, err := packet.Parse(raw)
			if err != nil || p.L4Proto != packet.ProtoTCP {
				j.Addf("%d:?", i.Node.Now())
				return
			}
			seg, _ := packet.DecodeTCP(raw[p.L4Off:])
			j.Addf("%d:%d/%d", i.Node.Now(), seg.Seq, seg.Ack)
		}
		return j
	}
	segs, acks := trace(mtIf), trace(asIf)

	snd, rcv, err := tcpsim.NewTransfer(tcpsim.NewStack(s), tcpsim.NewStack(tt), sAddr, tAddr, 40000, 5001,
		tcpsim.Config{MinRTO: 5 * netsim.Millisecond, FlowLabel: 77})
	if err != nil {
		t.Fatal(err)
	}
	if assign != nil {
		if err := sim.SetShardsPartitioned(2, assign); err != nil {
			t.Fatal(err)
		}
	}
	s.Schedule(0, snd.Start)
	sim.RunUntil(40 * netsim.Millisecond)
	snd.Stop()
	sim.Run()

	if rcv.GoodputBytes == 0 || snd.Retransmits == 0 {
		t.Fatalf("scenario too tame: %d bytes delivered, %d retransmits", rcv.GoodputBytes, snd.Retransmits)
	}
	return fingerprint(sim, []string{
		fmt.Sprintf("sent=%d rtx=%d timeouts=%d goodput=%d ooo=%d dup=%d",
			snd.SegmentsSent, snd.Retransmits, snd.Timeouts, rcv.GoodputBytes, rcv.OutOfOrderSegs, rcv.DupSegs),
		"segs=" + strings.Join(segs.Lines(), ","),
		"acks=" + strings.Join(acks.Lines(), ","),
	})
}

// TestShardEquivalenceTCPEncap: packets that carry headroom cross a
// shard boundary between the node that built them and the node that
// writes into it. The sender and its tunnel ingress sit in different
// shards in both directions (S|A and T|M), under two placements; the
// run must be the sequential one, and race-clean (`make race-smoke`).
func TestShardEquivalenceTCPEncap(t *testing.T) {
	base := tcpTunnelRun(t, nil)
	for _, assign := range [][]int{{0, 1, 1, 0}, {0, 1, 0, 1}} {
		if got := tcpTunnelRun(t, assign); got != base {
			diffReport(t, base, got, 2)
		}
	}
}

// TestBufListPoisonChangesNothing: with every released buffer
// overwritten, the fat-tree smoke, the TCP transfer through a tunnel (on
// one shard and split, so that buffers born in one shard are released in
// the other, both ways), FuzzScenario's corpus at 2 shards (crashes,
// corruption, duplication, PSP and reduced encapsulation among them) and
// the behaviour matrix produce the fingerprints they produce without — a
// byte read after its release, or a buffer released while someone still
// holds it, changes a counter or a trace.
func TestBufListPoisonChangesNothing(t *testing.T) {
	type arm struct {
		name string
		run  func() string
	}
	scenarioArm := func(name string, sc scenario, shards int) arm {
		return arm{name, func() string { fp, _ := runScenario(t, sc, shards); return fp }}
	}
	arms := []arm{
		scenarioArm("smoke, 1 shard", smoke, 1),
		scenarioArm("smoke, 2 shards", smoke, 2),
		{"tcp through a tunnel, 1 shard", func() string { return tcpTunnelRun(t, nil) }},
		{"tcp through a tunnel, 2 shards", func() string { return tcpTunnelRun(t, []int{0, 1, 1, 0}) }},
		{"behaviour matrix", func() string {
			rows, err := experiments.MatrixScan()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(rows)
		}},
	}
	for i, c := range scenarioCorpus {
		sc := fuzzScenario(c.switches, c.seed)
		arms = append(arms, scenarioArm(fmt.Sprintf("corpus entry %d (%s), 2 shards", i, sc.kind), sc, 2))
	}
	clean := make([]string, len(arms))
	for i, a := range arms {
		clean[i] = a.run()
	}
	netsim.PoisonReleased(t)
	for i, a := range arms {
		if got := a.run(); got != clean[i] {
			t.Errorf("%s: poisoning released buffers changed the run", a.name)
			diffReport(t, clean[i], got, 0)
		}
	}
}
