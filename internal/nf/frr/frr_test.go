package frr

import (
	"fmt"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

var (
	srcAddr  = netip.MustParseAddr("2001:db8:1::1")
	pAddr    = netip.MustParseAddr("2001:db8:10::1")
	dAddr    = netip.MustParseAddr("2001:db8:20::1")
	bAddr    = netip.MustParseAddr("2001:db8:30::1")
	dstAddr  = netip.MustParseAddr("2001:db8:2::1")
	nbrSID   = netip.MustParseAddr("fc00:20::ee") // D's End SID (probe bounce)
	primSID  = netip.MustParseAddr("fc00:20::d6") // decap over the primary link
	detourS  = netip.MustParseAddr("fc00:30::e")  // B's End SID
	bkDecap  = netip.MustParseAddr("fc00:21::d6") // decap reachable via B
	trackSID = netip.MustParseAddr("fc00:10::7a") // P's tracker
	probeTo  = netip.MustParseAddr("fc00:f0::1")  // trigger address
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// testbed is the protection triangle:
//
//	S --- P ===(primary)=== D --- T(dst)
//	       \               /
//	        B ------------+   (backup detour)
type testbed struct {
	sim           *netsim.Sim
	s, p, d, b, t *netsim.Node
	pdIf          *netsim.Iface // the protected link, P side
	frr           *FRR
	delivered     []int64 // arrival times at the sink
}

func newTestbed(t *testing.T, interval int64, misses int) *testbed {
	return newTestbedCfg(t, Config{ProbeInterval: interval, Misses: misses})
}

// newTestbedCfg builds the triangle with an explicit detector config
// (TrackSID and JIT are filled in).
func newTestbedCfg(t *testing.T, cfg Config) *testbed {
	sim := netsim.New(42)
	tb := &testbed{
		sim: sim,
		s:   sim.AddNode("S", netsim.HostCostModel()),
		p:   sim.AddNode("P", netsim.ServerCostModel()),
		d:   sim.AddNode("D", netsim.ServerCostModel()),
		b:   sim.AddNode("B", netsim.ServerCostModel()),
	}
	tb.t = sim.AddNode("T", netsim.HostCostModel())
	tb.s.AddAddress(srcAddr)
	tb.p.AddAddress(pAddr)
	tb.d.AddAddress(dAddr)
	tb.b.AddAddress(bAddr)
	tb.t.AddAddress(dstAddr)

	edge := netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond}
	core := netem.Config{RateBps: 1e10, DelayNs: 100 * netsim.Microsecond}
	detour := netem.Config{RateBps: 1e10, DelayNs: 60 * netsim.Microsecond}

	sIf, psIf := netsim.ConnectSymmetric(tb.s, tb.p, edge)
	pdIf, dpIf := netsim.ConnectSymmetric(tb.p, tb.d, core)
	pbIf, bpIf := netsim.ConnectSymmetric(tb.p, tb.b, detour)
	bdIf, dbIf := netsim.ConnectSymmetric(tb.b, tb.d, detour)
	dtIf, tIf := netsim.ConnectSymmetric(tb.d, tb.t, edge)
	_, _, _ = bpIf, dbIf, psIf
	tb.pdIf = pdIf

	tb.s.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: sIf}}})
	tb.t.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: tIf}}})

	// P: SID routing. Primary decap + neighbour SIDs over the
	// protected link, detour + backup decap over B.
	tb.p.AddRoute(&netsim.Route{Prefix: pfx("fc00:20::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pdIf}}})
	tb.p.AddRoute(&netsim.Route{Prefix: pfx("fc00:30::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pbIf}}})
	tb.p.AddRoute(&netsim.Route{Prefix: pfx("fc00:21::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pbIf}}})
	tb.p.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: psIf}}})

	// B: detour End SID, backup decap prefix onward to D.
	tb.b.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(detourS, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd},
	})
	tb.b.AddRoute(&netsim.Route{Prefix: pfx("fc00:21::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: bdIf}}})

	// D: neighbour End SID (probe bounce), both decap SIDs, tracker
	// prefix back towards P, traffic onward to T.
	tb.d.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(nbrSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd},
	})
	for _, sid := range []netip.Addr{primSID, bkDecap} {
		tb.d.AddRoute(&netsim.Route{
			Prefix:    netip.PrefixFrom(sid, 128),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable},
		})
	}
	tb.d.AddRoute(&netsim.Route{Prefix: pfx("fc00:10::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: dpIf}}})
	tb.d.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: dtIf}}})

	cfg.TrackSID = trackSID
	cfg.JIT = true
	frr, err := New(tb.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := frr.AddNeighbor(Neighbor{ID: 1, ProbeAddr: probeTo, SID: nbrSID, Iface: pdIf}); err != nil {
		t.Fatal(err)
	}
	if err := frr.Protect(Protection{
		Prefix:     pfx("2001:db8:2::/48"),
		NeighborID: 1,
		PrimarySID: primSID,
		Backup:     []netip.Addr{detourS, bkDecap},
	}); err != nil {
		t.Fatal(err)
	}
	tb.frr = frr

	tb.t.HandleUDP(9999, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		tb.delivered = append(tb.delivered, meta.RxTimestamp)
	})
	return tb
}

func (tb *testbed) send(t *testing.T, seq int) {
	raw, err := packet.BuildPacket(srcAddr, dstAddr,
		packet.WithUDP(5000, 9999),
		packet.WithPayload([]byte(fmt.Sprintf("%06d", seq))))
	if err != nil {
		t.Fatal(err)
	}
	tb.s.Output(raw)
}

// TestProbesKeepNeighborUp: with a healthy link the detector never
// flips, probes are consumed by the tracker, and the lastseen map
// keeps advancing.
func TestProbesKeepNeighborUp(t *testing.T) {
	interval := netsim.Millisecond
	tb := newTestbed(t, interval, 3)
	tb.frr.Start()
	tb.sim.RunUntil(20 * interval)
	tb.frr.Stop()
	tb.sim.Run()

	if len(tb.frr.Transitions) != 0 {
		t.Fatalf("spurious transitions on a healthy link: %+v", tb.frr.Transitions)
	}
	if tb.frr.Down(1) {
		t.Fatal("neighbour marked down on a healthy link")
	}
	// Probes are consumed by the tracker's BPF_DROP.
	consumed := tb.p.Counters()["drop_seg6local"]
	if consumed < 15 {
		t.Errorf("tracker consumed %d probes, want ≈20", consumed)
	}
}

// TestTrafficViaPrimaryWhenHealthy: steered traffic reaches the sink
// through the primary decap SID.
func TestTrafficViaPrimaryWhenHealthy(t *testing.T) {
	tb := newTestbed(t, netsim.Millisecond, 3)
	tb.frr.Start()
	var viaPrimary int
	tb.pdIf.Tap = func(raw []byte) {
		if p, err := packet.Parse(raw); err == nil && p.IPv6.Dst == primSID {
			viaPrimary++
		}
	}
	for i := 0; i < 10; i++ {
		seq := i
		tb.sim.Schedule(int64(i)*100*netsim.Microsecond, func() { tb.send(t, seq) })
	}
	tb.sim.RunUntil(5 * netsim.Millisecond)
	tb.frr.Stop()
	tb.sim.Run()
	if len(tb.delivered) != 10 {
		t.Fatalf("delivered %d/10 (P=%v D=%v)", len(tb.delivered), tb.p.Counters(), tb.d.Counters())
	}
	if viaPrimary != 10 {
		t.Errorf("%d/10 packets rode the primary SID", viaPrimary)
	}
}

// TestFailoverOntoBackup is the core scenario: cut the primary link
// under constant traffic, verify the detector declares the neighbour
// down after K missed probes, traffic converges onto the backup
// segment list, and the sink's blackout stays within the
// K·interval + RTT budget. Then restore and verify re-convergence.
func TestFailoverOntoBackup(t *testing.T) {
	const k = 3
	interval := netsim.Millisecond
	tb := newTestbed(t, interval, k)
	tb.frr.Start()

	// 50 kpps of steered traffic for 40 ms.
	gap := 20 * netsim.Microsecond
	n := int(40 * netsim.Millisecond / gap)
	for i := 0; i < n; i++ {
		seq := i
		tb.sim.Schedule(int64(i)*gap, func() { tb.send(t, seq) })
	}

	// Fail just before the probe at 10 ms; probes then silently die.
	failAt := 10*netsim.Millisecond - 50*netsim.Microsecond
	tb.sim.FailLink(failAt, tb.pdIf)
	restoreAt := 25 * netsim.Millisecond
	tb.sim.RestoreLink(restoreAt, tb.pdIf)

	tb.sim.RunUntil(40 * netsim.Millisecond)
	tb.frr.Stop()
	tb.sim.Run()

	if len(tb.frr.Transitions) != 2 {
		t.Fatalf("transitions = %+v, want down then up", tb.frr.Transitions)
	}
	down, up := tb.frr.Transitions[0], tb.frr.Transitions[1]
	if down.Up || !up.Up {
		t.Fatalf("transition order wrong: %+v", tb.frr.Transitions)
	}

	// Detection: the probe at 10 ms was the first lost one; K misses
	// are complete at the (10 + K) ms tick.
	wantDetect := 10*netsim.Millisecond + int64(k)*interval
	if down.At != wantDetect {
		t.Errorf("down at %d, want %d", down.At, wantDetect)
	}

	// Blackout at the sink: gap from failure to the first packet
	// arriving via the backup, bounded by K·I + one probe RTT.
	var firstAfter int64 = -1
	for _, at := range tb.delivered {
		if at > failAt {
			firstAfter = at
			break
		}
	}
	if firstAfter < 0 {
		t.Fatal("no packet ever arrived after the failure")
	}
	recovery := firstAfter - failAt
	rtt := 2 * (100*netsim.Microsecond + 20*netsim.Microsecond) // propagation + slack
	budget := int64(k)*interval + rtt
	if recovery >= budget {
		t.Errorf("recovery %.3f ms, budget %.3f ms", float64(recovery)/1e6, float64(budget)/1e6)
	}
	t.Logf("recovery = %.3f ms (budget %.3f ms), lost = %d",
		float64(recovery)/1e6, float64(budget)/1e6, n-len(tb.delivered))

	// Losses are confined to the blackout window.
	lost := n - len(tb.delivered)
	maxLost := int(budget/gap) + 2
	if lost == 0 || lost > maxLost {
		t.Errorf("lost %d packets, want 1..%d", lost, maxLost)
	}

	// After the restore the detector must have re-converged and sent
	// traffic back over the primary.
	if !up.Up || up.At <= restoreAt {
		t.Errorf("up transition at %d, want after restore %d", up.At, restoreAt)
	}
	if tb.frr.Down(1) {
		t.Error("neighbour still marked down at the end")
	}
}

// TestStopStartRestarts: a stopped instance must resume probing and
// detecting when started again.
func TestStopStartRestarts(t *testing.T) {
	interval := netsim.Millisecond
	tb := newTestbed(t, interval, 2)
	tb.frr.Start()
	tb.sim.RunUntil(3 * interval)
	tb.frr.Stop()
	tb.sim.RunUntil(6 * interval)
	sentBefore := tb.frr.ProbesSent
	tb.sim.Schedule(tb.sim.Now(), tb.frr.Start)
	tb.sim.RunUntil(12 * interval)
	if tb.frr.ProbesSent <= sentBefore {
		t.Fatalf("no probes after restart (sent=%d, before=%d)", tb.frr.ProbesSent, sentBefore)
	}
	// Detection still works after the restart.
	tb.sim.FailLink(tb.sim.Now(), tb.pdIf)
	tb.sim.RunUntil(tb.sim.Now() + 4*interval)
	if !tb.frr.Down(1) {
		t.Fatal("failure not detected after Stop/Start cycle")
	}
	tb.frr.Stop()
	tb.sim.Run()
}

// TestSingleSegmentBackup exercises the 1-segment backup branch of
// the steer program.
func TestSingleSegmentBackup(t *testing.T) {
	tb := newTestbed(t, netsim.Millisecond, 2)
	// Re-protect with a direct 1-segment backup (B forwards the decap
	// prefix without a detour End SID).
	if err := tb.frr.Protect(Protection{
		Prefix:     pfx("2001:db8:2::/48"),
		NeighborID: 1,
		PrimarySID: primSID,
		Backup:     []netip.Addr{bkDecap},
	}); err != nil {
		t.Fatal(err)
	}
	tb.frr.Start()
	tb.sim.FailLink(5*netsim.Millisecond-50*netsim.Microsecond, tb.pdIf)
	gap := 50 * netsim.Microsecond
	n := int(15 * netsim.Millisecond / gap)
	for i := 0; i < n; i++ {
		seq := i
		tb.sim.Schedule(int64(i)*gap, func() { tb.send(t, seq) })
	}
	tb.sim.RunUntil(15 * netsim.Millisecond)
	tb.frr.Stop()
	tb.sim.Run()

	if len(tb.delivered) == 0 {
		t.Fatal("nothing delivered")
	}
	var afterFail int
	for _, at := range tb.delivered {
		if at > 8*netsim.Millisecond {
			afterFail++
		}
	}
	if afterFail == 0 {
		t.Fatalf("no traffic recovered over the 1-segment backup (P=%v)", tb.p.Counters())
	}
}

// TestProbeWireFormat decodes a probe off the wire: correct segment
// list in travel order and a well-formed FRR TLV.
func TestProbeWireFormat(t *testing.T) {
	tb := newTestbed(t, netsim.Millisecond, 3)
	var captured []byte
	tb.pdIf.Tap = func(raw []byte) {
		if captured == nil {
			captured = append([]byte(nil), raw...)
		}
	}
	tb.frr.Start()
	tb.sim.RunUntil(100 * netsim.Microsecond)
	tb.frr.Stop()
	tb.sim.Run()

	if captured == nil {
		t.Fatal("no probe captured on the protected link")
	}
	p, err := packet.Parse(captured)
	if err != nil {
		t.Fatalf("probe does not parse: %v", err)
	}
	if p.SRH == nil {
		t.Fatal("probe has no SRH")
	}
	if p.IPv6.Dst != nbrSID {
		t.Errorf("probe dst = %v, want neighbour SID %v", p.IPv6.Dst, nbrSID)
	}
	if p.SRH.SegmentsLeft != 2 || len(p.SRH.Segments) != 3 {
		t.Errorf("SL=%d segments=%d, want 2/3", p.SRH.SegmentsLeft, len(p.SRH.Segments))
	}
	if p.SRH.Segments[1] != trackSID {
		t.Errorf("segments[1] = %v, want tracker %v", p.SRH.Segments[1], trackSID)
	}
	var tlv *packet.FRRProbeTLV
	for _, v := range p.SRH.TLVs {
		if f, ok := v.(packet.FRRProbeTLV); ok {
			tlv = &f
		}
	}
	if tlv == nil || tlv.NeighborID != 1 {
		t.Fatalf("FRR TLV = %+v, want neighbour id 1 (TLVs: %v)", tlv, p.SRH.TLVs)
	}
}

// TestInterpreterEngine runs the failover scenario on a CPU without a
// JIT: the programs cost the interpreter's model time per instruction
// and detection must still work.
func TestInterpreterEngine(t *testing.T) {
	interval := netsim.Millisecond
	sim := netsim.New(7)
	// Minimal two-node check: P --- D, tracker + probe only.
	p := sim.AddNode("P", netsim.ServerCostModel())
	d := sim.AddNode("D", netsim.ServerCostModel())
	p.AddAddress(pAddr)
	d.AddAddress(dAddr)
	core := netem.Config{RateBps: 1e10, DelayNs: 50 * netsim.Microsecond}
	pdIf, dpIf := netsim.ConnectSymmetric(p, d, core)
	d.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(nbrSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd},
	})
	d.AddRoute(&netsim.Route{Prefix: pfx("fc00:10::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: dpIf}}})

	frr, err := New(p, Config{TrackSID: trackSID, ProbeInterval: interval, Misses: 2, JIT: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := frr.AddNeighbor(Neighbor{ID: 9, ProbeAddr: probeTo, SID: nbrSID, Iface: pdIf}); err != nil {
		t.Fatal(err)
	}
	frr.Start()
	sim.RunUntil(5 * interval)
	if frr.Down(9) {
		t.Fatal("healthy neighbour down under the interpreter")
	}
	sim.FailLink(sim.Now(), pdIf)
	sim.RunUntil(sim.Now() + 4*interval)
	if !frr.Down(9) {
		t.Fatal("failure not detected under the interpreter")
	}
	frr.Stop()
	sim.Run()
}
