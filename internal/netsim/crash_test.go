package netsim

import (
	"net/netip"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
)

// sendPing emits count UDP packets from a to dst, spaced gapNs apart
// starting at startNs.
func sendPing(s *Sim, a *Node, dst netip.Addr, startNs, gapNs int64, count int) {
	for i := 0; i < count; i++ {
		raw, err := packet.BuildPacket(aAddr, dst, packet.WithUDP(1000, 7777), packet.WithPayload([]byte("ping")))
		if err != nil {
			panic(err)
		}
		at := startNs + int64(i)*gapNs
		a.Schedule(at, func() { a.Output(raw) })
	}
}

func TestNodeCrashDropsTrafficAndRestartRecovers(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)

	delivered := 0
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })

	// 10 packets, 1ms apart; R is down for [2.5ms, 6.5ms) — packets
	// 3..6 die on the dead router, the rest flow.
	sendPing(s, a, bAddr, Millisecond, Millisecond, 10)
	s.CrashNode(2500*Microsecond, r)
	s.RestartNode(6500*Microsecond, r)
	s.Run()

	if delivered != 6 {
		t.Errorf("delivered = %d, want 6 (4 lost to the crash)", delivered)
	}
	rc := r.Counters()
	if rc["node_crash"] != 1 || rc["node_restart"] != 1 {
		t.Errorf("crash/restart counters = %d/%d", rc["node_crash"], rc["node_restart"])
	}
	// The packets lost during the outage died at A's egress — the
	// route's only nexthop interface is down — never silently.
	if got := a.Counters()["drop_link_down"]; got != 4 {
		t.Errorf("drop_link_down at A = %d, want 4", got)
	}
}

func TestCrashFlushesRxRingAndPreservesCounters(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	_ = b

	// Flood R so its ring holds packets, then crash it mid-burst.
	sendPing(s, a, bAddr, Millisecond, Microsecond, 200)
	s.RunUntil(1050 * Microsecond)
	preForward := r.Counters()["drop_no_route"] // sanity: counter map survives
	_ = preForward
	s.CrashNode(s.Now(), r)
	s.Run()

	rc := r.Counters()
	if rc["node_crash"] != 1 {
		t.Fatalf("node_crash = %d", rc["node_crash"])
	}
	if rc["crash_rx_lost"] == 0 {
		t.Errorf("expected queued packets to be counted as crash_rx_lost")
	}
	if r.Crashed() != true {
		t.Errorf("node should still be crashed")
	}
	for _, i := range r.Ifaces() {
		if i.Up() {
			t.Errorf("%v should be down while crashed", i)
		}
	}
}

func TestCrashSuppressesInFlightCompletionAndOutput(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)

	delivered := 0
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })

	// One packet arrives at R just before the crash: its processing
	// completion (the forward commit) must not fire on the dead node.
	sendPing(s, a, bAddr, Millisecond, 0, 1)
	// A's link delay is 10µs; the packet reaches R at ~1.01ms and its
	// forward commit runs a CPU-cost later. Crash R right between.
	s.CrashNode(1011*Microsecond, r)
	s.Run()

	if delivered != 0 {
		t.Errorf("delivered = %d, want 0 (commit fired on a crashed node)", delivered)
	}
	// Local output from a crashed node is suppressed and counted.
	r.Schedule(2*Millisecond, func() {
		raw, _ := packet.BuildPacket(r.PrimaryAddress(), bAddr, packet.WithUDP(1, 7777))
		r.Output(raw)
	})
	s.Run()
	if r.Counters()["crash_tx_lost"] != 1 {
		t.Errorf("crash_tx_lost = %d, want 1", r.Counters()["crash_tx_lost"])
	}
}

// TestCrashConservesPackets: across a crash — swept over a burst in
// 250 ns steps, so it lands with packets on both wires, in R's ring and
// in service on R's CPU, restart included — every packet A originated is
// delivered or counted lost exactly once: a drop_* or crash_* counter,
// a ring-full drop, or a transmit/in-flight drop on a link.
func TestCrashConservesPackets(t *testing.T) {
	const originated = 200
	sawCPULost, sawRxLost, sawWireLost := false, false, false
	for crashAt := 1000 * Microsecond; crashAt < 1400*Microsecond; crashAt += 250 {
		s := New(1)
		a, r, b := lineTopo(s)
		delivered := uint64(0)
		b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })

		// 1 Mpps against R's ~600 kpps: the ring fills while R serves.
		sendPing(s, a, bAddr, Millisecond, Microsecond, originated)
		s.CrashNode(crashAt, r)
		s.RestartNode(crashAt+50*Microsecond, r)
		s.Run()

		lost := uint64(0)
		for _, n := range []*Node{a, r, b} {
			for name, v := range n.Counters() {
				if strings.HasPrefix(name, "drop_") || strings.HasPrefix(name, "crash_") || name == "rx_ring_full" {
					lost += v
				}
			}
			for _, i := range n.Ifaces() {
				lost += i.TxDrops + i.inFlightKills
				sawWireLost = sawWireLost || i.inFlightKills > 0
			}
		}
		if delivered+lost != originated {
			t.Fatalf("crash at %d ns: delivered %d + lost %d != originated %d (R: %v)",
				crashAt, delivered, lost, originated, r.Counters())
		}
		rc := r.Counters()
		sawCPULost = sawCPULost || rc["crash_cpu_lost"] > 0
		sawRxLost = sawRxLost || rc["crash_rx_lost"] > 0
	}
	if !sawCPULost || !sawRxLost || !sawWireLost {
		t.Errorf("sweep never crashed mid-service (%v), with a non-empty ring (%v) or with a packet on the wire (%v)",
			sawCPULost, sawRxLost, sawWireLost)
	}
}

type crashProbe struct {
	resets int
	val    int
}

func TestCrashResetsRegisteredNFState(t *testing.T) {
	s := New(1)
	_, r, _ := lineTopo(s)
	probe := &crashProbe{val: 42}
	r.OnCrash(func() { probe.val = 0; probe.resets++ })

	s.CrashNode(Millisecond, r)
	s.RestartNode(2*Millisecond, r)
	s.Run()

	if probe.val != 0 || probe.resets != 1 {
		t.Errorf("probe = %+v, want val reset exactly once", probe)
	}
}

func TestCrashRestartIdempotent(t *testing.T) {
	s := New(1)
	_, r, _ := lineTopo(s)
	s.CrashNode(Millisecond, r)
	s.CrashNode(Millisecond+1, r) // no-op: already down
	s.RestartNode(2*Millisecond, r)
	s.RestartNode(2*Millisecond+1, r) // no-op: already up
	s.Run()
	rc := r.Counters()
	if rc["node_crash"] != 1 || rc["node_restart"] != 1 {
		t.Errorf("crash/restart counted %d/%d, want 1/1", rc["node_crash"], rc["node_restart"])
	}
	if r.Crashed() {
		t.Errorf("node should be up")
	}
}

func TestCorruptionYieldsCountedDropNotPanic(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	_ = r

	delivered := 0
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })

	// Corrupt every packet on A's egress: every delivery must end in a
	// counted outcome somewhere — malformed drop, unknown proto, a
	// changed-but-parsable field — and never a panic.
	a.Ifaces()[0].Qdisc().SetImpairments(1.0, 0, 0)
	sendPing(s, a, bAddr, Millisecond, Millisecond, 50)
	s.Run()

	if got := a.Counters()["tx_corrupted"]; got != 50 {
		t.Fatalf("tx_corrupted = %d, want 50", got)
	}
	// A single flipped bit may land in the payload and still deliver;
	// the invariant is accounting, not loss.
	total := delivered
	for _, n := range []*Node{r, b} {
		c := n.Counters()
		total += int(c["drop_malformed"] + c["drop_malformed_local"] +
			c["drop_no_route"] + c["drop_hop_limit"] + c["local_unknown_proto"] +
			c["udp_no_listener"] + c["drop_no_nexthop"])
	}
	if total < 50 {
		t.Errorf("only %d of 50 corrupted packets accounted for", total)
	}
}

func TestDuplicationDeliversExtraCopies(t *testing.T) {
	s := New(1)
	a, _, b := lineTopo(s)

	delivered := 0
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })
	a.Ifaces()[0].Qdisc().SetImpairments(0, 1.0, 0)
	sendPing(s, a, bAddr, Millisecond, Millisecond, 20)
	s.Run()

	if delivered != 40 {
		t.Errorf("delivered = %d, want 40 (every packet duplicated)", delivered)
	}
	if got := a.Counters()["tx_duplicated"]; got != 20 {
		t.Errorf("tx_duplicated = %d, want 20", got)
	}
}

func TestReorderKnobAllowsOvertaking(t *testing.T) {
	s := New(42)
	a := s.AddNode("A", HostCostModel())
	b := s.AddNode("B", HostCostModel())
	a.AddAddress(aAddr)
	b.AddAddress(bAddr)
	// Heavy jitter with the reorder knob on: some packets must arrive
	// out of order (the FIFO clamp would otherwise forbid it).
	aIf, bIf := ConnectSymmetric(a, b, netem.Config{
		DelayNs: 100 * Microsecond, JitterNs: 80 * Microsecond, Reorder: 0.5,
	})
	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
	b.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: bIf}}})

	var seq []uint16
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		if udp, err := packet.DecodeUDP(p.Raw[p.L4Off:]); err == nil {
			seq = append(seq, udp.SrcPort)
		}
	})
	for i := 0; i < 100; i++ {
		raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(uint16(i), 7777))
		at := Millisecond + int64(i)*10*Microsecond
		a.Schedule(at, func() { a.Output(raw) })
	}
	s.Run()

	if len(seq) != 100 {
		t.Fatalf("delivered %d of 100", len(seq))
	}
	inverted := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Errorf("no reordering observed despite jitter and reorder knob")
	}
	if got := a.Ifaces()[0].Qdisc().Reordered; got == 0 {
		t.Errorf("qdisc reorder counter = 0")
	}
}
