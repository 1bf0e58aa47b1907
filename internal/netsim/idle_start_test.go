package netsim

import (
	"fmt"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
)

// A packet that finds the CPU idle starts service inside its delivery
// event, so a hop is two events (delivery, commit), not three. These
// tests pin the count and the three places where running the start
// inline — ahead of whatever else the node has queued for that
// nanosecond — is visible.

// TestEventsPerHop: on the 3-node lab below saturation every delivered
// packet costs exactly five events — the generator's, and a delivery
// and a commit at R and at B — at 1 and at 2 shards.
func TestEventsPerHop(t *testing.T) {
	const packets = 200
	for _, shards := range []int{1, 2} {
		s := New(1)
		a, r, b := lineTopo(s)
		delivered := 0
		b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		// 100 kpps against R's ~600 kpps: R is idle at every arrival.
		sendPing(s, a, bAddr, Millisecond, 10*Microsecond, packets)
		s.Run()
		if delivered != packets || r.Counters()["rx_ring_full"] != 0 {
			t.Fatalf("%d shards: delivered %d of %d, ring drops %d", shards, delivered, packets, r.Counters()["rx_ring_full"])
		}
		if ev := s.EngineStats().Events; ev != 5*packets {
			t.Errorf("%d shards: %d events for %d packets (%.2f per packet), want 5 per packet",
				shards, ev, packets, float64(ev)/packets)
		}
	}
}

// TestBusyArrivalStillQueues: an arrival during service takes no extra
// event either — it waits in the ring and the running chain's commit
// picks it up — so a back-to-back burst of n costs n deliveries plus n
// commits at the bottleneck.
func TestBusyArrivalStillQueues(t *testing.T) {
	s := New(1)
	a, _, b := lineTopo(s)
	delivered := 0
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })
	const packets = 50
	sendPing(s, a, bAddr, Millisecond, 0, packets) // one burst: R is busy for all but the first
	s.Run()
	if delivered != packets {
		t.Fatalf("delivered %d of %d", delivered, packets)
	}
	if ev := s.EngineStats().Events; ev != 5*packets {
		t.Errorf("%d events for a burst of %d, want %d", ev, packets, 5*packets)
	}
}

// fanIn builds srcs hosts, each on its own identical link into R, and
// R --- B. Packets the hosts emit at the same instant reach R in the
// same nanosecond.
func fanIn(s *Sim, srcs int, rCost CostModel) (hosts []*Node, r, b *Node) {
	for i := 0; i < srcs; i++ {
		h := s.AddNode(fmt.Sprintf("H%d", i), HostCostModel())
		h.AddAddress(netip.MustParseAddr(fmt.Sprintf("2001:db8:a::%d", i+1)))
		hosts = append(hosts, h)
	}
	r = s.AddNode("R", rCost)
	b = s.AddNode("B", HostCostModel())
	b.AddAddress(bAddr)
	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * Microsecond}
	for _, h := range hosts {
		hIf, _ := ConnectSymmetric(h, r, link)
		h.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: hIf}}})
	}
	rbIf, bIf := ConnectSymmetric(r, b, link)
	r.AddRoute(&Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: rbIf}}})
	b.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: bIf}}})
	return hosts, r, b
}

// TestCoArrivalAtIdleNodeRingOccupancy: the packet that starts service
// leaves the ring in the event that put it there, so same-nanosecond
// co-arrivals at an idle node see the whole ring: an idle node absorbs
// RxRingPackets + 1 simultaneous packets (one in service). When the
// start was its own zero-delay event the first packet still held a
// slot for that instant and the last of ring+1 co-arrivals was dropped
// as rx_ring_full; a busy node always behaved as it does now. Service
// order stays arrival order.
func TestCoArrivalAtIdleNodeRingOccupancy(t *testing.T) {
	for _, tc := range []struct{ ring, arrivals, delivered, ringFull int }{
		{ring: 1, arrivals: 2, delivered: 2, ringFull: 0},
		{ring: 2, arrivals: 2, delivered: 2, ringFull: 0},
		{ring: 2, arrivals: 3, delivered: 3, ringFull: 0},
		{ring: 1, arrivals: 3, delivered: 2, ringFull: 1},
	} {
		for _, shards := range []int{1, 2} {
			s := New(1)
			cost := ServerCostModel()
			cost.RxRingPackets = tc.ring
			hosts, r, b := fanIn(s, tc.arrivals, cost)
			var order []uint16
			b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) {
				if udp, err := packet.DecodeUDP(p.Raw[p.L4Off:]); err == nil {
					order = append(order, udp.SrcPort)
				}
			})
			if err := s.SetShards(shards); err != nil {
				t.Fatal(err)
			}
			for i, h := range hosts {
				raw, err := packet.BuildPacket(h.PrimaryAddress(), bAddr, packet.WithUDP(uint16(i), 7777), packet.WithPayload([]byte("ping")))
				if err != nil {
					t.Fatal(err)
				}
				h.Schedule(Millisecond, func() { h.Output(raw) })
			}
			s.Run()
			if got := int(r.Counters()["rx_ring_full"]); len(order) != tc.delivered || got != tc.ringFull {
				t.Errorf("ring %d, %d co-arrivals, %d shards: delivered %d (want %d), rx_ring_full %d (want %d)",
					tc.ring, tc.arrivals, shards, len(order), tc.delivered, got, tc.ringFull)
			}
			for i, port := range order {
				if int(port) != i {
					t.Errorf("ring %d, %d co-arrivals, %d shards: service order %v, want arrival order", tc.ring, tc.arrivals, shards, order)
					break
				}
			}
		}
	}
}

// arrivalAtR sends one packet A → R → B on the line topology and runs
// up to the nanosecond before it reaches R. It returns the arrival
// instant (found by stepping a throwaway copy of the same scenario): a
// driver event scheduled now for that instant sorts after the delivery
// (later schedAt) and before anything R schedules while handling it.
func arrivalAtR(t *testing.T, s *Sim, a, r *Node) int64 {
	t.Helper()
	probe := New(s.Seed())
	pa, pr, _ := lineTopo(probe)
	sendPing(probe, pa, bAddr, Millisecond, 0, 1)
	for !pr.busy {
		if !probe.Step() {
			t.Fatal("probe packet never reached R")
		}
	}
	arrive := probe.Now()

	sendPing(s, a, bAddr, Millisecond, 0, 1)
	s.RunUntil(arrive - 1)
	if r.busy || r.rxCount != 0 {
		t.Fatalf("packet reached R before %d", arrive)
	}
	return arrive
}

// TestLinkFailureAtArrivalInstant: a FailLink of R's egress link that
// executes in the arrival nanosecond, after the delivery, finds the
// packet already routed onto that link — it is lost at transmission
// (TxDrops) when its processing completes. With the start as a
// separate event the failure ran first and the packet was routed
// against the failed link (drop_link_down, or a backup path).
func TestLinkFailureAtArrivalInstant(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := New(1)
		a, r, b := lineTopo(s)
		delivered := 0
		b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		rbIf := r.ifaces[1]
		s.FailLink(arrivalAtR(t, s, a, r), rbIf)
		s.Run()
		if delivered != 0 || rbIf.TxDrops != 1 || rbIf.DownDrops() != 1 || r.Counters()["drop_link_down"] != 0 {
			t.Errorf("%d shards: delivered %d, TxDrops %d, DownDrops %d, drop_link_down %d; want 0, 1, 1, 0",
				shards, delivered, rbIf.TxDrops, rbIf.DownDrops(), r.Counters()["drop_link_down"])
		}
	}
}

// TestCrashAtArrivalInstant: a crash that executes in the arrival
// nanosecond, after the delivery, finds the packet in service, not in
// the ring.
func TestCrashAtArrivalInstant(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := New(1)
		a, r, b := lineTopo(s)
		delivered := 0
		b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		s.CrashNode(arrivalAtR(t, s, a, r), r)
		s.Run()
		rc := r.Counters()
		if delivered != 0 || rc["crash_cpu_lost"] != 1 || rc["crash_rx_lost"] != 0 {
			t.Errorf("%d shards: delivered %d, crash_cpu_lost %d, crash_rx_lost %d; want 0, 1, 0",
				shards, delivered, rc["crash_cpu_lost"], rc["crash_rx_lost"])
		}
	}
}
