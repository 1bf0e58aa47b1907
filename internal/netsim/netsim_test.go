package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/stats"
)

var (
	aAddr = netip.MustParseAddr("2001:db8:a::1")
	bAddr = netip.MustParseAddr("2001:db8:b::1")
	rSID  = netip.MustParseAddr("fc00:1::e")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lineTopo builds A --- R --- B with fast links and returns the trio.
func lineTopo(s *Sim) (a, r, b *Node) {
	a = s.AddNode("A", HostCostModel())
	r = s.AddNode("R", ServerCostModel())
	b = s.AddNode("B", HostCostModel())
	a.AddAddress(aAddr)
	b.AddAddress(bAddr)
	r.AddAddress(netip.MustParseAddr("2001:db8:aa::1"))

	aIf, raIf := ConnectSymmetric(a, r, netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * Microsecond})
	rbIf, bIf := ConnectSymmetric(r, b, netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * Microsecond})

	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
	b.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: bIf}}})
	r.AddRoute(&Route{Prefix: pfx("2001:db8:a::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: raIf}}})
	r.AddRoute(&Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: rbIf}}})
	return a, r, b
}

func TestEndToEndUDPDelivery(t *testing.T) {
	s := New(1)
	a, _, b := lineTopo(s)

	var got []byte
	b.HandleUDP(7777, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		got = p.Raw[p.L4Off+packet.UDPHeaderLen:]
	})
	raw, err := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1000, 7777), packet.WithPayload([]byte("ping")))
	if err != nil {
		t.Fatal(err)
	}
	a.Output(raw)
	s.Run()
	if string(got) != "ping" {
		t.Fatalf("payload = %q", got)
	}
	if b.Counters()["udp_delivered"] != 1 {
		t.Errorf("delivered counter = %d", b.Counters()["udp_delivered"])
	}
}

func TestHopLimitDecrementedPerHop(t *testing.T) {
	s := New(1)
	a, _, b := lineTopo(s)
	var gotHL uint8
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { gotHL = p.IPv6.HopLimit })
	raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), packet.WithHopLimit(64))
	a.Output(raw)
	s.Run()
	// A originates (no decrement), R forwards (decrement once).
	if gotHL != 63 {
		t.Errorf("hop limit at B = %d, want 63", gotHL)
	}
}

func TestHopLimitExceededGeneratesICMP(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	var icmpType uint8
	var icmpFrom netip.Addr
	a.HandleICMP(func(n *Node, p *packet.Packet, meta *PacketMeta) {
		m, err := packet.DecodeICMPv6(p.Raw[p.L4Off:])
		if err == nil {
			icmpType = m.Type
			icmpFrom = p.IPv6.Src
		}
	})
	_ = b
	raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), packet.WithHopLimit(1))
	a.Output(raw)
	s.Run()
	if icmpType != packet.ICMPv6TimeExceeded {
		t.Fatalf("no time-exceeded received (type=%d)", icmpType)
	}
	if icmpFrom != r.PrimaryAddress() {
		t.Errorf("ICMP source = %v, want router %v", icmpFrom, r.PrimaryAddress())
	}
	if r.Counters()["drop_hop_limit"] != 1 {
		t.Errorf("drop counter = %d", r.Counters()["drop_hop_limit"])
	}
}

// TestICMPErrorWireFormat reads generated Time Exceeded messages with a
// reader written from RFC 4443 §3.3 rather than with this package's
// decoder: type (1 byte), code (1), checksum (2), unused (4), then "as
// much of invoking packet as possible without the ICMPv6 packet
// exceeding the minimum IPv6 MTU" — so the quote starts at message
// offset 8 and the whole error is at most 1280 bytes, also for an
// invoking packet larger than that.
func TestICMPErrorWireFormat(t *testing.T) {
	for _, payloadLen := range []int{16, 1232 - 48, 1232 - 47, 1400} {
		s := New(1)
		a, r, _ := lineTopo(s)
		var got []byte
		a.HandleICMP(func(n *Node, p *packet.Packet, meta *PacketMeta) { got = packet.Clone(p.Raw) })
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(i + 1)
		}
		probe, err := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), packet.WithPayload(payload), packet.WithHopLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		a.Output(packet.Clone(probe))
		s.Run()
		if got == nil {
			t.Fatalf("payload %d: no ICMP error came back", payloadLen)
		}
		if len(got) > 1280 {
			t.Errorf("payload %d: error is %d bytes, over the 1280-byte minimum MTU", payloadLen, len(got))
		}
		if got[6] != packet.ProtoICMPv6 || int(got[4])<<8|int(got[5]) != len(got)-40 {
			t.Fatalf("payload %d: next header %d, payload length %d for %d bytes", payloadLen, got[6], int(got[4])<<8|int(got[5]), len(got))
		}
		msg := got[40:]
		if msg[0] != 3 || msg[1] != 0 {
			t.Errorf("payload %d: type %d code %d, want 3/0 (hop limit exceeded in transit)", payloadLen, msg[0], msg[1])
		}
		if unused := msg[4:8]; !bytes.Equal(unused, []byte{0, 0, 0, 0}) {
			t.Errorf("payload %d: unused word %x, want zero", payloadLen, unused)
		}
		quote := msg[8:]
		wantLen := len(probe)
		if wantLen > 1280-40-8 {
			wantLen = 1280 - 40 - 8
		}
		if len(quote) != wantLen || !bytes.Equal(quote, probe[:wantLen]) {
			t.Errorf("payload %d: quote at message offset 8 is %d bytes, want the first %d of the invoking packet\n got  %x\n want %x",
				payloadLen, len(quote), wantLen, quote[:48], probe[:48])
		}
		src, _ := packet.IPv6Src(got)
		dst, _ := packet.IPv6Dst(got)
		ck := binary.BigEndian.Uint16(msg[2:])
		msg[2], msg[3] = 0, 0
		if want := packet.Checksum(src, dst, packet.ProtoICMPv6, msg); ck != want || src != r.PrimaryAddress() {
			t.Errorf("payload %d: checksum %#04x want %#04x, source %v", payloadLen, ck, want, src)
		}
	}
}

func TestNoRouteGeneratesUnreachable(t *testing.T) {
	s := New(1)
	a, r, _ := lineTopo(s)
	var gotType uint8
	a.HandleICMP(func(n *Node, p *packet.Packet, meta *PacketMeta) {
		if m, err := packet.DecodeICMPv6(p.Raw[p.L4Off:]); err == nil {
			gotType = m.Type
		}
	})
	raw, _ := packet.BuildPacket(aAddr, netip.MustParseAddr("2001:db8:dead::1"), packet.WithUDP(1, 7))
	a.Output(raw)
	s.Run()
	if gotType != packet.ICMPv6DstUnreachable {
		t.Errorf("icmp type = %d", gotType)
	}
	if r.Counters()["drop_no_route"] != 1 {
		t.Errorf("counters = %v", r.Counters())
	}
}

func TestECMPSpreadsFlowsButPinsEachFlow(t *testing.T) {
	s := New(1)
	a := s.AddNode("A", HostCostModel())
	r := s.AddNode("R", ServerCostModel())
	b1 := s.AddNode("B1", HostCostModel())
	b2 := s.AddNode("B2", HostCostModel())
	a.AddAddress(aAddr)
	fast := netem.Config{RateBps: 10_000_000_000}
	aIf, _ := ConnectSymmetric(a, r, fast)
	r1, _ := ConnectSymmetric(r, b1, fast)
	r2, _ := ConnectSymmetric(r, b2, fast)
	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
	r.AddRoute(&Route{
		Prefix: pfx("2001:db8:b::/48"),
		Kind:   RouteForward,
		Nexthops: []Nexthop{
			{Iface: r1}, {Iface: r2},
		},
	})

	// Many flows (distinct flow labels): both paths used.
	perPath := map[string]int{}
	r1.Tap = func([]byte) { perPath["p1"]++ }
	r2.Tap = func([]byte) { perPath["p2"]++ }
	for fl := uint32(0); fl < 64; fl++ {
		raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 2), packet.WithFlowLabel(fl))
		a.Output(raw)
	}
	s.Run()
	if perPath["p1"] == 0 || perPath["p2"] == 0 {
		t.Fatalf("ECMP did not spread: %v", perPath)
	}
	if perPath["p1"]+perPath["p2"] != 64 {
		t.Fatalf("lost packets: %v", perPath)
	}

	// One flow always takes one path.
	perPath = map[string]int{}
	for i := 0; i < 32; i++ {
		raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 2), packet.WithFlowLabel(0x42))
		a.Output(raw)
	}
	s.Run()
	if perPath["p1"] != 0 && perPath["p2"] != 0 {
		t.Fatalf("single flow split across paths: %v", perPath)
	}
}

func TestSeg6LocalEndOnRouter(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	r.AddRoute(&Route{
		Prefix:    netip.PrefixFrom(rSID, 128),
		Kind:      RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd},
	})

	var gotDst netip.Addr
	var gotSL uint8
	b.HandleUDP(9, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		gotDst = p.IPv6.Dst
		gotSL = p.SRH.SegmentsLeft
	})

	srh := packet.NewSRH([]netip.Addr{rSID, bAddr})
	raw, err := packet.BuildPacket(aAddr, rSID, packet.WithSRH(srh), packet.WithUDP(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	a.Output(raw)
	s.Run()
	if gotDst != bAddr || gotSL != 0 {
		t.Fatalf("after End: dst=%v sl=%d (counters R=%v B=%v)", gotDst, gotSL, r.Counters(), b.Counters())
	}
}

func TestSeg6EncapTransitRoute(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	// R encapsulates everything towards B inside an SRH. Like the
	// kernel's `ip -6 route add ... encap seg6 ... dev`, the transit
	// route carries its own egress so the encapsulated packet does not
	// re-match the same prefix.
	rbIf := r.Ifaces()[1]
	r.AddRoute(&Route{
		Prefix:   pfx("2001:db8:b::/48"),
		Kind:     RouteSeg6Encap,
		SRH:      packet.NewSRH([]netip.Addr{bAddr}),
		Nexthops: []Nexthop{{Iface: rbIf}},
	})
	// B decapsulates with End.DT6 (it owns bAddr as SID too).
	b.AddRoute(&Route{
		Prefix:    netip.PrefixFrom(bAddr, 128),
		Kind:      RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: MainTable},
	})
	inner2 := netip.MustParseAddr("2001:db8:b::2")
	b.AddAddress(inner2)

	var got string
	b.HandleUDP(5, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		got = string(p.Raw[p.L4Off+packet.UDPHeaderLen:])
	})
	raw, _ := packet.BuildPacket(aAddr, inner2, packet.WithUDP(1, 5), packet.WithPayload([]byte("thru-tunnel")))
	a.Output(raw)
	s.Run()
	if got != "thru-tunnel" {
		t.Fatalf("payload = %q; R=%v B=%v", got, r.Counters(), b.Counters())
	}
}

// TestReceiveLivelock reproduces the paper's load pattern: offer far
// more packets than the router can process; throughput caps at the
// CPU rate and the ring drops the rest.
func TestReceiveLivelock(t *testing.T) {
	s := New(1)
	a, r, b := lineTopo(s)
	delivered := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { delivered++ })

	// 152-byte packets, offered at 3 Mpps for 50 ms = 150k packets.
	payload := make([]byte, 64)
	srh := packet.NewSRH([]netip.Addr{bAddr})
	const offered = 150_000
	const gapNs = 333 // 3 Mpps
	for i := 0; i < offered; i++ {
		i := i
		s.Schedule(int64(i)*gapNs, func() {
			raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithSRH(srh), packet.WithUDP(1, 7), packet.WithPayload(payload))
			a.Output(raw)
		})
	}
	s.Run()
	window := int64(offered) * gapNs
	rate := stats.Rate(uint64(delivered), window)

	// The server model forwards ~600 kpps for this packet size; the
	// generator offers 3 Mpps. Expect roughly 590-630 kpps delivered.
	if rate < 550_000 || rate > 650_000 {
		t.Fatalf("delivered %.0f pps, want ≈610k (delivered=%d, drops=%d)",
			rate, delivered, r.Counters()["rx_ring_full"])
	}
	if r.Counters()["rx_ring_full"] == 0 {
		t.Error("no ring drops despite 5x overload")
	}
}

func TestRouteReplacement(t *testing.T) {
	var tbl Table
	r1 := &Route{Prefix: pfx("2001:db8::/32"), Kind: RouteForward}
	r2 := &Route{Prefix: pfx("2001:db8::/32"), Kind: RouteLocal}
	tbl.Add(r1)
	tbl.Add(r2)
	if len(tbl.Routes()) != 1 || tbl.Routes()[0].Kind != RouteLocal {
		t.Fatalf("replacement failed: %+v", tbl.Routes())
	}
}

func TestLongestPrefixWins(t *testing.T) {
	var tbl Table
	tbl.Add(&Route{Prefix: pfx("::/0"), Kind: RouteForward})
	tbl.Add(&Route{Prefix: pfx("2001:db8::/32"), Kind: RouteLocal})
	tbl.Add(&Route{Prefix: pfx("2001:db8:1::/48"), Kind: RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
	if r := tbl.Lookup(netip.MustParseAddr("2001:db8:1::5")); r.Kind != RouteSeg6Local {
		t.Errorf("got %v", r.Kind)
	}
	if r := tbl.Lookup(netip.MustParseAddr("2001:db8:2::5")); r.Kind != RouteLocal {
		t.Errorf("got %v", r.Kind)
	}
	if r := tbl.Lookup(netip.MustParseAddr("2002::1")); r.Kind != RouteForward {
		t.Errorf("got %v", r.Kind)
	}
}

// TestRouteReplacementMaskedPrefix: a prefix written with host bits
// set names the same route as its masked form, so Routes() never lists
// an entry no lookup can reach.
func TestRouteReplacementMaskedPrefix(t *testing.T) {
	var tbl Table
	tbl.Add(&Route{Prefix: pfx("2001:db8::1/48"), Kind: RouteForward})
	r2 := &Route{Prefix: pfx("2001:db8::/48"), Kind: RouteLocal}
	tbl.Add(r2)
	if got := tbl.Routes(); len(got) != 1 || got[0] != r2 {
		t.Fatalf("Routes() = %d entries, want only the replacement", len(got))
	}
	if r := tbl.Lookup(netip.MustParseAddr("2001:db8::5")); r != r2 {
		t.Fatalf("Lookup = %v, want the replacement", r)
	}
}

// TestTableMatchesLinearOracle checks Add/Lookup/Routes against a
// stable-sorted list scanned with netip.Prefix.Contains, over random
// IPv4, IPv6 and IPv4-mapped prefixes of every length with host bits
// set and frequent re-adds.
func TestTableMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randAddr := func() netip.Addr { return drawAddr(rng, true) }
	var tbl Table
	var oracle []*Route
	for i := 0; i < 400; i++ {
		a := randAddr()
		r := &Route{Prefix: netip.PrefixFrom(a, rng.Intn(a.BitLen()+1))}
		tbl.Add(r)
		replaced := false
		for j, old := range oracle {
			if old.Prefix.Masked() == r.Prefix.Masked() {
				oracle[j], replaced = r, true
			}
		}
		if !replaced {
			oracle = append(oracle, r)
			sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].Prefix.Bits() > oracle[j].Prefix.Bits() })
		}
	}
	if got := tbl.Routes(); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("Routes() order diverges from the stable-sort oracle (%d vs %d entries)", len(got), len(oracle))
	}
	for i := 0; i < 2000; i++ {
		a := randAddr()
		var want *Route
		for _, r := range oracle {
			if r.Prefix.Contains(a) {
				want = r
				break
			}
		}
		if got := tbl.Lookup(a); got != want {
			t.Fatalf("Lookup(%v) = %v, oracle %v", a, got, want)
		}
	}
	if r := tbl.Lookup(netip.Addr{}); r != nil {
		t.Fatalf("Lookup of the zero Addr matched %v", r.Prefix)
	}
}

func TestLinkDelayAndBandwidth(t *testing.T) {
	s := New(1)
	a := s.AddNode("A", HostCostModel())
	b := s.AddNode("B", HostCostModel())
	a.AddAddress(aAddr)
	b.AddAddress(bAddr)
	// 8 Mbps, 5 ms delay: a 1000-byte packet takes 1 ms + 5 ms.
	aIf, _ := ConnectSymmetric(a, b, netem.Config{RateBps: 8_000_000, DelayNs: 5 * Millisecond})
	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})

	var deliveredAt int64
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { deliveredAt = meta.RxTimestamp })
	raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), packet.WithPayload(make([]byte, 1000-packet.IPv6HeaderLen-packet.UDPHeaderLen)))
	if len(raw) != 1000 {
		t.Fatalf("packet size = %d", len(raw))
	}
	a.Output(raw)
	s.Run()
	want := 6 * Millisecond
	if math.Abs(float64(deliveredAt-want)) > float64(Microsecond) {
		t.Errorf("delivered at %d, want ≈%d", deliveredAt, want)
	}
}

func TestSimScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(100, func() { order = append(order, 2) })
	s.Schedule(50, func() { order = append(order, 1) })
	s.Schedule(100, func() { order = append(order, 3) }) // same time: FIFO by seq
	s.Run()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 100 {
		t.Errorf("now = %d", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(10, func() { fired++ })
	s.Schedule(20, func() { fired++ })
	s.RunUntil(15)
	if fired != 1 || s.Now() != 15 {
		t.Errorf("fired=%d now=%d", fired, s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired=%d", fired)
	}
}

func TestPerPacketRoundRobinRoute(t *testing.T) {
	s := New(1)
	a := s.AddNode("A", HostCostModel())
	r := s.AddNode("R", ServerCostModel())
	b1 := s.AddNode("B1", HostCostModel())
	b2 := s.AddNode("B2", HostCostModel())
	a.AddAddress(aAddr)
	fast := netem.Config{RateBps: 10_000_000_000}
	aIf, _ := ConnectSymmetric(a, r, fast)
	r1, _ := ConnectSymmetric(r, b1, fast)
	r2, _ := ConnectSymmetric(r, b2, fast)
	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
	r.AddRoute(&Route{
		Prefix:      pfx("2001:db8:b::/48"),
		Kind:        RouteForward,
		Nexthops:    []Nexthop{{Iface: r1}, {Iface: r2}},
		PerPacketRR: true,
	})

	var n1, n2 int
	r1.Tap = func([]byte) { n1++ }
	r2.Tap = func([]byte) { n2++ }
	// A single flow (constant label): RR must still alternate.
	for i := 0; i < 40; i++ {
		raw, _ := packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 2), packet.WithFlowLabel(7))
		a.Output(raw)
	}
	s.Run()
	if n1 != 20 || n2 != 20 {
		t.Fatalf("round robin split = %d/%d, want 20/20", n1, n2)
	}
}

func TestICMPErrorsNotGeneratedForICMPErrors(t *testing.T) {
	s := New(1)
	a, r, _ := lineTopo(s)
	// An ICMP error packet whose own hop limit expires at R must die
	// silently (no error about an error).
	body := make([]byte, 8)
	raw, _ := packet.BuildPacket(aAddr, bAddr,
		packet.WithICMPv6(packet.ICMPv6{Type: packet.ICMPv6TimeExceeded, Body: body}),
		packet.WithHopLimit(1))
	got := 0
	a.HandleICMP(func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	a.Output(raw)
	s.Run()
	if got != 0 {
		t.Fatalf("received %d ICMP errors about an ICMP error", got)
	}
	if r.Counters()["drop_hop_limit"] != 1 {
		t.Errorf("counters: %v", r.Counters())
	}
}

// TestICMPErrorsNotSentToNonUnicast: RFC 4443 §2.4(e). A packet whose
// source is unspecified or multicast, or whose destination is multicast,
// is dropped for its own reason (hop limit, no route) without an error
// being originated; the same packets from a unicast source are answered.
func TestICMPErrorsNotSentToNonUnicast(t *testing.T) {
	unspec := netip.MustParseAddr("::")
	mcast := netip.MustParseAddr("ff02::1")
	for _, tc := range []struct {
		name     string
		src, dst netip.Addr
		hopLimit uint8
		drop     string
		answered bool
	}{
		{"unspecified source, hop limit", unspec, bAddr, 1, "drop_hop_limit", false},
		{"multicast source, hop limit", mcast, bAddr, 1, "drop_hop_limit", false},
		{"multicast source, no route", mcast, netip.MustParseAddr("2001:db8:dead::1"), 64, "drop_no_route", false},
		{"multicast destination, no route", aAddr, mcast, 64, "drop_no_route", false},
		{"unicast, hop limit", aAddr, bAddr, 1, "drop_hop_limit", true},
		{"unicast, no route", aAddr, netip.MustParseAddr("2001:db8:dead::1"), 64, "drop_no_route", true},
	} {
		s := New(1)
		a, r, _ := lineTopo(s)
		got := 0
		a.HandleICMP(func(*Node, *packet.Packet, *PacketMeta) { got++ })
		raw, err := packet.BuildPacket(tc.src, tc.dst, packet.WithUDP(1, 7), packet.WithHopLimit(tc.hopLimit))
		if err != nil {
			t.Fatal(err)
		}
		a.Output(raw)
		s.Run()
		c := r.Counters()
		sent := c["icmp_sent_type1"] + c["icmp_sent_type3"]
		if c[tc.drop] != 1 {
			t.Errorf("%s: want one %s, counters %v", tc.name, tc.drop, c)
		}
		if tc.answered {
			if sent != 1 || got != 1 || c["icmp_suppressed"] != 0 {
				t.Errorf("%s: %d errors sent, %d received, counters %v; want one answered", tc.name, sent, got, c)
			}
		} else if sent != 0 || got != 0 || c["icmp_suppressed"] != 1 {
			t.Errorf("%s: %d errors sent, %d received, counters %v; want one icmp_suppressed and none sent", tc.name, sent, got, c)
		}
	}
}

// TestRNGSnapshotRestore: the node stream's whole state is the one
// splitmix64 word — writing a saved word back replays the exact draw
// sequence.
func TestRNGSnapshotRestore(t *testing.T) {
	s := New(42)
	n := s.AddNode("rng", HostCostModel())
	n.rng.Float64()
	n.rng.NormFloat64()
	state := n.rngSrc.state
	want := []float64{n.rng.Float64(), n.rng.NormFloat64(), float64(n.rng.Uint32())}
	n.rngSrc.state = state
	got := []float64{n.rng.Float64(), n.rng.NormFloat64(), float64(n.rng.Uint32())}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("draws after restore differ: %v vs %v", want, got)
	}
}
