package trafgen

import (
	"math"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

var (
	genAddr  = netip.MustParseAddr("2001:db8:1::1")
	sinkAddr = netip.MustParseAddr("2001:db8:2::1")
)

func pipe() (*netsim.Sim, *netsim.Node, *netsim.Node) {
	s := netsim.New(5)
	a := s.AddNode("gen", netsim.HostCostModel())
	b := s.AddNode("sink", netsim.HostCostModel())
	a.AddAddress(genAddr)
	b.AddAddress(sinkAddr)
	aIf, bIf := netsim.ConnectSymmetric(a, b, netem.Config{RateBps: 10_000_000_000})
	a.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: aIf}}})
	b.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: bIf}}})
	return s, a, b
}

func TestGeneratorRateAndSink(t *testing.T) {
	s, a, b := pipe()
	sink := NewSink(b, 9000)
	gen := &UDPGen{
		Node: a, Src: genAddr, Dst: sinkAddr,
		SrcPort: 1, DstPort: 9000,
		PayloadLen: 64,
		RatePPS:    100_000,
	}
	if err := gen.Start(100 * netsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// 100 kpps over 100 ms = 10k packets.
	if math.Abs(float64(gen.Sent())-10_000) > 10 {
		t.Errorf("sent %d, want ≈10000", gen.Sent())
	}
	if sink.Packets != gen.Sent() {
		t.Errorf("sink got %d of %d", sink.Packets, gen.Sent())
	}
	if r := sink.RatePPS(); math.Abs(r-100_000)/100_000 > 0.01 {
		t.Errorf("sink rate = %.0f pps", r)
	}
	// Goodput counts payload only: 64 bytes per packet.
	wantBps := 64 * 8 * 100_000.0
	if g := sink.GoodputBps(); math.Abs(g-wantBps)/wantBps > 0.01 {
		t.Errorf("goodput = %.0f bps, want ≈%.0f", g, wantBps)
	}
}

func TestGeneratorWithSRH(t *testing.T) {
	s, a, b := pipe()
	var sawSRH bool
	b.HandleUDP(9001, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		sawSRH = p.SRH != nil && p.SRH.SegmentsLeft == 0
	})
	gen := &UDPGen{
		Node: a, Src: genAddr, Dst: sinkAddr,
		SrcPort: 1, DstPort: 9001, PayloadLen: 64,
		SRH:     packet.NewSRH([]netip.Addr{sinkAddr}),
		RatePPS: 1000,
	}
	if err := gen.Start(5 * netsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !sawSRH {
		t.Error("SRH missing at sink")
	}
	// 64B payload + UDP 8 + SRH 24 + IPv6 40 = 136.
	if gen.WireSize() != 136 {
		t.Errorf("wire size = %d", gen.WireSize())
	}
}

func TestFlowLabelVariation(t *testing.T) {
	s, a, b := pipe()
	labels := map[uint32]bool{}
	b.HandleUDP(9002, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		labels[p.IPv6.FlowLabel] = true
	})
	gen := &UDPGen{
		Node: a, Src: genAddr, Dst: sinkAddr,
		SrcPort: 1, DstPort: 9002, PayloadLen: 16,
		RatePPS:   10_000,
		FlowLabel: func(i uint64) uint32 { return uint32(i % 7) },
	}
	if err := gen.Start(10 * netsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(labels) != 7 {
		t.Errorf("distinct labels = %d, want 7", len(labels))
	}
}

func TestSinkReset(t *testing.T) {
	s, a, b := pipe()
	sink := NewSink(b, 9003)
	gen := &UDPGen{Node: a, Src: genAddr, Dst: sinkAddr, SrcPort: 1, DstPort: 9003, PayloadLen: 8, RatePPS: 1000}
	if err := gen.Start(10 * netsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if sink.Packets == 0 {
		t.Fatal("no packets")
	}
	sink.Reset()
	if sink.Packets != 0 || sink.Window() != 0 {
		t.Error("reset incomplete")
	}
}

// TestStartRejectsBadRate: a rate of zero — the field's zero value —,
// a negative, infinite or NaN one used to come out of the gap arithmetic
// as one packet per nanosecond (2,000 packets in 2 µs; a one-second
// window never returned). Start now refuses, and sends nothing.
func TestStartRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		s, a, b := pipe()
		sink := NewSink(b, 9004)
		udp := &UDPGen{Node: a, Src: genAddr, Dst: sinkAddr, SrcPort: 1, DstPort: 9004, PayloadLen: 8, RatePPS: rate}
		if err := udp.Start(2 * netsim.Microsecond); err == nil {
			t.Errorf("UDPGen.Start accepted RatePPS %v", rate)
		}
		tmpl, err := packet.BuildPacket(genAddr, sinkAddr, packet.WithUDP(1, 9004))
		if err != nil {
			t.Fatal(err)
		}
		raw := &RawGen{Node: a, Template: tmpl, RatePPS: rate}
		if err := raw.Start(2 * netsim.Microsecond); err == nil {
			t.Errorf("RawGen.Start accepted RatePPS %v", rate)
		}
		s.Run()
		if udp.Sent()+raw.Sent()+sink.Packets != 0 {
			t.Errorf("RatePPS %v: %d + %d packets sent, %d delivered", rate, udp.Sent(), raw.Sent(), sink.Packets)
		}
	}
}

// TestSecondStartDoesNotDoubleTheRate: Start on a generator that is
// running fails and leaves the one tick chain there is alone.
func TestSecondStartDoesNotDoubleTheRate(t *testing.T) {
	s, a, b := pipe()
	NewSink(b, 9005)
	udp := &UDPGen{Node: a, Src: genAddr, Dst: sinkAddr, SrcPort: 1, DstPort: 9005, PayloadLen: 8, RatePPS: 100_000}
	tmpl, err := packet.BuildPacket(genAddr, sinkAddr, packet.WithUDP(1, 9005))
	if err != nil {
		t.Fatal(err)
	}
	raw := &RawGen{Node: a, Template: tmpl, RatePPS: 100_000}
	for _, start := range []func(int64) error{udp.Start, raw.Start} {
		if err := start(10 * netsim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := start(10 * netsim.Millisecond); err == nil {
			t.Error("a second Start on a running generator succeeded")
		}
	}
	s.Run()
	// 100 kpps over 10 ms is 1,000 packets; two chains would send 2,000.
	for _, sent := range []uint64{udp.Sent(), raw.Sent()} {
		if sent < 990 || sent > 1010 {
			t.Errorf("sent %d packets, want ≈1000", sent)
		}
	}
	// Once the window is over the generator may be started again.
	if err := udp.Start(s.Now() + netsim.Millisecond); err != nil {
		t.Errorf("Start after the generator finished: %v", err)
	}
}

// TestStopThenStartLeavesOneChain: Stop leaves the tick it had scheduled
// pending. A Start before that tick fires must not let it carry on beside
// the new chain.
func TestStopThenStartLeavesOneChain(t *testing.T) {
	s, a, b := pipe()
	NewSink(b, 9007)
	udp := &UDPGen{Node: a, Src: genAddr, Dst: sinkAddr, SrcPort: 1, DstPort: 9007, PayloadLen: 8, RatePPS: 100_000}
	tmpl, err := packet.BuildPacket(genAddr, sinkAddr, packet.WithUDP(1, 9007))
	if err != nil {
		t.Fatal(err)
	}
	raw := &RawGen{Node: a, Template: tmpl, RatePPS: 100_000}
	for _, g := range []interface {
		Start(int64) error
		Stop()
	}{udp, raw} {
		if err := g.Start(10 * netsim.Millisecond); err != nil {
			t.Fatal(err)
		}
		g.Stop()
		if err := g.Start(10 * netsim.Millisecond); err != nil {
			t.Fatalf("Start after Stop: %v", err)
		}
	}
	s.Run()
	// Each Start sends one packet at once, then 100 kpps over 10 ms.
	for _, sent := range []uint64{udp.Sent(), raw.Sent()} {
		if sent < 990 || sent > 1010 {
			t.Errorf("sent %d packets, want ≈1000 (two chains would send ≈2000)", sent)
		}
	}
}

// TestGeneratorReusesBuffers: with a releasing Sink at the far end the
// generators stop allocating once the pipe is full.
func TestGeneratorReusesBuffers(t *testing.T) {
	s, a, b := pipe()
	sink := NewSink(b, 9006)
	gen := &UDPGen{Node: a, Src: genAddr, Dst: sinkAddr, SrcPort: 1, DstPort: 9006, PayloadLen: 64, RatePPS: 1_000_000}
	if err := gen.Start(10 * netsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := s.EngineStats()
	if sink.Packets != gen.Sent() || st.BufGets != gen.Sent() {
		t.Fatalf("sent %d, delivered %d, %d buffers asked for", gen.Sent(), sink.Packets, st.BufGets)
	}
	if fresh := st.BufGets - st.BufReuses; fresh > 4 {
		t.Errorf("%d of %d packets were sent in a new allocation", fresh, st.BufGets)
	}
}
