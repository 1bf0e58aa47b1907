package seg6

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"srv6bpf/internal/packet"
)

var (
	hostA = netip.MustParseAddr("2001:db8::a")
	hostB = netip.MustParseAddr("2001:db8::b")
	sid1  = netip.MustParseAddr("fc00:1::1")
	sid2  = netip.MustParseAddr("fc00:2::1")
	nh1   = netip.MustParseAddr("fe80::1")
)

// mkSRPacket builds a UDP packet with an SRH path [sid1, sid2, hostB]
// addressed to the first segment.
func mkSRPacket(t *testing.T) []byte {
	t.Helper()
	srh := packet.NewSRH([]netip.Addr{sid1, sid2, hostB})
	raw, err := packet.BuildPacket(hostA, sid1, packet.WithSRH(srh),
		packet.WithUDP(7, 8), packet.WithPayload(bytes.Repeat([]byte{0xaa}, 64)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestAdvance(t *testing.T) {
	raw := mkSRPacket(t)
	if err := Advance(raw); err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv6.Dst != sid2 {
		t.Errorf("dst = %v, want %v", p.IPv6.Dst, sid2)
	}
	if p.SRH.SegmentsLeft != 1 {
		t.Errorf("segments_left = %d, want 1", p.SRH.SegmentsLeft)
	}
	// Advance twice more: second lands on hostB, third errors.
	if err := Advance(raw); err != nil {
		t.Fatal(err)
	}
	p, _ = packet.Parse(raw)
	if p.IPv6.Dst != hostB || p.SRH.SegmentsLeft != 0 {
		t.Errorf("after second advance: dst=%v sl=%d", p.IPv6.Dst, p.SRH.SegmentsLeft)
	}
	if err := Advance(raw); !errors.Is(err, ErrZeroSegsLeft) {
		t.Errorf("third advance: %v", err)
	}
}

func TestAdvanceWithoutSRH(t *testing.T) {
	raw, _ := packet.BuildPacket(hostA, hostB, packet.WithUDP(1, 2))
	if err := Advance(raw); !errors.Is(err, ErrNoSRH) {
		t.Errorf("err = %v", err)
	}
}

func TestEndBehaviour(t *testing.T) {
	raw := mkSRPacket(t)
	res, err := Apply(&Behaviour{Action: ActionEnd}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictForward {
		t.Errorf("verdict = %v", res.Verdict)
	}
	p, _ := packet.Parse(res.Pkt)
	if p.IPv6.Dst != sid2 {
		t.Errorf("dst = %v", p.IPv6.Dst)
	}
}

func TestEndDropsExhaustedSRH(t *testing.T) {
	srh := packet.NewSRH([]netip.Addr{hostB})
	srh.SegmentsLeft = 0
	raw, err := packet.BuildPacket(hostA, hostB, packet.WithSRH(srh), packet.WithUDP(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apply(&Behaviour{Action: ActionEnd}, raw)
	if res.Verdict != VerdictDrop {
		t.Errorf("verdict = %v, err = %v", res.Verdict, err)
	}
}

func TestEndX(t *testing.T) {
	raw := mkSRPacket(t)
	res, err := Apply(&Behaviour{Action: ActionEndX, Nexthop: nh1}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictForwardNexthop || res.Nexthop != nh1 {
		t.Errorf("res = %+v", res)
	}
	// Missing nexthop is a config error.
	raw2 := mkSRPacket(t)
	if _, err := Apply(&Behaviour{Action: ActionEndX}, raw2); !errors.Is(err, ErrBadBehaviour) {
		t.Errorf("err = %v", err)
	}
}

func TestEndT(t *testing.T) {
	raw := mkSRPacket(t)
	res, err := Apply(&Behaviour{Action: ActionEndT, Table: 7}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictForwardTable || res.Table != 7 {
		t.Errorf("res = %+v", res)
	}
}

func TestEncapAndDT6(t *testing.T) {
	inner, err := packet.BuildPacket(hostA, hostB, packet.WithUDP(10, 20), packet.WithPayload([]byte("data")))
	if err != nil {
		t.Fatal(err)
	}
	srh := packet.NewSRH([]netip.Addr{sid1, sid2})
	outer, err := Encap(inner, hostA, srh)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(outer)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv6.Dst != sid1 || p.SRH == nil || p.L4Proto != packet.ProtoIPv6 {
		t.Fatalf("outer: %s", p.Summary())
	}

	// Walk to the last segment, then End.DT6 decapsulates.
	if err := Advance(outer); err != nil {
		t.Fatal(err)
	}
	res, err := Apply(&Behaviour{Action: ActionEndDT6, Table: 0}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictForwardTable {
		t.Errorf("verdict = %v", res.Verdict)
	}
	if !bytes.Equal(res.Pkt, inner) {
		t.Error("decapsulated packet differs from original inner packet")
	}
}

func TestDX6RequiresEncap(t *testing.T) {
	raw := mkSRPacket(t) // UDP inside, not IPv6-in-IPv6
	res, err := Apply(&Behaviour{Action: ActionEndDX6, Nexthop: nh1}, raw)
	if res.Verdict != VerdictDrop || !errors.Is(err, ErrNotEncapsulated) {
		t.Errorf("res = %+v, err = %v", res, err)
	}
}

func TestInsertSRH(t *testing.T) {
	plain, err := packet.BuildPacket(hostA, hostB, packet.WithUDP(10, 20), packet.WithPayload([]byte("pay")))
	if err != nil {
		t.Fatal(err)
	}
	origLen := len(plain)
	srh := packet.NewSRH([]netip.Addr{sid1, hostB})
	out, err := InsertSRH(plain, srh)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.SRH == nil {
		t.Fatal("no SRH after insert")
	}
	if p.IPv6.Dst != sid1 {
		t.Errorf("dst = %v", p.IPv6.Dst)
	}
	if p.SRH.NextHeader != packet.ProtoUDP {
		t.Errorf("SRH next header = %d", p.SRH.NextHeader)
	}
	if len(out) != origLen+p.SRH.WireLen() {
		t.Errorf("length %d, want %d + %d", len(out), origLen, p.SRH.WireLen())
	}
	// UDP payload intact.
	udp, err := packet.DecodeUDP(out[p.L4Off:])
	if err != nil || udp.DstPort != 20 {
		t.Errorf("udp after insert: %+v, %v", udp, err)
	}
}

func TestEndB6(t *testing.T) {
	raw := mkSRPacket(t)
	newSRH := packet.NewSRH([]netip.Addr{sid2, sid1})
	res, err := Apply(&Behaviour{Action: ActionEndB6, SRH: newSRH}, raw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(res.Pkt)
	if err != nil {
		t.Fatal(err)
	}
	// The new SRH is outermost; the original is behind it.
	if p.SRH == nil || p.SRH.Segments[1] != sid2 {
		t.Fatalf("outer SRH: %s", p.Summary())
	}
	if p.IPv6.Dst != sid2 {
		t.Errorf("dst = %v", p.IPv6.Dst)
	}
	// Parse walks both routing headers; the L4 proto must survive.
	if p.L4Proto != packet.ProtoUDP {
		t.Errorf("l4 = %d", p.L4Proto)
	}
}

func TestEndB6Encaps(t *testing.T) {
	raw := mkSRPacket(t)
	newSRH := packet.NewSRH([]netip.Addr{sid2})
	res, err := Apply(&Behaviour{Action: ActionEndB6Encap, SRH: newSRH, Src: sid1}, raw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(res.Pkt)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv6.Dst != sid2 || p.L4Proto != packet.ProtoIPv6 {
		t.Fatalf("outer: %s", p.Summary())
	}
	// Inner packet was advanced before encap: its dst is sid2 (next
	// segment of the original SRH).
	ip, err := packet.Parse(res.Pkt[p.InnerOff:])
	if err != nil {
		t.Fatal(err)
	}
	if ip.SRH.SegmentsLeft != 1 {
		t.Errorf("inner segments_left = %d", ip.SRH.SegmentsLeft)
	}
}

func TestEndBPFNotHandledHere(t *testing.T) {
	raw := mkSRPacket(t)
	if _, err := Apply(&Behaviour{Action: ActionEndBPF}, raw); !errors.Is(err, ErrBadBehaviour) {
		t.Errorf("err = %v", err)
	}
}

func TestActionStrings(t *testing.T) {
	if ActionEnd.String() != "End" || ActionEndBPF.String() != "End.BPF" {
		t.Error("action strings")
	}
	if VerdictDrop.String() != "drop" {
		t.Error("verdict strings")
	}
}
