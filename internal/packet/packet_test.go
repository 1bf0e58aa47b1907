package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var (
	addrA = netip.MustParseAddr("2001:db8::1")
	addrB = netip.MustParseAddr("2001:db8::2")
	sidR  = netip.MustParseAddr("fc00:a::bbbb")
)

func TestIPv6RoundTrip(t *testing.T) {
	h := IPv6{
		TrafficClass: 0xa5,
		FlowLabel:    0xbeef7,
		PayloadLen:   1234,
		NextHeader:   ProtoUDP,
		HopLimit:     63,
		Src:          addrA,
		Dst:          addrB,
	}
	enc := h.Encode(nil)
	if len(enc) != IPv6HeaderLen {
		t.Fatalf("encoded %d bytes", len(enc))
	}
	back, err := DecodeIPv6(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip: got %+v, want %+v", back, h)
	}
}

func TestIPv6FieldPatching(t *testing.T) {
	h := IPv6{Src: addrA, Dst: addrB, HopLimit: 64, PayloadLen: 10}
	b := h.Encode(nil)
	if err := SetIPv6Dst(b, sidR); err != nil {
		t.Fatal(err)
	}
	if err := SetIPv6HopLimit(b, 9); err != nil {
		t.Fatal(err)
	}
	if err := SetIPv6PayloadLen(b, 99); err != nil {
		t.Fatal(err)
	}
	back, _ := DecodeIPv6(b)
	if back.Dst != sidR || back.HopLimit != 9 || back.PayloadLen != 99 {
		t.Fatalf("patched: %+v", back)
	}
	if d, _ := IPv6Dst(b); d != sidR {
		t.Error("IPv6Dst mismatch")
	}
	if s, _ := IPv6Src(b); s != addrA {
		t.Error("IPv6Src mismatch")
	}
}

func TestDecodeIPv6Errors(t *testing.T) {
	if _, err := DecodeIPv6(make([]byte, 39)); err == nil {
		t.Error("short buffer accepted")
	}
	b := IPv6{Src: addrA, Dst: addrB}.Encode(nil)
	b[0] = 4 << 4
	if _, err := DecodeIPv6(b); err == nil {
		t.Error("IPv4 version accepted")
	}
}

func TestSRHRoundTrip(t *testing.T) {
	srh := NewSRH(
		[]netip.Addr{sidR, addrB},
		DMTLV{TxTimestampNS: 0x1122334455667788},
		ControllerTLV{Addr: addrA, Port: 9999},
	)
	srh.Tag = 42
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)%8 != 0 {
		t.Fatalf("SRH length %d not 8-aligned", len(enc))
	}
	back, n, err := DecodeSRH(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("decoded length %d != %d", n, len(enc))
	}
	if back.SegmentsLeft != 1 || back.LastEntry != 1 || back.Tag != 42 {
		t.Errorf("fields: %+v", back)
	}
	// Wire order is reversed: Segments[0] is the final segment.
	if back.Segments[0] != addrB || back.Segments[1] != sidR {
		t.Errorf("segments: %v", back.Segments)
	}
	active, err := back.ActiveSegment()
	if err != nil || active != sidR {
		t.Errorf("active = %v, %v; want %v", active, err, sidR)
	}
	var gotDM, gotCtrl bool
	for _, tlv := range back.TLVs {
		switch v := tlv.(type) {
		case DMTLV:
			gotDM = v.TxTimestampNS == 0x1122334455667788
		case ControllerTLV:
			gotCtrl = v.Addr == addrA && v.Port == 9999
		}
	}
	if !gotDM || !gotCtrl {
		t.Errorf("TLVs not preserved: %+v", back.TLVs)
	}
}

func TestSRHValidation(t *testing.T) {
	srh := NewSRH([]netip.Addr{sidR, addrB})
	enc, _ := srh.Encode(nil)

	t.Run("valid", func(t *testing.T) {
		if err := ValidateSRHBytes(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("bad routing type", func(t *testing.T) {
		bad := Clone(enc)
		bad[SRHOffRoutingType] = 3
		if err := ValidateSRHBytes(bad); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("segments_left beyond last_entry", func(t *testing.T) {
		bad := Clone(enc)
		bad[SRHOffSegmentsLeft] = 5
		if err := ValidateSRHBytes(bad); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := ValidateSRHBytes(enc[:len(enc)-8]); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("garbage TLV area", func(t *testing.T) {
		srh := NewSRH([]netip.Addr{sidR}, PadN{N: 4})
		enc, _ := srh.Encode(nil)
		// First TLV starts right after the single segment; make its
		// length claim more bytes than the SRH holds.
		tlvOff := SRHFixedLen + 16
		enc[tlvOff] = 0x99
		enc[tlvOff+1] = 200
		if err := ValidateSRHBytes(enc); err == nil {
			t.Error("accepted")
		}
	})
}

func TestFindTLV(t *testing.T) {
	srh := NewSRH([]netip.Addr{sidR, addrB},
		DMTLV{TxTimestampNS: 7},
		ControllerTLV{Addr: addrA, Port: 53},
	)
	enc, _ := srh.Encode(nil)
	off, ok := FindTLV(enc, TLVTypeDM)
	if !ok {
		t.Fatal("DM TLV not found")
	}
	if enc[off] != TLVTypeDM {
		t.Errorf("offset %d does not point at DM TLV", off)
	}
	if ts := binary.BigEndian.Uint64(enc[off+2:]); ts != 7 {
		t.Errorf("timestamp at offset = %d", ts)
	}
	if _, ok := FindTLV(enc, 0x55); ok {
		t.Error("found nonexistent TLV")
	}
	offC, ok := FindTLV(enc, TLVTypeController)
	if !ok || offC <= off {
		t.Errorf("controller TLV at %d, ok=%v", offC, ok)
	}
}

func TestUDPBuildAndChecksum(t *testing.T) {
	payload := []byte("measurement")
	raw, err := BuildPacket(addrA, addrB, WithUDP(4000, 5000), WithPayload(payload))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.L4Proto != ProtoUDP {
		t.Fatalf("proto = %d", p.L4Proto)
	}
	udp, err := DecodeUDP(raw[p.L4Off:])
	if err != nil {
		t.Fatal(err)
	}
	if udp.SrcPort != 4000 || udp.DstPort != 5000 {
		t.Errorf("ports: %+v", udp)
	}
	if int(udp.Length) != UDPHeaderLen+len(payload) {
		t.Errorf("length = %d", udp.Length)
	}
	// Verify checksum: recomputing over the segment with the checksum
	// field zeroed must reproduce it.
	seg := Clone(raw[p.L4Off:])
	binary.BigEndian.PutUint16(seg[6:], 0)
	want := Checksum(addrA, addrB, ProtoUDP, seg)
	if udp.Checksum != want {
		t.Errorf("checksum = %#x, want %#x", udp.Checksum, want)
	}
	if !bytes.Equal(raw[p.L4Off+UDPHeaderLen:], payload) {
		t.Error("payload corrupted")
	}
}

func TestBuildWithSRH(t *testing.T) {
	srh := NewSRH([]netip.Addr{sidR, addrB})
	raw, err := BuildPacket(addrA, sidR, WithSRH(srh), WithUDP(1, 2), WithPayload([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.SRH == nil {
		t.Fatal("no SRH")
	}
	if p.SRH.NextHeader != ProtoUDP {
		t.Errorf("SRH next header = %d", p.SRH.NextHeader)
	}
	if p.IPv6.NextHeader != ProtoRouting {
		t.Errorf("IPv6 next header = %d", p.IPv6.NextHeader)
	}
	if p.L4Proto != ProtoUDP {
		t.Errorf("L4 proto = %d", p.L4Proto)
	}
	if int(p.IPv6.PayloadLen) != len(raw)-IPv6HeaderLen {
		t.Errorf("payload len = %d, total = %d", p.IPv6.PayloadLen, len(raw))
	}
	if !strings.Contains(p.Summary(), "SRH") {
		t.Errorf("summary: %s", p.Summary())
	}
}

func TestBuildEncapsulated(t *testing.T) {
	inner, err := BuildPacket(addrA, addrB, WithUDP(10, 20), WithPayload([]byte("inner")))
	if err != nil {
		t.Fatal(err)
	}
	srh := NewSRH([]netip.Addr{sidR, addrB})
	outer, err := BuildPacket(addrA, sidR, WithSRH(srh), WithInnerPacket(inner))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(outer)
	if err != nil {
		t.Fatal(err)
	}
	if p.SRH == nil || p.L4Proto != ProtoIPv6 || p.InnerOff == 0 {
		t.Fatalf("parse: %+v", p)
	}
	ip, err := Parse(outer[p.InnerOff:])
	if err != nil {
		t.Fatal(err)
	}
	if ip.IPv6.Dst != addrB || ip.L4Proto != ProtoUDP {
		t.Errorf("inner: %+v", ip.IPv6)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	hdr := TCP{SrcPort: 80, DstPort: 1024, Seq: 1e9, Ack: 77, Flags: TCPFlagACK | TCPFlagPSH, Window: 65535}
	raw, err := BuildPacket(addrA, addrB, WithTCP(hdr), WithPayload([]byte("data")))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Parse(raw)
	back, err := DecodeTCP(raw[p.L4Off:])
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 1e9 || back.Ack != 77 || back.Flags != TCPFlagACK|TCPFlagPSH || back.Window != 65535 {
		t.Errorf("round trip: %+v", back)
	}
	seg := Clone(raw[p.L4Off:])
	binary.BigEndian.PutUint16(seg[16:], 0)
	if want := Checksum(addrA, addrB, ProtoTCP, seg); back.Checksum != want {
		t.Errorf("checksum = %#x want %#x", back.Checksum, want)
	}
}

func TestICMPv6RoundTrip(t *testing.T) {
	m := ICMPv6{Type: ICMPv6TimeExceeded, Code: 0, Body: []byte{0, 0, 0, 0, 1, 2, 3}}
	raw, err := BuildPacket(addrA, addrB, WithICMPv6(m))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Parse(raw)
	if p.L4Proto != ProtoICMPv6 {
		t.Fatalf("proto = %d", p.L4Proto)
	}
	back, err := DecodeICMPv6(raw[p.L4Off:])
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != ICMPv6TimeExceeded || !bytes.Equal(back.Body, m.Body) {
		t.Errorf("round trip: %+v", back)
	}
}

func TestChecksumProperties(t *testing.T) {
	// RFC 1071: checksumming a datagram that embeds its own correct
	// checksum yields zero (after the final inversion).
	for _, payload := range [][]byte{
		[]byte(""), []byte("x"), []byte("even"), []byte("the quick brown fox"),
	} {
		u := UDP{SrcPort: 9, DstPort: 10, Length: uint16(UDPHeaderLen + len(payload))}
		raw := u.Encode(nil)
		raw = append(raw, payload...)
		ck := Checksum(addrA, addrB, ProtoUDP, raw)
		binary.BigEndian.PutUint16(raw[6:], ck)
		if got := Checksum(addrA, addrB, ProtoUDP, raw); got != 0 {
			t.Errorf("payload %q: verification checksum = %#x, want 0", payload, got)
		}
	}
}

// TestSRHQuickRoundTrip round-trips random SRHs.
func TestSRHQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nSegs := 1 + r.Intn(6)
		var path []netip.Addr
		for i := 0; i < nSegs; i++ {
			var a [16]byte
			r.Read(a[:])
			a[0] = 0xfc
			path = append(path, netip.AddrFrom16(a))
		}
		var tlvs []TLV
		if r.Intn(2) == 0 {
			tlvs = append(tlvs, DMTLV{TxTimestampNS: r.Uint64()})
		}
		if r.Intn(2) == 0 {
			var a [16]byte
			r.Read(a[:])
			tlvs = append(tlvs, ControllerTLV{Addr: netip.AddrFrom16(a), Port: uint16(r.Uint32())})
		}
		srh := NewSRH(path, tlvs...)
		srh.Tag = uint16(r.Uint32())
		enc, err := srh.Encode(nil)
		if err != nil {
			return false
		}
		back, n, err := DecodeSRH(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if back.Tag != srh.Tag || back.SegmentsLeft != srh.SegmentsLeft {
			return false
		}
		if len(back.Segments) != len(srh.Segments) {
			return false
		}
		for i := range back.Segments {
			if back.Segments[i] != srh.Segments[i] {
				return false
			}
		}
		// Re-encoding the decoded SRH must be byte-identical.
		enc2, err := back.Encode(nil)
		if err != nil {
			return false
		}
		return bytes.Equal(enc, enc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{1, 2, 3}); err == nil {
		t.Error("short packet parsed")
	}
	// IPv6 claiming an SRH but providing none.
	h := IPv6{Src: addrA, Dst: addrB, NextHeader: ProtoRouting, PayloadLen: 0}
	if _, err := Parse(h.Encode(nil)); err == nil {
		t.Error("missing SRH parsed")
	}
}

func TestNexthopsTLV(t *testing.T) {
	n := NexthopsTLV{Count: 2}
	n.Nexthops[0] = addrA
	n.Nexthops[1] = addrB
	srh := NewSRH([]netip.Addr{sidR}, n)
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := DecodeSRH(enc)
	if err != nil {
		t.Fatal(err)
	}
	var got *NexthopsTLV
	for _, tlv := range back.TLVs {
		if v, ok := tlv.(NexthopsTLV); ok {
			got = &v
		}
	}
	if got == nil || got.Count != 2 || got.Nexthops[0] != addrA || got.Nexthops[1] != addrB {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestOpaqueTLVPreserved(t *testing.T) {
	srh := NewSRH([]netip.Addr{sidR}, OpaqueTLV{Type: 0x42, Data: []byte{9, 9}})
	enc, _ := srh.Encode(nil)
	back, _, err := DecodeSRH(enc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tlv := range back.TLVs {
		if o, ok := tlv.(OpaqueTLV); ok && o.Type == 0x42 && bytes.Equal(o.Data, []byte{9, 9}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("opaque TLV lost: %+v", back.TLVs)
	}
}

// TestParseIntoAgreesWithParse: ParseInto checks the TLV area where Parse
// decodes it, so it boxes nothing — and the two still accept and refuse
// the same bytes (a node counts drop_malformed_local off ParseInto) and
// agree on everything but SRH.TLVs, which only Parse fills.
func TestParseIntoAgreesWithParse(t *testing.T) {
	scratch := &Packet{SRH: &SRH{}}
	for _, seed := range fuzzSeedPackets(t) {
		r := rand.New(rand.NewSource(int64(len(seed))))
		for i := 0; i < 500; i++ {
			b := Clone(seed)
			if i > 0 { // the seed itself first, then damaged copies
				for j := 0; j < 1+r.Intn(4); j++ {
					b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
				}
				if r.Intn(4) == 0 {
					b = b[:r.Intn(len(b)+1)]
				}
			}
			want, wantErr := Parse(b)
			if scratch.SRH == nil {
				scratch.SRH = &SRH{}
			}
			gotErr := ParseInto(scratch, b)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%x: Parse err=%v, ParseInto err=%v", b, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if scratch.SRH != nil {
				if len(scratch.SRH.TLVs) != 0 {
					t.Fatalf("%x: ParseInto decoded %d TLVs", b, len(scratch.SRH.TLVs))
				}
				srh, _, err := DecodeSRH(b[scratch.SRHOff:])
				if err != nil || !reflect.DeepEqual(srh.TLVs, want.SRH.TLVs) {
					t.Fatalf("%x: TLVs decoded on demand %v (err %v), Parse's %v", b, srh.TLVs, err, want.SRH.TLVs)
				}
				want.SRH.TLVs = scratch.SRH.TLVs
			}
			if !reflect.DeepEqual(scratch, want) {
				t.Fatalf("%x: ParseInto and Parse disagree\n got  %+v\n want %+v", b, scratch, want)
			}
		}
	}

	withTLVs, err := BuildPacket(netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("fc00::1"),
		WithSRH(NewSRH([]netip.Addr{netip.MustParseAddr("fc00::1")}, OpaqueTLV{Type: 0x42, Data: []byte{1, 2, 3, 4, 5, 6}})),
		WithUDP(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = ParseInto(scratch, withTLVs) }); got != 0 {
		t.Errorf("ParseInto of a packet with an opaque TLV allocates %.0f objects, want 0", got)
	}
}
