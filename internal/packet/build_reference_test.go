package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

var (
	seg1 = netip.MustParseAddr("fc00::1")
	seg2 = netip.MustParseAddr("fc00::2")
	seg3 = netip.MustParseAddr("fc00::3")
)

// buildPacketReference is the multi-buffer BuildPacket this package
// shipped before packets were written once into a single buffer, kept
// as the test oracle: every layer is encoded into its own slice from
// the innermost outward and the slices are then concatenated (five
// buffers and four copies for a TCP segment). It reads the same option
// values; only the assembly differs.
func buildPacketReference(src, dst netip.Addr, opts ...BuildOption) ([]byte, error) {
	spec := buildSpec{ip: IPv6{Src: src, Dst: dst, HopLimit: 64}}
	for i := range opts {
		opts[i].apply(&spec)
	}

	var upper []byte
	var upperProto uint8
	switch {
	case spec.hasUDP:
		u := spec.udp
		u.Length = uint16(UDPHeaderLen + len(spec.payload))
		raw := u.Encode(nil)
		raw = append(raw, spec.payload...)
		binary.BigEndian.PutUint16(raw[6:], 0)
		ck := checksumReference(spec.ip.Src, spec.ip.Dst, ProtoUDP, raw)
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(raw[6:], ck)
		upper, upperProto = raw, ProtoUDP
	case spec.hasTCP:
		raw := spec.tcp.Encode(nil)
		raw = append(raw, spec.payload...)
		binary.BigEndian.PutUint16(raw[16:], 0)
		ck := checksumReference(spec.ip.Src, spec.ip.Dst, ProtoTCP, raw)
		binary.BigEndian.PutUint16(raw[16:], ck)
		upper, upperProto = raw, ProtoTCP
	case spec.hasICMP:
		raw := spec.icmp.Encode(nil)
		binary.BigEndian.PutUint16(raw[2:], 0)
		ck := checksumReference(spec.ip.Src, spec.ip.Dst, ProtoICMPv6, raw)
		binary.BigEndian.PutUint16(raw[2:], ck)
		upper, upperProto = raw, ProtoICMPv6
	case spec.innerPkt != nil:
		upper, upperProto = spec.innerPkt, ProtoIPv6
		if IPVersion(spec.innerPkt) == 4 {
			upperProto = ProtoIPv4
		}
	case spec.innerL2 != nil:
		upper, upperProto = spec.innerL2, ProtoEthernet
	default:
		upper, upperProto = spec.payload, ProtoNoNext
	}

	var mid []byte
	if spec.srh != nil {
		srh := *spec.srh
		srh.NextHeader = upperProto
		enc, err := srh.Encode(nil)
		if err != nil {
			return nil, err
		}
		mid = append(enc, upper...)
		spec.ip.NextHeader = ProtoRouting
	} else {
		mid = upper
		spec.ip.NextHeader = upperProto
	}

	if len(mid) > 0xffff {
		return nil, fmt.Errorf("packet: payload %d exceeds IPv6 payload length", len(mid))
	}
	spec.ip.PayloadLen = uint16(len(mid))
	out := spec.ip.Encode(nil)
	return append(out, mid...), nil
}

// checksumReference is the two-bytes-per-iteration Checksum that the
// eight-byte version replaced, kept as its oracle.
func checksumReference(src, dst netip.Addr, proto uint8, upper []byte) uint16 {
	var sum uint32
	a, b := src.As16(), dst.As16()
	for i := 0; i < 16; i += 2 {
		sum += uint32(a[i])<<8 | uint32(a[i+1])
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	l := uint32(len(upper))
	sum += l >> 16
	sum += l & 0xffff
	sum += uint32(proto)
	for i := 0; i+1 < len(upper); i += 2 {
		sum += uint32(upper[i])<<8 | uint32(upper[i+1])
	}
	if len(upper)%2 == 1 {
		sum += uint32(upper[len(upper)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference checks the eight-byte Checksum against
// the two-byte loop on random buffers of every length 0–1500 and
// random address pairs, plus the all-ones inputs that drive the
// accumulator's end-around carry hardest.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randAddr := func() netip.Addr {
		var a [16]byte
		rng.Read(a[:])
		return netip.AddrFrom16(a)
	}
	for n := 0; n <= 1500; n++ {
		buf := make([]byte, n)
		rng.Read(buf)
		src, dst, proto := randAddr(), randAddr(), uint8(rng.Intn(256))
		if got, want := Checksum(src, dst, proto, buf), checksumReference(src, dst, proto, buf); got != want {
			t.Fatalf("len %d: Checksum = %#04x, reference %#04x", n, got, want)
		}
	}
	ones := netip.AddrFrom16([16]byte(bytes.Repeat([]byte{0xff}, 16)))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 1399, 1400, 1500} {
		buf := bytes.Repeat([]byte{0xff}, n)
		if got, want := Checksum(ones, ones, 0xff, buf), checksumReference(ones, ones, 0xff, buf); got != want {
			t.Fatalf("all-ones len %d: Checksum = %#04x, reference %#04x", n, got, want)
		}
		zeros := make([]byte, n)
		zero := netip.IPv6Unspecified()
		if got, want := Checksum(zero, zero, 0, zeros), checksumReference(zero, zero, 0, zeros); got != want {
			t.Fatalf("all-zero len %d: Checksum = %#04x, reference %#04x", n, got, want)
		}
	}
}

// upperCase is one upper-layer shape of the equivalence table; opts
// returns its options for a payload of n bytes.
type upperCase struct {
	name string
	opts func(n int) []BuildOption
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func equivalenceUppers(t testing.TB) []upperCase {
	inner6, err := buildPacketReference(addrB, addrA, WithUDP(9, 9), WithPayload([]byte("inner")))
	if err != nil {
		t.Fatal(err)
	}
	inner4, err := BuildIPv4UDP(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"),
		9, 9, []byte("in4"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return []upperCase{
		{"udp", func(n int) []BuildOption {
			return []BuildOption{WithUDP(1000, 53), WithPayload(patterned(n))}
		}},
		{"tcp", func(n int) []BuildOption {
			return []BuildOption{
				WithTCP(TCP{SrcPort: 5001, DstPort: 80, Seq: 77, Ack: 9, Flags: TCPFlagACK, Window: 65535, Checksum: 0xbeef}),
				WithPayload(patterned(n)), WithFlowLabel(0x12345),
			}
		}},
		{"tcp-sack", func(n int) []BuildOption {
			return []BuildOption{
				WithTCP(TCP{SrcPort: 80, DstPort: 5001, Ack: 1400, Flags: TCPFlagACK, Window: 65535, SACKLeft: 2800, SACKRight: 4200}),
				WithPayload(patterned(n)),
			}
		}},
		{"icmpv6", func(n int) []BuildOption {
			return []BuildOption{
				WithICMPv6(ICMPv6{Type: ICMPv6TimeExceeded, Code: 1, Checksum: 0x1234, Body: patterned(n)}),
				WithHopLimit(255),
			}
		}},
		{"inner-v6", func(n int) []BuildOption {
			return []BuildOption{WithInnerPacket(append(Clone(inner6), patterned(n)...)), WithTrafficClass(0xb8)}
		}},
		{"inner-v4", func(n int) []BuildOption {
			return []BuildOption{WithInnerPacket(append(Clone(inner4), patterned(n)...)), WithHopLimit(17)}
		}},
		{"inner-l2", func(n int) []BuildOption {
			return []BuildOption{WithInnerL2(BuildEthernet([6]byte{2, 0, 0, 0, 0, 2}, [6]byte{2, 0, 0, 0, 0, 1}, 0x86dd, patterned(n)))}
		}},
		{"bare-payload", func(n int) []BuildOption {
			return []BuildOption{WithPayload(patterned(n)), WithFlowLabel(0xfffff)}
		}},
	}
}

// TestBuildPacketMatchesReference is the byte-equality table of the
// single-buffer rewrite: every upper layer × {no SRH, SRH, SRH with
// TLVs that need Pad1 / PadN} × odd and even payload lengths.
func TestBuildPacketMatchesReference(t *testing.T) {
	path := []netip.Addr{seg1, seg2, seg3}
	srhs := []struct {
		name string
		srh  *SRH
	}{
		{"no-srh", nil},
		{"srh", NewSRH(path)},
		// 8 + 48 + 10 (DM) = 66: NewSRH pads with a PadN(4).
		{"srh-tlv-padn", NewSRH(path, DMTLV{TxTimestampNS: 42})},
		// 8 + 32 + 5 + 10 = 55: NewSRH pads with one Pad1.
		{"srh-tlv-pad1", NewSRH(path[:2], OpaqueTLV{Type: 0x42, Data: []byte{1, 2, 3}}, DMTLV{TxTimestampNS: 7})},
	}
	if last := srhs[3].srh.TLVs[len(srhs[3].srh.TLVs)-1]; last != (Pad1{}) {
		t.Fatalf("pad1 case ends in %T, want Pad1", last)
	}
	if _, ok := srhs[2].srh.TLVs[len(srhs[2].srh.TLVs)-1].(PadN); !ok {
		t.Fatal("padn case does not end in a PadN")
	}
	for _, up := range equivalenceUppers(t) {
		for _, s := range srhs {
			for _, n := range []int{0, 1, 2, 63, 64, 1399, 1400} {
				opts := up.opts(n)
				if s.srh != nil {
					opts = append(opts, WithSRH(s.srh))
				}
				got, gotErr := BuildPacket(addrA, seg1, opts...)
				want, wantErr := buildPacketReference(addrA, seg1, opts...)
				if gotErr != nil || wantErr != nil {
					t.Fatalf("%s/%s/%d: errors %v / %v", up.name, s.name, n, gotErr, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%d: BuildPacket differs from the reference\n got  %x\n want %x",
						up.name, s.name, n, got, want)
				}
				if len(got) != cap(got) {
					t.Errorf("%s/%s/%d: buffer cap %d for %d bytes, want exactly sized", up.name, s.name, n, cap(got), len(got))
				}
				if s.srh != nil && s.srh.NextHeader != 0 {
					t.Fatalf("%s/%s: BuildPacket wrote NextHeader into the caller's SRH", up.name, s.name)
				}
			}
		}
	}
}

// TestBuildPacketErrorsMatchReference: a misaligned SRH and an
// oversized payload are refused by both assemblies.
func TestBuildPacketErrorsMatchReference(t *testing.T) {
	misaligned := &SRH{Segments: []netip.Addr{seg1}, TLVs: []TLV{Pad1{}}}
	for name, opts := range map[string][]BuildOption{
		"misaligned-srh": {WithSRH(misaligned), WithUDP(1, 2)},
		"oversized":      {WithUDP(1, 2), WithPayload(make([]byte, 0x10000))},
		"oversized-srh":  {WithSRH(NewSRH([]netip.Addr{seg1})), WithPayload(make([]byte, 0xffff-20))},
	} {
		_, gotErr := BuildPacket(addrA, addrB, opts...)
		_, wantErr := buildPacketReference(addrA, addrB, opts...)
		if gotErr == nil || wantErr == nil {
			t.Errorf("%s: errors %v / %v, want both non-nil", name, gotErr, wantErr)
		}
	}
}

// FuzzBuildPacketMatchesReference drives both assemblies from fuzzed
// addresses, header fields, SRH shape and payload and requires equal
// bytes (or both refusing) — from BuildPacket, behind any reserve from
// BuildPacketIn, whose spare bytes change nothing after them, into a
// fresh buffer and into one full of another packet's bytes.
func FuzzBuildPacketMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint32(0), uint32(0), []byte{}, uint8(0))
	f.Add(uint8(1), uint8(1), uint8(64), uint32(0x12345), uint32(1400), []byte("payload"), uint8(64))
	f.Add(uint8(2), uint8(2), uint8(1), uint32(0xfffff), uint32(0), bytes.Repeat([]byte{0xff}, 1399), uint8(64))
	f.Add(uint8(3), uint8(3), uint8(255), uint32(7), uint32(2800), []byte{1}, uint8(1))
	f.Add(uint8(7), uint8(1), uint8(9), uint32(0), uint32(0), []byte{0xff, 0xff}, uint8(255))
	f.Fuzz(func(t *testing.T, upper, srhShape, hl uint8, fl, seq uint32, payload []byte, reserve uint8) {
		var src, dst [16]byte
		for i := range src {
			src[i], dst[i] = byte(seq>>(i%4*8))^byte(i), byte(fl>>(i%3*8))+hl
		}
		opts := []BuildOption{WithHopLimit(hl), WithFlowLabel(fl), WithTrafficClass(uint8(seq))}
		switch upper % 8 {
		case 0:
			opts = append(opts, WithUDP(uint16(seq), uint16(fl)), WithPayload(payload))
		case 1:
			opts = append(opts, WithTCP(TCP{SrcPort: uint16(fl), DstPort: 80, Seq: seq, Ack: fl, Flags: hl, Window: uint16(seq >> 8)}), WithPayload(payload))
		case 2:
			opts = append(opts, WithTCP(TCP{SrcPort: 80, DstPort: uint16(fl), Ack: seq, Flags: TCPFlagACK, SACKLeft: seq, SACKRight: seq + fl, Checksum: uint16(fl)}), WithPayload(payload))
		case 3:
			opts = append(opts, WithICMPv6(ICMPv6{Type: hl, Code: uint8(fl), Checksum: uint16(seq), Body: payload}))
		case 4:
			opts = append(opts, WithInnerPacket(payload))
		case 5:
			opts = append(opts, WithInnerL2(payload))
		case 6:
			opts = append(opts, WithPayload(payload))
		case 7: // several upper layers at once: precedence must match too
			opts = append(opts, WithInnerPacket(payload), WithPayload(payload), WithUDP(1, 2), WithTCP(TCP{Seq: seq}))
		}
		path := []netip.Addr{seg1, seg2, seg3}
		switch srhShape % 5 {
		case 1:
			opts = append(opts, WithSRH(NewSRH(path[:1+int(hl)%3])))
		case 2:
			opts = append(opts, WithSRH(NewSRH(path, DMTLV{TxTimestampNS: uint64(seq)})))
		case 3:
			n := len(payload) % 40
			opts = append(opts, WithSRH(NewSRH(path[:2], OpaqueTLV{Type: 0x42, Data: payload[:n]})))
		case 4: // hand-built, possibly misaligned: both must agree on the error
			opts = append(opts, WithSRH(&SRH{SegmentsLeft: hl % 2, LastEntry: 1, Tag: uint16(fl),
				Segments: path[:2], TLVs: []TLV{PadN{N: uint8(seq % 9)}}}))
		}
		got, gotErr := BuildPacket(netip.AddrFrom16(src), netip.AddrFrom16(dst), opts...)
		want, wantErr := buildPacketReference(netip.AddrFrom16(src), netip.AddrFrom16(dst), opts...)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("BuildPacket err=%v, reference err=%v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("BuildPacket differs from the reference\n got  %x\n want %x", got, want)
		}
		buf, bufErr := BuildPacketIn(makeBytes, int(reserve), netip.AddrFrom16(src), netip.AddrFrom16(dst), opts...)
		if (bufErr == nil) != (wantErr == nil) {
			t.Fatalf("BuildPacketIn(make, %d) err=%v, reference err=%v", reserve, bufErr, wantErr)
		}
		if bufErr != nil {
			return
		}
		if len(buf) != int(reserve)+len(want) || cap(buf) != len(buf) {
			t.Fatalf("BuildPacketIn(make, %d): len %d cap %d for a %d-byte packet", reserve, len(buf), cap(buf), len(want))
		}
		if !bytes.Equal(buf[reserve:], want) {
			t.Fatalf("BuildPacketIn(make, %d) differs from the reference after the reserve\n got  %x\n want %x", reserve, buf[reserve:], want)
		}
		if Headroom(buf, buf[reserve:]) != int(reserve) {
			t.Fatalf("Headroom of a fresh %d-byte reserve reads %d", reserve, Headroom(buf, buf[reserve:]))
		}
		// Into a used buffer, longer than needed: the same packet, every
		// byte of it written, nothing else touched.
		var dirty []byte
		used := func(size int) []byte {
			dirty = bytes.Repeat([]byte{0xDB}, size+int(hl)%64)
			return dirty[: size : size+int(hl)%64]
		}
		in, inErr := BuildPacketIn(used, int(reserve), netip.AddrFrom16(src), netip.AddrFrom16(dst), opts...)
		if inErr != nil || !bytes.Equal(in[reserve:], want) {
			t.Fatalf("BuildPacketIn(%d) into a used buffer: err %v\n got  %x\n want %x", reserve, inErr, in, want)
		}
		if &in[0] != &dirty[0] || cap(in) != cap(dirty) {
			t.Fatalf("BuildPacketIn returned another buffer than the one it was given, or clipped it (cap %d, given %d)", cap(in), cap(dirty))
		}
		if spare := dirty[:cap(dirty)]; !bytes.Equal(spare[:reserve], bytes.Repeat([]byte{0xDB}, int(reserve))) ||
			!bytes.Equal(spare[len(in):], bytes.Repeat([]byte{0xDB}, len(spare)-len(in))) {
			t.Fatalf("BuildPacketIn wrote outside the packet: %x", spare)
		}
	})
}

// TestBuildPacketInShortBuffer: a get that returns too little is an
// error, not a packet somewhere else.
func TestBuildPacketInShortBuffer(t *testing.T) {
	short := func(size int) []byte { return make([]byte, size-1) }
	if _, err := BuildPacketIn(short, 8, addrA, addrB, WithUDP(1, 2)); err == nil {
		t.Fatal("built a packet into a buffer one byte too short")
	}
}

// hotBuilds are the BuildPacket calls on the simulator's hot paths: the
// data segment and the SACK-carrying ACK tcpsim emits, and the §3.2
// lab's UDP probe behind a 2-segment SRH.
func hotBuilds() []struct {
	name  string
	build func() ([]byte, error)
} {
	payload := make([]byte, 1400)
	hdr := TCP{SrcPort: 5001, DstPort: 80, Seq: 1, Flags: TCPFlagACK, Window: 65535}
	ack := TCP{SrcPort: 80, DstPort: 5001, Ack: 1400, Flags: TCPFlagACK, Window: 65535, SACKLeft: 2800, SACKRight: 4200}
	srh := NewSRH([]netip.Addr{seg1, seg2})
	return []struct {
		name  string
		build func() ([]byte, error)
	}{
		{"tcp-mss", func() ([]byte, error) {
			return BuildPacket(addrA, addrB, WithTCP(hdr), WithPayload(payload), WithFlowLabel(7))
		}},
		{"tcp-ack-sack", func() ([]byte, error) { return BuildPacket(addrB, addrA, WithTCP(ack)) }},
		{"udp64-srh2", func() ([]byte, error) {
			return BuildPacket(addrA, seg1, WithSRH(srh), WithUDP(1, 2), WithPayload(payload[:64]))
		}},
	}
}

var sinkBytes []byte

// TestBuildPacketAllocs pins the point of the rewrite: one allocation
// (the packet) per call, option list included.
func TestBuildPacketAllocs(t *testing.T) {
	for _, c := range hotBuilds() {
		if _, err := c.build(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { sinkBytes, _ = c.build() }); got != 1 {
			t.Errorf("%s: %.0f allocs per BuildPacket, want 1", c.name, got)
		}
	}
}

// BenchmarkBuildPacket measures packet construction alone.
func BenchmarkBuildPacket(b *testing.B) {
	for _, c := range hotBuilds() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBytes, _ = c.build()
			}
		})
	}
}
