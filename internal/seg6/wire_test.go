package seg6

import (
	"bytes"
	"net/netip"
	"testing"

	"srv6bpf/internal/packet"
)

// Tests of the single-buffer encapsulation body and the aliasing
// decap: equivalence with the packet.BuildPacket assembly the
// encapsulators used to delegate to (itself pinned to the multi-buffer
// reference in internal/packet), the wire-level entry against the
// struct entry, and the allocation counts that are the point.

// tcpInner builds the hybrid-access path's inner packet: a full-size
// TCP segment.
func tcpInner(tb testing.TB) []byte {
	tb.Helper()
	raw, err := packet.BuildPacket(hostA, hostB,
		packet.WithTCP(packet.TCP{SrcPort: 5001, DstPort: 80, Seq: 1, Flags: packet.TCPFlagACK, Window: 65535}),
		packet.WithPayload(make([]byte, 1400)), packet.WithFlowLabel(0x12345), packet.WithHopLimit(63))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestEncapMatchesBuildPacket: the encapsulation body writes the bytes
// BuildPacket writes for the same outer header, SRH and inner packet.
func TestEncapMatchesBuildPacket(t *testing.T) {
	v6, v4 := innerV6(t), innerV4(t)
	v6[1], v6[2], v6[3] = v6[1]|0x0a, 0xbc, 0xde // flow label 0xabcde
	v6[7] = 17                                   // hop limit
	srhs := map[string]*packet.SRH{
		"1seg":     packet.NewSRH([]netip.Addr{sid1}),
		"3seg":     packet.NewSRH([]netip.Addr{sid1, sid2, hostB}),
		"tlv-padn": packet.NewSRH([]netip.Addr{sid1, sid2}, packet.DMTLV{TxTimestampNS: 42}),
		"tlv-pad1": packet.NewSRH([]netip.Addr{sid1, sid2}, packet.OpaqueTLV{Type: 0x42, Data: []byte{1, 2, 3}}, packet.DMTLV{TxTimestampNS: 7}),
	}
	for name, srh := range srhs {
		active, _ := srh.ActiveSegment()
		for innerName, inner := range map[string][]byte{"v6": v6, "v4": v4} {
			hl, fl := inner[7], uint32(0xabcde)
			if innerName == "v4" {
				hl, fl = inner[8], 0
			}
			outerOpts := []packet.BuildOption{packet.WithInnerPacket(inner), packet.WithHopLimit(hl), packet.WithFlowLabel(fl)}

			got, err := Encap(inner, hostA, srh)
			want, werr := packet.BuildPacket(hostA, active, append(outerOpts, packet.WithSRH(srh))...)
			if err != nil || werr != nil || !bytes.Equal(got, want) {
				t.Errorf("Encap %s/%s: err %v/%v\n got  %x\n want %x", name, innerName, err, werr, got, want)
			}
			if len(got) != cap(got) {
				t.Errorf("Encap %s/%s: cap %d for %d bytes", name, innerName, cap(got), len(got))
			}

			got, err = EncapRed(inner, hostA, srh)
			redOpts := outerOpts
			if len(srh.Segments) > 1 {
				red := *srh
				red.Segments = srh.Segments[:len(srh.Segments)-1]
				red.LastEntry = uint8(len(red.Segments) - 1)
				redOpts = append(redOpts, packet.WithSRH(&red))
			}
			want, werr = packet.BuildPacket(hostA, active, redOpts...)
			if err != nil || werr != nil || !bytes.Equal(got, want) {
				t.Errorf("EncapRed %s/%s: err %v/%v\n got  %x\n want %x", name, innerName, err, werr, got, want)
			}
		}
		frame := innerL2(t)
		got, err := EncapL2(frame, hostA, srh)
		want, werr := packet.BuildPacket(hostA, active, packet.WithSRH(srh), packet.WithInnerL2(frame))
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("EncapL2 %s: err %v/%v\n got  %x\n want %x", name, err, werr, got, want)
		}
		if srh.NextHeader != 0 {
			t.Errorf("%s: encapsulation wrote NextHeader into the caller's SRH", name)
		}
	}
}

// checkEncapWire asserts the wire-level encapsulation contract on one
// accepted SRH; both the table test and the fuzz target go through it.
func checkEncapWire(t *testing.T, inner, srh []byte) {
	t.Helper()
	before := bytes.Clone(srh)
	out, err := EncapWire(inner, hostA, srh)
	if !bytes.Equal(srh, before) {
		t.Fatal("EncapWire modified the program's SRH bytes")
	}
	sl, last := srh[packet.SRHOffSegmentsLeft], srh[packet.SRHOffLastEntry]
	if (int(srh[packet.SRHOffHdrExtLen])+1)*8 != len(srh) || sl > last {
		if err == nil {
			t.Fatalf("EncapWire accepted an SRH of %d bytes with hdr_ext_len %d, sl %d, last %d",
				len(srh), srh[packet.SRHOffHdrExtLen], sl, last)
		}
		return
	}
	if err != nil {
		t.Fatalf("EncapWire refused a valid SRH: %v", err)
	}
	info, err := packet.ParseInfo(out)
	if err != nil {
		t.Fatalf("output does not re-parse: %v", err)
	}
	// The walk records the SRH closest to the payload; ours is first.
	if out[6] != packet.ProtoRouting || info.L4Off != packet.IPv6HeaderLen+len(srh) {
		t.Fatalf("outer next header %d, L4Off %d, want routing and %d", out[6], info.L4Off, packet.IPv6HeaderLen+len(srh))
	}
	wantProto := uint8(packet.ProtoIPv6)
	if packet.IPVersion(inner) == 4 {
		wantProto = packet.ProtoIPv4
	}
	got := out[packet.IPv6HeaderLen:info.L4Off]
	if got[packet.SRHOffNextHeader] != wantProto || info.L4Proto != wantProto {
		t.Fatalf("SRH next header %d, L4Proto %d, want %d", got[packet.SRHOffNextHeader], info.L4Proto, wantProto)
	}
	if !bytes.Equal(got[1:], srh[1:]) {
		t.Fatalf("SRH not carried verbatim\n got  %x\n want %x", got, srh)
	}
	if !bytes.Equal(out[info.L4Off:], inner) {
		t.Fatal("inner packet not intact")
	}
	if pl := int(out[4])<<8 | int(out[5]); pl != len(out)-packet.IPv6HeaderLen {
		t.Fatalf("payload length %d, want %d", pl, len(out)-packet.IPv6HeaderLen)
	}
	segOff := packet.SRHOffSegments + 16*int(sl)
	if !bytes.Equal(out[24:40], srh[segOff:segOff+16]) {
		t.Fatalf("outer destination %x is not the active segment %x", out[24:40], srh[segOff:segOff+16])
	}
	// Whenever decoding and re-encoding reproduces the program's bytes
	// (it does unless padding carries non-zero filler), the struct path
	// must build the very same packet.
	dec, n, err := packet.DecodeSRH(srh)
	if err != nil || n != len(srh) {
		t.Fatalf("ValidateSRHBytes accepted what DecodeSRH rejects: n=%d err=%v", n, err)
	}
	if enc, err := dec.Encode(nil); err == nil && bytes.Equal(enc[1:], srh[1:]) {
		viaStruct, err := Encap(inner, hostA, &dec)
		if err != nil || !bytes.Equal(viaStruct, out) {
			t.Fatalf("struct path differs: err %v\n struct %x\n wire   %x", err, viaStruct, out)
		}
	}
}

// encapWireSeeds returns SRHs in wire format: plain, with TLVs, with
// SegmentsLeft below LastEntry, and the shapes EncapWire must refuse.
func encapWireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, s := range []*packet.SRH{
		packet.NewSRH([]netip.Addr{sid1}),
		packet.NewSRH([]netip.Addr{sid1, sid2, hostB}),
		packet.NewSRH([]netip.Addr{sid1, sid2}, packet.DMTLV{TxTimestampNS: 42}),
		packet.NewSRH([]netip.Addr{sid1, sid2}, packet.OpaqueTLV{Type: 0x42, Data: []byte{1, 2, 3}}, packet.DMTLV{TxTimestampNS: 7}),
	} {
		enc, err := s.Encode(nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, enc)
	}
	mid := bytes.Clone(out[1])
	mid[packet.SRHOffSegmentsLeft] = 1
	reduced := bytes.Clone(out[1]) // segments_left == last_entry + 1: no listed active segment
	reduced[packet.SRHOffSegmentsLeft] = 3
	filler := bytes.Clone(out[2]) // non-zero PadN filler: valid, but not a decode/encode fixpoint
	filler[len(filler)-1] = 0x5a
	return append(out, mid, reduced, filler, append(bytes.Clone(out[0]), 0, 0, 0, 0, 0, 0, 0, 0))
}

func TestEncapWire(t *testing.T) {
	for _, inner := range [][]byte{innerV6(t), innerV4(t), tcpInner(t)} {
		for _, srh := range encapWireSeeds(t) {
			checkEncapWire(t, inner, srh)
		}
	}
	if _, err := EncapWire([]byte{0x70, 0, 0, 0}, hostA, encapWireSeeds(t)[0]); err == nil {
		t.Error("EncapWire accepted an inner packet that is neither IPv6 nor IPv4")
	}
	if _, err := EncapWire(innerV6(t), hostA, []byte{41, 0, 0, 0}); err == nil {
		t.Error("EncapWire accepted a truncated SRH")
	}
}

// FuzzEncapWire: for any SRH bytes ValidateSRHBytes accepts, the
// wire-level encapsulation either refuses them for one of its two
// extra conditions or produces a packet that re-parses, carries the
// SRH verbatim at offset 40 with only NextHeader changed, keeps the
// inner packet intact, has the right payload length, and equals the
// struct-path Encap whenever DecodeSRH → Encode round-trips the bytes.
func FuzzEncapWire(f *testing.F) {
	for _, srh := range encapWireSeeds(f) {
		f.Add(srh, false)
		f.Add(srh, true)
		f.Add(srh[:len(srh)-1], false)
	}
	v6, err := packet.BuildPacket(hostA, hostB, packet.WithUDP(10, 20), packet.WithPayload([]byte("inner-payload")))
	if err != nil {
		f.Fatal(err)
	}
	v4, err := packet.BuildIPv4UDP(v4a, v4b, 10, 20, []byte("inner-payload"), 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, srh []byte, inner4 bool) {
		if packet.ValidateSRHBytes(srh) != nil {
			if _, err := EncapWire(v6, hostA, srh); err == nil {
				t.Fatal("EncapWire accepted bytes ValidateSRHBytes rejects")
			}
			return
		}
		inner := v6
		if inner4 {
			inner = v4
		}
		checkEncapWire(t, inner, srh)
	})
}

// inPlaceCall is one encapsulation entry point as a function of
// (allocation, packet), beside the allocating call it must agree with.
type inPlaceCall struct {
	name     string
	in       func(buf, raw []byte) ([]byte, error)
	allocate func(raw []byte) ([]byte, error)
}

// inPlaceCalls are the four entry points for one fuzzed SRH. EncapL2
// has no exported allocation-taking form (no caller holds one), so its
// row drives the shared body with EncapL2's own arguments. dec is nil
// when the SRH bytes do not decode.
func inPlaceCalls(wire []byte, dec *packet.SRH, l2 bool) []inPlaceCall {
	if l2 {
		if dec == nil {
			return nil
		}
		return []inPlaceCall{{"EncapL2",
			func(buf, raw []byte) ([]byte, error) {
				active, err := dec.ActiveSegment()
				if err != nil {
					return nil, err
				}
				if _, err := packet.DecodeEthernet(raw); err != nil {
					return nil, err
				}
				return encap(buf, raw, packet.ProtoEthernet, 64, 0, hostA, active, dec, nil)
			},
			func(raw []byte) ([]byte, error) { return EncapL2(raw, hostA, dec) }}}
	}
	calls := []inPlaceCall{{"EncapWire",
		func(buf, raw []byte) ([]byte, error) { return EncapWireIn(buf, raw, hostA, wire) },
		func(raw []byte) ([]byte, error) { return EncapWire(raw, hostA, wire) }}}
	if dec != nil {
		calls = append(calls,
			inPlaceCall{"Encap",
				func(buf, raw []byte) ([]byte, error) { return EncapIn(buf, raw, hostA, dec) },
				func(raw []byte) ([]byte, error) { return Encap(raw, hostA, dec) }},
			inPlaceCall{"EncapRed",
				func(buf, raw []byte) ([]byte, error) { return EncapRedIn(buf, raw, hostA, dec) },
				func(raw []byte) ([]byte, error) { return EncapRed(raw, hostA, dec) }})
	}
	return calls
}

// checkEncapInPlace runs one entry point on inner behind reserve spare
// bytes and holds it to the headroom contract: the bytes of the
// allocating call; the inner bytes where they were, unchanged; built in
// place — the result again a tail of the same allocation, nothing
// before it touched — exactly when the reserve covers the outer
// headers, and otherwise the allocation not written at all; nor is a
// copy of the allocation, which has the room but not the packet.
func checkEncapInPlace(t *testing.T, name string, in func(buf, raw []byte) ([]byte, error), want []byte, wantErr error, inner []byte, reserve int) {
	t.Helper()
	const canary = 0xa5
	buf := append(bytes.Repeat([]byte{canary}, reserve), inner...)
	raw := buf[reserve:]
	// A look-alike allocation the packet does not live in is left alone.
	decoy := bytes.Clone(buf)
	if got, _ := in(decoy, raw); !bytes.Equal(decoy, buf) || !bytes.Equal(got, want) {
		t.Fatalf("%s reserve %d: wrote an allocation that is not the packet's", name, reserve)
	}
	got, err := in(buf, raw)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s reserve %d: err %v, allocating call %v", name, reserve, err, wantErr)
	}
	if !bytes.Equal(raw, inner) {
		t.Fatalf("%s reserve %d: inner bytes changed", name, reserve)
	}
	if err != nil {
		if !bytes.Equal(buf[:reserve], bytes.Repeat([]byte{canary}, reserve)) {
			t.Fatalf("%s reserve %d: a refused encapsulation wrote the headroom", name, reserve)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s reserve %d: differs from the allocating call\n got  %x\n want %x", name, reserve, got, want)
	}
	need := len(want) - len(inner)
	inPlace := len(got) <= len(buf) && &got[len(got)-1] == &buf[len(buf)-1]
	if inPlace != (reserve >= need) {
		t.Fatalf("%s reserve %d, need %d: built in place: %v", name, reserve, need, inPlace)
	}
	untouched := reserve
	if inPlace {
		untouched = reserve - need
		if left := packet.Headroom(buf, got); left != untouched {
			t.Fatalf("%s reserve %d, need %d: %d bytes of headroom left", name, reserve, need, left)
		}
	}
	if !bytes.Equal(buf[:untouched], bytes.Repeat([]byte{canary}, untouched)) {
		t.Fatalf("%s reserve %d, need %d: wrote outside the outer headers: %x", name, reserve, need, buf[:reserve])
	}
}

// FuzzEncapInPlace: Encap / EncapRed / EncapL2 / EncapWire over fuzzed
// SRH bytes and inner kinds, each behind a reserve of 0, one byte too
// few, exactly enough and k bytes to spare.
func FuzzEncapInPlace(f *testing.F) {
	for i, srh := range encapWireSeeds(f) {
		f.Add(srh, uint8(i), uint8(8*i))
	}
	v6, err := packet.BuildPacket(hostA, hostB, packet.WithUDP(10, 20), packet.WithPayload([]byte("inner-payload")))
	if err != nil {
		f.Fatal(err)
	}
	v4, err := packet.BuildIPv4UDP(v4a, v4b, 10, 20, []byte("inner-payload"), 64)
	if err != nil {
		f.Fatal(err)
	}
	frame := packet.BuildEthernet([6]byte{2, 0, 0, 0, 0, 2}, [6]byte{2, 0, 0, 0, 0, 1}, 0x86dd, v6)
	inners := [][]byte{v6, v4, tcpInner(f), frame}
	f.Fuzz(func(t *testing.T, wire []byte, kind, k uint8) {
		inner := inners[int(kind)%len(inners)]
		var dec *packet.SRH
		if d, n, err := packet.DecodeSRH(wire); err == nil && n == len(wire) {
			dec = &d
		}
		for _, c := range inPlaceCalls(wire, dec, int(kind)%len(inners) == 3) {
			want, wantErr := c.allocate(inner)
			need := len(want) - len(inner)
			for _, reserve := range []int{0, need - 1, need, need + int(k)} {
				if reserve >= 0 {
					checkEncapInPlace(t, c.name, c.in, want, wantErr, inner, reserve)
				}
			}
		}
	})
}

// TestDecapAliasesInput pins the zero-copy contract: the decapsulated
// packet is the tail of the input buffer, for every decap behaviour
// and the raw splice.
func TestDecapAliasesInput(t *testing.T) {
	aliases := func(inner, raw []byte) bool {
		return len(inner) > 0 && &inner[len(inner)-1] == &raw[len(raw)-1]
	}
	raw := encapAt(t, innerV6(t), 0, sid1)
	inner, err := DecapInner(raw)
	if err != nil || !aliases(inner, raw) || !bytes.Equal(inner, innerV6(t)) {
		t.Fatalf("DecapInner: err %v, aliases %v", err, aliases(inner, raw))
	}
	for _, c := range []struct {
		b   Behaviour
		raw []byte
	}{
		{Behaviour{Action: ActionEndDT6}, encapAt(t, innerV6(t), 0, sid1)},
		{Behaviour{Action: ActionEndDX6, Nexthop: nh1}, encapAt(t, innerV6(t), 0, sid1, sid2)},
		{Behaviour{Action: ActionEndDT4}, encapAt(t, innerV4(t), 0, sid1)},
		{Behaviour{Action: ActionEndDT46}, encapAt(t, innerV4(t), 0, sid1)},
		{Behaviour{Action: ActionEndDX2}, encapL2At(t, innerL2(t), 0, sid1)},
		{Behaviour{Action: ActionEnd, Flavors: FlavorUSD}, encapAt(t, innerV6(t), 0, sid1)},
	} {
		res, err := Apply(&c.b, c.raw)
		if err != nil || !aliases(res.Pkt, c.raw) {
			t.Errorf("%v: err %v, result aliases input: %v", c.b.Action, err, aliases(res.Pkt, c.raw))
		}
	}
	// The proxies retain the outer packet for the return leg: End.AS
	// must hand the VNF a copy.
	b := Behaviour{Action: ActionEndAS, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: hostA, OIF: struct{}{}}
	raw = encapAt(t, innerV6(t), 1, sid1, sid2)
	res, err := Apply(&b, raw)
	if err != nil || aliases(res.Pkt, raw) {
		t.Errorf("End.AS: err %v, result aliases input: %v", err, aliases(res.Pkt, raw))
	}
}

var sinkBytes []byte

// hotPathCalls are the hybrid-access path's encapsulations and
// decapsulations of a full-size TCP segment, with the heap objects
// each may allocate: the one output buffer, or nothing — nothing also
// for an encapsulation into headroom the segment was built with.
func hotPathCalls(tb testing.TB) []struct {
	name   string
	allocs float64
	call   func() error
} {
	inner := tcpInner(tb)
	srh := packet.NewSRH([]netip.Addr{sid1, sid2})
	wire, err := srh.Encode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	encapped, err := Encap(inner, hostA, packet.NewSRH([]netip.Addr{sid1}))
	if err != nil {
		tb.Fatal(err)
	}
	dt6 := &Behaviour{Action: ActionEndDT6, Table: 254}
	// End.B6.Encaps advances the packet in place, so each call starts
	// from a fresh copy of an SRv6 packet with a segment left.
	srv6, err := packet.BuildPacket(hostA, sid1, packet.WithSRH(packet.NewSRH([]netip.Addr{sid1, sid2})),
		packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	work := make([]byte, len(srv6))
	b6 := func(reduced bool) func() error {
		b := &Behaviour{Action: ActionEndB6Encap, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: hostA, Reduced: reduced}
		return func() error {
			copy(work, srv6)
			res, err := Apply(b, work)
			sinkBytes = res.Pkt
			return err
		}
	}
	reserve := packet.IPv6HeaderLen + len(wire)
	reserved := append(make([]byte, reserve), inner...)
	return []struct {
		name   string
		allocs float64
		call   func() error
	}{
		{"Encap/struct", 1, func() (err error) { sinkBytes, err = Encap(inner, hostA, srh); return }},
		{"Encap/wire", 1, func() (err error) { sinkBytes, err = EncapWire(inner, hostA, wire); return }},
		{"EncapRed", 1, func() (err error) { sinkBytes, err = EncapRed(inner, hostA, srh); return }},
		{"Encap/in-place", 0, func() (err error) {
			sinkBytes, err = EncapWireIn(reserved, reserved[reserve:], hostA, wire)
			return
		}},
		{"DecapInner", 0, func() (err error) { sinkBytes, err = DecapInner(encapped); return }},
		{"DecapDT6", 0, func() error {
			res, err := Apply(dt6, encapped)
			sinkBytes = res.Pkt
			return err
		}},
		{"End.B6.Encaps", 1, b6(false)},
		{"End.B6.Encaps.Red", 1, b6(true)},
	}
}

// TestEncapDecapAllocs pins the allocation counts of the hybrid-access
// hot path: one buffer per encapsulation — none when the packet brings
// its own headroom — and none per decapsulation.
func TestEncapDecapAllocs(t *testing.T) {
	for _, c := range hotPathCalls(t) {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = c.call() }); got != c.allocs {
			t.Errorf("%s: %.0f allocs per call, want %.0f", c.name, got, c.allocs)
		}
	}
}

func benchHotPath(b *testing.B, name string) {
	for _, c := range hotPathCalls(b) {
		if c.name != name {
			continue
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.call()
		}
		return
	}
	b.Fatalf("no hot-path call %q", name)
}

// BenchmarkEncap measures one encapsulation of a full-size TCP segment
// behind a 2-segment SRH, from a decoded SRH and from wire bytes into
// a new buffer, and from wire bytes into the segment's own headroom.
func BenchmarkEncap(b *testing.B) {
	b.Run("struct", func(b *testing.B) { benchHotPath(b, "Encap/struct") })
	b.Run("wire", func(b *testing.B) { benchHotPath(b, "Encap/wire") })
	b.Run("in-place", func(b *testing.B) { benchHotPath(b, "Encap/in-place") })
}

// BenchmarkDecapDT6 measures End.DT6 on an encapsulated full-size TCP
// segment (the hybrid-access tunnel egress).
func BenchmarkDecapDT6(b *testing.B) { benchHotPath(b, "DecapDT6") }
