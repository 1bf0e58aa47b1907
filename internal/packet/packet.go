// Package packet implements wire-format encoding and decoding for the
// protocols the paper's data plane manipulates: IPv6, the Segment
// Routing Header (SRH) with its TLVs, UDP, TCP and ICMPv6.
//
// The simulator carries packets as raw bytes — exactly what eBPF
// programs and the seg6local behaviours read and rewrite — so this
// package is a pure serialisation library in the spirit of gopacket:
// typed layer structs with Encode/Decode plus a Packet view that
// walks a byte slice into layers.
package packet

import (
	"errors"
	"fmt"
	"net/netip"
)

// IPv6 next-header protocol numbers used in this repository.
const (
	ProtoIPv4     = 4 // IPv4-in-IPv6 encapsulation (RFC 2473)
	ProtoTCP      = 6
	ProtoUDP      = 17
	ProtoIPv6     = 41 // IPv6-in-IPv6 encapsulation
	ProtoRouting  = 43 // routing extension header (the SRH)
	ProtoICMPv6   = 58
	ProtoNoNext   = 59
	ProtoEthernet = 143 // Ethernet frame payload (RFC 8986 End.DX2 / H.Encaps.L2)
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrBadVersion = errors.New("packet: not an IPv6 packet")
	ErrBadSRH     = errors.New("packet: malformed segment routing header")
	ErrBadTLV     = errors.New("packet: malformed TLV")
)

// IPv6HeaderLen is the fixed IPv6 header size.
const IPv6HeaderLen = 40

// IPv6 is the fixed IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// DecodeIPv6 parses the fixed header from b.
func DecodeIPv6(b []byte) (IPv6, error) {
	var h IPv6
	if len(b) < IPv6HeaderLen {
		return h, fmt.Errorf("%w: IPv6 header needs 40 bytes, have %d", ErrTruncated, len(b))
	}
	if b[0]>>4 != 6 {
		return h, fmt.Errorf("%w: version %d", ErrBadVersion, b[0]>>4)
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3])
	h.PayloadLen = uint16(b[4])<<8 | uint16(b[5])
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	h.Src = netip.AddrFrom16([16]byte(b[8:24]))
	h.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	return h, nil
}

// Encode appends the header to dst and returns the extended slice.
func (h IPv6) Encode(dst []byte) []byte {
	var buf [IPv6HeaderLen]byte
	buf[0] = 6<<4 | h.TrafficClass>>4
	buf[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16&0x0f)
	buf[2] = uint8(h.FlowLabel >> 8)
	buf[3] = uint8(h.FlowLabel)
	buf[4] = uint8(h.PayloadLen >> 8)
	buf[5] = uint8(h.PayloadLen)
	buf[6] = h.NextHeader
	buf[7] = h.HopLimit
	src := h.Src.As16()
	dstA := h.Dst.As16()
	copy(buf[8:24], src[:])
	copy(buf[24:40], dstA[:])
	return append(dst, buf[:]...)
}

// PatchIPv6 updates fields of an encoded IPv6 header in place.

// SetIPv6Dst rewrites the destination address of the packet in b.
func SetIPv6Dst(b []byte, dst netip.Addr) error {
	if len(b) < IPv6HeaderLen {
		return ErrTruncated
	}
	a := dst.As16()
	copy(b[24:40], a[:])
	return nil
}

// SetIPv6PayloadLen rewrites the payload length field of b.
func SetIPv6PayloadLen(b []byte, n int) error {
	if len(b) < IPv6HeaderLen || n < 0 || n > 0xffff {
		return ErrTruncated
	}
	b[4] = uint8(n >> 8)
	b[5] = uint8(n)
	return nil
}

// SetIPv6HopLimit rewrites the hop limit of b.
func SetIPv6HopLimit(b []byte, hl uint8) error {
	if len(b) < IPv6HeaderLen {
		return ErrTruncated
	}
	b[7] = hl
	return nil
}

// IPv6Dst reads the destination address without a full decode.
func IPv6Dst(b []byte) (netip.Addr, error) {
	if len(b) < IPv6HeaderLen {
		return netip.Addr{}, ErrTruncated
	}
	return netip.AddrFrom16([16]byte(b[24:40])), nil
}

// IPv6Src reads the source address without a full decode.
func IPv6Src(b []byte) (netip.Addr, error) {
	if len(b) < IPv6HeaderLen {
		return netip.Addr{}, ErrTruncated
	}
	return netip.AddrFrom16([16]byte(b[8:24])), nil
}

// Packet is a decoded view over raw bytes: the outer IPv6 header,
// the optional SRH, the transport, and offsets to each.
type Packet struct {
	Raw []byte

	IPv6    IPv6
	SRH     *SRH // nil when absent
	SRHOff  int  // byte offset of the SRH, 0 when absent
	L4Proto uint8
	L4Off   int // byte offset of the transport header

	// Inner is set for IPv6-in-IPv6 (after decap boundaries); it is
	// not recursed into.
	InnerOff int // offset of inner IPv6 header, 0 when absent
}

// Parse walks the header chain of an IPv6 packet. Unknown extension
// headers stop the walk (L4Proto reports what was found).
func Parse(raw []byte) (*Packet, error) {
	p := &Packet{}
	if err := parseInto(p, raw, true); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto is Parse into caller-owned storage: it resets and fills p
// without allocating, reusing a pre-seeded p.SRH (including its
// Segments/TLVs backing arrays) when the packet carries an SRH. When
// it does not, p.SRH is nil after the call — callers that pool the
// spare SRH must re-seed it before each parse. The filled view
// aliases raw and the reused storage; it is only valid until the next
// ParseInto with the same p.
//
// Unlike Parse it checks the SRH's TLV area without decoding it, and
// leaves p.SRH.TLVs empty: every TLV decoded is a value boxed on the
// heap, on a path — local delivery of every packet — where next to
// nobody looks at them. Who does decodes them from the bytes:
// DecodeSRH(p.Raw[p.SRHOff:]). The same bytes fail either way.
func ParseInto(p *Packet, raw []byte) error { return parseInto(p, raw, false) }

func parseInto(p *Packet, raw []byte, tlvs bool) error {
	h, err := DecodeIPv6(raw)
	if err != nil {
		return err
	}
	srh := p.SRH
	*p = Packet{Raw: raw, IPv6: h}

	off := IPv6HeaderLen
	proto := h.NextHeader
	for {
		switch proto {
		case ProtoRouting:
			if srh == nil {
				srh = &SRH{}
			}
			n, err := decodeSRHInto(srh, raw[off:], tlvs)
			if err != nil {
				return err
			}
			p.SRH = srh
			p.SRHOff = off
			proto = srh.NextHeader
			off += n
		case ProtoIPv6, ProtoIPv4:
			p.InnerOff = off
			p.L4Proto = proto
			p.L4Off = off
			return nil
		default:
			p.L4Proto = proto
			p.L4Off = off
			return nil
		}
	}
}

// Summary renders a one-line human-readable description, useful in
// tests and the srv6sim tool.
func (p *Packet) Summary() string {
	s := fmt.Sprintf("IPv6 %s -> %s hl=%d", p.IPv6.Src, p.IPv6.Dst, p.IPv6.HopLimit)
	if p.SRH != nil {
		s += " " + p.SRH.Summary()
	}
	switch p.L4Proto {
	case ProtoUDP:
		if udp, err := DecodeUDP(p.Raw[p.L4Off:]); err == nil {
			s += fmt.Sprintf(" UDP %d->%d len=%d", udp.SrcPort, udp.DstPort, udp.Length)
		}
	case ProtoTCP:
		if tcp, err := DecodeTCP(p.Raw[p.L4Off:]); err == nil {
			s += fmt.Sprintf(" TCP %d->%d seq=%d", tcp.SrcPort, tcp.DstPort, tcp.Seq)
		}
	case ProtoICMPv6:
		s += " ICMPv6"
	case ProtoIPv6:
		s += " IPv6-in-IPv6"
	case ProtoIPv4:
		s += " IPv4-in-IPv6"
	case ProtoEthernet:
		s += " Ethernet-in-IPv6"
	}
	return s
}

// Headroom reports how many bytes of buf lie in front of raw when raw
// is provably the tail of buf — same last byte, same memory — and 0
// otherwise. A tunnel ingress may write that many bytes leftwards from
// raw[0] instead of copying the packet (BuildPacketIn leaves them
// spare; a decapsulation leaves the dead outer headers there). The
// proof is pointer identity, so a packet that was reallocated on the
// way (an SRH insertion, a corrupted or duplicated copy), or a buf that
// belongs to some other packet, reads as no headroom: a stale
// allocation is never written.
func Headroom(buf, raw []byte) int {
	head := len(buf) - len(raw)
	if head <= 0 || len(raw) == 0 || &buf[head] != &raw[0] {
		return 0
	}
	return head
}

// Clone returns a deep copy of the raw bytes.
func Clone(raw []byte) []byte {
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}
