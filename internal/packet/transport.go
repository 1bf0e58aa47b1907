package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header size.
const UDPHeaderLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
	Checksum         uint16
}

// DecodeUDP parses a UDP header.
func DecodeUDP(b []byte) (UDP, error) {
	var u UDP
	if len(b) < UDPHeaderLen {
		return u, fmt.Errorf("%w: UDP header", ErrTruncated)
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:])
	u.DstPort = binary.BigEndian.Uint16(b[2:])
	u.Length = binary.BigEndian.Uint16(b[4:])
	u.Checksum = binary.BigEndian.Uint16(b[6:])
	return u, nil
}

// Encode appends the header to dst.
func (u UDP) Encode(dst []byte) []byte {
	var b [UDPHeaderLen]byte
	binary.BigEndian.PutUint16(b[0:], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:], u.DstPort)
	binary.BigEndian.PutUint16(b[4:], u.Length)
	binary.BigEndian.PutUint16(b[6:], u.Checksum)
	return append(dst, b[:]...)
}

// TCP flag bits.
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// TCPHeaderLen is the option-less header size.
const TCPHeaderLen = 20

// tcpSACKOptionLen is the size of one encoded SACK block option:
// kind (5), length, left edge, right edge, plus two NOPs for 4-byte
// alignment.
const tcpSACKOptionLen = 12

// TCP is a TCP header, optionally carrying one SACK block (RFC 2018)
// — enough selective-acknowledgement information for RACK-style loss
// detection, which the §4.2 experiment depends on.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // header length in bytes (filled on decode)
	Flags            uint8
	Window           uint16
	Checksum         uint16
	// SACKLeft/SACKRight delimit one SACK block; both zero = absent.
	SACKLeft, SACKRight uint32
}

// HasSACK reports whether a SACK block is present.
func (t TCP) HasSACK() bool { return t.SACKLeft != 0 || t.SACKRight != 0 }

// DecodeTCP parses a TCP header including a single SACK option.
func DecodeTCP(b []byte) (TCP, error) {
	var t TCP
	if len(b) < TCPHeaderLen {
		return t, fmt.Errorf("%w: TCP header", ErrTruncated)
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:])
	t.DstPort = binary.BigEndian.Uint16(b[2:])
	t.Seq = binary.BigEndian.Uint32(b[4:])
	t.Ack = binary.BigEndian.Uint32(b[8:])
	t.DataOff = (b[12] >> 4) * 4
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:])
	t.Checksum = binary.BigEndian.Uint16(b[16:])
	if int(t.DataOff) < TCPHeaderLen || len(b) < int(t.DataOff) {
		return t, fmt.Errorf("%w: TCP data offset %d", ErrTruncated, t.DataOff)
	}
	// Walk options for the first SACK block.
	opts := b[TCPHeaderLen:t.DataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		case 5: // SACK
			if len(opts) < 10 || opts[1] < 10 || int(opts[1]) > len(opts) {
				return t, fmt.Errorf("%w: SACK option", ErrTruncated)
			}
			t.SACKLeft = binary.BigEndian.Uint32(opts[2:])
			t.SACKRight = binary.BigEndian.Uint32(opts[6:])
			opts = opts[opts[1]:]
		default:
			if len(opts) < 2 || opts[1] < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			opts = opts[opts[1]:]
		}
	}
	return t, nil
}

// wireLen is the encoded header size: 20 bytes, 32 with a SACK block.
func (t TCP) wireLen() int {
	if t.HasSACK() {
		return TCPHeaderLen + tcpSACKOptionLen
	}
	return TCPHeaderLen
}

// Encode appends the header (and SACK option when present) to dst.
func (t TCP) Encode(dst []byte) []byte {
	words := t.wireLen() / 4
	var b [TCPHeaderLen]byte
	binary.BigEndian.PutUint16(b[0:], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:], t.DstPort)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = uint8(words) << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:], t.Window)
	binary.BigEndian.PutUint16(b[16:], t.Checksum)
	dst = append(dst, b[:]...)
	if t.HasSACK() {
		var o [tcpSACKOptionLen]byte
		o[0], o[1] = 1, 1 // NOP padding
		o[2], o[3] = 5, 10
		binary.BigEndian.PutUint32(o[4:], t.SACKLeft)
		binary.BigEndian.PutUint32(o[8:], t.SACKRight)
		dst = append(dst, o[:]...)
	}
	return dst
}

// ICMPv6 types used by the simulator.
const (
	ICMPv6DstUnreachable = 1
	ICMPv6TimeExceeded   = 3
	ICMPv6EchoRequest    = 128
	ICMPv6EchoReply      = 129
)

// ICMPv6HeaderLen is type+code+checksum+4 reserved bytes.
const ICMPv6HeaderLen = 8

// ICMPv6 is a generic ICMPv6 message; Body carries the remainder
// (for errors: the invoking packet).
type ICMPv6 struct {
	Type, Code uint8
	Checksum   uint16
	Body       []byte
}

// DecodeICMPv6 parses an ICMPv6 message.
func DecodeICMPv6(b []byte) (ICMPv6, error) {
	var m ICMPv6
	if len(b) < ICMPv6HeaderLen {
		return m, fmt.Errorf("%w: ICMPv6 header", ErrTruncated)
	}
	m.Type = b[0]
	m.Code = b[1]
	m.Checksum = binary.BigEndian.Uint16(b[2:])
	m.Body = append([]byte(nil), b[ICMPv6HeaderLen:]...)
	return m, nil
}

// Encode appends the message to dst.
func (m ICMPv6) Encode(dst []byte) []byte {
	var h [ICMPv6HeaderLen]byte
	h[0] = m.Type
	h[1] = m.Code
	binary.BigEndian.PutUint16(h[2:], m.Checksum)
	dst = append(dst, h[:]...)
	return append(dst, m.Body...)
}

// Checksum computes the Internet checksum over the IPv6 pseudo-header
// and the upper-layer payload, per RFC 8200 §8.1.
func Checksum(src, dst netip.Addr, proto uint8, upper []byte) uint16 {
	a, b := src.As16(), dst.As16()
	// The pseudo-header's upper-layer length and next header are a
	// 32-bit and a zero-padded 8-bit field, each congruent to its plain
	// value; they seed the accumulator.
	sum := onesSum(uint64(len(upper))+uint64(proto), a[:])
	sum = onesSum(onesSum(sum, b[:]), upper)
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// onesSum adds the big-endian 16-bit words of b (an odd last byte is
// padded with zero) to a 64-bit one's-complement accumulator, eight
// bytes per step with end-around carry: 2^16 ≡ 1 (mod 0xffff), so a
// 64-bit word is congruent to the sum of its four 16-bit words and
// folding the accumulator gives the 16-bit sum of RFC 1071.
func onesSum(sum uint64, b []byte) uint64 {
	var carry uint64
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), 0)
		sum += carry
		b = b[8:]
	}
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail = tail<<16 | uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail = tail<<16 | uint64(b[0])<<8
	}
	sum, carry = bits.Add64(sum, tail, 0)
	return sum + carry
}

// buildSpec collects the pieces of a packet under construction. It
// holds values, not pointers to copies, so a BuildPacket call keeps it
// on its own stack.
type buildSpec struct {
	ip       IPv6
	srh      *SRH
	udp      UDP
	tcp      TCP
	icmp     ICMPv6
	hasUDP   bool
	hasTCP   bool
	hasICMP  bool
	innerPkt []byte
	innerL2  []byte
	payload  []byte
}

// BuildOption configures BuildPacket. It is a plain value — which
// piece of the packet it sets, and that piece — so building the option
// list of a call allocates nothing.
type BuildOption struct {
	kind  buildOptKind
	n     uint32 // flow label, hop limit or traffic class
	udp   UDP
	tcp   TCP
	icmp  ICMPv6
	srh   *SRH
	bytes []byte // payload, inner packet or L2 frame
}

type buildOptKind uint8

const (
	optSRH buildOptKind = iota + 1
	optUDP
	optTCP
	optICMPv6
	optInnerPacket
	optInnerL2
	optPayload
	optFlowLabel
	optHopLimit
	optTrafficClass
)

// apply records the option in the spec.
func (o *BuildOption) apply(b *buildSpec) {
	switch o.kind {
	case optSRH:
		b.srh = o.srh
	case optUDP:
		b.udp, b.hasUDP = o.udp, true
	case optTCP:
		b.tcp, b.hasTCP = o.tcp, true
	case optICMPv6:
		b.icmp, b.hasICMP = o.icmp, true
	case optInnerPacket:
		b.innerPkt = o.bytes
	case optInnerL2:
		b.innerL2 = o.bytes
	case optPayload:
		b.payload = o.bytes
	case optFlowLabel:
		b.ip.FlowLabel = o.n & 0xfffff
	case optHopLimit:
		b.ip.HopLimit = uint8(o.n)
	case optTrafficClass:
		b.ip.TrafficClass = uint8(o.n)
	}
}

// WithSRH attaches a segment routing header.
func WithSRH(s *SRH) BuildOption { return BuildOption{kind: optSRH, srh: s} }

// WithUDP attaches a UDP header (length and checksum are computed).
func WithUDP(src, dst uint16) BuildOption {
	return BuildOption{kind: optUDP, udp: UDP{SrcPort: src, DstPort: dst}}
}

// WithTCP attaches a TCP header (checksum is computed).
func WithTCP(t TCP) BuildOption { return BuildOption{kind: optTCP, tcp: t} }

// WithICMPv6 attaches an ICMPv6 message (checksum is computed).
func WithICMPv6(m ICMPv6) BuildOption { return BuildOption{kind: optICMPv6, icmp: m} }

// WithInnerPacket nests a full IP packet; the next-header value comes
// from its version nibble (IPv6-in-IPv6 or IPv4-in-IPv6 encap).
func WithInnerPacket(raw []byte) BuildOption {
	return BuildOption{kind: optInnerPacket, bytes: raw}
}

// WithInnerL2 nests an Ethernet frame (next-header 143, the L2 tunnel
// payload of End.DX2 / H.Encaps.L2).
func WithInnerL2(frame []byte) BuildOption {
	return BuildOption{kind: optInnerL2, bytes: frame}
}

// WithPayload sets the application payload.
func WithPayload(p []byte) BuildOption { return BuildOption{kind: optPayload, bytes: p} }

// WithFlowLabel sets the IPv6 flow label.
func WithFlowLabel(fl uint32) BuildOption { return BuildOption{kind: optFlowLabel, n: fl} }

// WithHopLimit overrides the default hop limit of 64.
func WithHopLimit(hl uint8) BuildOption { return BuildOption{kind: optHopLimit, n: uint32(hl)} }

// WithTrafficClass sets the IPv6 traffic class.
func WithTrafficClass(tc uint8) BuildOption {
	return BuildOption{kind: optTrafficClass, n: uint32(tc)}
}

// BuildPacket assembles a complete IPv6 packet with correct lengths,
// next-header chaining and transport checksums.
//
// The packet is written once: every layer is sized first, one buffer
// of exactly IPv6HeaderLen + SRH + upper-layer bytes is allocated, and
// IPv6 header, SRH, transport header and payload are appended to it in
// wire order, the transport checksum then computed in place over the
// tail. That buffer is the call's only allocation.
func BuildPacket(src, dst netip.Addr, opts ...BuildOption) ([]byte, error) {
	return BuildPacketIn(makeBytes, 0, src, dst, opts...)
}

func makeBytes(size int) []byte { return make([]byte, size) }

// BuildPacketIn is BuildPacket in a buffer the caller supplies, with
// reserve spare bytes in front of the packet, the way the kernel's TCP
// stack allocates an skb with MAX_TCP_HEADER of headroom. Once the packet
// is sized, get is asked for reserve plus that many bytes, and what it
// returns — len at least that, any content — is returned whole: the
// packet is its [reserve:], byte for byte what BuildPacket returns, and a
// tunnel ingress down the path that is handed the allocation can push
// its outer headers into the spare bytes instead of copying the packet
// (seg6.EncapIn). Every byte of the packet is written; the reserve is
// left as get gave it. The buffer may be a used one
// (netsim.Node.PacketBuf), which is the point: no allocation here.
func BuildPacketIn(get func(size int) []byte, reserve int, src, dst netip.Addr, opts ...BuildOption) ([]byte, error) {
	if reserve < 0 {
		return nil, fmt.Errorf("packet: negative reserve %d", reserve)
	}
	spec := buildSpec{ip: IPv6{Src: src, Dst: dst, HopLimit: 64}}
	for i := range opts {
		opts[i].apply(&spec)
	}

	// Size the upper layer: a transport header of hdrLen bytes (none
	// for a nested packet or a bare payload) followed by body, with the
	// transport checksum at ckOff in the header.
	var (
		proto  uint8
		hdrLen int
		ckOff  int
		body   []byte
	)
	switch {
	case spec.hasUDP:
		proto, hdrLen, ckOff, body = ProtoUDP, UDPHeaderLen, 6, spec.payload
	case spec.hasTCP:
		proto, hdrLen, ckOff, body = ProtoTCP, spec.tcp.wireLen(), 16, spec.payload
	case spec.hasICMP:
		proto, hdrLen, ckOff, body = ProtoICMPv6, ICMPv6HeaderLen, 2, spec.icmp.Body
	case spec.innerPkt != nil:
		proto, body = ProtoIPv6, spec.innerPkt
		if IPVersion(spec.innerPkt) == 4 {
			proto = ProtoIPv4
		}
	case spec.innerL2 != nil:
		proto, body = ProtoEthernet, spec.innerL2
	default:
		proto, body = ProtoNoNext, spec.payload
	}
	srhLen := 0
	spec.ip.NextHeader = proto
	if spec.srh != nil {
		hel, err := spec.srh.HdrExtLen()
		if err != nil {
			return nil, err
		}
		srhLen = (int(hel) + 1) * 8
		spec.ip.NextHeader = ProtoRouting
	}
	payloadLen := srhLen + hdrLen + len(body)
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("packet: payload %d exceeds IPv6 payload length", payloadLen)
	}
	spec.ip.PayloadLen = uint16(payloadLen)

	total := reserve + IPv6HeaderLen + payloadLen
	buf := get(total)
	if len(buf) < total {
		return nil, fmt.Errorf("packet: buffer of %d bytes for a packet of %d", len(buf), total)
	}
	out := spec.ip.Encode(buf[:reserve])
	if spec.srh != nil {
		out, _ = spec.srh.Encode(out) // cannot fail: HdrExtLen passed above
		out[reserve+IPv6HeaderLen+SRHOffNextHeader] = proto
	}
	l4 := len(out)
	switch proto {
	case ProtoUDP:
		spec.udp.Length, spec.udp.Checksum = uint16(hdrLen+len(body)), 0
		out = spec.udp.Encode(out)
	case ProtoTCP:
		spec.tcp.Checksum = 0
		out = spec.tcp.Encode(out)
	case ProtoICMPv6:
		out = ICMPv6{Type: spec.icmp.Type, Code: spec.icmp.Code}.Encode(out)
	}
	out = append(out, body...)
	if hdrLen > 0 {
		ck := Checksum(src, dst, proto, out[l4:])
		if ck == 0 && proto == ProtoUDP {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(out[l4+ckOff:], ck)
	}
	return out, nil
}

// NewSRH builds an SRH for a path of segments given in travel order
// (first hop first). On the wire segments are reversed and
// SegmentsLeft starts at len(path)-1... i.e. pointing at the first
// hop. TLVs are appended in the given order, padded to 8-byte
// alignment automatically.
func NewSRH(path []netip.Addr, tlvs ...TLV) *SRH {
	s := &SRH{
		SegmentsLeft: uint8(len(path) - 1),
		LastEntry:    uint8(len(path) - 1),
		TLVs:         tlvs,
	}
	for i := len(path) - 1; i >= 0; i-- {
		s.Segments = append(s.Segments, path[i])
	}
	if pad := s.WireLen() % 8; pad != 0 {
		need := 8 - pad
		if need == 1 {
			s.TLVs = append(s.TLVs, Pad1{})
		} else {
			s.TLVs = append(s.TLVs, PadN{N: uint8(need - 2)})
		}
	}
	return s
}
