package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// SRH wire layout (draft-ietf-6man-segment-routing-header, the format
// the paper's kernel implements):
//
//	 0                   1                   2                   3
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	| Next Header   |  Hdr Ext Len  | Routing Type  | Segments Left |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|  Last Entry   |     Flags     |              Tag              |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|            Segment List[0..n] (128 bits each)                 |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	//                     Optional TLVs                           //
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

// SRHRoutingType is the routing header type for segment routing.
const SRHRoutingType = 4

// SRHFixedLen is the SRH size before segments and TLVs.
const SRHFixedLen = 8

// Byte offsets of SRH fields relative to the SRH start. The eBPF
// network functions address fields with these.
const (
	SRHOffNextHeader   = 0
	SRHOffHdrExtLen    = 1
	SRHOffRoutingType  = 2
	SRHOffSegmentsLeft = 3
	SRHOffLastEntry    = 4
	SRHOffFlags        = 5
	SRHOffTag          = 6
	SRHOffSegments     = 8
)

// SRH is a decoded segment routing header.
type SRH struct {
	NextHeader   uint8
	SegmentsLeft uint8
	LastEntry    uint8
	Flags        uint8
	Tag          uint16
	// Segments in wire order: Segments[0] is the LAST segment of the
	// path (segments are reversed on the wire).
	Segments []netip.Addr
	// TLVs follow the segment list.
	TLVs []TLV
}

// WireLen returns the encoded size in bytes.
func (s *SRH) WireLen() int {
	n := SRHFixedLen + 16*len(s.Segments)
	for _, t := range s.TLVs {
		n += t.wireLen()
	}
	return n
}

// HdrExtLen computes the length field: 8-byte units beyond the first 8.
func (s *SRH) HdrExtLen() (uint8, error) {
	n := s.WireLen()
	if n%8 != 0 {
		return 0, fmt.Errorf("%w: length %d not a multiple of 8 (pad TLVs)", ErrBadSRH, n)
	}
	units := n/8 - 1
	if units > 255 {
		return 0, fmt.Errorf("%w: too long", ErrBadSRH)
	}
	return uint8(units), nil
}

// ActiveSegment returns the segment the packet should be routed to
// next: Segments[SegmentsLeft].
func (s *SRH) ActiveSegment() (netip.Addr, error) {
	if int(s.SegmentsLeft) >= len(s.Segments) {
		return netip.Addr{}, fmt.Errorf("%w: segments_left %d of %d", ErrBadSRH, s.SegmentsLeft, len(s.Segments))
	}
	return s.Segments[s.SegmentsLeft], nil
}

// Encode appends the SRH to dst.
func (s *SRH) Encode(dst []byte) ([]byte, error) {
	hel, err := s.HdrExtLen()
	if err != nil {
		return nil, err
	}
	var fixed [SRHFixedLen]byte
	fixed[SRHOffNextHeader] = s.NextHeader
	fixed[SRHOffHdrExtLen] = hel
	fixed[SRHOffRoutingType] = SRHRoutingType
	fixed[SRHOffSegmentsLeft] = s.SegmentsLeft
	fixed[SRHOffLastEntry] = s.LastEntry
	fixed[SRHOffFlags] = s.Flags
	binary.BigEndian.PutUint16(fixed[SRHOffTag:], s.Tag)
	dst = append(dst, fixed[:]...)
	for _, seg := range s.Segments {
		a := seg.As16()
		dst = append(dst, a[:]...)
	}
	for _, t := range s.TLVs {
		dst = t.encode(dst)
	}
	return dst, nil
}

// srhStructure applies the structural checks every SRH consumer
// agrees on — fixed-header presence, routing type, HdrExtLen bound,
// segment list within the header, segments_left within the list —
// and returns the wire length and the two list fields. DecodeSRH,
// ValidateSRHBytes and ParseInfo all go through it, so the datapath's
// entry walk, the post-program revalidation and the full decoder
// cannot drift apart. It allocates nothing.
func srhStructure(b []byte) (total int, segsLeft, lastEntry uint8, err error) {
	if len(b) < SRHFixedLen {
		return 0, 0, 0, fmt.Errorf("%w: SRH fixed header", ErrTruncated)
	}
	if b[SRHOffRoutingType] != SRHRoutingType {
		return 0, 0, 0, fmt.Errorf("%w: routing type %d", ErrBadSRH, b[SRHOffRoutingType])
	}
	total = (int(b[SRHOffHdrExtLen]) + 1) * 8
	if len(b) < total {
		return 0, 0, 0, fmt.Errorf("%w: SRH says %d bytes, have %d", ErrTruncated, total, len(b))
	}
	segsLeft, lastEntry = b[SRHOffSegmentsLeft], b[SRHOffLastEntry]
	nSegs := int(lastEntry) + 1
	if SRHFixedLen+16*nSegs > total {
		return 0, 0, 0, fmt.Errorf("%w: %d segments exceed header length", ErrBadSRH, nSegs)
	}
	// segments_left == last_entry + 1 is the reduced encapsulation of
	// RFC 8986 §5.2 (H.Encaps.Red / End.B6.Encaps.Red): the first
	// segment rides in the destination address only and is omitted
	// from the list, so the active index points one past it. Linux's
	// seg6_validate_srh accepts the same transient shape.
	if int(segsLeft) > int(lastEntry)+1 {
		return 0, 0, 0, fmt.Errorf("%w: segments_left %d > last_entry %d + 1", ErrBadSRH, segsLeft, lastEntry)
	}
	return total, segsLeft, lastEntry, nil
}

// DecodeSRH parses an SRH at the start of b, returning it and its
// wire length.
func DecodeSRH(b []byte) (SRH, int, error) {
	var s SRH
	n, err := decodeSRHInto(&s, b, true)
	return s, n, err
}

// decodeSRHInto is DecodeSRH into caller-owned storage: s is reset
// and refilled, reusing its Segments and TLVs backing arrays. Without
// tlvs the TLV area is validated only and s.TLVs left empty: the
// allocation-free decode behind packet.ParseInto.
func decodeSRHInto(s *SRH, b []byte, tlvs bool) (int, error) {
	total, segsLeft, lastEntry, err := srhStructure(b)
	if err != nil {
		return 0, err
	}
	s.NextHeader = b[SRHOffNextHeader]
	s.SegmentsLeft = segsLeft
	s.LastEntry = lastEntry
	s.Flags = b[SRHOffFlags]
	s.Tag = binary.BigEndian.Uint16(b[SRHOffTag:])

	nSegs := int(lastEntry) + 1
	segBytes := 16 * nSegs
	s.Segments = s.Segments[:0]
	for i := 0; i < nSegs; i++ {
		off := SRHFixedLen + 16*i
		s.Segments = append(s.Segments, netip.AddrFrom16([16]byte(b[off:off+16])))
	}
	area := b[SRHFixedLen+segBytes : total]
	s.TLVs = s.TLVs[:0]
	if !tlvs {
		return total, validateTLVs(area)
	}
	if s.TLVs, err = decodeTLVsInto(s.TLVs, area); err != nil {
		return 0, err
	}
	return total, nil
}

// Summary renders the SRH compactly.
func (s *SRH) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SRH[sl=%d", s.SegmentsLeft)
	for i := len(s.Segments) - 1; i >= 0; i-- {
		sep := " "
		if i == len(s.Segments)-1 {
			sep = " path="
		}
		fmt.Fprintf(&b, "%s%s", sep, s.Segments[i])
	}
	if s.Tag != 0 {
		fmt.Fprintf(&b, " tag=%d", s.Tag)
	}
	for _, t := range s.TLVs {
		fmt.Fprintf(&b, " %s", t.summary())
	}
	b.WriteString("]")
	return b.String()
}

// ValidateSRHBytes checks that the byte range holds a structurally
// valid SRH. The End.BPF hook calls this after a program used
// seg6_store_bytes / seg6_adjust_srh, implementing §3.1: "If the SRH
// has been altered by the BPF program, a quick verification is
// performed to ensure that it is still valid ... otherwise it is
// dropped."
// The checks are those of DecodeSRH (shared via srhStructure and a
// validate-only TLV walk), applied without building the decoded form,
// so revalidation does not allocate on the datapath.
func ValidateSRHBytes(b []byte) error {
	total, _, lastEntry, err := srhStructure(b)
	if err != nil {
		return err
	}
	return validateTLVs(b[SRHFixedLen+16*(int(lastEntry)+1) : total])
}
