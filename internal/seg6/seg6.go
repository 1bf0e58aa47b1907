// Package seg6 implements the SRv6 data-plane operations of the Linux
// kernel's seg6 and seg6local lightweight tunnels: advancing the SRH,
// IP-in-IPv6 encapsulation and decapsulation, inline SRH insertion,
// and the RFC 8986 endpoint behaviours (End, End.X, End.T, the
// End.DX2/DX4/DX6 and End.DT4/DT6/DT46 decap families, the binding
// SIDs End.B6 / End.B6.Encaps(.Red), and the SR-proxy pair
// End.AS / End.AM) that the paper's Figure 2 uses as baselines for
// the eBPF variants.
//
// Behaviours are dispatched through a registry (see registry.go): each
// action registers a Spec with an install-time validator and a
// per-packet apply function, and the PSP/USP/USD flavor modifiers are
// applied uniformly by the shared endpoint step.
//
// All operations work on raw packet bytes, exactly as the kernel does
// on skbs; the routing decision that follows a behaviour is expressed
// as a Verdict for the caller (the simulator's forwarding engine) to
// act on, keeping this package independent of FIB internals.
package seg6

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"srv6bpf/internal/packet"
)

// Action enumerates seg6local behaviours. Values match the kernel's
// SEG6_LOCAL_ACTION_* UAPI numbering, which the bpf_lwt_seg6_action
// helper also uses.
type Action int

// seg6local actions.
const (
	ActionUnspec     Action = 0
	ActionEnd        Action = 1
	ActionEndX       Action = 2
	ActionEndT       Action = 3
	ActionEndDX2     Action = 4
	ActionEndDX6     Action = 5
	ActionEndDX4     Action = 6
	ActionEndDT6     Action = 7
	ActionEndDT4     Action = 8
	ActionEndB6      Action = 9
	ActionEndB6Encap Action = 10
	ActionEndAS      Action = 13
	ActionEndAM      Action = 14
	ActionEndBPF     Action = 15
	ActionEndDT46    Action = 16
)

// NumActions bounds the action space (the highest UAPI value plus
// one); per-action tables — the dispatch registry, the observability
// plane's behavior histograms — are sized by it.
const NumActions = int(ActionEndDT46) + 1

func (a Action) String() string {
	if sp := Lookup(a); sp != nil {
		return sp.Name
	}
	return fmt.Sprintf("seg6local(%d)", int(a))
}

// Flavor is a bitmask of the RFC 8986 §4.16 flavor modifiers a
// behaviour is configured with.
type Flavor uint8

// Flavors.
const (
	// FlavorPSP (Penultimate Segment Pop) removes the SRH when the
	// endpoint's advance lands on SegmentsLeft == 0.
	FlavorPSP Flavor = 1 << iota
	// FlavorUSP (Ultimate Segment Pop) removes the exhausted SRH of a
	// packet arriving with SegmentsLeft == 0 and continues processing.
	FlavorUSP
	// FlavorUSD (Ultimate Segment Decapsulation) decapsulates the
	// inner packet on arrival at the last segment; on the decap
	// behaviours it is the explicit opt-in to decap with
	// SegmentsLeft > 0.
	FlavorUSD
)

func (f Flavor) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	if f&FlavorPSP != 0 {
		parts = append(parts, "PSP")
	}
	if f&FlavorUSP != 0 {
		parts = append(parts, "USP")
	}
	if f&FlavorUSD != 0 {
		parts = append(parts, "USD")
	}
	return strings.Join(parts, "+")
}

// Verdict tells the forwarding engine what to do after a behaviour.
type Verdict int

// Verdicts.
const (
	// VerdictForward re-runs the FIB lookup on the (possibly updated)
	// destination address in the main table.
	VerdictForward Verdict = iota
	// VerdictForwardNexthop forwards to Result.Nexthop directly.
	VerdictForwardNexthop
	// VerdictForwardTable looks the destination up in Result.Table.
	VerdictForwardTable
	// VerdictDrop discards the packet.
	VerdictDrop
	// VerdictForwardOIF transmits the packet on the behaviour's
	// configured outgoing interface (SR-proxy steering towards a VNF,
	// End.DX2 towards an L2 port).
	VerdictForwardOIF
	// VerdictDeliverL2 hands the decapsulated Ethernet frame to the
	// node's L2 handler (End.DX2 without an OIF).
	VerdictDeliverL2
)

func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictForwardNexthop:
		return "forward-nexthop"
	case VerdictForwardTable:
		return "forward-table"
	case VerdictDrop:
		return "drop"
	case VerdictForwardOIF:
		return "forward-oif"
	case VerdictDeliverL2:
		return "deliver-l2"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Behaviour is one configured seg6local entry: an action plus its
// parameters (kernel: "End.X requires an IPv6 nexthop, End.T a table",
// and so on). BPF carries the loaded program for End.BPF; it is typed
// any so this package does not depend on the hook layer.
type Behaviour struct {
	Action  Action
	Nexthop netip.Addr  // End.X, End.DX6, End.DX4
	Table   int         // End.T, End.DT4, End.DT6, End.DT46
	SRH     *packet.SRH // End.B6, End.B6.Encaps, End.AS (re-encap)
	BPF     any         // End.BPF: managed by internal/core
	// Src is the outer source address for behaviours that encapsulate
	// (End.B6.Encaps, End.AS re-encapsulation).
	Src netip.Addr
	// Flavors are the PSP/USP/USD modifiers; Register's Spec.Flavors
	// mask limits which ones each action accepts.
	Flavors Flavor
	// Reduced selects the reduced encapsulation of RFC 8986 §5.2 for
	// End.B6.Encaps (End.B6.Encaps.Red): the first policy segment
	// rides only in the outer destination address.
	Reduced bool
	// OIF is the outgoing interface for proxy/cross-connect
	// behaviours (End.AS, End.AM, End.DX2). It is typed any so this
	// package does not depend on the simulator; the forwarding engine
	// asserts its own interface type.
	OIF any
}

// Result of applying a behaviour.
type Result struct {
	Verdict Verdict
	// Pkt is the packet after the behaviour (it may be a new slice
	// after encap/decap/insert).
	Pkt     []byte
	Nexthop netip.Addr
	Table   int
}

// Errors.
var (
	ErrNoSRH           = errors.New("seg6: packet has no SRH")
	ErrZeroSegsLeft    = errors.New("seg6: segments_left is zero")
	ErrSegmentsLeft    = errors.New("seg6: segments_left > 0 at decap (RFC 8986 requires USD)")
	ErrNotEncapsulated = errors.New("seg6: no inner packet to decapsulate")
	ErrBadBehaviour    = errors.New("seg6: invalid behaviour parameters")
)

// drop returns a drop result (the kernel frees the skb and counts the
// error; we surface the cause to the caller's statistics).
func drop() Result { return Result{Verdict: VerdictDrop} }

// Advance implements the core endpoint step shared by End-style
// behaviours: decrement SegmentsLeft and rewrite the IPv6 destination
// to the new active segment, in place. It allocates nothing.
func Advance(raw []byte) error {
	info, err := packet.ParseInfo(raw)
	if err != nil {
		return err
	}
	if !info.HasSRH() {
		return ErrNoSRH
	}
	return AdvanceAt(raw, info.SRHOff)
}

// AdvanceAt is Advance for a caller that already knows the SRH byte
// offset (the End.BPF hot path, which walked the packet once). The
// SRH structure is revalidated against the packet bounds before any
// write; like Advance, it allocates nothing.
func AdvanceAt(raw []byte, srhOff int) error {
	if srhOff < packet.IPv6HeaderLen || srhOff+packet.SRHFixedLen > len(raw) {
		return packet.ErrTruncated
	}
	srh := raw[srhOff:]
	total := (int(srh[packet.SRHOffHdrExtLen]) + 1) * 8
	if total > len(srh) {
		return packet.ErrTruncated
	}
	sl := srh[packet.SRHOffSegmentsLeft]
	if sl == 0 {
		return ErrZeroSegsLeft
	}
	sl--
	segOff := packet.SRHOffSegments + 16*int(sl)
	if segOff+16 > total {
		return packet.ErrBadSRH
	}
	srh[packet.SRHOffSegmentsLeft] = sl
	copy(raw[24:40], srh[segOff:segOff+16]) // IPv6 destination = new active segment
	return nil
}

// DecapInner strips the outer IPv6 header and all its extension
// headers, returning the inner IPv6 packet ("SRv6 decapsulation is
// natively performed by the kernel", §4.2). It is the raw splice
// without the RFC 8986 SegmentsLeft gate the decap behaviours apply.
// The result aliases raw (see decapInner).
func DecapInner(raw []byte) ([]byte, error) {
	return decapInner(raw, isV6, FlavorUSD)
}

// decapInner is the one decapsulation: the raw splice behind
// DecapInner, the USD flavor and the End.DX/End.DT families. It walks
// the header chain with packet.ParseInfo (the accept set of
// packet.Parse, TLV chain included, without allocating), checks the
// upper layer against want (41, 4 or 143) and enforces the RFC 8986
// upper-layer rule: a packet whose SRH still has SegmentsLeft > 0 has
// segments to visit and MUST NOT be decapsulated mid-path unless the
// behaviour's flavors include USD.
//
// Like the kernel's decapsulation — a pointer move past the outer
// headers — the returned packet is raw[L4Off:], not a copy. That is
// sound because the hop processing raw owns it: a transmitted buffer
// belongs to the receiving node alone (senders clone templates, the
// link layer clones duplicates), and nothing keeps the outer headers
// once the behaviour returns. A caller that retains raw itself (the
// End.AS and End.AM proxies keep bytes for the return leg) must clone
// instead.
func decapInner(raw []byte, want func(uint8) bool, flavors Flavor) ([]byte, error) {
	info, err := packet.ParseInfo(raw)
	if err != nil {
		return nil, err
	}
	if !want(info.L4Proto) {
		return nil, ErrNotEncapsulated
	}
	if info.HasSRH() && info.SegmentsLeft > 0 && flavors&FlavorUSD == 0 {
		return nil, ErrSegmentsLeft
	}
	inner := raw[info.L4Off:]
	switch info.L4Proto {
	case packet.ProtoIPv6:
		_, err = packet.DecodeIPv6(inner)
	case packet.ProtoIPv4:
		_, err = packet.DecodeIPv4(inner)
	case packet.ProtoEthernet:
		_, err = packet.DecodeEthernet(inner)
	}
	if err != nil {
		return nil, err
	}
	return inner, nil
}

// stripSRH removes the SRH at srhOff from raw, rewiring the next-
// header field of the preceding header — the pop step of the PSP and
// USP flavors.
func stripSRH(raw []byte, srhOff, srhLen int) ([]byte, error) {
	if srhOff < packet.IPv6HeaderLen || srhOff+srhLen > len(raw) {
		return nil, packet.ErrTruncated
	}
	// Find the next-header byte pointing at the SRH: the base header's
	// (offset 6) or, in a chain, the preceding routing header's.
	nhPos := 6
	off := packet.IPv6HeaderLen
	proto := raw[6]
	for off < srhOff {
		if proto != packet.ProtoRouting || off+packet.SRHFixedLen > len(raw) {
			return nil, packet.ErrBadSRH
		}
		nhPos = off + packet.SRHOffNextHeader
		proto = raw[nhPos]
		off += (int(raw[off+packet.SRHOffHdrExtLen]) + 1) * 8
	}
	if off != srhOff || proto != packet.ProtoRouting {
		return nil, packet.ErrBadSRH
	}
	next := raw[srhOff+packet.SRHOffNextHeader]
	out := make([]byte, 0, len(raw)-srhLen)
	out = append(out, raw[:srhOff]...)
	out = append(out, raw[srhOff+srhLen:]...)
	out[nhPos] = next
	if err := packet.SetIPv6PayloadLen(out, len(out)-packet.IPv6HeaderLen); err != nil {
		return nil, err
	}
	return out, nil
}

// InsertSRH splices an SRH between the IPv6 header and the rest of
// the packet (the seg6 "inline" transit behaviour and End.B6). The
// IPv6 destination is rewritten to the SRH's active segment and the
// payload length fixed up.
func InsertSRH(raw []byte, srh *packet.SRH) ([]byte, error) {
	if len(raw) < packet.IPv6HeaderLen {
		return nil, packet.ErrTruncated
	}
	h, err := packet.DecodeIPv6(raw)
	if err != nil {
		return nil, err
	}
	s := *srh
	s.NextHeader = h.NextHeader
	enc, err := s.Encode(nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(raw)+len(enc))
	out = append(out, raw[:packet.IPv6HeaderLen]...)
	out = append(out, enc...)
	out = append(out, raw[packet.IPv6HeaderLen:]...)
	out[6] = packet.ProtoRouting // outer next header
	if err := packet.SetIPv6PayloadLen(out, len(out)-packet.IPv6HeaderLen); err != nil {
		return nil, err
	}
	active, err := s.ActiveSegment()
	if err != nil {
		return nil, err
	}
	if err := packet.SetIPv6Dst(out, active); err != nil {
		return nil, err
	}
	return out, nil
}

// innerMeta reads what the encapsulators take from the packet being
// wrapped: its next-header value in the outer chain (41 or 4), the hop
// limit (IPv4 TTL for an IPv4 inner) and the flow label (zero for
// IPv4).
func innerMeta(raw []byte) (proto, hl uint8, fl uint32, err error) {
	switch packet.IPVersion(raw) {
	case 6:
		h, err := packet.DecodeIPv6(raw)
		if err != nil {
			return 0, 0, 0, err
		}
		return packet.ProtoIPv6, h.HopLimit, h.FlowLabel, nil
	case 4:
		h, err := packet.DecodeIPv4(raw)
		if err != nil {
			return 0, 0, 0, err
		}
		return packet.ProtoIPv4, h.TTL, 0, nil
	}
	return 0, 0, 0, packet.ErrBadVersion
}

// encap is the one encapsulation body, the shape of the kernel's
// seg6_do_srh_encap: size the outer headers, get room for them in front
// of the inner bytes, write the outer IPv6 header and put the SRH behind
// it with its NextHeader patched to proto. The SRH comes either decoded
// (srh, encoded straight into the output) or already in wire format and
// validated by the caller (wire, copied verbatim); with neither the
// result is plain IP-in-IPv6.
//
// The room comes one of two ways. When inner is provably the tail of
// buf (packet.Headroom) with the outer headers' worth of bytes before
// it, they are written there — skb_push into headroom — and the result
// is again a tail of buf: no allocation, no copy. Otherwise (buf nil,
// stale, someone else's, or too short in front) the output is a fresh
// buffer of exactly the encapsulated size, the one allocation, and
// inner is copied in behind the headers.
func encap(buf, inner []byte, proto, hopLimit uint8, flowLabel uint32, src, dst netip.Addr, srh *packet.SRH, wire []byte) ([]byte, error) {
	srhLen := len(wire)
	if srh != nil {
		hel, err := srh.HdrExtLen()
		if err != nil {
			return nil, err
		}
		srhLen = (int(hel) + 1) * 8
	}
	payloadLen := srhLen + len(inner)
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("seg6: encapsulated payload %d exceeds IPv6 payload length", payloadLen)
	}
	outer := packet.IPv6{
		FlowLabel:  flowLabel,
		PayloadLen: uint16(payloadLen),
		NextHeader: proto,
		HopLimit:   hopLimit,
		Src:        src,
		Dst:        dst,
	}
	if srhLen > 0 {
		outer.NextHeader = packet.ProtoRouting
	}
	hdrLen := packet.IPv6HeaderLen + srhLen
	var out []byte
	if head := packet.Headroom(buf, inner); head >= hdrLen {
		out = buf[head-hdrLen:]
	} else {
		// A plain allocation, like InsertSRH's and DecapSRH's: the packet
		// leaves the buffer it came in, and if that one was from a node's
		// free list (netsim.Node.PacketBuf) neither returns there. No
		// committed workload brings a listed packet here — tcpsim's have
		// the headroom, the generators' meet no tunnel ingress — so these
		// three stay as they are until one does.
		out = make([]byte, hdrLen+len(inner))
		copy(out[hdrLen:], inner)
	}
	hdr := outer.Encode(out[:0])
	if srh != nil {
		srh.Encode(hdr) // cannot fail: HdrExtLen passed above
	} else {
		copy(out[packet.IPv6HeaderLen:], wire)
	}
	if srhLen > 0 {
		out[packet.IPv6HeaderLen+packet.SRHOffNextHeader] = proto
	}
	return out, nil
}

// Encap wraps raw (IPv6 or IPv4) in a new outer IPv6 header carrying
// srh (the seg6 "encap" transit behaviour, H.Encaps / T.Encaps). The
// outer destination is the SRH's active segment; the hop limit is
// copied from the inner packet as the kernel does — the forwarding
// engine decrements the inner hop limit before encapsulating a
// transit packet, mirroring ip6_forward running before the lwtunnel
// output. srh is encoded straight into the one output buffer and is
// not modified.
func Encap(raw []byte, outerSrc netip.Addr, srh *packet.SRH) ([]byte, error) {
	return EncapIn(nil, raw, outerSrc, srh)
}

// EncapIn is Encap for a caller that holds the allocation raw arrived
// in: when raw is that allocation's tail and enough of it lies in front
// (see encap), the outer headers are written there and the result
// shares raw's memory; in every other case it is Encap. buf is never
// trusted, only compared, so passing a stale one is harmless.
func EncapIn(buf, raw []byte, outerSrc netip.Addr, srh *packet.SRH) ([]byte, error) {
	proto, hl, fl, err := innerMeta(raw)
	if err != nil {
		return nil, err
	}
	active, err := srh.ActiveSegment()
	if err != nil {
		return nil, err
	}
	return encap(buf, raw, proto, hl, fl, outerSrc, active, srh, nil)
}

// EncapWire is Encap for an SRH a program built in wire format (the
// bpf_lwt_push_encap and End.B6.Encaps helpers). As the kernel does,
// it validates the bytes (packet.ValidateSRHBytes — the checks of
// DecodeSRH without building the decoded form — plus the header
// filling srh exactly and SegmentsLeft naming a listed segment) and
// copies them in front of the inner packet verbatim, only NextHeader
// patched.
func EncapWire(raw []byte, outerSrc netip.Addr, srh []byte) ([]byte, error) {
	return EncapWireIn(nil, raw, outerSrc, srh)
}

// EncapWireIn is to EncapWire what EncapIn is to Encap.
func EncapWireIn(buf, raw []byte, outerSrc netip.Addr, srh []byte) ([]byte, error) {
	if err := packet.ValidateSRHBytes(srh); err != nil {
		return nil, err
	}
	sl, last := srh[packet.SRHOffSegmentsLeft], srh[packet.SRHOffLastEntry]
	if (int(srh[packet.SRHOffHdrExtLen])+1)*8 != len(srh) || sl > last {
		return nil, packet.ErrBadSRH
	}
	proto, hl, fl, err := innerMeta(raw)
	if err != nil {
		return nil, err
	}
	segOff := packet.SRHOffSegments + 16*int(sl)
	active := netip.AddrFrom16([16]byte(srh[segOff : segOff+16]))
	return encap(buf, raw, proto, hl, fl, outerSrc, active, nil, srh)
}

// EncapRed is Encap in the reduced form of RFC 8986 §5.2 (H.Encaps.Red
// / End.B6.Encaps.Red): the first segment travels only in the outer
// destination address and is omitted from the SRH, whose SegmentsLeft
// then points one past LastEntry. A single-segment policy degenerates
// to plain IP-in-IPv6 with no SRH at all.
func EncapRed(raw []byte, outerSrc netip.Addr, srh *packet.SRH) ([]byte, error) {
	return EncapRedIn(nil, raw, outerSrc, srh)
}

// EncapRedIn is to EncapRed what EncapIn is to Encap.
func EncapRedIn(buf, raw []byte, outerSrc netip.Addr, srh *packet.SRH) ([]byte, error) {
	proto, hl, fl, err := innerMeta(raw)
	if err != nil {
		return nil, err
	}
	first, err := srh.ActiveSegment()
	if err != nil {
		return nil, err
	}
	if len(srh.Segments) <= 1 {
		return encap(buf, raw, proto, hl, fl, outerSrc, first, nil, nil)
	}
	red := *srh
	// Wire order is reversed, so the first-travel segment is the last
	// list entry; dropping 16 bytes keeps the 8-byte TLV alignment.
	red.Segments = srh.Segments[:len(srh.Segments)-1]
	red.LastEntry = uint8(len(red.Segments) - 1)
	return encap(buf, raw, proto, hl, fl, outerSrc, first, &red, nil)
}

// EncapL2 wraps an Ethernet frame in an outer IPv6 header carrying
// srh (the H.Encaps.L2 headend); the egress End.DX2 unwraps it.
func EncapL2(frame []byte, outerSrc netip.Addr, srh *packet.SRH) ([]byte, error) {
	if srh == nil {
		return nil, fmt.Errorf("%w: H.Encaps.L2 needs an SRH", ErrBadBehaviour)
	}
	if _, err := packet.DecodeEthernet(frame); err != nil {
		return nil, err
	}
	active, err := srh.ActiveSegment()
	if err != nil {
		return nil, err
	}
	return encap(nil, frame, packet.ProtoEthernet, 64, 0, outerSrc, active, srh, nil)
}
