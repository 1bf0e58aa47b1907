package core

import (
	"errors"
	"fmt"
	"net/netip"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// execEnv is the per-invocation environment behind the helpers: the
// node executing the program, the packet being processed, and the
// SRv6 state the kernel keeps in seg6_bpf_srh_state.
type execEnv struct {
	node *netsim.Node
	meta *netsim.PacketMeta

	// pkt is the working packet. Helpers may replace it (push_encap,
	// seg6_action End.B6/DT6); setPacket keeps the VM's packet region
	// and the ctx in sync.
	pkt []byte

	// srhOff is the byte offset of the outermost SRH, or -1.
	srhOff int

	// grown is the free-list buffer adjust_srh last built a longer packet
	// in, nil when it has not.
	grown []byte

	// srhModified is set by store_bytes/adjust_srh: the SRH must be
	// revalidated after the program returns (§3.1).
	srhModified bool

	// pending is the verdict prepared by bpf_lwt_seg6_action for
	// BPF_REDIRECT ("the default endpoint lookup must not be
	// performed, and the packet must be forwarded to the destination
	// already set in the packet metadata"), valid when hasPending. Kept
	// by value: the environment is reused, a verdict per call would be
	// a heap object per packet.
	pending    seg6.Result
	hasPending bool

	// refreshRegions re-installs packet memory after pkt replacement.
	// It is bound once at attach time; beginRun preserves it.
	refreshRegions func(env *execEnv)

	// printkPrefix tags trace output with the program name. Set once
	// at attach time.
	printkPrefix string
}

// beginRun resets the reusable environment for one program
// invocation. The attachment owns exactly one execEnv (nodes are
// single-threaded), so the per-packet path allocates nothing.
func (e *execEnv) beginRun(node *netsim.Node, meta *netsim.PacketMeta, pkt []byte, srhOff int) {
	e.node = node
	e.meta = meta
	e.pkt = pkt
	e.srhOff = srhOff
	e.grown = nil
	e.srhModified = false
	e.hasPending = false
}

// adoptGrown tells the node, once the run has succeeded, that the packet
// it gets back lives in a buffer from its free list (the contract of
// netsim.Seg6LocalProgram): the node releases the one the packet came in.
// Should a later helper have moved the packet on to yet another buffer,
// the node finds that the packet is not in this one and recycles neither.
func (e *execEnv) adoptGrown() {
	if e.grown != nil && e.meta != nil {
		e.meta.Buf = e.grown
	}
}

// setPending records the verdict a BPF_REDIRECT return will take.
func (e *execEnv) setPending(res seg6.Result) { e.pending, e.hasPending = res, true }

// buf is the allocation the packet arrived in, for the helpers that
// encapsulate (see netsim.PacketMeta.Buf); nil when the caller gave no
// metadata.
func (e *execEnv) buf() []byte {
	if e.meta == nil {
		return nil
	}
	return e.meta.Buf
}

// Now implements bpf.ExecContext against virtual time (the executing
// node's shard clock, exact under sharded runs).
func (e *execEnv) Now() int64 { return e.node.Now() }

// Random implements bpf.ExecContext with the node's seeded private
// stream, so program draws are deterministic per node regardless of
// shard layout or other nodes' activity.
func (e *execEnv) Random() uint32 { return e.node.Rand().Uint32() }

// Printk implements bpf.ExecContext.
func (e *execEnv) Printk(msg string) {
	if e.node.Trace != nil {
		e.node.Trace("%s: bpf_trace_printk: %s", e.printkPrefix, msg)
	}
}

// setPacket replaces the working packet and refreshes derived state.
func (e *execEnv) setPacket(pkt []byte) {
	e.pkt = pkt
	e.srhOff = -1
	if info, err := packet.ParseInfo(pkt); err == nil && info.HasSRH() {
		e.srhOff = info.SRHOff
	}
	if e.refreshRegions != nil {
		e.refreshRegions(e)
	}
}

// srhBounds returns the SRH byte range within the packet.
func (e *execEnv) srhBounds() (start, end int, err error) {
	if e.srhOff < 0 {
		return 0, 0, seg6.ErrNoSRH
	}
	start = e.srhOff
	if start+packet.SRHFixedLen > len(e.pkt) {
		return 0, 0, packet.ErrTruncated
	}
	end = start + (int(e.pkt[start+packet.SRHOffHdrExtLen])+1)*8
	if end > len(e.pkt) {
		return 0, 0, packet.ErrTruncated
	}
	return start, end, nil
}

// tlvAreaStart returns the first byte after the segment list.
func (e *execEnv) tlvAreaStart() (int, error) {
	start, end, err := e.srhBounds()
	if err != nil {
		return 0, err
	}
	nSegs := int(e.pkt[start+packet.SRHOffLastEntry]) + 1
	tlv := start + packet.SRHFixedLen + 16*nSegs
	if tlv > end {
		return 0, packet.ErrBadSRH
	}
	return tlv, nil
}

// errWritableRange rejects store_bytes outside the fields §3.1
// permits: "the flags, the tag, and the TLVs".
var errWritableRange = errors.New("core: seg6_store_bytes outside flags/tag/TLV area")

// checkWritable validates a [off, off+n) write range against the
// permitted SRH fields.
func (e *execEnv) checkWritable(off, n int) error {
	if n <= 0 {
		return fmt.Errorf("core: non-positive store length %d", n)
	}
	start, end, err := e.srhBounds()
	if err != nil {
		return err
	}
	tlv, err := e.tlvAreaStart()
	if err != nil {
		return err
	}
	lo, hi := off, off+n
	flagsOff := start + packet.SRHOffFlags
	tagOff := start + packet.SRHOffTag
	switch {
	case lo >= flagsOff && hi <= tagOff+2:
		// flags (1 byte) and tag (2 bytes) are contiguous: [5,8).
		return nil
	case lo >= tlv && hi <= end:
		return nil
	default:
		return fmt.Errorf("%w: [%d,%d) (flags/tag [%d,%d), TLVs [%d,%d))",
			errWritableRange, lo, hi, flagsOff, tagOff+2, tlv, end)
	}
}

// resolveECMPNexthops performs the FIB query of the paper's custom
// helper (§4.3): the ECMP nexthop addresses for dst on this node.
func (e *execEnv) resolveECMPNexthops(dst netip.Addr, max int) []netip.Addr {
	r := e.node.Lookup(dst, netsim.MainTable)
	if r == nil {
		return nil
	}
	var out []netip.Addr
	for _, nh := range r.Nexthops {
		if len(out) >= max {
			break
		}
		addr := nh.Gateway
		if !addr.IsValid() && nh.Iface != nil && nh.Iface.Peer() != nil {
			addr = nh.Iface.Peer().Node.PrimaryAddress()
		}
		if addr.IsValid() {
			out = append(out, addr)
		}
	}
	return out
}
