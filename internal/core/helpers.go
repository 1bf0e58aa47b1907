package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/vm"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// env extracts the execution environment, failing the program run on
// misuse (a harness bug, not a program bug).
func env(m *vm.Machine) (*execEnv, error) {
	e, ok := m.HelperContext.(*execEnv)
	if !ok {
		return nil, fmt.Errorf("core: helper context is %T, not *execEnv", m.HelperContext)
	}
	return e, nil
}

// helperSeg6StoreBytes implements bpf_lwt_seg6_store_bytes: an
// indirect write into the SRH limited to the flags, tag and TLV
// fields (§3.1). Violations return -EPERM to the program; the packet
// is untouched.
func helperSeg6StoreBytes(m *vm.Machine, r1, r2, r3, r4, _ uint64) (uint64, error) {
	e, err := env(m)
	if err != nil {
		return 0, err
	}
	off, n := int(int64(r2)), int(int64(r4))
	if n <= 0 || n > packet.IPv6HeaderLen+4096 {
		return bpf.Errno(bpf.EINVAL), nil
	}
	if err := e.checkWritable(off, n); err != nil {
		return bpf.Errno(bpf.EINVAL), nil
	}
	data, err := m.Mem.Bytes(r3, n)
	if err != nil {
		return 0, err // invalid program memory: abort the program
	}
	copy(e.pkt[off:off+n], data)
	e.srhModified = true
	return 0, nil
}

// helperSeg6AdjustSRH implements bpf_lwt_seg6_adjust_srh: grow or
// shrink the TLV area by delta bytes at offset. The SRH length field
// and the IPv6 payload length are maintained here, as the kernel
// does; the program must then fill grown space with valid TLVs or the
// post-run validation drops the packet.
func helperSeg6AdjustSRH(m *vm.Machine, r1, r2, r3, _, _ uint64) (uint64, error) {
	e, err := env(m)
	if err != nil {
		return 0, err
	}
	off := int(int64(r2))
	delta := int(int32(uint32(r3)))
	if delta == 0 {
		return 0, nil
	}
	if delta%8 != 0 {
		// The SRH length is counted in 8-byte units.
		return bpf.Errno(bpf.EINVAL), nil
	}
	start, end, err := e.srhBounds()
	if err != nil {
		return bpf.Errno(bpf.EINVAL), nil
	}
	tlv, err := e.tlvAreaStart()
	if err != nil {
		return bpf.Errno(bpf.EINVAL), nil
	}
	if off < tlv || off > end {
		return bpf.Errno(bpf.EINVAL), nil
	}
	hdrLen := int(e.pkt[start+packet.SRHOffHdrExtLen])
	newHdrLen := hdrLen + delta/8
	if newHdrLen < 0 || newHdrLen > 255 {
		return bpf.Errno(bpf.EINVAL), nil
	}

	var out []byte
	if delta > 0 {
		// The grown packet is built in a buffer of the node's free list,
		// whose content is whatever the last packet left there: the gap is
		// zeroed here. The packet's own allocation stays as it is — the run
		// may yet fail — and is released where the hop takes the new one
		// (adoptGrown).
		out = e.node.PacketBuf(len(e.pkt) + delta)
		copy(out, e.pkt[:off])
		clear(out[off : off+delta])
		copy(out[off+delta:], e.pkt[off:])
	} else {
		if off-delta > end {
			return bpf.Errno(bpf.EINVAL), nil
		}
		out = make([]byte, 0, len(e.pkt)+delta)
		out = append(out, e.pkt[:off]...)
		out = append(out, e.pkt[off-delta:]...)
	}
	out[start+packet.SRHOffHdrExtLen] = uint8(newHdrLen)
	if err := packet.SetIPv6PayloadLen(out, len(out)-packet.IPv6HeaderLen); err != nil {
		return bpf.Errno(bpf.EINVAL), nil
	}
	e.srhModified = true
	e.setPacket(out)
	if delta > 0 {
		e.grown = out
	} else {
		e.grown = nil // the packet left the list's buffer for a made one
	}
	return 0, nil
}

// helperSeg6Action implements bpf_lwt_seg6_action: apply a static
// SRv6 behaviour from inside the program (§3.1: End.X, End.T, End.B6,
// End.B6.Encaps, End.DT6). Behaviours that decide the next hop store
// their result as the pending redirect; the program should return
// BPF_REDIRECT so the default lookup does not overwrite it.
func helperSeg6Action(m *vm.Machine, r1, r2, r3, r4, _ uint64) (uint64, error) {
	e, err := env(m)
	if err != nil {
		return 0, err
	}
	action := seg6.Action(r2)
	plen := int(int64(r4))
	if plen < 0 || plen > 4096 {
		return bpf.Errno(bpf.EINVAL), nil
	}
	param, err := m.Mem.Bytes(r3, plen)
	if err != nil {
		return 0, err
	}

	switch action {
	case seg6.ActionEndX:
		if plen != 16 {
			return bpf.Errno(bpf.EINVAL), nil
		}
		nh := netip.AddrFrom16([16]byte(param))
		e.setPending(seg6.Result{Verdict: seg6.VerdictForwardNexthop, Nexthop: nh})
		return 0, nil

	case seg6.ActionEndT:
		if plen != 4 {
			return bpf.Errno(bpf.EINVAL), nil
		}
		table := int(binary.LittleEndian.Uint32(param))
		e.setPending(seg6.Result{Verdict: seg6.VerdictForwardTable, Table: table})
		return 0, nil

	case seg6.ActionEndB6:
		srh, n, err := packet.DecodeSRH(param)
		if err != nil || n != plen {
			return bpf.Errno(bpf.EINVAL), nil
		}
		out, err := seg6.InsertSRH(e.pkt, &srh)
		if err != nil {
			return bpf.Errno(bpf.EINVAL), nil
		}
		e.setPacket(out)
		e.setPending(seg6.Result{Verdict: seg6.VerdictForward})
		return 0, nil

	case seg6.ActionEndB6Encap:
		// The SRH was already advanced by End.BPF; encapsulate the
		// updated packet behind the program's SRH bytes, in the
		// packet's own headroom when it has it.
		out, err := seg6.EncapWireIn(e.buf(), e.pkt, e.node.PrimaryAddress(), param)
		if err != nil {
			return bpf.Errno(bpf.EINVAL), nil
		}
		e.setPacket(out)
		e.setPending(seg6.Result{Verdict: seg6.VerdictForward})
		return 0, nil

	case seg6.ActionEndDT6:
		if plen != 4 {
			return bpf.Errno(bpf.EINVAL), nil
		}
		table := int(binary.LittleEndian.Uint32(param))
		inner, err := seg6.DecapInner(e.pkt)
		if err != nil {
			return bpf.Errno(bpf.EINVAL), nil
		}
		e.setPacket(inner)
		e.setPending(seg6.Result{Verdict: seg6.VerdictForwardTable, Table: table})
		return 0, nil

	default:
		return bpf.Errno(bpf.EINVAL), nil
	}
}

// helperLWTPushEncap implements bpf_lwt_push_encap for the transit
// hook: the program builds an SRH in its own memory and the helper
// encapsulates (or inlines) it onto the packet. Encapsulation works on
// the program's bytes as the kernel's seg6_do_srh_encap does —
// seg6.EncapWireIn validates them and copies them in front of the
// packet, into its headroom when the sender reserved some (skb_push),
// else into a new buffer — so the SRH is never decoded; only the
// inline mode, which splices a decoded SRH into a new buffer, still
// does.
func helperLWTPushEncap(m *vm.Machine, r1, r2, r3, r4, _ uint64) (uint64, error) {
	e, err := env(m)
	if err != nil {
		return 0, err
	}
	mode := uint32(r2)
	n := int(int64(r4))
	if n <= 0 || n > 4096 {
		return bpf.Errno(bpf.EINVAL), nil
	}
	hdr, err := m.Mem.Bytes(r3, n)
	if err != nil {
		return 0, err
	}

	var out []byte
	switch mode {
	case EncapSeg6:
		out, err = seg6.EncapWireIn(e.buf(), e.pkt, e.node.PrimaryAddress(), hdr)
	case EncapSeg6Inline:
		srh, decoded, derr := packet.DecodeSRH(hdr)
		if derr != nil || decoded != n {
			return bpf.Errno(bpf.EINVAL), nil
		}
		out, err = seg6.InsertSRH(e.pkt, &srh)
	default:
		return bpf.Errno(bpf.EINVAL), nil
	}
	if err != nil {
		return bpf.Errno(bpf.EINVAL), nil
	}
	e.setPacket(out)
	return 0, nil
}

// helperSeg6ECMPNexthops implements the custom helper of §4.3: query
// the FIB for the ECMP nexthops of a destination address ("our custom
// helper returning the ECMP nexthops for a given address required
// only 50 SLOC in the kernel"). r2 points at the 16-byte destination,
// r3/r4 at an output buffer; the return value is the nexthop count.
func helperSeg6ECMPNexthops(m *vm.Machine, r1, r2, r3, r4, _ uint64) (uint64, error) {
	e, err := env(m)
	if err != nil {
		return 0, err
	}
	daddr, err := m.Mem.Bytes(r2, 16)
	if err != nil {
		return 0, err
	}
	outLen := int(int64(r4))
	if outLen < 16 {
		return bpf.Errno(bpf.EINVAL), nil
	}
	max := outLen / 16
	nhs := e.resolveECMPNexthops(netip.AddrFrom16([16]byte(daddr)), max)
	buf := make([]byte, 16*len(nhs))
	for i, nh := range nhs {
		a := nh.As16()
		copy(buf[16*i:], a[:])
	}
	if len(buf) > 0 {
		if err := m.Mem.WriteBytes(r3, buf); err != nil {
			return 0, err
		}
	}
	return uint64(len(nhs)), nil
}

// Compile-time assertion that execEnv satisfies the generic helper
// environment.
var _ bpf.ExecContext = (*execEnv)(nil)

// Compile-time assertions for the attachment interfaces.
var (
	_ netsim.Seg6LocalProgram = (*EndBPF)(nil)
	_ netsim.LWTProgram       = (*LWT)(nil)
)
