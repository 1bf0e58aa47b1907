package core_test

import (
	"bytes"
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

// bpf_lwt_seg6_adjust_srh growing the SRH builds the longer packet in a
// buffer of the node's free list: a used one, which the helper must make
// look new, and one the hop takes over only if the run succeeds.

// growSpec grows the SRH by 8 bytes at its end, stores tlvHead (the first
// bytes of the new TLV) there, then runs tail.
func growSpec(tlvHead []byte, tail ...asm.Instruction) *bpf.ProgramSpec {
	insns := asm.Instructions{
		asm.Mov64Reg(asm.R6, asm.R1),
		asm.LoadMem(asm.R7, asm.R6, core.CtxOffData, asm.DWord),
		asm.LoadMem(asm.R8, asm.R6, core.CtxOffDataEnd, asm.DWord),
		asm.Mov64Reg(asm.R2, asm.R7),
		asm.ALU64Imm(asm.Add, asm.R2, 48),
		asm.JumpReg(asm.JGT, asm.R2, asm.R8, "drop"),
		// r9 = offset one past the SRH = 40 + (hdrlen+1)*8.
		asm.LoadMem(asm.R9, asm.R7, 41, asm.Byte),
		asm.ALU64Imm(asm.Add, asm.R9, 1),
		asm.ALU64Imm(asm.LSh, asm.R9, 3),
		asm.ALU64Imm(asm.Add, asm.R9, 40),
		asm.Mov64Reg(asm.R1, asm.R6),
		asm.Mov64Reg(asm.R2, asm.R9),
		asm.Mov64Imm(asm.R3, 8),
		asm.CallHelper(bpf.HelperLWTSeg6AdjustSRH),
		asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
	}
	for i, b := range tlvHead {
		insns = append(insns, asm.StoreImm(asm.RFP, int16(i-len(tlvHead)), int32(b), asm.Byte))
	}
	insns = append(insns,
		asm.Mov64Reg(asm.R1, asm.R6),
		asm.Mov64Reg(asm.R2, asm.R9),
		asm.Mov64Reg(asm.R3, asm.RFP),
		asm.ALU64Imm(asm.Add, asm.R3, int32(-len(tlvHead))),
		asm.Mov64Imm(asm.R4, int32(len(tlvHead))),
		asm.CallHelper(bpf.HelperLWTSeg6StoreByte),
		asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
	)
	insns = append(insns, tail...)
	insns = append(insns,
		asm.Mov64Imm(asm.R0, core.BPFOK),
		asm.Return(),
		asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
		asm.Return(),
	)
	return &bpf.ProgramSpec{Name: "grow_test", Instructions: insns, License: "GPL"}
}

// sendListed sends what rig.send sends, in a buffer of A's free list.
func (g *rig) sendListed(t *testing.T) {
	t.Helper()
	srh := packet.NewSRH([]netip.Addr{sid, dstB})
	buf, err := packet.BuildPacketIn(g.a.PacketBuf, 0, srcA, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 9), packet.WithPayload(bytes.Repeat([]byte{0xee}, 32)))
	if err != nil {
		t.Fatal(err)
	}
	g.a.OutputBuf(buf, 0)
	g.sim.Run()
}

// TestAdjustSRHGrowZeroesTheGap: the program fills only the first two of
// the eight bytes it made room for (a PadN header). The other six are
// zero on the wire, also when the buffer the packet grew into last held
// another packet — here the one before it, whose UDP header lay there.
func TestAdjustSRHGrowZeroesTheGap(t *testing.T) {
	g := newRig(t, growSpec([]byte{packet.TLVTypePadN, 6}))
	var got [][]byte
	g.b.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		got = append(got, bytes.Clone(p.Raw))
		n.Release(meta)
	})
	for i := 0; i < 3; i++ {
		g.sendListed(t)
	}
	if len(got) != 3 {
		t.Fatalf("%d of 3 packets arrived; R: %v", len(got), g.r.Counters())
	}
	const gap = packet.IPv6HeaderLen + packet.SRHFixedLen + 32 // where the SRH ended
	for i, raw := range got {
		if want := []byte{packet.TLVTypePadN, 6, 0, 0, 0, 0, 0, 0}; !bytes.Equal(raw[gap:gap+8], want) {
			t.Errorf("packet %d: the new TLV reads %x, want %x", i, raw[gap:gap+8], want)
		}
	}
	if st := g.sim.EngineStats(); st.BufReuses == 0 {
		t.Fatalf("no buffer was reused (%d gets): the test did not grow a packet into a used one", st.BufGets)
	}
}

// TestAdjustSRHGrowThenFailKeepsTheOriginal: a program that grows the
// packet and then faults, or leaves an SRH that fails revalidation, is a
// dropped packet like any other — its own buffer has not gone back to the
// free list, where the next sender would have found it.
func TestAdjustSRHGrowThenFailKeepsTheOriginal(t *testing.T) {
	for name, spec := range map[string]*bpf.ProgramSpec{
		"fault":        growSpec([]byte{packet.TLVTypePadN, 6}, asm.LoadMem(asm.R0, asm.R7, 4096, asm.Word)),
		"revalidation": growSpec([]byte{0x42, 200}),
	} {
		g := newRig(t, spec)
		g.sendListed(t)
		if c := g.r.Counters(); c["drop_seg6local_error"] != 1 || g.gotB != nil {
			t.Fatalf("%s: the packet was not dropped as a program error; R: %v", name, c)
		}
		g.a.PacketBuf(128)
		if st := g.sim.EngineStats(); st.BufReuses != 0 {
			t.Errorf("%s: the dropped packet's buffer was released (%d of %d gets reused one)", name, st.BufReuses, st.BufGets)
		}
	}
}

// TestAdjustSRHGrowRefusedLeavesTheHopItsBuffer: a growth the helper
// refuses after it has built the longer packet (the IPv6 payload length
// would pass 65,535) returns EINVAL and leaves the packet where it was. A
// program that carries on regardless succeeds, and the hop must go on in
// the allocation the packet arrived in — not adopt the abandoned copy,
// which would put the buffer of a packet in flight on the free list.
func TestAdjustSRHGrowRefusedLeavesTheHopItsBuffer(t *testing.T) {
	g := newRig(t, &bpf.ProgramSpec{Name: "grow_refused", License: "GPL", Instructions: asm.Instructions{
		asm.Mov64Imm(asm.R2, packet.IPv6HeaderLen+packet.SRHFixedLen+32),
		asm.Mov64Imm(asm.R3, 8),
		asm.CallHelper(bpf.HelperLWTSeg6AdjustSRH),
		asm.JumpImm(asm.JEq, asm.R0, 0, "grew"),
		asm.Mov64Imm(asm.R0, core.BPFOK),
		asm.Return(),
		asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("grew"),
		asm.Return(),
	}})
	const reserve = 8
	headroom := -1
	g.b.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		headroom = packet.Headroom(meta.Buf, p.Raw)
	})
	srh := packet.NewSRH([]netip.Addr{sid, dstB})
	payload := make([]byte, 0xffff-packet.SRHFixedLen-32-packet.UDPHeaderLen) // payload length 65,535
	buf, err := packet.BuildPacketIn(g.a.PacketBuf, reserve, srcA, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 9), packet.WithPayload(payload))
	if err != nil {
		t.Fatal(err)
	}
	g.a.OutputBuf(buf, reserve)
	g.sim.Run()
	if headroom != reserve {
		t.Fatalf("at B the packet has %d bytes of headroom in the hop's buffer, want the sender's %d (-1: not delivered); R: %v",
			headroom, reserve, g.r.Counters())
	}
}
