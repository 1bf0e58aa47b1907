package core_test

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

var (
	srcA = netip.MustParseAddr("2001:db8:a::1")
	dstB = netip.MustParseAddr("2001:db8:b::1")
	dstC = netip.MustParseAddr("2001:db8:c::1")
	sid  = netip.MustParseAddr("fc00:1::1")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// rig is a star topology: A -- R -- B and R -- C, with an End.BPF SID
// on R, so verdict routing (FIB, nexthop, table) can be observed.
type rig struct {
	sim        *netsim.Sim
	a, r, b, c *netsim.Node
	rbIf, rcIf *netsim.Iface
	gotB, gotC *packet.Packet
}

func newRig(t *testing.T, spec *bpf.ProgramSpec) *rig {
	t.Helper()
	sim := netsim.New(1)
	g := &rig{
		sim: sim,
		a:   sim.AddNode("A", netsim.HostCostModel()),
		r:   sim.AddNode("R", netsim.ServerCostModel()),
		b:   sim.AddNode("B", netsim.HostCostModel()),
		c:   sim.AddNode("C", netsim.HostCostModel()),
	}
	g.a.AddAddress(srcA)
	g.b.AddAddress(dstB)
	g.c.AddAddress(dstC)
	g.r.AddAddress(netip.MustParseAddr("2001:db8:10::1"))

	fast := netem.Config{RateBps: 1e10, DelayNs: netsim.Microsecond}
	aIf, raIf := netsim.ConnectSymmetric(g.a, g.r, fast)
	rbIf, bIf := netsim.ConnectSymmetric(g.r, g.b, fast)
	rcIf, cIf := netsim.ConnectSymmetric(g.r, g.c, fast)
	g.rbIf, g.rcIf = rbIf, rcIf

	g.a.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: aIf}}})
	g.b.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: bIf}}})
	g.c.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cIf}}})
	g.r.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:a::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: raIf}}})
	g.r.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:b::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rbIf}}})
	g.r.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:c::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rcIf}}})

	// A full parse of the bytes: the view a handler is given has the TLV
	// area checked but not decoded, and is the node's scratch.
	g.b.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) { g.gotB, _ = packet.Parse(p.Raw) })
	g.c.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) { g.gotC, _ = packet.Parse(p.Raw) })

	if spec != nil {
		prog, err := bpf.LoadProgram(spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
		if err != nil {
			t.Fatalf("LoadProgram: %v", err)
		}
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			t.Fatalf("AttachEndBPF: %v", err)
		}
		g.r.AddRoute(&netsim.Route{
			Prefix:    netip.PrefixFrom(sid, 128),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: end.Behaviour(),
		})
	}
	return g
}

// send emits an SRv6 packet through the SID towards finalDst.
func (g *rig) send(t *testing.T, finalDst netip.Addr, tlvs ...packet.TLV) {
	t.Helper()
	srh := packet.NewSRH([]netip.Addr{sid, finalDst}, tlvs...)
	raw, err := packet.BuildPacket(srcA, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 9), packet.WithPayload(make([]byte, 32)))
	if err != nil {
		t.Fatal(err)
	}
	g.a.Output(raw)
	g.sim.Run()
}

// actionSpec builds a program that calls bpf_lwt_seg6_action with the
// given action and parameter bytes, then returns BPF_REDIRECT.
func actionSpec(action seg6.Action, param []byte) *bpf.ProgramSpec {
	insns := asm.Instructions{asm.Mov64Reg(asm.R6, asm.R1)}
	// Write param onto the stack byte by byte.
	off := -int16(len(param))
	for i, b := range param {
		insns = append(insns, asm.StoreImm(asm.RFP, off+int16(i), int32(b), asm.Byte))
	}
	insns = append(insns,
		asm.Mov64Reg(asm.R1, asm.R6),
		asm.Mov64Imm(asm.R2, int32(action)),
		asm.Mov64Reg(asm.R3, asm.RFP),
		asm.ALU64Imm(asm.Add, asm.R3, int32(off)),
		asm.Mov64Imm(asm.R4, int32(len(param))),
		asm.CallHelper(bpf.HelperLWTSeg6Action),
		asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
		asm.Mov64Imm(asm.R0, core.BPFRedirect),
		asm.Return(),
		asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
		asm.Return(),
	)
	return &bpf.ProgramSpec{Name: "action_test", Instructions: insns, License: "GPL"}
}

func TestSeg6ActionEndX(t *testing.T) {
	// End.X towards C's address even though the segment list says B.
	nh := dstC.As16()
	g := newRig(t, actionSpec(seg6.ActionEndX, nh[:]))
	g.send(t, dstB)
	// The packet's IPv6 dst is B (next segment) but it was steered out
	// R's C-facing interface; C's node sees dst=B and... forwards it
	// back per default route. Observe the egress interface instead.
	if g.rcIf.TxPackets == 0 {
		t.Fatalf("End.X did not steer out the C interface (B got %v)", g.gotB)
	}
}

func TestSeg6ActionEndT(t *testing.T) {
	// Table 5 routes B's prefix towards C: proves the lookup happened
	// in the program-selected table.
	g := newRig(t, actionSpec(seg6.ActionEndT, []byte{5, 0, 0, 0}))
	g.r.Table(5).Add(&netsim.Route{
		Prefix: pfx("2001:db8:b::/48"), Kind: netsim.RouteForward,
		Nexthops: []netsim.Nexthop{{Iface: g.rcIf}},
	})
	g.send(t, dstB)
	if g.rcIf.TxPackets == 0 {
		t.Fatal("End.T lookup did not use table 5")
	}
}

func TestSeg6ActionEndB6(t *testing.T) {
	// End.B6 pushes an extra SRH routing via C's SID... via C's addr.
	srh := packet.NewSRH([]netip.Addr{dstC})
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, actionSpec(seg6.ActionEndB6, enc))
	g.send(t, dstB)
	if g.rcIf.TxPackets == 0 {
		t.Fatal("End.B6 did not steer towards the inserted SRH's segment")
	}
}

func TestSeg6ActionEndB6Encaps(t *testing.T) {
	srh := packet.NewSRH([]netip.Addr{dstC})
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, actionSpec(seg6.ActionEndB6Encap, enc))
	// C terminates the outer tunnel (End.DT6 on its own address).
	g.c.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(dstC, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable},
	})
	g.send(t, dstB)
	// Inner packet continues to B after decap at C.
	if g.gotB == nil {
		t.Fatalf("inner packet never reached B; C counters: %v", g.c.Counters())
	}
	if g.gotB.SRH == nil || g.gotB.SRH.SegmentsLeft != 0 {
		t.Errorf("inner SRH state: %s", g.gotB.Summary())
	}
}

func TestSeg6ActionEndDT6(t *testing.T) {
	// Build an encapsulated packet: outer to the SID, inner to B.
	inner, err := packet.BuildPacket(srcA, dstB, packet.WithUDP(1, 9), packet.WithPayload([]byte("inner")))
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, actionSpec(seg6.ActionEndDT6, []byte{0, 0, 0, 0}))
	srh := packet.NewSRH([]netip.Addr{sid, dstB})
	outer, err := packet.BuildPacket(srcA, sid, packet.WithSRH(srh), packet.WithInnerPacket(inner))
	if err != nil {
		t.Fatal(err)
	}
	g.a.Output(outer)
	g.sim.Run()
	if g.gotB == nil {
		t.Fatalf("decapsulated packet missing; R: %v", g.r.Counters())
	}
	if g.gotB.SRH != nil {
		t.Errorf("outer SRH survived decap: %s", g.gotB.Summary())
	}
	if !bytes.HasSuffix(g.gotB.Raw, []byte("inner")) {
		t.Error("inner payload corrupted")
	}
}

func TestRedirectWithoutActionDrops(t *testing.T) {
	spec := &bpf.ProgramSpec{
		Name: "bare_redirect",
		Instructions: asm.Instructions{
			asm.Mov64Imm(asm.R0, core.BPFRedirect),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	g.send(t, dstB)
	if g.gotB != nil {
		t.Fatal("BPF_REDIRECT without pending state forwarded the packet")
	}
	if g.r.Counters()["drop_seg6local_error"] == 0 {
		t.Errorf("counters: %v", g.r.Counters())
	}
}

func TestUnknownReturnCodeDrops(t *testing.T) {
	spec := &bpf.ProgramSpec{
		Name: "bad_code",
		Instructions: asm.Instructions{
			asm.Mov64Imm(asm.R0, 99),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	g.send(t, dstB)
	if g.gotB != nil {
		t.Fatal("unknown return code forwarded the packet")
	}
}

func TestCtxFieldsVisibleToProgram(t *testing.T) {
	// The program checks ctx.protocol == 0x86dd and that
	// data + ctx.len == data_end; drops otherwise. (Pointer-minus-
	// pointer is rejected by the verifier, as in the kernel, so the
	// check is phrased as pointer + scalar vs pointer.)
	spec := &bpf.ProgramSpec{
		Name: "ctx_check",
		Instructions: asm.Instructions{
			asm.LoadMem(asm.R2, asm.R1, core.CtxOffProtocol, asm.Word),
			asm.JumpImm(asm.JNE, asm.R2, 0x86dd, "drop"),
			asm.LoadMem(asm.R3, asm.R1, core.CtxOffData, asm.DWord),
			asm.LoadMem(asm.R4, asm.R1, core.CtxOffDataEnd, asm.DWord),
			asm.LoadMem(asm.R5, asm.R1, core.CtxOffLen, asm.Word),
			asm.ALU64Reg(asm.Add, asm.R3, asm.R5),
			asm.JumpReg(asm.JNE, asm.R3, asm.R4, "drop"),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
			asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	g.send(t, dstB)
	if g.gotB == nil {
		t.Fatalf("ctx sanity program dropped the packet; R: %v", g.r.Counters())
	}
}

func TestSkbLoadBytesHelper(t *testing.T) {
	// Copy the IPv6 version byte via bpf_skb_load_bytes and verify.
	spec := &bpf.ProgramSpec{
		Name: "skb_load",
		Instructions: asm.Instructions{
			asm.Mov64Reg(asm.R6, asm.R1),
			asm.Mov64Imm(asm.R2, 0), // offset 0
			asm.Mov64Reg(asm.R3, asm.RFP),
			asm.ALU64Imm(asm.Add, asm.R3, -1),
			asm.Mov64Imm(asm.R4, 1),
			asm.CallHelper(bpf.HelperSkbLoadBytes),
			asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
			asm.LoadMem(asm.R2, asm.RFP, -1, asm.Byte),
			asm.ALU64Imm(asm.RSh, asm.R2, 4),
			asm.JumpImm(asm.JNE, asm.R2, 6, "drop"), // IPv6 version
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
			asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	g.send(t, dstB)
	if g.gotB == nil {
		t.Fatalf("skb_load_bytes program dropped the packet; R: %v", g.r.Counters())
	}
}

func TestAdjustSRHShrink(t *testing.T) {
	// Shrink the SRH by the 8 bytes a pad TLV occupies; the packet
	// must stay valid and arrive smaller.
	spec := &bpf.ProgramSpec{
		Name: "shrink",
		Instructions: asm.Instructions{
			asm.Mov64Reg(asm.R6, asm.R1),
			// end-of-TLV-area offset: 40 + (hdrlen+1)*8.
			asm.LoadMem(asm.R7, asm.R6, core.CtxOffData, asm.DWord),
			asm.LoadMem(asm.R8, asm.R6, core.CtxOffDataEnd, asm.DWord),
			asm.Mov64Reg(asm.R2, asm.R7),
			asm.ALU64Imm(asm.Add, asm.R2, 48),
			asm.JumpReg(asm.JGT, asm.R2, asm.R8, "drop"),
			asm.LoadMem(asm.R9, asm.R7, 41, asm.Byte),
			asm.ALU64Imm(asm.Add, asm.R9, 1),
			asm.ALU64Imm(asm.LSh, asm.R9, 3),
			asm.ALU64Imm(asm.Add, asm.R9, 40),
			asm.ALU64Imm(asm.Sub, asm.R9, 8), // start of the last 8 bytes
			// adjust_srh(ctx, end-8, -8)
			asm.Mov64Reg(asm.R1, asm.R6),
			asm.Mov64Reg(asm.R2, asm.R9),
			asm.Mov64Imm(asm.R3, -8),
			asm.CallHelper(bpf.HelperLWTSeg6AdjustSRH),
			asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
			asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	// Send with an 8-byte PadN TLV the program will strip.
	g.send(t, dstB, packet.PadN{N: 6})
	if g.gotB == nil {
		t.Fatalf("shrunk packet dropped; R: %v", g.r.Counters())
	}
	if len(g.gotB.SRH.TLVs) != 0 {
		t.Errorf("TLVs survived the shrink: %s", g.gotB.SRH.Summary())
	}
}

func TestAttachRejectsWrongHook(t *testing.T) {
	spec := &bpf.ProgramSpec{
		Name: "lwt_prog",
		Instructions: asm.Instructions{
			asm.Mov64Imm(asm.R0, core.BPFOK), asm.Return(),
		},
		License: "GPL",
	}
	lwtProg, err := bpf.LoadProgram(spec, core.LWTOutHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AttachEndBPF(lwtProg); !errors.Is(err, core.ErrWrongHook) {
		t.Errorf("AttachEndBPF accepted an lwt_out program: %v", err)
	}
	seg6Prog, err := bpf.LoadProgram(spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AttachLWT(seg6Prog); !errors.Is(err, core.ErrWrongHook) {
		t.Errorf("AttachLWT accepted a seg6local program: %v", err)
	}
}

func TestLWTDropVerdict(t *testing.T) {
	spec := &bpf.ProgramSpec{
		Name: "lwt_drop",
		Instructions: asm.Instructions{
			asm.Mov64Imm(asm.R0, core.BPFDrop), asm.Return(),
		},
		License: "GPL",
	}
	prog, err := bpf.LoadProgram(spec, core.LWTOutHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix: pfx("2001:db8:b::/48"), Kind: netsim.RouteLWTBPF, BPF: lwt,
		Nexthops: []netsim.Nexthop{{Iface: g.rbIf}},
	})
	raw, _ := packet.BuildPacket(srcA, dstB, packet.WithUDP(1, 9))
	g.a.Output(raw)
	g.sim.Run()
	if g.gotB != nil {
		t.Fatal("LWT BPF_DROP did not drop")
	}
	if g.r.Counters()["drop_lwt_bpf"] != 1 {
		t.Errorf("counters: %v", g.r.Counters())
	}
}

func TestLWTPushEncapInline(t *testing.T) {
	// Inline mode splices the SRH into the existing packet instead of
	// adding an outer IPv6 header.
	srh := packet.NewSRH([]netip.Addr{dstB})
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := pushEncapSpec("inline_encap", core.EncapSeg6Inline, enc)
	prog, err := bpf.LoadProgram(spec, core.LWTOutHook(), nil, bpf.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := newRig(t, nil)
	g.r.AddRoute(&netsim.Route{
		Prefix: pfx("2001:db8:b::/48"), Kind: netsim.RouteLWTBPF, BPF: lwt,
		Nexthops: []netsim.Nexthop{{Iface: g.rbIf}},
	})
	raw, _ := packet.BuildPacket(srcA, dstB, packet.WithUDP(1, 9), packet.WithPayload([]byte("pay")))
	g.a.Output(raw)
	g.sim.Run()
	if g.gotB == nil {
		t.Fatalf("inline-encapsulated packet lost; R: %v", g.r.Counters())
	}
	if g.gotB.SRH == nil {
		t.Fatal("no SRH after inline encap")
	}
	// Inline: no inner IPv6; the UDP payload follows the SRH directly.
	if g.gotB.L4Proto != packet.ProtoUDP {
		t.Errorf("l4 = %d after inline encap", g.gotB.L4Proto)
	}
}

// pushEncapSpec builds an LWT program that writes enc on its stack,
// calls bpf_lwt_push_encap with the given mode and returns BPF_OK (or
// BPF_DROP when the helper refuses).
func pushEncapSpec(name string, mode int32, enc []byte) *bpf.ProgramSpec {
	insns := asm.Instructions{asm.Mov64Reg(asm.R6, asm.R1)}
	off := -int16(len(enc))
	for i, b := range enc {
		insns = append(insns, asm.StoreImm(asm.RFP, off+int16(i), int32(b), asm.Byte))
	}
	insns = append(insns,
		asm.Mov64Reg(asm.R1, asm.R6),
		asm.Mov64Imm(asm.R2, mode),
		asm.Mov64Reg(asm.R3, asm.RFP),
		asm.ALU64Imm(asm.Add, asm.R3, int32(off)),
		asm.Mov64Imm(asm.R4, int32(len(enc))),
		asm.CallHelper(bpf.HelperLWTPushEncap),
		asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
		asm.Mov64Imm(asm.R0, core.BPFOK),
		asm.Return(),
		asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
		asm.Return(),
	)
	return &bpf.ProgramSpec{Name: name, Instructions: insns, License: "GPL"}
}

// TestLWTPushEncapWire pins the wire-level push-encap: the helper
// copies the program's SRH bytes in front of the packet without
// decoding them — the output equals the struct-path seg6.Encap, a
// malformed or over-long SRH is refused, and the whole hook run
// allocates exactly the one output buffer — or nothing at all when the
// PacketMeta names an allocation with the packet at its tail and room
// for the outer headers in front, which is then where they go.
func TestLWTPushEncapWire(t *testing.T) {
	srh := packet.NewSRH([]netip.Addr{sid, dstC}, packet.DMTLV{TxTimestampNS: 42})
	enc, err := srh.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(enc []byte) *core.LWT {
		prog, err := bpf.LoadProgram(pushEncapSpec("push_encap", core.EncapSeg6, enc), core.LWTOutHook(), nil, bpf.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lwt, err := core.AttachLWT(prog)
		if err != nil {
			t.Fatal(err)
		}
		return lwt
	}
	g := newRig(t, nil)
	raw, err := packet.BuildPacket(srcA, dstB,
		packet.WithTCP(packet.TCP{SrcPort: 5001, DstPort: 80, Flags: packet.TCPFlagACK}),
		packet.WithPayload(make([]byte, 1400)), packet.WithFlowLabel(0x54321))
	if err != nil {
		t.Fatal(err)
	}
	want, err := seg6.Encap(raw, g.r.PrimaryAddress(), srh)
	if err != nil {
		t.Fatal(err)
	}
	lwt := attach(enc)
	var meta netsim.PacketMeta
	out, verdict, _, err := lwt.RunLWTOut(g.r, raw, &meta)
	if err != nil || verdict != netsim.LWTOK {
		t.Fatalf("verdict %v, err %v", verdict, err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("push_encap output differs from seg6.Encap\n got  %x\n want %x", out[:120], want[:120])
	}
	if got := testing.AllocsPerRun(200, func() { out, _, _, _ = lwt.RunLWTOut(g.r, raw, &meta) }); got != 1 {
		t.Errorf("%.0f allocs per LWT push_encap run, want 1 (the output buffer)", got)
	}

	reserve := packet.IPv6HeaderLen + len(enc)
	buf := append(make([]byte, reserve), raw...)
	inBuf := netsim.PacketMeta{Buf: buf}
	out, verdict, _, err = lwt.RunLWTOut(g.r, buf[reserve:], &inBuf)
	if err != nil || verdict != netsim.LWTOK || !bytes.Equal(out, want) {
		t.Fatalf("push_encap into headroom: verdict %v, err %v, output equal to seg6.Encap: %v", verdict, err, bytes.Equal(out, want))
	}
	if &out[0] != &buf[0] {
		t.Error("push_encap had the headroom and did not use it")
	}
	if got := testing.AllocsPerRun(200, func() { lwt.RunLWTOut(g.r, buf[reserve:], &inBuf) }); got != 0 {
		t.Errorf("%.0f allocs per LWT push_encap run into headroom, want 0", got)
	}

	// segments_left past the list, a wrong routing type and bytes
	// beyond hdr_ext_len are all refused with EINVAL (the program then
	// returns BPF_DROP).
	noActive := bytes.Clone(enc)
	noActive[packet.SRHOffSegmentsLeft] = 2
	badType := bytes.Clone(enc)
	badType[packet.SRHOffRoutingType] = 0
	for name, bad := range map[string][]byte{
		"segments-left": noActive,
		"routing-type":  badType,
		"trailing":      append(bytes.Clone(enc), make([]byte, 8)...),
	} {
		if _, verdict, _, err := attach(bad).RunLWTOut(g.r, raw, &meta); err != nil || verdict != netsim.LWTDrop {
			t.Errorf("%s: verdict %v, err %v, want the helper to refuse", name, verdict, err)
		}
	}
}

func TestTracePrintkReachesNodeTrace(t *testing.T) {
	spec := &bpf.ProgramSpec{
		Name: "printer",
		Instructions: asm.Instructions{
			asm.StoreImm(asm.RFP, -2, 'h', asm.Byte),
			asm.StoreImm(asm.RFP, -1, 'i', asm.Byte),
			asm.Mov64Reg(asm.R1, asm.RFP),
			asm.ALU64Imm(asm.Add, asm.R1, -2),
			asm.Mov64Imm(asm.R2, 2),
			asm.CallHelper(bpf.HelperTracePrintk),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
		},
		License: "GPL",
	}
	g := newRig(t, spec)
	var logs []string
	g.r.Trace = func(format string, args ...any) {
		logs = append(logs, format)
	}
	g.send(t, dstB)
	if len(logs) == 0 {
		t.Fatal("trace_printk output did not reach Node.Trace")
	}
}
