// Quickstart: author an SRv6 eBPF network function, attach it to a
// router as an End.BPF action, and watch it rewrite packets.
//
// The function stamps the SRH tag field with 0xbeef through
// bpf_lwt_seg6_store_bytes, the indirect-write discipline of the
// paper's §3.1 (programs never write the packet directly).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

var (
	src = netip.MustParseAddr("2001:db8:1::1")
	dst = netip.MustParseAddr("2001:db8:2::1")
	sid = netip.MustParseAddr("fc00:10::42") // the function's segment
)

// route installs r on n and exits if n refuses it: a missing route
// would only show up later as drop_no_route.
func route(n *netsim.Node, r *netsim.Route) {
	if err := n.AddRoute(r); err != nil {
		log.Fatal(err)
	}
}

// fwd is a forwarding route for prefix out of via.
func fwd(prefix string, via *netsim.Iface) *netsim.Route {
	return &netsim.Route{Prefix: netip.MustParsePrefix(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
}

func main() {
	// --- 1. Write the network function in the eBPF dialect. ---
	// Offset 46 is the SRH tag (40-byte IPv6 header + tag at SRH+6).
	spec := &bpf.ProgramSpec{
		Name: "stamp_tag",
		Instructions: asm.Instructions{
			asm.Mov64Reg(asm.R6, asm.R1), // save ctx
			// u16 tag = htons(0xbeef) on the stack
			asm.StoreImm(asm.RFP, -2, 0xbe, asm.Byte),
			asm.StoreImm(asm.RFP, -1, 0xef, asm.Byte),
			// bpf_lwt_seg6_store_bytes(ctx, 46, fp-2, 2)
			asm.Mov64Reg(asm.R1, asm.R6),
			asm.Mov64Imm(asm.R2, 46),
			asm.Mov64Reg(asm.R3, asm.RFP),
			asm.ALU64Imm(asm.Add, asm.R3, -2),
			asm.Mov64Imm(asm.R4, 2),
			asm.CallHelper(bpf.HelperLWTSeg6StoreByte),
			asm.JumpImm(asm.JNE, asm.R0, 0, "drop"),
			asm.Mov64Imm(asm.R0, core.BPFOK),
			asm.Return(),
			asm.Mov64Imm(asm.R0, core.BPFDrop).WithSymbol("drop"),
			asm.Return(),
		},
		License: "Dual MIT/GPL",
	}

	// --- 2. Load it: assemble, verify, prepare for the hook. ---
	prog, err := bpf.LoadProgram(spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	endBPF, err := core.AttachEndBPF(prog)
	if err != nil {
		log.Fatal(err)
	}

	// --- 3. Build a three-node lab: sender -- router -- receiver. ---
	sim := netsim.New(1)
	snd := sim.AddNode("sender", netsim.HostCostModel())
	rtr := sim.AddNode("router", netsim.ServerCostModel())
	rcv := sim.AddNode("receiver", netsim.HostCostModel())
	snd.AddAddress(src)
	rtr.AddAddress(netip.MustParseAddr("2001:db8:10::1"))
	rcv.AddAddress(dst)

	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * netsim.Microsecond}
	sndIf, rtrInIf := netsim.ConnectSymmetric(snd, rtr, link)
	rtrOutIf, rcvIf := netsim.ConnectSymmetric(rtr, rcv, link)

	route(snd, fwd("::/0", sndIf))
	route(rcv, fwd("::/0", rcvIf))
	route(rtr, fwd("2001:db8:1::/48", rtrInIf))
	route(rtr, fwd("2001:db8:2::/48", rtrOutIf))

	// --- 4. Bind the program to a segment (a seg6local route). ---
	route(rtr, &netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: endBPF.Behaviour(),
	})

	// --- 5. Send one SRv6 packet through the function. ---
	var got string
	rcv.HandleUDP(7777, func(node *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		got = p.Summary()
	})

	srh := packet.NewSRH([]netip.Addr{sid, dst})
	raw, err := packet.BuildPacket(src, sid,
		packet.WithSRH(srh),
		packet.WithUDP(1000, 7777),
		packet.WithPayload([]byte("hello SRv6")))
	if err != nil {
		log.Fatal(err)
	}
	before, err := packet.Parse(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sent:    ", before.Summary())

	snd.Output(raw)
	sim.Run()

	if got == "" {
		log.Fatalf("nothing received; router counters %v", rtr.Counters())
	}
	fmt.Println("received:", got)
	fmt.Println("\nThe router executed the verified eBPF function at the")
	fmt.Println("segment fc00:10::42: it advanced the SRH and the program")
	fmt.Println("stamped tag=0xbeef (48879) through the checked helper.")
}
