package srv6bpf

// Wall-clock benchmarks of this library's own datapath (real, not
// simulated, time; run with `go test -run '^$' -bench . -benchmem`):
//
//	BenchmarkDatapath — one operation of each datapathRows row: the
//	                    static End behaviour and the End.BPF hook running
//	                    the Figure 2 programs, then one packet crossing
//	                    the whole simulated datapath
//	BenchmarkLWTOut   — the hybrid-access tunnel ingress, with and
//	                    without headroom
//
// TestDatapathAllocRegression holds the same rows to their allocation
// counts. The paper's figures are model time, not wall time:
// cmd/srv6bench prints them and internal/experiments pins them.

import (
	"fmt"
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/tcpsim"
	"srv6bpf/internal/trafgen"
)

// datapathRow is one steady-state operation of this library's datapath.
// setup builds the row's fixture, warms it and returns the operation; a
// zeroAlloc row must not allocate in it.
type datapathRow struct {
	name      string
	zeroAlloc bool
	setup     func(tb testing.TB) func()
}

var (
	labSrc = netip.MustParseAddr("2001:db8:1::1")
	labDst = netip.MustParseAddr("2001:db8:2::1")
	labSID = netip.MustParseAddr("fc00:1::b")
)

// datapathRows is the one table BenchmarkDatapath times and
// TestDatapathAllocRegression counts allocations over.
func datapathRows() []datapathRow {
	rows := []datapathRow{{"End-static-go", true, endStaticOp}}
	for _, p := range []struct {
		name      string
		spec      *bpf.ProgramSpec
		zeroAlloc bool
	}{
		{"EndBPF", progs.EndSpec(), true},
		{"TagInc", progs.TagIncrementSpec(), true},
		// Add TLV allocates: the hook is called bare, where nothing
		// releases the buffer the program grows the packet into.
		{"AddTLV", progs.AddTLVSpec(), false},
	} {
		rows = append(rows, datapathRow{p.name, p.zeroAlloc, func(tb testing.TB) func() { return endBPFOp(tb, p.spec) }})
	}
	for _, v := range []struct {
		name         string
		obsOn        bool
		sids, labels int
	}{
		{"SimUDP-obs-off", false, 1, 1},
		{"SimUDP-obs-on", true, 1, 1},
		// The benchmark's mix: 4 SIDs x 16 flow labels, so consecutive
		// packets never share a header.
		{"SimUDP-64flows", false, 4, 16},
	} {
		rows = append(rows, datapathRow{v.name, true, func(tb testing.TB) func() { return simUDPOp(tb, v.obsOn, v.sids, v.labels) }})
	}
	// Generator to sink on the 3-node lab: the packet's buffer too.
	return append(rows, datapathRow{"Lab3-gen-to-sink", true, labGenToSinkOp})
}

// srv6Packet is the rows' packet: 64 bytes of UDP from labSrc behind a
// 2-segment SRH (sid, then labDst).
func srv6Packet(tb testing.TB, sid netip.Addr, flowLabel uint32) []byte {
	raw, err := packet.BuildPacket(labSrc, sid, packet.WithSRH(packet.NewSRH([]netip.Addr{sid, labDst})),
		packet.WithFlowLabel(flowLabel), packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// endStaticOp is the static End behaviour in native Go.
func endStaticOp(tb testing.TB) func() {
	tmpl := srv6Packet(tb, labSID, 0)
	work := packet.Clone(tmpl)
	behaviour := &seg6.Behaviour{Action: seg6.ActionEnd}
	return func() {
		copy(work, tmpl)
		if _, err := seg6.Apply(behaviour, work); err != nil {
			tb.Fatal(err)
		}
	}
}

// endBPFOp is the End.BPF hook running spec, called bare on a router.
func endBPFOp(tb testing.TB, spec *bpf.ProgramSpec) func() {
	prog, err := bpf.LoadProgram(spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	end, err := core.AttachEndBPF(prog)
	if err != nil {
		tb.Fatal(err)
	}
	sim := netsim.New(1)
	node := sim.AddNode("R", netsim.ServerCostModel())
	peer := sim.AddNode("P", netsim.HostCostModel())
	peer.AddAddress(labDst)
	netsim.ConnectSymmetric(node, peer, netem.Config{RateBps: 1e12})

	tmpl := srv6Packet(tb, labSID, 0)
	work := packet.Clone(tmpl)
	meta := &netsim.PacketMeta{}
	return func() {
		copy(work, tmpl)
		work = work[:len(tmpl)]
		res, _, err := end.RunSeg6Local(node, work, meta)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Verdict == seg6.VerdictDrop {
			tb.Fatal("unexpected drop")
		}
		// Add TLV grows the packet: recover the template size.
		if len(res.Pkt) != len(tmpl) {
			work = packet.Clone(tmpl)
		}
	}
}

// labLine builds the line A — R — C of the whole-datapath rows: labSrc
// on A, labDst on C, default routes at the two ends, and on R C's /48
// and an End SID per sid.
func labLine(tb testing.TB, sim *netsim.Sim, link netem.Config, sids ...netip.Addr) (a, c *netsim.Node) {
	a = sim.AddNode("A", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	c = sim.AddNode("C", netsim.HostCostModel())
	a.AddAddress(labSrc)
	c.AddAddress(labDst)
	aIf, _ := netsim.ConnectSymmetric(a, r, link)
	rcIf, cIf := netsim.ConnectSymmetric(r, c, link)
	add := func(n *netsim.Node, route *netsim.Route) {
		if err := n.AddRoute(route); err != nil {
			tb.Fatal(err)
		}
	}
	fwd := func(prefix string, via *netsim.Iface) *netsim.Route {
		return &netsim.Route{Prefix: netip.MustParsePrefix(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
	}
	add(a, fwd("::/0", aIf))
	add(c, fwd("::/0", cIf))
	add(r, fwd("2001:db8:2::/48", rcIf))
	for _, sid := range sids {
		add(r, &netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
	}
	return a, c
}

// simUDPOp is one SRv6 packet traversing the full simulated datapath —
// source output, links, the router's End behaviour, delivery — cycling
// through sids x labels distinct headers (one End SID on R per sid,
// labels flow labels each), with the observability plane off or on
// (flight recorder sampling every flow: the worst case). The bare
// End.BPF rows bypass the node's drain loop and so never see the obs
// hooks.
func simUDPOp(tb testing.TB, obsOn bool, sids, labels int) func() {
	sim := netsim.New(1)
	var sidAddrs []netip.Addr
	for i := 0; i < sids; i++ {
		sidAddrs = append(sidAddrs, netip.MustParseAddr(fmt.Sprintf("fc00:1::b%d", i)))
	}
	a, c := labLine(tb, sim, netem.Config{RateBps: 1e12}, sidAddrs...)
	c.HandleUDP(2, func(*netsim.Node, *packet.Packet, *netsim.PacketMeta) {})
	if obsOn {
		sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 0})
	}
	var tmpls [][]byte
	for _, sid := range sidAddrs {
		for fl := 0; fl < labels; fl++ {
			tmpls = append(tmpls, srv6Packet(tb, sid, uint32(fl)))
		}
	}

	work := packet.Clone(tmpls[0])
	bufs := sim.TraceBufs()
	next := 0
	op := func() {
		copy(work, tmpls[next])
		next = (next + 1) % len(tmpls)
		a.Output(work)
		sim.Run()
		// Truncate the journals so the recorder's ring cannot grow
		// without bound across operations (a cheap slice-length reset).
		for _, b := range bufs {
			b.RestoreState(0)
		}
	}
	// Warm the event pools so the operation is steady state.
	for i := 0; i < 64; i++ {
		op()
	}
	return op
}

// labGenToSinkOp is what the SimUDP rows leave out, the two ends: a
// trafgen.UDPGen on A, End on R, a trafgen.Sink on C, one packet per
// operation in steady state. The generator's buffer is the one the sink
// released a few packets earlier, so the row allocates nothing.
func labGenToSinkOp(tb testing.TB) func() {
	sim := netsim.New(1)
	a, c := labLine(tb, sim, netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond}, labSID)
	sink := trafgen.NewSink(c, 2)

	const gap = 2 * netsim.Microsecond // 500 kpps, below R's capacity
	gen := &trafgen.UDPGen{
		Node: a, Src: labSrc, Dst: labSID, SrcPort: 1, DstPort: 2, PayloadLen: 64,
		SRH: packet.NewSRH([]netip.Addr{labSID, labDst}), RatePPS: 1e9 / float64(gap),
	}
	if err := gen.Start(1 << 62); err != nil {
		tb.Fatal(err)
	}
	sim.RunUntil(1000 * gap) // fill the pipe, grow the queues
	tb.Cleanup(func() {
		gen.Stop()
		if sink.Packets == 0 || sink.Packets+100 < gen.Sent() {
			tb.Errorf("Lab3-gen-to-sink: %d of %d packets delivered", sink.Packets, gen.Sent())
		}
	})
	return func() { sim.RunUntil(sim.Now() + gap) }
}

// BenchmarkDatapath measures the real (wall-clock) cost of one operation
// of each datapathRows row — the engineering numbers behind the
// simulator's cost model, reported honestly as ns/op.
func BenchmarkDatapath(b *testing.B) {
	for _, row := range datapathRows() {
		b.Run(row.name, func(b *testing.B) {
			op := row.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkLWTOut measures the transit hook of the hybrid-access path:
// the testbed's own WRR attachment (interpreted, as on the paper's CPE)
// encapsulating an MSS-sized TCP segment. "reserve" hands the hook the
// segment as the simulator does, its allocation in the PacketMeta, so
// push_encap writes the outer headers into the headroom tcpsim built
// the segment with; "none" passes a zero PacketMeta, so it allocates a
// buffer and copies the segment — the path every packet took before
// headroom, and the only one the frozen benchmark's core.lwt_out_ns
// probe can time.
func BenchmarkLWTOut(b *testing.B) {
	tb, err := hybrid.NewTestbed(netsim.New(1), hybrid.Params{
		Link0: hybrid.LinkSpec{RateBps: 50_000_000}, Link1: hybrid.LinkSpec{RateBps: 30_000_000},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.EnableWRRDownstream(); err != nil {
		b.Fatal(err)
	}
	wrr := tb.Agg.Lookup(hybrid.S2Addr, netsim.MainTable).BPF.(*core.LWT)
	buf, err := packet.BuildPacketIn(func(size int) []byte { return make([]byte, size) }, tcpsim.HeaderReserve, hybrid.S1Addr, hybrid.S2Addr,
		packet.WithTCP(packet.TCP{SrcPort: 41000, DstPort: 5001}), packet.WithPayload(make([]byte, 1400)))
	if err != nil {
		b.Fatal(err)
	}
	seg := buf[tcpsim.HeaderReserve:]
	for _, c := range []struct {
		name   string
		meta   netsim.PacketMeta
		allocs float64
	}{
		{"reserve", netsim.PacketMeta{Buf: buf}, 0},
		{"none", netsim.PacketMeta{}, 1},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			run := func() {
				out, verdict, _, err := wrr.RunLWTOut(tb.Agg, seg, &c.meta)
				if err != nil || verdict != netsim.LWTOK || len(out) != len(buf) {
					b.Fatalf("verdict %v, err %v, %d bytes out", verdict, err, len(out))
				}
			}
			if got := testing.AllocsPerRun(100, run); got != c.allocs {
				b.Fatalf("%.0f allocations per run, want %.0f", got, c.allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
