package experiments

import (
	"fmt"
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/trafgen"
)

// DatapathRow is one wall-clock measurement of this library's own
// End.BPF datapath (real time, not simulated): the engineering
// numbers behind the simulator's cost model. AllocsPerOp is the
// -benchmem figure the zero-allocation work of the datapath is
// tracked by.
type DatapathRow struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
}

// DatapathBench measures the per-packet cost of the static End
// behaviour and the End.BPF hook running the Figure 2 programs, then of
// one packet crossing the whole simulated datapath. It is the
// programmatic equivalent of `go test -bench BenchmarkDatapath
// -benchmem`, exposed so TestDatapathAllocRegression can hold the
// allocation counts.
func DatapathBench() ([]DatapathRow, error) {
	sid := netip.MustParseAddr("fc00:1::b")
	dst := netip.MustParseAddr("2001:db8:2::1")
	src := netip.MustParseAddr("2001:db8:1::1")

	srh := packet.NewSRH([]netip.Addr{sid, dst})
	tmpl, err := packet.BuildPacket(src, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		return nil, err
	}

	sim := netsim.New(1)
	node := sim.AddNode("R", netsim.ServerCostModel())
	peer := sim.AddNode("P", netsim.HostCostModel())
	peer.AddAddress(dst)
	netsim.ConnectSymmetric(node, peer, netem.Config{RateBps: 1e12})

	var rows []DatapathRow

	staticRes := testing.Benchmark(func(b *testing.B) {
		work := packet.Clone(tmpl)
		behaviour := &seg6.Behaviour{Action: seg6.ActionEnd}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, tmpl)
			if _, err := seg6.Apply(behaviour, work); err != nil {
				b.Fatal(err)
			}
		}
	})
	rows = append(rows, DatapathRow{
		Name:        "End-static-go",
		NsPerOp:     float64(staticRes.NsPerOp()),
		AllocsPerOp: staticRes.AllocsPerOp(),
		BytesPerOp:  staticRes.AllocedBytesPerOp(),
	})

	for _, bp := range []struct {
		name string
		spec *bpf.ProgramSpec
	}{
		{"EndBPF", progs.EndSpec()},
		{"TagInc", progs.TagIncrementSpec()},
		{"AddTLV", progs.AddTLVSpec()},
	} {
		prog, err := bpf.LoadProgram(bp.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
		if err != nil {
			return nil, err
		}
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return nil, err
		}
		res := testing.Benchmark(func(b *testing.B) {
			work := packet.Clone(tmpl)
			meta := &netsim.PacketMeta{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, tmpl)
				work = work[:len(tmpl)]
				res, _, err := end.RunSeg6Local(node, work, meta)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == seg6.VerdictDrop {
					b.Fatal("unexpected drop")
				}
				// Add TLV grows the packet: recover the template size.
				if len(res.Pkt) != len(tmpl) {
					work = packet.Clone(tmpl)
				}
			}
		})
		rows = append(rows, DatapathRow{
			Name:        bp.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
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
		row, err := simUDPRow(v.name, v.obsOn, v.sids, v.labels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	row, err := labGenToSinkRow()
	if err != nil {
		return nil, err
	}
	return append(rows, row), nil
}

var (
	labSrc = netip.MustParseAddr("2001:db8:1::1")
	labDst = netip.MustParseAddr("2001:db8:2::1")
)

// labLine builds the line A — R — C of the whole-datapath rows: labSrc on
// A, labDst on C, default routes at the two ends and C's /48 on R.
func labLine(sim *netsim.Sim, link netem.Config) (a, r, c *netsim.Node) {
	a = sim.AddNode("A", netsim.HostCostModel())
	r = sim.AddNode("R", netsim.ServerCostModel())
	c = sim.AddNode("C", netsim.HostCostModel())
	a.AddAddress(labSrc)
	c.AddAddress(labDst)
	aIf, _ := netsim.ConnectSymmetric(a, r, link)
	rcIf, cIf := netsim.ConnectSymmetric(r, c, link)
	a.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: aIf}}})
	c.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cIf}}})
	r.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rcIf}}})
	return a, r, c
}

// labGenToSinkRow measures what the SimUDP rows leave out, the two ends:
// a trafgen.UDPGen on A, End on R, a trafgen.Sink on C, one packet per
// operation in steady state. The generator's buffer is the one the sink
// released a few packets earlier, so the row allocates nothing.
func labGenToSinkRow() (DatapathRow, error) {
	sid := netip.MustParseAddr("fc00:1::b")
	sim := netsim.New(1)
	a, r, c := labLine(sim, netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond})
	r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
	sink := trafgen.NewSink(c, 2)

	const gap = 2 * netsim.Microsecond // 500 kpps, below R's capacity
	gen := &trafgen.UDPGen{
		Node: a, Src: labSrc, Dst: sid, SrcPort: 1, DstPort: 2, PayloadLen: 64,
		SRH: packet.NewSRH([]netip.Addr{sid, labDst}), RatePPS: 1e9 / float64(gap),
	}
	if err := gen.Start(1 << 62); err != nil {
		return DatapathRow{}, err
	}
	sim.RunUntil(1000 * gap) // fill the pipe, grow the queues
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.RunUntil(sim.Now() + gap)
		}
	})
	gen.Stop()
	if sink.Packets == 0 || sink.Packets+100 < gen.Sent() {
		return DatapathRow{}, fmt.Errorf("lab row: %d of %d packets delivered", sink.Packets, gen.Sent())
	}
	return DatapathRow{
		Name:        "Lab3-gen-to-sink",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}, nil
}

// simUDPRow measures one SRv6 packet traversing the full simulated
// datapath — source output, links, the router's End behaviour,
// delivery — cycling through sids x labels distinct headers (one End
// SID on R per sid, labels flow labels each), with the observability
// plane off or on (flight recorder sampling every flow: the worst
// case). The direct RunSeg6Local rows above bypass the node's drain
// loop and so never see the obs hooks.
func simUDPRow(name string, obsOn bool, sids, labels int) (DatapathRow, error) {
	sim := netsim.New(1)
	a, r, c := labLine(sim, netem.Config{RateBps: 1e12})
	c.HandleUDP(2, func(*netsim.Node, *packet.Packet, *netsim.PacketMeta) {})
	if obsOn {
		sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 0})
	}

	var tmpls [][]byte
	for i := 0; i < sids; i++ {
		sid := netip.MustParseAddr(fmt.Sprintf("fc00:1::b%d", i))
		r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
		for fl := 0; fl < labels; fl++ {
			tmpl, err := packet.BuildPacket(labSrc, sid, packet.WithSRH(packet.NewSRH([]netip.Addr{sid, labDst})),
				packet.WithFlowLabel(uint32(fl)), packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
			if err != nil {
				return DatapathRow{}, err
			}
			tmpls = append(tmpls, tmpl)
		}
	}

	work := packet.Clone(tmpls[0])
	bufs := sim.TraceBufs()
	next := 0
	one := func() {
		copy(work, tmpls[next])
		next = (next + 1) % len(tmpls)
		a.Output(work)
		sim.Run()
	}
	// Warm the event pools so the loop measures steady state.
	for i := 0; i < 64; i++ {
		one()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one()
			// Truncate the journals so the recorder's ring cannot grow
			// without bound across iterations (a cheap slice-length
			// reset).
			for _, tb := range bufs {
				tb.RestoreState(0)
			}
		}
	})
	return DatapathRow{
		Name:        name,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}, nil
}
