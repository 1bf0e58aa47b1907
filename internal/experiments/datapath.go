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
)

// DatapathRow is one wall-clock measurement of this library's own
// End.BPF datapath (real time, not simulated): the engineering
// numbers behind the simulator's cost model. AllocsPerOp is the
// -benchmem figure the zero-allocation work of the datapath is
// tracked by.
type DatapathRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Burst is the datapath burst setting the row was measured under
	// (0 for rows the knob cannot affect). The SimUDP-burst pair
	// publishes the same workload at burst 1 and the report's -burst
	// setting; NsPerOp for those rows is per packet, not per batch.
	Burst int `json:"burst,omitempty"`
}

// DatapathBench measures the per-packet cost of the static End
// behaviour and the End.BPF hook running the Figure 2 programs, each
// with JIT and interpreter. It is the programmatic equivalent of
// `go test -bench BenchmarkDatapath -benchmem`, exposed so srv6bench
// can emit the numbers into the machine-readable benchmark trajectory.
// burst sets the batched-datapath knob for the SimUDP-burst row pair
// (srv6bench -burst); values below 2 fall back to the default 32 so
// every report carries a burst=1 vs burst=N comparison.
func DatapathBench(burst int) ([]DatapathRow, error) {
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
			if _, err := seg6.ApplyStatic(behaviour, work); err != nil {
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

	type benchProg struct {
		name string
		spec *bpf.ProgramSpec
		jit  bool
	}
	for _, bp := range []benchProg{
		{"EndBPF-jit", progs.EndSpec(), true},
		{"EndBPF-interp", progs.EndSpec(), false},
		{"TagInc-jit", progs.TagIncrementSpec(), true},
		{"TagInc-interp", progs.TagIncrementSpec(), false},
		{"AddTLV-jit", progs.AddTLVSpec(), true},
		{"AddTLV-interp", progs.AddTLVSpec(), false},
	} {
		prog, err := bpf.LoadProgram(bp.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &bp.jit})
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
	for _, on := range []bool{false, true} {
		row, err := simUDPRow(on)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if burst < 2 {
		burst = 32
	}
	// Same batch size for both rows: the burst=1 row is the same
	// workload with the epoch caches disabled, so the pair isolates
	// exactly what batching buys.
	batch := burst
	if batch < 32 {
		batch = 32
	}
	for _, b := range []int{1, burst} {
		row, err := simUDPBurstRow(b, batch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// simUDPRow measures one SRv6 packet traversing the full simulated
// datapath — source output, links, the router's End behaviour,
// delivery — with the observability plane off vs on (flight recorder
// sampling every flow: the worst case). The direct RunSeg6Local rows
// above bypass the node's drain loop and so never see the obs hooks;
// this pair is what the trajectory test compares to bound the
// tracing-off overhead.
func simUDPRow(obsOn bool) (DatapathRow, error) {
	src := netip.MustParseAddr("2001:db8:1::1")
	dst := netip.MustParseAddr("2001:db8:2::1")
	sid := netip.MustParseAddr("fc00:1::b")

	sim := netsim.New(1)
	a := sim.AddNode("A", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	c := sim.AddNode("C", netsim.HostCostModel())
	a.AddAddress(src)
	c.AddAddress(dst)
	fast := netem.Config{RateBps: 1e12}
	aIf, _ := netsim.ConnectSymmetric(a, r, fast)
	rcIf, cIf := netsim.ConnectSymmetric(r, c, fast)
	a.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: aIf}}})
	c.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cIf}}})
	r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
	r.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rcIf}}})
	c.HandleUDP(2, func(*netsim.Node, *packet.Packet, *netsim.PacketMeta) {})

	name := "SimUDP-obs-off"
	if obsOn {
		name = "SimUDP-obs-on"
		sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 0})
	}

	srh := packet.NewSRH([]netip.Addr{sid, dst})
	tmpl, err := packet.BuildPacket(src, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		return DatapathRow{}, err
	}

	work := packet.Clone(tmpl)
	bufs := sim.TraceBufs()
	// Warm the event pools so the loop measures steady state.
	for i := 0; i < 64; i++ {
		copy(work, tmpl)
		a.Output(work)
		sim.Run()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, tmpl)
			a.Output(work)
			sim.Run()
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

// simUDPBurstRow is the batched-datapath variant of simUDPRow: the
// same A — R(End) — C lab, but each benchmark iteration offers a whole
// batch of packets before running the simulator, so the router's rx
// ring backs up and its drain loop processes them back-to-back — the
// regime where the per-burst flow cache, route memo and bind-skip
// engage. NsPerOp is divided by the batch size (a per-packet figure);
// AllocsPerOp/BytesPerOp are left per batch, which only sharpens the
// zero-allocation requirement on the row.
func simUDPBurstRow(burst, batch int) (DatapathRow, error) {
	src := netip.MustParseAddr("2001:db8:1::1")
	dst := netip.MustParseAddr("2001:db8:2::1")
	sid := netip.MustParseAddr("fc00:1::b")

	sim := netsim.New(1)
	a := sim.AddNode("A", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	c := sim.AddNode("C", netsim.HostCostModel())
	a.AddAddress(src)
	c.AddAddress(dst)
	fast := netem.Config{RateBps: 1e12}
	aIf, _ := netsim.ConnectSymmetric(a, r, fast)
	rcIf, cIf := netsim.ConnectSymmetric(r, c, fast)
	a.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: aIf}}})
	c.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cIf}}})
	r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
	r.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rcIf}}})
	c.HandleUDP(2, func(*netsim.Node, *packet.Packet, *netsim.PacketMeta) {})
	sim.SetBurst(burst)

	srh := packet.NewSRH([]netip.Addr{sid, dst})
	tmpl, err := packet.BuildPacket(src, sid, packet.WithSRH(srh),
		packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
	if err != nil {
		return DatapathRow{}, err
	}

	works := make([][]byte, batch)
	for i := range works {
		works[i] = packet.Clone(tmpl)
	}
	offer := func() {
		for _, w := range works {
			copy(w, tmpl)
			a.Output(w)
		}
		sim.Run()
	}
	// Warm the event pools and the router's rx ring growth.
	for i := 0; i < 8; i++ {
		offer()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			offer()
		}
	})
	return DatapathRow{
		Name:        fmt.Sprintf("SimUDP-burst%d", burst),
		NsPerOp:     float64(res.NsPerOp()) / float64(batch),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Burst:       burst,
	}, nil
}
