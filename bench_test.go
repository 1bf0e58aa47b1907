package srv6bpf

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFig2        — §3.2 Figure 2 (endpoint function overhead)
//	BenchmarkFig3        — §4.1 Figure 3 (delay monitoring overhead)
//	BenchmarkFig4        — §4.2 Figure 4 (hybrid access UDP goodput)
//	BenchmarkTCPHybrid   — §4.2 TCP results (collapse & compensation)
//	BenchmarkJITFactor   — §3.2 JIT-off throughput factor (×1.8)
//	BenchmarkDatapath    — wall-clock ns/packet of this library's own
//	                       End.BPF datapath (real, not simulated, time)
//	BenchmarkLWTOut      — wall-clock ns/packet of the hybrid-access
//	                       tunnel ingress, with and without headroom
//
// Simulation benches report their figures through b.ReportMetric
// (kpps, normalized ratio, Mbps); ns/op is the wall-clock cost of
// regenerating the figure and is not itself a result of the paper.

import (
	"net/netip"
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/experiments"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/tcpsim"
)

// simWindow is the measured virtual-time window per figure run.
const simWindow = 50 * netsim.Millisecond

func BenchmarkFig2(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure2(simWindow)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		r := r
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(r.KPPS, "kpps")
			b.ReportMetric(r.Normalized, "normalized")
		})
	}
}

func BenchmarkFig3(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure3(simWindow)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		r := r
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(r.KPPS, "kpps")
			b.ReportMetric(r.Normalized, "normalized")
		})
	}
}

func BenchmarkFig4(b *testing.B) {
	var pts []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure4(simWindow)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		p := p
		b.Run(p.Config+"/"+itoa(p.Payload), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(p.GoodputMbps, "Mbps")
		})
	}
}

func BenchmarkTCPHybrid(b *testing.B) {
	var res []experiments.TCPResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.TCPHybrid(20 * netsim.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		r := r
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(r.GoodputMbps, "Mbps")
		})
	}
}

func BenchmarkJITFactor(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.JITFactor(simWindow)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f, "jit-factor")
}

// BenchmarkDatapath measures the real (wall-clock) per-packet cost of
// this library's datapath — the engineering numbers behind the
// simulator's cost model, reported honestly as ns/op: the static End
// behaviour in native Go versus the End.BPF hook running the empty
// program, Tag++ and Add TLV.
func BenchmarkDatapath(b *testing.B) {
	sid := netip.MustParseAddr("fc00:1::b")
	dst := netip.MustParseAddr("2001:db8:2::1")
	src := netip.MustParseAddr("2001:db8:1::1")

	mkPacket := func() []byte {
		srh := packet.NewSRH([]netip.Addr{sid, dst})
		raw, err := packet.BuildPacket(src, sid, packet.WithSRH(srh),
			packet.WithUDP(1, 2), packet.WithPayload(make([]byte, 64)))
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	sim := netsim.New(1)
	node := sim.AddNode("R", netsim.ServerCostModel())
	peer := sim.AddNode("P", netsim.HostCostModel())
	peer.AddAddress(dst)
	netsim.ConnectSymmetric(node, peer, netem.Config{RateBps: 1e12})

	b.Run("End-static-go", func(b *testing.B) {
		tmpl := mkPacket()
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

	for _, bp := range []struct {
		name string
		spec *bpf.ProgramSpec
	}{
		{"EndBPF", progs.EndSpec()},
		{"TagInc", progs.TagIncrementSpec()},
		{"AddTLV", progs.AddTLVSpec()},
	} {
		bp := bp
		b.Run(bp.name, func(b *testing.B) {
			prog, err := bpf.LoadProgram(bp.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			end, err := core.AttachEndBPF(prog)
			if err != nil {
				b.Fatal(err)
			}
			tmpl := mkPacket()
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
