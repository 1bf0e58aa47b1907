package hybrid

import (
	"math"
	"testing"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

func TestWRRSplitMatchesWeights(t *testing.T) {
	sim := netsim.New(3)
	tb, err := NewTestbed(sim, Params{
		Link0: LinkSpec{RateBps: 1e9},
		Link1: LinkSpec{RateBps: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableWRRDownstream(); err != nil {
		t.Fatal(err)
	}

	var perLink [2]int
	tb.AggLink[0].Tap = func([]byte) { perLink[0]++ }
	tb.AggLink[1].Tap = func([]byte) { perLink[1]++ }

	delivered := 0
	tb.S2.HandleUDP(7000, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		delivered++
		if p.SRH != nil {
			t.Error("packet at S2 still encapsulated")
		}
	})

	const n = 800
	for i := 0; i < n; i++ {
		i := i
		sim.Schedule(int64(i)*50*netsim.Microsecond, func() {
			raw, err := packet.BuildPacket(S1Addr, S2Addr,
				packet.WithUDP(6000, 7000), packet.WithPayload(make([]byte, 256)))
			if err != nil {
				t.Fatal(err)
			}
			tb.S1.Output(raw)
		})
	}
	sim.Run()

	if delivered != n {
		t.Fatalf("delivered %d/%d; Agg=%v CPE=%v", delivered, n, tb.Agg.Counters(), tb.CPE.Counters())
	}
	// 5:3 split.
	total := perLink[0] + perLink[1]
	ratio := float64(perLink[0]) / float64(total)
	if math.Abs(ratio-5.0/8.0) > 0.01 {
		t.Errorf("link0 share = %.3f (counts %v), want 0.625", ratio, perLink)
	}
}

func TestWRRUpstream(t *testing.T) {
	sim := netsim.New(4)
	tb, err := NewTestbed(sim, Params{
		Link0: LinkSpec{RateBps: 1e9},
		Link1: LinkSpec{RateBps: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableWRRUpstream(); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	tb.S1.HandleUDP(7000, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		delivered++
	})
	var perLink [2]int
	tb.CPELink[0].Tap = func([]byte) { perLink[0]++ }
	tb.CPELink[1].Tap = func([]byte) { perLink[1]++ }

	const n = 160
	for i := 0; i < n; i++ {
		i := i
		sim.Schedule(int64(i)*100*netsim.Microsecond, func() {
			raw, _ := packet.BuildPacket(S2Addr, S1Addr,
				packet.WithUDP(6000, 7000), packet.WithPayload(make([]byte, 64)))
			tb.S2.Output(raw)
		})
	}
	sim.Run()
	if delivered != n {
		t.Fatalf("delivered %d/%d; CPE=%v Agg=%v", delivered, n, tb.CPE.Counters(), tb.Agg.Counters())
	}
	if perLink[0] == 0 || perLink[1] == 0 {
		t.Errorf("upstream not split: %v", perLink)
	}
}

// TestTWDCompensatorMeasuresSkew checks the daemon's estimates against
// the configured link delays and its netem action.
func TestTWDCompensatorMeasuresSkew(t *testing.T) {
	sim := netsim.New(5)
	tb, err := NewTestbed(sim, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.DeployEndDM(true); err != nil {
		t.Fatal(err)
	}
	comp := tb.StartCompensator(50 * netsim.Millisecond)
	sim.RunUntil(3 * netsim.Second)
	comp.Stop()
	sim.RunUntil(3*netsim.Second + 200*netsim.Millisecond)

	if comp.ProbesReceived < 50 {
		t.Fatalf("probes: sent %d received %d; CPE=%v", comp.ProbesSent, comp.ProbesReceived, tb.CPE.Counters())
	}
	// RTTs ≈ 30 ms and ≈ 5 ms.
	if math.Abs(comp.RTT(0)-30e6)/30e6 > 0.25 {
		t.Errorf("link0 RTT = %.1f ms, want ≈30", comp.RTT(0)/1e6)
	}
	if math.Abs(comp.RTT(1)-5e6)/5e6 > 0.6 {
		t.Errorf("link1 RTT = %.1f ms, want ≈5", comp.RTT(1)/1e6)
	}
	// The fast link (1) carries the compensation: (30-5)/2 ≈ 12.5 ms.
	applied := comp.Applied[1]
	if applied < 8*netsim.Millisecond || applied > 17*netsim.Millisecond {
		t.Errorf("applied compensation = %.1f ms, want ≈12.5", float64(applied)/1e6)
	}
	if comp.Applied[0] != 0 {
		t.Errorf("slow link also delayed by %d", comp.Applied[0])
	}
}
