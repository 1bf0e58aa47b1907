package experiments

import (
	"fmt"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/trafgen"
)

// This file holds the ablations DESIGN.md calls out: design choices
// the paper names but could not (or did not) evaluate.

// Fig4JITAblation answers the paper's own hypothesis: "the 1.8×
// speedup factor provided by the JIT compiler ... could be leveraged
// here with a functioning ARM32 implementation" (§4.2). It reads the
// interpreted WRR curve off fig4, Figure4's points at the same window
// (as JITFactor reads Figure 2's rows), reruns only that curve's
// payloads with the JIT enabled on the CPE, and returns both curves.
func Fig4JITAblation(fig4 []Fig4Point, durationNs int64) (interp, jit []Fig4Point, err error) {
	for _, p := range fig4 {
		if p.Config != "eBPF WRR" {
			continue
		}
		g, err := fig4Run(p.Config, p.Payload, durationNs, true)
		if err != nil {
			return nil, nil, err
		}
		interp = append(interp, p)
		jit = append(jit, Fig4Point{Payload: p.Payload, Config: "eBPF WRR (JIT)", GoodputMbps: g / 1e6})
	}
	if len(interp) == 0 {
		return nil, nil, fmt.Errorf("experiments: missing eBPF WRR points")
	}
	return interp, jit, nil
}

// WeightRow is one row of the WRR weight ablation.
type WeightRow struct {
	Name        string
	Weights     [2]uint32
	GoodputMbps float64
	LinkDrops   uint64
}

// WRRWeightAblation justifies "the weights of the WRR match the
// uplink links capacities": over the 50/30 Mbps pair, capacity-
// proportional weights (5:3) deliver the aggregate, while equal
// striping (1:1) overloads the slower link and loses its excess.
func WRRWeightAblation(durationNs int64) ([]WeightRow, error) {
	run := func(name string, w [2]uint32) (WeightRow, error) {
		sim := netsim.New(8)
		tb, err := hybrid.NewTestbed(sim, hybrid.Params{
			Link0:   hybrid.LinkSpec{RateBps: 50_000_000, QueueLimit: 100},
			Link1:   hybrid.LinkSpec{RateBps: 30_000_000, QueueLimit: 100},
			Weights: w,
			WRRJIT:  true,
		})
		if err != nil {
			return WeightRow{}, err
		}
		if err := tb.EnableWRRDownstream(); err != nil {
			return WeightRow{}, err
		}
		sink := trafgen.NewSink(tb.S2, 9999)
		gen := &trafgen.UDPGen{
			Node: tb.S1, Src: hybrid.S1Addr, Dst: hybrid.S2Addr,
			SrcPort: 1, DstPort: 9999,
			PayloadLen: 1400,
			RatePPS:    80e6 / (1448 * 8), // offer the 80 Mbps aggregate
		}
		if err := gen.Start(sim.Now() + durationNs); err != nil {
			return WeightRow{}, err
		}
		sim.RunUntil(sim.Now() + durationNs + 500*netsim.Millisecond)
		drops := tb.AggLink[0].Qdisc().Dropped + tb.AggLink[1].Qdisc().Dropped
		return WeightRow{Name: name, Weights: w, GoodputMbps: sink.GoodputBps() / 1e6, LinkDrops: drops}, nil
	}

	var out []WeightRow
	for _, c := range []struct {
		name string
		w    [2]uint32
	}{
		{"capacity-matched 5:3", [2]uint32{5, 3}},
		{"equal split 1:1", [2]uint32{1, 1}},
	} {
		row, err := run(c.name, c.w)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}
