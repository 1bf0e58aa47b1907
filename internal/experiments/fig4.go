package experiments

import (
	"fmt"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/tcpsim"
	"srv6bpf/internal/trafgen"
)

// Fig4Point is one (payload size, configuration) measurement of
// Figure 4.
type Fig4Point struct {
	Payload     int     `json:"payload"`
	Config      string  `json:"config"`
	GoodputMbps float64 `json:"goodput_mbps"`
}

// fig4Configs are the three curves of Figure 4.
var fig4Configs = []string{"IPv6 forward.", "Kernel decap.", "eBPF WRR"}

// Fig4Payloads is the payload-size sweep of Figure 4.
var Fig4Payloads = []int{200, 400, 600, 800, 1000, 1200, 1400}

// Figure4 reproduces §4.2 Figure 4: aggregated UDP goodput through
// the Turris Omnia CPE for three configurations — plain IPv6
// forwarding, SRv6 encap with native kernel decapsulation on the CPE,
// and the eBPF WRR scheduler running interpreted (the paper's ARM32
// JIT is broken). iperf3-style UDP at 1 Gbps offered, payloads from
// 200 to 1400 bytes.
func Figure4(durationNs int64) ([]Fig4Point, error) {
	var out []Fig4Point
	for _, cfg := range fig4Configs {
		for _, payload := range Fig4Payloads {
			g, err := fig4Run(cfg, payload, durationNs, false)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig4Point{Payload: payload, Config: cfg, GoodputMbps: g / 1e6})
		}
	}
	return out, nil
}

// fig4Run measures one point of a Figure 4 curve; jit runs the WRR
// scheduler with the JIT (the ablation of Fig4JITAblation).
func fig4Run(cfg string, payload int, durationNs int64, jit bool) (float64, error) {
	sim := netsim.New(4)
	// Figure 4's lab has no netem shaping: both access links at 1 Gbps.
	tb, err := hybrid.NewTestbed(sim, hybrid.Params{
		Link0:  hybrid.LinkSpec{RateBps: 1_000_000_000},
		Link1:  hybrid.LinkSpec{RateBps: 1_000_000_000},
		WRRJIT: jit,
	})
	if err != nil {
		return 0, err
	}
	// "IPv6 forward." and "Kernel decap." stress the CPE downstream
	// (S1 -> S2); "eBPF WRR" stresses it upstream (S2 -> S1), where
	// the CPE itself runs the interpreted scheduler — the paper's
	// bottleneck ("the eBPF interpreter ... is the bottleneck").
	src, dst := hybrid.S1Addr, hybrid.S2Addr
	genNode, sinkNode := tb.S1, tb.S2
	switch cfg {
	case "IPv6 forward.":
		// Base topology: downstream rides link 0 unencapsulated.
	case "Kernel decap.":
		err = tb.EnableStaticEncapDownstream()
	case "eBPF WRR":
		err = tb.EnableWRRUpstream()
		src, dst = hybrid.S2Addr, hybrid.S1Addr
		genNode, sinkNode = tb.S2, tb.S1
	default:
		err = fmt.Errorf("experiments: unknown Figure 4 config %q", cfg)
	}
	if err != nil {
		return 0, err
	}

	sink := trafgen.NewSink(sinkNode, 9999)
	wire := payload + 8 + 40 // UDP + IPv6
	gen := &trafgen.UDPGen{
		Node: genNode, Src: src, Dst: dst,
		SrcPort: 1000, DstPort: 9999,
		PayloadLen: payload,
		RatePPS:    1e9 / float64(wire*8), // 1 Gbps offered
	}
	if err := window(sim, sink, durationNs, gen); err != nil {
		return 0, err
	}
	return sink.GoodputBps(), nil
}

// TCPResult is one row of the §4.2 TCP experiment.
type TCPResult struct {
	Name        string
	GoodputMbps float64
}

// TCPHybrid reproduces the §4.2 TCP results: a single connection over
// the uncompensated per-packet WRR collapses; with the TWD daemon's
// delay compensation one connection and four parallel connections
// approach the 80 Mbps aggregate.
func TCPHybrid(durationNs int64) ([]TCPResult, error) {
	run := func(compensate bool, flows int, seed int64) (float64, error) {
		sim := netsim.New(seed)
		tb, err := hybrid.NewTestbed(sim, hybrid.Params{
			Link0: hybrid.LinkSpec{RateBps: 50_000_000, OneWayDelay: 15 * netsim.Millisecond, OneWayJitter: 2_500_000, QueueLimit: 300},
			Link1: hybrid.LinkSpec{RateBps: 30_000_000, OneWayDelay: 2_500_000, OneWayJitter: 1_000_000, QueueLimit: 300},
		})
		if err != nil {
			return 0, err
		}
		if err := tb.EnableWRRDownstream(); err != nil {
			return 0, err
		}
		if err := tb.EnableWRRUpstream(); err != nil {
			return 0, err
		}
		var comp *hybrid.Compensator
		if compensate {
			if err := tb.DeployEndDM(true); err != nil {
				return 0, err
			}
			comp = tb.StartCompensator(100 * netsim.Millisecond)
			sim.RunUntil(2 * netsim.Second)
		}
		s1 := tcpsim.NewStack(tb.S1)
		s2 := tcpsim.NewStack(tb.S2)
		var snds []*tcpsim.Sender
		var rcvs []*tcpsim.Receiver
		for i := 0; i < flows; i++ {
			snd, rcv, err := tcpsim.NewTransfer(s1, s2, hybrid.S1Addr, hybrid.S2Addr,
				uint16(41000+i), uint16(5001+i), tcpsim.Config{FlowLabel: uint32(100 + i)})
			if err != nil {
				return 0, err
			}
			snds = append(snds, snd)
			rcvs = append(rcvs, rcv)
		}
		for _, snd := range snds {
			snd.Start()
		}
		sim.RunUntil(sim.Now() + durationNs)
		for _, snd := range snds {
			snd.Stop()
		}
		if comp != nil {
			comp.Stop()
		}
		sim.RunUntil(sim.Now() + netsim.Second)
		var total float64
		for _, rcv := range rcvs {
			total += rcv.GoodputBps()
		}
		return total, nil
	}

	var out []TCPResult
	for _, c := range []struct {
		name       string
		compensate bool
		flows      int
		seed       int64
	}{
		{"WRR, no compensation, 1 conn", false, 1, 11},
		{"WRR + TWD compensation, 1 conn", true, 1, 12},
		{"WRR + TWD compensation, 4 conns", true, 4, 13},
	} {
		g, err := run(c.compensate, c.flows, c.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, TCPResult{Name: c.name, GoodputMbps: g / 1e6})
	}
	return out, nil
}
