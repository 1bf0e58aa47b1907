package main

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/partition"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/tcpsim"
	"srv6bpf/internal/trafgen"
)

// A workload names one traffic scenario. build is the timed set-up
// (topology, routes, program load, partition); everything it returns
// runs untimed or inside the measured slices.
type workload struct {
	name string
	why  string
	// windowNs is the measured model-time window at scale 1; the
	// warm-up before it is a tenth of that.
	windowNs int64
	// srh reports whether the packets carry an SRH at the router hops
	// (selects the parse probe used for attribution).
	srh bool
	// fibProbe names the FIB probe that matches the workload's tables.
	fibProbe string
	// heapDepth is the pending-event count the engine probe holds its
	// heap at for this workload: 8 on the lab-sized ones, 512 on the
	// 200-node ones.
	heapDepth int64
	build     func(seed int64, tr *tracer) (*instance, error)
	// buildSeq, on a sharded workload, builds the same sim on the
	// sequential engine: the traced pass reruns it for the speed-up
	// ratio and to check that sharding left every counter alone.
	buildSeq func(seed int64, tr *tracer) (*instance, error)
}

// instance is one built repetition of a workload.
type instance struct {
	sim *netsim.Sim
	// settle runs untimed model time before traffic starts (the TWD
	// compensator's convergence on hybrid-tcp); nil elsewhere.
	settle func()
	// start begins traffic that stops by itself at the absolute
	// model time until.
	start func(until int64) error
	// sent reports packets originated by end hosts so far.
	sent func() uint64
	// drain stops traffic and runs the simulation dry.
	drain func()
	// delivered reports packets handed to their sink.
	delivered func() uint64
	// intendedDrops reports drops the model is built to produce
	// (rx_ring_full at R under overload, netem tail drops under TCP);
	// any other undelivered packet is a failure.
	intendedDrops func() uint64
	// sinkRate is the model-time delivery rate for the golden file
	// (packets/s for UDP sinks, goodput bit/s for TCP).
	sinkRate func() float64
	// tcpSenders are the bulk transfers' sending ends (hybrid-tcp only).
	tcpSenders []*tcpsim.Sender
}

// The six workloads. Topology constants stay fixed across seeds so
// cut sizes and table shapes compare; the seed feeds netsim.New (node
// RNG streams: netem jitter, BPF prandom), the permutation pairing
// and the flow-label phase.
var workloads = []workload{
	{
		name:      "lab3-end",
		srh:       true,
		fibProbe:  "lab",
		heapDepth: 8,
		why:       "bare SRv6 forwarding (static End) on the paper's 3-node lab below capacity: the baseline bpf/* and core never touch",
		windowNs:  1500 * netsim.Millisecond,
		build: func(seed int64, tr *tracer) (*instance, error) {
			return buildLab3(seed, tr, lab3Static, []int64{2000}, 1)
		},
	},
	{
		name:      "lab3-bpf",
		srh:       true,
		fibProbe:  "lab",
		heapDepth: 8,
		why:       "same lab and rate through the four Fig. 2 End.BPF programs: differs from lab3-end only by core + bpf/vm + helpers",
		windowNs:  1500 * netsim.Millisecond,
		build: func(seed int64, tr *tracer) (*instance, error) {
			return buildLab3(seed, tr, lab3BPF, []int64{8000, 8000, 8000, 8000}, 1)
		},
	},
	{
		name:      "lab3-bpf-overload",
		srh:       true,
		fibProbe:  "lab",
		heapDepth: 8,
		why:       "the paper's 3 Mpps offered load with burst 32: R saturates and most packets die in the rx ring, so the drop path and burst caches run",
		windowNs:  600 * netsim.Millisecond,
		build: func(seed int64, tr *tracer) (*instance, error) {
			// De-tuned gaps keep the four generators from phase-locking
			// against R's drain, so each program gets a quarter of the runs.
			return buildLab3(seed, tr, lab3BPF, []int64{1331, 1333, 1337, 1339}, 32)
		},
	},
	{
		name:      "fattree208-seq",
		fibProbe:  "fattree",
		heapDepth: 512,
		why:       "208-node k=8 fat-tree, plain IPv6 permutation traffic, sequential engine: event heap, ECMP FIB and link/qdisc dominate; no seg6, no BPF",
		windowNs:  80 * netsim.Millisecond,
		build: func(seed int64, tr *tracer) (*instance, error) {
			return buildScale(seed, tr, "fattree", 1)
		},
	},
	{
		name:      "waxman256-par2",
		fibProbe:  "fattree",
		heapDepth: 512,
		why:       "256-node Waxman graph on the conservative 2-shard engine with min-cut placement: the only workload with barriers, cross-shard messages and the partitioner",
		windowNs:  60 * netsim.Millisecond,
		build: func(seed int64, tr *tracer) (*instance, error) {
			return buildScale(seed, tr, "waxman", 2)
		},
		buildSeq: func(seed int64, tr *tracer) (*instance, error) {
			return buildScale(seed, tr, "waxman", 1)
		},
	},
	{
		name:      "hybrid-tcp",
		srh:       true,
		fibProbe:  "lab",
		heapDepth: 8,
		why:       "the paper's hybrid-access testbed: 4 TCP transfers over WRR (LWT BPF, maps) with End.DM + TWD compensation on jittered, queue-limited links; the costliest experiment users run",
		windowNs:  12 * netsim.Second,
		build: func(seed int64, tr *tracer) (*instance, error) {
			return buildHybrid(seed, tr)
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// Lab addresses (setup 1 of the paper's Figure 1: S1 -- R -- S2).
var (
	labS1 = netip.MustParseAddr("2001:db8:1::1")
	labR  = netip.MustParseAddr("2001:db8:10::1")
	labS2 = netip.MustParseAddr("2001:db8:2::1")
)

// labSID is the i-th SID on R.
func labSID(i int) netip.Addr {
	return netip.MustParseAddr(fmt.Sprintf("fc00:10::f%d", i+1))
}

const (
	lab3Static = iota
	lab3BPF
)

// lab3Specs are the Fig. 2 End.BPF programs, one per SID.
func lab3Specs() []*bpf.ProgramSpec {
	return []*bpf.ProgramSpec{
		progs.EndSpec(), progs.EndTSpec(7), progs.TagIncrementSpec(), progs.AddTLVSpec(),
	}
}

// buildLab3 builds the §3.2 lab with one generator per entry of
// gapsNs (its inter-packet gap), each towards its own SID on R.
func buildLab3(seed int64, tr *tracer, mode int, gapsNs []int64, burst int) (*instance, error) {
	sp := tr.begin("setup.topo")
	sim := netsim.New(seed)
	s1 := sim.AddNode("S1", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	s2 := sim.AddNode("S2", netsim.HostCostModel())
	s1.AddAddress(labS1)
	r.AddAddress(labR)
	s2.AddAddress(labS2)
	tenG := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	s1If, rs1If := netsim.ConnectSymmetric(s1, r, tenG)
	rs2If, s2If := netsim.ConnectSymmetric(r, s2, tenG)
	tr.end(sp)

	sp = tr.begin("setup.routes")
	fwd := func(n *netsim.Node, p string, out *netsim.Iface) error {
		return n.AddRoute(&netsim.Route{Prefix: pfx(p), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: out}}})
	}
	for _, err := range []error{
		fwd(s1, "::/0", s1If),
		fwd(s2, "::/0", s2If),
		fwd(r, "2001:db8:1::/48", rs1If),
		fwd(r, "2001:db8:2::/48", rs2If),
	} {
		if err != nil {
			return nil, err
		}
	}
	// Table 7 (End.T) forwards S2's prefix like main.
	r.Table(7).Add(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rs2If}}})
	tr.end(sp)

	sp = tr.begin("setup.bpf_load")
	for i := range gapsNs {
		route := &netsim.Route{Prefix: netip.PrefixFrom(labSID(i), 128), Kind: netsim.RouteSeg6Local}
		if mode == lab3Static {
			route.Behaviour = &seg6.Behaviour{Action: seg6.ActionEnd}
		} else {
			prog, err := bpf.LoadProgram(lab3Specs()[i], core.Seg6LocalHook(), nil, bpf.LoadOptions{})
			if err != nil {
				return nil, err
			}
			end, err := core.AttachEndBPF(prog)
			if err != nil {
				return nil, err
			}
			route.Behaviour = end.Behaviour()
		}
		if err := r.AddRoute(route); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	sim.SetBurst(burst)

	sink := trafgen.NewSink(s2, 9999)
	phase := uint64(seed)
	gens := make([]*trafgen.UDPGen, len(gapsNs))
	for i, gap := range gapsNs {
		gens[i] = &trafgen.UDPGen{
			Node: s1, Src: labS1, Dst: labSID(i),
			SrcPort: 1000, DstPort: 9999, PayloadLen: 64,
			SRH:       packet.NewSRH([]netip.Addr{labSID(i), labS2}),
			FlowLabel: func(n uint64) uint32 { return uint32((n + phase) % 16) },
			// UDPGen truncates 1e9/RatePPS to whole ns; aim mid-interval.
			RatePPS: 1e9 / (float64(gap) + 0.5),
		}
	}
	return &instance{
		sim: sim,
		start: func(until int64) error {
			// Stagger the generators evenly over one gap so equal-rate
			// flows interleave instead of arriving in clumps.
			for i, g := range gens {
				g := g
				s1.Schedule(sim.Now()+int64(i)*gapsNs[i]/int64(len(gens)), func() {
					if err := g.Start(until); err != nil {
						panic(err)
					}
				})
			}
			return nil
		},
		sent: func() uint64 { return sentBy(gens) },
		drain: func() {
			for _, g := range gens {
				g.Stop()
			}
			sim.Run()
		},
		delivered:     func() uint64 { return sink.Packets },
		intendedDrops: func() uint64 { return r.Counters()["rx_ring_full"] },
		sinkRate:      sink.RatePPS,
	}, nil
}

func sentBy(gens []*trafgen.UDPGen) uint64 {
	var n uint64
	for _, g := range gens {
		n += g.Sent()
	}
	return n
}

// The committed 256-node Waxman graph (same constants as
// experiments.ShardScalingRun, so cut sizes compare with BENCH_PR10).
const (
	waxmanNodes = 256
	waxmanAlpha = 0.25
	waxmanBeta  = 0.15
	waxmanSeed  = 20
	minCutSeed  = 1
)

var scaleLink = topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond}

func buildTopo(sim *netsim.Sim, kind string) (*topo.Network, error) {
	if kind == "fattree" {
		return topo.FatTree(sim, 8, topo.Opts{Link: scaleLink})
	}
	return topo.Waxman(sim, waxmanNodes, topo.WaxmanParams{Alpha: waxmanAlpha, Beta: waxmanBeta, Seed: waxmanSeed}, topo.Opts{Link: scaleLink})
}

// buildScale builds an all-hosts permutation of 64-B plain IPv6 UDP
// at 20 kpps per host over a generated topology.
func buildScale(seed int64, tr *tracer, kind string, shards int) (*instance, error) {
	sp := tr.begin("setup.topo") // topo generators install routes in the same call
	sim := netsim.New(seed)
	nw, err := buildTopo(sim, kind)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sinks := make([]*trafgen.Sink, len(nw.Hosts))
	for i, h := range nw.Hosts {
		sinks[i] = trafgen.NewSink(h, 9)
	}
	pairs := nw.PermutationPairs(seed + 98)
	phase := uint64(seed)
	gens := make([]*trafgen.UDPGen, len(pairs))
	for i, pr := range pairs {
		gens[i] = &trafgen.UDPGen{
			Node: pr[0], Src: nw.HostAddr(pr[0]), Dst: nw.HostAddr(pr[1]),
			SrcPort: 1000, DstPort: 9, PayloadLen: 64,
			FlowLabel: func(n uint64) uint32 { return uint32((n + phase) % 16) },
			RatePPS:   20_000,
		}
	}
	if shards > 1 {
		sp = tr.begin("setup.partition")
		assign, err := partition.MinCut(partition.FromSim(sim), shards, minCutSeed)
		if err == nil {
			err = sim.SetShardsPartitioned(shards, assign, netsim.EngineConservative)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return &instance{
		sim: sim,
		start: func(until int64) error {
			for i, g := range gens {
				g := g
				g.Node.Schedule(sim.Now()+int64(i)*netsim.Microsecond, func() {
					if err := g.Start(until); err != nil {
						panic(err)
					}
				})
			}
			return nil
		},
		sent: func() uint64 { return sentBy(gens) },
		drain: func() {
			for _, g := range gens {
				g.Stop()
			}
			sim.Run()
		},
		delivered: func() uint64 {
			var n uint64
			for _, s := range sinks {
				n += s.Packets
			}
			return n
		},
		intendedDrops: func() uint64 { return 0 },
		sinkRate: func() float64 {
			var r float64
			for _, s := range sinks {
				r += s.RatePPS()
			}
			return r
		},
	}, nil
}

// buildHybrid builds the §4.2 TCP experiment: WRR in both directions,
// End.DM + the TWD compensator, four bulk transfers S1 -> S2.
func buildHybrid(seed int64, tr *tracer) (*instance, error) {
	sp := tr.begin("setup.topo") // NewTestbed installs the static routes too
	sim := netsim.New(seed)
	tb, err := hybrid.NewTestbed(sim, hybrid.Params{
		Link0: hybrid.LinkSpec{RateBps: 50_000_000, OneWayDelay: 15 * netsim.Millisecond, OneWayJitter: 2_500_000, QueueLimit: 300},
		Link1: hybrid.LinkSpec{RateBps: 30_000_000, OneWayDelay: 2_500_000, OneWayJitter: 1_000_000, QueueLimit: 300},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("setup.bpf_load")
	err = tb.EnableWRRDownstream()
	if err == nil {
		err = tb.EnableWRRUpstream()
	}
	if err == nil {
		err = tb.DeployEndDM(true)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s1, s2 := tcpsim.NewStack(tb.S1), tcpsim.NewStack(tb.S2)
	var senders []*tcpsim.Sender
	var receivers []*tcpsim.Receiver
	for i := 0; i < 4; i++ {
		snd, rcv, err := tcpsim.NewTransfer(s1, s2, hybrid.S1Addr, hybrid.S2Addr,
			uint16(41000+i), uint16(5001+i), tcpsim.Config{FlowLabel: uint32(100 + i)})
		if err != nil {
			return nil, err
		}
		senders = append(senders, snd)
		receivers = append(receivers, rcv)
	}
	var comp *hybrid.Compensator
	hostTx := func() uint64 { return tb.S1.Ifaces()[0].TxPackets + tb.S2.Ifaces()[0].TxPackets }
	return &instance{
		sim: sim,
		settle: func() {
			comp = tb.StartCompensator(100 * netsim.Millisecond)
			sim.RunUntil(2 * netsim.Second)
		},
		start: func(until int64) error {
			for _, snd := range senders {
				snd.Start()
			}
			return nil
		},
		sent: hostTx,
		drain: func() {
			for _, snd := range senders {
				snd.Stop()
			}
			comp.Stop()
			sim.RunUntil(sim.Now() + netsim.Second)
		},
		delivered: func() uint64 {
			return tb.S1.Counters()["tcp_delivered"] + tb.S2.Counters()["tcp_delivered"]
		},
		// Tail drops at the queue-limited access links are how the
		// model signals congestion to TCP.
		intendedDrops: func() uint64 {
			var n uint64
			for i := 0; i < 2; i++ {
				n += tb.AggLink[i].TxDrops + tb.CPELink[i].TxDrops
			}
			return n
		},
		sinkRate: func() float64 {
			var bps float64
			for _, rcv := range receivers {
				bps += rcv.GoodputBps()
			}
			return bps
		},
		tcpSenders: senders,
	}, nil
}
