package netsim_test

// Sequential-vs-sharded equivalence, one scenario at a time: the lock
// that makes sharded execution trustworthy. A scenario is a topology
// (Waxman, fat-tree, ring — some with zero-delay links only a
// topology-aware placement can shard), a UDP permutation mix over its
// hosts and, optionally, TCP bulk transfers, an SRv6 detour, a chaos
// campaign and a link failure/restore schedule on top. runScenario
// replays it on a given shard count and fingerprints the final state;
// every equivalence test in this package requires the sharded
// fingerprints to equal the sequential one.
//
// FuzzScenario is the coverage-guided form: its first argument switches
// the scenario's features, its second seeds the continuous parameters.
// `go test` replays the seed corpus below; `go test -run '^$' -fuzz
// FuzzScenario ./internal/netsim` mutates it (`make fuzz-native`).

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/chaos"
	"srv6bpf/internal/netsim/partition"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
	"srv6bpf/internal/tcpsim"
	"srv6bpf/internal/trafgen"
)

// scenario is one deterministic run description: every arm built from
// it builds the identical network and traffic.
type scenario struct {
	seed     int64  // the simulator's seed; the run-time draws derive from it too
	kind     string // "waxman", "fattree", "ring" or "fattree-zerodelay"
	k        int    // fat-tree arity
	n        int    // Waxman or ring node count
	waxman   topo.WaxmanParams
	link     topo.LinkSpec
	duration int64
	rate     float64
	pairs    int64 // seed of the host permutation
	flowMod  uint64
	// fails is the number of random link failures, each restored or not.
	fails int
	// tcp is the number of TCP bulk transfers riding on the scenario.
	tcp int
	// chaos is the number of crash/restart cycles and of flap bursts in
	// a fault campaign that also opens corruption, duplication and
	// reordering windows (0: no campaign). Fault events and impairment
	// draws must replay bit-identically at every shard count.
	chaos int
	// srv6 overlays a segment-routed detour on one traffic pair: a
	// reduced encap at the source, a (possibly PSP-flavored) End SID
	// on a transit host and a DT6/DT46 decap SID at the destination,
	// so the registry-dispatched behaviours run at every shard count.
	srv6 bool
	// mincut shards with partition.MinCut seeded by cutSeed instead of
	// the contiguous block: zero-delay pod links need it, and the
	// bit-identical replay must hold under any placement.
	mincut  bool
	cutSeed int64
}

// tenGig is the link of the hand-written fat-tree scenarios.
var tenGig = topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond}

// FuzzScenario's switches: two bits pick the topology, the next three
// turn chaos, the SRv6 overlay and the min-cut placement on, two more
// count the TCP transfers (3 counts as 2) and the last doubles the
// chaos campaign.
const (
	waxman        = 0
	fattree       = 1
	ring          = 2
	zeroDelayPods = 3
	withChaos     = 1 << 2
	withSRv6      = 1 << 3
	withMinCut    = 1 << 4
	tcp1          = 1 << 5
	tcp2          = 2 << 5
	tcp3          = 3 << 5
	doubleChaos   = 1 << 7
)

var kinds = [4]string{waxman: "waxman", fattree: "fattree", ring: "ring", zeroDelayPods: "fattree-zerodelay"}

// fuzzScenario reads the features off switches and draws the
// continuous parameters from seed.
func fuzzScenario(switches uint8, seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := scenario{
		seed:    seed,
		kind:    kinds[switches&3],
		k:       4,
		tcp:     min(int(switches>>5&3), 2),
		srv6:    switches&withSRv6 != 0,
		mincut:  switches&withMinCut != 0 || switches&3 == zeroDelayPods,
		cutSeed: seed,
	}
	if switches&withChaos != 0 {
		sc.chaos = 1 + int(switches>>7)
	}
	sc.duration = (1 + rng.Int63n(2)) * netsim.Millisecond
	sc.rate = float64(5000 + rng.Intn(45000))
	sc.pairs = rng.Int63n(1 << 30)
	sc.flowMod = uint64(4 + rng.Intn(12))
	sc.fails = rng.Intn(4)
	sc.link = topo.LinkSpec{RateBps: int64(1+rng.Intn(10)) * 1_000_000_000, DelayNs: (5 + rng.Int63n(45)) * netsim.Microsecond}
	sc.n = 8 + rng.Intn(20)
	sc.waxman = topo.WaxmanParams{Alpha: 0.4 + 0.5*rng.Float64(), Beta: 0.3 + 0.5*rng.Float64(), Seed: rng.Int63()}
	return sc
}

// scenarioCorpus is FuzzScenario's seed corpus, which `go test` replays,
// and the scenario list of TestBufListPoisonChangesNothing. It covers
// every switch value at least once; half its entries carry a chaos
// campaign (`make chaos-smoke`).
var scenarioCorpus = []struct {
	switches uint8
	seed     int64
}{
	{zeroDelayPods | withChaos, 7777},
	{waxman | withChaos | doubleChaos, 7908},
	{zeroDelayPods | withChaos | withMinCut, 8039},
	{ring | tcp1, 8170},
	{fattree | tcp1 | withSRv6 | withMinCut, 8302},
	{zeroDelayPods | withChaos | doubleChaos | withSRv6, 8432},
	{waxman | withMinCut, 8563},
	{waxman | tcp1 | withSRv6, 8694},
	{ring | tcp1 | withSRv6, 8827},
	{waxman, 8956},
	{waxman | tcp2 | withSRv6 | withMinCut, 9087},
	{ring | tcp1 | withChaos | doubleChaos | withSRv6, 9218},
	{waxman | tcp3 | withChaos, 9349},
	{zeroDelayPods | tcp2 | withMinCut, 9480},
	{fattree | tcp1 | withChaos | doubleChaos, 9611},
	{waxman | withChaos | withMinCut, 9742},
}

// buildTopo constructs the scenario's network.
func buildTopo(t *testing.T, sim *netsim.Sim, sc scenario) *topo.Network {
	t.Helper()
	opts := topo.Opts{Link: sc.link}
	var nw *topo.Network
	var err error
	switch sc.kind {
	case "waxman":
		nw, err = topo.Waxman(sim, sc.n, sc.waxman, opts)
	case "fattree":
		nw, err = topo.FatTree(sim, sc.k, opts)
	case "fattree-zerodelay":
		opts.PodLink = topo.LinkSpec{RateBps: sc.link.RateBps, DelayNs: -1} // true zero delay
		nw, err = topo.FatTree(sim, sc.k, opts)
	case "ring":
		nw, err = topo.Ring(sim, sc.n, opts)
	default:
		t.Fatalf("unknown topology %q", sc.kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// runScenario replays the scenario on the given shard count and
// fingerprints the final state: every node's counters, every host's
// delivery trace, the SRv6 detour's deliveries, the per-link failure
// accounting, the TCP transfers' statistics and the recorded spans.
func runScenario(t *testing.T, sc scenario, shards int) (string, netsim.EngineStats) {
	t.Helper()
	sim := netsim.New(sc.seed)
	nw := buildTopo(t, sim, sc)
	// Flight recorder on in every arm, sampling half the flows: the
	// span streams join the fingerprint, so traces must replay
	// bit-identically across shard counts.
	sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 1})

	// Per-host delivery traces: (rx time, source, flow label) of every
	// arrival, each journal appended only by its owner's shard.
	journals := make([]*netsim.Journal, len(nw.Hosts))
	for i, h := range nw.Hosts {
		j := netsim.NewJournal()
		journals[i] = j
		h.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
			j.Addf("%d:%s:%d", meta.RxTimestamp, p.IPv6.Src, p.IPv6.FlowLabel)
			n.Release(meta) // the generators' buffers go round, chaos or not
		})
	}
	pairs := nw.PermutationPairs(sc.pairs)
	gens := make([]*trafgen.UDPGen, len(pairs))
	for i, pr := range pairs {
		gens[i] = &trafgen.UDPGen{
			Node: pr[0], Src: nw.HostAddr(pr[0]), Dst: nw.HostAddr(pr[1]),
			SrcPort: 1000, DstPort: 9, PayloadLen: 64,
			// Vary the flow label so packets ECMP-spread.
			FlowLabel: func(k uint64) uint32 { return uint32(k % sc.flowMod) },
			RatePPS:   sc.rate,
		}
	}

	// SRv6 overlay: pick three distinct hosts S, T, D and steer S's
	// generated flow through a segment list. S applies a reduced encap
	// toward an End SID on T (half the scenarios flavor it PSP, so the
	// SRH pops mid-path) and on to a DT6 or DT46 decap SID on D; the
	// flow targets an auxiliary address inside D's /48 so delivery
	// proves the whole behaviour chain ran. Every address lives inside
	// an existing host /48, so the topology's BFS routes carry the
	// detour without extra routing state.
	var srv6Src netip.Addr
	var srv6Dst *netsim.Node
	if sc.srv6 && len(nw.Hosts) >= 3 {
		srng := rand.New(rand.NewSource(sc.seed ^ 0x73727636)) // "srv6"
		perm := srng.Perm(len(nw.Hosts))
		src, transit, dst := nw.Hosts[perm[0]], nw.Hosts[perm[1]], nw.Hosts[perm[2]]
		srv6Src, srv6Dst = nw.HostAddr(src), dst

		sidIn := func(h *netsim.Node, tail byte) netip.Addr {
			b := nw.HostAddr(h).As16()
			b[15] = tail
			return netip.AddrFrom16(b)
		}
		aux := sidIn(dst, 0x02)
		dst.AddAddress(aux)

		endB := &seg6.Behaviour{Action: seg6.ActionEnd}
		if srng.Intn(2) == 0 {
			endB.Flavors = seg6.FlavorPSP
		}
		tSID := sidIn(transit, 0xe5)
		if err := transit.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(tSID, 128),
			Kind: netsim.RouteSeg6Local, Behaviour: endB}); err != nil {
			t.Fatal(err)
		}

		decapAction := seg6.ActionEndDT6
		if srng.Intn(2) == 0 {
			decapAction = seg6.ActionEndDT46
		}
		dSID := sidIn(dst, 0xd6)
		if err := dst.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(dSID, 128),
			Kind: netsim.RouteSeg6Local, Behaviour: &seg6.Behaviour{Action: decapAction}}); err != nil {
			t.Fatal(err)
		}

		if err := src.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(aux, 128),
			Kind: netsim.RouteSeg6Encap, Mode: netsim.EncapModeEncapRed,
			SRH: packet.NewSRH([]netip.Addr{tSID, dSID})}); err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			if g.Node == src {
				g.Dst = aux
			}
		}
	}

	// TCP transfers between deterministically drawn host pairs.
	type tcpArm struct {
		snd *tcpsim.Sender
		rcv *tcpsim.Receiver
	}
	var tcps []tcpArm
	if sc.tcp > 0 && len(nw.Hosts) >= 2 {
		trng := rand.New(rand.NewSource(sc.seed ^ 0x746370)) // "tcp"
		stacks := make(map[*netsim.Node]*tcpsim.Stack)
		stackFor := func(n *netsim.Node) *tcpsim.Stack {
			st, ok := stacks[n]
			if !ok {
				st = tcpsim.NewStack(n)
				stacks[n] = st
			}
			return st
		}
		for i := 0; i < sc.tcp; i++ {
			src := nw.Hosts[trng.Intn(len(nw.Hosts))]
			dst := nw.Hosts[trng.Intn(len(nw.Hosts))]
			startAt := trng.Int63n(sc.duration / 2)
			if src == dst {
				continue
			}
			snd, rcv, err := tcpsim.NewTransfer(stackFor(src), stackFor(dst),
				nw.HostAddr(src), nw.HostAddr(dst), uint16(40000+i), uint16(5001+i),
				tcpsim.Config{MSS: 512, MinRTO: 300 * netsim.Microsecond, FlowLabel: uint32(100 + i)})
			if err != nil {
				t.Fatal(err)
			}
			src.Schedule(startAt, snd.Start)
			tcps = append(tcps, tcpArm{snd: snd, rcv: rcv})
		}
	}

	if shards > 1 {
		if sc.mincut {
			assign, err := partition.MinCut(partition.FromSim(sim), shards, sc.cutSeed)
			if err != nil {
				t.Fatalf("MinCut(%d): %v", shards, err)
			}
			if err := sim.SetShardsPartitioned(shards, assign); err != nil {
				t.Fatalf("SetShardsPartitioned(%d): %v", shards, err)
			}
		} else if err := sim.SetShards(shards); err != nil {
			t.Fatalf("SetShards(%d): %v", shards, err)
		}
	}

	// Chaos campaign: crash/restart cycles, flap bursts and impairment
	// windows drawn from the campaign's own seed. Planned identically
	// in every arm; the injected events carry deterministic keys, so
	// the schedule is independent of the shard count.
	if sc.chaos > 0 {
		ch := chaos.New(sim, sc.seed^0x63686173) // "chas"
		ch.Apply(chaos.Campaign{
			Start:       sc.duration / 8,
			End:         sc.duration * 7 / 8,
			Crashes:     sc.chaos,
			CrashDown:   [2]int64{50 * netsim.Microsecond, sc.duration / 3},
			Flaps:       sc.chaos,
			FlapPeriod:  [2]int64{40 * netsim.Microsecond, 200 * netsim.Microsecond},
			FlapCycles:  [2]int{2, 5},
			Impairments: 2,
			ImpairLen:   [2]int64{sc.duration / 8, sc.duration / 2},
			Impair: chaos.Impairment{
				Corrupt: 0.05, Duplicate: 0.05, Reorder: 0.2,
			},
		}, nil, nil)
	}

	// Random link failure/restore schedule, derived deterministically
	// from the scenario seed. Sim.FailLink splits the flip across
	// shards, so any link — including cross-shard ones — is fair game.
	frng := rand.New(rand.NewSource(sc.seed ^ 0x6661696c)) // "fail"
	for f := 0; f < sc.fails; f++ {
		node := nw.Nodes[frng.Intn(len(nw.Nodes))]
		ifaces := node.Ifaces()
		if len(ifaces) == 0 {
			continue
		}
		ifc := ifaces[frng.Intn(len(ifaces))]
		at := frng.Int63n(sc.duration * 3 / 4)
		sim.FailLink(at, ifc)
		if frng.Intn(2) == 0 {
			sim.RestoreLink(at+frng.Int63n(sc.duration/2)+netsim.Microsecond, ifc)
		}
	}

	for i, g := range gens {
		g := g
		// Staggered starts, scheduled on each source's own shard.
		g.Node.Schedule(int64(i)*netsim.Microsecond, func() {
			if err := g.Start(sc.duration); err != nil {
				panic(err)
			}
		})
	}
	sim.RunUntil(sc.duration)
	for _, g := range gens {
		g.Stop()
	}
	for _, a := range tcps {
		a.snd.Stop()
	}
	sim.Run()

	var b strings.Builder
	for i, j := range journals {
		fmt.Fprintf(&b, "trace[%s]=%s\n", nw.Hosts[i].Name, strings.Join(j.Lines(), ","))
	}
	// The srv6-detoured flow's deliveries join the fingerprint by name,
	// so a test can require the overlay to deliver (srv6Delivered).
	if srv6Dst != nil {
		srv6N := 0
		for i, j := range journals {
			if nw.Hosts[i] != srv6Dst {
				continue
			}
			needle := ":" + srv6Src.String() + ":"
			for _, ln := range j.Lines() {
				if strings.Contains(ln, needle) {
					srv6N++
				}
			}
		}
		fmt.Fprintf(&b, "srv6_delivered=%d\n", srv6N)
	}
	for _, n := range nw.Nodes {
		for _, ifc := range n.Ifaces() {
			fmt.Fprintf(&b, "if[%s] tx=%d txd=%d down=%d\n", ifc, ifc.TxPackets, ifc.TxDrops, ifc.DownDrops())
		}
	}
	for i, a := range tcps {
		fmt.Fprintf(&b, "tcp[%d] sent=%d rtx=%d fr=%d to=%d dsack=%d good=%d ooo=%d dup=%d\n",
			i, a.snd.SegmentsSent, a.snd.Retransmits, a.snd.FastRecoveries, a.snd.Timeouts,
			a.snd.DSACKs, a.rcv.GoodputBytes, a.rcv.OutOfOrderSegs, a.rcv.DupSegs)
	}
	for _, tb := range sim.TraceBufs() {
		if tb.Len() > 0 {
			fmt.Fprintf(&b, "spans[%s]=%s\n", tb.Node(), strings.Join(tb.Lines(), ","))
		}
	}
	return fingerprint(sim, []string{b.String()}), sim.EngineStats()
}

// equivalent runs sc sequentially and then on each of shards, requires
// every sharded fingerprint to equal the sequential one, and returns
// the sequential fingerprint and the engine stats of every run, the
// sequential one first.
func equivalent(t *testing.T, sc scenario, shards ...int) (string, []netsim.EngineStats) {
	t.Helper()
	base, st := runScenario(t, sc, 1)
	stats := []netsim.EngineStats{st}
	for _, n := range shards {
		got, st := runScenario(t, sc, n)
		if got != base {
			diffReport(t, base, got, n)
		}
		stats = append(stats, st)
	}
	return base, stats
}

// srv6Delivered reads the SRv6 detour's delivery count off a
// fingerprint (-1 without the overlay).
func srv6Delivered(fp string) int {
	_, rest, ok := strings.Cut(fp, "srv6_delivered=")
	if !ok {
		return -1
	}
	n, _ := strconv.Atoi(rest[:strings.IndexByte(rest, '\n')])
	return n
}

// FuzzScenario: a scenario must not panic, must deliver, and must
// replay on 2, 4 and 8 shards exactly as it runs sequentially. An SRv6
// detour that nothing disturbs — no link failure, no chaos — must also
// carry packets, or the overlay would pass by dropping them in every
// arm alike.
func FuzzScenario(f *testing.F) {
	for _, c := range scenarioCorpus {
		f.Add(c.switches, c.seed)
	}
	f.Fuzz(func(t *testing.T, switches uint8, seed int64) {
		sc := fuzzScenario(switches, seed)
		t.Logf("%+v", sc)
		base, _ := equivalent(t, sc, 2, 4, 8)
		if !strings.Contains(base, "udp_delivered") {
			t.Fatal("scenario delivered nothing")
		}
		if sc.srv6 && sc.fails == 0 && sc.chaos == 0 && srv6Delivered(base) <= 0 {
			t.Fatalf("undisturbed SRv6 detour delivered %d packets", srv6Delivered(base))
		}
	})
}

// TestZeroDelayPodsUnderMinCut is the configuration the contiguous
// block partition cannot shard: a full 208-node k=8 fat-tree whose
// intra-pod (edge–aggregation) hops carry zero propagation delay — the
// back-to-back links of a real pod. The contiguous 4-shard cut splits
// a pod's edge and aggregation layers, so SetShards must reject it,
// naming the link; partition.MinCut keeps every pod whole, and the
// 2-, 4- and 8-shard runs must reproduce the sequential delivery trace
// bit for bit.
func TestZeroDelayPodsUnderMinCut(t *testing.T) {
	sc := scenario{seed: 7, kind: "fattree-zerodelay", k: 8, link: tenGig, duration: netsim.Millisecond,
		rate: 20_000, pairs: 99, flowMod: 16, mincut: true, cutSeed: 1}
	rej := netsim.New(sc.seed)
	if nw := buildTopo(t, rej, sc); len(nw.Nodes) != 208 {
		t.Fatalf("fat-tree k=8 has %d nodes, want 208", len(nw.Nodes))
	}
	err := rej.SetShards(4)
	if err == nil || !strings.Contains(err.Error(), "zero propagation delay") ||
		!strings.Contains(err.Error(), "netsim: link p") {
		t.Fatalf("contiguous SetShards on zero-delay pods: err = %v, want a rejection naming the pod link", err)
	}

	base, stats := equivalent(t, sc, 2, 4, 8)
	if !strings.Contains(base, "udp_delivered=") {
		t.Fatal("no deliveries in the sequential run")
	}
	for _, st := range stats[1:] {
		if st.Messages == 0 {
			t.Errorf("%d shards exchanged no cross-shard messages", st.Shards)
		}
		t.Logf("shards=%d events=%d windows=%d cut=%d msgs=%d", st.Shards, st.Events, st.Windows, st.CutLinks, st.Messages)
	}
}
