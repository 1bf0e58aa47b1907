package netsim_test

// Randomized equivalence fuzzing: the lock that makes sharded
// execution trustworthy. Each seeded scenario generates a topology
// (Waxman, fat-tree, ring — some with zero-delay links only a
// topology-aware placement can shard), a random UDP traffic mix, TCP
// bulk transfers riding on it and a random link failure/restore
// schedule, then replays the identical scenario sequentially and on 2,
// 4 and 8 shards and requires bit-identical per-node counters,
// delivery traces and transfer statistics from every arm.
//
// Depth scales with SRV6BPF_FUZZ_SCENARIOS (the scheduled CI job runs
// the full depth; `make check` runs the default smoke).

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
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

// fuzzScenario is the deterministic description derived from a seed.
type fuzzScenario struct {
	seed      int64
	kind      string
	zeroDelay bool // zero-delay pod links present: shards via min-cut
	duration  int64
	rate      float64
	pairs     int64 // PermutationPairs seed
	flowMod   uint64
	fails     int
	// tcp is the number of TCP bulk transfers riding on the scenario.
	tcp int
	// chaos adds a randomized fault campaign (node crash/restart,
	// link flapping, packet corruption/duplication/reordering windows)
	// on top of the scenario: fault events and impairment draws must
	// replay bit-identically at every shard count.
	chaos bool
	// srv6 overlays a segment-routed detour on one traffic pair: a
	// reduced encap at the source, a (possibly PSP-flavored) End SID
	// on a transit host and a DT6/DT46 decap SID at the destination,
	// so the registry-dispatched behaviours run at every shard count.
	srv6 bool
	// mincut shards the scenario with the topology-aware min-cut
	// partitioner instead of the contiguous block: the bit-identical
	// replay guarantee must hold under any node placement.
	mincut bool
}

func deriveScenario(seed int64) fuzzScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := fuzzScenario{seed: seed}
	sc.duration = (1 + rng.Int63n(2)) * netsim.Millisecond
	// Three draws feed nothing (this one, the Intn(2) after the topology
	// kind and the Intn(6) after chaos): they once picked knobs of
	// mechanisms since deleted, and stay so that every seed keeps
	// deriving the scenario it always derived.
	rng.Int63n(180)
	sc.rate = float64(5000 + rng.Intn(45000))
	sc.pairs = rng.Int63n(1 << 30)
	sc.flowMod = uint64(4 + rng.Intn(12))
	sc.fails = rng.Intn(4)
	switch rng.Intn(4) {
	case 0:
		sc.kind = "waxman"
	case 1:
		sc.kind = "fattree"
	case 2:
		sc.kind = "ring"
	case 3:
		sc.kind = "fattree-zerodelay"
		sc.zeroDelay = true
	}
	rng.Intn(2)
	sc.tcp = rng.Intn(3)
	// Drawn last so earlier fields derive identically to older seeds.
	sc.chaos = rng.Intn(2) == 0
	rng.Intn(6)
	sc.srv6 = rng.Intn(2) == 0
	sc.mincut = rng.Intn(2) == 0
	return sc
}

// buildFuzzTopo constructs the scenario's network; all construction
// randomness comes from a fresh rng over the scenario seed, so every
// arm builds the identical network.
func buildFuzzTopo(t *testing.T, sim *netsim.Sim, sc fuzzScenario) *topo.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed ^ 0x746f706f)) // "topo"
	delay := (5 + rng.Int63n(45)) * netsim.Microsecond
	link := topo.LinkSpec{RateBps: int64(1+rng.Intn(10)) * 1_000_000_000, DelayNs: delay}
	var nw *topo.Network
	var err error
	switch sc.kind {
	case "waxman":
		n := 12 + rng.Intn(16)
		nw, err = topo.Waxman(sim, n, topo.WaxmanParams{
			Alpha: 0.4 + 0.5*rng.Float64(),
			Beta:  0.3 + 0.5*rng.Float64(),
			Seed:  rng.Int63(),
		}, topo.Opts{Link: link})
	case "fattree":
		nw, err = topo.FatTree(sim, 4, topo.Opts{Link: link})
	case "fattree-zerodelay":
		nw, err = topo.FatTree(sim, 4, topo.Opts{
			Link:    link,
			PodLink: topo.LinkSpec{RateBps: link.RateBps, DelayNs: -1}, // true zero delay
		})
	case "ring":
		nw, err = topo.Ring(sim, 8+rng.Intn(12), topo.Opts{Link: link})
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// fuzzRun replays the scenario on the given shard count and
// fingerprints the final state: every node's counters, every host's
// delivery trace, and the per-link failure accounting.
func fuzzRun(t *testing.T, sc fuzzScenario, shards int) string {
	t.Helper()
	sim := netsim.New(sc.seed)
	nw := buildFuzzTopo(t, sim, sc)

	// Flight recorder on in every arm, sampling half the flows: the
	// span streams join the fingerprint below, so traces must replay
	// bit-identically across shard counts.
	sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 1})

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
		// Zero-delay pod links must stay inside one shard, which only the
		// topology-aware placement guarantees.
		if sc.mincut || sc.zeroDelay {
			assign, err := partition.MinCut(partition.FromSim(sim), shards, sc.seed)
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
	if sc.chaos {
		ch := chaos.New(sim, sc.seed^0x63686173) // "chas"
		ch.Apply(chaos.Campaign{
			Start:       sc.duration / 8,
			End:         sc.duration * 7 / 8,
			Crashes:     1 + int(sc.seed%2),
			CrashDown:   [2]int64{50 * netsim.Microsecond, sc.duration / 3},
			Flaps:       1 + int(sc.seed%2),
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
	// The srv6-detoured flow's deliveries join the fingerprint by
	// name: a vacuous overlay (broken steering dropping every packet)
	// would still fingerprint identically across arms, so pin the
	// count explicitly. Chaos campaigns and link failures may
	// legitimately push it to zero in some scenarios; the point is
	// every arm must agree on the number.
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
		t.Logf("srv6 overlay: %d detoured deliveries", srv6N)
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
	return fingerprint(sim, []string{b.String()})
}

// fuzzDepth reports how many seeded scenarios to run: the
// SRV6BPF_FUZZ_SCENARIOS environment variable (scheduled CI runs the
// full depth), a trimmed default under -short, and a moderate default
// otherwise.
func fuzzDepth(t *testing.T) int {
	if v := os.Getenv("SRV6BPF_FUZZ_SCENARIOS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SRV6BPF_FUZZ_SCENARIOS=%q", v)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 6
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
	build := func(sim *netsim.Sim) *topo.Network {
		nw, err := topo.FatTree(sim, 8, topo.Opts{
			Link:    topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond},
			PodLink: topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: -1}, // true zero delay
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.Nodes) != 208 {
			t.Fatalf("fat-tree k=8 has %d nodes, want 208", len(nw.Nodes))
		}
		return nw
	}
	rej := netsim.New(7)
	build(rej)
	err := rej.SetShards(4)
	if err == nil || !strings.Contains(err.Error(), "zero propagation delay") ||
		!strings.Contains(err.Error(), "netsim: link p") {
		t.Fatalf("contiguous SetShards on zero-delay pods: err = %v, want a rejection naming the pod link", err)
	}

	run := func(shards int) (string, netsim.EngineStats) {
		sim := netsim.New(7)
		nw := build(sim)
		journals := make([]*netsim.Journal, len(nw.Hosts))
		for i, h := range nw.Hosts {
			j := netsim.NewJournal()
			journals[i] = j
			h.HandleUDP(9, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
				j.Addf("%d:%s:%d", meta.RxTimestamp, p.IPv6.Src, p.IPv6.FlowLabel)
			})
		}
		pairs := nw.PermutationPairs(99)
		gens := make([]*trafgen.UDPGen, len(pairs))
		for i, pr := range pairs {
			gens[i] = &trafgen.UDPGen{
				Node: pr[0], Src: nw.HostAddr(pr[0]), Dst: nw.HostAddr(pr[1]),
				SrcPort: 1000, DstPort: 9, PayloadLen: 64,
				FlowLabel: func(k uint64) uint32 { return uint32(k % 16) },
				RatePPS:   20_000,
			}
		}
		if shards > 1 {
			assign, err := partition.MinCut(partition.FromSim(sim), shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.SetShardsPartitioned(shards, assign); err != nil {
				t.Fatalf("min-cut placement at %d shards: %v", shards, err)
			}
		}
		const until = netsim.Millisecond
		for i, g := range gens {
			g := g
			g.Node.Schedule(int64(i)*netsim.Microsecond, func() {
				if err := g.Start(until); err != nil {
					panic(err)
				}
			})
		}
		sim.RunUntil(until)
		for _, g := range gens {
			g.Stop()
		}
		sim.Run()
		extra := make([]string, 0, len(journals))
		for i, j := range journals {
			extra = append(extra, fmt.Sprintf("trace[%s]=%s", nw.Hosts[i].Name, strings.Join(j.Lines(), ",")))
		}
		return fingerprint(sim, extra), sim.EngineStats()
	}
	base, _ := run(1)
	if !strings.Contains(base, "udp_delivered=") {
		t.Fatal("no deliveries in the sequential run")
	}
	for _, shards := range []int{2, 4, 8} {
		got, st := run(shards)
		if got != base {
			diffReport(t, base, got, shards)
		}
		if st.Messages == 0 {
			t.Errorf("%d shards exchanged no cross-shard messages", shards)
		}
		t.Logf("shards=%d events=%d windows=%d cut=%d msgs=%d", shards, st.Events, st.Windows, st.CutLinks, st.Messages)
	}
}

func TestShardEquivalenceFuzz(t *testing.T) {
	depth := fuzzDepth(t)
	for i := 0; i < depth; i++ {
		sc := deriveScenario(int64(7777 + 131*i))
		name := fmt.Sprintf("s%02d-%s", i, sc.kind)
		if sc.chaos {
			name += "-chaos"
		}
		if sc.srv6 {
			name += "-srv6"
		}
		if sc.mincut {
			name += "-mincut"
		}
		t.Run(name, func(t *testing.T) {
			base := fuzzRun(t, sc, 1)
			if !strings.Contains(base, "udp_delivered") {
				t.Fatal("scenario delivered nothing")
			}
			for _, shards := range []int{2, 4, 8} {
				if got := fuzzRun(t, sc, shards); got != base {
					diffReport(t, base, got, shards)
				}
			}
		})
	}
}
