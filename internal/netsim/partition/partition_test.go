package partition_test

import (
	"fmt"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/partition"
	"srv6bpf/internal/netsim/topo"
)

// waxman builds the test topology: a seeded Waxman graph, the
// adversarial case for the contiguous block partition (creation order
// carries no locality).
func waxman(t *testing.T, n int) *netsim.Sim {
	t.Helper()
	sim := netsim.New(1)
	_, err := topo.Waxman(sim, n, topo.WaxmanParams{Alpha: 0.25, Beta: 0.15, Seed: 20},
		topo.Opts{Link: topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestContiguousBlocks(t *testing.T) {
	a := partition.Contiguous(10, 4)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("not monotonic: %v", a)
		}
	}
	if a[0] != 0 || a[9] != 3 {
		t.Fatalf("range not covered: %v", a)
	}
}

// TestMinCutDeterministic rebuilds the graph from scratch twice: the
// same topology, shard count and seed must yield the identical
// assignment (the property the engines' bit-identical replay — and
// cross-report Messages comparisons — stand on).
func TestMinCutDeterministic(t *testing.T) {
	run := func() partition.Assignment {
		g := partition.FromSim(waxman(t, 128))
		a, err := partition.MinCut(g, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignments diverge at node %d: %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed may shard differently but must stay valid; the
	// balance/validity invariants are checked by TestMinCutValid.
	if _, err := partition.MinCut(partition.FromSim(waxman(t, 128)), 4, 99); err != nil {
		t.Fatal(err)
	}
}

// TestMinCutValid checks, across shard counts, that every node lands
// in exactly one in-range shard, no shard is empty, and shard sizes
// stay within the 1.2 max/min balance bound.
func TestMinCutValid(t *testing.T) {
	sim := waxman(t, 256)
	g := partition.FromSim(sim)
	for _, k := range []int{2, 3, 4, 8} {
		a, err := partition.MinCut(g, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != g.Len() {
			t.Fatalf("k=%d: %d assignments for %d nodes", k, len(a), g.Len())
		}
		sizes := make([]int, k)
		for i, s := range a {
			if s < 0 || s >= k {
				t.Fatalf("k=%d: node %d assigned to shard %d", k, i, s)
			}
			sizes[s]++
		}
		minSz, maxSz := sizes[0], sizes[0]
		for _, sz := range sizes {
			if sz == 0 {
				t.Fatalf("k=%d: empty shard (sizes %v)", k, sizes)
			}
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if float64(maxSz) > 1.2*float64(minSz) {
			t.Errorf("k=%d: imbalance %d/%d > 1.2 (sizes %v)", k, maxSz, minSz, sizes)
		}
		t.Logf("k=%d sizes=%v cut=%d (contiguous %d)",
			k, sizes, partition.CutLinks(g, a), partition.CutLinks(g, partition.Contiguous(g.Len(), k)))
	}
}

// TestMinCutBeatsContiguous is the point of the package: on the seeded
// Waxman graph the topology-aware cut must be strictly smaller than
// the creation-order block cut at every tested shard count.
func TestMinCutBeatsContiguous(t *testing.T) {
	g := partition.FromSim(waxman(t, 256))
	for _, k := range []int{2, 4, 8} {
		a, err := partition.MinCut(g, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		mc, cont := partition.CutLinks(g, a), partition.CutLinks(g, partition.Contiguous(g.Len(), k))
		t.Logf("k=%d: mincut=%d contiguous=%d", k, mc, cont)
		if mc >= cont {
			t.Errorf("k=%d: min-cut %d >= contiguous %d", k, mc, cont)
		}
	}
}

func TestMinCutEdgeCases(t *testing.T) {
	g := partition.FromSim(waxman(t, 16))
	if _, err := partition.MinCut(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := partition.MinCut(g, 17, 1); err == nil {
		t.Error("k > n accepted")
	}
	one, err := partition.MinCut(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range one {
		if s != 0 {
			t.Fatalf("k=1: node %d in shard %d", i, s)
		}
	}
	ident, err := partition.MinCut(g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ident {
		if s != i {
			t.Fatalf("k=n: node %d in shard %d", i, s)
		}
	}
}

// TestSetShardsPartitioned applies a min-cut assignment through the
// Sim API and checks the engine reports the same static cut the
// partitioner computed; then exercises the validation paths.
func TestSetShardsPartitioned(t *testing.T) {
	sim := waxman(t, 64)
	g := partition.FromSim(sim)
	a, err := partition.MinCut(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetShardsPartitioned(4, a); err != nil {
		t.Fatal(err)
	}
	if got, want := sim.EngineStats().CutLinks, partition.CutLinks(g, a); got != want {
		t.Errorf("engine cut %d != partitioner cut %d", got, want)
	}
	if err := sim.SetShardsPartitioned(2, []int{0, 1}); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	bad := make([]int, 64)
	bad[3] = 9
	if err := sim.SetShardsPartitioned(2, bad); err == nil {
		t.Error("out-of-range shard id accepted")
	}
	if err := sim.SetShardsPartitioned(2, make([]int, 64)); err == nil {
		t.Error("empty shard accepted")
	}
	// The sim must still be usable after rejected partitions.
	if err := sim.SetShards(1); err != nil {
		t.Fatal(err)
	}
}

// TestMinCutKeepsJitteredLinksInternal: a long, jittered WAN link is
// the cheapest edge by delay alone, yet the engine cannot cut it. On
// an 8-node ring of 25 µs links with two opposite 5 ms ± 1 ms links,
// the delay-only weighting splits the ring exactly at the two WAN
// links; min-cut must keep both inside a shard so SetShardsPartitioned
// accepts the placement.
func TestMinCutKeepsJitteredLinksInternal(t *testing.T) {
	sim := netsim.New(1)
	nodes := make([]*netsim.Node, 8)
	for i := range nodes {
		nodes[i] = sim.AddNode(fmt.Sprintf("n%d", i), netsim.ServerCostModel())
	}
	lan := netem.Config{RateBps: 1e10, DelayNs: 25 * netsim.Microsecond}
	wan := netem.Config{RateBps: 1e10, DelayNs: 5 * netsim.Millisecond, JitterNs: netsim.Millisecond}
	for i := range nodes {
		cfg := lan
		if i == 3 || i == 7 { // links 3-4 and 7-0
			cfg = wan
		}
		netsim.ConnectSymmetric(nodes[i], nodes[(i+1)%8], cfg)
	}
	a, err := partition.MinCut(partition.FromSim(sim), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a[3] != a[4] || a[7] != a[0] {
		t.Errorf("min-cut separates the ends of a jittered link: %v", a)
	}
	if err := sim.SetShardsPartitioned(2, a); err != nil {
		t.Errorf("min-cut placement %v rejected: %v", a, err)
	}
}
