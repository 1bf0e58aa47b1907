package topo

import (
	"fmt"
	"math"
	"math/rand"

	"srv6bpf/internal/netsim"
)

// WaxmanParams parameterises the classic Waxman random graph: nodes
// are placed uniformly in the unit square and each pair (i, j) is
// linked with probability Alpha * exp(-d(i,j) / (Beta * sqrt(2))).
type WaxmanParams struct {
	// Alpha scales overall edge density (0, 1].
	Alpha float64
	// Beta controls how sharply probability decays with distance
	// (0, 1].
	Beta float64
	// Seed drives placement and edge selection. The graph depends
	// only on (n, Alpha, Beta, Seed) — never on the simulation's RNG —
	// so the same parameters reproduce the same topology.
	Seed int64
}

// Waxman builds an n-node Waxman random graph of hosts (every node
// terminates traffic and forwards). Isolated components are stitched
// to the main component through their nearest already-connected
// node, so the graph is always connected; link delays scale with
// Euclidean distance between DelayNs/2 and DelayNs, keeping every
// link's delay positive for cross-shard eligibility.
func Waxman(sim *netsim.Sim, n int, p WaxmanParams, opts Opts) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: waxman needs >= 2 nodes, got %d", n)
	}
	if p.Alpha <= 0 || p.Alpha > 1 || p.Beta <= 0 || p.Beta > 1 {
		return nil, fmt.Errorf("topo: waxman alpha/beta must be in (0,1], got %g/%g", p.Alpha, p.Beta)
	}
	opts.fill()
	rng := rand.New(rand.NewSource(p.Seed))

	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}

	b := newBuilder(sim)
	for i := 0; i < n; i++ {
		b.addHost(fmt.Sprintf("w%d", i), opts.HostCost())
	}

	// linkSpec scales delay with distance; the floor of DelayNs/2
	// keeps even the shortest link parallel-eligible.
	maxD := math.Sqrt2
	linkSpec := func(d float64) LinkSpec {
		l := opts.Link
		l.DelayNs = l.DelayNs/2 + int64(float64(l.DelayNs/2)*(d/maxD))
		if l.DelayNs < 1 {
			l.DelayNs = 1
		}
		return l
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, c int) { parent[find(a)] = find(c) }

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			if rng.Float64() < p.Alpha*math.Exp(-d/(p.Beta*maxD)) {
				b.connect(b.nw.Nodes[i], b.nw.Nodes[j], linkSpec(d))
				union(i, j)
			}
		}
	}

	// Stitch stray components onto node 0's component via the nearest
	// cross-component pair, in deterministic node order.
	for i := 1; i < n; i++ {
		if find(i) == find(0) {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if find(j) != find(0) {
				continue
			}
			if d := dist(i, j); d < bestD {
				best, bestD = j, d
			}
		}
		b.connect(b.nw.Nodes[i], b.nw.Nodes[best], linkSpec(bestD))
		union(i, best)
	}
	return b.installRoutes()
}
