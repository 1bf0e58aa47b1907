// Package partition computes deterministic node→shard assignments
// for netsim's parallel engine.
//
// netsim's historical partition is the contiguous creation-order
// block: shard i owns nodes [i·n/k, (i+1)·n/k). Generators that lay
// out locality-heavy regions contiguously (fat-tree pods, ring arcs)
// shard well under it, but a Waxman random graph does not — creation
// order carries no locality, so roughly (k−1)/k of all links cross
// shards and every crossing packet is a cross-shard message
// (EngineStats.Messages) paid for at the barrier.
//
// MinCut replaces the block partition with a topology-aware one: it
// builds a node-affinity graph whose edge weights favour keeping
// short-delay (tightly coupled, high expected-traffic) links
// shard-internal, coarsens it by heavy-edge matching, partitions the
// coarsest graph by greedy region growth and refines the projection
// back up the hierarchy with KL/FM-style boundary moves under a
// balance bound. Everything is deterministic in (graph, k, seed):
// the same topology and seed always produce the same assignment, so
// the engine's bit-identical replay guarantee — and the equivalence
// fuzzer that locks it — holds under either partitioner.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
)

// Assignment maps node creation index → shard id.
type Assignment []int

// Contiguous reproduces netsim's creation-order block partition:
// shard i owns node range [i·n/k, (i+1)·n/k).
func Contiguous(n, k int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = i * k / n
	}
	return a
}

// edge is one weighted adjacency entry.
type edge struct {
	to int
	w  int64
}

// Graph is the node-affinity graph MinCut partitions: one vertex per
// simulation node, one weighted undirected edge per link (multi-links
// merge by weight sum).
type Graph struct {
	adj [][]edge
	// vw is the vertex weight (constituent fine-node count on
	// coarsened graphs; all ones on the original).
	vw []int64
}

// Len returns the vertex count.
func (g *Graph) Len() int { return len(g.adj) }

// maxAffinity is the edge weight of a link the engine cannot cut —
// zero-delay or jittered: netsim.SetShardsPartitioned rejects a
// partition that separates its ends, so it must never look cheap.
const maxAffinity = int64(1) << 40

// linkAffinity converts a link's shaping into an edge weight.
// Affinity decays with delay: a short link means tightly coupled event
// streams (and a smaller lookahead if cut — more barriers), so keeping
// it internal pays twice. The expected-traffic component is implicit:
// shortest-path routing concentrates traffic on low-delay links.
func linkAffinity(cfg netem.Config) int64 {
	if cfg.DelayNs <= 0 || cfg.JitterNs > 0 {
		return maxAffinity
	}
	// 1e9/delay, clamped: 1 µs → 1e6, 25 µs → 40000, 1 ms → 1000.
	w := int64(1_000_000_000) / cfg.DelayNs
	if w < 1 {
		w = 1
	}
	return w
}

// FromSim builds the affinity graph of sim's current topology. Vertex
// order is node creation order — the same order Assignment indexes.
func FromSim(sim *netsim.Sim) *Graph {
	nodes := sim.Nodes()
	index := make(map[*netsim.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	g := &Graph{
		adj: make([][]edge, len(nodes)),
		vw:  make([]int64, len(nodes)),
	}
	for i := range g.vw {
		g.vw[i] = 1
	}
	// Accumulate per neighbour: both ends enumerate the link, so add
	// each direction from its own end (weights stay symmetric because
	// ConnectSymmetric mirrors the config; asymmetric Connect links
	// average out through the two directed contributions).
	for i, n := range nodes {
		sum := make(map[int]int64)
		for _, ifc := range n.Ifaces() {
			p := ifc.Peer()
			if p == nil {
				continue
			}
			j, ok := index[p.Node]
			if !ok || j == i {
				continue
			}
			sum[j] += linkAffinity(ifc.Qdisc().Config())
		}
		// Deterministic adjacency order: ascending neighbour index.
		for j := 0; j < len(nodes); j++ {
			if w, ok := sum[j]; ok {
				g.adj[i] = append(g.adj[i], edge{to: j, w: w})
			}
		}
	}
	return g
}

// CutLinks counts the unordered node pairs joined by at least one
// link whose ends land in different shards — the cross-shard link
// count srv6bench prints next to EngineStats.Messages.
func CutLinks(g *Graph, a Assignment) int {
	cut := 0
	for v, es := range g.adj {
		for _, e := range es {
			if e.to > v && a[e.to] != a[v] {
				cut++
			}
		}
	}
	return cut
}

// cutWeight is the summed weight of cut edges (the refinement
// objective).
func cutWeight(g *Graph, a Assignment) int64 {
	var w int64
	for v, es := range g.adj {
		for _, e := range es {
			if e.to > v && a[e.to] != a[v] {
				w += e.w
			}
		}
	}
	return w
}

// balance is the band a level's shard weights must stay inside:
// avg/slackX .. avg·slackX with slackX = 1.08. Rounding goes inward
// (ceil on lo, floor on hi) so the band never widens past the slack —
// keeping the final (unit-weight) level's max/min size ratio ≤ ~1.17,
// inside the 1.2 bound the partition tests enforce — but is clamped
// to [floor(avg), ceil(avg)] so k shards can always sum to total.
const slackX = 1.08

func balanceBand(total int64, k int) (lo, hi int64) {
	avg := float64(total) / float64(k)
	lo = int64(math.Ceil(avg / slackX))
	if f := int64(math.Floor(avg)); lo > f {
		lo = f
	}
	hi = int64(math.Floor(avg * slackX))
	if c := int64(math.Ceil(avg)); hi < c {
		hi = c
	}
	if lo < 1 {
		lo = 1
	}
	return lo, hi
}

// MinCut partitions g into k shards, minimising the weighted edge cut
// under the balance band. The result is deterministic in (g, k,
// seed); seed only perturbs refinement visit order (any seed yields a
// valid partition — fix one per scenario for replayable shardings).
func MinCut(g *Graph, k int, seed int64) (Assignment, error) {
	n := g.Len()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k %d < 1", k)
	case k == 1:
		return make(Assignment, n), nil
	case k > n:
		return nil, fmt.Errorf("partition: %d shards for %d nodes", k, n)
	case k == n:
		a := make(Assignment, n)
		for i := range a {
			a[i] = i
		}
		return a, nil
	}

	// Multi-level V-cycle: coarsen while it pays, partition the
	// coarsest level, refine on the way back up. The first level merges
	// the ends of every uncuttable link, so no later step can separate
	// them by accident (region growth stopping mid-cluster).
	levels := []*Graph{g}
	maps := [][]int{} // maps[l][fine] = coarse vertex in levels[l+1]
	if c, m := contractUncuttable(g); c != nil {
		levels = append(levels, c)
		maps = append(maps, m)
	}
	coarsestTarget := 8 * k
	if coarsestTarget < 32 {
		coarsestTarget = 32
	}
	for levels[len(levels)-1].Len() > coarsestTarget {
		cur := levels[len(levels)-1]
		next, m := coarsen(cur)
		if next.Len() >= cur.Len() {
			break // no more matchable edges
		}
		levels = append(levels, next)
		maps = append(maps, m)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x6d696e63)) // "minc"
	coarsest := levels[len(levels)-1]
	assign := initialPartition(coarsest, k)
	refine(coarsest, assign, k, rng)

	// Project back down, refining at every level.
	for l := len(maps) - 1; l >= 0; l-- {
		fine := levels[l]
		proj := make(Assignment, fine.Len())
		for v := range proj {
			proj[v] = assign[maps[l][v]]
		}
		assign = proj
		refine(fine, assign, k, rng)
	}
	repairBalance(g, assign, k)
	return assign, nil
}

// coarsen contracts a heavy-edge matching: every vertex, visited in
// index order, merges with its heaviest unmatched neighbour
// (ties: lowest index). Returns the coarse graph and the fine→coarse
// vertex map.
func coarsen(g *Graph) (*Graph, []int) {
	n := g.Len()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for v := 0; v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, int64(-1)
		for _, e := range g.adj[v] {
			if match[e.to] < 0 && e.to != v && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best >= 0 {
			// Both ends carry the lower index as their group.
			match[v], match[best] = v, v
		} else {
			match[v] = v // stays solo
		}
	}
	return contract(g, match)
}

// contractUncuttable merges every set of vertices connected by
// maxAffinity edges into one vertex; it returns nil when g has no such
// edge.
func contractUncuttable(g *Graph) (*Graph, []int) {
	root := make([]int, g.Len())
	for v := range root {
		root[v] = v
	}
	find := func(v int) int {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	merged := false
	for v, es := range g.adj {
		for _, e := range es {
			if e.w >= maxAffinity {
				root[find(e.to)] = find(v)
				merged = true
			}
		}
	}
	if !merged {
		return nil, nil
	}
	for v := range root {
		root[v] = find(v)
	}
	return contract(g, root)
}

// contract merges the vertices that share a group[v] value (a vertex
// index). Coarse vertices are numbered by their lowest member; returns
// the coarse graph and the fine→coarse vertex map.
func contract(g *Graph, group []int) (*Graph, []int) {
	n := g.Len()
	cmap := make([]int, n)
	id := make([]int, n) // group value → coarse vertex, -1 until seen
	for i := range id {
		id[i] = -1
	}
	nc := 0
	for v := 0; v < n; v++ {
		if id[group[v]] < 0 {
			id[group[v]] = nc
			nc++
		}
		cmap[v] = id[group[v]]
	}
	coarse := &Graph{adj: make([][]edge, nc), vw: make([]int64, nc)}
	for v := 0; v < n; v++ {
		coarse.vw[cmap[v]] += g.vw[v]
	}
	sums := make([]map[int]int64, nc)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for _, e := range g.adj[v] {
			ct := cmap[e.to]
			if ct == cv {
				continue
			}
			if sums[cv] == nil {
				sums[cv] = make(map[int]int64)
			}
			sums[cv][ct] += e.w
		}
	}
	for cv := 0; cv < nc; cv++ {
		for ct := 0; ct < nc; ct++ {
			if w, ok := sums[cv][ct]; ok {
				coarse.adj[cv] = append(coarse.adj[cv], edge{to: ct, w: w})
			}
		}
	}
	return coarse, cmap
}

// initialPartition grows k regions on the coarsest graph: each shard
// seeds on the heaviest unassigned vertex and greedily absorbs the
// unassigned vertex with the strongest connection to it until the
// shard reaches the average weight.
func initialPartition(g *Graph, k int) Assignment {
	n := g.Len()
	assign := make(Assignment, n)
	for i := range assign {
		assign[i] = -1
	}
	var total int64
	for _, w := range g.vw {
		total += w
	}
	// conn[v] = summed edge weight from v into the growing shard.
	conn := make([]int64, n)
	for s := 0; s < k; s++ {
		target := total / int64(k-s)
		// Seed: heaviest unassigned vertex (ties: lowest index).
		seed := -1
		for v := 0; v < n; v++ {
			if assign[v] < 0 && (seed < 0 || g.vw[v] > g.vw[seed]) {
				seed = v
			}
		}
		if seed < 0 {
			break
		}
		for i := range conn {
			conn[i] = 0
		}
		grow := func(v int) {
			assign[v] = s
			total -= g.vw[v]
			for _, e := range g.adj[v] {
				if assign[e.to] < 0 {
					conn[e.to] += e.w
				}
			}
		}
		weight := g.vw[seed]
		grow(seed)
		for weight < target {
			best := -1
			for v := 0; v < n; v++ {
				if assign[v] >= 0 || conn[v] == 0 {
					continue
				}
				if best < 0 || conn[v] > conn[best] {
					best = v
				}
			}
			if best < 0 {
				// Region is a whole component: restart from the next
				// heaviest unassigned vertex.
				next := -1
				for v := 0; v < n; v++ {
					if assign[v] < 0 && (next < 0 || g.vw[v] > g.vw[next]) {
						next = v
					}
				}
				if next < 0 {
					break
				}
				best = next
			}
			weight += g.vw[best]
			grow(best)
		}
	}
	// Leftovers (the last region's growth stopped at target): last
	// shard takes them.
	for v := range assign {
		if assign[v] < 0 {
			assign[v] = k - 1
		}
	}
	return assign
}

// refine runs KL/FM-style greedy passes: each pass visits every
// vertex in a seeded order and applies the best cut-reducing
// (or balance-improving, cut-neutral) move that keeps both shards
// inside the balance band. Passes repeat until a pass moves nothing
// (or the pass cap, a safety net, is hit).
func refine(g *Graph, assign Assignment, k int, rng *rand.Rand) {
	n := g.Len()
	var total int64
	sizeW := make([]int64, k)
	for v, s := range assign {
		sizeW[s] += g.vw[v]
		total += g.vw[v]
	}
	lo, hi := balanceBand(total, k)
	order := rng.Perm(n)
	ext := make([]int64, k) // per-shard connectivity of the vertex at hand
	const maxPasses = 12
	for pass := 0; pass < maxPasses; pass++ {
		moved := 0
		for _, v := range order {
			from := assign[v]
			if len(g.adj[v]) == 0 {
				continue
			}
			for s := range ext {
				ext[s] = 0
			}
			for _, e := range g.adj[v] {
				ext[assign[e.to]] += e.w
			}
			best, bestGain := -1, int64(0)
			for s := 0; s < k; s++ {
				if s == from {
					continue
				}
				if sizeW[from]-g.vw[v] < lo || sizeW[s]+g.vw[v] > hi {
					continue
				}
				gain := ext[s] - ext[from]
				if gain > bestGain ||
					(gain == 0 && best < 0 && sizeW[from] > sizeW[s]+g.vw[v]) {
					best, bestGain = s, gain
				}
			}
			if best >= 0 {
				sizeW[from] -= g.vw[v]
				sizeW[best] += g.vw[v]
				assign[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// repairBalance enforces the balance band on the finest level, where
// every vertex weighs 1: while a shard sits outside the band, move the
// cheapest boundary-adjacent vertex from the largest shard to the
// smallest. A vertex held in its shard by an uncuttable link never
// moves — an unbalanced placement runs, a cut one is rejected — so the
// band can stay violated when only such vertices are left.
func repairBalance(g *Graph, assign Assignment, k int) {
	sizes := make([]int64, k)
	var total int64
	for _, s := range assign {
		sizes[s]++
		total++
	}
	lo, hi := balanceBand(total, k)
	for {
		maxS, minS := 0, 0
		for s := 1; s < k; s++ {
			if sizes[s] > sizes[maxS] {
				maxS = s
			}
			if sizes[s] < sizes[minS] {
				minS = s
			}
		}
		if sizes[maxS] <= hi && sizes[minS] >= lo {
			return
		}
		// Cheapest vertex of the largest shard to hand to the
		// smallest: maximise (connectivity to minS − connectivity to
		// maxS); ties break on lowest index.
		best, bestGain := -1, int64(math.MinInt64)
		for v, s := range assign {
			if s != maxS {
				continue
			}
			var toMin, toMax int64
			for _, e := range g.adj[v] {
				switch assign[e.to] {
				case minS:
					toMin += e.w
				case maxS:
					toMax += e.w
				}
			}
			if gain := toMin - toMax; toMax < maxAffinity && gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			return // nothing movable
		}
		assign[best] = minS
		sizes[maxS]--
		sizes[minS]++
	}
}
