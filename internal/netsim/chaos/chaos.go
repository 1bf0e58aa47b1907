// Package chaos is a deterministic, seedable fault-injection layer
// for the network simulator: it schedules fault campaigns — node
// crash/restart cycles, link flapping with configurable duty cycles,
// one-way link degradation, and netem-level packet impairments
// (corruption, duplication, reordering) — against a simulation before
// it runs.
//
// Determinism is the design constraint everything else follows from.
// The fault timeline is computed at plan time from the engine's own
// seeded RNG, so the same seed yields the same faults regardless of
// topology iteration order at runtime; every fault lands in the
// simulation as an ordinary keyed event (Node.Schedule,
// Sim.FailLink/RestoreLink, Sim.CrashNode/RestartNode), so in a
// sharded run faults order exactly as they would sequentially; and
// per-packet impairment draws come from the transmitting node's
// private RNG stream, gated on the knob being nonzero, so a chaos-free
// run consumes bit-identical random streams whether or not this
// package is linked in. The equivalence fuzz matrix (netsim's
// FuzzScenario chaos arm) locks all of this down: one
// seed, one fingerprint, every shard count.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"srv6bpf/internal/netsim"
)

// FaultKind enumerates the fault classes the engine injects.
type FaultKind int

// Fault classes.
const (
	FaultCrash FaultKind = iota
	FaultFlap
	FaultDegrade
	FaultImpair
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultFlap:
		return "flap"
	case FaultDegrade:
		return "degrade"
	case FaultImpair:
		return "impair"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one planned fault: what, where, and for which window.
type Fault struct {
	Kind  FaultKind
	Start int64
	End   int64
	// Node is set for crashes, Link for link-level faults.
	Node *netsim.Node
	Link *netsim.Iface
	// Cycles is the number of down/up cycles of a flap.
	Cycles int
}

func (f Fault) String() string {
	target := ""
	switch {
	case f.Node != nil:
		target = f.Node.Name
	case f.Link != nil:
		target = f.Link.String()
	}
	if f.Kind == FaultFlap {
		return fmt.Sprintf("%v %s [%d,%d) x%d", f.Kind, target, f.Start, f.End, f.Cycles)
	}
	return fmt.Sprintf("%v %s [%d,%d)", f.Kind, target, f.Start, f.End)
}

// Impairment is a set of netem-level packet impairments applied to
// one link direction for a bounded window.
type Impairment struct {
	// Corrupt, Duplicate and Reorder are per-packet probabilities
	// (see netem.Config).
	Corrupt   float64
	Duplicate float64
	Reorder   float64
	// Loss, when nonzero, overrides the direction's loss probability
	// for the window (1.0 = one-way blackhole).
	Loss float64
}

// Engine plans and schedules fault campaigns against one simulation.
// Create it, inject faults (directly or via a Campaign), then run the
// simulation; all scheduling happens at plan time, from quiescent
// driver code.
type Engine struct {
	sim *netsim.Sim
	rng *rand.Rand

	faults []Fault
}

// New creates a chaos engine for s. The seed is independent of the
// simulation's: the same fault campaign can be replayed against
// different traffic seeds and vice versa.
func New(s *netsim.Sim, seed int64) *Engine {
	return &Engine{sim: s, rng: rand.New(rand.NewSource(seed))}
}

// Plan returns the planned fault timeline, ordered by start time.
func (e *Engine) Plan() []Fault {
	out := append([]Fault(nil), e.faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// String renders the planned timeline.
func (e *Engine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan (%d faults):\n", len(e.faults))
	for _, f := range e.Plan() {
		fmt.Fprintf(&b, "  %v\n", f)
	}
	return b.String()
}

// CrashNode schedules a crash of n at start and its restart at end.
func (e *Engine) CrashNode(n *netsim.Node, start, end int64) {
	e.faults = append(e.faults, Fault{Kind: FaultCrash, Start: start, End: end, Node: n})
	e.sim.CrashNode(start, n)
	e.sim.RestartNode(end, n)
}

// FlapLink schedules cycles down/up flips of i's link starting at
// start: down for downNs, up for upNs, repeated. Both ends flip (a
// flapping cable, not an interface).
func (e *Engine) FlapLink(i *netsim.Iface, start, downNs, upNs int64, cycles int) {
	at := start
	for c := 0; c < cycles; c++ {
		e.sim.FailLink(at, i)
		e.sim.RestoreLink(at+downNs, i)
		at += downNs + upNs
	}
	e.faults = append(e.faults, Fault{
		Kind: FaultFlap, Start: start, End: at - upNs, Link: i, Cycles: cycles,
	})
}

// ImpairLink applies imp to the i -> peer direction for [start, end):
// the transmitting node's qdisc gets the impairment knobs at start
// and its previous configuration back at end. Degradation is one-way
// by construction — impair both directions explicitly if needed.
func (e *Engine) ImpairLink(i *netsim.Iface, start, end int64, imp Impairment) {
	kind := FaultImpair
	if imp.Loss > 0 {
		kind = FaultDegrade
	}
	e.faults = append(e.faults, Fault{Kind: kind, Start: start, End: end, Link: i})
	q := i.Qdisc()
	baseLoss := q.Config().Loss
	n := i.Node
	n.Schedule(start, func() {
		q.SetImpairments(imp.Corrupt, imp.Duplicate, imp.Reorder)
		if imp.Loss > 0 {
			q.SetLoss(imp.Loss)
		}
	})
	n.Schedule(end, func() {
		q.SetImpairments(0, 0, 0)
		q.SetLoss(baseLoss)
	})
}

// Campaign describes a randomized fault campaign over a topology
// window. All counts are totals over the window; the engine draws
// targets and instants from its own RNG at plan time.
type Campaign struct {
	// Start and End bound the campaign window. Crash/flap/impair
	// windows are drawn inside it; restores never extend past End.
	Start, End int64

	// Crashes is the number of crash/restart cycles to inject.
	Crashes int
	// CrashDown bounds the downtime of each crash [min, max).
	CrashDown [2]int64

	// Flaps is the number of flap bursts.
	Flaps int
	// FlapPeriod bounds one down+up cycle length [min, max); the duty
	// cycle is drawn uniformly in [0.25, 0.75].
	FlapPeriod [2]int64
	// FlapCycles bounds the cycles per burst [min, max).
	FlapCycles [2]int

	// Impairments is the number of impairment windows.
	Impairments int
	// ImpairLen bounds each window's length [min, max).
	ImpairLen [2]int64
	// Impair is the impairment applied during each window. Zero-value
	// fields stay off.
	Impair Impairment
}

// Apply plans a randomized campaign: targets and instants are drawn
// from the engine's RNG over the given candidate nodes and links.
// Crash targets are drawn without overlapping in time on one node, so
// a crash/restart pair never interleaves with another on the same
// node; flap and impairment targets avoid double-booking a link the
// same way. Candidates may be nil to mean all of the sim's nodes /
// all distinct links between them.
func (e *Engine) Apply(c Campaign, nodes []*netsim.Node, links []*netsim.Iface) {
	if nodes == nil {
		nodes = e.sim.Nodes()
	}
	if links == nil {
		links = allLinks(e.sim)
	}
	window := c.End - c.Start
	if window <= 0 {
		return
	}
	nodeBusy := make(map[*netsim.Node][][2]int64)
	linkBusy := make(map[*netsim.Iface][][2]int64)

	for i := 0; i < c.Crashes && len(nodes) > 0; i++ {
		n := nodes[e.rng.Intn(len(nodes))]
		down := drawIn(e.rng, c.CrashDown)
		if down <= 0 || down >= window {
			continue
		}
		start := c.Start + e.rng.Int63n(window-down)
		if overlaps(nodeBusy[n], start, start+down) {
			continue
		}
		nodeBusy[n] = append(nodeBusy[n], [2]int64{start, start + down})
		e.CrashNode(n, start, start+down)
	}

	for i := 0; i < c.Flaps && len(links) > 0; i++ {
		l := links[e.rng.Intn(len(links))]
		period := drawIn(e.rng, c.FlapPeriod)
		cycles := drawIntIn(e.rng, c.FlapCycles)
		if period <= 0 || cycles <= 0 {
			continue
		}
		duty := 0.25 + 0.5*e.rng.Float64()
		downNs := int64(float64(period) * duty)
		upNs := period - downNs
		if downNs <= 0 || upNs <= 0 {
			continue
		}
		total := int64(cycles) * period
		if total >= window {
			continue
		}
		start := c.Start + e.rng.Int63n(window-total)
		if overlaps(linkBusy[l], start, start+total) ||
			overlaps(nodeBusy[l.Node], start, start+total) ||
			overlaps(nodeBusy[l.Peer().Node], start, start+total) {
			continue
		}
		linkBusy[l] = append(linkBusy[l], [2]int64{start, start + total})
		e.FlapLink(l, start, downNs, upNs, cycles)
	}

	for i := 0; i < c.Impairments && len(links) > 0; i++ {
		l := links[e.rng.Intn(len(links))]
		length := drawIn(e.rng, c.ImpairLen)
		if length <= 0 || length >= window {
			continue
		}
		start := c.Start + e.rng.Int63n(window-length)
		if overlaps(linkBusy[l], start, start+length) {
			continue
		}
		linkBusy[l] = append(linkBusy[l], [2]int64{start, start + length})
		e.ImpairLink(l, start, start+length, c.Impair)
	}
}

// allLinks enumerates each link once (by its lower-indexed end) in
// deterministic node/iface order.
func allLinks(s *netsim.Sim) []*netsim.Iface {
	seen := make(map[*netsim.Iface]bool)
	var out []*netsim.Iface
	for _, n := range s.Nodes() {
		for _, i := range n.Ifaces() {
			if i.Peer() == nil || seen[i] || seen[i.Peer()] {
				continue
			}
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// drawIn draws uniformly in [b[0], b[1]); a degenerate bound returns
// b[0].
func drawIn(rng *rand.Rand, b [2]int64) int64 {
	if b[1] <= b[0] {
		return b[0]
	}
	return b[0] + rng.Int63n(b[1]-b[0])
}

func drawIntIn(rng *rand.Rand, b [2]int) int {
	if b[1] <= b[0] {
		return b[0]
	}
	return b[0] + rng.Intn(b[1]-b[0])
}

// overlaps reports whether [start, end) intersects any busy interval.
func overlaps(busy [][2]int64, start, end int64) bool {
	for _, iv := range busy {
		if start < iv[1] && iv[0] < end {
			return true
		}
	}
	return false
}
