package netsim

import (
	"fmt"
	"math"
	"sync"

	"srv6bpf/internal/stats"
)

// shard owns a disjoint set of nodes: their event queue, their clock
// and their outgoing cross-shard message buffers. During a window all
// shards execute concurrently; a shard touches only its own state
// (and, read-only, immutable topology such as peer addresses), so no
// locks guard the hot path.
type shard struct {
	id  int
	sim *Sim

	// now is the shard's virtual clock: the timestamp of the event
	// being executed, or the last barrier the shard was synced to.
	now int64

	q eventQueue

	// out[d] buffers packet deliveries destined for shard d during a
	// window; the coordinator drains them at the barrier. Only this
	// shard's worker appends, only the quiescent coordinator drains.
	out [][]xmsg

	// winEnd is the exclusive end of the window currently executing,
	// set by the coordinator before workers start. Cross-shard events
	// must land at or after it — the conservative invariant — and
	// scheduleFor enforces that at message creation.
	winEnd int64

	// panicked carries an event panic from the worker goroutine back
	// to the coordinator, which re-raises it on the Run caller — the
	// same propagation a sequential run gives.
	panicked any

	// nodes lists the nodes this shard owns (set by SetShards); the
	// optimistic engine snapshots them at checkpoint boundaries.
	nodes []*Node

	// execTo is the exclusive execution frontier: every event with
	// at < execTo has been executed (possibly speculatively). A
	// cross-shard message below it is a straggler.
	execTo int64

	// Optimistic-engine history, owned by the quiescent coordinator:
	// retained checkpoints (oldest first, times non-decreasing), the
	// cross-shard inputs received since the oldest checkpoint, the
	// delivered cross-shard sends a rollback would have to reconcile,
	// and the tentative list — delivered sends whose emitting interval
	// was rolled back, awaiting reproduction (suppress) or staleness
	// (anti-message).
	ckpts     []*checkpoint
	inLog     []inputRec
	sentLog   []sentRec
	tentative []sentRec

	// tentMin caches the minimum emission time (schedAt) across the
	// tentative list; tentMinStale marks it for lazy recomputation
	// after a removal hit the cached minimum. The cache turns the
	// per-barrier GVT contribution (and the stale-sweep skip test)
	// from an O(tentative) scan per shard into O(1) reads — the
	// O(shards·tentative) bill that dominated barriers at 16+ shards.
	// Meaningful only while len(tentative) > 0; mutate tentative only
	// through tentAppend/tentRemoved or recompute the cache in place.
	tentMin      int64
	tentMinStale bool

	// lastCkptRound is the round of this shard's newest checkpoint;
	// the coordinator's checkpoint stride (see horizonCtl) decides how
	// many rounds may pass before the next one. forceCkpt makes the
	// next active round checkpoint unconditionally — set after a
	// rollback so a repeat straggler cannot force the same deep
	// re-execution twice.
	lastCkptRound uint64
	forceCkpt     bool

	// ckptSeq counts checkpoints taken by this shard. Packet buffers
	// stamp it when their delivery event is created: if no checkpoint
	// intervened by the time the buffer is processed, no retained
	// snapshot can reference it and the datapath may mutate it in
	// place instead of copying it per hop (see Node.drain).
	ckptSeq uint64
}

func newShard(s *Sim, id int) *shard {
	return &shard{id: id, sim: s, now: 0}
}

// sendCross routes a packet delivery produced by this shard to the
// shard owning the receiving link end. The event key travels with the
// message, so the destination orders it exactly as a sequential run
// would. Outside a parallel window (driver code calling Node.Output,
// setup traffic) only one goroutine is live, so the event goes
// straight into the destination queue — outboxes exist for the
// concurrent case only.
func (sh *shard) sendCross(m *xmsg) {
	sh.sim.engMsgs.Inc(sh.id)
	dst := m.peer.Node.shard
	if !sh.sim.running {
		dst.q.pushCross(m)
		return
	}
	if sh.sim.engine != EngineOptimistic && m.at < sh.winEnd {
		// The destination shard may already have executed past m.at
		// within this window; delivering late would silently break the
		// sequential-equivalence guarantee. This only happens when a
		// cross-shard link's effective delay dropped below the
		// lookahead after SetShards validated it (Qdisc.SetDelay, a
		// negative ExtraDelayNs). The optimistic engine has no such
		// invariant: a message below the destination's frontier simply
		// rolls it back at the barrier.
		panic(fmt.Sprintf(
			"netsim: cross-shard event at t=%d inside the current window (end %d): a cross-shard link's delay was lowered below the lookahead (%d ns) after SetShards",
			m.at, sh.winEnd, sh.sim.lookahead))
	}
	sh.out[dst.id] = append(sh.out[dst.id], *m)
}

// runTo executes this shard's events with at < end in key order. The
// execution frontier advances to just past the last executed event —
// not to end — so idle virtual time is never claimed as speculated,
// which keeps optimistic straggler detection (and therefore rollback
// frequency) minimal.
func (sh *shard) runTo(end int64) {
	ev := &sh.sim.engEvents
	nodes := sh.sim.nodes
	// Dirty bits feed only the optimistic engine's incremental
	// checkpoints; don't tax the conservative hot loop for them.
	mark := sh.sim.engine == EngineOptimistic
	for sh.q.len() > 0 && sh.q.minAt() < end {
		e := sh.q.pop()
		sh.now = e.at
		if e.at >= sh.execTo {
			sh.execTo = e.at + 1
		}
		// Dirty-tracking for incremental checkpoints: a node event
		// mutates (at most) its scheduling node's state plus receive-side
		// state, which deliver/setOneEnd/xmsg mark themselves. A
		// cross-shard delivery carries the *sender's* index as src —
		// a node this shard does not own — so only mark shard-owned
		// sources; the delivery closure marks its receiver itself. A
		// driver event (src < 0) is an arbitrary closure, so
		// over-approximate: everything this shard owns may have been
		// touched.
		if mark {
			if e.src >= 0 {
				if n := nodes[e.src]; n.shard == sh {
					n.dirty = true
				}
			} else {
				for _, n := range sh.nodes {
					n.dirty = true
				}
			}
		}
		ev.Inc(sh.id)
		sh.sim.exec(sh, &e)
	}
}

// SetShards partitions the simulation's nodes into n shards for
// parallel execution. n == 1 restores the sequential engine. The
// partition is deterministic (contiguous blocks of node creation
// order), so a given topology always shards the same way; topologies
// whose creation order carries no locality (random graphs) should
// hand SetShardsPartitioned a topology-aware assignment instead (see
// internal/netsim/partition).
//
// The optional engine argument selects the synchronisation protocol
// (default EngineConservative). Under the conservative engine every
// link whose two ends land in different shards must carry a nonzero,
// jitter-free propagation delay: the minimum such delay becomes the
// engine's lookahead — the window length shards may run ahead of each
// other without synchronising — and SetShards returns an error naming
// the offending link otherwise. EngineOptimistic accepts any
// cross-shard link (zero-delay and jittered included): shards
// speculate through a horizon (see SetHorizon) and roll back to
// checkpoints when a straggler message proves them wrong.
//
// Call SetShards after the topology is built and while the sim is
// quiescent (not from inside an event). Events already scheduled are
// re-routed to the shard of the node that scheduled them.
func (s *Sim) SetShards(n int, engine ...Engine) error {
	return s.SetShardsPartitioned(n, nil, engine...)
}

// SetShardsPartitioned is SetShards with an explicit node→shard
// assignment: assign[i] names the shard owning the i-th node in
// creation order (Sim.Nodes order). A nil assign falls back to the
// contiguous block partition. Every shard must own at least one node.
// The assignment only relocates state ownership — the committed
// schedule, every counter and every delivery trace stay bit-identical
// to a sequential run under any assignment (the equivalence fuzzer
// runs arms with both partitioners).
func (s *Sim) SetShardsPartitioned(n int, assign []int, engine ...Engine) error {
	if s.running {
		return fmt.Errorf("netsim: SetShards while a parallel window is running")
	}
	if n < 1 {
		return fmt.Errorf("netsim: shard count %d < 1", n)
	}
	if n > len(s.nodes) && n > 1 {
		return fmt.Errorf("netsim: %d shards for %d nodes", n, len(s.nodes))
	}
	if assign != nil && len(assign) != len(s.nodes) {
		return fmt.Errorf("netsim: partition assigns %d nodes, sim has %d", len(assign), len(s.nodes))
	}
	eng := EngineConservative
	switch len(engine) {
	case 0:
	case 1:
		eng = engine[0]
		if eng != EngineConservative && eng != EngineOptimistic {
			return fmt.Errorf("netsim: unknown engine %v", eng)
		}
	default:
		return fmt.Errorf("netsim: SetShards takes at most one engine")
	}

	// Capture the previous node→shard pointers so a failed validation
	// can restore them exactly, whatever partition produced them.
	old := s.shards
	oldAssign := make([]*shard, len(s.nodes))
	for i, node := range s.nodes {
		oldAssign[i] = node.shard
	}
	shards := make([]*shard, n)
	now := s.Now()
	for i := range shards {
		shards[i] = newShard(s, i)
		shards[i].now = now
		shards[i].execTo = now
		shards[i].out = make([][]xmsg, n)
	}
	for i, node := range s.nodes {
		sid := i * n / len(s.nodes) // contiguous creation-order blocks
		if assign != nil {
			sid = assign[i]
			if sid < 0 || sid >= n {
				s.resetShardAssignment(oldAssign)
				return fmt.Errorf("netsim: partition assigns node %d to shard %d of %d", i, sid, n)
			}
		}
		node.shard = shards[sid]
		node.shard.nodes = append(node.shard.nodes, node)
	}
	for _, sh := range shards {
		if len(sh.nodes) == 0 {
			s.resetShardAssignment(oldAssign)
			return fmt.Errorf("netsim: partition leaves shard %d empty", sh.id)
		}
	}

	// Validate cross-shard links (conservative engine only), derive
	// the lookahead — the minimum positive cross-shard delay, which
	// also seeds the optimistic engine's default horizon — and count
	// the cut (cross-shard links, each unordered pair once).
	lookahead := int64(math.MaxInt64 / 2)
	cutLinks := 0
	if n > 1 {
		for _, node := range s.nodes {
			for _, ifc := range node.ifaces {
				if ifc.peer == nil || ifc.peer.Node.shard == node.shard {
					continue
				}
				if node.idx < ifc.peer.Node.idx {
					cutLinks++
				}
				cfg := ifc.q.Config()
				if eng == EngineConservative {
					if cfg.DelayNs <= 0 {
						s.resetShardAssignment(oldAssign)
						return fmt.Errorf("netsim: link %s has zero propagation delay but crosses shards %d/%d (use EngineOptimistic)",
							ifc, node.shard.id, ifc.peer.Node.shard.id)
					}
					if cfg.JitterNs > 0 {
						s.resetShardAssignment(oldAssign)
						return fmt.Errorf("netsim: link %s has delay jitter but crosses shards %d/%d (jitter can undercut the lookahead; use EngineOptimistic)",
							ifc, node.shard.id, ifc.peer.Node.shard.id)
					}
				}
				if cfg.DelayNs > 0 && cfg.DelayNs < lookahead {
					lookahead = cfg.DelayNs
				}
			}
		}
	}

	// Re-route events already scheduled: the key's src field names the
	// scheduling node, whose shard also owns the state the callback
	// touches (driver-level events, src -1, run on shard 0) — except a
	// delivery event, which mutates the *receiving* end's state and
	// must follow the receiver.
	for _, sh := range old {
		for i := range sh.q.keys {
			e := &sh.q.keys[i]
			dst := shards[0]
			if e.src >= 0 {
				dst = s.nodes[e.src].shard
			}
			if e.slot != noSlot {
				if p := &sh.q.slab[e.slot]; p.peer != nil {
					dst = p.peer.Node.shard
				} else if p.fn == nil {
					continue
				}
			}
			dst.q.pushFrom(&sh.q, e)
		}
	}

	s.shards = shards
	s.engine = eng
	s.lookahead = lookahead
	s.cutLinks = cutLinks
	s.horizon = s.deriveHorizon(lookahead)
	s.round = 0
	s.rollbacks = 0
	s.antiMsgs = 0
	s.gvt = now
	s.engEvents = *stats.NewSharded(n)
	s.engMsgs = *stats.NewSharded(n)
	s.engWindows = *stats.NewSharded(n)
	s.engCkpts = *stats.NewSharded(n)
	s.engCkptCopied = *stats.NewSharded(n)
	s.engCkptAliased = *stats.NewSharded(n)
	s.engCkptBytes = *stats.NewSharded(n)
	s.hc = nil
	s.hcMsgsSeen = 0
	if eng == EngineOptimistic && s.horizonReq == 0 {
		s.hc = newHorizonCtl(s.horizon)
	}
	if s.obs != nil {
		// Histogram cells are per shard; re-partitioning resets them
		// the same way it resets the engine's Sharded counters.
		s.obs.sizeCells(n)
	}
	s.now = now
	return nil
}

// defaultHorizonNs is the optimistic speculation window used when no
// positive cross-shard delay exists to derive one from (pure
// zero-delay partitions).
const defaultHorizonNs = 50 * Microsecond

// deriveHorizon picks the optimistic speculation window: an explicit
// SetHorizon wins; otherwise a few conservative lookaheads (deep
// enough to amortise the checkpoint per round, shallow enough to keep
// rollbacks cheap), or a fixed default when every cross-shard delay
// is zero.
func (s *Sim) deriveHorizon(lookahead int64) int64 {
	if s.horizonReq > 0 {
		return s.horizonReq
	}
	if lookahead > 0 && lookahead < math.MaxInt64/8 {
		return 4 * lookahead
	}
	return defaultHorizonNs
}

// SetHorizon fixes the optimistic engine's speculation window in
// nanoseconds, disabling the adaptive horizon controller; 0 restores
// the derived default and re-enables adaptation. Correctness is
// horizon-independent — only checkpoint frequency and rollback depth
// change. Call while quiescent.
func (s *Sim) SetHorizon(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.horizonReq = ns
	s.horizon = s.deriveHorizon(s.lookahead)
	s.hc = nil
	s.hcMsgsSeen = s.engMsgs.Total()
	if ns == 0 && s.engine == EngineOptimistic && len(s.shards) > 1 {
		s.hc = newHorizonCtl(s.horizon)
	}
}

// Horizon reports the optimistic speculation window.
func (s *Sim) Horizon() int64 { return s.horizon }

// Engine reports the synchronisation protocol selected by SetShards.
func (s *Sim) Engine() Engine { return s.engine }

// resetShardAssignment restores the captured node->shard pointers
// after a failed SetShards so the sim keeps running on its previous
// partition — whatever assignment produced it.
func (s *Sim) resetShardAssignment(oldAssign []*shard) {
	for i, node := range s.nodes {
		node.shard = oldAssign[i]
	}
}

// ShardCount reports the current number of shards.
func (s *Sim) ShardCount() int { return len(s.shards) }

// Lookahead reports the conservative window length in nanoseconds
// (meaningful only with more than one shard).
func (s *Sim) Lookahead() int64 { return s.lookahead }

// EngineStats is the parallel engine's own accounting, accumulated
// per shard and merged deterministically.
type EngineStats struct {
	Engine    Engine
	Shards    int
	Lookahead int64
	// CutLinks counts the links whose two ends landed in different
	// shards (each unordered pair once) — the static cut the partition
	// chose; Messages is the dynamic price actually paid for it.
	CutLinks int
	// Horizon is the optimistic speculation window (meaningful only
	// under EngineOptimistic).
	Horizon int64
	// Windows counts barrier-to-barrier rounds executed.
	Windows uint64
	// Events counts events executed across all shards. Under the
	// optimistic engine this is gross work: events re-executed after a
	// rollback count again.
	Events uint64
	// Messages counts cross-shard packet/control transfers.
	Messages uint64
	// Checkpoints counts per-shard state snapshots taken; Rollbacks
	// counts straggler-triggered restores; AntiMessages counts
	// speculative sends cancelled. All zero under the conservative
	// engine.
	Checkpoints  uint64
	Rollbacks    uint64
	AntiMessages uint64
	// CkptNodesCopied and CkptNodesAliased split checkpointed node
	// entries into deep copies (dirty since the last snapshot) and
	// aliases of the previous round's snapshot; CkptBytes estimates
	// the bytes actually copied into checkpoints (event queue + dirty
	// nodes).
	CkptNodesCopied  uint64
	CkptNodesAliased uint64
	CkptBytes        uint64
	// HorizonAdaptive reports whether the horizon controller is
	// active; HorizonAdjusts counts the horizon changes it made.
	HorizonAdaptive bool
	HorizonAdjusts  uint64
	// GVT is the last committed global virtual time the optimistic
	// engine computed (no rollback can ever reach below it).
	GVT int64
}

// EngineStats merges the per-shard accounting cells (in shard order,
// so the result is deterministic).
func (s *Sim) EngineStats() EngineStats {
	st := EngineStats{
		Engine:           s.engine,
		Shards:           len(s.shards),
		Lookahead:        s.lookahead,
		CutLinks:         s.cutLinks,
		Horizon:          s.horizon,
		Windows:          s.engWindows.Total(),
		Events:           s.engEvents.Total(),
		Messages:         s.engMsgs.Total(),
		Checkpoints:      s.engCkpts.Total(),
		Rollbacks:        s.rollbacks,
		AntiMessages:     s.antiMsgs,
		CkptNodesCopied:  s.engCkptCopied.Total(),
		CkptNodesAliased: s.engCkptAliased.Total(),
		CkptBytes:        s.engCkptBytes.Total(),
		GVT:              s.gvt,
	}
	if s.hc != nil {
		st.HorizonAdaptive = true
		st.HorizonAdjusts = s.hc.adjusts
	}
	return st
}

// minNextAt returns the earliest pending event timestamp across all
// shards, or MaxInt64 when every queue is empty. Callers run at a
// barrier, so outboxes are empty and queues are complete.
func (s *Sim) minNextAt() int64 {
	next := int64(math.MaxInt64)
	for _, sh := range s.shards {
		if sh.q.len() > 0 && sh.q.minAt() < next {
			next = sh.q.minAt()
		}
	}
	return next
}

// runWindows drives the conservative parallel loop: find the global
// next event time, let every shard execute the window
// [next, next+lookahead) concurrently, exchange cross-shard messages
// at the barrier, repeat. Events with at <= limit are executed.
func (s *Sim) runWindows(limit int64) {
	var wg sync.WaitGroup
	for {
		next := s.minNextAt()
		if next > limit || next == math.MaxInt64 {
			return
		}
		end := next + s.lookahead
		if end < next { // overflow
			end = math.MaxInt64
		}
		if limit < math.MaxInt64 && end > limit+1 {
			end = limit + 1 // include events at exactly limit
		}

		s.running = true
		for _, sh := range s.shards {
			sh.winEnd = end
		}
		for _, sh := range s.shards {
			sh := sh
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { sh.panicked = recover() }()
				s.obsDo(sh, func() { sh.runTo(end) })
			}()
		}
		wg.Wait()
		s.running = false
		for _, sh := range s.shards {
			if sh.panicked != nil {
				p := sh.panicked
				sh.panicked = nil
				panic(p)
			}
		}
		s.engWindows.Inc(0)
		s.flushOutboxes()
		if s.obs != nil {
			s.obs.pushEnginePoint(s, int64(s.engWindows.Total()), next)
		}
	}
}

// flushOutboxes moves every cross-shard message produced during the
// last window into the destination shard's queue (the conservative
// barrier — no straggler is possible). The events carry their full
// deterministic keys, so a plain push lands them in exactly the
// order a sequential run would have executed them.
func (s *Sim) flushOutboxes() {
	for _, src := range s.shards {
		for d, msgs := range src.out {
			if len(msgs) == 0 {
				continue
			}
			dst := s.shards[d]
			for i := range msgs {
				dst.q.pushCross(&msgs[i])
			}
			src.out[d] = src.out[d][:0]
		}
	}
}

// maxShardNow returns the furthest shard clock: shard clocks stop on
// the last event each shard executed, so after a drain this is the
// global last-event time — the value a sequential Run leaves in
// Sim.Now(). (s.now seeds the max so clocks never move backwards
// across RunUntil/Run sequences.)
func (s *Sim) maxShardNow() int64 {
	max := s.now
	for _, sh := range s.shards {
		if sh.now > max {
			max = sh.now
		}
	}
	return max
}

// syncClocks advances every shard clock (and the committed global
// clock) to t; clocks never move backwards.
func (s *Sim) syncClocks(t int64) {
	for _, sh := range s.shards {
		if sh.now < t {
			sh.now = t
		}
	}
	if s.now < t {
		s.now = t
	}
}
