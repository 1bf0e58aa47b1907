package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
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
	// window; the coordinator drains them at the barrier. Only the
	// goroutine running this shard appends (the caller for shard 0,
	// the shard's worker otherwise), and only while the window is open;
	// the coordinator drains once it has closed.
	out [][]xmsg

	// winEnd is the exclusive end of the window currently executing,
	// set by the coordinator before it opens the window. Cross-shard
	// events must land at or after it — the conservative invariant —
	// and sendCross enforces that at message creation.
	winEnd int64

	// panicked carries an event panic out of the shard's window, on
	// whichever goroutine ran it, to the coordinator, which re-raises
	// it on the Run caller once the window has closed — the same
	// propagation a sequential run gives.
	panicked any

	// The shard's share of EngineStats, which sums them in shard order:
	// the events it executed, the cross-shard messages it sent, and (on
	// shard 0 only, counted by the coordinator) the windows run.
	events, msgs, windows uint64

	// bufs is the shard's free list of dead packet allocations, one
	// class per capacity (see getBuf); bufGets and bufReuses count what
	// was asked of it and what it answered without allocating.
	bufs               []bufClass
	bufGets, bufReuses uint64
}

// bufClass is the free list of one capacity.
type bufClass struct {
	size int
	// fresh counts the buffers of this capacity the shard allocated
	// itself. The list never holds more: a shard that only receives (the
	// sink's, when the generator sits in another) keeps nothing instead
	// of growing by every packet ever sent, and a shard on its own never
	// holds more than its peak in flight.
	fresh int
	free  [][]byte // dead ones, most recently released last
}

// Packet buffers come in capacities that are multiples of bufGrain, so
// that packets of nearly one size share a class and a shard has at most
// maxBufCap/bufGrain of them to search (one to three, in every workload
// we run). The grain is the allocator's own up to 256 bytes and finer
// than it above, so a buffer costs the heap what a bare make of its size
// would. Bigger ones are not kept: a jumbo allocation is rare and
// holding a list of them costs more than it saves.
const (
	bufGrain  = 16
	maxBufCap = 2048
)

// poisonReleased makes putBuf overwrite what it takes, so that a test
// sees a use after release as a changed counter. Only tests set it.
var poisonReleased bool

// getBuf returns size bytes of unspecified content, the most recently
// released allocation that holds them if there is one. Only what comes
// out of here may go back through putBuf.
func (sh *shard) getBuf(size int) []byte {
	sh.bufGets++
	c := (size + bufGrain - 1) &^ (bufGrain - 1)
	if c > maxBufCap {
		return make([]byte, size)
	}
	for i := range sh.bufs {
		cl := &sh.bufs[i]
		if cl.size != c {
			continue
		}
		if last := len(cl.free) - 1; last >= 0 {
			b := cl.free[last]
			cl.free[last] = nil
			cl.free = cl.free[:last]
			sh.bufReuses++
			return b[:size]
		}
		cl.fresh++
		return make([]byte, size, c)
	}
	sh.bufs = append(sh.bufs, bufClass{size: c, fresh: 1})
	return make([]byte, size, c)
}

// putBuf takes back an allocation getBuf handed out — this shard's or
// another's — that nothing refers to any more, while the shard holds
// fewer of that capacity than it has allocated; the garbage collector
// gets the rest.
func (sh *shard) putBuf(buf []byte) {
	for i := range sh.bufs {
		cl := &sh.bufs[i]
		if cl.size != cap(buf) {
			continue
		}
		if len(cl.free) < cl.fresh {
			if poisonReleased {
				buf = buf[:cap(buf)]
				for j := range buf {
					buf[j] = 0xDB
				}
			}
			cl.free = append(cl.free, buf)
		}
		return
	}
}

// isTail reports whether raw is provably the tail of buf — same last
// byte, same memory — which is what it takes for buf to still be the
// allocation of the packet raw. Unlike packet.Headroom it holds for a
// packet that starts at buf[0].
func isTail(buf, raw []byte) bool {
	head := len(buf) - len(raw)
	return head >= 0 && len(raw) > 0 && &buf[head] == &raw[0]
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
	sh.msgs++
	dst := m.peer.Node.shard
	if !sh.sim.running {
		dst.q.pushMsg(m)
		return
	}
	if m.at < sh.winEnd {
		// The destination shard may already have executed past m.at
		// within this window; delivering late would silently break the
		// sequential-equivalence guarantee. This only happens when a
		// cross-shard link's effective delay dropped below the
		// lookahead after SetShards validated it (Qdisc.SetDelay, a
		// negative ExtraDelayNs).
		panic(fmt.Sprintf(
			"netsim: cross-shard event at t=%d inside the current window (end %d): a cross-shard link's delay was lowered below the lookahead (%d ns) after SetShards",
			m.at, sh.winEnd, sh.sim.lookahead))
	}
	sh.out[dst.id] = append(sh.out[dst.id], *m)
}

// runTo executes this shard's events with at < end in key order.
func (sh *shard) runTo(end int64) {
	for sh.q.len() > 0 && sh.q.minAt() < end {
		e := sh.q.pop()
		sh.now = e.at
		sh.events++
		sh.sim.exec(sh, &e)
	}
}

// Engine names the synchronisation protocol of a sharded run. There is
// one: the type and the optional SetShards argument are kept only so
// existing callers that name EngineConservative keep compiling.
type Engine int

// EngineConservative lock-steps shards in lookahead windows; it
// requires every cross-shard link to carry a nonzero, jitter-free
// delay and never executes an event out of order.
const EngineConservative Engine = 0

// SetShards partitions the simulation's nodes into n shards for
// parallel execution. n == 1 restores the sequential engine. The
// partition is deterministic (contiguous blocks of node creation
// order), so a given topology always shards the same way; topologies
// whose creation order carries no locality (random graphs) or that
// contain zero-delay or jittered links should hand
// SetShardsPartitioned a topology-aware assignment instead (see
// internal/netsim/partition).
//
// Every link whose two ends land in different shards must carry a
// nonzero, jitter-free propagation delay: the minimum such delay
// becomes the engine's lookahead — the window length shards may run
// ahead of each other without synchronising — and SetShards returns an
// error naming the offending link otherwise.
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
// The assignment only relocates state ownership — the schedule, every
// counter and every delivery trace stay bit-identical to a sequential
// run under any assignment (the equivalence fuzzer runs arms with both
// partitioners).
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
	for _, eng := range engine {
		if eng != EngineConservative {
			return fmt.Errorf("netsim: unknown engine %d", eng)
		}
	}

	// Capture the previous node→shard pointers so a failed validation
	// can restore them exactly, whatever partition produced them.
	old := s.shards
	oldAssign := make([]*shard, len(s.nodes))
	for i, node := range s.nodes {
		oldAssign[i] = node.shard
	}
	shards := make([]*shard, n)
	owned := make([]int, n)
	now := s.Now()
	for i := range shards {
		shards[i] = newShard(s, i)
		shards[i].now = now
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
		owned[sid]++
	}
	for sid, c := range owned {
		if c == 0 {
			s.resetShardAssignment(oldAssign)
			return fmt.Errorf("netsim: partition leaves shard %d empty", sid)
		}
	}

	// Validate cross-shard links, derive the lookahead — the minimum
	// cross-shard delay — and count the cut (cross-shard links, each
	// unordered pair once).
	lookahead := int64(math.MaxInt64 / 2)
	cutLinks := 0
	for _, node := range s.nodes {
		for _, ifc := range node.ifaces {
			if ifc.peer == nil || ifc.peer.Node.shard == node.shard {
				continue
			}
			if node.idx < ifc.peer.Node.idx {
				cutLinks++
			}
			cfg := ifc.q.Config()
			// Read the ids now: the reset on rejection reverts them.
			a, b := node.shard.id, ifc.peer.Node.shard.id
			if cfg.DelayNs <= 0 {
				s.resetShardAssignment(oldAssign)
				return fmt.Errorf("netsim: link %s has zero propagation delay but crosses shards %d/%d (%s)",
					ifc, a, b, placeInsideHint)
			}
			if cfg.JitterNs > 0 {
				s.resetShardAssignment(oldAssign)
				return fmt.Errorf("netsim: link %s has delay jitter but crosses shards %d/%d (jitter can undercut the lookahead; %s)",
					ifc, a, b, placeInsideHint)
			}
			if cfg.DelayNs < lookahead {
				lookahead = cfg.DelayNs
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
	s.lookahead = lookahead
	s.cutLinks = cutLinks
	if s.obs != nil {
		// Histogram cells are per shard; re-partitioning resets them
		// the same way the new shards start the engine's counters at 0.
		s.obs.sizeCells(n)
	}
	s.now = now
	return nil
}

// placeInsideHint ends both cross-shard link rejections.
const placeInsideHint = "place it inside one shard: partition.MinCut, or run with 1 shard"

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
	Shards    int
	Lookahead int64
	// CutLinks counts the links whose two ends landed in different
	// shards (each unordered pair once) — the static cut the partition
	// chose; Messages is the dynamic price actually paid for it.
	CutLinks int
	// Windows counts barrier-to-barrier rounds executed.
	Windows uint64
	// Events counts events executed across all shards.
	Events uint64
	// Messages counts cross-shard packet/control transfers.
	Messages uint64
	// BufGets counts the packet buffers asked of the shards' free lists
	// (Node.PacketBuf) since the partition was set; BufReuses, how many
	// of them were a dead packet's allocation instead of a new one.
	BufGets, BufReuses uint64
}

// EngineStats sums the shards' counters (in shard order, so the result
// is deterministic). Call it only between runs or at a barrier.
func (s *Sim) EngineStats() EngineStats {
	st := EngineStats{
		Shards:    len(s.shards),
		Lookahead: s.lookahead,
		CutLinks:  s.cutLinks,
	}
	for _, sh := range s.shards {
		st.Windows += sh.windows
		st.Events += sh.events
		st.Messages += sh.msgs
		st.BufGets += sh.bufGets
		st.BufReuses += sh.bufReuses
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
//
// The caller runs shard 0 and coordinates; every other shard gets one
// worker goroutine for the length of the call (see barrier).
func (s *Sim) runWindows(limit int64) {
	b := &barrier{workers: int32(len(s.shards) - 1)}
	for _, sh := range s.shards[1:] {
		go s.shardWorker(sh, b)
	}
	defer b.release()
	s.obsDo(s.shards[0], func() {
		for next := s.minNextAt(); next <= limit && next != math.MaxInt64; next = s.minNextAt() {
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
			b.open()
			s.shards[0].runWindow()
			b.wait()
			s.running = false
			for _, sh := range s.shards {
				if sh.panicked != nil {
					p := sh.panicked
					sh.panicked = nil
					panic(p)
				}
			}
			s.shards[0].windows++
			s.flushOutboxes()
			if s.obs != nil {
				s.obs.pushEnginePoint(s, next)
			}
		}
	})
}

// runWindow executes the shard's events up to winEnd; a panic is kept
// in panicked for the coordinator to re-raise once the window closes.
func (sh *shard) runWindow() {
	defer func() { sh.panicked = recover() }()
	sh.runTo(sh.winEnd)
}

// shardWorker runs sh's share of every window b opens until b releases
// it.
func (s *Sim) shardWorker(sh *shard, b *barrier) {
	s.obsDo(sh, func() {
		for gen := uint32(1); ; gen++ {
			spinUntil(func() bool { return b.gen.Load() == gen })
			if b.stop {
				b.left.Add(-1)
				return
			}
			sh.runWindow()
			b.left.Add(-1)
		}
	})
}

// barrier is the window handshake between the coordinator and the
// workers of one runWindows call. The coordinator opens a window by
// bumping gen, after writing everything the workers read (winEnd,
// stop); each worker closes its part by decrementing left, after
// writing everything the coordinator reads (queues, outboxes,
// panicked). Both sides wait by spinning, so no one sleeps.
type barrier struct {
	workers int32
	gen     atomic.Uint32 // windows opened so far
	left    atomic.Int32  // workers still inside the open window
	stop    bool          // the next opening tells workers to return
}

func (b *barrier) open() {
	b.left.Store(b.workers)
	b.gen.Add(1)
}

func (b *barrier) wait() { spinUntil(func() bool { return b.left.Load() == 0 }) }

// release has every worker return and waits until they have. A window
// can still be open here — an event on shard 0 that ended the caller's
// goroutine (t.FailNow does) skips the coordinator's wait — so it lets
// that one close first.
func (b *barrier) release() {
	b.wait()
	b.stop = true
	b.open()
	b.wait()
}

// spinLoads is how many times a waiter checks the barrier back to back
// before it starts yielding the processor between checks.
const spinLoads = 256

// spinUntil returns once done reports true. Past spinLoads checks it
// yields between them, so the goroutine it waits for gets a processor
// even when there are fewer Ps than shards.
func spinUntil(done func() bool) {
	for i := 0; !done(); i++ {
		if i >= spinLoads {
			runtime.Gosched()
		}
	}
}

// flushOutboxes moves every cross-shard message produced during the
// last window into the destination shard's queue (the barrier: every
// message lands at or after the window's end). The events carry their
// full deterministic keys, so a plain push lands them in exactly the
// order a sequential run would have executed them.
func (s *Sim) flushOutboxes() {
	for _, src := range s.shards {
		for d, msgs := range src.out {
			if len(msgs) == 0 {
				continue
			}
			dst := s.shards[d]
			for i := range msgs {
				dst.q.pushMsg(&msgs[i])
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
