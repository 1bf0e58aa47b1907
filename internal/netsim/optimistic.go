package netsim

// optimistic.go is the Time-Warp style optimistic shard engine. The
// conservative engine (shard.go) lock-steps shards in windows of the
// minimum cross-shard link delay, which collapses when that delay is
// tiny, jittered or zero. The optimistic engine lets every shard
// speculate through a fixed horizon instead and repairs mis-ordered
// history when it is caught out:
//
//   - periodically (every round while speculation thrashes, up to 64
//     rounds apart while it is clean — the checkpoint stride is set
//     by the adaptive controller in horizon.go) each shard with
//     runnable work takes a checkpoint — a value copy of its event
//     queue (keys, payload slab and free list) plus, incrementally,
//     the state of every node dirtied since its last snapshot
//     (receive rings, counters, interface and qdisc state, FIB
//     round-robin cursors, per-node RNG streams, registered
//     ShardState hooks); clean nodes alias the previous checkpoint's
//     immutable snapshot;
//   - shards then execute the window [GVT, GVT+horizon) concurrently
//     (the horizon adapts to the observed rollback rate unless
//     SetHorizon pinned it), buffering cross-shard packets in
//     outboxes exactly like the conservative engine;
//   - at the barrier the coordinator exchanges the buffered messages.
//     A message timestamped before a shard's execution frontier is a
//     straggler: the shard rolls back to its latest checkpoint at or
//     before the straggler, re-delivers the inputs it had received
//     since (kept in a per-shard input log), and cancels every
//     cross-shard message it sent from the rolled-back rounds by
//     emitting anti-messages, which annihilate their positives in the
//     receivers' heaps, logs and snapshots — recursively rolling
//     receivers back when the positive already executed;
//   - GVT (global virtual time), the minimum pending event time once
//     all messages are in heaps, bounds rollback depth: checkpoints
//     and log entries older than the newest checkpoint at or below
//     GVT are discarded.
//
// Because every event carries the deterministic (at, schedAt, src, k)
// key, committed execution replays the sequential schedule exactly:
// the same seed yields bit-identical counters and delivery traces
// whether a topology runs on one heap, conservatively sharded, or
// optimistically sharded (locked by TestShardEquivalence* and the
// randomized TestShardEquivalenceFuzz).

import (
	"fmt"
	"math"
	"sync"

	"srv6bpf/internal/netem"
)

// Engine selects the synchronisation protocol of a sharded run.
type Engine int

const (
	// EngineConservative lock-steps shards in lookahead windows; it
	// requires every cross-shard link to carry a nonzero, jitter-free
	// delay and never executes an event out of order.
	EngineConservative Engine = iota
	// EngineOptimistic speculates past the lookahead and rolls back on
	// stragglers. It accepts any cross-shard link — zero-delay and
	// jittered included — at the cost of checkpointing and occasional
	// re-execution.
	EngineOptimistic
)

func (e Engine) String() string {
	switch e {
	case EngineConservative:
		return "conservative"
	case EngineOptimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ShardState is implemented by components that keep mutable
// simulation state outside the netsim core — traffic generators,
// network-function control loops, test observers. Registering the
// component with Node.RegisterState makes that state part of the
// owning node's checkpoints, so optimistic rollback rewinds it
// together with the node.
//
// SnapshotState must return a value that shares no mutable memory
// with the component; RestoreState must leave the component exactly
// as it was when the snapshot was taken, and must keep the snapshot
// reusable (one checkpoint can be restored several times).
type ShardState interface {
	SnapshotState() any
	RestoreState(any)
}

// Journal is a rollback-aware append-only record of per-node
// observations (delivery traces, handler logs). Appends from
// speculative events are discarded with the rollback, so the final
// content matches a sequential run under any engine. Append only from
// events executing on the owning node's shard.
type Journal struct {
	lines []string
}

// NewJournal creates a journal bound to n's checkpoint machinery.
func NewJournal(n *Node) *Journal {
	j := &Journal{}
	n.RegisterState(j)
	return j
}

// Addf appends one formatted line.
func (j *Journal) Addf(format string, args ...any) {
	j.lines = append(j.lines, fmt.Sprintf(format, args...))
}

// Add appends one line.
func (j *Journal) Add(line string) { j.lines = append(j.lines, line) }

// Lines returns the committed lines. Read it only while the sim is
// quiescent.
func (j *Journal) Lines() []string { return j.lines }

// SnapshotState implements ShardState (the journal is append-only, so
// its snapshot is just a length).
func (j *Journal) SnapshotState() any { return len(j.lines) }

// RestoreState implements ShardState.
func (j *Journal) RestoreState(s any) { j.lines = j.lines[:s.(int)] }

// randSource is a splitmix64 rand.Source64. Its entire state is one
// word, so node checkpoints capture and restore the stream exactly —
// something math/rand's default source cannot offer.
type randSource struct{ state uint64 }

func (s *randSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *randSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *randSource) Seed(seed int64) { s.state = uint64(seed) }

// msgKey is an event's globally unique deterministic identity: the
// same tuple that orders the heap. Anti-messages carry it to name the
// positive they annihilate.
type msgKey struct {
	at, schedAt int64
	src         int32
	k           uint64
}

// inputRec is one cross-shard message this shard received, retained
// (tagged with the barrier it arrived at) so a rollback can
// re-deliver it.
type inputRec struct {
	round uint64
	m     xmsg
}

// sentRec is one delivered cross-shard message this shard sent. A
// rollback moves the records of the undone interval into the
// tentative list: if re-execution reproduces a message identically it
// is suppressed and the original delivery stands (lazy cancellation);
// records the re-execution passes without reproducing — or reproduces
// with different content — become anti-messages.
type sentRec struct {
	dst int
	m   xmsg
}

// ifaceSnap is the checkpointed state of one link end (owned by the
// node's shard) plus its egress qdisc.
type ifaceSnap struct {
	down          bool
	failEpoch     uint64
	txPackets     uint64
	txBytes       uint64
	txDrops       uint64
	downTxDrops   uint64
	inFlightKills uint64
	q             netem.Snapshot
}

// nodeSnap is the checkpointed state of one node. Snapshots are
// immutable once taken: incremental checkpoints alias the previous
// round's nodeSnap for nodes that have not been touched since, so one
// snapshot may back several checkpoints.
type nodeSnap struct {
	schedK     uint64
	rng        uint64
	busy       bool
	crashed    bool
	crashEpoch uint64
	// pending is the node's in-flight packet commit (a value copy
	// sharing the raw bytes, which the pktEra machinery keeps safe): a
	// checkpoint can land between a drain and its continuation, and a
	// rollback must re-apply exactly the commit that was pending. The
	// burst caches are deliberately NOT captured — they are pure, and
	// restore bumps the burst epoch to retire them.
	pending pendingCommit
	rxq     []rxItem
	// cvals holds the counter values in intern order (parallel to
	// Node.counterCells). A flat value copy instead of a map rebuild:
	// the per-checkpoint cost of a counter set is one slice copy.
	cvals  []uint64
	ifaces []ifaceSnap
	rr     []uint64
	hooks  []any
}

// Approximate in-memory sizes for checkpoint-byte accounting (Go
// struct layouts; exactness is not required, stability across rounds
// is). The event queue's share is exact: see eventQueue.sizeBytes.
const (
	rxItemBytes   = 48  // rxItem excluding the packet bytes
	nodeSnapBytes = 176 // nodeSnap header: scalars + pendingCommit + slice headers
	ifaceSnapHdr  = 64  // ifaceSnap excluding the qdisc snapshot
)

// sizeBytes estimates the deep memory footprint of the snapshot.
func (s *nodeSnap) sizeBytes() uint64 {
	b := uint64(nodeSnapBytes)
	b += uint64(len(s.pending.raw))
	for i := range s.rxq {
		b += rxItemBytes + uint64(len(s.rxq[i].raw))
	}
	b += 8 * uint64(len(s.cvals)+len(s.rr))
	for i := range s.ifaces {
		b += ifaceSnapHdr + uint64(s.ifaces[i].q.SizeBytes())
	}
	b += 16 * uint64(len(s.hooks))
	return b
}

// checkpoint is one shard's state at the start of a round: everything
// needed to re-execute speculation from scratch.
type checkpoint struct {
	round uint64
	time  int64 // execution frontier (execTo) when taken
	now   int64 // shard clock when taken
	q     eventQueue
	nodes []nodeSnap
}

// snapshot captures the node's full mutable state. It runs on the
// node's own shard; everything it reads is shard-owned.
func (n *Node) snapshot() nodeSnap {
	snap := nodeSnap{
		schedK:     n.schedK,
		rng:        n.rngSrc.state,
		busy:       n.busy,
		crashed:    n.crashed,
		crashEpoch: n.crashEpoch,
		pending:    n.pending,
	}
	if n.rxCount > 0 {
		snap.rxq = make([]rxItem, n.rxCount)
		mask := len(n.rxq) - 1
		for i := 0; i < n.rxCount; i++ {
			snap.rxq[i] = n.rxq[(n.rxHead+i)&mask]
		}
	}
	snap.cvals = make([]uint64, len(n.counterCells))
	for i, c := range n.counterCells {
		snap.cvals[i] = *c
	}
	if len(n.ifaces) > 0 {
		snap.ifaces = make([]ifaceSnap, len(n.ifaces))
		for i, ifc := range n.ifaces {
			snap.ifaces[i] = ifaceSnap{
				down:          ifc.down,
				failEpoch:     ifc.failEpoch,
				txPackets:     ifc.TxPackets,
				txBytes:       ifc.TxBytes,
				txDrops:       ifc.TxDrops,
				downTxDrops:   ifc.downTxDrops,
				inFlightKills: ifc.inFlightKills,
				q:             ifc.q.Snapshot(),
			}
		}
	}
	snap.rr = n.routeCounters()
	if len(n.stateHooks) > 0 {
		snap.hooks = make([]any, len(n.stateHooks))
		for i, h := range n.stateHooks {
			snap.hooks[i] = h.s.SnapshotState()
		}
	}
	return snap
}

// restore rewinds the node to snap. The snapshot stays valid for
// further restores.
func (n *Node) restore(snap nodeSnap) {
	n.schedK = snap.schedK
	n.rngSrc.state = snap.rng
	n.busy = snap.busy
	n.crashed = snap.crashed
	n.crashEpoch = snap.crashEpoch
	n.pending = snap.pending
	// Retire the burst caches: rollback can rewind state (FIB
	// round-robin cursors, stateHook registrations) the epoch-gated
	// caches and bind-skips were computed against. The caches are pure
	// so a bump is all it takes — they refill on the next burst.
	n.burstSeq++
	n.burstLeft = 0
	if len(snap.rxq) > len(n.rxq) {
		// Ring capacity must stay a power of two (push/pop index with a
		// mask).
		newCap := 64
		for newCap < len(snap.rxq) {
			newCap *= 2
		}
		n.rxq = make([]rxItem, newCap)
	}
	for i := range n.rxq {
		n.rxq[i] = rxItem{}
	}
	copy(n.rxq, snap.rxq)
	n.rxHead = 0
	n.rxCount = len(snap.rxq)
	for i, c := range n.counterCells {
		if i < len(snap.cvals) {
			*c = snap.cvals[i]
		} else {
			// Interned during speculation; forget it so the committed
			// counter set matches the sequential run. (Interning is
			// append-only, so everything beyond the snapshot's length is
			// newer than the snapshot.)
			delete(n.counters, n.counterNames[i])
		}
	}
	if len(n.counterCells) > len(snap.cvals) {
		n.counterCells = n.counterCells[:len(snap.cvals)]
		n.counterNames = n.counterNames[:len(snap.cvals)]
	}
	for i, ifc := range n.ifaces {
		is := &snap.ifaces[i]
		ifc.down = is.down
		ifc.failEpoch = is.failEpoch
		ifc.TxPackets = is.txPackets
		ifc.TxBytes = is.txBytes
		ifc.TxDrops = is.txDrops
		ifc.downTxDrops = is.downTxDrops
		ifc.inFlightKills = is.inFlightKills
		ifc.q.Restore(is.q)
	}
	n.restoreRouteCounters(snap.rr)
	for i, h := range n.stateHooks {
		if i < len(snap.hooks) {
			h.s.RestoreState(snap.hooks[i])
		} else {
			// Registered during the rolled-back speculation: rewind the
			// component to its pre-registration state and unhook it; a
			// re-executed registration re-adds it.
			h.s.RestoreState(h.reg)
		}
	}
	if len(n.stateHooks) > len(snap.hooks) {
		n.stateHooks = n.stateHooks[:len(snap.hooks)]
	}
}

// routeCounters collects every route's round-robin cursor in
// deterministic table/route order (tableOrder is maintained sorted),
// sized exactly in one allocation.
func (n *Node) routeCounters() []uint64 {
	total := 0
	for _, id := range n.tableOrder {
		total += len(n.tables[id].routes)
	}
	dst := make([]uint64, 0, total)
	for _, id := range n.tableOrder {
		for _, r := range n.tables[id].routes {
			dst = append(dst, r.rrCounter)
		}
	}
	return dst
}

func (n *Node) restoreRouteCounters(vals []uint64) {
	i := 0
	for _, id := range n.tableOrder {
		for _, r := range n.tables[id].routes {
			if i >= len(vals) {
				panic("netsim: FIB routes added during optimistic speculation; install routes before Run, or from driver code between runs")
			}
			r.rrCounter = vals[i]
			i++
		}
	}
}

// takeCheckpoint snapshots the shard at its current frontier. Runs on
// the shard's worker goroutine at the start of a round.
//
// Checkpoints are incremental: only nodes whose dirty bit is set since
// their last fresh snapshot are deep-copied; a clean node's entry
// aliases the previous checkpoint's (immutable) snapshot, so an idle
// region of the shard costs one struct copy per round instead of a
// deep state copy. The first checkpoint after a commit (no retained
// predecessor) snapshots everything, which is what makes driver-time
// and Step-time mutations — which are not dirty-tracked — safe.
func (sh *shard) takeCheckpoint(round uint64) {
	sh.ckptSeq++
	c := &checkpoint{round: round, time: sh.execTo, now: sh.now}
	c.q.copyFrom(&sh.q)
	c.nodes = make([]nodeSnap, len(sh.nodes))
	var prev *checkpoint
	if len(sh.ckpts) > 0 {
		prev = sh.ckpts[len(sh.ckpts)-1]
	}
	var copied, aliased, bytes uint64
	bytes += c.q.sizeBytes()
	for i, n := range sh.nodes {
		if prev != nil && !n.dirty {
			c.nodes[i] = prev.nodes[i]
			aliased++
			continue
		}
		c.nodes[i] = n.snapshot()
		n.dirty = false
		copied++
		bytes += c.nodes[i].sizeBytes()
	}
	sh.ckpts = append(sh.ckpts, c)
	sh.lastCkptRound = round
	sh.forceCkpt = false
	s := sh.sim
	s.engCkpts.Inc(sh.id)
	s.engCkptCopied.Add(sh.id, copied)
	s.engCkptAliased.Add(sh.id, aliased)
	s.engCkptBytes.Add(sh.id, bytes)
}

// restoreCheckpoint rewinds the shard to c; c stays reusable. Every
// node's live state now equals its checkpointed snapshot, so dirty
// bits clear: the next checkpoint may alias these snapshots again.
func (sh *shard) restoreCheckpoint(c *checkpoint) {
	sh.q.copyFrom(&c.q)
	for i, n := range sh.nodes {
		n.restore(c.nodes[i])
		n.dirty = false
	}
	sh.execTo = c.time
	sh.now = c.now
}

// pendingMsg is one cross-shard message in flight at a barrier.
type pendingMsg struct {
	src, dst int
	m        xmsg
	dead     bool // cancelled or suppressed before delivery
}

// runOptimistic drives the Time-Warp loop: speculate a round, repair
// at the barrier, trim committed history, repeat. Events with
// at <= limit are executed; speculation never crosses limit, so the
// state visible to the caller on return is fully committed.
func (s *Sim) runOptimistic(limit int64) {
	// Run entry is a commit boundary: everything executed so far is
	// final, exactly like a sequential run that returned to the
	// driver. Frontiers left over from the previous run must not
	// classify newly scheduled work as stragglers — a driver may
	// legitimately schedule events at the committed time (Schedule
	// clamps to now), and over a zero-delay link their deliveries land
	// at that same instant, below a stale execTo with no checkpoint to
	// roll back to. Clamping every frontier to the global pending
	// floor restores the sequential boundary semantics: whatever is
	// pending now executes now, after the committed history.
	if floor := s.minNextAt(); floor != math.MaxInt64 {
		for _, sh := range s.shards {
			if sh.execTo > floor {
				sh.execTo = floor
			}
		}
	}
	var wg sync.WaitGroup
	for {
		gvt := s.minNextAt()
		s.gvt = gvt
		if gvt > limit || gvt == math.MaxInt64 {
			s.commitAll()
			return
		}
		end := gvt + s.horizon
		if end <= gvt { // overflow
			end = math.MaxInt64
		}
		if limit < math.MaxInt64-1 && end > limit+1 {
			end = limit + 1 // include events at exactly limit
		}
		s.round++
		round := s.round
		stride := uint64(1)
		if s.hc != nil {
			stride = s.hc.stride()
		}
		s.running = true
		for _, sh := range s.shards {
			sh := sh
			if sh.q.len() == 0 || sh.q.minAt() >= end {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { sh.panicked = recover() }()
				// Checkpoints are periodic, not per-round: while
				// speculation is clean the controller stretches the
				// stride and a straggler simply rolls back through the
				// older checkpoint, re-delivering the inputs logged
				// since. A shard with no retained checkpoint must take
				// one before speculating — there would be nothing to
				// roll back to.
				s.obsDo(sh, func() {
					if len(sh.ckpts) == 0 || sh.forceCkpt || round >= sh.lastCkptRound+stride {
						sh.takeCheckpoint(round)
					}
					sh.runTo(end)
				})
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
		prevRollbacks, prevAntis := s.rollbacks, s.antiMsgs
		s.exchangeOptimistic()
		if s.onBarrier != nil {
			s.onBarrier(s.minNextAt())
		}
		s.trimCommitted()
		if s.obs != nil {
			s.obs.pushEnginePoint(s, int64(round), s.gvt)
		}
		if s.hc != nil {
			// Feed this barrier's repair cost to the adaptive horizon
			// controller; the next round speculates with its verdict.
			msgs := s.engMsgs.Total()
			s.horizon = s.hc.observe(s.rollbacks-prevRollbacks, s.antiMsgs-prevAntis, msgs-s.hcMsgsSeen)
			s.hcMsgsSeen = msgs
		}
	}
}

// exchangeOptimistic is the barrier: collect every outbox, then
// deliver message by message, rolling destinations back on
// stragglers, suppressing re-emissions that reproduce an earlier
// delivery (lazy cancellation) and annihilating deliveries the
// re-execution disowned, until the system is consistent again. Runs
// single-threaded on the coordinator, so no locks are needed anywhere
// in the repair path.
func (s *Sim) exchangeOptimistic() {
	for si, src := range s.shards {
		for d, msgs := range src.out {
			for i := range msgs {
				s.pending = append(s.pending, pendingMsg{src: si, dst: d, m: msgs[i]})
			}
			src.out[d] = src.out[d][:0]
		}
	}
	i := 0
	for {
		for len(s.antiq) > 0 {
			a := s.antiq[0]
			s.antiq = s.antiq[1:]
			s.annihilate(a)
		}
		if i < len(s.pending) {
			pm := &s.pending[i]
			if pm.dead {
				i++
				continue
			}
			sender := s.shards[pm.src]
			if j := sender.findTentative(pm.m.key()); j >= 0 {
				t := sender.tentative[j]
				sender.tentative = append(sender.tentative[:j], sender.tentative[j+1:]...)
				sender.tentRemoved(t.m.schedAt)
				if t.m.same(&pm.m) {
					// Reproduced identically: the original delivery (and
					// whatever the receiver already did with it) stands.
					sender.sentLog = append(sender.sentLog, t)
					pm.dead = true
					i++
					continue
				}
				// Reproduced with different content: cancel the stale
				// original first, then deliver the new message.
				s.antiq = append(s.antiq, t)
				continue
			}
			dst := s.shards[pm.dst]
			if pm.m.at < dst.execTo {
				// Straggler: the destination speculated past it.
				s.rollbackShard(dst, pm.m.at)
				continue // drain fresh anti-messages, then re-examine pm
			}
			dst.q.pushCross(&pm.m)
			dst.inLog = append(dst.inLog, inputRec{round: s.round, m: pm.m})
			sender.sentLog = append(sender.sentLog, sentRec{dst: pm.dst, m: pm.m})
			i++
			continue
		}
		// Every message processed: sweep tentative entries their
		// senders can no longer reproduce — the frontier re-executed
		// past the emission time without matching them, or no event at
		// or below the emission time remains in the sender's heap (the
		// emitter chain itself was annihilated). Those deliveries never
		// happen in the repaired history. Sweeping a send a later
		// fresh execution re-emits after all is sound: the re-emission
		// finds no tentative record and simply delivers anew.
		stale := false
		for _, sh := range s.shards {
			if len(sh.tentative) == 0 {
				continue
			}
			// Skip the scan when no entry can be stale: every emission
			// time is ≥ the cached minimum, so if the frontier has not
			// passed the minimum and the heap still holds an event at
			// or below it, all three staleness conditions fail for
			// every entry.
			if tm := sh.tentMinSchedAt(); sh.execTo <= tm &&
				sh.q.len() > 0 && sh.q.minAt() <= tm {
				continue
			}
			keep := sh.tentative[:0]
			newMin := int64(math.MaxInt64)
			for _, t := range sh.tentative {
				if t.m.schedAt < sh.execTo || sh.q.len() == 0 || sh.q.minAt() > t.m.schedAt {
					s.antiq = append(s.antiq, t)
					stale = true
				} else {
					keep = append(keep, t)
					if t.m.schedAt < newMin {
						newMin = t.m.schedAt
					}
				}
			}
			sh.tentative = keep
			sh.tentMin, sh.tentMinStale = newMin, false
		}
		if !stale && len(s.antiq) == 0 {
			break
		}
	}
	s.pending = s.pending[:0]
}

// tentAppend adds one record to the tentative list, keeping the
// cached minimum emission time current.
func (sh *shard) tentAppend(r sentRec) {
	if len(sh.tentative) == 0 {
		sh.tentMin, sh.tentMinStale = r.m.schedAt, false
	} else if !sh.tentMinStale && r.m.schedAt < sh.tentMin {
		sh.tentMin = r.m.schedAt
	}
	sh.tentative = append(sh.tentative, r)
}

// tentRemoved records that an entry with the given emission time left
// the tentative list: if it carried the cached minimum, the cache
// recomputes lazily on the next read.
func (sh *shard) tentRemoved(schedAt int64) {
	if !sh.tentMinStale && schedAt == sh.tentMin {
		sh.tentMinStale = true
	}
}

// tentMinSchedAt returns the minimum emission time across the
// tentative list (MaxInt64 when empty), recomputing the cache only
// when a removal invalidated it.
func (sh *shard) tentMinSchedAt() int64 {
	if len(sh.tentative) == 0 {
		return math.MaxInt64
	}
	if sh.tentMinStale {
		min := int64(math.MaxInt64)
		for i := range sh.tentative {
			if sh.tentative[i].m.schedAt < min {
				min = sh.tentative[i].m.schedAt
			}
		}
		sh.tentMin, sh.tentMinStale = min, false
	}
	return sh.tentMin
}

// findTentative locates a tentative record by message key.
func (sh *shard) findTentative(key msgKey) int {
	for i := range sh.tentative {
		if sh.tentative[i].m.key() == key {
			return i
		}
	}
	return -1
}

// annihilate removes the delivered positive message named by a from
// its destination, wherever it is: queued in the live heap, logged as
// an input, or captured inside retained checkpoint snapshots. If the
// destination already executed it, the destination rolls back first.
func (s *Sim) annihilate(a sentRec) {
	s.antiMsgs++
	key := a.m.key()
	sh := s.shards[a.dst]
	for i := range sh.inLog {
		if sh.inLog[i].m.key() == key {
			sh.inLog = append(sh.inLog[:i], sh.inLog[i+1:]...)
			break
		}
	}
	if key.at < sh.execTo {
		s.rollbackShard(sh, key.at)
	}
	sh.q.removeKey(key)
	for _, c := range sh.ckpts {
		c.q.removeKey(key)
	}
	// Cascade: tentative sends the destination emitted while executing
	// the annihilated event can never be reproduced — their emitter
	// just vanished from its heap, so the stale sweep (which watches
	// the execution frontier) would miss them and the GVT floor would
	// lose track of them. Emissions carry their emitter's execution
	// time as schedAt; cancelling every tentative send at that instant
	// over-approximates (a co-timed surviving event re-emits its sends
	// afresh, which the receiver simply re-receives) but is always
	// sound.
	keep := sh.tentative[:0]
	newMin := int64(math.MaxInt64)
	for _, t := range sh.tentative {
		if t.m.schedAt == key.at {
			s.antiq = append(s.antiq, t)
		} else {
			keep = append(keep, t)
			if t.m.schedAt < newMin {
				newMin = t.m.schedAt
			}
		}
	}
	sh.tentative = keep
	sh.tentMin, sh.tentMinStale = newMin, false
}

// rollbackShard rewinds sh to its latest checkpoint at or before t
// and re-delivers the inputs received since. Cross-shard sends from
// the undone interval are not cancelled eagerly: delivered ones move
// to the tentative list (re-execution usually reproduces them and the
// receiver never notices), and still-pending ones die in place.
func (s *Sim) rollbackShard(sh *shard, t int64) {
	if s.obs != nil {
		// Rollback depth = speculated virtual time undone. Runs on the
		// single-threaded coordinator, so the histogram needs no cell.
		s.obs.rollbackDepth.Observe(sh.execTo - t)
	}
	i := len(sh.ckpts) - 1
	for i >= 0 && sh.ckpts[i].time > t {
		i--
	}
	if i < 0 {
		panic(fmt.Sprintf(
			"netsim: optimistic rollback to t=%d below shard %d's oldest retained checkpoint (GVT invariant violated)",
			t, sh.id))
	}
	c := sh.ckpts[i]
	// Newer checkpoints captured invalid speculation; clear the
	// dropped tail so their snapshots and packet buffers free now
	// rather than when the slots are eventually overwritten.
	clear(sh.ckpts[i+1:])
	sh.ckpts = sh.ckpts[:i+1]
	sh.forceCkpt = true // re-anchor before the next speculation round
	sh.restoreCheckpoint(c)
	for _, in := range sh.inLog {
		if in.round >= c.round {
			if in.m.at < c.time {
				panic("netsim: optimistic input log entry below its restored checkpoint")
			}
			sh.q.pushCross(&in.m)
		}
	}
	keep := sh.sentLog[:0]
	for _, sr := range sh.sentLog {
		if sr.m.schedAt >= c.time {
			sh.tentAppend(sr)
		} else {
			keep = append(keep, sr)
		}
	}
	sh.sentLog = keep
	for j := range s.pending {
		pm := &s.pending[j]
		if !pm.dead && pm.src == sh.id && pm.m.schedAt >= c.time {
			pm.dead = true
		}
	}
	s.rollbacks++
}

// trimCommitted advances GVT and discards history no rollback can
// reach: everything older than the newest checkpoint at or below GVT.
// GVT is the minimum over pending event times and unacknowledged
// (tentative) send emission times: a tentative send can still turn
// into an anti-message that rolls its receiver back to the send's
// timestamp, so no checkpoint at or below it may be discarded.
func (s *Sim) trimCommitted() {
	gvt := s.minNextAt()
	for _, sh := range s.shards {
		// O(1) per shard: the incrementally maintained tentative
		// minimum replaces the per-entry scan that made every barrier
		// cost O(shards·tentative).
		if m := sh.tentMinSchedAt(); m < gvt {
			gvt = m
		}
	}
	s.gvt = gvt
	for _, sh := range s.shards {
		if len(sh.ckpts) == 0 {
			// Never speculated since the last commit: nothing can roll
			// back, so nothing needs retaining.
			sh.inLog = sh.inLog[:0]
			sh.sentLog = sh.sentLog[:0]
			continue
		}
		cut := 0
		for i, c := range sh.ckpts {
			if c.time <= gvt {
				cut = i
			} else {
				break // checkpoint times are non-decreasing
			}
		}
		if cut == 0 {
			// Rollback floor unchanged: the retention filters below
			// would keep everything, so skip the per-round scan (the
			// logs can hold thousands of entries when the checkpoint
			// stride is stretched).
			continue
		}
		clear(sh.ckpts[:cut]) // release the committed snapshots now
		sh.ckpts = sh.ckpts[cut:]
		floor := sh.ckpts[0]
		inKeep := sh.inLog[:0]
		for _, in := range sh.inLog {
			if in.round >= floor.round {
				inKeep = append(inKeep, in)
			}
		}
		clear(sh.inLog[len(inKeep):])
		sh.inLog = inKeep
		// A send can only join the tentative list if a rollback reaches
		// its emission time; emissions below the oldest retained
		// checkpoint are unreachable, hence committed.
		sentKeep := sh.sentLog[:0]
		for _, sr := range sh.sentLog {
			if sr.m.schedAt >= floor.time {
				sentKeep = append(sentKeep, sr)
			}
		}
		clear(sh.sentLog[len(sentKeep):])
		sh.sentLog = sentKeep
	}
}

// commitAll drops all speculation history; called when the engine
// drains (every event at or below the run limit executed, no pending
// messages) and the whole state is committed. The history slices keep
// their capacity — a driver loop alternating RunUntil and quiescent
// work would otherwise regrow them from scratch every chunk — but
// their elements are cleared so committed packet buffers and
// snapshots are released to the GC.
func (s *Sim) commitAll() {
	for _, sh := range s.shards {
		if len(sh.tentative) != 0 {
			panic("netsim: optimistic engine drained with unacked tentative messages")
		}
		clear(sh.ckpts)
		sh.ckpts = sh.ckpts[:0]
		clear(sh.inLog)
		sh.inLog = sh.inLog[:0]
		clear(sh.sentLog)
		sh.sentLog = sh.sentLog[:0]
	}
	s.pending = s.pending[:0]
	s.antiq = s.antiq[:0]
}
