package netsim

// evKey is one scheduled event as the heap sees it: the deterministic
// ordering key plus the two words needed to find or replace its
// payload. It holds no pointers, so sifting moves 40 plain bytes with
// no write barriers and the garbage collector never scans the heap
// array.
//
// The (at, schedAt, src, k) tuple is the ordering key. schedAt is the
// virtual time of the Schedule call, src the index of the scheduling
// node (driverSrc for driver-level schedules), and k the per-source
// schedule counter. Unlike a global sequence number, the key does not
// depend on how shards interleave, so it orders events identically
// whether the simulation runs on one queue or sixteen. Keys are unique
// (k never repeats per source), so pop order is independent of the
// heap's internal shape.
type evKey struct {
	at      int64
	schedAt int64
	k       uint64
	// epoch is the sender's iface fail epoch (link delivery) or the
	// node's crash epoch (drain continuation): a continuation that
	// outlives a crash/restart cycle dies instead of draining a fresh
	// ring.
	epoch uint64
	src   int32
	// slot indexes the event's payload in the queue's slab. noSlot marks
	// a node drain continuation — commit the pending packet side
	// effects, then pop the next packet — which is fully described by
	// (src, epoch) and owns no payload.
	slot int32
}

const noSlot int32 = -1

// before reports the deterministic execution order between events.
func (e *evKey) before(o *evKey) bool { return o.after(e.at, e.schedAt, e.src, e.k) }

// after reports whether o executes after the event keyed (at, schedAt,
// src, k).
func (o *evKey) after(at, schedAt int64, src int32, k uint64) bool {
	if at != o.at {
		return at < o.at
	}
	if schedAt != o.schedAt {
		return schedAt < o.schedAt
	}
	if src != o.src {
		return src < o.src
	}
	return k < o.k
}

// earlier returns whichever of the indices a and b of g names the
// earlier event. Which sibling is smaller is a coin flip no branch
// predictor can learn, so the common case — timestamps differ — must
// compile to a conditional move. The compiler emits one only while this
// stays a function of its own: inlined into down's loop the selected
// index feeds a load address, where it keeps the branch.
//
//go:noinline
func earlier(g []evKey, a, b int) int {
	x, y := g[a].at, g[b].at
	if x == y {
		if g[b].before(&g[a]) {
			return b
		}
		return a
	}
	if y < x {
		a = b
	}
	return a
}

// evPayload is what an event carries besides its key: a link delivery
// (peer != nil: hand the packet buf[head:] to the receiving link end)
// or a general closure (driver schedules, timers, NF callbacks). Both
// packet-path kinds — deliveries and drain continuations — are pure
// data, so the steady-state schedule/execute cycle allocates nothing.
type evPayload struct {
	fn   func()
	peer *Iface // receiving link end
	buf  []byte // the packet's allocation
	head int32  // where in buf the packet starts
	born bool   // buf came from a shard's free list (see shard.getBuf)
}

// eventQueue is a shard's pending-event set: an implicit 4-ary min-heap
// of keys over a slab of payloads that never move.
//
// A sift level costs one 40-byte move into the hole left by the
// previous level (the displaced element is written once, at its final
// position) instead of a three-copy swap of a pointer-bearing struct.
// Four children per node halve the depth of a binary heap; a pop then
// compares more keys per level, but siblings are contiguous — at most
// three cache lines — while every level saved is a dependent cache
// miss. Payload slots are recycled LIFO through free, so a steady-state
// pop+push reuses the slot that is hottest in cache.
type eventQueue struct {
	keys []evKey
	slab []evPayload
	free []int32
}

func (q *eventQueue) len() int { return len(q.keys) }

// min returns the next event's key; the queue must be non-empty.
func (q *eventQueue) min() *evKey { return &q.keys[0] }

// minAt returns the next event's timestamp; the queue must be
// non-empty.
func (q *eventQueue) minAt() int64 { return q.keys[0].at }

// pushFn schedules a closure event.
func (q *eventQueue) pushFn(at, schedAt int64, src int32, k uint64, fn func()) {
	slot := q.alloc()
	q.slab[slot].fn = fn
	q.insert(at, schedAt, src, k, 0, slot)
}

// pushDrainCont schedules node src's drain continuation.
func (q *eventQueue) pushDrainCont(at, schedAt int64, src int32, k, epoch uint64) {
	q.insert(at, schedAt, src, k, epoch, noSlot)
}

// pushDeliver schedules the delivery of buf[head:] to its receiving
// link end peer, in the queue of the shard that owns that end. A
// failure between transmission and delivery cuts the wire under the
// packet: both ends' fail epochs advance at the same virtual instants,
// so at execution the receiving end's epoch is compared against epoch,
// the sender's at transmission, keeping the event inside its own
// shard's state.
func (q *eventQueue) pushDeliver(at, schedAt int64, src int32, k, epoch uint64, peer *Iface, buf []byte, head int32, born bool) {
	slot := q.alloc()
	p := &q.slab[slot]
	p.peer, p.buf, p.head, p.born = peer, buf, head, born
	q.insert(at, schedAt, src, k, epoch, slot)
}

// pushMsg is pushDeliver for a delivery that crossed shards as m.
func (q *eventQueue) pushMsg(m *xmsg) {
	q.pushDeliver(m.at, m.schedAt, m.src, m.k, m.epoch, m.peer, m.buf, m.head, m.born)
}

// pushFrom moves a copy of event e of queue o, payload included, into
// q (re-sharding).
func (q *eventQueue) pushFrom(o *eventQueue, e *evKey) {
	slot := noSlot
	if e.slot != noSlot {
		slot = q.alloc()
		q.slab[slot] = o.slab[e.slot]
	}
	q.insert(e.at, e.schedAt, e.src, e.k, e.epoch, slot)
}

func (q *eventQueue) alloc() int32 {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		return slot
	}
	q.slab = append(q.slab, evPayload{})
	return int32(len(q.slab) - 1)
}

// takeFn returns the closure in slot and recycles the slot. Payloads
// are released before dispatch: the callback may push (reusing the
// slot) or grow the slab under a held pointer.
func (q *eventQueue) takeFn(slot int32) func() {
	p := &q.slab[slot]
	fn := p.fn
	p.fn = nil
	q.free = append(q.free, slot)
	return fn
}

// takeDeliver returns the delivery in slot and recycles the slot.
func (q *eventQueue) takeDeliver(slot int32) (peer *Iface, buf []byte, head int32, born bool) {
	p := &q.slab[slot]
	peer, buf, head, born = p.peer, p.buf, p.head, p.born
	p.peer, p.buf = nil, nil
	q.free = append(q.free, slot)
	return
}

// insert takes the key as scalars and writes it field by field into
// its final position: a key handed over as a struct is spilled to the
// stack in 8-byte stores and copied out in 16-byte loads, which defeats
// store forwarding on every push.
func (q *eventQueue) insert(at, schedAt int64, src int32, k, epoch uint64, slot int32) {
	q.keys = append(q.keys, evKey{})
	e := &q.keys[up(q.keys, len(q.keys)-1, at, schedAt, src, k)]
	e.at, e.schedAt, e.k, e.epoch, e.src, e.slot = at, schedAt, k, epoch, src, slot
}

// pop removes and returns the minimum key; the queue must be
// non-empty. The payload, if any, stays in the slab until taken.
func (q *eventQueue) pop() evKey {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.keys[down(q.keys, 0, &last)] = last
	}
	return top
}

// up moves the hole at index i towards the root until the event keyed
// (at, schedAt, src, k) may be placed in it, and returns the hole's
// final index.
func up(keys []evKey, i int, at, schedAt int64, src int32, k uint64) int {
	for i > 0 {
		parent := (i - 1) / 4
		if !keys[parent].after(at, schedAt, src, k) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	return i
}

// down moves the hole at index i towards the leaves until e may be
// placed in it, and returns the hole's final index.
func down(keys []evKey, i int, e *evKey) int {
	n := len(keys)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			// Full sibling group: a two-round tournament, whose first
			// round is two independent comparisons.
			g := keys[c : c+4 : c+4]
			m = c + earlier(g, earlier(g, 0, 1), earlier(g, 2, 3))
		} else {
			for j := c + 1; j < n; j++ {
				if keys[j].before(&keys[m]) {
					m = j
				}
			}
		}
		if !keys[m].before(e) {
			break
		}
		keys[i] = keys[m]
		i = m
	}
	return i
}
