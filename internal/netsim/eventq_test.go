package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// oracleEv is the sort-based oracle's view of one queued event: the
// key plus a payload identity (id) the queue must hand back intact.
type oracleEv struct {
	key  evKey // slot unused
	kind int   // 0 closure, 1 drain continuation, 2 delivery
	id   uint64
}

// queueOracle is a queue and its oracle advanced in lockstep.
type queueOracle struct {
	q      eventQueue
	events []oracleEv
}

// check verifies the structural invariants: every slab slot is either
// referenced by exactly one key or zeroed on the free list.
func (o *queueOracle) check(t *testing.T) {
	t.Helper()
	q := &o.q
	if q.len() != len(o.events) {
		t.Fatalf("queue holds %d events, oracle %d", q.len(), len(o.events))
	}
	used := make([]bool, len(q.slab))
	live := 0
	for i := range q.keys {
		if i > 0 && q.keys[i].before(&q.keys[(i-1)/4]) {
			t.Fatalf("heap property violated at index %d", i)
		}
		slot := q.keys[i].slot
		if slot == noSlot {
			continue
		}
		if used[slot] {
			t.Fatalf("slot %d referenced twice", slot)
		}
		used[slot] = true
		live++
	}
	for _, slot := range q.free {
		if used[slot] {
			t.Fatalf("slot %d both live and free", slot)
		}
		used[slot] = true
		if p := &q.slab[slot]; p.fn != nil || p.peer != nil || p.buf != nil {
			t.Fatalf("free slot %d still holds references", slot)
		}
	}
	if live+len(q.free) != len(q.slab) {
		t.Fatalf("slab leak: %d live + %d free != %d slots", live, len(q.free), len(q.slab))
	}
}

// TestEventQueueDifferential drives the queue and a sort-based oracle
// through interleaved pushes and pops. Timestamps, schedule times and
// sources are drawn from tiny ranges and k at random, so every key
// field decides order somewhere.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := &queueOracle{}
		peer := &Iface{Name: "rx"}
		usedK := map[uint64]bool{}
		var nextID, got uint64
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(100); {
			case op < 55: // push
				k := uint64(rng.Intn(1 << 20))
				for usedK[k] {
					k = uint64(rng.Intn(1 << 20))
				}
				usedK[k] = true
				nextID++
				ev := oracleEv{id: nextID, kind: rng.Intn(3)}
				ev.key = evKey{at: int64(rng.Intn(4)), schedAt: int64(rng.Intn(3)), src: int32(rng.Intn(4)) - 1, k: k}
				switch ev.kind {
				case 0:
					id := ev.id
					live.q.pushFn(ev.key.at, ev.key.schedAt, ev.key.src, k, func() { got = id })
				case 1:
					ev.key.epoch = ev.id
					live.q.pushDrainCont(ev.key.at, ev.key.schedAt, ev.key.src, k, ev.id)
				case 2:
					ev.key.epoch = uint64(rng.Intn(3))
					head := int32(ev.id % 4)
					m := xmsg{at: ev.key.at, schedAt: ev.key.schedAt, src: ev.key.src, head: head, k: k,
						peer: peer, epoch: ev.key.epoch, buf: binary.BigEndian.AppendUint64(make([]byte, head), ev.id)}
					live.q.pushMsg(&m)
				}
				live.events = append(live.events, ev)
			default: // pop
				if live.q.len() == 0 {
					continue
				}
				sort.Slice(live.events, func(i, j int) bool { return live.events[i].key.before(&live.events[j].key) })
				want := live.events[0]
				live.events = live.events[1:]
				if at := live.q.minAt(); at != want.key.at {
					t.Fatalf("seed %d step %d: minAt %d, oracle %d", seed, step, at, want.key.at)
				}
				e := live.q.pop()
				if want.key.slot = e.slot; e != want.key {
					t.Fatalf("seed %d step %d: popped %+v, oracle %+v", seed, step, e, want.key)
				}
				switch {
				case e.slot == noSlot:
					if want.kind != 1 {
						t.Fatalf("seed %d step %d: kind-%d event popped without a payload", seed, step, want.kind)
					}
				case live.q.slab[e.slot].peer == nil:
					live.q.takeFn(e.slot)()
					if want.kind != 0 || got != want.id {
						t.Fatalf("seed %d step %d: closure id %d, oracle kind %d id %d", seed, step, got, want.kind, want.id)
					}
				default:
					p, buf, head, _ := live.q.takeDeliver(e.slot)
					if want.kind != 2 || p != peer || head != int32(want.id%4) || binary.BigEndian.Uint64(buf[head:]) != want.id {
						t.Fatalf("seed %d step %d: delivery payload does not match oracle %+v", seed, step, want)
					}
				}
			}
			if step%64 == 0 {
				live.check(t)
			}
		}
		live.check(t)
	}
}

// holdQueue fills a queue to the given depth with the packet path's
// event mix — one drain continuation (the commit) per link delivery —
// and returns a hold step: pop the minimum, release its payload, push a
// successor of the same kind a pseudo-random increment later.
func holdQueue(depth int) (q *eventQueue, hold func() int64) {
	q = &eventQueue{}
	rng := rand.New(rand.NewSource(1))
	var incr [1024]int64
	for i := range incr {
		incr[i] = 1 + rng.Int63n(2000)
	}
	peer := &Iface{Name: "rx"}
	raw := make([]byte, 64)
	var k uint64
	push := func(at, now int64, deliver bool) {
		k++
		if deliver {
			q.pushDeliver(at, now, int32(k&127), k, 0, peer, raw, 0, false)
		} else {
			q.pushDrainCont(at, now, int32(k&127), k, 0)
		}
	}
	for i := 0; i < depth; i++ {
		push(incr[i&1023], 0, i%2 == 0)
	}
	return q, func() int64 {
		e := q.pop()
		deliver := e.slot != noSlot
		if deliver {
			q.takeDeliver(e.slot)
		}
		push(e.at+incr[k&1023], e.at, deliver)
		return e.at
	}
}

// TestEventQueueHoldZeroAlloc: once the queue has reached its working
// depth, the pop + push cycle allocates nothing — not at the 3-node
// lab's depth nor at a fat-tree's.
func TestEventQueueHoldZeroAlloc(t *testing.T) {
	for _, depth := range []int{8, 512} {
		_, hold := holdQueue(depth)
		for i := 0; i < 4*depth; i++ {
			hold() // settle slab and free-list capacity
		}
		if n := testing.AllocsPerRun(2000, func() { hold() }); n != 0 {
			t.Errorf("depth %d: %v allocs per pop+push, want 0", depth, n)
		}
	}
}

var holdSink int64

// BenchmarkEventQueueHold is the classic hold model on the event queue
// alone: ns/op is one pop plus one push at a fixed queue depth.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, depth := range []int{8, 64, 512, 4096} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			_, hold := holdQueue(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				holdSink = hold()
			}
		})
	}
}
