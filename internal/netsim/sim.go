// Package netsim is the discrete-event network simulator that stands
// in for the paper's physical lab (three Xeon servers with 10 Gbps
// NICs, a Turris Omnia CPE, and tc-netem-shaped links; Figure 1 of
// the paper).
//
// Everything runs in virtual time: links serialise and delay packets
// through netem qdiscs, and each node charges per-packet CPU time
// from a calibrated cost model, reproducing the receive-limited
// behaviour the paper measures (a single core pinned to the NIC
// interrupt, 610 kpps of raw IPv6 forwarding). Determinism is total:
// the same seed yields the same packet-by-packet schedule.
//
// # Events per hop
//
// A packet crossing a node costs two events, both on the node's shard:
//
//	t            link delivery   ring push; if the CPU is idle, pop and
//	                             route the packet now (service starts)
//	t + cost     commit          transmit / deliver locally, then pop and
//	                             route the next ring entry, if any
//
// A packet that arrives while the CPU is busy waits in the ring and is
// started by the commit of the packet ahead of it, so it costs the same
// two. There is no separate "start the CPU" event: an idle start runs
// inside the delivery, ahead of anything else the node has queued for
// that nanosecond, and still takes the schedule-counter value such an
// event would have, so every key scheduled afterwards is unchanged (see
// Node.deliver). Traffic sources add one event per packet they emit; a
// TCP sender adds one timer event per RTO, not per ACK.
//
// # Packet path
//
// What a node does with a packet is Node.process over one hop value:
//
//	ingress   name the first route: the arrival interface's SR-proxy
//	          return leg or bound table, else the main table (lookup)
//	act       apply a route — deliver locally, forward, seg6Local,
//	          seg6Encap, lwtBPF — and either leave the verdict or name
//	          the next route (lookup again, in some table); at most
//	          maxRouteDepth times after the first
//	commit    once the charged cost has elapsed, runCommit applies the
//	          verdict: transmit, deliver locally, or run a closure
//
// The hop is the only thing the stages share. h.raw is written where
// the packet is replaced: seg6Local (the behaviour's output), seg6Encap,
// lwtBPF (the program's) and forward's backup encapsulation. h.cost is
// added to by the stage that did the work (drain seeds it with the base
// packet cost), never set. The verdict is written once, by transmits,
// icmp, or the local-delivery arms of act and seg6Local; a hop that
// ends without one went through drop, which is the only place a drop
// is counted and the only writer of a "drop" span verdict.
//
// The stages read header fields at their fixed offsets in h.raw: the
// FIB key is built from the destination's bytes, forward reads the
// version, hop limit and flow label where they lie, and the ECMP hash
// reads an IPv6 packet's addresses in place, only when the choice needs
// them. netip.Addr appears only at the API edges — Table.Lookup,
// Route.SelectNexthop and SelectPath, the handlers' parsed view — each a
// thin door onto the same body the packet path uses. drain and output
// start a hop by zeroing it in place and assigning the fields the packet
// brings; a hop is never assigned from a composite literal, which would
// be built on the stack and copied in.
//
// Configuration is checked where a route enters a table, never on the
// way: Table.Add — under AddRoute, AddAddress and every numbered table —
// and BindProxyReturn refuse a route of unknown kind, a behaviour the
// seg6 registry rejects, a program attachment of the wrong hook, a
// segment list that cannot be pushed, and any interface (nexthop,
// backup nexthop, OIF) of another node. The stages therefore assert
// what was checked instead of testing it, and every drop reason is
// something a packet or a program's return value caused.
//
// # Packet buffers
//
// A packet is a []byte with one owner at a time: whoever holds it may
// rewrite it in place (hop limit, SRH advance, decapsulation by moving
// the start), and handing it to Node.Output or Iface.Transmit gives it
// up. What travels between nodes — event payload, cross-shard message,
// receive ring — is the packet's allocation plus the offset the packet
// starts at, and PacketMeta.Buf shows that allocation to the hop. A
// packet built with spare bytes in front (packet.BuildPacketIn into
// Node.PacketBuf, sent with Node.OutputBuf; tcpsim does) is the tail of
// its allocation, and a tunnel ingress writes its outer headers
// into those bytes instead of copying the packet — after checking, by
// pointer identity (packet.Headroom), that the packet still is that
// tail. The only bytes ever written outside a packet are the ones
// directly in front of it in its own allocation; a packet reallocated on
// the way has no headroom and is copied as before, and a duplicate or a
// corrupted copy made by the link owns fresh bytes.
//
// An allocation is made once and carries packet after packet. Each shard
// keeps a free list of dead packets' allocations, by capacity, most
// recently released first:
//
//   - Who may get. Whoever is about to send from a node takes the bytes
//     from Node.PacketBuf, writes all of them it will send (the content
//     is the last packet's), and sends with Node.OutputBuf: the traffic
//     generators, tcpsim, End.BPF's SRH growth. Output and
//     Iface.Transmit keep their meaning for a buffer the caller made:
//     it is never put in a list, whoever releases the packet, so a caller
//     may keep it, read it after the run or send it again.
//   - What the bit proves. "Born in a list" is one bit next to the
//     allocation wherever that travels (event payload, cross-shard
//     message, receive ring, PacketMeta): the allocation is this
//     packet's alone, and whoever ends the packet may list it. To travel
//     on it needs the proof above — Iface.transmit checks that the
//     packet it sends is, by pointer identity, still the tail of that
//     allocation — so a packet reallocated on the way (an SRH insertion,
//     an encapsulation without headroom), a corrupted copy and a
//     duplicate are not list-born, and what they left behind is the
//     garbage collector's.
//   - Who may release. The one who ends the packet, once: the node
//     itself where it drops a packet it alone holds (receive ring full,
//     link down or its queue full), and a local handler through
//     Node.Release(meta) when it has read what it needs — trafgen.Sink
//     and tcpsim do. Release spends the claim, so a second one, or one
//     after the hop has moved to another packet, frees nothing. A
//     handler that does not release keeps the right to hold p.Raw; one
//     that does, and an Iface.Tap anywhere on the path, must copy what it
//     keeps, because the bytes will be the next packet's.
//   - How much is kept. A shard holds at most as many dead buffers of a
//     capacity as it has itself allocated in that capacity, and none
//     above 2 KiB: a shard that only receives holds nothing, one on its
//     own never more than its peak in flight. There is nothing to set
//     up and nothing to tune; Sim.EngineStats reports gets and reuses.
//
// Model time cannot see any of it: a buffer's address and history are
// not inputs to anything the model computes.
//
// # Sharded parallel execution
//
// By default the simulation runs on one event queue on the calling
// goroutine, exactly as it always has. Sim.SetShards(n) partitions
// the nodes into n shards, each with its own event queue, clock and
// counters, lock-stepped in windows of
//
//	lookahead = min cross-shard link delay
//
// so no event ever executes out of order. Every cross-shard link must
// therefore carry a nonzero, jitter-free delay; partition.MinCut keeps
// zero-delay and jittered links inside one shard.
//
// Who executes what: Run and RunUntil's caller runs shard 0 and
// coordinates — it finds the next window, exchanges the cross-shard
// messages between windows and re-raises an event's panic — and each
// other shard has one worker goroutine, started when the call begins
// and gone when it returns, a panic included. The coordinator opens a
// window by bumping a generation counter; each worker closes its part
// by decrementing a count of workers still running, and the window is
// closed when that reaches zero. Whoever waits spins on the atomic for
// a while, then yields the processor between checks, so nobody sleeps
// and any GOMAXPROCS makes progress.
//
// Determinism survives sharding because event ordering does not
// depend on a global sequence counter: every event is keyed by
// (at, schedAt, src, k) — its execution time, the virtual time at
// which it was scheduled, the index of the node that scheduled it, and
// that node's private schedule counter. The key is computable locally
// by the scheduling shard yet totally ordered globally, so the
// parallel schedule is the sequential schedule: the same seed yields
// identical per-node counters and delivery traces for any shard count
// and placement (locked by TestShardEquivalence* and the fuzz target
// FuzzScenario).
package netsim

import "math"

// exec dispatches one event popped from sh's queue. The payload is
// read in place in the slab and its slot recycled before the callback
// runs.
func (s *Sim) exec(sh *shard, e *evKey) {
	if e.slot == noSlot {
		s.nodes[e.src].drainCont(e.epoch)
		return
	}
	if sh.q.slab[e.slot].peer == nil {
		sh.q.takeFn(e.slot)()
		return
	}
	peer, buf, head, born := sh.q.takeDeliver(e.slot)
	if peer.failEpoch != e.epoch {
		peer.inFlightKills++
		return
	}
	peer.Node.deliver(buf, head, born, peer)
}

// Sim is the simulation kernel: a virtual clock, one event queue per
// shard (one shard unless SetShards is called) and a random seed.
// Everything stochastic (netem jitter, loss, BPF get_prandom) draws
// from per-node streams split from that seed, so draws are independent
// of shard count and node interleave.
type Sim struct {
	seed int64

	// shards always holds at least one shard; len(shards) == 1 is the
	// sequential mode every existing scenario runs in.
	shards    []*shard
	lookahead int64
	// cutLinks is the cross-shard link count of the current partition
	// (each unordered pair once), set by SetShardsPartitioned.
	cutLinks int

	// now is the committed global clock: in sequential mode it tracks
	// the executing event, in sharded mode the last barrier. Inside
	// events use Node.Now(), which is exact in both modes.
	now int64

	// simK numbers driver-level Schedule calls (src = -1).
	simK uint64

	// running is true while a window is open; guards against
	// driver-level mutations from inside parallel events.
	running bool

	// obs is the observability plane attached by EnableObs; nil (the
	// default) keeps every hook to a single pointer compare.
	obs *simObs

	nodes []*Node
}

// driverSrc keys events scheduled from outside any node (test
// drivers, experiment harnesses). They sort before node events with
// the same (at, schedAt).
const driverSrc int32 = -1

// New creates a simulation with the given random seed.
func New(seed int64) *Sim {
	s := &Sim{seed: seed}
	s.shards = []*shard{newShard(s, 0)}
	s.shards[0].out = make([][]xmsg, 1)
	s.lookahead = math.MaxInt64 / 2
	return s
}

// Seed returns the seed the simulation was created with.
func (s *Sim) Seed() int64 { return s.seed }

// SetBurst does nothing.
//
// Deprecated: the burst caches it used to switch on are gone (no
// traffic the benchmark sends ever hit them; the commit that deleted
// them has the counters). The method remains only because the frozen
// benchmark/workloads.go calls it, and goes when that directory is
// unfrozen.
func (s *Sim) SetBurst(int) {}

// Now returns the current virtual time in nanoseconds. In sharded
// mode this is the last committed barrier; code running inside an
// event should use Node.Now() for the executing shard's exact clock.
func (s *Sim) Now() int64 {
	if len(s.shards) == 1 {
		return s.shards[0].now
	}
	return s.now
}

// Schedule runs fn at absolute virtual time at (clamped to now).
//
// Calls from driver code (between Run/RunUntil calls) land on shard
// 0; from inside an event of a sequential run they land on the only
// shard. In a sharded run, events must be scheduled through the node
// that owns the state they touch — Node.Schedule / Node.After — so
// the engine can route them to the owning shard; a raw Sim.Schedule
// from inside a parallel window panics.
func (s *Sim) Schedule(at int64, fn func()) {
	if s.running {
		panic("netsim: Sim.Schedule from inside a sharded run; use Node.Schedule/Node.After")
	}
	sh := s.shards[0]
	now := s.Now()
	if at < now {
		at = now
	}
	s.simK++
	sh.q.pushFn(at, now, driverSrc, s.simK, fn)
}

// After runs fn d nanoseconds from now.
func (s *Sim) After(d int64, fn func()) { s.Schedule(s.Now()+d, fn) }

// Step executes the next event in deterministic order; it reports
// false when none remain. In sharded mode Step runs the engine
// sequentially (one event at a time; a cross-shard delivery goes
// straight into its destination queue, see sendCross);
// Run and RunUntil are the parallel paths.
func (s *Sim) Step() bool {
	if len(s.shards) == 1 {
		sh := s.shards[0]
		if sh.q.len() == 0 {
			return false
		}
		e := sh.q.pop()
		sh.now = e.at
		sh.events++
		s.exec(sh, &e)
		return true
	}
	best := -1
	for i, sh := range s.shards {
		if sh.q.len() == 0 {
			continue
		}
		if best < 0 || sh.q.min().before(s.shards[best].q.min()) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	sh := s.shards[best]
	e := sh.q.pop()
	sh.now = e.at
	sh.events++
	s.exec(sh, &e)
	if e.at > s.now {
		s.now = e.at
	}
	return true
}

// Run executes events until every queue drains.
func (s *Sim) Run() {
	if len(s.shards) == 1 {
		for s.Step() {
		}
		return
	}
	s.runWindows(math.MaxInt64)
	s.syncClocks(s.maxShardNow())
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.
func (s *Sim) RunUntil(t int64) {
	if len(s.shards) == 1 {
		sh := s.shards[0]
		for sh.q.len() > 0 && sh.q.minAt() <= t {
			s.Step()
		}
		if sh.now < t {
			sh.now = t
		}
		return
	}
	s.runWindows(t)
	s.syncClocks(t)
}

// Nodes returns all nodes added to the simulation.
func (s *Sim) Nodes() []*Node { return s.nodes }

// FailLink schedules a link failure at absolute virtual time at: both
// ends of i's link go down and packets on the wire are lost (see
// Iface.Fail). Each end flips in its own shard, at the same virtual
// instant, so the call is safe for links that cross shards.
func (s *Sim) FailLink(at int64, i *Iface) { s.scheduleLinkState(at, i, false) }

// RestoreLink schedules the link coming back up at absolute virtual
// time at.
func (s *Sim) RestoreLink(at int64, i *Iface) { s.scheduleLinkState(at, i, true) }

// scheduleLinkState schedules one flip event per link end, each on
// the shard owning that end. The invoked end is scheduled first, so
// its OnStateChange fires first when both ends share a shard —
// preserving the sequential callback order.
func (s *Sim) scheduleLinkState(at int64, i *Iface, up bool) {
	if s.running {
		panic("netsim: FailLink/RestoreLink from inside a sharded run")
	}
	now := s.Now()
	if at < now {
		at = now
	}
	for _, end := range [2]*Iface{i, i.peer} {
		if end == nil {
			continue
		}
		end := end
		s.simK++
		end.Node.shard.q.pushFn(at, now, driverSrc, s.simK, func() { end.setOneEnd(up) })
	}
}

// CrashNode schedules a node crash at absolute virtual time at: the
// node's CPU halts, its receive ring is lost, every attached link
// goes down (both ends, packets on the wire included) and the NF
// state registered through Node.OnCrash is reset — counters survive.
// Like FailLink, each affected link end flips in its own shard at the
// same virtual instant, so the call is safe at any shard count.
func (s *Sim) CrashNode(at int64, n *Node) { s.scheduleNodeState(at, n, false) }

// RestartNode schedules a crashed node coming back at absolute
// virtual time at: links re-establish and the node resumes with an
// empty receive ring and freshly-reset NF state.
func (s *Sim) RestartNode(at int64, n *Node) { s.scheduleNodeState(at, n, true) }

// scheduleNodeState schedules the crash/restart event on the node's
// shard plus one link-state flip per peer end on the shard owning it.
// The node's own ends flip inside crashNow/restartNow, so their
// OnStateChange callbacks observe the node's post-transition state.
func (s *Sim) scheduleNodeState(at int64, n *Node, up bool) {
	if s.running {
		panic("netsim: CrashNode/RestartNode from inside a sharded run")
	}
	now := s.Now()
	if at < now {
		at = now
	}
	s.simK++
	n.shard.q.pushFn(at, now, driverSrc, s.simK, func() {
		if up {
			n.restartNow()
		} else {
			n.crashNow()
		}
	})
	for _, ifc := range n.ifaces {
		peer := ifc.peer
		if peer == nil {
			continue
		}
		s.simK++
		peer.Node.shard.q.pushFn(at, now, driverSrc, s.simK, func() { peer.setOneEnd(up) })
	}
}

// Millisecond and friends make topology code readable.
const (
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)
