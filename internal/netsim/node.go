package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"

	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// PacketMeta travels with a packet through one node.
type PacketMeta struct {
	// RxTimestamp is when the packet arrived at the node (the "RX
	// software timestamp" End.DM reads, §4.1).
	RxTimestamp int64
	// InIface is the receiving interface (nil for local output).
	InIface *Iface
	// Local marks locally-originated packets, which are exempt from
	// hop-limit decrement.
	Local bool
	// Buf is the allocation the packet arrived in (nil when the sender
	// kept it to itself). While the packet is still that allocation's
	// tail, the bytes in front of it are this hop's to use: a tunnel
	// ingress pushes its outer headers there instead of copying the
	// packet. It is a claim, not a promise — every user checks it with
	// packet.Headroom first, so a packet reallocated since (or a zero
	// PacketMeta) simply has no headroom.
	Buf []byte
	// born says Buf came from the shard's free list (Node.PacketBuf) and
	// may return to it when the packet dies; Release spends it.
	born bool
}

// Seg6LocalProgram is implemented by internal/core's End.BPF
// attachment. It runs the program against raw and reports the
// resulting seg6 verdict plus the virtual CPU cost of the BPF
// execution.
//
// A program that returns the packet rebuilt in a buffer it took from
// n.PacketBuf says so by storing that buffer in meta.Buf, and only when
// it returns no error: the node then releases the allocation the packet
// came in and carries the new one as the hop's. Until it returns, the
// bytes of raw's allocation stay what the program left in raw.
type Seg6LocalProgram interface {
	RunSeg6Local(n *Node, raw []byte, meta *PacketMeta) (seg6.Result, int64, error)
}

// LWTVerdict is the outcome of a transit (BPF LWT) program.
type LWTVerdict int

// LWT program verdicts (subset of BPF_OK/BPF_DROP relevant to the
// lwt_out hook; redirect semantics only exist for seg6local).
const (
	LWTOK LWTVerdict = iota
	LWTDrop
)

// LWTProgram is implemented by internal/core's LWT BPF attachment
// (the transit hook used for encapsulation, §2.1/§4.1/§4.2). It may
// return a rewritten packet.
type LWTProgram interface {
	RunLWTOut(n *Node, raw []byte, meta *PacketMeta) ([]byte, LWTVerdict, int64, error)
}

// UDPHandler receives locally-delivered UDP packets. p and the bytes it
// shows are the handler's for the duration of the call. A handler that
// has read what it needs may end the packet with n.Release(meta), after
// which it must not touch p again; one that does not may keep p.Raw, and
// one that keeps part of a packet it releases must copy that part.
type UDPHandler func(n *Node, p *packet.Packet, meta *PacketMeta)

// commitOp selects the deferred effect of a processed packet. The
// stages leave it in the hop instead of returning a closure: the hop
// lives in a node field, so the steady-state packet path allocates
// nothing.
type commitOp uint8

const (
	commitNone commitOp = iota
	// commitTransmit sends raw out of iface, decrementing the hop
	// limit first for transit packets.
	commitTransmit
	// commitLocal delivers raw to the node's local transport layer.
	commitLocal
	// commitFn runs fn (cold paths: ICMP error generation).
	commitFn
)

// hop is one packet's visit to the node, the one value every stage of
// process takes: the packet as it currently stands, its metadata, the
// model cost charged so far and, once a stage has decided, the verdict
// to apply when that cost has elapsed. Node.pending carries it from a
// drain event to the drain continuation; Node.outPending is the
// intra-event twin for the Output path (routed and committed inside
// one event).
type hop struct {
	raw  []byte
	meta PacketMeta
	cost int64

	// The verdict: op and what it needs. hopLimit is the value the
	// packet arrived with, recorded only when decHop asks the commit to
	// write back one less.
	op       commitOp
	decHop   bool
	hopLimit uint8
	iface    *Iface
	fn       func()
}

// rxItem is one packet waiting in the receive ring: buf[head:], as it
// came off the link (see evPayload), and what PacketMeta will say about
// its arrival. The ring is most of an overloaded node's live heap, so
// the item holds the allocation in place of the packet and a small
// offset, not two slices.
type rxItem struct {
	buf         []byte
	rxTimestamp int64
	inIface     *Iface
	head        int32
	born        bool // buf came from a shard's free list
}

// stat names one of the counters the packet path itself bumps: why it
// dropped a packet, or how it delivered one. They are cells of a fixed
// array on the node, so counting is an indexed increment; Counters()
// shows them under statNames next to the free-form Count() names.
type stat uint8

const (
	statRxRingFull stat = iota
	statMalformed
	statNoRoute
	statRouteLoop
	statHopLimit
	statNoNexthop
	statSeg6Local
	statSeg6LocalError
	statLWTBPF
	statLWTBPFError
	statMalformedLocal
	statLinkDown
	statBackupTx
	statUDPDelivered
	statTCPDelivered
	statICMPDelivered
	// The stats from here on are rarer: Counters() shows them once they
	// have counted, the ones above from the start (the fingerprints hash
	// zero-valued keys). No stat counts a configuration error: Table.Add
	// refuses those.
	statBadVerdict
	statEncapError
	statBackupEncapError
	statL2NoHandler
	numStats
)

var statNames = [numStats]string{
	statRxRingFull:       "rx_ring_full",
	statMalformed:        "drop_malformed",
	statNoRoute:          "drop_no_route",
	statRouteLoop:        "drop_route_loop",
	statHopLimit:         "drop_hop_limit",
	statNoNexthop:        "drop_no_nexthop",
	statSeg6Local:        "drop_seg6local",
	statSeg6LocalError:   "drop_seg6local_error",
	statLWTBPF:           "drop_lwt_bpf",
	statLWTBPFError:      "drop_lwt_bpf_error",
	statMalformedLocal:   "drop_malformed_local",
	statLinkDown:         "drop_link_down",
	statBackupTx:         "backup_tx",
	statUDPDelivered:     "udp_delivered",
	statTCPDelivered:     "tcp_delivered",
	statICMPDelivered:    "icmp_delivered",
	statBadVerdict:       "drop_bad_verdict",
	statEncapError:       "drop_encap_error",
	statBackupEncapError: "drop_backup_encap_error",
	statL2NoHandler:      "l2_no_handler",
}

// maxRouteDepth bounds how many routes one hop may apply after the
// first (behaviour chains, encapsulation re-lookups).
const maxRouteDepth = 6

// Node is a simulated host or router: interfaces, routing tables, a
// single-core CPU with a receive ring, and a local transport layer.
type Node struct {
	Name string
	Sim  *Sim
	Cost CostModel

	// idx is the node's global creation index: the src half of every
	// event key this node schedules.
	idx int32
	// shard owns this node's events; in an unsharded sim it is the
	// sim's only shard.
	shard *shard
	// rng is the node's private random stream, derived from the sim
	// seed and the node name: draws are independent of other nodes'
	// activity, so ECMP tie-breaking and netem jitter stay
	// deterministic under any shard count. It draws from rngSrc, a
	// single-word splitmix64 source.
	rng    *rand.Rand
	rngSrc randSource
	// schedK numbers this node's Schedule calls (the k half of the
	// event key).
	schedK uint64

	ifaces []*Iface
	tables map[int]*Table
	// mainTbl hoists tables[MainTable] out of the per-packet map
	// access. AddNode creates the table and nothing replaces it
	// (Table() only ever inserts), so the pointer stays valid for the
	// node's lifetime.
	mainTbl *Table
	local   map[netip.Addr]bool
	// primary is the address used as source for generated ICMP.
	primary netip.Addr

	udpHandlers map[uint16]UDPHandler
	tcpHandler  func(n *Node, p *packet.Packet, meta *PacketMeta)
	icmpHandler func(n *Node, p *packet.Packet, meta *PacketMeta)
	// l2Handler receives Ethernet frames decapsulated by End.DX2.
	l2Handler func(n *Node, frame []byte, meta *PacketMeta)

	// ifaceInputs binds an interface to the return leg of an SR proxy
	// (End.AS / End.AM): packets arriving on it are handed a pseudo-route
	// that runs the behaviour's Inbound step, in place of a FIB lookup.
	// ifaceTables binds an interface to a routing table (VRF-style
	// per-tenant lookup for the End.DT* scenarios). Both are
	// configuration, like udpHandlers: set at topology-build time.
	ifaceInputs map[*Iface]*Route
	ifaceTables map[*Iface]int

	// rxq is a ring buffer: rxCount items starting at rxHead. It
	// grows geometrically up to Cost.RxRingPackets, so draining one
	// packet is two index updates, not a slice reallocation.
	rxq     []rxItem
	rxHead  int
	rxCount int
	busy    bool

	// counters holds the free-form counters of Count().
	counters map[string]*uint64

	// crashed marks the node as down: the CPU halts, the receive ring
	// is lost and all local link ends are failed until restart.
	// crashEpoch counts crashes; CPU continuations capture it when
	// scheduled and become no-ops if a crash intervened, so work from a
	// previous incarnation never leaks past a restart.
	crashed    bool
	crashEpoch uint64

	// pending is the packet the drain chain is processing: routed when
	// service starts, its verdict applied by the drain continuation at
	// processing-completion time. outPending is the same storage for the
	// Output path, which routes and commits inside one event.
	pending    hop
	outPending hop

	// stats are the packet path's own counters; Counters() shows them
	// next to the free-form ones. The array sits behind pending so that
	// the hop in service spans two cache lines, not three.
	stats [numStats]uint64

	// scratchPkt/scratchSRH back deliverLocal's allocation-free parse.
	// The *packet.Packet handed to local handlers aliases them and is
	// valid only for the duration of the handler call.
	scratchPkt packet.Packet
	scratchSRH packet.SRH

	// crashHooks reset NF state held in this node's memory when the
	// node crashes (see OnCrash).
	crashHooks []func()

	// obs points at the sim's observability plane; nil keeps the hot
	// path to a single pointer compare per hop. traceBuf is this
	// node's flight-recorder journal (nil unless the recorder is on);
	// spanIdx indexes the span of the hop currently being processed,
	// -1 between hops and for unsampled packets — the span hooks
	// (obsRoute and friends) test it, making them free when recording
	// is off.
	obs      *simObs
	traceBuf *obs.TraceBuf
	spanIdx  int

	// Trace, when set, receives a line per interesting event.
	Trace func(format string, args ...any)
}

// AddNode creates a node in s with the given cost model. Add every
// node before calling Sim.SetShards: the shard partition is computed
// over the node set.
func (s *Sim) AddNode(name string, cost CostModel) *Node {
	if len(s.shards) > 1 {
		panic("netsim: AddNode after SetShards; build the topology first")
	}
	main := &Table{}
	n := &Node{
		Name:        name,
		Sim:         s,
		Cost:        cost,
		idx:         int32(len(s.nodes)),
		shard:       s.shards[0],
		rngSrc:      randSource{state: uint64(nodeSeed(s.seed, name))},
		tables:      map[int]*Table{MainTable: main},
		mainTbl:     main,
		local:       make(map[netip.Addr]bool),
		udpHandlers: make(map[uint16]UDPHandler),
		counters:    make(map[string]*uint64),
		spanIdx:     -1,
	}
	n.rng = rand.New(&n.rngSrc)
	main.node = n
	if s.obs != nil {
		s.obs.attachNode(n)
	}
	s.nodes = append(s.nodes, n)
	return n
}

// nodeSeed splits a per-node stream from the sim seed: FNV-1a over
// the node name, folded into the seed. Depends only on (seed, name),
// never on creation interleaving or shard layout.
func nodeSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Now returns the virtual time of this node's shard — exact inside
// events in both sequential and sharded runs. Code executing on
// behalf of a node should prefer it over Sim.Now.
func (n *Node) Now() int64 { return n.shard.now }

// Rand returns the node's private random stream (netem jitter/loss on
// the node's egress links, BPF get_prandom on this node).
func (n *Node) Rand() *rand.Rand { return n.rng }

// OnCrash registers fn to run when the node crashes. NF components
// whose runtime state lives in the node's memory (daemons, detectors,
// caches) use it to come back empty after a restart; durable state
// (configuration, counters kept by the test harness) is the
// component's own concern. Hooks run on the node's shard, in
// registration order, after the node's links have gone down.
func (n *Node) OnCrash(fn func()) { n.crashHooks = append(n.crashHooks, fn) }

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed }

// crashNow takes the node down at the current virtual instant: the
// receive ring is flushed (counted as crash_rx_lost), the packet the
// CPU was working on is discarded (crash_cpu_lost), every local
// link end fails (in-flight packets towards the node die), and the
// OnCrash hooks reset registered NF state. Counters survive — they
// model the observer, not the node's RAM. Runs on the node's shard;
// peers' link ends flip in their own shards (see Sim.CrashNode).
// Crashing a crashed node is a no-op.
func (n *Node) crashNow() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.crashEpoch++
	n.Count("node_crash")
	if n.rxCount > 0 {
		*n.internCounter("crash_rx_lost") += uint64(n.rxCount)
		for n.rxCount > 0 {
			n.rxPop()
		}
	}
	n.busy = false
	// The packet in service dies with the box. A verdict that already
	// counted itself at routing time (a drop, an ICMP error to generate,
	// an L2 hand-off) is not lost a second time.
	if op := n.pending.op; op == commitTransmit || op == commitLocal {
		n.Count("crash_cpu_lost")
	}
	n.pending = hop{}
	for _, i := range n.ifaces {
		i.setOneEnd(false)
	}
	for _, fn := range n.crashHooks {
		fn()
	}
	if n.Trace != nil {
		n.Trace("%s: crashed", n.Name)
	}
}

// restartNow brings a crashed node back: local link ends come up and
// the (empty) CPU is ready to receive. Restarting a running node is a
// no-op.
func (n *Node) restartNow() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.Count("node_restart")
	for _, i := range n.ifaces {
		i.setOneEnd(true)
	}
	if n.Trace != nil {
		n.Trace("%s: restarted", n.Name)
	}
}

// Schedule runs fn at absolute virtual time at (clamped to now) on
// this node's shard. Use it — not Sim.Schedule — for any event that
// touches this node's state; in a sharded run that routing is what
// keeps the event on the owning shard's goroutine.
func (n *Node) Schedule(at int64, fn func()) {
	sh := n.shard
	if at < sh.now {
		at = sh.now
	}
	n.schedK++
	sh.q.pushFn(at, sh.now, n.idx, n.schedK, fn)
}

// After runs fn d nanoseconds from the node's now on its shard.
func (n *Node) After(d int64, fn func()) { n.Schedule(n.shard.now+d, fn) }

// internCounter returns (creating if needed) the cell for name.
func (n *Node) internCounter(name string) *uint64 {
	c := n.counters[name]
	if c == nil {
		c = new(uint64)
		n.counters[name] = c
	}
	return c
}

// Count bumps a free-form named counter: for cold paths and for the
// packages built on the node (core, tcpsim). The names in statNames are
// the packet path's own and are not to be counted through here.
func (n *Node) Count(what string) {
	*n.internCounter(what)++
}

// Counters returns the read-side view of all counters: free-form
// event accounting ("drop_no_route", "rx_ring_full", ...). Read it in
// tests and reports; the snapshot is freshly built per call. Polling
// loops should reuse a map through CountersInto instead.
func (n *Node) Counters() map[string]uint64 {
	out := make(map[string]uint64, int(numStats)+len(n.counters))
	n.CountersInto(out)
	return out
}

// CountersInto writes the current counter values into m without
// allocating: the zero-alloc read side for hot polling loops that
// sample hundreds of nodes per virtual tick. Keys absent from the
// node's counter set are left untouched, so clear or reuse m
// deliberately.
func (n *Node) CountersInto(m map[string]uint64) {
	n.eachCounter(func(name string, v uint64) { m[name] = v })
}

// eachCounter calls f for every counter the node shows: the stats that
// are always present, the rest of them once nonzero, and whatever
// Count() has been given.
func (n *Node) eachCounter(f func(name string, v uint64)) {
	for s, v := range n.stats {
		if stat(s) <= statICMPDelivered || v != 0 {
			f(statNames[s], v)
		}
	}
	for name, v := range n.counters {
		f(name, *v)
	}
}

// Ifaces returns the node's interfaces.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// AddAddress assigns a local address: the node delivers packets for
// it locally.
func (n *Node) AddAddress(addr netip.Addr) {
	n.local[addr] = true
	if !n.primary.IsValid() {
		n.primary = addr
	}
	// A local route names nothing that could fail a check.
	_ = n.mainTbl.Add(&Route{
		Prefix: netip.PrefixFrom(addr, addr.BitLen()),
		Kind:   RouteLocal,
	})
}

// PrimaryAddress returns the node's first assigned address.
func (n *Node) PrimaryAddress() netip.Addr { return n.primary }

// IsLocal reports whether addr is assigned to this node.
func (n *Node) IsLocal(addr netip.Addr) bool { return n.local[addr] }

// Table returns (creating if needed) the routing table with id.
func (n *Node) Table(id int) *Table {
	t, ok := n.tables[id]
	if !ok {
		t = &Table{node: n}
		n.tables[id] = t
	}
	return t
}

// AddRoute installs r in the main table. Table.Add checks it: a
// seg6local route whose behaviour the registry rejects (missing
// nexthop, unsupported flavor, no SRH), or one naming another node's
// interface, is refused instead of eating packets later.
func (n *Node) AddRoute(r *Route) error { return n.mainTbl.Add(r) }

// Lookup performs a FIB lookup in the given table.
func (n *Node) Lookup(dst netip.Addr, table int) *Route {
	return n.tables[table].Lookup(dst)
}

// HandleUDP registers a UDP listener on port.
func (n *Node) HandleUDP(port uint16, h UDPHandler) { n.udpHandlers[port] = h }

// HandleTCP registers the node's TCP input (internal/tcpsim).
func (n *Node) HandleTCP(h func(n *Node, p *packet.Packet, meta *PacketMeta)) {
	n.tcpHandler = h
}

// HandleICMP registers the node's ICMPv6 input (traceroute clients).
func (n *Node) HandleICMP(h func(n *Node, p *packet.Packet, meta *PacketMeta)) {
	n.icmpHandler = h
}

// HandleL2 registers the node's Ethernet input: End.DX2 without an
// OIF hands decapsulated frames here.
func (n *Node) HandleL2(h func(n *Node, frame []byte, meta *PacketMeta)) {
	n.l2Handler = h
}

// BindProxyReturn wires the return leg of an SR proxy: packets
// arriving on in run b's Inbound step (End.AS re-encapsulation,
// End.AM de-masquerading) instead of a FIB lookup. b is normally the
// same Behaviour installed under the proxy's SID, and is checked the
// way Table.Add checks a route.
func (n *Node) BindProxyReturn(in *Iface, b *seg6.Behaviour) error {
	if in == nil || in.Node != n {
		return fmt.Errorf("netsim: BindProxyReturn: interface does not belong to %s", n.Name)
	}
	r := &Route{Kind: RouteSeg6Local, Behaviour: b, inbound: true}
	if err := validateRoute(n, r); err != nil {
		return fmt.Errorf("netsim: %s: BindProxyReturn on %s: %w", n.Name, in.Name, err)
	}
	if n.ifaceInputs == nil {
		n.ifaceInputs = make(map[*Iface]*Route)
	}
	n.ifaceInputs[in] = r
	return nil
}

// BindIfaceTable routes packets arriving on in through table instead
// of the main table — the VRF binding of an L3VPN PE's CE-facing
// interface (ip route ... vrf / table semantics).
func (n *Node) BindIfaceTable(in *Iface, table int) error {
	if in == nil || in.Node != n {
		return fmt.Errorf("netsim: BindIfaceTable: interface does not belong to %s", n.Name)
	}
	if n.ifaceTables == nil {
		n.ifaceTables = make(map[*Iface]int)
	}
	n.ifaceTables[in] = table
	return nil
}

// deliver is called by the link layer when a packet arrives. It
// models the NIC ring: if the CPU is still busy and the ring is full,
// the packet is dropped — this is how offered load beyond the node's
// packet rate disappears, exactly like the paper's router receiving 3
// Mpps but forwarding 610 kpps.
//
// An idle CPU takes the packet in this same event. Other events of the
// nanosecond that sort after this delivery therefore find the packet in
// service, no longer in the ring: a co-arrival sees one more free slot
// (an idle node absorbs RxRingPackets + 1 simultaneous packets), and a
// link failure, crash or route change scheduled for the arrival instant
// finds the packet already routed. Service order is arrival order
// either way.
func (n *Node) deliver(buf []byte, head int32, born bool, in *Iface) {
	if n.crashed {
		// The links go down with the node, so normally nothing arrives
		// here; this guards same-instant races around the crash event.
		n.Count("crash_rx_lost")
		return
	}
	if !n.rxPush(rxItem{buf: buf, rxTimestamp: n.Now(), inIface: in, head: head, born: born}) {
		n.stats[statRxRingFull]++
		n.recycle(buf, born)
		return
	}
	if !n.busy {
		// Idle CPU: service starts inside this delivery event. The k a
		// zero-delay start event used to take is still consumed, so every
		// event this node schedules from here on keeps the key it always
		// had.
		n.busy = true
		n.schedK++
		n.drain()
	}
}

// rxPush appends to the receive ring, growing it geometrically up to
// the NIC ring size. It reports false when the ring is full. Ring
// capacity is always a power of two so push/pop index with a mask;
// occupancy is still capped at exactly Cost.RxRingPackets, which need
// not be a power of two itself.
func (n *Node) rxPush(item rxItem) bool {
	if n.rxCount >= n.Cost.RxRingPackets {
		return false
	}
	if n.rxCount == len(n.rxq) {
		newCap := 2 * len(n.rxq)
		if newCap < 64 {
			newCap = 64
		}
		buf := make([]rxItem, newCap)
		mask := len(n.rxq) - 1
		for i := 0; i < n.rxCount; i++ {
			buf[i] = n.rxq[(n.rxHead+i)&mask]
		}
		n.rxq = buf
		n.rxHead = 0
	}
	n.rxq[(n.rxHead+n.rxCount)&(len(n.rxq)-1)] = item
	n.rxCount++
	return true
}

// rxPop removes the oldest ring entry, releasing its packet bytes.
func (n *Node) rxPop() rxItem {
	item := n.rxq[n.rxHead]
	n.rxq[n.rxHead] = rxItem{}
	n.rxHead = (n.rxHead + 1) & (len(n.rxq) - 1)
	n.rxCount--
	return item
}

// drain is the CPU loop: take one packet, process it (computing its
// cost), apply its effects at completion time, continue.
func (n *Node) drain() {
	if n.rxCount == 0 {
		n.busy = false
		return
	}
	item := n.rxPop()
	raw := item.buf[item.head:]
	// The hop is zeroed where it lies and filled field by field: a
	// composite literal would be built on the stack and copied in.
	h := &n.pending
	*h = hop{}
	h.raw = raw
	h.meta.RxTimestamp, h.meta.InIface, h.meta.Buf, h.meta.born = item.rxTimestamp, item.inIface, item.buf, item.born
	h.cost = n.Cost.PacketCost(len(raw))
	if n.obs != nil {
		n.obsBeginHop(raw, n.Now()-item.rxTimestamp)
	}
	n.process(h)
	if n.obs != nil {
		n.obsEndHop(h.cost)
	}
	// The commit — apply this packet's effects, pop the next — runs at
	// processing completion. Same event key a Node.After closure would
	// get, but pure data: no allocation per processed packet. A crash in
	// between discards the packet mid-flight and halts the CPU loop: the
	// continuation belongs to this incarnation only (it carries the
	// crash epoch).
	sh := n.shard
	n.schedK++
	sh.q.pushDrainCont(sh.now+h.cost, sh.now, n.idx, n.schedK, n.crashEpoch)
}

// drainCont is the drain continuation: apply the previous packet's
// deferred effects, then continue the CPU loop. A continuation
// scheduled by a previous crash incarnation is dead.
func (n *Node) drainCont(epoch uint64) {
	if n.crashEpoch != epoch {
		return
	}
	n.runCommit(&n.pending)
	n.pending = hop{}
	n.drain()
}

// runCommit applies a hop's verdict, if it has one. Payload fields are
// copied to locals and cleared before dispatch: commits can re-enter
// the routing path (handlers calling Output), which reuses the same
// storage.
func (n *Node) runCommit(h *hop) {
	op, raw := h.op, h.raw
	h.op, h.raw = commitNone, nil
	switch op {
	case commitTransmit:
		buf, born, iface := h.meta.Buf, h.meta.born, h.iface
		h.meta.Buf, h.meta.born, h.iface = nil, false, nil
		if h.decHop {
			packet.SetHopLimit(raw, h.hopLimit-1)
		}
		iface.transmit(raw, buf, born)
	case commitLocal:
		n.deliverLocal(raw, &h.meta)
		// The packet ended with its handler, released or not, and the claim
		// with it. On loopback h is outPending, which an Output from inside
		// the handler has reused for the packet it sent: this line, and the
		// one above that clears the claim of what is transmitted, are why a
		// Release the handler calls after that Output finds nothing to free
		// instead of a packet in flight.
		h.meta.Buf, h.meta.born = nil, false
	case commitFn:
		fn := h.fn
		h.fn = nil
		fn()
	}
}

// Output injects a locally-generated packet into the routing path.
// Generation cost is the caller's concern (traffic generators pace
// themselves), so no CPU time is charged here.
func (n *Node) Output(raw []byte) { n.output(raw, nil, false) }

// PacketBuf returns size bytes to build a packet in and send with
// OutputBuf: a dead packet's allocation from the shard's free list when
// it holds one, a new one otherwise. The content is unspecified — the
// caller writes every byte it sends.
func (n *Node) PacketBuf(size int) []byte { return n.shard.getBuf(size) }

// OutputBuf is Output for a packet built in a buf that came from
// PacketBuf, and only for such. The packet is buf[reserve:], and buf
// travels with it: a tunnel ingress on the path encapsulates in place
// into the reserve bytes in front, and the allocation returns to a free
// list when the packet dies at a place that releases it (Release, a full
// receive ring, a link that refuses it), to be handed out again. The
// caller keeps no reference to it.
func (n *Node) OutputBuf(buf []byte, reserve int) { n.output(buf[reserve:], buf, true) }

// Release ends a locally delivered packet: a handler calls it with the
// metadata it was given once it has read what it needs, and the
// allocation the packet arrived in — if it came from PacketBuf — goes to
// the free list of this node's shard. It spends the claim: a second
// Release does nothing, and neither does one on a packet whose sender
// made the buffer itself (Output, Iface.Transmit). Call it before sending
// anything from inside the handler.
func (n *Node) Release(meta *PacketMeta) {
	n.recycle(meta.Buf, meta.born)
	meta.Buf, meta.born = nil, false
}

// recycle returns buf, which nothing refers to any more, to the shard's
// free list if it was born there.
func (n *Node) recycle(buf []byte, born bool) {
	if born {
		n.shard.putBuf(buf)
	}
}

func (n *Node) output(raw, buf []byte, born bool) {
	if n.crashed {
		// Application timers keep firing through a crash (the process
		// schedule outlives the box in this model), but nothing leaves
		// a dead node.
		n.Count("crash_tx_lost")
		return
	}
	h := &n.outPending
	*h = hop{}
	h.raw = raw
	h.meta.RxTimestamp, h.meta.Local, h.meta.Buf, h.meta.born = n.Now(), true, buf, born
	if n.obs != nil {
		n.obsBeginHop(raw, 0)
	}
	n.process(h)
	if n.obs != nil {
		n.obsEndHop(0) // whatever the stages charged, nobody waits for it
	}
	n.runCommit(h)
}

// process routes one packet (the package comment has the stages):
// ingress names the first route, each act applies one and either ends
// the hop or names the next. depth counts the routes applied, so a
// configuration that keeps matching its own output is a counted drop.
func (n *Node) process(h *hop) {
	r, more := n.ingress(h)
	for depth := 0; more; depth++ {
		if depth > maxRouteDepth {
			n.drop(statRouteLoop)
			return
		}
		r, more = n.act(r, h)
	}
}

// drop ends the hop without a verdict: it counts why, marks the span
// (the two reasons that stand for a behaviour or program returning an
// error say so), and returns what a stage returns to end the hop.
func (n *Node) drop(why stat) (*Route, bool) {
	n.stats[why]++
	if why == statSeg6LocalError || why == statLWTBPFError {
		n.obsVerdict("error")
	} else {
		n.obsVerdict("drop")
	}
	return nil, false
}

// icmp charges for, and queues as the hop's verdict, an ICMPv6 error
// about the packet as it stands. The charge is for the attempt: it
// applies also when icmpError decides not to send one.
func (n *Node) icmp(h *hop, icmpType uint8) {
	h.cost += n.Cost.ICMPGenNs
	if fn := n.icmpError(h.raw, &h.meta, icmpType, 0); fn != nil {
		h.op, h.fn = commitFn, fn
	}
}

// expired is the forwarding plane's hop-limit check, wherever a transit
// packet is about to leave: one that arrived with hl <= 1 is dropped
// and answered with Time Exceeded. Locally originated packets are
// exempt.
func (n *Node) expired(h *hop, hl uint8) bool {
	if h.meta.Local || hl > 1 {
		return false
	}
	n.drop(statHopLimit)
	n.icmp(h, packet.ICMPv6TimeExceeded)
	return true
}

// transmits ends the hop with the verdict "send the packet out of
// iface"; dec asks the commit to write hl-1 into it first.
func (n *Node) transmits(h *hop, iface *Iface, hl uint8, dec bool) (*Route, bool) {
	n.obsVerdict("forward")
	h.op, h.iface = commitTransmit, iface
	if dec {
		h.decHop, h.hopLimit = true, hl
	}
	return nil, false
}

// ingress names the route a packet starts with. Interface-bound
// dispatch runs before the FIB: the return leg of an SR proxy and VRF
// table bindings key on the arrival interface. Unconfigured nodes pay
// two nil compares.
func (n *Node) ingress(h *hop) (*Route, bool) {
	if in := h.meta.InIface; in != nil && (n.ifaceInputs != nil || n.ifaceTables != nil) {
		if r, ok := n.ifaceInputs[in]; ok {
			return r, true
		}
		if t, ok := n.ifaceTables[in]; ok {
			return n.lookup(h, n.tables[t])
		}
	}
	return n.lookup(h, n.mainTbl)
}

// lookup names the route for the packet's destination in t; no match
// is a nil route, which act answers. The key is read from the header in
// place, for either version: a decapsulated IPv4 packet (End.DT4/DT46)
// routes through the same tables.
func (n *Node) lookup(h *hop, t *Table) (*Route, bool) {
	fam, key, ok := dstKey(h.raw)
	if !ok {
		return n.drop(statMalformed)
	}
	return t.lookup(fam, key), true
}

// onward sends a packet its route has just rewritten on its way: out
// of the route's own nexthops when it has any, through another lookup
// otherwise (towards the SID an encapsulation or a program put in
// front).
func (n *Node) onward(r *Route, h *hop) (*Route, bool) {
	if len(r.Nexthops) > 0 {
		return n.forward(r, h)
	}
	return n.lookup(h, n.mainTbl)
}

// act applies one route to the packet.
func (n *Node) act(r *Route, h *hop) (*Route, bool) {
	if r == nil {
		n.drop(statNoRoute)
		n.icmp(h, packet.ICMPv6DstUnreachable)
		return nil, false
	}
	switch r.Kind {
	case RouteLocal:
		n.obsRoute("local")
		n.obsVerdict("local")
		h.op = commitLocal
		h.cost += n.Cost.LocalDeliverNs
		return nil, false
	case RouteForward:
		n.obsRoute("forward")
		return n.forward(r, h)
	case RouteSeg6Local:
		return n.seg6Local(r, h)
	case RouteSeg6Encap:
		return n.seg6Encap(r, h)
	default: // RouteLWTBPF, the one kind left that Table.Add admits
		return n.lwtBPF(r, h)
	}
}

// forward handles hop limit, ECMP and backup-route protection, and
// leaves the transmission as the verdict. It reads the header where it
// lies and drops what packet.DecodeIPv6 or DecodeIPv4 would refuse; an
// IPv6 packet's addresses are handed to the ECMP hash in place, read
// only if the choice needs them.
func (n *Node) forward(r *Route, h *hop) (*Route, bool) {
	raw := h.raw
	var src, dst *[16]byte
	var hopLimit uint8
	var flowLabel uint32
	switch packet.IPVersion(raw) {
	case 6:
		if len(raw) < packet.IPv6HeaderLen {
			return n.drop(statMalformed)
		}
		src, dst = (*[16]byte)(raw[8:24]), (*[16]byte)(raw[24:40])
		hopLimit = raw[7]
		flowLabel = uint32(raw[1]&0x0f)<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	case 4:
		// Decapsulated IPv4 (End.DT4/DT46 towards a CE): same ECMP and
		// TTL handling, no flow label; the hash sees IPv4-mapped
		// addresses, as it would of netip's.
		if ihl := int(raw[0]&0x0f) * 4; len(raw) < packet.IPv4HeaderLen || ihl < packet.IPv4HeaderLen || len(raw) < ihl {
			return n.drop(statMalformed)
		}
		var s, d [16]byte
		s[10], s[11], d[10], d[11] = 0xff, 0xff, 0xff, 0xff
		copy(s[12:], raw[12:16])
		copy(d[12:], raw[16:20])
		src, dst = &s, &d
		hopLimit = raw[8]
	default:
		return n.drop(statMalformed)
	}
	if n.expired(h, hopLimit) {
		return nil, false
	}
	nh, viaBackup := r.selectPath(src, dst, flowLabel)
	if nh == nil || nh.Iface == nil {
		// Distinguish a failure (interfaces exist but are down, and no
		// usable backup protects the route) from a route that was
		// never forwardable (no nexthops, or none with an interface).
		why := statNoNexthop
		for i := range r.Nexthops {
			if r.Nexthops[i].Iface != nil {
				why = statLinkDown
				break
			}
		}
		return n.drop(why)
	}
	if viaBackup {
		n.stats[statBackupTx]++
		if r.Backup.SRH != nil {
			if !h.meta.Local {
				// Forwarding decrements before the tunnel ingress
				// (ip6_forward runs before the lwtunnel output), the
				// outer header copies the decremented value, and the
				// encapsulated packet leaves as local output — no second
				// decrement at transmit.
				packet.SetHopLimit(h.raw, hopLimit-1)
				h.meta.Local = true
			}
			h.cost += n.Cost.EncapNs
			enc, err := seg6.EncapIn(h.meta.Buf, h.raw, n.primary, r.Backup.SRH)
			if err != nil {
				return n.drop(statBackupEncapError)
			}
			h.raw = enc
		}
	}
	return n.transmits(h, nh.Iface, hopLimit, !h.meta.Local)
}

// seg6Local runs a seg6local behaviour (static or End.BPF) through the
// dispatch registry and acts on its verdict. The pseudo-route of an SR
// proxy's return interface (BindProxyReturn) runs the behaviour's
// Inbound half the same way. The route passed validateRoute: the action
// is registered with what the route asks of it, and the attachment and
// the OIF are what they must be.
func (n *Node) seg6Local(r *Route, h *hop) (*Route, bool) {
	if !r.inbound {
		n.obsRoute("seg6local")
	}
	b := r.Behaviour
	sp := seg6.Lookup(b.Action)
	var res seg6.Result
	var cost int64
	var err error
	switch {
	case r.inbound:
		res, err = sp.Inbound(b, h.raw)
		cost = n.Cost.Behaviour[b.Action]
	case sp.Prog:
		buf := h.meta.Buf
		res, cost, err = b.BPF.(Seg6LocalProgram).RunSeg6Local(n, h.raw, &h.meta)
		cost += n.Cost.Behaviour[seg6.ActionEnd] // the endpoint part of End.BPF
		if moved := h.meta.Buf; len(moved) > 0 && (len(buf) == 0 || &moved[0] != &buf[0]) {
			// The program says it rebuilt the packet in a buffer from the
			// free list (see Seg6LocalProgram). Only a packet that is
			// provably there has left the allocation it arrived in; one
			// that is not may live anywhere, so neither buffer is listed.
			if isTail(moved, res.Pkt) {
				n.recycle(buf, h.meta.born)
				h.meta.born = true
			} else {
				h.meta.born = false
			}
		}
	default:
		if sp.Encapsulates && !n.tunnelHopLimit(h) {
			// Expired at the tunnel ingress: the behaviour never ran
			// and charges nothing.
			n.obsBehavior(sp.Name)
			return nil, false
		}
		res, err = sp.Apply(b, h.raw)
		cost = n.Cost.Behaviour[b.Action]
	}
	h.cost += cost
	if n.obs != nil {
		n.obs.cells[n.shard.id].behavior[b.Action].Observe(cost)
		if r.inbound && n.spanIdx >= 0 {
			n.obsBehavior(sp.Name + "-in")
		} else {
			n.obsBehavior(sp.Name)
		}
	}
	if err != nil {
		if n.Trace != nil {
			n.Trace("%s: seg6local %v error: %v", n.Name, b.Action, err)
		}
		return n.drop(statSeg6LocalError)
	}

	// The behaviour's output is the packet from here on (nil with
	// VerdictDrop, after which nothing reads it).
	h.raw = res.Pkt
	switch res.Verdict {
	case seg6.VerdictDrop:
		return n.drop(statSeg6Local)
	case seg6.VerdictForward:
		return n.lookup(h, n.mainTbl)
	case seg6.VerdictForwardTable:
		return n.lookup(h, n.tables[res.Table])
	case seg6.VerdictForwardNexthop:
		iface := n.ResolveNexthop(res.Nexthop)
		if iface == nil {
			return n.drop(statNoNexthop)
		}
		return n.crossConnect(h, iface)
	case seg6.VerdictForwardOIF:
		// Static behaviours return it only with an OIF; a program may
		// return it for a behaviour without one, and that verdict is bad.
		if iface, ok := b.OIF.(*Iface); ok {
			if !iface.Up() {
				return n.drop(statLinkDown)
			}
			return n.crossConnect(h, iface)
		}
	case seg6.VerdictDeliverL2:
		if n.l2Handler == nil {
			return n.drop(statL2NoHandler)
		}
		n.Count("l2_delivered")
		n.obsVerdict("local")
		frame, handler, meta := h.raw, n.l2Handler, h.meta
		h.op, h.fn = commitFn, func() { handler(n, frame, &meta) }
		h.cost += n.Cost.LocalDeliverNs
		return nil, false
	}
	return n.drop(statBadVerdict)
}

// tunnelHopLimit performs the forwarding-plane hop-limit step at a
// tunnel ingress for transit packets: the kernel's ip6_forward
// decrements BEFORE the lwtunnel output builds the outer header, so
// the inner hop limit is decremented here, the outer copies the
// decremented value, and the encapsulated packet continues as local
// output (no second decrement at transmit). Reports false when the
// hop ends here (hop limit exhausted: dropped, ICMP queued).
func (n *Node) tunnelHopLimit(h *hop) bool {
	if h.meta.Local {
		return true
	}
	hl, err := packet.HopLimit(h.raw)
	if err != nil {
		n.drop(statMalformed)
		return false
	}
	if n.expired(h, hl) {
		return false
	}
	packet.SetHopLimit(h.raw, hl-1)
	h.meta.Local = true
	return true
}

// crossConnect ends the hop by transmitting a behaviour's output on the
// interface the behaviour named, with the forwarding plane's hop-limit
// contract; Ethernet frames (End.DX2 cross-connect) carry no hop limit
// and leave untouched.
func (n *Node) crossConnect(h *hop, iface *Iface) (*Route, bool) {
	if ver := packet.IPVersion(h.raw); ver != 4 && ver != 6 {
		return n.transmits(h, iface, 0, false)
	}
	hl, err := packet.HopLimit(h.raw)
	if err != nil {
		return n.drop(statMalformed)
	}
	if n.expired(h, hl) {
		return nil, false
	}
	return n.transmits(h, iface, hl, !h.meta.Local)
}

// seg6Encap performs the static transit behaviours.
func (n *Node) seg6Encap(r *Route, h *hop) (*Route, bool) {
	n.obsRoute("seg6encap")
	// Inline insertion adds no outer header: the packet stays a transit
	// packet and the transmit-time decrement applies. The other modes
	// are tunnel ingresses.
	if r.Mode != EncapModeInline && !n.tunnelHopLimit(h) {
		return nil, false
	}
	var out []byte
	var err error
	var name string
	switch r.Mode {
	case EncapModeInline:
		out, err = seg6.InsertSRH(h.raw, r.SRH)
		name = "T.Insert"
	case EncapModeEncapRed:
		out, err = seg6.EncapRedIn(h.meta.Buf, h.raw, n.primary, r.SRH)
		name = "H.Encaps.Red"
	default:
		out, err = seg6.EncapIn(h.meta.Buf, h.raw, n.primary, r.SRH)
		name = "T.Encaps"
	}
	n.obsBehavior(name)
	h.cost += n.Cost.EncapNs // charged whether or not the packet fitted
	if err != nil {
		return n.drop(statEncapError)
	}
	h.raw = out
	return n.onward(r, h)
}

// lwtBPF runs the route's transit program (the BPF LWT out hook) and
// sends what it returns onward.
func (n *Node) lwtBPF(r *Route, h *hop) (*Route, bool) {
	n.obsRoute("lwt_bpf")
	n.obsBehavior("LWT.BPF")
	out, verdict, cost, err := r.BPF.(LWTProgram).RunLWTOut(n, h.raw, &h.meta)
	h.cost += cost
	if err != nil {
		if n.Trace != nil {
			n.Trace("%s: lwt bpf error: %v", n.Name, err)
		}
		return n.drop(statLWTBPFError)
	}
	if verdict == LWTDrop {
		return n.drop(statLWTBPF)
	}
	h.raw = out
	return n.onward(r, h)
}

// ResolveNexthop finds the interface whose peer owns addr (the
// simulator's stand-in for neighbour discovery on point-to-point
// links).
func (n *Node) ResolveNexthop(addr netip.Addr) *Iface {
	for _, i := range n.ifaces {
		if i.peer != nil && i.peer.Node.IsLocal(addr) {
			return i
		}
	}
	return nil
}

// deliverLocal dispatches a packet addressed to this node. The parsed
// view handed to handlers is backed by node-owned scratch storage:
// valid only for the duration of the handler call.
func (n *Node) deliverLocal(raw []byte, meta *PacketMeta) {
	if packet.IPVersion(raw) == 4 {
		n.deliverLocal4(raw, meta)
		return
	}
	p := &n.scratchPkt
	p.SRH = &n.scratchSRH
	if err := packet.ParseInto(p, raw); err != nil {
		n.stats[statMalformedLocal]++
		return
	}
	switch p.L4Proto {
	case packet.ProtoUDP:
		if n.deliverUDP(p, meta) {
			return
		}
		// Port unreachable (RFC 4443 type 1 code 4) — what traceroute
		// uses to detect arrival at the destination.
		if commit := n.icmpError(raw, meta, packet.ICMPv6DstUnreachable, 4); commit != nil {
			commit()
		}
	case packet.ProtoTCP:
		if n.tcpHandler != nil {
			n.stats[statTCPDelivered]++
			n.tcpHandler(n, p, meta)
			return
		}
		n.Count("tcp_no_listener")
	case packet.ProtoICMPv6:
		if n.icmpHandler != nil {
			n.stats[statICMPDelivered]++
			n.icmpHandler(n, p, meta)
			return
		}
		n.Count("icmp_unhandled")
	default:
		n.Count("local_unknown_proto")
	}
}

// deliverLocal4 dispatches an IPv4 packet addressed to this node
// (traffic decapsulated by End.DT4/DT46 at a tenant's egress). Only
// UDP listeners are modeled; the handler sees a minimal Packet view
// (Raw, L4Proto, L4Off) — enough for sinks and port demultiplexing.
func (n *Node) deliverLocal4(raw []byte, meta *PacketMeta) {
	h, err := packet.DecodeIPv4(raw)
	if err != nil {
		n.stats[statMalformedLocal]++
		return
	}
	if h.Protocol != packet.ProtoUDP {
		n.Count("local_unknown_proto")
		return
	}
	if len(raw) < h.HdrLen {
		n.stats[statMalformedLocal]++
		return
	}
	n.deliverUDP(&packet.Packet{Raw: raw, L4Proto: h.Protocol, L4Off: h.HdrLen}, meta)
}

// deliverUDP is the UDP demultiplexer of both address families: it
// hands p, whose UDP header is at p.L4Off, to the destination port's
// listener. It reports false when there is none.
func (n *Node) deliverUDP(p *packet.Packet, meta *PacketMeta) bool {
	udp, err := packet.DecodeUDP(p.Raw[p.L4Off:])
	if err != nil {
		n.stats[statMalformedLocal]++
		return true
	}
	handler, ok := n.udpHandlers[udp.DstPort]
	if !ok {
		n.Count("udp_no_listener")
		return false
	}
	n.stats[statUDPDelivered]++
	handler(n, p, meta)
	return true
}

// icmpError builds the commit that sends an ICMPv6 error about raw
// back to its source. Errors about ICMPv6 errors are suppressed
// (RFC 4443 §2.4) to avoid storms, and so are errors that would go to
// a non-unicast address (counted as icmp_suppressed).
func (n *Node) icmpError(raw []byte, meta *PacketMeta, icmpType, code uint8) func() {
	if meta.Local {
		return nil // local senders learn through counters
	}
	if packet.IPVersion(raw) != 6 {
		return nil // ICMPv4 generation is not modeled
	}
	if p, err := packet.Parse(raw); err == nil && p.L4Proto == packet.ProtoICMPv6 {
		if m, err := packet.DecodeICMPv6(raw[p.L4Off:]); err == nil && m.Type < 128 {
			return nil
		}
	}
	src, err := packet.IPv6Src(raw)
	if err != nil || !n.primary.IsValid() {
		return nil
	}
	// RFC 4443 §2.4(e): no error about a packet whose source does not
	// identify a single node, or that was sent to a multicast address.
	// (The two exceptions, Packet Too Big and Parameter Problem code 2,
	// are not generated here.)
	if dst, _ := packet.IPv6Dst(raw); src.IsUnspecified() || src.IsMulticast() || dst.IsMulticast() {
		n.Count("icmp_suppressed")
		return nil
	}
	// RFC 4443 §3.1/§3.3: after the 8-byte header (ICMPv6HeaderLen
	// already counts its unused word) comes as much of the invoking
	// packet as fits without the error exceeding the 1280-byte minimum
	// IPv6 MTU (§2.4(c)).
	quote := raw
	if max := 1280 - packet.IPv6HeaderLen - packet.ICMPv6HeaderLen; len(quote) > max {
		quote = quote[:max]
	}
	reply, err := packet.BuildPacket(n.primary, src,
		packet.WithICMPv6(packet.ICMPv6{Type: icmpType, Code: code, Body: quote}))
	if err != nil {
		return nil
	}
	n.Count(fmt.Sprintf("icmp_sent_type%d", icmpType))
	return func() { n.Output(reply) }
}

// randSource is a splitmix64 rand.Source64: the whole stream state is
// one word, seeded per node by nodeSeed.
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

// Journal is an append-only record of one node's observations
// (delivery traces, handler logs). Append only from events executing
// on the owning node's shard, so sharded runs need no lock.
type Journal struct {
	lines []string
}

// NewJournal creates an empty journal; keep one per observing node.
func NewJournal() *Journal { return &Journal{} }

// Addf appends one formatted line.
func (j *Journal) Addf(format string, args ...any) {
	j.lines = append(j.lines, fmt.Sprintf(format, args...))
}

// Add appends one line.
func (j *Journal) Add(line string) { j.lines = append(j.lines, line) }

// Lines returns the recorded lines. Read it only while the sim is
// quiescent.
func (j *Journal) Lines() []string { return j.lines }
