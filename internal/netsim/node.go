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
}

// Seg6LocalProgram is implemented by internal/core's End.BPF
// attachment. It runs the program against raw and reports the
// resulting seg6 verdict plus the virtual CPU cost of the BPF
// execution.
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

// UDPHandler receives locally-delivered UDP packets.
type UDPHandler func(n *Node, p *packet.Packet, meta *PacketMeta)

// commitOp selects the deferred effect of a processed packet. The
// routing functions fill a pendingCommit instead of returning a
// closure: the commit lives in a node field, so the steady-state
// packet path allocates nothing.
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

// pendingCommit is the deferred effect of one routed packet plus the
// packet's metadata. Node.pending carries it from a drain event to
// the drain continuation; Node.outPending is the intra-event twin for
// the Output path (routed and committed inside one event).
type pendingCommit struct {
	op       commitOp
	decHop   bool
	hopLimit uint8
	iface    *Iface
	raw      []byte
	meta     PacketMeta
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
}

// Counter is a pre-resolved handle to one named counter cell. The
// forwarding fast path increments through handles resolved once at
// node creation instead of hashing a string key per packet; the
// Counters() map remains the read-side view over the same cells.
type Counter struct{ cell *uint64 }

// Inc bumps the counter.
func (c Counter) Inc() { *c.cell++ }

// Add bumps the counter by d.
func (c Counter) Add(d uint64) { *c.cell += d }

// Value reads the counter.
func (c Counter) Value() uint64 { return *c.cell }

// hotCounters are the handles the per-packet paths touch.
type hotCounters struct {
	rxRingFull         Counter
	dropMalformed      Counter
	dropNoRoute        Counter
	dropRouteLoop      Counter
	dropHopLimit       Counter
	dropNoNexthop      Counter
	dropSeg6Local      Counter
	dropSeg6LocalError Counter
	dropLWTBPF         Counter
	dropLWTBPFError    Counter
	dropMalformedLocal Counter
	dropLinkDown       Counter
	backupTx           Counter
	udpDelivered       Counter
	tcpDelivered       Counter
	icmpDelivered      Counter
}

// maxRouteDepth bounds recursive route resolution (behaviour chains,
// encapsulation re-lookups).
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
	// access. Table objects are created once and never replaced
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
	// (End.AS / End.AM): packets arriving on it run the behaviour's
	// Inbound step instead of a FIB lookup. ifaceTables binds an
	// interface to a routing table (VRF-style per-tenant lookup for
	// the End.DT* scenarios). Both are configuration, like
	// udpHandlers: set at topology-build time.
	ifaceInputs map[*Iface]*seg6.Behaviour
	ifaceTables map[*Iface]int

	// rxq is a ring buffer: rxCount items starting at rxHead. It
	// grows geometrically up to Cost.RxRingPackets, so draining one
	// packet is two index updates, not a slice reallocation.
	rxq     []rxItem
	rxHead  int
	rxCount int
	busy    bool

	// counters holds the interned counter cells; Counter handles
	// point into it. Counters() materialises the read-side map.
	counters map[string]*uint64
	hot      hotCounters

	// crashed marks the node as down: the CPU halts, the receive ring
	// is lost and all local link ends are failed until restart.
	// crashEpoch counts crashes; CPU continuations capture it when
	// scheduled and become no-ops if a crash intervened, so work from a
	// previous incarnation never leaks past a restart.
	crashed    bool
	crashEpoch uint64

	// pending is the deferred effect of the packet currently being
	// processed by the drain chain: filled at routing time, applied by
	// the drain continuation at processing-completion time. outPending
	// is the same storage for the Output path, which routes and commits
	// inside one event.
	pending    pendingCommit
	outPending pendingCommit

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
	// -1 between hops and for unsampled packets — the datapath's
	// verdict hooks test it, making them free when recording is off.
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
	n := &Node{
		Name:        name,
		Sim:         s,
		Cost:        cost,
		idx:         int32(len(s.nodes)),
		shard:       s.shards[0],
		rngSrc:      randSource{state: uint64(nodeSeed(s.seed, name))},
		tables:      map[int]*Table{MainTable: {}},
		local:       make(map[netip.Addr]bool),
		udpHandlers: make(map[uint16]UDPHandler),
		counters:    make(map[string]*uint64),
		spanIdx:     -1,
	}
	n.rng = rand.New(&n.rngSrc)
	if s.obs != nil {
		s.obs.attachNode(n)
	}
	n.hot = hotCounters{
		rxRingFull:         n.CounterHandle("rx_ring_full"),
		dropMalformed:      n.CounterHandle("drop_malformed"),
		dropNoRoute:        n.CounterHandle("drop_no_route"),
		dropRouteLoop:      n.CounterHandle("drop_route_loop"),
		dropHopLimit:       n.CounterHandle("drop_hop_limit"),
		dropNoNexthop:      n.CounterHandle("drop_no_nexthop"),
		dropSeg6Local:      n.CounterHandle("drop_seg6local"),
		dropSeg6LocalError: n.CounterHandle("drop_seg6local_error"),
		dropLWTBPF:         n.CounterHandle("drop_lwt_bpf"),
		dropLWTBPFError:    n.CounterHandle("drop_lwt_bpf_error"),
		dropMalformedLocal: n.CounterHandle("drop_malformed_local"),
		dropLinkDown:       n.CounterHandle("drop_link_down"),
		backupTx:           n.CounterHandle("backup_tx"),
		udpDelivered:       n.CounterHandle("udp_delivered"),
		tcpDelivered:       n.CounterHandle("tcp_delivered"),
		icmpDelivered:      n.CounterHandle("icmp_delivered"),
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
	n.pending = pendingCommit{}
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

// CounterHandle interns name and returns its pre-resolved handle.
// Resolve once, increment per packet.
func (n *Node) CounterHandle(name string) Counter {
	return Counter{cell: n.internCounter(name)}
}

// internCounter returns (creating if needed) the cell for name.
func (n *Node) internCounter(name string) *uint64 {
	c := n.counters[name]
	if c == nil {
		c = new(uint64)
		n.counters[name] = c
	}
	return c
}

// Count bumps a named counter. Cold paths use it directly; per-packet
// paths go through pre-resolved handles instead.
func (n *Node) Count(what string) {
	*n.internCounter(what)++
}

// Counters returns the read-side view of all counters: free-form
// event accounting ("drop_no_route", "rx_ring_full", ...). Read it in
// tests and reports; the snapshot is freshly built per call. Polling
// loops should reuse a map through CountersInto instead.
func (n *Node) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(n.counters))
	n.CountersInto(out)
	return out
}

// CountersInto writes the current counter values into m without
// allocating: the zero-alloc read side for hot polling loops that
// sample hundreds of nodes per virtual tick. Keys absent from the
// node's counter set are left untouched, so clear or reuse m
// deliberately.
func (n *Node) CountersInto(m map[string]uint64) {
	for k, v := range n.counters {
		m[k] = *v
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
	n.Table(MainTable).Add(&Route{
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
		t = &Table{}
		n.tables[id] = t
	}
	return t
}

// AddRoute validates r and inserts it into the main table. Like the
// kernel's build_state for lightweight tunnels, behaviour parameters
// are checked at install time: a seg6local route whose behaviour the
// registry rejects (missing nexthop, unsupported flavor, no SRH) never
// makes it into the FIB, instead of silently eating packets later.
func (n *Node) AddRoute(r *Route) error {
	if err := validateRoute(r); err != nil {
		return err
	}
	n.Table(MainTable).Add(r)
	return nil
}

// validateRoute applies the install-time checks of AddRoute.
func validateRoute(r *Route) error {
	switch r.Kind {
	case RouteSeg6Local:
		if r.Behaviour == nil {
			return fmt.Errorf("netsim: seg6local route %s has no behaviour", r.Prefix)
		}
		return seg6.Validate(r.Behaviour)
	case RouteSeg6Encap:
		if r.SRH == nil {
			return fmt.Errorf("netsim: seg6 encap route %s has no SRH", r.Prefix)
		}
		if _, err := r.SRH.ActiveSegment(); err != nil {
			return fmt.Errorf("netsim: seg6 encap route %s: %w", r.Prefix, err)
		}
	}
	return nil
}

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
// same Behaviour installed under the proxy's SID.
func (n *Node) BindProxyReturn(in *Iface, b *seg6.Behaviour) error {
	if in == nil || in.Node != n {
		return fmt.Errorf("netsim: BindProxyReturn: interface does not belong to %s", n.Name)
	}
	sp := seg6.Lookup(b.Action)
	if sp == nil || sp.Inbound == nil {
		return fmt.Errorf("netsim: BindProxyReturn: %v has no inbound step", b.Action)
	}
	if err := seg6.Validate(b); err != nil {
		return err
	}
	if n.ifaceInputs == nil {
		n.ifaceInputs = make(map[*Iface]*seg6.Behaviour)
	}
	n.ifaceInputs[in] = b
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
func (n *Node) deliver(buf []byte, head int32, in *Iface) {
	if n.crashed {
		// The links go down with the node, so normally nothing arrives
		// here; this guards same-instant races around the crash event.
		n.Count("crash_rx_lost")
		return
	}
	if !n.rxPush(rxItem{buf: buf, rxTimestamp: n.Now(), inIface: in, head: head}) {
		n.hot.rxRingFull.Inc()
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

	cost := n.Cost.PacketCost(len(raw))
	pc := &n.pending
	*pc = pendingCommit{meta: PacketMeta{RxTimestamp: item.rxTimestamp, InIface: item.inIface, Buf: item.buf}}
	if n.obs != nil {
		n.obsBeginHop(raw, n.Now()-pc.meta.RxTimestamp)
	}
	cost += n.routePacket(raw, pc, 0)
	if n.obs != nil {
		n.obsEndHop(cost)
	}
	// The commit — apply this packet's effects, pop the next — runs at
	// processing completion. Same event key a Node.After closure would
	// get, but pure data: no allocation per processed packet. A crash in
	// between discards the packet mid-flight and halts the CPU loop: the
	// continuation belongs to this incarnation only (it carries the
	// crash epoch).
	sh := n.shard
	n.schedK++
	sh.q.pushDrainCont(sh.now+cost, sh.now, n.idx, n.schedK, n.crashEpoch)
}

// drainCont is the drain continuation: apply the previous packet's
// deferred effects, then continue the CPU loop. A continuation
// scheduled by a previous crash incarnation is dead.
func (n *Node) drainCont(epoch uint64) {
	if n.crashEpoch != epoch {
		return
	}
	if n.pending.op != commitNone {
		n.runCommit(&n.pending)
	}
	n.pending = pendingCommit{}
	n.drain()
}

// runCommit applies a filled pendingCommit. Payload fields are copied
// to locals and cleared before dispatch: commits can re-enter the
// routing path (handlers calling Output), which reuses the same
// storage.
func (n *Node) runCommit(pc *pendingCommit) {
	op := pc.op
	pc.op = commitNone
	switch op {
	case commitTransmit:
		raw, buf, iface := pc.raw, pc.meta.Buf, pc.iface
		pc.raw, pc.meta.Buf, pc.iface = nil, nil, nil
		if pc.decHop {
			packet.SetHopLimit(raw, pc.hopLimit-1)
		}
		iface.transmit(raw, buf)
	case commitLocal:
		raw := pc.raw
		pc.raw = nil
		n.deliverLocal(raw, &pc.meta)
	case commitFn:
		fn := pc.fn
		pc.fn = nil
		fn()
	}
}

// Output injects a locally-generated packet into the routing path.
// Generation cost is the caller's concern (traffic generators pace
// themselves), so no CPU time is charged here.
func (n *Node) Output(raw []byte) { n.output(raw, nil) }

// OutputReserved is Output for a packet built with spare bytes in front
// (packet.BuildPacketReserve): the packet is buf[reserve:], and buf
// travels with it so that a tunnel ingress on the path can encapsulate
// in place. The caller gives buf up, as with Output.
func (n *Node) OutputReserved(buf []byte, reserve int) { n.output(buf[reserve:], buf) }

func (n *Node) output(raw, buf []byte) {
	if n.crashed {
		// Application timers keep firing through a crash (the process
		// schedule outlives the box in this model), but nothing leaves
		// a dead node.
		n.Count("crash_tx_lost")
		return
	}
	pc := &n.outPending
	*pc = pendingCommit{meta: PacketMeta{RxTimestamp: n.Now(), Local: true, Buf: buf}}
	if n.obs != nil {
		n.obsBeginHop(raw, 0)
	}
	n.routePacket(raw, pc, 0)
	if n.obs != nil {
		n.obsEndHop(0)
	}
	if pc.op != commitNone {
		n.runCommit(pc)
	}
}

// routePacket resolves raw against the main table, writing the effect
// to apply at processing-completion time into pc and returning any
// extra cost beyond the base packet cost.
func (n *Node) routePacket(raw []byte, pc *pendingCommit, depth int) int64 {
	// Interface-bound dispatch runs before the FIB: the return leg of
	// an SR proxy and VRF table bindings key on the arrival interface.
	// Unconfigured nodes pay two nil compares.
	if depth == 0 && pc.meta.InIface != nil &&
		(n.ifaceInputs != nil || n.ifaceTables != nil) {
		if b, ok := n.ifaceInputs[pc.meta.InIface]; ok {
			return n.proxyReturn(b, raw, pc, depth)
		}
		if t, ok := n.ifaceTables[pc.meta.InIface]; ok {
			dst, err := packet.DstAddr(raw)
			if err != nil {
				n.hot.dropMalformed.Inc()
				return 0
			}
			return n.applyRoute(n.Lookup(dst, t), raw, pc, depth)
		}
	}
	// DstAddr is version-dispatching: a decapsulated IPv4 packet
	// (End.DT4/DT46) routes through the same tables.
	dst, err := packet.DstAddr(raw)
	if err != nil {
		n.hot.dropMalformed.Inc()
		return 0
	}
	return n.applyRoute(n.mainTable().Lookup(dst), raw, pc, depth)
}

// applyRoute dispatches on the route kind.
func (n *Node) applyRoute(r *Route, raw []byte, pc *pendingCommit, depth int) int64 {
	if depth > maxRouteDepth {
		n.hot.dropRouteLoop.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	if r == nil {
		n.hot.dropNoRoute.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6DstUnreachable, 0); fn != nil {
			pc.op, pc.fn = commitFn, fn
		}
		return n.Cost.ICMPGenNs
	}

	switch r.Kind {
	case RouteLocal:
		if n.spanIdx >= 0 {
			n.obsRoute("local")
			n.obsVerdict("local")
		}
		pc.op, pc.raw = commitLocal, raw
		return n.Cost.LocalDeliverNs

	case RouteForward:
		if n.spanIdx >= 0 {
			n.obsRoute("forward")
		}
		return n.forward(r, raw, pc)

	case RouteSeg6Local:
		if n.spanIdx >= 0 {
			n.obsRoute("seg6local")
		}
		return n.applySeg6Local(r, raw, pc, depth)

	case RouteSeg6Encap:
		if n.spanIdx >= 0 {
			n.obsRoute("seg6encap")
		}
		return n.applySeg6Encap(r, raw, pc, depth)

	case RouteLWTBPF:
		if n.spanIdx >= 0 {
			n.obsRoute("lwt_bpf")
			n.obsBehavior("LWT.BPF")
		}
		prog, ok := r.BPF.(LWTProgram)
		if !ok {
			n.Count("drop_bad_lwt_attachment")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		out, verdict, cost, err := prog.RunLWTOut(n, raw, &pc.meta)
		if err != nil {
			n.hot.dropLWTBPFError.Inc()
			if n.Trace != nil {
				n.Trace("%s: lwt bpf error: %v", n.Name, err)
			}
			if n.spanIdx >= 0 {
				n.obsVerdict("error")
			}
			return cost
		}
		if verdict == LWTDrop {
			n.hot.dropLWTBPF.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		if len(r.Nexthops) > 0 {
			// The route supplies the egress directly.
			return cost + n.forward(r, out, pc)
		}
		// Otherwise the (possibly re-encapsulated) packet is routed
		// again, e.g. towards the SID the program steered it to.
		return cost + n.routePacket(out, pc, depth+1)

	default:
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
}

// forward handles hop limit, ECMP and backup-route protection,
// committing the transmission.
func (n *Node) forward(r *Route, raw []byte, pc *pendingCommit) int64 {
	var src, dst netip.Addr
	var hopLimit uint8
	var flowLabel uint32
	if packet.IPVersion(raw) == 4 {
		// Decapsulated IPv4 (End.DT4/DT46 towards a CE): same ECMP and
		// TTL handling, no flow label.
		hdr, err := packet.DecodeIPv4(raw)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		src, dst = hdr.Src, hdr.Dst
		hopLimit, flowLabel = hdr.TTL, 0
	} else {
		hdr, err := packet.DecodeIPv6(raw)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		src, dst = hdr.Src, hdr.Dst
		hopLimit, flowLabel = hdr.HopLimit, hdr.FlowLabel
	}
	if !pc.meta.Local {
		if hopLimit <= 1 {
			n.hot.dropHopLimit.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
				pc.op, pc.fn = commitFn, fn
			}
			return n.Cost.ICMPGenNs
		}
	}
	nh, viaBackup := r.SelectPath(src, dst, flowLabel)
	if nh == nil || nh.Iface == nil {
		// Distinguish a failure (interfaces exist but are down, and no
		// usable backup protects the route) from a route that was
		// never forwardable (no nexthops, or none with an interface).
		configured := false
		for i := range r.Nexthops {
			if r.Nexthops[i].Iface != nil {
				configured = true
				break
			}
		}
		if configured {
			n.hot.dropLinkDown.Inc()
		} else {
			n.hot.dropNoNexthop.Inc()
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	out := raw
	var extra int64
	if viaBackup {
		n.hot.backupTx.Inc()
		if r.Backup.SRH != nil {
			if !pc.meta.Local {
				// Forwarding decrements before the tunnel ingress
				// (ip6_forward runs before the lwtunnel output), the
				// outer header copies the decremented value, and the
				// encapsulated packet leaves as local output — no second
				// decrement at transmit.
				packet.SetHopLimit(raw, hopLimit-1)
				pc.meta.Local = true
			}
			enc, err := seg6.EncapIn(pc.meta.Buf, raw, n.primary, r.Backup.SRH)
			if err != nil {
				n.Count("drop_backup_encap_error")
				if n.spanIdx >= 0 {
					n.obsVerdict("drop")
				}
				return n.Cost.EncapNs
			}
			out = enc
			extra = n.Cost.EncapNs
		}
	}
	if n.spanIdx >= 0 {
		n.obsVerdict("forward")
	}
	pc.op = commitTransmit
	pc.decHop = !pc.meta.Local
	pc.hopLimit = hopLimit
	pc.iface = nh.Iface
	pc.raw = out
	return extra
}

// applySeg6Local runs a seg6local behaviour (static or End.BPF)
// through the dispatch registry and acts on its verdict.
func (n *Node) applySeg6Local(r *Route, raw []byte, pc *pendingCommit, depth int) int64 {
	b := r.Behaviour
	if b == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	sp := seg6.Lookup(b.Action)
	if sp == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}

	var res seg6.Result
	var cost int64
	var err error

	if sp.Prog {
		prog, ok := b.BPF.(Seg6LocalProgram)
		if !ok {
			n.Count("drop_bad_seg6local_attachment")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		res, cost, err = prog.RunSeg6Local(n, raw, &pc.meta)
		cost += n.Cost.Behaviour[seg6.ActionEnd] // the endpoint part of End.BPF
	} else {
		if sp.Encapsulates && !n.tunnelHopLimit(raw, pc) {
			if n.spanIdx >= 0 {
				n.obsBehavior(sp.Name)
			}
			return n.Cost.ICMPGenNs
		}
		res, err = seg6.Apply(b, raw)
		cost = n.Cost.Behaviour[b.Action]
	}
	if n.obs != nil {
		n.obs.cells[n.shard.id].behavior[b.Action].Observe(cost)
		if n.spanIdx >= 0 {
			n.obsBehavior(sp.Name)
		}
	}
	if err != nil {
		n.hot.dropSeg6LocalError.Inc()
		if n.Trace != nil {
			n.Trace("%s: seg6local %v error: %v", n.Name, b.Action, err)
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("error")
		}
		return cost
	}
	return n.seg6Act(b, res, cost, pc, depth)
}

// tunnelHopLimit performs the forwarding-plane hop-limit step at a
// tunnel ingress for transit packets: the kernel's ip6_forward
// decrements BEFORE the lwtunnel output builds the outer header, so
// the inner hop limit is decremented here, the outer copies the
// decremented value, and the encapsulated packet continues as local
// output (no second decrement at transmit). Reports false when the
// packet's hop limit is exhausted (dropped, ICMP queued).
func (n *Node) tunnelHopLimit(raw []byte, pc *pendingCommit) bool {
	if pc.meta.Local {
		return true
	}
	hl, err := packet.HopLimit(raw)
	if err != nil {
		n.hot.dropMalformed.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return false
	}
	if hl <= 1 {
		n.hot.dropHopLimit.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
			pc.op, pc.fn = commitFn, fn
		}
		return false
	}
	packet.SetHopLimit(raw, hl-1)
	pc.meta.Local = true
	return true
}

// proxyReturn runs the inbound half of an SR proxy for a packet
// arriving on a bound interface (see BindProxyReturn).
func (n *Node) proxyReturn(b *seg6.Behaviour, raw []byte, pc *pendingCommit, depth int) int64 {
	sp := seg6.Lookup(b.Action)
	if sp == nil || sp.Inbound == nil {
		n.Count("drop_bad_proxy_return")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	res, err := sp.Inbound(b, raw)
	cost := n.Cost.Behaviour[b.Action]
	if n.obs != nil {
		n.obs.cells[n.shard.id].behavior[b.Action].Observe(cost)
		if n.spanIdx >= 0 {
			n.obsBehavior(sp.Name + "-in")
		}
	}
	if err != nil {
		n.hot.dropSeg6LocalError.Inc()
		if n.Trace != nil {
			n.Trace("%s: proxy return %v error: %v", n.Name, b.Action, err)
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("error")
		}
		return cost
	}
	return n.seg6Act(b, res, cost, pc, depth)
}

// seg6Act acts on a behaviour's verdict: the shared tail of
// applySeg6Local and proxyReturn.
func (n *Node) seg6Act(b *seg6.Behaviour, res seg6.Result, cost int64, pc *pendingCommit, depth int) int64 {
	switch res.Verdict {
	case seg6.VerdictDrop:
		n.hot.dropSeg6Local.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return cost

	case seg6.VerdictForward:
		return cost + n.routePacket(res.Pkt, pc, depth+1)

	case seg6.VerdictForwardTable:
		dst, err := packet.DstAddr(res.Pkt)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		route := n.Lookup(dst, res.Table)
		return cost + n.applyRoute(route, res.Pkt, pc, depth+1)

	case seg6.VerdictForwardNexthop:
		iface := n.ResolveNexthop(res.Nexthop)
		if iface == nil {
			n.hot.dropNoNexthop.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		return cost + n.transmitVerdict(res.Pkt, iface, pc)

	case seg6.VerdictForwardOIF:
		iface, ok := b.OIF.(*Iface)
		if !ok || iface == nil || iface.Node != n {
			n.Count("drop_bad_oif")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		if !iface.Up() {
			n.hot.dropLinkDown.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		return cost + n.transmitVerdict(res.Pkt, iface, pc)

	case seg6.VerdictDeliverL2:
		if n.l2Handler == nil {
			n.Count("l2_no_handler")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		n.Count("l2_delivered")
		if n.spanIdx >= 0 {
			n.obsVerdict("local")
		}
		frame, h, meta := res.Pkt, n.l2Handler, pc.meta
		pc.op = commitFn
		pc.fn = func() { h(n, frame, &meta) }
		return cost + n.Cost.LocalDeliverNs

	default:
		n.Count("drop_bad_verdict")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return cost
	}
}

// transmitVerdict commits transmission of out on iface with the
// forwarding plane's hop-limit contract; Ethernet frames (End.DX2
// cross-connect) carry no hop limit and leave untouched.
func (n *Node) transmitVerdict(out []byte, iface *Iface, pc *pendingCommit) int64 {
	ver := packet.IPVersion(out)
	var hopLimit uint8
	decHop := false
	if ver == 4 || ver == 6 {
		hl, err := packet.HopLimit(out)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		if !pc.meta.Local && hl <= 1 {
			n.hot.dropHopLimit.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			if fn := n.icmpError(out, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
				pc.op, pc.fn = commitFn, fn
			}
			return n.Cost.ICMPGenNs
		}
		hopLimit = hl
		decHop = !pc.meta.Local
	}
	if n.spanIdx >= 0 {
		n.obsVerdict("forward")
	}
	pc.op = commitTransmit
	pc.decHop = decHop
	pc.hopLimit = hopLimit
	pc.iface = iface
	pc.raw = out
	return 0
}

// applySeg6Encap performs the static transit behaviours.
func (n *Node) applySeg6Encap(r *Route, raw []byte, pc *pendingCommit, depth int) int64 {
	if r.SRH == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	var out []byte
	var err error
	switch r.Mode {
	case EncapModeInline:
		// Inline insertion adds no outer header: the packet stays a
		// transit packet and the transmit-time decrement applies.
		out, err = seg6.InsertSRH(raw, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("T.Insert")
		}
	case EncapModeEncapRed:
		if !n.tunnelHopLimit(raw, pc) {
			return n.Cost.ICMPGenNs
		}
		out, err = seg6.EncapRedIn(pc.meta.Buf, raw, n.primary, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("H.Encaps.Red")
		}
	default:
		if !n.tunnelHopLimit(raw, pc) {
			return n.Cost.ICMPGenNs
		}
		out, err = seg6.EncapIn(pc.meta.Buf, raw, n.primary, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("T.Encaps")
		}
	}
	if err != nil {
		n.Count("drop_encap_error")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return n.Cost.EncapNs
	}
	if len(r.Nexthops) > 0 {
		return n.Cost.EncapNs + n.forward(r, out, pc)
	}
	return n.Cost.EncapNs + n.routePacket(out, pc, depth+1)
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

// mainTable returns the main routing table, caching the pointer so
// the per-packet path skips the tables map access. A nil result (no
// main table yet) is never cached, so a table created later is still
// picked up.
func (n *Node) mainTable() *Table {
	if n.mainTbl == nil {
		n.mainTbl = n.tables[MainTable]
	}
	return n.mainTbl
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
		n.hot.dropMalformedLocal.Inc()
		return
	}
	switch p.L4Proto {
	case packet.ProtoUDP:
		udp, err := packet.DecodeUDP(raw[p.L4Off:])
		if err != nil {
			n.hot.dropMalformedLocal.Inc()
			return
		}
		if h, ok := n.udpHandlers[udp.DstPort]; ok {
			n.hot.udpDelivered.Inc()
			h(n, p, meta)
			return
		}
		n.Count("udp_no_listener")
		// Port unreachable (RFC 4443 type 1 code 4) — what traceroute
		// uses to detect arrival at the destination.
		if commit := n.icmpError(raw, meta, packet.ICMPv6DstUnreachable, 4); commit != nil {
			commit()
		}
	case packet.ProtoTCP:
		if n.tcpHandler != nil {
			n.hot.tcpDelivered.Inc()
			n.tcpHandler(n, p, meta)
			return
		}
		n.Count("tcp_no_listener")
	case packet.ProtoICMPv6:
		if n.icmpHandler != nil {
			n.hot.icmpDelivered.Inc()
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
		n.hot.dropMalformedLocal.Inc()
		return
	}
	if h.Protocol != packet.ProtoUDP {
		n.Count("local_unknown_proto")
		return
	}
	if len(raw) < h.HdrLen {
		n.hot.dropMalformedLocal.Inc()
		return
	}
	udp, err := packet.DecodeUDP(raw[h.HdrLen:])
	if err != nil {
		n.hot.dropMalformedLocal.Inc()
		return
	}
	handler, ok := n.udpHandlers[udp.DstPort]
	if !ok {
		n.Count("udp_no_listener")
		return
	}
	n.hot.udpDelivered.Inc()
	var p packet.Packet
	p.Raw = raw
	p.L4Proto = h.Protocol
	p.L4Off = h.HdrLen
	handler(n, &p, meta)
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
