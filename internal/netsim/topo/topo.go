// Package topo generates parameterized large-scale topologies for
// the simulator: lines, rings, fat-trees and random Waxman graphs,
// with shortest-path (ECMP-aware) routing installed on every node.
//
// The paper's evaluation runs on a three-node lab; SRPerf-style
// credibility at the ROADMAP's production scale needs hundreds of
// nodes, which is what these generators feed to the sharded engine
// (netsim.Sim.SetShards). Every construction step is deterministic
// in its parameters: node creation order, link order and route
// order are identical run to run, so generated scenarios shard and
// replay reproducibly.
//
// Node creation order is locality-first (a fat-tree lays out pod by
// pod, a ring walks the cycle), because netsim's block partition
// assigns contiguous creation ranges to shards: neighbouring nodes
// land on the same shard and most traffic stays shard-internal.
package topo

import (
	"fmt"
	"math/rand"
	"net/netip"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
)

// LinkSpec shapes the links a generator creates. Generated links are
// jitter- and loss-free.
type LinkSpec struct {
	// RateBps is the serialisation rate (0 = unlimited).
	RateBps int64
	// DelayNs is the propagation delay. 0 picks the 25 µs default; a
	// negative value requests a true zero-delay link, which must stay
	// inside one shard (partition.MinCut sees to it): the engine
	// derives its lookahead from positive cross-shard delays.
	DelayNs int64
	// QueueLimit bounds the qdisc FIFO (0 = netem default).
	QueueLimit int
}

func (l LinkSpec) config() netem.Config {
	delay := l.DelayNs
	if delay < 0 {
		delay = 0
	}
	return netem.Config{RateBps: l.RateBps, DelayNs: delay, QueueLimit: l.QueueLimit}
}

// Opts parameterises a generator.
type Opts struct {
	// Link shapes switch-switch (core) links.
	Link LinkSpec
	// HostLink shapes host attachment links; zero value falls back to
	// Link.
	HostLink LinkSpec
	// PodLink shapes a fat-tree's intra-pod (edge–aggregation) links;
	// zero value falls back to Link. A negative PodLink.DelayNs
	// models the back-to-back intra-pod hops of a real fat-tree —
	// zero propagation delay — so a sharded run must keep each pod's
	// switches in one shard (partition.MinCut does).
	PodLink LinkSpec
	// SwitchCost builds the cost model for forwarding nodes (default
	// netsim.ServerCostModel).
	SwitchCost func() netsim.CostModel
	// HostCost builds the cost model for traffic endpoints (default
	// netsim.HostCostModel).
	HostCost func() netsim.CostModel
}

func (o *Opts) fill() {
	if o.Link.DelayNs == 0 {
		o.Link.DelayNs = 25 * netsim.Microsecond
	}
	if o.Link.RateBps == 0 {
		o.Link.RateBps = 10_000_000_000
	}
	if o.HostLink == (LinkSpec{}) {
		o.HostLink = o.Link
	}
	if o.PodLink == (LinkSpec{}) {
		o.PodLink = o.Link
	}
	if o.SwitchCost == nil {
		o.SwitchCost = netsim.ServerCostModel
	}
	if o.HostCost == nil {
		o.HostCost = netsim.HostCostModel
	}
}

// Network is a generated topology: the sim it was built into, every
// node in creation order, and the subset that terminates traffic.
type Network struct {
	Sim *netsim.Sim
	// Nodes lists every node in creation order (the order netsim's
	// block partition shards by).
	Nodes []*netsim.Node
	// Hosts lists the traffic endpoints (every node, for line/ring/
	// Waxman; the leaves, for a fat-tree).
	Hosts []*netsim.Node
}

// HostAddr returns the address traffic for host h must use.
func (nw *Network) HostAddr(h *netsim.Node) netip.Addr { return h.PrimaryAddress() }

// PermutationPairs derives a deterministic random permutation traffic
// pattern over the hosts: each host sends to exactly one other host
// and no host receives twice. The dedicated seed keeps the pattern
// independent of the simulation's RNG state.
func (nw *Network) PermutationPairs(seed int64) [][2]*netsim.Node {
	rng := rand.New(rand.NewSource(seed))
	n := len(nw.Hosts)
	perm := rng.Perm(n)
	// Fix the fixed points so nobody talks to itself: rotate each
	// self-mapped index onto the next one's target.
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	pairs := make([][2]*netsim.Node, 0, n)
	for i, p := range perm {
		pairs = append(pairs, [2]*netsim.Node{nw.Hosts[i], nw.Hosts[p]})
	}
	return pairs
}

// hostAddr16 numbers host i under 2001:db8::/32 with the host index
// in bytes 4-5, so the /48 enclosing prefix is unique per host.
func hostAddr(i int) (netip.Addr, netip.Prefix) {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	b[4], b[5] = byte(i>>8), byte(i)
	b[15] = 1
	addr := netip.AddrFrom16(b)
	return addr, netip.PrefixFrom(addr, 48)
}

// switchAddr numbers forwarding node i under fc00::/16 (used as the
// source of generated ICMP, never as a traffic destination).
func switchAddr(i int) netip.Addr {
	var b [16]byte
	b[0] = 0xfc
	b[4], b[5] = byte(i>>8), byte(i)
	b[15] = 1
	return netip.AddrFrom16(b)
}

// builder accumulates a topology before routing is installed.
type builder struct {
	nw       *Network
	hostSeq  int
	swSeq    int
	prefixes map[*netsim.Node]netip.Prefix
}

func newBuilder(sim *netsim.Sim) *builder {
	return &builder{
		nw:       &Network{Sim: sim},
		prefixes: make(map[*netsim.Node]netip.Prefix),
	}
}

// addHost creates a traffic endpoint with its own /48.
func (b *builder) addHost(name string, cost netsim.CostModel) *netsim.Node {
	n := b.nw.Sim.AddNode(name, cost)
	addr, pfx := hostAddr(b.hostSeq)
	b.hostSeq++
	n.AddAddress(addr)
	b.prefixes[n] = pfx
	b.nw.Nodes = append(b.nw.Nodes, n)
	b.nw.Hosts = append(b.nw.Hosts, n)
	return n
}

// addSwitch creates a forwarding node.
func (b *builder) addSwitch(name string, cost netsim.CostModel) *netsim.Node {
	n := b.nw.Sim.AddNode(name, cost)
	n.AddAddress(switchAddr(b.swSeq))
	b.swSeq++
	b.nw.Nodes = append(b.nw.Nodes, n)
	return n
}

// connect links two nodes symmetrically.
func (b *builder) connect(x, y *netsim.Node, l LinkSpec) (*netsim.Iface, *netsim.Iface) {
	return netsim.ConnectSymmetric(x, y, l.config())
}

// link is one of a node's interfaces and the index, in Network.Nodes,
// of the node at its other end.
type link struct {
	iface *netsim.Iface
	peer  int
}

// installRoutes runs a BFS from every host and installs, on every
// other node, an ECMP route for the host's /48 over all shortest
// paths. Neighbour order is link creation order (the order of
// Node.Ifaces: connect is the only way the generators link nodes), so
// the nexthop sets — and therefore ECMP hashing — are deterministic.
// Nodes are numbered by their place in Network.Nodes once, up front:
// the searches walk index lists, not pointer-keyed maps.
func (b *builder) installRoutes() (*Network, error) {
	nodes := b.nw.Nodes
	index := make(map[*netsim.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	adj := make([][]link, len(nodes))
	for i, n := range nodes {
		for _, ifc := range n.Ifaces() {
			adj[i] = append(adj[i], link{ifc, index[ifc.Peer().Node]})
		}
	}
	dist := make([]int, len(nodes))
	queue := make([]int, 0, len(nodes))

	for _, h := range b.nw.Hosts {
		pfx, hi := b.prefixes[h], index[h]
		for i := range dist {
			dist[i] = -1
		}
		dist[hi] = 0
		queue = append(queue[:0], hi)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, l := range adj[v] {
				if dist[l.peer] < 0 {
					dist[l.peer] = dist[v] + 1
					queue = append(queue, l.peer)
				}
			}
		}
		for v, n := range nodes {
			if v == hi || dist[v] < 0 {
				continue
			}
			var nhs []netsim.Nexthop
			for _, l := range adj[v] {
				if dist[l.peer] == dist[v]-1 {
					nhs = append(nhs, netsim.Nexthop{Iface: l.iface})
				}
			}
			if len(nhs) == 0 {
				continue
			}
			if err := n.AddRoute(&netsim.Route{Prefix: pfx, Kind: netsim.RouteForward, Nexthops: nhs}); err != nil {
				return nil, err
			}
		}
	}
	return b.nw, nil
}

// Line builds a chain of n hosts: H0 - H1 - ... - Hn-1. Every node
// terminates traffic (they model CPE-style devices that also
// forward).
func Line(sim *netsim.Sim, n int, opts Opts) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: line needs >= 2 nodes, got %d", n)
	}
	opts.fill()
	b := newBuilder(sim)
	for i := 0; i < n; i++ {
		b.addHost(fmt.Sprintf("h%d", i), opts.HostCost())
	}
	for i := 0; i+1 < n; i++ {
		b.connect(b.nw.Nodes[i], b.nw.Nodes[i+1], opts.Link)
	}
	return b.installRoutes()
}

// Ring builds a cycle of n hosts; antipodal traffic ECMPs over both
// directions.
func Ring(sim *netsim.Sim, n int, opts Opts) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs >= 3 nodes, got %d", n)
	}
	opts.fill()
	b := newBuilder(sim)
	for i := 0; i < n; i++ {
		b.addHost(fmt.Sprintf("h%d", i), opts.HostCost())
	}
	for i := 0; i < n; i++ {
		b.connect(b.nw.Nodes[i], b.nw.Nodes[(i+1)%n], opts.Link)
	}
	return b.installRoutes()
}
