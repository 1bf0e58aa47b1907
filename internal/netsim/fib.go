package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"

	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// RouteKind tells the forwarding engine how to treat a match.
type RouteKind int

// Route kinds.
const (
	// RouteForward sends the packet to one of the nexthops (ECMP over
	// several).
	RouteForward RouteKind = iota
	// RouteLocal delivers to the node's transport layer.
	RouteLocal
	// RouteSeg6Local executes an SRv6 behaviour (the seg6local
	// lightweight tunnel).
	RouteSeg6Local
	// RouteSeg6Encap applies a static transit behaviour (T.Encaps or
	// T.Insert with a fixed SRH — the seg6 lightweight tunnel).
	RouteSeg6Encap
	// RouteLWTBPF runs a BPF program on egress (the BPF LWT hook,
	// §2.1 "a lightweight tunnel infrastructure named BPF LWT"),
	// then forwards to the route's nexthops.
	RouteLWTBPF
)

func (k RouteKind) String() string {
	switch k {
	case RouteForward:
		return "forward"
	case RouteLocal:
		return "local"
	case RouteSeg6Local:
		return "seg6local"
	case RouteSeg6Encap:
		return "seg6"
	case RouteLWTBPF:
		return "lwt-bpf"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// EncapMode selects the seg6 transit flavour.
type EncapMode int

// Transit encapsulation modes (kernel: SEG6_IPTUN_MODE_*).
const (
	EncapModeEncap  EncapMode = iota // outer IPv6 + SRH
	EncapModeInline                  // SRH spliced into the packet
	// EncapModeEncapRed is the reduced encapsulation (H.Encaps.Red,
	// RFC 8986 §5.2): the first segment travels only in the outer
	// destination address.
	EncapModeEncapRed
)

// Nexthop is one forwarding target: the egress interface, plus an
// optional gateway address (informational on point-to-point links).
type Nexthop struct {
	Iface   *Iface
	Gateway netip.Addr
}

// Backup is a route's precomputed local protection entry (the
// TI-LFA-style scenario of the SR resilience literature): when every
// primary nexthop's interface is down, traffic is steered onto the
// backup nexthops — optionally encapsulated with a backup segment
// list — without waiting for a routing-protocol reconvergence.
type Backup struct {
	// Nexthops are the protection egresses, selected per flow.
	Nexthops []Nexthop
	// Weights optionally biases the selection (WCMP). When set it
	// must have one entry per backup nexthop; zero-weight members
	// (including members beyond a too-short slice) are never chosen.
	// Nil or empty means equal weights.
	Weights []uint32
	// SRH, when set, is the backup segment list: the packet is
	// encapsulated (T.Encaps) with it before leaving on the backup
	// nexthop, steering it around the failed resource.
	SRH *packet.SRH
}

// Route is one FIB entry.
type Route struct {
	Prefix netip.Prefix
	Kind   RouteKind

	// Nexthops is the ECMP set for RouteForward / RouteLWTBPF /
	// RouteSeg6Encap.
	Nexthops []Nexthop

	// Backup, when set, protects the route: it activates as soon as
	// every primary nexthop's interface is down.
	Backup *Backup

	// Behaviour configures RouteSeg6Local.
	Behaviour *seg6.Behaviour

	// SRH and Mode configure RouteSeg6Encap.
	SRH  *packet.SRH
	Mode EncapMode

	// BPF is the program attachment for RouteLWTBPF; the concrete
	// type is internal/core.LWTProgram (kept opaque here to avoid an
	// import cycle).
	BPF any

	// PerPacketRR selects nexthops round-robin per packet instead of
	// per flow — the naive striping that commercial hybrid-access
	// gear performs in hardware, and the baseline the BPF WRR
	// scheduler is compared against.
	PerPacketRR bool
	// inbound marks the pseudo-route BindProxyReturn hands to packets
	// arriving on an SR proxy's return interface: a RouteSeg6Local that
	// runs the behaviour's Inbound step. It is in no table. (It sits in
	// PerPacketRR's padding: a 17th word would put every route of a large
	// FIB in the next allocation size class.)
	inbound   bool
	rrCounter uint64
}

// Table is one routing table: longest-prefix match over routes.
// Routes are indexed by prefix length: a lookup probes one hash map
// per distinct length, longest first, so cost scales with the number
// of prefix lengths in use (a handful) instead of the number of
// routes — the generated 200+ node topologies install hundreds of
// routes per node, and the per-hop lookup sits on the simulator's
// hottest path.
type Table struct {
	// node is the table's owner, whose interfaces are the only ones its
	// routes may name; nil in a bare Table, which only tests declare.
	node *Node
	// routes is ordered longest prefix first, insertion order within a
	// length.
	routes []*Route
	// lens holds one index per prefix length in use, longest first,
	// IPv6 (lens[0]) apart from IPv4 (lens[1]) — a v4 address never
	// matches a v6 prefix, IPv4-mapped ones included.
	lens [2][]lenTable
}

// fibKey is an address as two big-endian words (IPv4 in IPv4-mapped
// form), so masking is two ANDs. A struct, not an array: two fields
// stay in registers, an array would be copied through the stack.
type fibKey struct{ hi, lo uint64 }

func addrKey(a netip.Addr) fibKey {
	b := a.As16()
	return fibKey{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// dstKey is addrKey of what packet.DstAddr would return for the packet
// b, with its family, read where the address lies: the two words at
// offsets 24 and 32 of an IPv6 header, or the IPv4-mapped form of the
// word at offset 16 of an IPv4 one. ok is false where DstAddr fails.
func dstKey(b []byte) (fam int, key fibKey, ok bool) {
	switch packet.IPVersion(b) {
	case 6:
		if len(b) >= packet.IPv6HeaderLen {
			return 0, fibKey{binary.BigEndian.Uint64(b[24:32]), binary.BigEndian.Uint64(b[32:40])}, true
		}
	case 4:
		if len(b) >= packet.IPv4HeaderLen {
			return 1, fibKey{0, 0xffff<<32 | uint64(binary.BigEndian.Uint32(b[16:20]))}, true
		}
	}
	return 0, fibKey{}, false
}

func (k fibKey) and(m fibKey) fibKey { return fibKey{k.hi & m.hi, k.lo & m.lo} }

// family returns a's index into Table.lens and the offset of its
// prefix lengths within the 128-bit key.
func family(a netip.Addr) (fam, off int) {
	if a.Is4() {
		return 1, 96
	}
	return 0, 0
}

// lenTable indexes the routes of one prefix length by masked address:
// an open-addressed, linearly probed hash table that only grows (a
// Table has no delete). A built-in map spends more on hashing 16 bytes
// and on its generic access path than this whole lookup costs, twice
// per packet hop on the generated topologies.
type lenTable struct {
	bits  int
	mask  fibKey
	n     int
	slots []fibSlot // power-of-two length, at most half full
}

type fibSlot struct {
	key   fibKey
	route *Route // nil: empty slot
}

// slot returns the slot holding key, or the empty slot where it
// belongs.
func (lt *lenTable) slot(key fibKey) *fibSlot {
	last := uint64(len(lt.slots) - 1)
	h := (key.hi*0x9e3779b97f4a7c15 ^ key.lo) * 0xff51afd7ed558ccd
	for i := (h >> 32) & last; ; i = (i + 1) & last {
		if s := &lt.slots[i]; s.route == nil || s.key == key {
			return s
		}
	}
}

// put maps key to r and returns the route it replaces, if any.
func (lt *lenTable) put(key fibKey, r *Route) (old *Route) {
	if 2*(lt.n+1) > len(lt.slots) {
		prev := lt.slots
		lt.slots = make([]fibSlot, max(8, 2*len(prev)))
		for _, s := range prev {
			if s.route != nil {
				*lt.slot(s.key) = s
			}
		}
	}
	s := lt.slot(key)
	if old = s.route; old == nil {
		lt.n++
	}
	*s = fibSlot{key, r}
	return old
}

// Add installs a route, keeping longest-prefix-first order in Routes();
// a second route for the same (masked) prefix replaces the first. It is
// the only way into a FIB, and where a route is checked — once, like the
// kernel's build_state for lightweight tunnels: a route whose kind,
// behaviour, program attachment or segment list the packet path could
// not act on, or that names another node's interface, is not installed,
// and the error names the node and the prefix. The packet path takes
// what passed on trust, so an installed route's fields are not to be
// changed.
func (t *Table) Add(r *Route) error {
	if err := validateRoute(t.node, r); err != nil {
		owner := "table"
		if t.node != nil {
			owner = t.node.Name
		}
		return fmt.Errorf("netsim: %s: route %s: %w", owner, r.Prefix, err)
	}
	bits := r.Prefix.Bits()
	// Routes of this length end where the first shorter one begins.
	end := sort.Search(len(t.routes), func(i int) bool { return t.routes[i].Prefix.Bits() < bits })
	if r.Prefix.IsValid() {
		lt := t.tableFor(r.Prefix)
		if old := lt.put(addrKey(r.Prefix.Addr()).and(lt.mask), r); old != nil {
			for i := end - 1; ; i-- {
				if t.routes[i] == old {
					t.routes[i] = r
					return nil
				}
			}
		}
	}
	t.routes = append(t.routes, nil)
	copy(t.routes[end+1:], t.routes[end:])
	t.routes[end] = r
	return nil
}

// validateRoute is the install-time check of Table.Add (and of the
// pseudo-route BindProxyReturn makes): everything about r that the
// packet path takes on trust. n is the node r is for; nil skips the
// rule that every interface r names is one of n's.
func validateRoute(n *Node, r *Route) error {
	owns := func(i *Iface) bool { return i == nil || n == nil || i.Node == n }
	switch r.Kind {
	case RouteForward, RouteLocal:
	case RouteSeg6Local:
		b := r.Behaviour
		if b == nil {
			return errors.New("seg6local route has no behaviour")
		}
		if err := seg6.Validate(b); err != nil {
			return err
		}
		sp := seg6.Lookup(b.Action)
		if _, ok := b.BPF.(Seg6LocalProgram); sp.Prog && !ok {
			return fmt.Errorf("%s: %T is not a seg6local program", sp.Name, b.BPF)
		}
		if r.inbound && sp.Inbound == nil {
			return fmt.Errorf("%s has no inbound step", sp.Name)
		}
		if b.OIF != nil {
			if oif, ok := b.OIF.(*Iface); !ok || oif == nil || !owns(oif) {
				return fmt.Errorf("%s: OIF %v is not an interface of this node", sp.Name, b.OIF)
			}
		}
	case RouteSeg6Encap:
		if err := validateSRH(r.SRH); err != nil {
			return err
		}
	case RouteLWTBPF:
		if _, ok := r.BPF.(LWTProgram); !ok {
			return fmt.Errorf("%T is not an LWT program", r.BPF)
		}
	default:
		return fmt.Errorf("unknown route kind %d", int(r.Kind))
	}
	var backup []Nexthop
	if r.Backup != nil {
		if r.Backup.SRH != nil {
			if err := validateSRH(r.Backup.SRH); err != nil {
				return fmt.Errorf("backup: %w", err)
			}
		}
		backup = r.Backup.Nexthops
	}
	for _, nhs := range [2][]Nexthop{r.Nexthops, backup} {
		for _, nh := range nhs {
			if !owns(nh.Iface) {
				return fmt.Errorf("nexthop %v is not an interface of this node", nh.Iface)
			}
		}
	}
	return nil
}

// validateSRH checks what an encapsulation needs of a segment list, so
// that only the packet can make one fail: it is set, it has an active
// segment, and it encodes.
func validateSRH(srh *packet.SRH) error {
	if srh == nil {
		return errors.New("no SRH")
	}
	if _, err := srh.ActiveSegment(); err != nil {
		return err
	}
	_, err := srh.HdrExtLen()
	return err
}

// tableFor returns the index for p's family and length, creating it in
// longest-first position if p is the first prefix of that length.
func (t *Table) tableFor(p netip.Prefix) *lenTable {
	fam, off := family(p.Addr())
	lens := t.lens[fam]
	i := sort.Search(len(lens), func(i int) bool { return lens[i].bits <= p.Bits() })
	if i == len(lens) || lens[i].bits != p.Bits() {
		var mask fibKey
		switch n := off + p.Bits(); {
		case n > 64:
			mask = fibKey{^uint64(0), ^uint64(0) << (128 - n)}
		case n > 0:
			mask = fibKey{^uint64(0) << (64 - n), 0}
		}
		lens = append(lens, lenTable{})
		copy(lens[i+1:], lens[i:])
		lens[i] = lenTable{bits: p.Bits(), mask: mask}
		t.lens[fam] = lens
	}
	return &lens[i]
}

// Lookup returns the longest-prefix match for addr.
func (t *Table) Lookup(addr netip.Addr) *Route {
	if !addr.IsValid() {
		return nil
	}
	fam, _ := family(addr)
	return t.lookup(fam, addrKey(addr))
}

// lookup is the longest-prefix match behind Lookup and the packet path,
// which builds key from the packet's bytes (dstKey).
func (t *Table) lookup(fam int, key fibKey) *Route {
	if t == nil {
		return nil
	}
	lens := t.lens[fam]
	for i := range lens {
		if r := lens[i].slot(key.and(lens[i].mask)).route; r != nil {
			return r
		}
	}
	return nil
}

// Routes lists entries (diagnostics, End.OAMP's nexthop query).
func (t *Table) Routes() []*Route { return t.routes }

// MainTable is the default routing table ID.
const MainTable = 0

// FNV-1a, 32 bits: hash/fnv's New32a, computed inline.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// ecmpHash computes the flow hash that selects among ECMP nexthops.
// Like the kernel's flowlabel-based multipath hash, it covers source,
// destination and flow label, so one flow sticks to one path while
// different flows spread (RFC 2992 / the paper's reference [30]). It is
// FNV-1a over src ‖ dst ‖ [l>>16, l>>8, l, 0]: 16-byte addresses, IPv4
// in IPv4-mapped form, and a trailing zero byte that every ECMP choice
// ever made here has hashed. forward hands it an IPv6 packet's addresses
// where they lie.
func ecmpHash(src, dst *[16]byte, flowLabel uint32) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range src {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for _, c := range dst {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for _, c := range [4]byte{byte(flowLabel >> 16), byte(flowLabel >> 8), byte(flowLabel), 0} {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	return h
}

// SelectNexthop picks the ECMP member for a packet among the primary
// nexthops whose interfaces are up.
func (r *Route) SelectNexthop(src, dst netip.Addr, flowLabel uint32) *Nexthop {
	nh, _ := r.SelectPath(src, dst, flowLabel)
	return nh
}

// SelectPath picks the forwarding target honouring link state: the
// up members of the primary ECMP set first, and the route's backup —
// viaBackup reports that protection fired — once every primary is
// down. It returns nil when nothing usable remains.
func (r *Route) SelectPath(src, dst netip.Addr, flowLabel uint32) (nh *Nexthop, viaBackup bool) {
	s, d := src.As16(), dst.As16()
	return r.selectPath(&s, &d, flowLabel)
}

// selectPath is SelectPath over the addresses as ecmpHash reads them,
// which it does only when the choice needs the hash.
func (r *Route) selectPath(src, dst *[16]byte, flowLabel uint32) (nh *Nexthop, viaBackup bool) {
	if nh := r.selectPrimary(src, dst, flowLabel); nh != nil {
		return nh, false
	}
	if r.Backup != nil {
		if nh := selectWeighted(r.Backup.Nexthops, r.Backup.Weights, src, dst, flowLabel); nh != nil {
			return nh, true
		}
	}
	return nil, false
}

// nexthopUp reports whether nh is usable.
func nexthopUp(nh *Nexthop) bool { return nh.Iface != nil && nh.Iface.Up() }

// selectPrimary is the pre-failure fast path: when every member is up
// it is the historical ECMP/RR selection, and members with a down
// interface are skipped otherwise.
func (r *Route) selectPrimary(src, dst *[16]byte, flowLabel uint32) *Nexthop {
	n := len(r.Nexthops)
	if n == 0 {
		return nil
	}
	up := 0
	for i := range r.Nexthops {
		if nexthopUp(&r.Nexthops[i]) {
			up++
		}
	}
	if up == 0 {
		return nil
	}
	if r.PerPacketRR {
		// Round-robin over the up members only, preserving the strict
		// alternation the hybrid-access baseline depends on.
		k := int(r.rrCounter % uint64(up))
		r.rrCounter++
		for i := range r.Nexthops {
			if !nexthopUp(&r.Nexthops[i]) {
				continue
			}
			if k == 0 {
				return &r.Nexthops[i]
			}
			k--
		}
		return nil
	}
	if up == 1 {
		for i := range r.Nexthops {
			if nexthopUp(&r.Nexthops[i]) {
				return &r.Nexthops[i]
			}
		}
		return nil
	}
	// Flow-hash over the up members: with all links up this is the
	// historical selection; during a partial failure flows re-spread
	// over the survivors.
	k := int(ecmpHash(src, dst, flowLabel) % uint32(up))
	for i := range r.Nexthops {
		if !nexthopUp(&r.Nexthops[i]) {
			continue
		}
		if k == 0 {
			return &r.Nexthops[i]
		}
		k--
	}
	return nil
}

// selectWeighted picks a backup member by flow hash over the weight
// distribution, skipping down interfaces. weights may be nil (equal).
func selectWeighted(nhs []Nexthop, weights []uint32, src, dst *[16]byte, flowLabel uint32) *Nexthop {
	var total uint64
	for i := range nhs {
		if !nexthopUp(&nhs[i]) {
			continue
		}
		total += uint64(weightOf(weights, i))
	}
	if total == 0 {
		return nil
	}
	point := uint64(ecmpHash(src, dst, flowLabel)) % total
	for i := range nhs {
		if !nexthopUp(&nhs[i]) {
			continue
		}
		w := uint64(weightOf(weights, i))
		if point < w {
			return &nhs[i]
		}
		point -= w
	}
	return nil
}

func weightOf(weights []uint32, i int) uint32 {
	if len(weights) == 0 {
		return 1 // nil or empty: equal weights
	}
	if i >= len(weights) {
		return 0
	}
	return weights[i]
}
