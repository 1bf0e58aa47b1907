package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// drawAddr returns an IPv6, IPv4 or IPv4-mapped IPv6 address. With few
// set bits it draws from a small set, so that prefixes nest and collide
// and lookups both hit and miss.
func drawAddr(rng *rand.Rand, few bool) netip.Addr {
	var b [16]byte
	for i := range b {
		if few {
			b[i] = byte(rng.Intn(2) * 0xa5)
		} else {
			b[i] = byte(rng.Intn(256))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return netip.AddrFrom4([4]byte(b[12:]))
	case 1:
		copy(b[:12], []byte{10: 0xff, 11: 0xff}) // IPv4-mapped, still an IPv6 address
	}
	return netip.AddrFrom16(b)
}

// addrPacket is a UDP packet from src to dst: IPv4 when both are, IPv6
// otherwise (an IPv4 address in it in IPv4-mapped form).
func addrPacket(t *testing.T, src, dst netip.Addr, label uint32) []byte {
	t.Helper()
	if src.Is4() && dst.Is4() {
		raw, err := packet.BuildIPv4UDP(src, dst, 1, 7, nil, 64)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw, err := packet.BuildPacket(netip.AddrFrom16(src.As16()), netip.AddrFrom16(dst.As16()),
		packet.WithUDP(1, 7), packet.WithFlowLabel(label))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestECMPHashIsFNV1a: the inline hash is hash/fnv's FNV-1a over
// src ‖ dst ‖ [l>>16, l>>8, l, 0], 16-byte addresses, IPv4 mapped — the
// hash every ECMP choice in the fingerprints was made with.
func TestECMPHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 5000; i++ {
		src, dst := drawAddr(rng, false), drawAddr(rng, false)
		label := rng.Uint32()
		if i%2 == 0 {
			label &= 0xfffff // what a header carries
		}
		h := fnv.New32a()
		s, d := src.As16(), dst.As16()
		h.Write(s[:])
		h.Write(d[:])
		h.Write([]byte{byte(label >> 16), byte(label >> 8), byte(label), 0})
		if got, want := ecmpHash(&s, &d, label), h.Sum32(); got != want {
			t.Fatalf("ecmpHash(%v, %v, %#x) = %#x, FNV-1a %#x", src, dst, label, got, want)
		}
	}
}

// TestLookupKeyInPlace: the key the packet path reads out of the header
// finds the route Table.Lookup finds for the address packet.DstAddr
// decodes, for IPv6, IPv4-mapped and IPv4 destinations, matched or not,
// and a header DstAddr refuses is a malformed drop.
func TestLookupKeyInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tbl Table
	for i := 0; i < 300; i++ {
		a := drawAddr(rng, true)
		if err := tbl.Add(&Route{Prefix: netip.PrefixFrom(a, 8+rng.Intn(a.BitLen()-7))}); err != nil {
			t.Fatal(err)
		}
	}
	n := New(1).AddNode("R", ServerCostModel())
	hits, misses := 0, 0
	for i := 0; i < 3000; i++ {
		// Half the destinations come from the prefixes' small set, half
		// from anywhere: mostly misses.
		dst, src := drawAddr(rng, i%2 == 0), aAddr
		if dst.Is4() {
			src = netip.MustParseAddr("192.0.2.1")
		}
		raw := addrPacket(t, src, dst, 0)
		want, err := packet.DstAddr(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantR := tbl.Lookup(want)
		got, more := n.lookup(&hop{raw: raw}, &tbl)
		if got != wantR || !more {
			t.Fatalf("packet to %v: in-place key found %v, Table.Lookup(%v) %v", dst, got, want, wantR)
		}
		if got != nil {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the draw does not exercise both", hits, misses)
	}
	v6 := addrPacket(t, aAddr, bAddr, 0)
	v4 := addrPacket(t, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.1"), 0)
	for _, raw := range [][]byte{nil, v6[:1], v6[:39], v4[:19], append([]byte{0x50}, v6[1:]...)} {
		_, decErr := packet.DstAddr(raw)
		before := n.stats[statMalformed]
		r, more := n.lookup(&hop{raw: raw}, &tbl)
		if decErr == nil || r != nil || more || n.stats[statMalformed] != before+1 {
			t.Fatalf("%d-byte header DstAddr refuses (%v): lookup gave %v, %v, malformed %d → %d",
				len(raw), decErr, r, more, before, n.stats[statMalformed])
		}
	}
}

// forwardRig is a node with four links out and a route over them, for
// calling forward directly.
func forwardRig(t *testing.T) (*Node, *Route) {
	t.Helper()
	s := New(1)
	n := s.AddNode("R", ServerCostModel())
	r := &Route{Prefix: pfx("::/0"), Kind: RouteForward}
	for i := 0; i < 4; i++ {
		out, _ := ConnectSymmetric(n, s.AddNode(fmt.Sprintf("B%d", i), HostCostModel()), netem.Config{})
		r.Nexthops = append(r.Nexthops, Nexthop{Iface: out})
	}
	return n, r
}

// TestForwardMalformedAsDecode: forward reads the header in place and
// refuses exactly what packet.DecodeIPv4 (version 4) or DecodeIPv6
// (anything else) refused — short, wrong-version and bad-IHL headers —
// and transmits the rest.
func TestForwardMalformedAsDecode(t *testing.T) {
	n, r := forwardRig(t)
	v6 := addrPacket(t, aAddr, bAddr, 0)
	v4 := addrPacket(t, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.1"), 0)
	ihl := func(raw []byte, words byte, size int) []byte {
		out := append([]byte(nil), raw...)
		out = append(out, make([]byte, 8)...)[:size]
		out[0] = 4<<4 | words
		return out
	}
	version := func(raw []byte, v byte) []byte {
		out := append([]byte(nil), raw...)
		out[0] = v<<4 | out[0]&0x0f
		return out
	}
	cases := [][]byte{
		nil, v6[:1], v6[:39], v6[:40], v6,
		version(v6, 0), version(v6, 5), version(v6, 15),
		v4[:1], v4[:19], v4[:20], v4,
		ihl(v4, 4, 20), ihl(v4, 6, 20), ihl(v4, 6, 23), ihl(v4, 6, 24), ihl(v4, 15, 60),
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 3000; i++ {
		raw := make([]byte, rng.Intn(64))
		rng.Read(raw)
		if len(raw) > 0 {
			raw[0] = []byte{0, 4, 5, 6, 15}[rng.Intn(5)]<<4 | raw[0]&0x0f
		}
		cases = append(cases, raw)
	}
	for _, raw := range cases {
		var err error
		if packet.IPVersion(raw) == 4 {
			_, err = packet.DecodeIPv4(raw)
		} else {
			_, err = packet.DecodeIPv6(raw)
		}
		// A local packet is exempt from the hop limit, so every header
		// forward accepts is transmitted.
		h := &hop{raw: raw, meta: PacketMeta{Local: true}}
		before := n.stats[statMalformed]
		n.forward(r, h)
		dropped := n.stats[statMalformed] - before
		if (err != nil) != (dropped == 1) || (err == nil) != (h.op == commitTransmit) {
			t.Fatalf("% x: Decode says %v; forward dropped %d, verdict %d", raw, err, dropped, h.op)
		}
	}
}

// TestForwardChoosesAsSelectPath: the ECMP and backup choice forward
// makes from the addresses where they lie is the one SelectPath makes
// from netip addresses, for IPv6 and IPv4 packets, with every member
// up, with some down, and on the weighted backup once all are.
func TestForwardChoosesAsSelectPath(t *testing.T) {
	n, r := forwardRig(t)
	backup := &Backup{Weights: []uint32{3, 1}}
	for i := 0; i < 2; i++ {
		out, _ := ConnectSymmetric(n, n.Sim.AddNode(fmt.Sprintf("C%d", i), HostCostModel()), netem.Config{})
		backup.Nexthops = append(backup.Nexthops, Nexthop{Iface: out})
	}
	r.Backup = backup
	rng := rand.New(rand.NewSource(41))
	for _, down := range [][]int{nil, {1}, {0, 2}, {0, 1, 2}, {0, 1, 2, 3}} {
		for _, i := range down {
			r.Nexthops[i].Iface.Fail()
		}
		spread := map[*Iface]bool{}
		for i := 0; i < 2000; i++ {
			src, dst := drawAddr(rng, false), drawAddr(rng, false)
			label := rng.Uint32() & 0xfffff
			raw := addrPacket(t, src, dst, label)
			if packet.IPVersion(raw) == 4 {
				label = 0
			}
			ps, _ := packet.SrcAddr(raw)
			pd, _ := packet.DstAddr(raw)
			want, wantBackup := r.SelectPath(ps, pd, label)
			h := &hop{raw: raw}
			before := n.stats[statBackupTx]
			n.forward(r, h)
			if h.op != commitTransmit || h.iface != want.Iface || (n.stats[statBackupTx] > before) != wantBackup {
				t.Fatalf("down %v, %v → %v label %#x: forward chose %v (backup %v), SelectPath %v (backup %v)",
					down, ps, pd, label, h.iface, n.stats[statBackupTx] > before, want.Iface, wantBackup)
			}
			spread[h.iface] = true
		}
		want := len(r.Nexthops) - len(down)
		if want == 0 {
			want = len(backup.Nexthops)
		}
		if len(spread) != want {
			t.Errorf("down %v: %d interfaces chosen, want %d", down, len(spread), want)
		}
		for _, i := range down {
			r.Nexthops[i].Iface.Restore()
		}
	}
}

// hopRig is one node, R, taking one packet at a time on its link from A:
// the packet goes into R's receive ring (the CPU is idle, so it is routed
// at once), its commit runs, and the delivery that schedules at the next
// node is taken off the queue unexecuted. A hop is R's work alone.
type hopRig struct {
	s        *Sim
	r        *Node
	in       *Iface
	outs     []*Iface
	pkt, buf []byte
	// vary rewrites the low byte of the flow label per hop.
	vary bool
}

var hopKinds = []string{"forward", "ecmp", "end", "local"}

// newHopRig builds the rig for one of hopKinds: plain forwarding on a
// one-nexthop route, ECMP over four, static End towards a one-nexthop
// route, or local delivery to a UDP listener.
func newHopRig(kind string) *hopRig {
	s := New(1)
	a := s.AddNode("A", HostCostModel())
	r := s.AddNode("R", ServerCostModel())
	rAddr := netip.MustParseAddr("2001:db8:aa::1")
	r.AddAddress(rAddr)
	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * Microsecond}
	_, in := ConnectSymmetric(a, r, link)
	g := &hopRig{s: s, r: r, in: in}
	for i := 0; i < 4; i++ {
		out, _ := ConnectSymmetric(r, s.AddNode(fmt.Sprintf("B%d", i), HostCostModel()), link)
		g.outs = append(g.outs, out)
	}
	toB := &Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: g.outs[0]}}}
	payload := packet.WithPayload(make([]byte, 64))
	switch kind {
	case "forward":
		g.pkt = mustPkt(packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), payload))
	case "ecmp":
		toB.Nexthops = nil
		for _, out := range g.outs {
			toB.Nexthops = append(toB.Nexthops, Nexthop{Iface: out})
		}
		g.pkt = mustPkt(packet.BuildPacket(aAddr, bAddr, packet.WithUDP(1, 7), payload))
		g.vary = true
	case "end":
		r.AddRoute(&Route{Prefix: netip.PrefixFrom(rSID, 128), Kind: RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
		g.pkt = mustPkt(packet.BuildPacket(aAddr, rSID, packet.WithSRH(packet.NewSRH([]netip.Addr{rSID, bAddr})),
			packet.WithUDP(1, 7), payload))
	case "local":
		r.HandleUDP(7, func(*Node, *packet.Packet, *PacketMeta) {})
		g.pkt = mustPkt(packet.BuildPacket(aAddr, rAddr, packet.WithUDP(1, 7), payload))
	default:
		panic("unknown hop kind " + kind)
	}
	r.AddRoute(toB)
	g.buf = make([]byte, len(g.pkt))
	return g
}

// hop takes packet i through R.
func (g *hopRig) hop(i int) {
	copy(g.buf, g.pkt)
	if g.vary {
		g.buf[3] = byte(i)
	}
	g.r.deliver(g.buf, 0, false, g.in)
	g.s.Step() // the commit
	sh := g.r.shard
	for sh.q.len() > 0 {
		if e := sh.q.pop(); e.slot != noSlot {
			sh.q.takeDeliver(e.slot)
		}
	}
}

// TestHopZeroAlloc pins BenchmarkHop's rows at zero allocations per hop
// and checks that each row's packets do what the row says: leave on the
// route's interfaces (all four for ecmp) or reach the listener.
func TestHopZeroAlloc(t *testing.T) {
	for _, kind := range hopKinds {
		g := newHopRig(kind)
		for i := 0; i < 64; i++ {
			g.hop(i) // grow the ring and the queue
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() { g.hop(i); i++ }); allocs != 0 {
			t.Errorf("%s: %v allocs per hop, want 0", kind, allocs)
		}
		hops := uint64(64 + 1000 + 1) // AllocsPerRun runs once more to warm up
		var tx uint64
		used := 0
		for _, out := range g.outs {
			tx += out.TxPackets
			if out.TxPackets > 0 {
				used++
			}
		}
		c := g.r.Counters()
		switch {
		case kind == "local" && (c["udp_delivered"] != hops || tx != 0):
			t.Errorf("local: %d delivered, %d sent, want %d and 0", c["udp_delivered"], tx, hops)
		case kind != "local" && tx != hops:
			t.Errorf("%s: %d of %d hops sent (counters %v)", kind, tx, hops, c)
		case kind == "ecmp" && used != len(g.outs):
			t.Errorf("ecmp: %d of %d nexthops used", used, len(g.outs))
		case kind != "ecmp" && kind != "local" && used != 1:
			t.Errorf("%s: %d nexthops used, want 1", kind, used)
		}
	}
}

// BenchmarkHop is the per-hop layer row from inside the package: ns/op
// is one packet through one node — ring push, routing, commit, link
// transmit — for plain forwarding, ECMP over four members, static End
// and local delivery.
func BenchmarkHop(b *testing.B) {
	for _, kind := range hopKinds {
		b.Run(kind, func(b *testing.B) {
			g := newHopRig(kind)
			for i := 0; i < 64; i++ {
				g.hop(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.hop(i)
			}
		})
	}
}
