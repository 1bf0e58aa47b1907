package netsim

import (
	"bytes"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// The rules of the shards' free lists of packet buffers (package
// comment, "Packet buffers"), each broken on purpose at least once while
// these were written. Sizes are chosen so that a buffer that must not be
// listed would be if the rule were not kept: its capacity is one a list
// exists for, and that list has room.

// poisoned makes release overwrite the buffer for the length of the test.
func poisoned(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

// datagram is a UDP packet A → dst:7 of exactly size bytes.
func datagram(t *testing.T, dst netip.Addr, size int) []byte {
	t.Helper()
	payload := bytes.Repeat([]byte("listed! "), size/8+1)[:size-packet.IPv6HeaderLen-packet.UDPHeaderLen]
	raw, err := packet.BuildPacket(aAddr, dst, packet.WithUDP(1000, 7), packet.WithPayload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sendListed sends a copy of tmpl from n in a buffer of n's list, and
// returns that buffer.
func sendListed(n *Node, tmpl []byte) []byte {
	buf := n.PacketBuf(len(tmpl))
	copy(buf, tmpl)
	n.OutputBuf(buf, 0)
	return buf
}

// held lists the buffers in s's free lists.
func held(s *Sim) [][]byte {
	var out [][]byte
	for _, sh := range s.shards {
		for _, cl := range sh.bufs {
			out = append(out, cl.free...)
		}
	}
	return out
}

// sameAlloc reports whether a and b start at the same byte.
func sameAlloc(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// makeRoom allocates n buffers of size from node's list and keeps them,
// so that the list of that capacity exists and accepts n releases.
func makeRoom(node *Node, size, n int) {
	for i := 0; i < n; i++ {
		node.PacketBuf(size)
	}
}

// releasing registers a handler on b:7 that records a copy of each
// packet and where it lay, then releases it.
func releasing(b *Node) (seen *[][]byte, at *[][]byte) {
	seen, at = new([][]byte), new([][]byte)
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		*seen = append(*seen, bytes.Clone(p.Raw))
		*at = append(*at, p.Raw)
		n.Release(meta)
	})
	return seen, at
}

// TestBufListRoundTrip is the loop itself: a packet sent in a listed
// buffer and released at the far end is the next get's buffer, poisoned
// meanwhile, and the run's statistics say so.
func TestBufListRoundTrip(t *testing.T) {
	poisoned(t)
	s := New(1)
	a, _, b := lineTopo(s)
	seen, _ := releasing(b)
	tmpl := datagram(t, bAddr, 128)
	first := sendListed(a, tmpl)
	s.Run()
	if len(*seen) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*seen))
	}
	if got := held(s); len(got) != 1 || !sameAlloc(got[0], first) {
		t.Fatalf("the free lists hold %d buffers, want the one that was sent", len(got))
	}
	second := a.PacketBuf(120)
	if !sameAlloc(second, first) || len(second) != 120 || cap(second) != 128 {
		t.Fatalf("the next get of that class is not the released buffer (len %d cap %d)", len(second), cap(second))
	}
	if !bytes.Equal(second, bytes.Repeat([]byte{0xDB}, 120)) {
		t.Fatalf("released buffer not poisoned: %x", second)
	}
	if st := s.EngineStats(); st.BufGets != 2 || st.BufReuses != 1 {
		t.Fatalf("BufGets %d BufReuses %d, want 2 and 1", st.BufGets, st.BufReuses)
	}
	if big := a.PacketBuf(maxBufCap + 1); cap(big) != maxBufCap+1 {
		t.Fatalf("a buffer above the largest class has capacity %d", cap(big))
	}
}

// TestBufListNeverTakesCallerMade (rule 1): a buffer the caller made,
// sent through Output, with headroom (outputReserved) and a second Output
// of the same slice to a handler that releases, is never in a list, never
// handed out by the next thousand gets, and reads after the run as the
// receiver saw it.
func TestBufListNeverTakesCallerMade(t *testing.T) {
	poisoned(t)
	const size, reserve = 128, 64
	s := New(1)
	a, _, b := lineTopo(s)
	seen, _ := releasing(b)
	makeRoom(a, size, 4)
	makeRoom(a, reserve+size, 4)

	plain := datagram(t, bAddr, size)
	withRoom := make([]byte, reserve+size)
	copy(withRoom[reserve:], plain)

	a.Output(plain)
	outputReserved(a, withRoom, reserve)
	s.Run()
	a.Output(plain) // the caller kept the slice and sends it again
	s.Run()
	if len(*seen) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(*seen))
	}
	if got := held(s); len(got) != 0 {
		t.Fatalf("%d caller-made buffers entered a free list", len(got))
	}
	if !bytes.Equal(plain, (*seen)[2]) || !bytes.Equal(withRoom[reserve:], (*seen)[1]) {
		t.Fatalf("a caller-made buffer changed after its packet was released:\n %x\n %x", plain, withRoom)
	}
	for i := 0; i < 1000; i++ {
		for _, sz := range []int{size, reserve + size} {
			if got := a.PacketBuf(sz); sameAlloc(got, plain) || sameAlloc(got, withRoom) {
				t.Fatalf("get %d handed out a caller-made buffer", i)
			}
		}
	}
}

// TestBufListNeverTakesCopies (rule 1): what the link copies — a
// corrupted packet, a duplicate — and a packet a node moved to a new
// allocation are not the bytes that were handed out, and their release
// lists nothing.
func TestBufListNeverTakesCopies(t *testing.T) {
	const size = 128
	run := func(t *testing.T, sendSize int, prepare func(a, r *Node)) (s *Sim, sent []byte, at [][]byte) {
		poisoned(t)
		s = New(1)
		a, r, b := lineTopo(s)
		_, where := releasing(b)
		makeRoom(a, size, 4)
		prepare(a, r)
		sent = sendListed(a, datagram(t, bAddr, sendSize))
		s.Run()
		return s, sent, *where
	}
	unlisted := func(t *testing.T, s *Sim, p []byte) {
		t.Helper()
		for _, b := range held(s) {
			if sameAlloc(b, p) {
				t.Fatalf("a %d-byte copy of capacity %d entered a free list", len(p), cap(p))
			}
		}
	}

	t.Run("corrupted", func(t *testing.T) {
		s, _, at := run(t, size, func(a, _ *Node) { a.Ifaces()[0].Qdisc().SetImpairments(1, 0, 0) })
		if len(at) != 1 {
			t.Skipf("the damaged copy was not delivered (%d packets)", len(at))
		}
		unlisted(t, s, at[0])
	})
	t.Run("duplicated", func(t *testing.T) {
		s, sent, at := run(t, size, func(a, _ *Node) { a.Ifaces()[0].Qdisc().SetImpairments(0, 1, 0) })
		if len(at) != 2 {
			t.Fatalf("delivered %d packets, want the original and its duplicate", len(at))
		}
		if got := held(s); len(got) != 1 || !sameAlloc(got[0], sent) {
			t.Fatalf("the free lists hold %d buffers, want only the original's", len(got))
		}
	})
	t.Run("reallocated by InsertSRH", func(t *testing.T) {
		// One segment is 24 bytes of SRH: the packet grows into the class
		// that has room.
		s, sent, at := run(t, size-24, func(_, r *Node) {
			r.AddRoute(&Route{
				Prefix: netip.PrefixFrom(bAddr, 128), Kind: RouteSeg6Encap, Mode: EncapModeInline,
				SRH: packet.NewSRH([]netip.Addr{bAddr}), Nexthops: []Nexthop{{Iface: r.Ifaces()[1]}},
			})
		})
		if len(at) != 1 || len(at[0]) != size || sameAlloc(at[0], sent) {
			t.Fatalf("delivered %d packets; the first is %d bytes, in the sender's buffer: %v", len(at), len(at[0]), sameAlloc(at[0], sent))
		}
		unlisted(t, s, at[0])
	})
}

// TestBufListReleaseAfterReentrantOutput (rule 2): a handler reached by loopback
// is handed the metadata of the very hop its own Output reuses. Sending a
// reply and then releasing — twice — frees nothing that is in flight, and
// on the ordinary path a second release lists nothing a second time.
func TestBufListReleaseAfterReentrantOutput(t *testing.T) {
	poisoned(t)
	s := New(1)
	a, _, b := lineTopo(s)
	seen, _ := releasing(b)
	reply := datagram(t, bAddr, 128)
	var inFlight []byte
	a.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		inFlight = sendListed(n, reply)
		n.Release(meta)
		n.Release(meta)
		for _, h := range held(s) {
			if sameAlloc(h, inFlight) {
				t.Error("released the buffer of the reply just sent")
			}
		}
	})
	sendListed(a, datagram(t, aAddr, 128))
	s.Run()
	if len(*seen) != 1 || !bytes.Equal((*seen)[0][8:], reply[8:]) {
		t.Fatalf("the reply did not arrive as sent (%d packets)", len(*seen))
	}

	// The packet sent from inside the handler may itself be for this
	// node, and its handler one that keeps what it was given: the first
	// handler's release, late, is not a release of that.
	var kept []byte
	toSelf := datagram(t, aAddr, 128)
	a.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		if kept != nil {
			return
		}
		if bytes.Equal(p.Raw, toSelf) {
			kept = p.Raw
			return
		}
		sendListed(n, toSelf) // delivered, and kept, before this returns
		n.Release(meta)
	})
	sendListed(a, datagram(t, aAddr, 136))
	s.Run()
	if !bytes.Equal(kept, toSelf) {
		t.Fatalf("a packet its handler kept was released under it: %x", kept)
	}
	for _, h := range held(s) {
		if sameAlloc(h, kept) {
			t.Fatal("a packet its handler kept is in the free list")
		}
	}

	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		n.Release(meta)
		n.Release(meta)
	})
	sendListed(a, reply)
	s.Run()
	got := held(s)
	for i := range got {
		for j := range got[:i] {
			if sameAlloc(got[i], got[j]) {
				t.Fatal("a buffer is in the free list twice")
			}
		}
	}
}

// oneWay sends packets packets of 128 bytes S → T over a direct link, a
// new one every 100 ns, T releasing each, and returns the sim and the
// largest number of them that were alive at once. With split, S and T
// are in different shards; T's shard has allocated one buffer of that
// capacity itself, so that it has a list to keep too much in.
func oneWay(t *testing.T, packets int, split bool) (s *Sim, peak int) {
	t.Helper()
	s = New(1)
	src := s.AddNode("S", HostCostModel())
	dst := s.AddNode("T", HostCostModel())
	src.AddAddress(aAddr)
	dst.AddAddress(bAddr)
	sIf, _ := ConnectSymmetric(src, dst, netem.Config{RateBps: 100_000_000_000, DelayNs: 20 * Microsecond})
	src.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: sIf}}})
	if split {
		if err := s.SetShards(2); err != nil {
			t.Fatal(err)
		}
	}
	makeRoom(dst, 128, 1)

	// alive is touched by S's events and T's, which a split run executes
	// on two goroutines: it is only read for the unsplit run.
	alive := 0
	dst.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		if !split {
			alive--
		}
		n.Release(meta)
	})
	tmpl := datagram(t, bAddr, 128)
	sent := 0
	var tick func()
	tick = func() {
		sendListed(src, tmpl)
		if sent++; !split {
			if alive++; alive > peak {
				peak = alive
			}
		}
		if sent < packets {
			src.After(100, tick)
		}
	}
	src.Schedule(0, tick)
	s.Run()
	if got := dst.Counters()["udp_delivered"]; got != uint64(packets) {
		t.Fatalf("delivered %d of %d packets", got, packets)
	}
	return s, peak
}

// TestBufListBound (rule 4): a shard keeps no more dead buffers of a
// capacity than it has allocated itself. One-way traffic into another
// shard leaves that shard holding at most the one buffer it allocated,
// not the 100,000 it released; on one shard the list never exceeds what
// was in flight at once, and nearly every get is a reuse.
func TestBufListBound(t *testing.T) {
	const packets = 100_000
	s, _ := oneWay(t, packets, true)
	if got := len(s.shards[1].bufs[0].free); got > 1 {
		t.Errorf("the receiving shard holds %d dead buffers, having allocated 1", got)
	}
	if st := s.EngineStats(); st.BufReuses != 0 {
		t.Errorf("%d gets were reuses although nothing flows back to the sender", st.BufReuses)
	}

	s, peak := oneWay(t, packets, false)
	if got := len(held(s)); got > peak+1 {
		t.Errorf("one shard holds %d dead buffers, more than the %d in flight at once plus the receiver's one", got, peak)
	}
	if st := s.EngineStats(); st.BufGets-st.BufReuses > uint64(peak)+1 {
		t.Errorf("%d of %d gets allocated, with at most %d packets in flight", st.BufGets-st.BufReuses, st.BufGets, peak)
	}
}

// TestBufListRingFull: the packets an overloaded node refuses at its
// receive ring are the bulk of an overload run's traffic, and their
// buffers go back to the list there.
func TestBufListRingFull(t *testing.T) {
	poisoned(t)
	s := New(1)
	a, r, b := lineTopo(s)
	r.Cost.RxRingPackets = 4
	releasing(b)
	tmpl := datagram(t, bAddr, 128)
	for i := 0; i < 64; i++ {
		sendListed(a, tmpl) // all in one instant: R takes one and rings four
	}
	s.Run()
	full, delivered := r.Counters()["rx_ring_full"], b.Counters()["udp_delivered"]
	if full == 0 || full+delivered != 64 {
		t.Fatalf("rx_ring_full %d, delivered %d of 64", full, delivered)
	}
	if got := len(held(s)); got != 64 {
		t.Fatalf("%d of 64 buffers came back (%d refused at the ring)", got, full)
	}
}

// TestBufListLinkRefusal: so do the buffers of packets a link's full
// queue refuses, which is where a TCP transfer's losses die.
func TestBufListLinkRefusal(t *testing.T) {
	s := New(1)
	a := s.AddNode("A", HostCostModel())
	b := s.AddNode("B", HostCostModel())
	a.AddAddress(aAddr)
	b.AddAddress(bAddr)
	aIf, _ := ConnectSymmetric(a, b, netem.Config{RateBps: 1_000_000, DelayNs: Microsecond, QueueLimit: 2})
	a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
	releasing(b)
	tmpl := datagram(t, bAddr, 128)
	for i := 0; i < 8; i++ {
		sendListed(a, tmpl)
	}
	// A refused packet's buffer is the next get's: all the refusals after
	// the first send in the buffer the one before them died in.
	if st := s.EngineStats(); aIf.TxDrops < 2 || st.BufReuses != aIf.TxDrops-1 || len(held(s)) != 1 {
		t.Fatalf("%d packets refused by the queue, %d gets reused a buffer, %d buffers listed", aIf.TxDrops, st.BufReuses, len(held(s)))
	}
}

// TestBufListProgramMovesPacket is the contract of
// Seg6LocalProgram with a program written for the purpose: what it
// stores in meta.Buf becomes the hop's allocation, and the one the
// packet arrived in is released — unless the program fails, or returns
// the packet somewhere else than in the buffer it names.
func TestBufListProgramMovesPacket(t *testing.T) {
	for _, mode := range []string{"moves", "fails", "stays"} {
		poisoned(t)
		s := New(1)
		a, r, b := lineTopo(s)
		_, at := releasing(b)
		sid := netip.MustParseAddr("fc00::1")
		a.AddRoute(&Route{Prefix: netip.PrefixFrom(sid, 128), Kind: RouteForward, Nexthops: []Nexthop{{Iface: a.Ifaces()[0]}}})
		var moved []byte
		r.AddRoute(&Route{Prefix: netip.PrefixFrom(sid, 128), Kind: RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEndBPF, BPF: movingProgram{mode: mode, moved: &moved}}})
		srh := packet.NewSRH([]netip.Addr{sid, bAddr})
		tmpl, err := packet.BuildPacket(aAddr, sid, packet.WithSRH(srh), packet.WithUDP(1, 7), packet.WithPayload(make([]byte, 32)))
		if err != nil {
			t.Fatal(err)
		}
		sent := sendListed(a, tmpl)
		s.Run()
		got := held(s)
		switch mode {
		case "fails":
			if len(*at) != 0 || len(got) != 0 {
				t.Fatalf("failing program: %d packets delivered, %d buffers listed", len(*at), len(got))
			}
			if bytes.Contains(sent, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
				t.Fatal("failing program: the packet's own buffer was released")
			}
		case "stays":
			// The packet went on in the sender's buffer while the hop
			// carried the program's: nothing proves either dead.
			if len(*at) != 1 || !sameAlloc((*at)[0], sent) || len(got) != 0 {
				t.Fatalf("program naming a buffer the packet is not in: %d packets delivered, %d buffers listed", len(*at), len(got))
			}
			if bytes.Contains(sent, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
				t.Fatal("program naming a buffer the packet is not in: the packet's own buffer was released")
			}
		default:
			if len(*at) != 1 || !sameAlloc((*at)[0], moved) {
				t.Fatalf("%d packets delivered, the first in the program's buffer: %v", len(*at), len(*at) == 1 && sameAlloc((*at)[0], moved))
			}
			if len(got) != 2 || !sameAlloc(got[0], sent) || !sameAlloc(got[1], moved) {
				t.Fatalf("the free list holds %d buffers, want the sender's (released at R) and the program's (released at B)", len(got))
			}
		}
	}
}

// movingProgram is End done by copying the packet into a listed buffer
// ("moves"), the same giving up with an error ("fails"), or End done in
// place by a program that names a listed buffer all the same ("stays").
type movingProgram struct {
	mode  string
	moved *[]byte
}

func (m movingProgram) RunSeg6Local(n *Node, raw []byte, meta *PacketMeta) (seg6.Result, int64, error) {
	out := n.PacketBuf(len(raw))
	copy(out, raw)
	if m.mode == "stays" {
		meta.Buf = out
		out = raw
	}
	res, err := seg6.Apply(&seg6.Behaviour{Action: seg6.ActionEnd}, out)
	if err != nil || m.mode == "fails" {
		return seg6.Result{Verdict: seg6.VerdictDrop}, 0, seg6.ErrNoSRH
	}
	if m.mode == "moves" {
		*m.moved = out
		meta.Buf = out
	}
	return res, 0, nil
}
