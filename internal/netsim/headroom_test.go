package netsim

import (
	"bytes"
	"net/netip"
	"testing"
	"unsafe"

	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// Headroom through the node: a packet built with a reserve is
// encapsulated in place at a tunnel ingress one hop away, and an
// allocation that is not (or no longer) the packet's is never written.

// TestRxItemSize pins the receive-ring item at 48 bytes. A saturated
// node's ring holds Cost.RxRingPackets of them and is about 60 % of the
// live heap of the benchmark's overload workload: carrying the
// allocation as a second slice next to the packet (72 bytes) cost 9–13 %
// of live_heap_mb there and on lab3-end, against a 15 % bound. The item
// therefore holds the allocation in place of the packet, plus an offset.
func TestRxItemSize(t *testing.T) {
	if got := unsafe.Sizeof(rxItem{}); got != 48 {
		t.Fatalf("rxItem is %d bytes, want 48", got)
	}
}

const canary = 0xa5

var tunnelDst = netip.MustParseAddr("2001:db8:b::2")

// tunnelTopo is lineTopo with R as tunnel ingress (H.Encaps behind a
// one-segment SRH, 64 bytes of outer headers) and B as egress. tapped
// collects what R puts on the wire towards B, not copied.
func tunnelTopo(s *Sim) (a, r, b *Node, tapped *[][]byte) {
	a, r, b = lineTopo(s)
	rbIf := r.Ifaces()[1]
	r.AddRoute(&Route{
		Prefix:   pfx("2001:db8:b::/48"),
		Kind:     RouteSeg6Encap,
		SRH:      packet.NewSRH([]netip.Addr{bAddr}),
		Nexthops: []Nexthop{{Iface: rbIf}},
	})
	b.AddRoute(&Route{
		Prefix:    netip.PrefixFrom(bAddr, 128),
		Kind:      RouteSeg6Local,
		Behaviour: &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: MainTable},
	})
	b.AddAddress(tunnelDst)
	tapped = new([][]byte)
	rbIf.Tap = func(raw []byte) { *tapped = append(*tapped, raw) }
	return a, r, b, tapped
}

// reserved builds the test datagram behind reserve canary bytes.
func reserved(t *testing.T, reserve int) []byte {
	t.Helper()
	buf, err := packet.BuildPacketIn(func(size int) []byte { return make([]byte, size) }, reserve, aAddr, tunnelDst,
		packet.WithUDP(1, 5), packet.WithPayload([]byte("thru-tunnel")))
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, bytes.Repeat([]byte{canary}, reserve))
	return buf
}

// outputReserved sends buf[reserve:] from n with buf, which the caller
// made, as its allocation: the headroom travels, the buffer is nobody's
// to list. No sender outside the tests needs this — one that wants
// headroom builds in Node.PacketBuf and sends with OutputBuf.
func outputReserved(n *Node, buf []byte, reserve int) { n.output(buf[reserve:], buf, false) }

func TestEncapInPlaceAtTunnelIngress(t *testing.T) {
	run := func(reserve int) (buf, onWire []byte, delivered string) {
		s := New(1)
		a, _, b, tapped := tunnelTopo(s)
		b.HandleUDP(5, func(n *Node, p *packet.Packet, meta *PacketMeta) {
			delivered = string(p.Raw[p.L4Off+packet.UDPHeaderLen:])
		})
		buf = reserved(t, reserve)
		outputReserved(a, buf, reserve)
		s.Run()
		if len(*tapped) != 1 {
			t.Fatalf("reserve %d: R transmitted %d packets, want 1", reserve, len(*tapped))
		}
		return buf, (*tapped)[0], delivered
	}
	_, want, got := run(0)
	if got != "thru-tunnel" {
		t.Fatalf("no reserve: delivered %q", got)
	}
	const need = packet.IPv6HeaderLen + packet.SRHFixedLen + 16
	for _, reserve := range []int{need - 1, need, need + 8} {
		buf, onWire, got := run(reserve)
		if got != "thru-tunnel" || !bytes.Equal(onWire, want) {
			t.Errorf("reserve %d: delivered %q, on the wire\n got  %x\n want %x", reserve, got, onWire, want)
		}
		if inPlace := isTail(buf, onWire); inPlace != (reserve >= need) {
			t.Errorf("reserve %d: encapsulated in place: %v", reserve, inPlace)
		}
		spare := reserve
		if reserve >= need {
			spare -= need
		}
		if !bytes.Equal(buf[:spare], bytes.Repeat([]byte{canary}, spare)) {
			t.Errorf("reserve %d: bytes in front of the outer header were written: %x", reserve, buf[:reserve])
		}
	}
}

// TestStaleAllocationNeverWritten is the canary: whenever the
// allocation a PacketMeta names is not the one the packet lives in —
// it is some other packet's, or the packet has been reallocated by an
// SRH insertion, a corruption or a duplication since — encapsulating
// the packet leaves that allocation byte for byte as it was.
func TestStaleAllocationNeverWritten(t *testing.T) {
	const reserve = 80 // outer headers and 16 to spare

	t.Run("another packet's", func(t *testing.T) {
		s := New(1)
		_, r, _, tapped := tunnelTopo(s)
		other := reserved(t, reserve)
		before := bytes.Clone(other)
		pkt := bytes.Clone(other[reserve:])
		r.output(pkt, other, false)
		s.Run()
		if !bytes.Equal(other, before) {
			t.Fatalf("wrote another packet's allocation:\n now    %x\n before %x", other, before)
		}
		if len(*tapped) != 1 {
			t.Fatalf("%d packets transmitted, want 1", len(*tapped))
		}
	})

	t.Run("after InsertSRH", func(t *testing.T) {
		s := New(1)
		_, r, _, tapped := tunnelTopo(s)
		buf := reserved(t, reserve)
		before := bytes.Clone(buf)
		ins, err := seg6.InsertSRH(buf[reserve:], packet.NewSRH([]netip.Addr{tunnelDst}))
		if err != nil {
			t.Fatal(err)
		}
		r.output(ins, buf, false)
		s.Run()
		if !bytes.Equal(buf, before) {
			t.Fatalf("wrote the allocation the packet had left:\n now    %x\n before %x", buf, before)
		}
		if len(*tapped) != 1 {
			t.Fatalf("%d packets transmitted, want 1", len(*tapped))
		}
	})

	t.Run("after corruption", func(t *testing.T) {
		s := New(1)
		a, r, _, tapped := tunnelTopo(s)
		a.Ifaces()[0].Qdisc().SetImpairments(1, 0, 0)
		buf := reserved(t, reserve)
		before := bytes.Clone(buf)
		outputReserved(a, buf, reserve)
		s.Run()
		if a.Counters()["tx_corrupted"] != 1 {
			t.Fatal("the packet was not corrupted")
		}
		if !bytes.Equal(buf, before) {
			t.Fatalf("the sender's allocation changed after the damaged copy left:\n now    %x\n before %x", buf, before)
		}
		// Seed 1 flips a payload bit, so R still encapsulates the copy.
		if len(*tapped) != 1 {
			t.Fatalf("%d packets transmitted, want 1 (R: %v)", len(*tapped), r.Counters())
		}
	})

	t.Run("after duplication", func(t *testing.T) {
		s := New(1)
		a, _, _, tapped := tunnelTopo(s)
		a.Ifaces()[0].Qdisc().SetImpairments(0, 1, 0)
		buf := reserved(t, reserve)
		outputReserved(a, buf, reserve)
		s.Run()
		if len(*tapped) != 2 {
			t.Fatalf("R transmitted %d packets, want the original and its duplicate", len(*tapped))
		}
		orig, dup := (*tapped)[0], (*tapped)[1]
		if !bytes.Equal(orig, dup) {
			t.Fatalf("duplicate differs on the wire\n orig %x\n dup  %x", orig, dup)
		}
		// The original rode its own allocation and was encapsulated in
		// it; the duplicate owns fresh bytes and was not.
		if !isTail(buf, orig) || isTail(buf, dup) {
			t.Fatalf("in the sender's allocation: original %v, duplicate %v", isTail(buf, orig), isTail(buf, dup))
		}
		// Never a shared byte: rewrite all of one, the other must not move.
		want := bytes.Clone(dup)
		for i := range buf {
			buf[i] ^= 0xff
		}
		if !bytes.Equal(dup, want) {
			t.Fatal("the duplicate shares bytes with the original's allocation")
		}
	})
}
