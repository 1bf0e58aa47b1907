package seg6

// Golden packet-vector conformance suite for the registry-driven
// behaviour set: every registered behaviour gets at least one vector
// asserting the verdict and the on-the-wire shape of the result, the
// RFC 8986 flavor modifiers are exercised on the End family, the
// upper-layer check of the decap family (drop while SegmentsLeft > 0
// unless USD) is pinned as a regression, and the registry dispatch is
// compared differentially against a verbatim copy of the legacy
// switch-based dispatch it replaced.

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"srv6bpf/internal/packet"
)

var (
	v4a = netip.MustParseAddr("10.1.0.1")
	v4b = netip.MustParseAddr("10.2.0.1")
)

// innerV6 builds a plain IPv6 UDP packet.
func innerV6(t *testing.T) []byte {
	t.Helper()
	raw, err := packet.BuildPacket(hostA, hostB, packet.WithUDP(10, 20), packet.WithPayload([]byte("inner-payload")))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// innerV4 builds a plain IPv4 UDP packet.
func innerV4(t *testing.T) []byte {
	t.Helper()
	raw, err := packet.BuildIPv4UDP(v4a, v4b, 10, 20, []byte("inner-payload"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// innerL2 builds an Ethernet frame carrying the v6 inner packet.
func innerL2(t *testing.T) []byte {
	t.Helper()
	return packet.BuildEthernet([6]byte{2, 0, 0, 0, 0, 2}, [6]byte{2, 0, 0, 0, 0, 1}, 0x86dd, innerV6(t))
}

// encapAt wraps inner in an outer IPv6+SRH whose SegmentsLeft is sl
// (segments lists the SRH path in travel order; sl must be reachable).
func encapAt(t *testing.T, inner []byte, sl uint8, segs ...netip.Addr) []byte {
	t.Helper()
	srh := packet.NewSRH(segs)
	out, err := Encap(inner, hostA, srh)
	if err != nil {
		t.Fatal(err)
	}
	info, err := packet.ParseInfo(out)
	if err != nil {
		t.Fatal(err)
	}
	if sl > info.SegmentsLeft {
		t.Fatalf("encapAt: sl %d unreachable (built %d)", sl, info.SegmentsLeft)
	}
	out[info.SRHOff+packet.SRHOffSegmentsLeft] = sl
	return out
}

// encapL2At is encapAt for Ethernet payloads.
func encapL2At(t *testing.T, frame []byte, sl uint8, segs ...netip.Addr) []byte {
	t.Helper()
	out, err := EncapL2(frame, hostA, packet.NewSRH(segs))
	if err != nil {
		t.Fatal(err)
	}
	info, err := packet.ParseInfo(out)
	if err != nil {
		t.Fatal(err)
	}
	out[info.SRHOff+packet.SRHOffSegmentsLeft] = sl
	return out
}

// TestGoldenVectors is the per-behaviour conformance table: input
// wire bytes in, verdict and output wire shape out.
func TestGoldenVectors(t *testing.T) {
	oif := &struct{ name string }{"dummy-iface"}
	vectors := []struct {
		name  string
		b     *Behaviour
		build func(t *testing.T) []byte
		check func(t *testing.T, res Result, err error)
	}{
		{
			name:  "End/advance",
			b:     &Behaviour{Action: ActionEnd},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForward {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				if p.IPv6.Dst != sid2 || p.SRH.SegmentsLeft != 1 {
					t.Errorf("dst=%v sl=%d", p.IPv6.Dst, p.SRH.SegmentsLeft)
				}
			},
		},
		{
			name:  "End.X/advance-to-nexthop",
			b:     &Behaviour{Action: ActionEndX, Nexthop: nh1},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardNexthop || res.Nexthop != nh1 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name:  "End.T/advance-to-table",
			b:     &Behaviour{Action: ActionEndT, Table: 42},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardTable || res.Table != 42 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name: "End.DX2/deliver",
			b:    &Behaviour{Action: ActionEndDX2},
			build: func(t *testing.T) []byte {
				return encapL2At(t, innerL2(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictDeliverL2 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				eth, err := packet.DecodeEthernet(res.Pkt)
				if err != nil || eth.EtherType != 0x86dd {
					t.Errorf("inner frame: %+v %v", eth, err)
				}
			},
		},
		{
			name: "End.DX2/oif",
			b:    &Behaviour{Action: ActionEndDX2, OIF: oif},
			build: func(t *testing.T) []byte {
				return encapL2At(t, innerL2(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardOIF {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name: "End.DX6/decap",
			b:    &Behaviour{Action: ActionEndDX6, Nexthop: nh1},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV6(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardNexthop || res.Nexthop != nh1 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				if p == nil || p.IPv6.Dst != hostB {
					t.Error("inner packet mangled")
				}
			},
		},
		{
			name: "End.DX4/decap",
			b:    &Behaviour{Action: ActionEndDX4, Nexthop: nh1},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV4(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardNexthop {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				h, err := packet.DecodeIPv4(res.Pkt)
				if err != nil || h.Dst != v4b {
					t.Errorf("inner v4: %+v %v", h, err)
				}
			},
		},
		{
			name: "End.DT6/decap-to-table",
			b:    &Behaviour{Action: ActionEndDT6, Table: 7},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV6(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardTable || res.Table != 7 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name: "End.DT4/decap-to-table",
			b:    &Behaviour{Action: ActionEndDT4, Table: 7},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV4(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardTable || res.Table != 7 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				if packet.IPVersion(res.Pkt) != 4 {
					t.Error("inner is not IPv4")
				}
			},
		},
		{
			name: "End.DT46/decap-v4",
			b:    &Behaviour{Action: ActionEndDT46, Table: 7},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV4(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardTable || packet.IPVersion(res.Pkt) != 4 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name: "End.DT46/decap-v6",
			b:    &Behaviour{Action: ActionEndDT46, Table: 7},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV6(t), 0, sid1)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardTable || packet.IPVersion(res.Pkt) != 6 {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name: "End.DX4/wrong-inner-drops",
			b:    &Behaviour{Action: ActionEndDX4, Nexthop: nh1},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV6(t), 0, sid1) // v6 inner into DX4
			},
			check: func(t *testing.T, res Result, err error) {
				if res.Verdict != VerdictDrop || !errors.Is(err, ErrNotEncapsulated) {
					t.Fatalf("res=%+v err=%v", res, err)
				}
			},
		},
		{
			name:  "End.B6/insert",
			b:     &Behaviour{Action: ActionEndB6, SRH: packet.NewSRH([]netip.Addr{sid2, sid1})},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForward {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				if p.IPv6.Dst != sid2 || p.L4Proto != packet.ProtoUDP {
					t.Errorf("outer: %s", p.Summary())
				}
			},
		},
		{
			name:  "End.B6.Encaps/push-policy",
			b:     &Behaviour{Action: ActionEndB6Encap, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: sid1},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForward {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				if p.IPv6.Dst != sid2 || p.L4Proto != packet.ProtoIPv6 {
					t.Fatalf("outer: %s", p.Summary())
				}
			},
		},
		{
			name:  "End.B6.Encaps.Red/single-seg-no-srh",
			b:     &Behaviour{Action: ActionEndB6Encap, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: sid1, Reduced: true},
			build: mkSRPacket,
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForward {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				// Reduced single-segment policy: plain IPv6-in-IPv6,
				// first segment only in the outer destination.
				if p.IPv6.Dst != sid2 || p.SRH != nil || p.L4Proto != packet.ProtoIPv6 {
					t.Fatalf("outer: %s", p.Summary())
				}
			},
		},
		{
			name: "End.AS/outbound-decap",
			b:    &Behaviour{Action: ActionEndAS, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: sid1, OIF: oif},
			build: func(t *testing.T) []byte {
				// Mid-chain: SegmentsLeft is still 2 — the proxy decaps anyway.
				return encapAt(t, innerV6(t), 2, sid1, sid2, hostB)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardOIF {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				if p == nil || p.SRH != nil || p.IPv6.Dst != hostB {
					t.Error("VNF-side packet still carries SR state")
				}
			},
		},
		{
			name: "End.AM/outbound-masquerade",
			b:    &Behaviour{Action: ActionEndAM, OIF: oif},
			build: func(t *testing.T) []byte {
				return encapAt(t, innerV6(t), 1, sid1, sid2)
			},
			check: func(t *testing.T, res Result, err error) {
				if err != nil || res.Verdict != VerdictForwardOIF {
					t.Fatalf("res=%+v err=%v", res, err)
				}
				p, _ := packet.Parse(res.Pkt)
				// Masqueraded: DA is the final destination (wire
				// Segments[0]), SRH kept with SL consumed.
				if p.IPv6.Dst != sid2 || p.SRH == nil || p.SRH.SegmentsLeft != 0 {
					t.Errorf("masqueraded: %s", p.Summary())
				}
			},
		},
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			raw := v.build(t)
			res, err := Apply(v.b, raw)
			v.check(t, res, err)
		})
	}
}

// TestEndFlavors pins the PSP/USP/USD modifiers of the End family.
func TestEndFlavors(t *testing.T) {
	t.Run("PSP-pops-on-last-advance", func(t *testing.T) {
		raw := encapAt(t, innerV6(t), 1, sid1, sid2)
		res, err := Apply(&Behaviour{Action: ActionEnd, Flavors: FlavorPSP}, raw)
		if err != nil || res.Verdict != VerdictForward {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		p, _ := packet.Parse(res.Pkt)
		if p.SRH != nil || p.IPv6.Dst != sid2 || p.L4Proto != packet.ProtoIPv6 {
			t.Errorf("after PSP: %s", p.Summary())
		}
	})
	t.Run("PSP-keeps-srh-mid-path", func(t *testing.T) {
		raw := mkSRPacket(t) // SL 2 -> 1, not last
		res, err := Apply(&Behaviour{Action: ActionEnd, Flavors: FlavorPSP}, raw)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := packet.Parse(res.Pkt)
		if p.SRH == nil || p.SRH.SegmentsLeft != 1 {
			t.Errorf("mid-path PSP: %s", p.Summary())
		}
	})
	t.Run("USP-pops-exhausted-srh", func(t *testing.T) {
		raw := encapAt(t, innerV6(t), 0, sid1, sid2)
		res, err := Apply(&Behaviour{Action: ActionEnd, Flavors: FlavorUSP}, raw)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := packet.Parse(res.Pkt)
		// USP strips only the SRH; the outer IPv6 header stays.
		if p.SRH != nil || p.L4Proto != packet.ProtoIPv6 {
			t.Errorf("after USP: %s", p.Summary())
		}
	})
	t.Run("USD-decapsulates", func(t *testing.T) {
		inner := innerV6(t)
		raw := encapAt(t, inner, 0, sid1, sid2)
		res, err := Apply(&Behaviour{Action: ActionEnd, Flavors: FlavorUSD}, raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Pkt, inner) {
			t.Error("USD result differs from the original inner packet")
		}
	})
	t.Run("unflavored-drops-exhausted", func(t *testing.T) {
		raw := encapAt(t, innerV6(t), 0, sid1, sid2)
		res, err := Apply(&Behaviour{Action: ActionEnd}, raw)
		if res.Verdict != VerdictDrop || !errors.Is(err, ErrZeroSegsLeft) {
			t.Fatalf("res=%+v err=%v", res, err)
		}
	})
	t.Run("flavor-validation", func(t *testing.T) {
		// The decap family accepts USD only.
		if err := Validate(&Behaviour{Action: ActionEndDT6, Flavors: FlavorPSP}); !errors.Is(err, ErrBadBehaviour) {
			t.Errorf("DT6+PSP: %v", err)
		}
		if err := Validate(&Behaviour{Action: ActionEndDT6, Flavors: FlavorUSD}); err != nil {
			t.Errorf("DT6+USD: %v", err)
		}
		if err := Validate(&Behaviour{Action: ActionEnd, Flavors: FlavorPSP | FlavorUSD}); err != nil {
			t.Errorf("End+PSP+USD: %v", err)
		}
	})
}

// TestDecapDropsSegmentsLeft is the regression for the RFC 8986
// upper-layer check this PR fixes: a decap behaviour reached while
// the SRH still has segments to visit (SegmentsLeft > 0) must drop
// the packet, not decapsulate it mid-path; only the USD flavor opts
// into early decapsulation.
func TestDecapDropsSegmentsLeft(t *testing.T) {
	cases := []struct {
		action Action
		b      Behaviour
		build  func(t *testing.T) []byte
	}{
		{ActionEndDX2, Behaviour{Action: ActionEndDX2}, func(t *testing.T) []byte {
			return encapL2At(t, innerL2(t), 1, sid1, sid2)
		}},
		{ActionEndDX6, Behaviour{Action: ActionEndDX6, Nexthop: nh1}, func(t *testing.T) []byte {
			return encapAt(t, innerV6(t), 1, sid1, sid2)
		}},
		{ActionEndDX4, Behaviour{Action: ActionEndDX4, Nexthop: nh1}, func(t *testing.T) []byte {
			return encapAt(t, innerV4(t), 1, sid1, sid2)
		}},
		{ActionEndDT6, Behaviour{Action: ActionEndDT6}, func(t *testing.T) []byte {
			return encapAt(t, innerV6(t), 1, sid1, sid2)
		}},
		{ActionEndDT4, Behaviour{Action: ActionEndDT4}, func(t *testing.T) []byte {
			return encapAt(t, innerV4(t), 1, sid1, sid2)
		}},
		{ActionEndDT46, Behaviour{Action: ActionEndDT46}, func(t *testing.T) []byte {
			return encapAt(t, innerV6(t), 1, sid1, sid2)
		}},
	}
	for _, c := range cases {
		t.Run(c.action.String(), func(t *testing.T) {
			res, err := Apply(&c.b, c.build(t))
			if res.Verdict != VerdictDrop || !errors.Is(err, ErrSegmentsLeft) {
				t.Fatalf("SL>0 decap: res=%+v err=%v", res, err)
			}
			// USD opts into decap-with-segments-left.
			usd := c.b
			usd.Flavors = FlavorUSD
			res, err = Apply(&usd, c.build(t))
			if err != nil || res.Verdict == VerdictDrop {
				t.Fatalf("USD decap: res=%+v err=%v", res, err)
			}
		})
	}
}

// legacyApply is a verbatim copy of the switch-based dispatch
// the registry replaced, kept as the differential oracle. Note the
// decap cases call DecapInner unconditionally — the SegmentsLeft bug
// the registry's decapInnerFor fixes.
func legacyApply(b *Behaviour, raw []byte) (Result, error) {
	legacyEnd := func(raw []byte, v Verdict, nh netip.Addr, table int) (Result, error) {
		if err := Advance(raw); err != nil {
			return drop(), err
		}
		return Result{Verdict: v, Pkt: raw, Nexthop: nh, Table: table}, nil
	}
	switch b.Action {
	case ActionEnd:
		return legacyEnd(raw, VerdictForward, netip.Addr{}, 0)
	case ActionEndX:
		if !b.Nexthop.IsValid() {
			return drop(), fmt.Errorf("%w: End.X needs a nexthop", ErrBadBehaviour)
		}
		return legacyEnd(raw, VerdictForwardNexthop, b.Nexthop, 0)
	case ActionEndT:
		return legacyEnd(raw, VerdictForwardTable, netip.Addr{}, b.Table)
	case ActionEndDX6:
		inner, err := DecapInner(raw)
		if err != nil {
			return drop(), err
		}
		if !b.Nexthop.IsValid() {
			return drop(), fmt.Errorf("%w: End.DX6 needs a nexthop", ErrBadBehaviour)
		}
		return Result{Verdict: VerdictForwardNexthop, Pkt: inner, Nexthop: b.Nexthop}, nil
	case ActionEndDT6:
		inner, err := DecapInner(raw)
		if err != nil {
			return drop(), err
		}
		return Result{Verdict: VerdictForwardTable, Pkt: inner, Table: b.Table}, nil
	case ActionEndB6:
		if b.SRH == nil {
			return drop(), fmt.Errorf("%w: End.B6 needs an SRH", ErrBadBehaviour)
		}
		out, err := InsertSRH(raw, b.SRH)
		if err != nil {
			return drop(), err
		}
		return Result{Verdict: VerdictForward, Pkt: out}, nil
	case ActionEndB6Encap:
		if b.SRH == nil || !b.Src.IsValid() {
			return drop(), fmt.Errorf("%w: End.B6.Encaps needs an SRH and source", ErrBadBehaviour)
		}
		work := packet.Clone(raw)
		if err := Advance(work); err != nil {
			return drop(), err
		}
		out, err := Encap(work, b.Src, b.SRH)
		if err != nil {
			return drop(), err
		}
		return Result{Verdict: VerdictForward, Pkt: out}, nil
	case ActionEndBPF:
		return drop(), fmt.Errorf("%w: End.BPF is handled by the hook layer", ErrBadBehaviour)
	default:
		return drop(), fmt.Errorf("%w: %v", ErrBadBehaviour, b.Action)
	}
}

// TestDifferentialLegacy replays a corpus of (behaviour, packet)
// pairs through both the legacy switch and the registry and demands
// identical results everywhere the legacy semantics were correct —
// and exactly the documented divergence (the SegmentsLeft fix) where
// they were not.
func TestDifferentialLegacy(t *testing.T) {
	behaviours := []*Behaviour{
		{Action: ActionEnd},
		{Action: ActionEndX, Nexthop: nh1},
		{Action: ActionEndX}, // misconfigured
		{Action: ActionEndT, Table: 9},
		{Action: ActionEndDX6, Nexthop: nh1},
		{Action: ActionEndDT6, Table: 3},
		{Action: ActionEndB6, SRH: packet.NewSRH([]netip.Addr{sid2, sid1})},
		{Action: ActionEndB6Encap, SRH: packet.NewSRH([]netip.Addr{sid2}), Src: sid1},
		{Action: ActionEndBPF},
	}
	packets := []struct {
		name  string
		build func(t *testing.T) []byte
	}{
		{"srh-sl2", mkSRPacket},
		{"plain-udp", innerV6},
		{"v6-in-v6-sl0", func(t *testing.T) []byte { return encapAt(t, innerV6(t), 0, sid1) }},
		{"v6-in-v6-sl1", func(t *testing.T) []byte { return encapAt(t, innerV6(t), 1, sid1, sid2) }},
	}
	for _, b := range behaviours {
		for _, pk := range packets {
			name := fmt.Sprintf("%v/%s", b.Action, pk.name)
			t.Run(name, func(t *testing.T) {
				oldRes, oldErr := legacyApply(b, pk.build(t))
				newRes, newErr := Apply(b, pk.build(t))

				decap := b.Action == ActionEndDX6 || b.Action == ActionEndDT6
				if decap && pk.name == "v6-in-v6-sl1" {
					// The documented divergence: legacy decapsulated
					// mid-path, the registry drops.
					if oldErr != nil {
						t.Fatalf("legacy was expected to (wrongly) accept: %v", oldErr)
					}
					if newRes.Verdict != VerdictDrop || !errors.Is(newErr, ErrSegmentsLeft) {
						t.Fatalf("fix regressed: res=%+v err=%v", newRes, newErr)
					}
					return
				}

				if (oldErr == nil) != (newErr == nil) {
					t.Fatalf("error divergence: legacy=%v registry=%v", oldErr, newErr)
				}
				if oldRes.Verdict != newRes.Verdict || oldRes.Nexthop != newRes.Nexthop || oldRes.Table != newRes.Table {
					t.Fatalf("result divergence: legacy=%+v registry=%+v", oldRes, newRes)
				}
				if oldErr == nil && !bytes.Equal(oldRes.Pkt, newRes.Pkt) {
					t.Fatal("packet bytes diverge")
				}
			})
		}
	}
}

// TestEncapHopLimits pins the tunnel TTL contract of the encap
// helpers themselves: the outer header copies the inner hop limit
// (kernel ip6_tnl_xmit inherit), and the inner bytes are embedded
// unmodified. The tunnel-ingress decrement happens in the forwarding
// engine before Encap is called, never inside it.
func TestEncapHopLimits(t *testing.T) {
	inner := innerV6(t)
	const hl = 37
	if err := packet.SetHopLimit(inner, hl); err != nil {
		t.Fatal(err)
	}
	for _, red := range []bool{false, true} {
		encap := Encap
		if red {
			encap = EncapRed
		}
		out, err := encap(inner, hostA, packet.NewSRH([]netip.Addr{sid1, sid2}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := packet.HopLimit(out)
		if err != nil || got != hl {
			t.Errorf("red=%v: outer hop limit %d, want %d (%v)", red, got, hl, err)
		}
		if !bytes.Contains(out, inner) {
			t.Errorf("red=%v: inner packet not embedded unmodified", red)
		}
	}
	// IPv4 inner: the outer inherits the TTL.
	v4 := innerV4(t)
	out, err := Encap(v4, hostA, packet.NewSRH([]netip.Addr{sid1}))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := packet.DecodeIPv4(v4)
	got, _ := packet.HopLimit(out)
	if got != h.TTL {
		t.Errorf("v4 inner: outer hop limit %d, want TTL %d", got, h.TTL)
	}
}

// TestEncapRedWireShape pins the reduced-encap wire format (RFC 8986
// §5.2): the first segment appears only in the outer destination, the
// SRH carries one fewer segment with SegmentsLeft == LastEntry+1.
func TestEncapRedWireShape(t *testing.T) {
	out, err := EncapRed(innerV6(t), hostA, packet.NewSRH([]netip.Addr{sid1, sid2, hostB}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv6.Dst != sid1 {
		t.Errorf("outer dst = %v, want first segment %v", p.IPv6.Dst, sid1)
	}
	if p.SRH == nil || len(p.SRH.Segments) != 2 || p.SRH.SegmentsLeft != 2 || p.SRH.LastEntry != 1 {
		t.Fatalf("reduced SRH: %s", p.Summary())
	}
	// The dropped entry is the first segment; the rest keep their
	// wire order (final destination first).
	if p.SRH.Segments[0] != hostB || p.SRH.Segments[1] != sid2 {
		t.Errorf("segments = %v", p.SRH.Segments)
	}
}

// TestRegistryContract checks the dispatch-table wiring: every
// behaviour the netsim engine relies on is registered, names match
// Action.String, and unknown actions fail closed.
func TestRegistryContract(t *testing.T) {
	want := map[Action]string{
		ActionEnd:        "End",
		ActionEndX:       "End.X",
		ActionEndT:       "End.T",
		ActionEndDX2:     "End.DX2",
		ActionEndDX6:     "End.DX6",
		ActionEndDX4:     "End.DX4",
		ActionEndDT6:     "End.DT6",
		ActionEndDT4:     "End.DT4",
		ActionEndDT46:    "End.DT46",
		ActionEndB6:      "End.B6",
		ActionEndB6Encap: "End.B6.Encaps",
		ActionEndAS:      "End.AS",
		ActionEndAM:      "End.AM",
		ActionEndBPF:     "End.BPF",
	}
	if got := len(Specs()); got != len(want) {
		t.Errorf("%d specs registered, want %d", got, len(want))
	}
	for a, name := range want {
		sp := Lookup(a)
		if sp == nil {
			t.Errorf("%s not registered", name)
			continue
		}
		if sp.Name != name || a.String() != name {
			t.Errorf("action %d: name %q, String %q, want %q", int(a), sp.Name, a.String(), name)
		}
	}
	if Lookup(Action(999)) != nil {
		t.Error("out-of-range lookup must be nil")
	}
	if err := Validate(&Behaviour{Action: Action(11)}); !errors.Is(err, ErrBadBehaviour) {
		t.Errorf("unregistered action: %v", err)
	}
	if _, err := Apply(&Behaviour{Action: Action(12)}, mkSRPacket(t)); !errors.Is(err, ErrBadBehaviour) {
		t.Errorf("unregistered apply: %v", err)
	}
}

// TestProxyRoundTrip drives a packet through the full End.AS and
// End.AM proxy cycles at the seg6 layer (outbound Apply, then the
// Inbound return-path half) and checks the SR state is restored.
func TestProxyRoundTrip(t *testing.T) {
	t.Run("End.AS", func(t *testing.T) {
		oif := &struct{}{}
		b := &Behaviour{
			Action: ActionEndAS,
			SRH:    packet.NewSRH([]netip.Addr{sid2, hostB}),
			Src:    sid1,
			OIF:    oif,
		}
		wire := encapAt(t, innerV6(t), 2, sid1, sid2, hostB)
		out, err := Apply(b, wire)
		if err != nil || out.Verdict != VerdictForwardOIF {
			t.Fatalf("outbound: %+v %v", out, err)
		}
		back, err := Lookup(ActionEndAS).Inbound(b, out.Pkt)
		if err != nil || back.Verdict != VerdictForward {
			t.Fatalf("inbound: %+v %v", back, err)
		}
		p, _ := packet.Parse(back.Pkt)
		if p.IPv6.Src != sid1 || p.IPv6.Dst != sid2 || p.SRH == nil || p.SRH.SegmentsLeft != 1 {
			t.Errorf("restored: %s", p.Summary())
		}
	})
	t.Run("End.AM", func(t *testing.T) {
		b := &Behaviour{Action: ActionEndAM, OIF: &struct{}{}}
		wire := encapAt(t, innerV6(t), 1, sid1, sid2)
		out, err := Apply(b, wire)
		if err != nil || out.Verdict != VerdictForwardOIF {
			t.Fatalf("outbound: %+v %v", out, err)
		}
		back, err := Lookup(ActionEndAM).Inbound(b, out.Pkt)
		if err != nil || back.Verdict != VerdictForward {
			t.Fatalf("inbound: %+v %v", back, err)
		}
		p, _ := packet.Parse(back.Pkt)
		// De-masqueraded: DA restored to the active segment.
		if p.IPv6.Dst != sid2 || p.SRH.SegmentsLeft != 0 {
			t.Errorf("restored: %s", p.Summary())
		}
	})
}

// TestEncapL2 pins H.Encaps.L2: the Ethernet frame rides behind the
// SRH with next-header 143 and survives the round trip through
// End.DX2.
func TestEncapL2(t *testing.T) {
	frame := innerL2(t)
	out, err := EncapL2(frame, hostA, packet.NewSRH([]netip.Addr{sid1}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.L4Proto != packet.ProtoEthernet {
		t.Fatalf("next header = %d, want %d", p.L4Proto, packet.ProtoEthernet)
	}
	res, err := Apply(&Behaviour{Action: ActionEndDX2}, out)
	if err != nil || res.Verdict != VerdictDeliverL2 {
		t.Fatalf("DX2: %+v %v", res, err)
	}
	if !bytes.Equal(res.Pkt, frame) {
		t.Error("frame mangled in L2 round trip")
	}
	// No SRH is a config error for H.Encaps.L2.
	if _, err := EncapL2(frame, hostA, nil); !errors.Is(err, ErrBadBehaviour) {
		t.Errorf("nil SRH: %v", err)
	}
}
