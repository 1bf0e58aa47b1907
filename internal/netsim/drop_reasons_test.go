package netsim

// TestDropReasons pins where a packet can die on a node and what the
// node says about it: one minimal scenario per reachable reason, each
// asserting that exactly that counter moves by one, that nothing is
// transmitted onward or delivered, whether an ICMPv6 error goes back,
// the model cost the hop charged, the virtual time the run ends at, and
// the verdict in the flight-recorder span.

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

var (
	cAddr   = netip.MustParseAddr("2001:db8:c::1")
	noAddr  = netip.MustParseAddr("2001:db8:dead::1") // nobody routes or owns it
	garbage = []byte{0x00, 1, 2, 3}                   // no IP version
)

// fakeSeg6Local and fakeLWT stand in for internal/core's attachments:
// they return what the test row tells them to.
type fakeSeg6Local struct {
	res  seg6.Result
	cost int64
	err  error
}

func (f fakeSeg6Local) RunSeg6Local(*Node, []byte, *PacketMeta) (seg6.Result, int64, error) {
	return f.res, f.cost, f.err
}

type fakeLWT struct {
	out     []byte // nil: the packet as it came
	verdict LWTVerdict
	cost    int64
	err     error
}

func (f fakeLWT) RunLWTOut(_ *Node, raw []byte, _ *PacketMeta) ([]byte, LWTVerdict, int64, error) {
	if f.out != nil {
		raw = f.out
	}
	return raw, f.verdict, f.cost, f.err
}

const fakeProgNs = 7

// dropEnv is A --- R --- B with a second leaf C behind R; every row
// configures R and sends it one packet.
type dropEnv struct {
	s                *Sim
	a, r, b, c       *Node
	aIf              *Iface
	raIf, rbIf, rcIf *Iface
}

func newDropEnv() *dropEnv {
	e := &dropEnv{s: New(1)}
	e.a, e.r, e.b = lineTopo(e.s)
	e.c = e.s.AddNode("C", HostCostModel())
	e.c.AddAddress(cAddr)
	var cIf *Iface
	e.rcIf, cIf = ConnectSymmetric(e.r, e.c, netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * Microsecond})
	e.c.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: cIf}}})
	e.r.AddRoute(&Route{Prefix: pfx("2001:db8:c::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rcIf}}})
	e.aIf = e.a.Ifaces()[0]
	e.raIf, e.rbIf = e.r.Ifaces()[0], e.r.Ifaces()[1]
	return e
}

// sid installs route under rSID/128 in R's main table. Every route a
// row installs passes Table.Add: a misconfigured one is refused there
// (TestInstallRejection), so no drop reason stands for one.
func (e *dropEnv) sid(route *Route) {
	route.Prefix = netip.PrefixFrom(rSID, 128)
	if err := e.r.AddRoute(route); err != nil {
		panic(err)
	}
}

func (e *dropEnv) local(b *seg6.Behaviour) {
	e.sid(&Route{Kind: RouteSeg6Local, Behaviour: b})
}

func (e *dropEnv) prog(res seg6.Result, err error) {
	e.local(&seg6.Behaviour{Action: seg6.ActionEndBPF, BPF: fakeSeg6Local{res: res, cost: fakeProgNs, err: err}})
}

func mustPkt(raw []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return raw
}

// udpProbe is a UDP packet from A to dst; srProbe the same steered
// through segs.
func udpProbe(dst netip.Addr, hl uint8) []byte {
	return mustPkt(packet.BuildPacket(aAddr, dst, packet.WithUDP(1, 7), packet.WithHopLimit(hl), packet.WithFlowLabel(0xd09)))
}

// maxProbe is udpProbe at the largest IPv6 payload there is: no outer
// header fits in front of it.
func maxProbe(dst netip.Addr) []byte {
	return mustPkt(packet.BuildPacket(aAddr, dst, packet.WithUDP(1, 7),
		packet.WithPayload(make([]byte, 0xffff-packet.UDPHeaderLen)), packet.WithFlowLabel(0xd09)))
}

func srProbe(hl uint8, segs ...netip.Addr) []byte {
	return mustPkt(packet.BuildPacket(aAddr, segs[0], packet.WithSRH(packet.NewSRH(segs)),
		packet.WithUDP(1, 7), packet.WithHopLimit(hl), packet.WithFlowLabel(0xd09)))
}

type dropCase struct {
	name string
	// why is R's counter that must move by one; "" when the packet is
	// to leave R (the hop-limit rows that do not expire).
	why string
	// local injects with R.Output instead of over the A-R link.
	local bool
	// prep configures R and returns the packet.
	prep func(e *dropEnv) []byte
	// extra is the model cost the hop charges beyond PacketCost. Output
	// charges nothing, so local rows leave it nil.
	extra func(c *CostModel) int64
	// icmp is the ICMPv6 error type A must receive, 0 for none.
	icmp uint8
	// verdict is the span's verdict: "drop" by default, "forward" by
	// default when why is empty.
	verdict string
	// noSpan: the packet does not parse, so the recorder opened no span.
	noSpan bool
	// end is the virtual time of the run's last event.
	end int64
}

func icmpGen(c *CostModel) int64 { return c.ICMPGenNs }

func dropCases() []dropCase {
	cases := []dropCase{
		{name: "drop_malformed/ingress", why: "drop_malformed", noSpan: true,
			prep: func(e *dropEnv) []byte { return garbage }, end: 11553},
		// A packet that turns malformed after a stage re-enters the
		// lookup; before the stages shared one drop() this one was
		// counted but left its span without a verdict.
		{name: "drop_malformed/relookup-after-lwt", why: "drop_malformed",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteLWTBPF, BPF: fakeLWT{out: garbage, cost: fakeProgNs}})
				return udpProbe(rSID, 64)
			},
			extra: func(*CostModel) int64 { return fakeProgNs }, end: 11621},
		{name: "drop_malformed/forward-after-lwt", why: "drop_malformed",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteLWTBPF, BPF: fakeLWT{out: garbage, cost: fakeProgNs}, Nexthops: []Nexthop{{Iface: e.rbIf}}})
				return udpProbe(rSID, 64)
			},
			extra: func(*CostModel) int64 { return fakeProgNs }, end: 11621},
		{name: "drop_malformed/table-verdict", why: "drop_malformed",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictForwardTable, Pkt: garbage}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},
		{name: "drop_malformed/cross-connect", why: "drop_malformed",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictForwardNexthop, Pkt: []byte{0x60}, Nexthop: bAddr}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},

		{name: "drop_no_route/transit", why: "drop_no_route", icmp: packet.ICMPv6DstUnreachable,
			prep: func(e *dropEnv) []byte { return udpProbe(noAddr, 64) }, extra: icmpGen, end: 23840},
		{name: "drop_no_route/local", why: "drop_no_route", local: true,
			prep: func(e *dropEnv) []byte { return udpProbe(noAddr, 64) }, end: 0},

		// The encapsulated packet's destination matches the encap route
		// again: seven encapsulations, then the loop guard.
		{name: "drop_route_loop", why: "drop_route_loop",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteSeg6Encap, SRH: packet.NewSRH([]netip.Addr{rSID})})
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return 7 * c.EncapNs }, end: 13434},

		{name: "drop_no_nexthop/empty-route", why: "drop_no_nexthop",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteForward})
				return udpProbe(rSID, 64)
			}, end: 11614},
		{name: "drop_no_nexthop/end.x-unresolved", why: "drop_no_nexthop",
			prep: func(e *dropEnv) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEndX, Nexthop: noAddr})
				return srProbe(64, rSID, bAddr)
			},
			extra: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndX] }, end: 11730},

		{name: "drop_link_down/ecmp-all-down", why: "drop_link_down",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rbIf}, {Iface: e.rcIf}}})
				e.rbIf.Fail()
				e.rcIf.Fail()
				return udpProbe(rSID, 64)
			}, end: 11614},
		{name: "drop_link_down/oif-down", why: "drop_link_down",
			prep: func(e *dropEnv) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEndAM, OIF: e.rcIf})
				e.rcIf.Fail()
				return srProbe(64, rSID, bAddr)
			},
			extra: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndAM] }, end: 11790},

		{name: "drop_seg6local", why: "drop_seg6local",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictDrop}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},
		{name: "drop_seg6local_error/program", why: "drop_seg6local_error", verdict: "error",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictDrop}, errors.New("fault"))
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},
		{name: "drop_seg6local_error/end-without-srh", why: "drop_seg6local_error", verdict: "error",
			prep: func(e *dropEnv) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEnd})
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEnd] }, end: 11664},

		{name: "drop_lwt_bpf", why: "drop_lwt_bpf",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteLWTBPF, BPF: fakeLWT{verdict: LWTDrop, cost: fakeProgNs}})
				return udpProbe(rSID, 64)
			},
			extra: func(*CostModel) int64 { return fakeProgNs }, end: 11621},
		{name: "drop_lwt_bpf_error", why: "drop_lwt_bpf_error", verdict: "error",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteLWTBPF, BPF: fakeLWT{verdict: LWTDrop, cost: fakeProgNs, err: errors.New("fault")}})
				return udpProbe(rSID, 64)
			},
			extra: func(*CostModel) int64 { return fakeProgNs }, end: 11621},

		{name: "drop_bad_verdict", why: "drop_bad_verdict",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.Verdict(99)}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},
		// Only a static behaviour's OIF is checked at install; a program
		// can ask for one its behaviour does not have.
		{name: "drop_bad_verdict/oif-without-interface", why: "drop_bad_verdict",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictForwardOIF, Pkt: udpProbe(bAddr, 64)}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},

		// The route's segment list is sound (Table.Add checked it); the
		// packet is too large to carry the outer headers. EncapNs is
		// charged before the encapsulation is known to work.
		{name: "drop_encap_error", why: "drop_encap_error",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteSeg6Encap, SRH: packet.NewSRH([]netip.Addr{cAddr})})
				return maxProbe(rSID)
			},
			extra: func(c *CostModel) int64 { return c.EncapNs }, end: 103613},
		{name: "drop_backup_encap_error", why: "drop_backup_encap_error",
			prep: func(e *dropEnv) []byte {
				e.sid(&Route{Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rbIf}},
					Backup: &Backup{Nexthops: []Nexthop{{Iface: e.rcIf}}, SRH: packet.NewSRH([]netip.Addr{cAddr})}})
				e.rbIf.Fail()
				return maxProbe(rSID)
			},
			extra: func(c *CostModel) int64 { return c.EncapNs }, end: 103613},

		{name: "l2_no_handler", why: "l2_no_handler",
			prep: func(e *dropEnv) []byte {
				e.prog(seg6.Result{Verdict: seg6.VerdictDeliverL2, Pkt: make([]byte, 14)}, nil)
				return udpProbe(rSID, 64)
			},
			extra: func(c *CostModel) int64 { return fakeProgNs + c.Behaviour[seg6.ActionEnd] }, end: 11671},

		// Routed as local, found malformed by the transport demux when
		// the hop commits: the span keeps the routing verdict.
		{name: "drop_malformed_local/truncated-udp", why: "drop_malformed_local", verdict: "local",
			prep: func(e *dropEnv) []byte {
				raw := udpProbe(e.r.PrimaryAddress(), 64)[:packet.IPv6HeaderLen+4]
				raw[4], raw[5] = 0, 4
				return raw
			},
			extra: func(c *CostModel) int64 { return c.LocalDeliverNs }, end: 12109},
	}

	// drop_hop_limit: the check exists where a packet is forwarded,
	// where a tunnel ingress decrements before encapsulating, and where
	// a behaviour cross-connects to a nexthop. Only a transit packet
	// arriving with hop limit 1 expires; one arriving with 2, and any
	// locally originated one, leaves.
	sites := []struct {
		name  string
		prep  func(e *dropEnv, hl uint8) []byte
		fwdNs func(c *CostModel) int64 // charged when the packet leaves
		expNs func(c *CostModel) int64 // charged when it expires
		ends  [4]int64                 // transit hl 1, 2; local hl 1, 2
	}{
		{name: "forward",
			prep:  func(e *dropEnv, hl uint8) []byte { return udpProbe(bAddr, hl) },
			fwdNs: func(*CostModel) int64 { return 0 }, expNs: icmpGen,
			ends: [4]int64{23840, 21802, 10188, 10188}},
		{name: "h.encaps",
			prep: func(e *dropEnv, hl uint8) []byte {
				e.sid(&Route{Kind: RouteSeg6Encap, SRH: packet.NewSRH([]netip.Addr{cAddr}), Nexthops: []Nexthop{{Iface: e.rcIf}}})
				return udpProbe(rSID, hl)
			},
			fwdNs: func(c *CostModel) int64 { return c.EncapNs }, expNs: icmpGen,
			ends: [4]int64{23840, 22114, 10240, 10240}},
		{name: "end.b6.encaps",
			prep: func(e *dropEnv, hl uint8) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEndB6Encap, SRH: packet.NewSRH([]netip.Addr{cAddr}), Src: e.r.PrimaryAddress()})
				return srProbe(hl, rSID, bAddr)
			},
			fwdNs: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndB6Encap] }, expNs: icmpGen,
			ends: [4]int64{23929, 22742, 10272, 10272}},
		{name: "end.x",
			prep: func(e *dropEnv, hl uint8) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEndX, Nexthop: bAddr})
				return srProbe(hl, rSID, bAddr)
			},
			fwdNs: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndX] },
			expNs: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndX] + c.ICMPGenNs },
			ends:  [4]int64{23989, 21950, 10220, 10220}},
		{name: "end.dx6",
			prep: func(e *dropEnv, hl uint8) []byte {
				e.local(&seg6.Behaviour{Action: seg6.ActionEndDX6, Nexthop: bAddr})
				return mustPkt(seg6.Encap(udpProbe(bAddr, hl), aAddr, packet.NewSRH([]netip.Addr{rSID})))
			},
			fwdNs: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndDX6] },
			expNs: func(c *CostModel) int64 { return c.Behaviour[seg6.ActionEndDX6] + c.ICMPGenNs },
			ends:  [4]int64{24530, 22492, 10188, 10188}},
	}
	for _, site := range sites {
		for i, origin := range []string{"transit", "local"} {
			local := origin == "local"
			for j, hl := range []uint8{1, 2} {
				c := dropCase{
					name:  fmt.Sprintf("drop_hop_limit/%s/%s/hl%d", site.name, origin, hl),
					local: local,
					prep:  func(e *dropEnv) []byte { return site.prep(e, hl) },
					end:   site.ends[2*i+j],
				}
				switch {
				case !local && hl == 1:
					c.why, c.icmp, c.extra = "drop_hop_limit", packet.ICMPv6TimeExceeded, site.expNs
				case !local:
					c.extra = site.fwdNs
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// isDropCounter: the names a dying packet may bump.
func isDropCounter(name string) bool {
	return strings.HasPrefix(name, "drop_") || name == "rx_ring_full" || name == "l2_no_handler"
}

func dropDelta(before, after map[string]uint64) map[string]uint64 {
	d := map[string]uint64{}
	for k, v := range after {
		if isDropCounter(k) && v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

func TestDropReasons(t *testing.T) {
	for _, tc := range dropCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := newDropEnv()
			delivered, onward, back := 0, 0, 0
			for _, n := range []*Node{e.a, e.r, e.b, e.c} {
				n.HandleUDP(7, func(*Node, *packet.Packet, *PacketMeta) { delivered++ })
			}
			var gotICMP uint8
			e.a.HandleICMP(func(_ *Node, p *packet.Packet, _ *PacketMeta) {
				if m, err := packet.DecodeICMPv6(p.Raw[p.L4Off:]); err == nil {
					gotICMP = m.Type
				}
			})
			e.rbIf.Tap = func([]byte) { onward++ }
			e.rcIf.Tap = func([]byte) { onward++ }
			e.raIf.Tap = func([]byte) { back++ }
			e.s.EnableObs(ObsOptions{Trace: true})

			raw := tc.prep(e)
			size := len(raw)
			before := e.r.Counters()
			switch {
			case tc.local:
				e.r.Output(raw)
			case packet.IPVersion(raw) == 6:
				e.a.Output(raw)
			default:
				e.aIf.Transmit(raw) // A's own datapath would not route it
			}
			e.s.Run()

			want := map[string]uint64{}
			if tc.why != "" {
				want[tc.why] = 1
			}
			if got := dropDelta(before, e.r.Counters()); !reflect.DeepEqual(got, want) {
				t.Errorf("drop counters moved %v, want %v", got, want)
			}
			if tc.why != "" && (onward != 0 || delivered != 0) {
				t.Errorf("dropped packet went on: %d transmitted onward, %d delivered", onward, delivered)
			}
			if tc.why == "" && onward != 1 {
				t.Errorf("%d packets transmitted onward, want 1", onward)
			}
			wantBack := 0
			if tc.icmp != 0 {
				wantBack = 1
			}
			if gotICMP != tc.icmp || back != wantBack {
				t.Errorf("ICMP error type %d (%d packets towards A), want type %d (%d)", gotICMP, back, tc.icmp, wantBack)
			}
			if e.s.Now() != tc.end {
				t.Errorf("run ended at %d ns, want %d", e.s.Now(), tc.end)
			}

			tb := traceOf(e.s, "R")
			if tc.noSpan {
				if tb.Len() != 0 {
					t.Errorf("unparseable packet opened a span: %v", tb.Lines())
				}
				return
			}
			if tb.Len() == 0 {
				t.Fatal("no span recorded on R")
			}
			// R's first span is the packet under test; an ICMP error it
			// originates is a second one.
			sp := tb.Spans()[0]
			verdict := tc.verdict
			switch {
			case verdict != "":
			case tc.why == "":
				verdict = "forward"
			default:
				verdict = "drop"
			}
			if sp.Verdict != verdict {
				t.Errorf("span verdict %q, want %q", sp.Verdict, verdict)
			}
			var cost int64
			if !tc.local {
				cost = e.r.Cost.PacketCost(size)
				if tc.extra != nil {
					cost += tc.extra(&e.r.Cost)
				}
			}
			if sp.DurNs != cost {
				t.Errorf("hop cost %d ns, want %d", sp.DurNs, cost)
			}
		})
	}
}

// traceOf returns the named node's flight-recorder journal.
func traceOf(s *Sim, node string) *obs.TraceBuf {
	for _, tb := range s.TraceBufs() {
		if tb.Node() == node {
			return tb
		}
	}
	panic("no trace buffer for " + node)
}

// TestDropReasonRxRingFull: the one reason that is not a routing
// verdict. A ring of one holds a packet while another is in service; the
// third of a back-to-back burst has nowhere to go, and is never seen by
// the recorder.
func TestDropReasonRxRingFull(t *testing.T) {
	e := newDropEnv()
	e.r.Cost.RxRingPackets = 1
	e.s.EnableObs(ObsOptions{Trace: true})
	onward := 0
	e.rbIf.Tap = func([]byte) { onward++ }
	e.b.HandleUDP(7, func(*Node, *packet.Packet, *PacketMeta) {})
	before := e.r.Counters()
	for i := 0; i < 3; i++ {
		e.a.Output(udpProbe(bAddr, 64))
	}
	e.s.Run()
	if got, want := dropDelta(before, e.r.Counters()), (map[string]uint64{"rx_ring_full": 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("drop counters moved %v, want %v", got, want)
	}
	if onward != 2 {
		t.Errorf("%d packets forwarded, want 2", onward)
	}
	if tb := traceOf(e.s, "R"); tb.Len() != 2 {
		t.Errorf("R recorded %d spans, want 2: %v", tb.Len(), tb.Lines())
	}
	if e.s.Now() != 23378 {
		t.Errorf("run ended at %d ns, want 23378", e.s.Now())
	}
}

// TestDropReasonNames pins the counter vocabulary of the routing path:
// the names are what Counters(), the fingerprints and the metrics plane
// show, so they are an interface.
func TestDropReasonNames(t *testing.T) {
	want := []string{
		"rx_ring_full", "drop_malformed", "drop_no_route", "drop_route_loop",
		"drop_hop_limit", "drop_no_nexthop", "drop_seg6local", "drop_seg6local_error",
		"drop_lwt_bpf", "drop_lwt_bpf_error", "drop_malformed_local", "drop_link_down",
		"backup_tx", "udp_delivered", "tcp_delivered", "icmp_delivered",
		"drop_bad_verdict", "drop_encap_error", "drop_backup_encap_error", "l2_no_handler",
	}
	got := append([]string(nil), statNames[:]...)
	seen := map[string]bool{}
	for _, name := range got {
		if name == "" || seen[name] {
			t.Errorf("stat name %q is empty or repeated", name)
		}
		seen[name] = true
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stat names\n got %v\nwant %v", got, want)
	}
	// OBSERVABILITY.md documents the same list, in the same order.
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, name := range statNames {
		i := strings.Index(string(doc[at:]), "`"+name+"`")
		if i < 0 {
			t.Fatalf("OBSERVABILITY.md: counter table lacks %q, or has it out of order", name)
		}
		at += i
	}
	// A fresh node shows the sixteen that were always there, at zero.
	if n := len(New(1).AddNode("n", HostCostModel()).Counters()); n != 16 {
		t.Errorf("fresh node shows %d counters, want 16", n)
	}
}
