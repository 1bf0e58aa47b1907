package netsim

// TestInstallRejection pins Table.Add as the one door into a FIB: each
// configuration the packet path could not act on is refused where the
// route is installed, through every way in — AddRoute, a numbered
// table, and (for a behaviour) the SR-proxy return binding — with an
// error that names the node, nothing installed and no counter moved.

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

type installCase struct {
	name string
	// route builds the misconfigured route for R, fresh per attempt.
	route func(e *dropEnv) *Route
}

func installCases() []installCase {
	local := func(b func(e *dropEnv) *seg6.Behaviour) func(e *dropEnv) *Route {
		return func(e *dropEnv) *Route { return &Route{Kind: RouteSeg6Local, Behaviour: b(e)} }
	}
	encap := func(srh *packet.SRH) func(e *dropEnv) *Route {
		return func(e *dropEnv) *Route { return &Route{Kind: RouteSeg6Encap, SRH: srh} }
	}
	unencodable := &packet.SRH{Segments: []netip.Addr{cAddr}, TLVs: []packet.TLV{packet.Pad1{}}}
	return []installCase{
		{"kind", func(*dropEnv) *Route { return &Route{Kind: RouteKind(99)} }},
		{"seg6local/no-behaviour", func(*dropEnv) *Route { return &Route{Kind: RouteSeg6Local} }},
		{"seg6local/unknown-action", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.Action(11)}
		})},
		{"seg6local/invalid-behaviour", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndX}
		})},
		{"seg6local/unsupported-flavor", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndDT6, Flavors: seg6.FlavorPSP}
		})},
		{"seg6local/bpf-not-a-program", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndBPF, BPF: "not a program"}
		})},
		{"seg6local/oif-not-an-interface", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndAM, OIF: "eth9"}
		})},
		{"seg6local/oif-nil-interface", local(func(*dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndAM, OIF: (*Iface)(nil)}
		})},
		{"seg6local/oif-foreign", local(func(e *dropEnv) *seg6.Behaviour {
			return &seg6.Behaviour{Action: seg6.ActionEndAM, OIF: e.aIf}
		})},
		{"seg6encap/no-srh", encap(nil)},
		{"seg6encap/no-active-segment", encap(&packet.SRH{})},
		{"seg6encap/srh-does-not-encode", encap(unencodable)},
		{"lwt-bpf/not-a-program", func(*dropEnv) *Route { return &Route{Kind: RouteLWTBPF, BPF: "not a program"} }},
		{"nexthop-foreign", func(e *dropEnv) *Route {
			return &Route{Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rbIf}, {Iface: e.aIf}}}
		}},
		{"backup/nexthop-foreign", func(e *dropEnv) *Route {
			return &Route{Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rbIf}},
				Backup: &Backup{Nexthops: []Nexthop{{Iface: e.aIf}}}}
		}},
		{"backup/srh", func(e *dropEnv) *Route {
			return &Route{Kind: RouteForward, Nexthops: []Nexthop{{Iface: e.rbIf}},
				Backup: &Backup{Nexthops: []Nexthop{{Iface: e.rcIf}}, SRH: &packet.SRH{}}}
		}},
	}
}

func TestInstallRejection(t *testing.T) {
	const table = 5
	for _, tc := range installCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := newDropEnv()
			main, other := e.r.Table(MainTable), e.r.Table(table)
			nMain, nOther := len(main.Routes()), len(other.Routes())
			before := e.r.Counters()
			prefix := netip.PrefixFrom(rSID, 128)

			refused := func(via string, err error, names ...string) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted it", via)
					return
				}
				for _, name := range names {
					if !strings.Contains(err.Error(), name) {
						t.Errorf("%s: error %q does not name %s", via, err, name)
					}
				}
			}
			r := tc.route(e)
			r.Prefix = prefix
			refused("AddRoute", e.r.AddRoute(r), "R", prefix.String())
			r = tc.route(e)
			r.Prefix = prefix
			refused("Table(5).Add", other.Add(r), "R", prefix.String())
			if b := tc.route(e).Behaviour; b != nil {
				refused("BindProxyReturn", e.r.BindProxyReturn(e.raIf, b), "R")
				if _, ok := e.r.ifaceInputs[e.raIf]; ok {
					t.Error("BindProxyReturn bound the interface")
				}
			}

			if len(main.Routes()) != nMain || len(other.Routes()) != nOther || main.Lookup(rSID) != nil || other.Lookup(rSID) != nil {
				t.Errorf("FIB changed: main %d → %d routes, table %d: %d → %d", nMain, len(main.Routes()), table, nOther, len(other.Routes()))
			}
			if after := e.r.Counters(); !reflect.DeepEqual(after, before) {
				t.Errorf("counters moved: %v → %v", before, after)
			}
		})
	}
}

// TestForeignInterfaceRefused: a route on A via B's interface used to be
// installed, and A's packets left through B's link, on B's clock and
// counters (in a sharded run, from A's shard into B's queue). Refused at
// install, the route is not there, and A's default route sends the
// packet out of A's own link.
func TestForeignInterfaceRefused(t *testing.T) {
	s := New(1)
	a, _, b := lineTopo(s)
	aIf, bIf := a.Ifaces()[0], b.Ifaces()[0]
	via := func() *Route {
		return &Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: bIf}}}
	}
	if err := a.AddRoute(via()); err == nil {
		t.Error("AddRoute installed A's route via B's interface")
	}
	if err := a.Table(5).Add(via()); err == nil {
		t.Error("Table(5).Add installed A's route via B's interface")
	}
	if err := a.BindProxyReturn(aIf, &seg6.Behaviour{Action: seg6.ActionEndAM, OIF: bIf}); err == nil {
		t.Error("BindProxyReturn bound A's proxy to B's interface")
	}

	fromA, fromB := 0, 0
	aIf.Tap = func([]byte) { fromA++ }
	bIf.Tap = func([]byte) { fromB++ }
	delivered := 0
	b.HandleUDP(7, func(*Node, *packet.Packet, *PacketMeta) { delivered++ })
	a.Output(udpProbe(bAddr, 64))
	s.Run()
	if fromA != 1 || fromB != 0 || delivered != 1 {
		t.Errorf("A's packet left %d times through A's link and %d through B's; %d delivered", fromA, fromB, delivered)
	}
}
