// Command srv6sim runs small interactive scenarios on the simulated
// SRv6 lab, tracing what the eBPF network functions do to packets.
//
// Usage:
//
//	srv6sim -scenario endbpf|delay|traceroute [-trace]
//	srv6sim -scenario serve [-http addr] [-shards N] [-obs-dump dir]
//
// The serve scenario runs a continuous workload and exposes the
// observability plane over HTTP: /metrics (Prometheus text),
// /stats.json (metrics + bpftool-style program stats + engine time
// series), /trace (Chrome trace_event dump of the packet flight
// recorder) and /debug/pprof. With -obs-dump it instead writes those
// artifacts to a directory and exits (see OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/delaymon"
	"srv6bpf/internal/nf/oamp"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
)

var (
	srcAddr = netip.MustParseAddr("2001:db8:1::1")
	dstAddr = netip.MustParseAddr("2001:db8:2::1")
	rtrAddr = netip.MustParseAddr("2001:db8:10::1")
	sid     = netip.MustParseAddr("fc00:10::1")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func main() {
	scenario := flag.String("scenario", "endbpf", "endbpf | delay | traceroute | serve")
	trace := flag.Bool("trace", false, "log router events")
	httpAddr := flag.String("http", "localhost:8080", "listen address for -scenario serve")
	shards := flag.Int("shards", 1, "shard count for -scenario serve")
	obsDump := flag.String("obs-dump", "", "write observability artifacts to this directory and exit (serve only)")
	flag.Parse()

	switch *scenario {
	case "endbpf":
		runEndBPF(*trace)
	case "delay":
		runDelay(*trace)
	case "traceroute":
		runTraceroute(*trace)
	case "serve":
		runServe(*httpAddr, *shards, *obsDump)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// line builds src -- R -- dst and returns the three nodes.
func line(trace bool) (*netsim.Sim, *netsim.Node, *netsim.Node, *netsim.Node) {
	sim := netsim.New(1)
	a := sim.AddNode("src", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	b := sim.AddNode("dst", netsim.HostCostModel())
	a.AddAddress(srcAddr)
	r.AddAddress(rtrAddr)
	b.AddAddress(dstAddr)
	if trace {
		r.Trace = func(format string, args ...any) {
			fmt.Printf("  [R] "+format+"\n", args...)
		}
	}
	fast := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * netsim.Microsecond}
	aIf, raIf := netsim.ConnectSymmetric(a, r, fast)
	rbIf, bIf := netsim.ConnectSymmetric(r, b, fast)
	addRoutes(a, fwd("::/0", aIf))
	addRoutes(b, fwd("::/0", bIf))
	addRoutes(r, fwd("2001:db8:1::/48", raIf), fwd("2001:db8:2::/48", rbIf))
	return sim, a, r, b
}

func runEndBPF(trace bool) {
	fmt.Println("Scenario: Tag++ as an End.BPF function on R")
	sim, a, r, b := line(trace)

	prog, err := bpf.LoadProgram(progs.TagIncrementSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		fatal(err)
	}
	end, err := core.AttachEndBPF(prog)
	if err != nil {
		fatal(err)
	}
	addRoutes(r, &netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: end.Behaviour()})

	b.HandleUDP(7, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		fmt.Printf("  dst received: %s\n", p.Summary())
	})

	srh := packet.NewSRH([]netip.Addr{sid, dstAddr})
	srh.Tag = 41
	raw, err := packet.BuildPacket(srcAddr, sid, packet.WithSRH(srh), packet.WithUDP(1, 7), packet.WithPayload([]byte("hello")))
	if err != nil {
		fatal(err)
	}
	p, _ := packet.Parse(raw)
	fmt.Printf("  src sends:    %s\n", p.Summary())
	a.Output(raw)
	sim.Run()
	fmt.Println("  (tag incremented in flight by the eBPF program)")
}

func runDelay(trace bool) {
	fmt.Println("Scenario: §4.1 one-way delay monitoring over a 10 ms link")
	sim := netsim.New(2)
	a := sim.AddNode("src", netsim.HostCostModel())
	h := sim.AddNode("head", netsim.ServerCostModel())
	t := sim.AddNode("tail", netsim.ServerCostModel())
	b := sim.AddNode("dst", netsim.HostCostModel())
	a.AddAddress(srcAddr)
	h.AddAddress(rtrAddr)
	tailAddr := netip.MustParseAddr("2001:db8:20::1")
	t.AddAddress(tailAddr)
	b.AddAddress(dstAddr)
	if trace {
		t.Trace = func(format string, args ...any) { fmt.Printf("  [tail] "+format+"\n", args...) }
	}

	fast := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * netsim.Microsecond}
	slow := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * netsim.Millisecond}
	aIf, haIf := netsim.ConnectSymmetric(a, h, fast)
	htIf, thIf := netsim.ConnectSymmetric(h, t, slow)
	tbIf, bIf := netsim.ConnectSymmetric(t, b, fast)

	addRoutes(a, fwd("::/0", aIf))
	addRoutes(b, fwd("::/0", bIf))
	addRoutes(h, fwd("2001:db8:1::/48", haIf), fwd("fc00::/16", htIf))
	addRoutes(t, fwd("2001:db8:2::/48", tbIf), fwd("2001:db8:1::/48", thIf), fwd("2001:db8:10::/48", thIf))

	dmSID := netip.MustParseAddr("fc00:20::dd")
	mon, err := delaymon.New(delaymon.Config{
		Ratio: 10, Controller: rtrAddr, ControllerPort: 7788, SID: dmSID,
	}, true)
	if err != nil {
		fatal(err)
	}
	if err := mon.AttachHead(h, pfx("2001:db8:2::/48"), []netsim.Nexthop{{Iface: htIf}}); err != nil {
		fatal(err)
	}
	if err := mon.AttachTail(t, dmSID); err != nil {
		fatal(err)
	}
	daemon := mon.StartDaemon(t, netsim.Millisecond)

	collector := &delaymon.Collector{}
	collector.Listen(h, 7788)

	for i := 0; i < 1000; i++ {
		i := i
		sim.Schedule(int64(i)*100*netsim.Microsecond, func() {
			raw, _ := packet.BuildPacket(srcAddr, dstAddr, packet.WithUDP(5, 6),
				packet.WithPayload(make([]byte, 64)), packet.WithFlowLabel(uint32(i)))
			a.Output(raw)
		})
	}
	sim.RunUntil(500 * netsim.Millisecond)
	daemon.Stop()
	sim.RunUntil(600 * netsim.Millisecond)

	fmt.Printf("  probes relayed by daemon: %d (1:10 sampling of 1000 packets)\n", daemon.Relayed)
	fmt.Printf("  one-way delay: %s\n", collector.Delays.Summary("ns"))
	fmt.Println("  (expect ≈10 ms: the shaped link dominates)")
}

func runTraceroute(trace bool) {
	fmt.Println("Scenario: §4.3 ECMP-aware traceroute (End.OAMP on R)")
	sim, a, r, b := line(trace)
	oampSID := netip.MustParseAddr("fc00:10::aa")
	if err := oamp.Deploy(r, oampSID, true); err != nil {
		fatal(err)
	}
	done := false
	oamp.Trace(a, dstAddr, oamp.Options{
		SIDs: map[netip.Addr]netip.Addr{rtrAddr: oampSID},
	}, func(hops []oamp.Hop) {
		fmt.Print(oamp.Format(hops))
		done = true
	})
	_ = b
	sim.RunUntil(20 * netsim.Second)
	if !done {
		fmt.Println("  trace did not complete")
	}
}

// fwd is a forwarding route for prefix out of via.
func fwd(prefix string, via *netsim.Iface) *netsim.Route {
	return &netsim.Route{Prefix: pfx(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
}

// addRoutes installs routes on n and exits on a refusal: a scenario
// missing a route would only count drop_no_route.
func addRoutes(n *netsim.Node, routes ...*netsim.Route) {
	for _, r := range routes {
		if err := n.AddRoute(r); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "srv6sim:", err)
	os.Exit(1)
}
