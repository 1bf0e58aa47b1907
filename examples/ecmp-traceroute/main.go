// ECMP-aware traceroute (§4.3 of the paper): End.OAMP, deployed as an
// End.BPF function, answers probes with the ECMP nexthop set for a
// destination. The example builds a two-stage ECMP fabric, runs the
// enhanced traceroute against a router that publishes the function
// and against one that does not (legacy ICMP fallback), and prints
// both traces.
//
// Run with: go run ./examples/ecmp-traceroute
package main

import (
	"fmt"
	"log"
	"net/netip"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/oamp"
)

var (
	proberAddr = netip.MustParseAddr("2001:db8:0::1")
	r1Addr     = netip.MustParseAddr("2001:db8:101::1")
	r2aAddr    = netip.MustParseAddr("2001:db8:102::1")
	r2bAddr    = netip.MustParseAddr("2001:db8:103::1")
	r2cAddr    = netip.MustParseAddr("2001:db8:104::1")
	targetAddr = netip.MustParseAddr("2001:db8:fff::1")

	r1SID  = netip.MustParseAddr("fc00:101::aa")
	r2aSID = netip.MustParseAddr("fc00:102::aa")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// route installs on n a forwarding route for prefix over ifaces (ECMP
// when there are several), and exits if n refuses it.
func route(n *netsim.Node, prefix string, ifaces ...*netsim.Iface) {
	r := &netsim.Route{Prefix: pfx(prefix), Kind: netsim.RouteForward}
	for _, ifc := range ifaces {
		r.Nexthops = append(r.Nexthops, netsim.Nexthop{Iface: ifc})
	}
	if err := n.AddRoute(r); err != nil {
		log.Fatal(err)
	}
}

func main() {
	sim := netsim.New(33)
	prober := sim.AddNode("prober", netsim.HostCostModel())
	r1 := sim.AddNode("r1", netsim.ServerCostModel())
	r2a := sim.AddNode("r2a", netsim.ServerCostModel())
	r2b := sim.AddNode("r2b", netsim.ServerCostModel())
	r2c := sim.AddNode("r2c", netsim.ServerCostModel())
	target := sim.AddNode("target", netsim.HostCostModel())

	for n, a := range map[*netsim.Node]netip.Addr{
		prober: proberAddr, r1: r1Addr, r2a: r2aAddr,
		r2b: r2bAddr, r2c: r2cAddr, target: targetAddr,
	} {
		n.AddAddress(a)
	}

	link := netem.Config{RateBps: 10_000_000_000, DelayNs: 200 * netsim.Microsecond}
	pIf, r1pIf := netsim.ConnectSymmetric(prober, r1, link)
	r1a, ar1 := netsim.ConnectSymmetric(r1, r2a, link)
	r1b, br1 := netsim.ConnectSymmetric(r1, r2b, link)
	r1c, cr1 := netsim.ConnectSymmetric(r1, r2c, link)
	at, taIf := netsim.ConnectSymmetric(r2a, target, link)
	bt, tbIf := netsim.ConnectSymmetric(r2b, target, link)
	ct, tcIf := netsim.ConnectSymmetric(r2c, target, link)

	route(prober, "::/0", pIf)
	route(target, "::/0", taIf, tbIf, tcIf)

	// r1 fans out over three equal-cost paths.
	route(r1, "2001:db8:fff::/48", r1a, r1b, r1c)
	route(r1, "2001:db8:0::/48", r1pIf)
	// r2a's OAMP SID is reachable through r1 (the IGP would carry it).
	route(r1, "fc00:102::/32", r1a)

	for _, hop := range []struct {
		n        *netsim.Node
		down, up *netsim.Iface
	}{{r2a, at, ar1}, {r2b, bt, br1}, {r2c, ct, cr1}} {
		route(hop.n, "2001:db8:fff::/48", hop.down)
		route(hop.n, "::/0", hop.up)
	}

	// The operator publishes End.OAMP on r1 and r2a only.
	if err := oamp.Deploy(r1, r1SID, true); err != nil {
		log.Fatal(err)
	}
	if err := oamp.Deploy(r2a, r2aSID, true); err != nil {
		log.Fatal(err)
	}
	sids := map[netip.Addr]netip.Addr{r1Addr: r1SID, r2aAddr: r2aSID}

	fmt.Println("ECMP-aware traceroute to", targetAddr)
	fmt.Println("(r1 and r2a publish End.OAMP; r2b/r2c answer with legacy ICMP)")
	fmt.Println()

	for _, fl := range []uint32{1, 2, 5} {
		done := false
		oamp.Trace(prober, targetAddr, oamp.Options{SIDs: sids, FlowLabel: fl},
			func(hops []oamp.Hop) {
				fmt.Printf("flow label %d:\n%s\n", fl, oamp.Format(hops))
				done = true
			})
		sim.RunUntil(sim.Now() + 30*netsim.Second)
		if !done {
			fmt.Println("trace did not finish")
		}
	}
	fmt.Println("End.OAMP reveals the full ECMP fan-out at hop 1 in a single")
	fmt.Println("query; varying the flow label explores the individual paths.")
}
