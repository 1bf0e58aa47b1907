// Delay monitoring (§4.1 of the paper): a BPF LWT program at the head
// of a path encapsulates a fraction of the traffic with an SRH
// carrying a delay-measurement TLV; End.DM at the tail reports both
// timestamps to a collector through a perf event and a relay daemon,
// then decapsulates. The example monitors a 25 ms path at two probing
// ratios and prints the measured one-way delay distribution.
//
// Run with: go run ./examples/delay-monitoring
package main

import (
	"fmt"
	"log"
	"net/netip"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/delaymon"
	"srv6bpf/internal/packet"
)

var (
	srcAddr  = netip.MustParseAddr("2001:db8:1::1")
	headAddr = netip.MustParseAddr("2001:db8:10::1")
	tailAddr = netip.MustParseAddr("2001:db8:20::1")
	dstAddr  = netip.MustParseAddr("2001:db8:2::1")
	ctrlAddr = netip.MustParseAddr("2001:db8:99::1")
	dmSID    = netip.MustParseAddr("fc00:20::dd")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func main() {
	for _, ratio := range []uint32{100, 10} {
		owd, reports := run(ratio)
		fmt.Printf("probing 1:%-5d  %d reports; one-way delay %s\n",
			ratio, reports, owd)
	}
	fmt.Println("\nThe monitored link is shaped to 25 ms ± 1 ms one-way;")
	fmt.Println("the BPF datapath measures it passively on live traffic.")
}

// route installs on n a forwarding route for prefix out of via, and
// exits if n refuses it.
func route(n *netsim.Node, prefix string, via *netsim.Iface) {
	if err := n.AddRoute(&netsim.Route{Prefix: pfx(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}); err != nil {
		log.Fatal(err)
	}
}

func run(ratio uint32) (string, uint64) {
	sim := netsim.New(42)
	src := sim.AddNode("src", netsim.HostCostModel())
	head := sim.AddNode("head", netsim.ServerCostModel())
	tail := sim.AddNode("tail", netsim.ServerCostModel())
	dst := sim.AddNode("dst", netsim.HostCostModel())
	ctrl := sim.AddNode("controller", netsim.HostCostModel())

	src.AddAddress(srcAddr)
	head.AddAddress(headAddr)
	tail.AddAddress(tailAddr)
	dst.AddAddress(dstAddr)
	ctrl.AddAddress(ctrlAddr)

	fast := netem.Config{RateBps: 10_000_000_000, DelayNs: 20 * netsim.Microsecond}
	monitored := netem.Config{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Millisecond, JitterNs: netsim.Millisecond}

	srcIf, headSrcIf := netsim.ConnectSymmetric(src, head, fast)
	headTailIf, tailHeadIf := netsim.ConnectSymmetric(head, tail, monitored)
	tailDstIf, dstIf := netsim.ConnectSymmetric(tail, dst, fast)
	tailCtrlIf, ctrlIf := netsim.ConnectSymmetric(tail, ctrl, fast)

	route(src, "::/0", srcIf)
	route(dst, "::/0", dstIf)
	route(ctrl, "::/0", ctrlIf)
	route(head, "2001:db8:1::/48", headSrcIf)
	route(head, "fc00:20::/32", headTailIf)
	route(tail, "2001:db8:2::/48", tailDstIf)
	route(tail, "2001:db8:99::/48", tailCtrlIf)
	route(tail, "2001:db8:1::/48", tailHeadIf)

	mon, err := delaymon.New(delaymon.Config{
		Ratio:          ratio,
		Controller:     ctrlAddr,
		ControllerPort: 7788,
		SID:            dmSID,
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := mon.AttachHead(head, pfx("2001:db8:2::/48"), []netsim.Nexthop{{Iface: headTailIf}}); err != nil {
		log.Fatal(err)
	}
	if err := mon.AttachTail(tail, dmSID); err != nil {
		log.Fatal(err)
	}
	daemon := mon.StartDaemon(tail, netsim.Millisecond)

	collector := &delaymon.Collector{}
	collector.Listen(ctrl, 7788)

	// Live traffic: 10k packets at 20 kpps.
	const n = 10000
	for i := 0; i < n; i++ {
		i := i
		sim.Schedule(int64(i)*50*netsim.Microsecond, func() {
			raw, err := packet.BuildPacket(srcAddr, dstAddr,
				packet.WithUDP(5000, 6000),
				packet.WithPayload(make([]byte, 256)),
				packet.WithFlowLabel(uint32(i)&0xfffff))
			if err != nil {
				log.Fatal(err)
			}
			src.Output(raw)
		})
	}
	sim.RunUntil(2 * netsim.Second)
	daemon.Stop()
	sim.RunUntil(2*netsim.Second + 100*netsim.Millisecond)

	return fmt.Sprintf("%s (in ms: mean %.2f)",
		collector.Delays.Summary("ns"), collector.Delays.Mean()/1e6), collector.Received
}
