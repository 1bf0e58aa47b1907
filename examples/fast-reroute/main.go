// Fast reroute with eBPF failure detection (the follow-up use case to
// the paper: "Flexible failure detection and fast reroute using eBPF
// and SRv6"). A protecting router P continuously probes its
// neighbour D across the primary link with SRv6 liveness probes; an
// End.BPF tracker refreshes a last-seen hash map for every returning
// probe, and after K consecutive misses the detector flips a state
// map read per packet by an LWT steering program — which then pushes
// the precomputed backup segment list [B's End SID, backup decap SID]
// with bpf_lwt_push_encap, detouring traffic around the cut.
//
//	src --- P ====(primary, CUT AT t=50ms)==== D --- dst
//	         \                                /
//	          +----------- B ---------------+   (backup detour)
//
// The run is fully deterministic: same seed, same packet-by-packet
// timeline.
//
// Run with: go run ./examples/fast-reroute
package main

import (
	"fmt"
	"log"
	"net/netip"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/frr"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

var (
	srcAddr  = netip.MustParseAddr("2001:db8:1::1")
	pAddr    = netip.MustParseAddr("2001:db8:10::1")
	dAddr    = netip.MustParseAddr("2001:db8:20::1")
	bAddr    = netip.MustParseAddr("2001:db8:30::1")
	dstAddr  = netip.MustParseAddr("2001:db8:2::1")
	nbrSID   = netip.MustParseAddr("fc00:20::ee") // D's End SID (probe bounce)
	primSID  = netip.MustParseAddr("fc00:20::d6") // decap SID over the primary
	detourS  = netip.MustParseAddr("fc00:30::e")  // B's End SID
	bkDecap  = netip.MustParseAddr("fc00:21::d6") // decap SID reachable via B
	trackSID = netip.MustParseAddr("fc00:10::7a") // P's probe tracker
	probeTo  = netip.MustParseAddr("fc00:f0::1")  // probe trigger address
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

const (
	probeInterval = 5 * netsim.Millisecond
	misses        = 3
	failAt        = 50*netsim.Millisecond - 25*netsim.Microsecond
	restoreAt     = 120 * netsim.Millisecond
	trafficGap    = 25 * netsim.Microsecond // 40 kpps
	runFor        = 180 * netsim.Millisecond
	binNs         = 10 * netsim.Millisecond
)

// addRoutes installs routes on n and exits if n refuses one.
func addRoutes(n *netsim.Node, routes ...*netsim.Route) {
	for _, r := range routes {
		if err := n.AddRoute(r); err != nil {
			log.Fatal(err)
		}
	}
}

func main() {
	sim := netsim.New(2024)
	src := sim.AddNode("src", netsim.HostCostModel())
	p := sim.AddNode("P", netsim.ServerCostModel())
	d := sim.AddNode("D", netsim.ServerCostModel())
	b := sim.AddNode("B", netsim.ServerCostModel())
	dst := sim.AddNode("dst", netsim.HostCostModel())
	src.AddAddress(srcAddr)
	p.AddAddress(pAddr)
	d.AddAddress(dAddr)
	b.AddAddress(bAddr)
	dst.AddAddress(dstAddr)

	edge := netem.Config{RateBps: 1e10, DelayNs: 10 * netsim.Microsecond}
	primary := netem.Config{RateBps: 1e10, DelayNs: 100 * netsim.Microsecond}
	detour := netem.Config{RateBps: 1e10, DelayNs: 60 * netsim.Microsecond}

	srcIf, psIf := netsim.ConnectSymmetric(src, p, edge)
	pdIf, dpIf := netsim.ConnectSymmetric(p, d, primary)
	pbIf, _ := netsim.ConnectSymmetric(p, b, detour)
	bdIf, _ := netsim.ConnectSymmetric(b, d, detour)
	dtIf, dstIf := netsim.ConnectSymmetric(d, dst, edge)

	fwd := func(prefix string, via *netsim.Iface) *netsim.Route {
		return &netsim.Route{Prefix: pfx(prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: via}}}
	}
	local := func(sid netip.Addr, b seg6.Behaviour) *netsim.Route {
		return &netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: &b}
	}
	end := seg6.Behaviour{Action: seg6.ActionEnd}
	dt6 := seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable}
	addRoutes(src, fwd("::/0", srcIf))
	addRoutes(dst, fwd("::/0", dstIf))
	addRoutes(p, fwd("fc00:20::/32", pdIf), fwd("fc00:30::/32", pbIf), fwd("fc00:21::/32", pbIf), fwd("2001:db8:1::/48", psIf))
	addRoutes(b, local(detourS, end), fwd("fc00:21::/32", bdIf))
	addRoutes(d, local(nbrSID, end), local(primSID, dt6), local(bkDecap, dt6),
		fwd("fc00:10::/32", dpIf), fwd("2001:db8:2::/48", dtIf))

	// The fast-reroute network function on P.
	f, err := frr.New(p, frr.Config{
		TrackSID:      trackSID,
		ProbeInterval: probeInterval,
		Misses:        misses,
		JIT:           true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := f.AddNeighbor(frr.Neighbor{ID: 1, ProbeAddr: probeTo, SID: nbrSID, Iface: pdIf}); err != nil {
		log.Fatal(err)
	}
	if err := f.Protect(frr.Protection{
		Prefix:     pfx("2001:db8:2::/48"),
		NeighborID: 1,
		PrimarySID: primSID,
		Backup:     []netip.Addr{detourS, bkDecap},
	}); err != nil {
		log.Fatal(err)
	}
	f.OnTransition = func(tr frr.Transition) {
		state := "DOWN -> steering onto backup [fc00:30::e, fc00:21::d6]"
		if tr.Up {
			state = "UP   -> back on the primary SID fc00:20::d6"
		}
		fmt.Printf("t=%6.1f ms  detector: neighbour %d %s\n", float64(tr.At)/1e6, tr.NeighborID, state)
	}
	f.Start()

	// Which path does each delivered packet take? Tap both of P's
	// candidate egresses. The first transmission on the backup egress
	// marks the moment protection engaged: recovery is measured
	// against deliveries from that instant on, so a pre-failure packet
	// still in flight on the primary cannot fake an instant recovery.
	viaPrimary, viaBackup := 0, 0
	var firstBackupTx int64 = -1
	pdIf.Tap = func(raw []byte) {
		if pkt, err := packet.Parse(raw); err == nil && pkt.IPv6.Dst == primSID {
			viaPrimary++
		}
	}
	pbIf.Tap = func(raw []byte) {
		if pkt, err := packet.Parse(raw); err == nil && pkt.IPv6.Dst == detourS {
			viaBackup++
			if firstBackupTx < 0 {
				firstBackupTx = sim.Now()
			}
		}
	}

	// Constant traffic and a per-10ms delivery histogram.
	bins := make([]int, int(runFor/binNs))
	var delivered, firstViaBackup int64
	firstViaBackup = -1
	dst.HandleUDP(9999, func(n *netsim.Node, pkt *packet.Packet, meta *netsim.PacketMeta) {
		delivered++
		if firstViaBackup < 0 && firstBackupTx >= 0 && meta.RxTimestamp >= firstBackupTx {
			firstViaBackup = meta.RxTimestamp
		}
		if bin := int(meta.RxTimestamp / binNs); bin < len(bins) {
			bins[bin]++
		}
	})
	offered := 0
	for at := int64(0); at < runFor; at += trafficGap {
		at := at
		sim.Schedule(at, func() {
			raw, err := packet.BuildPacket(srcAddr, dstAddr,
				packet.WithUDP(5000, 9999), packet.WithPayload(make([]byte, 64)))
			if err != nil {
				log.Fatal(err)
			}
			src.Output(raw)
		})
		offered++
	}

	sim.FailLink(failAt, pdIf)
	sim.RestoreLink(restoreAt, pdIf)
	fmt.Printf("t=%6.1f ms  PRIMARY LINK CUT (scheduled)\n", float64(failAt)/1e6)
	fmt.Printf("t=%6.1f ms  primary link restore (scheduled)\n\n", float64(restoreAt)/1e6)

	sim.RunUntil(runFor)
	f.Stop()
	sim.Run()

	fmt.Println("delivered per 10 ms bin (40 kpps offered -> 400/bin when healthy):")
	for i, n := range bins {
		marker := ""
		switch {
		case int64(i)*binNs <= failAt && failAt < int64(i+1)*binNs:
			marker = "  <- link cut"
		case int64(i)*binNs <= restoreAt && restoreAt < int64(i+1)*binNs:
			marker = "  <- link restored"
		}
		fmt.Printf("  %3d-%3d ms %5d%s\n", i*10, (i+1)*10, n, marker)
	}

	recovery := float64(firstViaBackup-failAt) / 1e6
	budget := float64(int64(misses)*probeInterval+2*(100*netsim.Microsecond+20*netsim.Microsecond)) / 1e6
	fmt.Printf("\noffered %d, delivered %d, lost %d\n", offered, delivered, int64(offered)-delivered)
	fmt.Printf("probe interval %.0f ms, K=%d misses\n", float64(probeInterval)/1e6, misses)
	fmt.Printf("recovery (failure -> first packet via backup): %.3f ms\n", recovery)
	fmt.Printf("bound (K x interval + probe RTT):              %.3f ms\n", budget)
	fmt.Printf("path split at P: %d packets via primary SID, %d via backup segment list\n", viaPrimary, viaBackup)
}
