package delaymon

import (
	"math"
	"net/netip"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

var (
	s1Addr   = netip.MustParseAddr("2001:db8:1::1")
	s2Addr   = netip.MustParseAddr("2001:db8:2::1")
	headAddr = netip.MustParseAddr("2001:db8:10::1")
	tailAddr = netip.MustParseAddr("2001:db8:20::1")
	ctrlAddr = netip.MustParseAddr("2001:db8:99::1")
	dmSID    = netip.MustParseAddr("fc00:20::dd")
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// testbed: S1 -- H ==(10 ms link)== T -- S2, controller C hanging off
// T. H runs the encap program for S2's prefix; T runs End.DM.
type testbed struct {
	sim               *netsim.Sim
	s1, h, t, s2, c   *netsim.Node
	monitor           *Monitor
	collector         *Collector
	daemon            *Daemon
	deliveredS2       *int
	monitoredDelayNs  int64
	samplesPerDeliver int
}

func newTestbed(t *testing.T, ratio uint32) *testbed {
	t.Helper()
	sim := netsim.New(7)
	tb := &testbed{sim: sim, monitoredDelayNs: 10 * netsim.Millisecond}
	tb.s1 = sim.AddNode("S1", netsim.HostCostModel())
	tb.h = sim.AddNode("H", netsim.ServerCostModel())
	tb.t = sim.AddNode("T", netsim.ServerCostModel())
	tb.s2 = sim.AddNode("S2", netsim.HostCostModel())
	tb.c = sim.AddNode("C", netsim.HostCostModel())

	tb.s1.AddAddress(s1Addr)
	tb.h.AddAddress(headAddr)
	tb.t.AddAddress(tailAddr)
	tb.s2.AddAddress(s2Addr)
	tb.c.AddAddress(ctrlAddr)

	fast := netem.Config{RateBps: 10_000_000_000, DelayNs: 20 * netsim.Microsecond}
	monitored := netem.Config{RateBps: 10_000_000_000, DelayNs: tb.monitoredDelayNs}

	s1If, hs1If := netsim.ConnectSymmetric(tb.s1, tb.h, fast)
	htIf, thIf := netsim.ConnectSymmetric(tb.h, tb.t, monitored)
	tsIf, s2If := netsim.ConnectSymmetric(tb.t, tb.s2, fast)
	tcIf, cIf := netsim.ConnectSymmetric(tb.t, tb.c, fast)

	tb.s1.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: s1If}}})
	tb.s2.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: s2If}}})
	tb.c.AddRoute(&netsim.Route{Prefix: pfx("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: cIf}}})

	tb.h.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: hs1If}}})
	// Everything towards T's side goes over the monitored link;
	// the LWT BPF route for S2's prefix is installed below.
	tb.h.AddRoute(&netsim.Route{Prefix: pfx("fc00:20::/32"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: htIf}}})
	tb.h.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:20::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: htIf}}})
	tb.h.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:99::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: htIf}}})

	tb.t.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:2::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: tsIf}}})
	tb.t.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:99::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: tcIf}}})
	tb.t.AddRoute(&netsim.Route{Prefix: pfx("2001:db8:1::/48"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: thIf}}})

	cfg := Config{
		Ratio:          ratio,
		Controller:     ctrlAddr,
		ControllerPort: 7788,
		SID:            dmSID,
	}
	mon, err := New(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	tb.monitor = mon
	if err := mon.AttachHead(tb.h, pfx("2001:db8:2::/48"), []netsim.Nexthop{{Iface: htIf}}); err != nil {
		t.Fatal(err)
	}
	if err := mon.AttachTail(tb.t, dmSID); err != nil {
		t.Fatal(err)
	}
	tb.daemon = mon.StartDaemon(tb.t, netsim.Millisecond)

	tb.collector = &Collector{}
	tb.collector.Listen(tb.c, 7788)

	delivered := 0
	tb.deliveredS2 = &delivered
	tb.s2.HandleUDP(4242, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		delivered++
	})
	return tb
}

func (tb *testbed) sendTraffic(t *testing.T, n int, gapNs int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		i := i
		tb.sim.Schedule(int64(i)*gapNs, func() {
			raw, err := packet.BuildPacket(s1Addr, s2Addr,
				packet.WithUDP(3000, 4242),
				packet.WithPayload(make([]byte, 64)),
				packet.WithFlowLabel(uint32(i)&0xfffff))
			if err != nil {
				t.Fatal(err)
			}
			tb.s1.Output(raw)
		})
	}
}

// TestAttachHeadRefusesForeignNexthop: a transit route whose nexthop is
// another node's interface is refused at install, and AttachHead says
// so instead of leaving a head that counts drop_no_route.
func TestAttachHeadRefusesForeignNexthop(t *testing.T) {
	sim := netsim.New(1)
	h := sim.AddNode("H", netsim.ServerCostModel())
	x := sim.AddNode("X", netsim.ServerCostModel())
	y := sim.AddNode("Y", netsim.HostCostModel())
	netsim.ConnectSymmetric(h, y, netem.Config{RateBps: 1e10})
	xIf, _ := netsim.ConnectSymmetric(x, y, netem.Config{RateBps: 1e10})
	mon, err := New(Config{Ratio: 1, Controller: ctrlAddr, ControllerPort: 7788, SID: dmSID}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.AttachHead(h, pfx("2001:db8:2::/48"), []netsim.Nexthop{{Iface: xIf}}); err == nil {
		t.Fatal("AttachHead accepted a nexthop on another node's interface")
	}
	if r := h.Lookup(s2Addr, netsim.MainTable); r != nil {
		t.Fatalf("refused route installed anyway: %+v", r)
	}
}

func TestOWDMeasurementAllPackets(t *testing.T) {
	tb := newTestbed(t, 1) // sample everything
	const n = 200
	tb.sendTraffic(t, n, 100*netsim.Microsecond)
	tb.sim.RunUntil(200 * netsim.Millisecond)
	tb.daemon.Stop()
	tb.sim.RunUntil(210 * netsim.Millisecond)

	if *tb.deliveredS2 != n {
		t.Fatalf("S2 received %d/%d packets (decap broken?) H=%v T=%v",
			*tb.deliveredS2, n, tb.h.Counters(), tb.t.Counters())
	}
	if tb.collector.Received != n {
		t.Fatalf("controller received %d/%d reports (daemon relayed %d, perf lost %d)",
			tb.collector.Received, n, tb.daemon.Relayed, tb.monitor.Events.LostSamples())
	}
	// The measured one-way delay must be dominated by the 10 ms link.
	mean := tb.collector.Delays.Mean()
	if math.Abs(mean-float64(tb.monitoredDelayNs)) > float64(netsim.Millisecond) {
		t.Errorf("mean OWD = %.2f ms, want ≈10 ms", mean/1e6)
	}
	// Delays are one-way: never negative, never wildly large.
	if tb.collector.Delays.Quantile(0) < 0 {
		t.Error("negative delay sample")
	}
}

func TestOWDSamplingRatio(t *testing.T) {
	tb := newTestbed(t, 100)
	const n = 5000
	tb.sendTraffic(t, n, 20*netsim.Microsecond)
	tb.sim.RunUntil(2 * netsim.Second)
	tb.daemon.Stop()
	tb.sim.RunUntil(2*netsim.Second + 50*netsim.Millisecond)

	if *tb.deliveredS2 != n {
		t.Fatalf("S2 received %d/%d packets", *tb.deliveredS2, n)
	}
	got := float64(tb.collector.Received)
	want := float64(n) / 100
	if got < want/2 || got > want*2 {
		t.Errorf("sampled %v reports for ratio 1:100 over %d packets, want ≈%v", got, n, want)
	}
	// Unsampled packets must not carry any SRH at S2 (checked
	// implicitly: they were never encapsulated, or decap removed it).
}

func TestDisabledRatioSendsNothing(t *testing.T) {
	tb := newTestbed(t, 0)
	tb.sendTraffic(t, 100, 50*netsim.Microsecond)
	tb.sim.RunUntil(100 * netsim.Millisecond)
	tb.daemon.Stop()
	tb.sim.RunUntil(110 * netsim.Millisecond)
	if tb.collector.Received != 0 {
		t.Errorf("received %d reports with probing disabled", tb.collector.Received)
	}
	if *tb.deliveredS2 != 100 {
		t.Errorf("S2 received %d/100", *tb.deliveredS2)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cfg := Config{Ratio: 50, Controller: ctrlAddr, ControllerPort: 9000, SID: dmSID}
	v := cfg.MarshalValue()
	if len(v) != 40 {
		t.Fatalf("value size %d", len(v))
	}
	// Spot-check wire ordering: port is big-endian at offset 4.
	if v[4] != 0x23 || v[5] != 0x28 { // 9000 = 0x2328
		t.Errorf("port bytes = %x %x", v[4], v[5])
	}
	rec := Record{TxNS: 111, RxNS: 222, Controller: ctrlAddr, Port: 9000}
	b := make([]byte, 40)
	for i := range b {
		b[i] = 0
	}
	// Encode by hand the way the BPF program does.
	b[0] = 111
	b[8] = 222
	a := ctrlAddr.As16()
	copy(b[16:32], a[:])
	b[32], b[33] = 0x28, 0x23 // little-endian 9000
	got, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Errorf("decoded %+v, want %+v", got, rec)
	}
	if _, err := DecodeRecord(b[:10]); err == nil {
		t.Error("short record accepted")
	}
}
