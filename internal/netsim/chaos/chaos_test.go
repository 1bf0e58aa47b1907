package chaos_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/chaos"
	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
)

// ringTopo builds an n-node ring with addresses 2001:db8:N::1 and
// default routes clockwise.
func ringTopo(s *netsim.Sim, n int) []*netsim.Node {
	nodes := make([]*netsim.Node, n)
	for i := range nodes {
		nodes[i] = s.AddNode(fmt.Sprintf("n%d", i), netsim.ServerCostModel())
		nodes[i].AddAddress(netip.MustParseAddr(fmt.Sprintf("2001:db8:%d::1", i)))
	}
	for i := range nodes {
		a, b := nodes[i], nodes[(i+1)%n]
		aIf, _ := netsim.ConnectSymmetric(a, b, netem.Config{
			RateBps: 10_000_000_000, DelayNs: 20 * netsim.Microsecond,
		})
		a.AddRoute(&netsim.Route{
			Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward,
			Nexthops: []netsim.Nexthop{{Iface: aIf}},
		})
	}
	return nodes
}

func campaign(dur int64) chaos.Campaign {
	return chaos.Campaign{
		Start: dur / 8, End: dur * 7 / 8,
		Crashes:   3,
		CrashDown: [2]int64{100 * netsim.Microsecond, dur / 4},
		Flaps:     3,
		FlapPeriod: [2]int64{
			50 * netsim.Microsecond, 300 * netsim.Microsecond,
		},
		FlapCycles:  [2]int{2, 5},
		Impairments: 3,
		ImpairLen:   [2]int64{dur / 10, dur / 3},
		Impair:      chaos.Impairment{Corrupt: 0.1, Duplicate: 0.1, Reorder: 0.3},
	}
}

// planOf builds a fresh ring, applies the campaign with the given
// seed, and renders the planned timeline.
func planOf(t *testing.T, seed int64) string {
	t.Helper()
	s := netsim.New(1)
	ringTopo(s, 6)
	e := chaos.New(s, seed)
	e.Apply(campaign(20*netsim.Millisecond), nil, nil)
	if len(e.Plan()) == 0 {
		t.Fatal("campaign planned no faults")
	}
	return e.String()
}

func TestPlanIsDeterministicPerSeed(t *testing.T) {
	a, b := planOf(t, 42), planOf(t, 42)
	if a != b {
		t.Errorf("same seed, different plans:\n%s\nvs\n%s", a, b)
	}
	if c := planOf(t, 43); c == a {
		t.Errorf("different seeds produced an identical plan:\n%s", a)
	}
}

func TestCampaignAvoidsOverlappingWindows(t *testing.T) {
	s := netsim.New(1)
	ringTopo(s, 4)
	e := chaos.New(s, 7)
	// Oversubscribed on purpose: far more faults than the window and
	// the 4-node ring can host without double-booking.
	c := campaign(10 * netsim.Millisecond)
	c.Crashes, c.Flaps, c.Impairments = 20, 20, 20
	e.Apply(c, nil, nil)

	nodeWin := map[*netsim.Node][][2]int64{}
	linkWin := map[*netsim.Iface][][2]int64{}
	for _, f := range e.Plan() {
		switch {
		case f.Node != nil:
			for _, iv := range nodeWin[f.Node] {
				if f.Start < iv[1] && iv[0] < f.End {
					t.Errorf("overlapping faults on node %s: [%d,%d) vs [%d,%d)",
						f.Node.Name, f.Start, f.End, iv[0], iv[1])
				}
			}
			nodeWin[f.Node] = append(nodeWin[f.Node], [2]int64{f.Start, f.End})
		case f.Link != nil:
			for _, iv := range linkWin[f.Link] {
				if f.Start < iv[1] && iv[0] < f.End {
					t.Errorf("overlapping faults on link %v: [%d,%d) vs [%d,%d)",
						f.Link, f.Start, f.End, iv[0], iv[1])
				}
			}
			linkWin[f.Link] = append(linkWin[f.Link], [2]int64{f.Start, f.End})
		}
	}
}

func TestFlapLinkCyclesBothEnds(t *testing.T) {
	s := netsim.New(1)
	nodes := ringTopo(s, 3)
	link := nodes[0].Ifaces()[0]

	downs, ups := 0, 0
	link.OnStateChange = func(i *netsim.Iface, up bool) {
		if up {
			ups++
		} else {
			downs++
		}
	}
	peerDowns := 0
	link.Peer().OnStateChange = func(i *netsim.Iface, up bool) {
		if !up {
			peerDowns++
		}
	}

	e := chaos.New(s, 1)
	e.FlapLink(link, netsim.Millisecond, 100*netsim.Microsecond, 100*netsim.Microsecond, 3)
	s.Run()

	if downs != 3 || ups != 3 {
		t.Errorf("flap transitions = %d down / %d up, want 3/3", downs, ups)
	}
	if peerDowns != 3 {
		t.Errorf("peer end saw %d downs, want 3 (both ends must flap)", peerDowns)
	}
	if !link.Up() || !link.Peer().Up() {
		t.Errorf("link should end restored")
	}
}

func TestCrashNodeFaultRunsAndRestores(t *testing.T) {
	s := netsim.New(1)
	nodes := ringTopo(s, 3)
	e := chaos.New(s, 1)
	e.CrashNode(nodes[1], netsim.Millisecond, 3*netsim.Millisecond)
	s.Run()

	c := nodes[1].Counters()
	if c["node_crash"] != 1 || c["node_restart"] != 1 {
		t.Errorf("crash/restart = %d/%d, want 1/1", c["node_crash"], c["node_restart"])
	}
	if nodes[1].Crashed() {
		t.Errorf("node should be restarted")
	}
}

func TestImpairLinkWindowIsBounded(t *testing.T) {
	s := netsim.New(99)
	nodes := ringTopo(s, 3)
	src, dst := nodes[0], nodes[1]
	link := src.Ifaces()[0]

	e := chaos.New(s, 5)
	e.ImpairLink(link, 2*netsim.Millisecond, 4*netsim.Millisecond,
		chaos.Impairment{Corrupt: 1.0})

	// One packet before, one inside, one after the window: only the
	// middle one is corrupted.
	dstAddr := netip.MustParseAddr("2001:db8:1::1")
	for _, at := range []int64{netsim.Millisecond, 3 * netsim.Millisecond, 5 * netsim.Millisecond} {
		at := at
		src.Schedule(at, func() {
			raw, err := packet.BuildPacket(
				netip.MustParseAddr("2001:db8:0::1"), dstAddr,
				packet.WithUDP(1, 7777), packet.WithPayload([]byte("probe")))
			if err != nil {
				t.Error(err)
				return
			}
			src.Output(raw)
		})
	}
	_ = dst
	// Before the window opens: clean.
	s.RunUntil(2 * netsim.Millisecond)
	if got := src.Counters()["tx_corrupted"]; got != 0 {
		t.Errorf("tx_corrupted = %d before the window opened", got)
	}
	// Inside: the 3ms packet is corrupted (a mangled destination may
	// loop it around the ring and re-corrupt it — that is fine, it is
	// still inside the window).
	s.RunUntil(4*netsim.Millisecond + 1)
	during := src.Counters()["tx_corrupted"]
	if during == 0 {
		t.Errorf("no corruption inside the window")
	}
	// After: the knob is restored and the count freezes.
	s.Run()
	if got := src.Counters()["tx_corrupted"]; got != during {
		t.Errorf("corruption continued after the window: %d -> %d", during, got)
	}
	if link.Qdisc().Config().Corrupt != 0 {
		t.Errorf("corruption knob not restored after the window")
	}
}

// TestCampaignEquivalenceSmoke replays one campaign sequentially and
// on 2 and 3 shards and demands identical counters — a cheap inline
// version of netsim's chaos-armed fuzz matrix.
func TestCampaignEquivalenceSmoke(t *testing.T) {
	run := func(shards int) map[string]uint64 {
		s := netsim.New(12345)
		nodes := ringTopo(s, 6)
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		e := chaos.New(s, 777)
		e.Apply(campaign(20*netsim.Millisecond), nil, nil)
		// Background traffic around the ring for the whole window.
		for i, n := range nodes {
			n := n
			dst := netip.MustParseAddr(fmt.Sprintf("2001:db8:%d::1", (i+3)%6))
			src := netip.MustParseAddr(fmt.Sprintf("2001:db8:%d::1", i))
			for p := 0; p < 40; p++ {
				at := int64(p+1) * 500 * netsim.Microsecond
				n.Schedule(at, func() {
					raw, err := packet.BuildPacket(src, dst, packet.WithUDP(9, 7777))
					if err == nil {
						n.Output(raw)
					}
				})
			}
		}
		s.RunUntil(25 * netsim.Millisecond)
		s.Run()
		sum := map[string]uint64{}
		for _, n := range nodes {
			for k, v := range n.Counters() {
				sum[n.Name+"/"+k] = v
			}
		}
		return sum
	}

	base := run(1)
	for _, shards := range []int{2, 3} {
		got := run(shards)
		if len(got) != len(base) {
			t.Errorf("%d shards: %d counters vs %d sequential", shards, len(got), len(base))
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("%d shards: counter %s = %d, want %d", shards, k, got[k], v)
			}
		}
	}
}

// TestPublishObs: the engine's planned-fault gauge reaches a registry
// snapshot broken down by fault kind, matching the plan.
func TestPublishObs(t *testing.T) {
	s := netsim.New(1)
	ringTopo(s, 6)
	e := chaos.New(s, 42)
	e.Apply(campaign(20*netsim.Millisecond), nil, nil)

	counts := make(map[string]int)
	for _, f := range e.Plan() {
		counts[f.Kind.String()]++
	}
	if len(counts) == 0 {
		t.Fatal("campaign planned no faults")
	}

	reg := obs.New()
	e.PublishObs(reg)
	var buf bytes.Buffer
	if err := reg.Publish(0).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for kind, n := range counts {
		want := fmt.Sprintf("srv6sim_chaos_faults_planned{kind=%q} %d", kind, n)
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q:\n%s", want, text)
		}
	}
}
