package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
)

// shardPairTopo builds A --- B with the given link config and a
// default route each way.
func shardPairTopo(t *testing.T, cfg netem.Config) (*Sim, *Node, *Node, *Iface) {
	t.Helper()
	s := New(1)
	a, b, aIf := twoHosts(s, cfg)
	return s, a, b, aIf
}

func TestSetShardsValidation(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	if err := s.SetShards(0); err == nil {
		t.Error("SetShards(0) accepted")
	}
	if err := s.SetShards(3); err == nil {
		t.Error("3 shards for 2 nodes accepted")
	}
	if err := s.SetShards(2); err != nil {
		t.Errorf("valid 2-shard split rejected: %v", err)
	}
	if got := s.ShardCount(); got != 2 {
		t.Errorf("ShardCount = %d", got)
	}
	if got := s.Lookahead(); got != Millisecond {
		t.Errorf("lookahead = %d, want %d", got, Millisecond)
	}
	if err := s.SetShards(1); err != nil {
		t.Errorf("back to sequential rejected: %v", err)
	}
}

// wantCrossShardRejection checks a SetShards rejection: it names the
// reason, the two different shards the link's ends landed in (read
// before the failed call restores the previous placement) and the way
// out.
func wantCrossShardRejection(t *testing.T, err error, reason string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), reason) {
		t.Fatalf("err = %v, want %s rejection", err, reason)
	}
	msg := err.Error()
	var a, b int
	i := strings.Index(msg, "crosses shards ")
	if i < 0 {
		t.Fatalf("rejection does not name the shards: %v", err)
	}
	if _, scanErr := fmt.Sscanf(msg[i:], "crosses shards %d/%d", &a, &b); scanErr != nil || a == b {
		t.Errorf("rejection names shards %d/%d (scan error %v), want two different ids: %v", a, b, scanErr, err)
	}
	if !strings.Contains(msg, "partition.MinCut") {
		t.Errorf("rejection does not point at partition.MinCut: %v", err)
	}
}

func TestSetShardsRejectsZeroDelayCrossLink(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10})
	wantCrossShardRejection(t, s.SetShards(2), "zero propagation delay")
	// The failed call must leave the sim runnable on one shard.
	if got := s.ShardCount(); got != 1 {
		t.Fatalf("ShardCount after failed SetShards = %d", got)
	}
}

func TestSetShardsRejectsJitteredCrossLink(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond, JitterNs: Microsecond})
	wantCrossShardRejection(t, s.SetShards(2), "has delay jitter")
}

// TestCrossShardInFlightFailure re-runs the in-flight-kill scenario
// with the two link ends on different shards: the packet dies, the
// sender's DownDrops accounting survives the cross-shard handoff, and
// the outcome matches the sequential run.
func TestCrossShardInFlightFailure(t *testing.T) {
	run := func(shards int) (int, uint64, uint64) {
		s, a, b, aIf := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Millisecond})
		got := 0
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		a.Output(udpTo(t, bAddr, 7, "doomed"))
		s.FailLink(5*Millisecond, aIf)
		s.RestoreLink(8*Millisecond, aIf)
		s.Run()
		a.Schedule(s.Now(), func() { a.Output(udpTo(t, bAddr, 7, "alive")) })
		s.Run()
		return got, aIf.DownDrops(), aIf.TxPackets
	}
	seqGot, seqDown, seqTx := run(1)
	parGot, parDown, parTx := run(2)
	if seqGot != 1 || seqDown != 1 || seqTx != 2 {
		t.Fatalf("sequential run: got=%d down=%d tx=%d, want 1/1/2", seqGot, seqDown, seqTx)
	}
	if parGot != seqGot || parDown != seqDown || parTx != seqTx {
		t.Fatalf("2-shard run diverges: got=%d down=%d tx=%d, want %d/%d/%d",
			parGot, parDown, parTx, seqGot, seqDown, seqTx)
	}
}

// TestShardedStepDrainsInOrder: Step on a sharded sim executes the
// globally-earliest event and keeps cross-shard messages flowing.
func TestShardedStepDrainsInOrder(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	a.Output(udpTo(t, bAddr, 7, "stepped"))
	steps := 0
	for s.Step() {
		steps++
		if steps > 1000 {
			t.Fatal("Step never drained")
		}
	}
	if got != 1 {
		t.Fatalf("delivered = %d after %d steps", got, steps)
	}
}

// TestReshardCarriesPendingEvents: events scheduled before SetShards
// are re-routed to the shard of the node that scheduled them.
func TestReshardCarriesPendingEvents(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	a.Schedule(3*Millisecond, func() { a.Output(udpTo(t, bAddr, 7, "early-sched")) })
	fired := false
	s.Schedule(Millisecond, func() { fired = true }) // driver event -> shard 0
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !fired || got != 1 {
		t.Fatalf("fired=%v got=%d after reshard", fired, got)
	}
}

// TestRunUntilAdvancesAllShardClocks: after RunUntil(t) every node
// reports Now() == t, so driver-side pacing logic behaves identically
// in sequential and sharded runs.
func TestRunUntilAdvancesAllShardClocks(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(7 * Millisecond)
	if s.Now() != 7*Millisecond {
		t.Errorf("Sim.Now = %d", s.Now())
	}
	if a.Now() != 7*Millisecond || b.Now() != 7*Millisecond {
		t.Errorf("node clocks = %d/%d, want %d", a.Now(), b.Now(), 7*Millisecond)
	}
}

// TestRunClockMatchesSequential: after a draining Run(), Sim.Now()
// and the node clocks must land on the last executed event time —
// not on a window barrier — so driver code that schedules relative
// to Now() after Run() behaves identically for any shard count.
func TestRunClockMatchesSequential(t *testing.T) {
	run := func(shards int) (int64, int64) {
		s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Millisecond})
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		a.Output(udpTo(t, bAddr, 7, "tick"))
		s.Run()
		return s.Now(), a.Now()
	}
	seqNow, seqA := run(1)
	parNow, parA := run(2)
	if parNow != seqNow || parA != seqA {
		t.Fatalf("post-Run clocks diverge: sharded (%d, %d) vs sequential (%d, %d)",
			parNow, parA, seqNow, seqA)
	}
}

// TestRuntimeDelayBelowLookaheadPanics: lowering a cross-shard link's
// delay under the lookahead after SetShards must fail loudly, not
// silently desynchronise the schedule.
func TestRuntimeDelayBelowLookaheadPanics(t *testing.T) {
	s, a, b, aIf := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	aIf.Qdisc().SetDelay(Microsecond) // undercut the validated lookahead
	// Keep both shards busy so transmissions happen inside a window.
	for i := 0; i < 20; i++ {
		at := int64(i) * 100 * Microsecond
		a.Schedule(at, func() { a.Output(udpTo(t, bAddr, 7, "x")) })
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation went unnoticed")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.Run()
}

// TestShardWorkerLifecycle: the caller runs shard 0 and each other
// shard gets one worker per Run/RunUntil call. A panicking event on
// either kind of shard reaches the caller with its value unchanged,
// which also proves the window closed around it, and no worker outlives
// the call that started it, however the call ends.
func TestShardWorkerLifecycle(t *testing.T) {
	type boom struct{ shard int }
	// Both shards are busy: A sends to B every 100 µs for 2 ms.
	setup := func() (*Sim, *Node, *Node) {
		s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		if err := s.SetShards(2); err != nil {
			t.Fatal(err)
		}
		if a.shard.id != 0 || b.shard.id != 1 {
			t.Fatalf("A on shard %d, B on shard %d, want 0 and 1", a.shard.id, b.shard.id)
		}
		for i := 0; i < 20; i++ {
			a.Schedule(int64(i)*100*Microsecond, func() { a.Output(udpTo(t, bAddr, 7, "x")) })
		}
		return s, a, b
	}
	// call runs one Run/RunUntil, returns what it panicked with, and
	// waits for the shard workers to come back to their count before the
	// call: a worker that has signalled its exit may still be a few
	// instructions from gone. Only workers are counted, so a goroutine of
	// the test binary that ends meanwhile does not fail the test.
	call := func(name string, run func()) (r any) {
		before := shardWorkers()
		defer func() {
			r = recover()
			deadline := time.Now().Add(5 * time.Second)
			for shardWorkers() != before {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d shard workers after the call, %d before", name, shardWorkers(), before)
				}
				runtime.Gosched()
			}
		}()
		run()
		return nil
	}

	s, _, b := setup()
	if r := call("Run", s.Run); r != nil {
		t.Fatalf("Run panicked: %v", r)
	}
	if got := b.Counters()["udp_delivered"]; got != 20 {
		t.Errorf("B delivered %d packets, want 20", got)
	}
	s, _, b = setup()
	if r := call("RunUntil", func() { s.RunUntil(Millisecond + 500*Microsecond) }); r != nil {
		t.Fatalf("RunUntil panicked: %v", r)
	}
	// The packets sent at 0 to 400 µs; the one sent at 500 µs arrives
	// its serialisation time after 1.5 ms.
	if got := b.Counters()["udp_delivered"]; got != 5 {
		t.Errorf("B delivered %d packets by 1.5 ms, want 5", got)
	}

	for _, shard := range []int{0, 1} {
		s, a, b := setup()
		on := []*Node{a, b}[shard]
		want := &boom{shard}
		on.Schedule(1500*Microsecond, func() { panic(want) })
		name := fmt.Sprintf("panic on shard %d", shard)
		if r := call(name, s.Run); r != want {
			t.Fatalf("%s: Run raised %v, want %v", name, r, want)
		}
	}
}

// shardWorkers counts the goroutines running (*Sim).shardWorker.
func shardWorkers() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), ".(*Sim).shardWorker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestEngineStatsAccounting: the per-shard cells add up and report
// through the deterministic merge.
func TestEngineStatsAccounting(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	a.Output(udpTo(t, bAddr, 7, "x"))
	s.Run()
	st := s.EngineStats()
	if st.Shards != 2 || st.Events == 0 || st.Messages == 0 || st.Windows == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got != 1 {
		t.Fatalf("delivered = %d", got)
	}
}
