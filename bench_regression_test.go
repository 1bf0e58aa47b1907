package srv6bpf

// Regression locks for the zero-allocation End.BPF datapath. The
// numbers behind BenchmarkDatapath are an acceptance surface, not
// just telemetry: the steady-state End.BPF path (ParseInfo walk,
// in-place SRH advance, pooled execEnv, rebound packet segment,
// pre-decoded VM dispatch) must stay allocation-free. Timing is
// machine-dependent and is not asserted; allocation counts are exact
// and are.

import (
	"runtime"
	"testing"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/tcpsim"
)

// TestDatapathAllocRegression counts the allocations of every
// datapathRows row — the rows BenchmarkDatapath times — and requires 0
// per operation on the seven that must be allocation-free in the steady
// state: the static End behaviour, the End.BPF hook, and one packet
// crossing the whole simulated datapath — on one template and on the
// benchmark's 64-flow mix, with the flight recorder off and on, and
// from a traffic generator to a sink, whose buffers go round. The Add
// TLV row allocates: it calls the hook bare, where nothing releases the
// buffer the program grows the packet into.
func TestDatapathAllocRegression(t *testing.T) {
	zeroRows := 0
	for _, row := range datapathRows() {
		allocs := testing.AllocsPerRun(1000, row.setup(t))
		t.Logf("%-16s %.0f allocs/op", row.name, allocs)
		if !row.zeroAlloc {
			continue
		}
		zeroRows++
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", row.name, allocs)
		}
	}
	if zeroRows != 7 {
		t.Fatalf("%d zero-alloc rows, want the seven the datapath is locked by", zeroRows)
	}
}

// TestHybridTCPAllocsPerSegment is the end-to-end allocation pin of the
// build → encap → decap → release path: the §4.2 hybrid-access testbed
// exactly as the benchmark's hybrid-tcp workload builds it (WRR both
// ways, End.DM, TWD compensator, four tcpsim transfers), two seconds of
// model time in steady state, heap objects allocated per data segment
// delivered to S2. That covers everything a segment costs end to end —
// the segment and its ACK (each built in the buffer of a packet that has
// died, headroom included: none), their encapsulation at the aggregation
// box and the CPE (into that headroom: none), decapsulation (none), the
// RTO timer and the amortised compensator probes and End.DM reports,
// which are what is left. The count is exact and repeats: 0.04, against
// 2.04 at the parent commit (f3b8868), where a segment and its ACK were
// one allocation each. The limit is this change's measurement plus half
// an object, so one packet in two going back to an allocation of its own
// fails it.
func TestHybridTCPAllocsPerSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second hybrid-access run skipped in -short mode")
	}
	sim := netsim.New(1)
	tb, err := hybrid.NewTestbed(sim, hybrid.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, enable := range []func() error{tb.EnableWRRDownstream, tb.EnableWRRUpstream, func() error { return tb.DeployEndDM(true) }} {
		if err := enable(); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := tcpsim.NewStack(tb.S1), tcpsim.NewStack(tb.S2)
	var senders []*tcpsim.Sender
	for i := 0; i < 4; i++ {
		snd, _, err := tcpsim.NewTransfer(s1, s2, hybrid.S1Addr, hybrid.S2Addr,
			uint16(41000+i), uint16(5001+i), tcpsim.Config{FlowLabel: uint32(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, snd)
	}
	comp := tb.StartCompensator(100 * netsim.Millisecond)
	sim.RunUntil(2 * netsim.Second)
	for _, snd := range senders {
		snd.Start()
	}
	sim.RunUntil(3 * netsim.Second) // slow start and map/queue growth are done

	var before, after runtime.MemStats
	segs := tb.S2.Counters()["tcp_delivered"]
	runtime.ReadMemStats(&before)
	sim.RunUntil(5 * netsim.Second)
	runtime.ReadMemStats(&after)
	segs = tb.S2.Counters()["tcp_delivered"] - segs
	comp.Stop()
	if segs < 10000 {
		t.Fatalf("only %d data segments delivered in 2 s of model time", segs)
	}
	perSeg := float64(after.Mallocs-before.Mallocs) / float64(segs)
	t.Logf("%d segments delivered, %.2f allocations per delivered segment", segs, perSeg)
	const limit = 0.54
	if perSeg > limit {
		t.Errorf("%.2f allocations per delivered data segment, want <= %.2f", perSeg, limit)
	}
}

// TestSimSteadyStateAllocs guards the netsim-side pooling: scheduling
// and draining events must not allocate per event beyond the commit
// closure itself (heap entries are stored by value and reused).
func TestSimSteadyStateAllocs(t *testing.T) {
	sim := netsim.New(7)
	sim.AddNode("solo", netsim.HostCostModel())

	// Warm the event heap so slice growth is done.
	for i := 0; i < 64; i++ {
		sim.After(int64(i), func() {})
	}
	sim.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		sim.After(10, func() {})
		sim.Run()
	})
	// One closure per After is expected; the event itself must not be
	// a second heap object (container/heap boxed one per push).
	if allocs > 1 {
		t.Fatalf("sim schedule/drain allocates %.1f objects per event, want <= 1 (the closure)", allocs)
	}
}
