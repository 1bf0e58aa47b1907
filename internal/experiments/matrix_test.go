package experiments

import (
	"testing"

	"srv6bpf/internal/netsim"
)

// TestMatrixScan is the engine-equivalence gate for the committed
// behaviour-matrix scenarios: every scenario must deliver its full
// offered load and produce bit-identical counter fingerprints under
// the sequential, conservative and optimistic engines.
func TestMatrixScan(t *testing.T) {
	rows, err := MatrixScan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Delivered == 0 {
			t.Errorf("%s: delivered no packets", r.Scenario)
		}
		if !r.Match {
			t.Errorf("%s: engines disagree: %+v", r.Scenario, r.Runs)
		}
		for _, run := range r.Runs {
			t.Logf("%s/%s: %s delivered=%d", r.Scenario, run.Engine, run.Fingerprint, run.Delivered)
		}
	}
}

// TestL3VPNDecapAliasingUnderRollback guards the ownership rule that
// lets decapsulation return a slice of its input instead of a copy.
// The L3VPN scenario decapsulates every packet (End.DT4/DT6/DT46) and
// then forwards the inner packet, decrementing its hop limit in place
// — in the buffer the outer packet arrived in. Under the optimistic
// engine with the horizon pinned (which also pins the checkpoint
// stride at one round) those bytes regularly sit in a checkpoint or
// the cross-shard input log when a straggler forces re-execution; if
// the decapsulated slice shared them, a replayed hop would decrement
// twice and the journalled hop limits would differ. Counters and
// delivery traces must equal the sequential run bit for bit, and the
// runs must actually have rolled back.
func TestL3VPNDecapAliasingUnderRollback(t *testing.T) {
	const burst = 4
	run := func(shards int, horizon int64) (string, netsim.EngineStats) {
		sim, finish, err := buildL3VPN(burst)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			if err := sim.SetShards(shards, netsim.EngineOptimistic); err != nil {
				t.Fatal(err)
			}
			sim.SetHorizon(horizon)
		}
		sim.Run()
		fp, delivered, err := finish()
		if err != nil {
			t.Fatalf("%d shards, horizon %d: %v", shards, horizon, err)
		}
		if delivered == 0 {
			t.Fatalf("%d shards: delivered nothing", shards)
		}
		return fp, sim.EngineStats()
	}
	seq, _ := run(1, 0)
	var rollbacks uint64
	for _, shards := range []int{2, 4} {
		for _, horizon := range []int64{3 * netsim.Microsecond, 40 * netsim.Microsecond} {
			fp, st := run(shards, horizon)
			if fp != seq {
				t.Errorf("%d shards, horizon %d ns: fingerprint %s, sequential %s", shards, horizon, fp, seq)
			}
			if st.Checkpoints == 0 {
				t.Errorf("%d shards, horizon %d ns: no checkpoint taken", shards, horizon)
			}
			t.Logf("%d shards, horizon %d ns: windows=%d checkpoints=%d rollbacks=%d", shards, horizon, st.Windows, st.Checkpoints, st.Rollbacks)
			rollbacks += st.Rollbacks
		}
	}
	if rollbacks == 0 {
		t.Error("no configuration rolled back: the test did not exercise re-execution")
	}
}
