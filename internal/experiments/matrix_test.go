package experiments

import "testing"

// TestMatrixScan is the engine-equivalence gate for the committed
// behaviour-matrix scenarios: every scenario must deliver its full
// offered load and produce bit-identical counter fingerprints
// sequentially and on two shards.
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
			t.Errorf("%s: runs disagree: %+v", r.Scenario, r.Runs)
		}
		for _, run := range r.Runs {
			t.Logf("%s/%s: %s delivered=%d", r.Scenario, run.Engine, run.Fingerprint, run.Delivered)
		}
	}
}

// TestL3VPNDecapAliasingAcrossShards guards the ownership rule that
// lets decapsulation return a slice of its input instead of a copy.
// The L3VPN scenario decapsulates every packet (End.DT4/DT6/DT46) and
// then forwards the inner packet, decrementing its hop limit in place
// — in the buffer the outer packet arrived in, which on a sharded run
// was handed over by another shard's worker. If anything else still
// owned those bytes, a hop limit would be decremented twice and the
// journalled hop limits would differ. Counters and delivery traces at
// 2 and 4 shards must equal the sequential run bit for bit.
func TestL3VPNDecapAliasingAcrossShards(t *testing.T) {
	run := func(shards int) string {
		fp, delivered, err := matrixL3VPN(shards)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if delivered == 0 {
			t.Fatalf("%d shards: delivered nothing", shards)
		}
		return fp
	}
	seq := run(1)
	for _, shards := range []int{2, 4} {
		if fp := run(shards); fp != seq {
			t.Errorf("%d shards: fingerprint %s, sequential %s", shards, fp, seq)
		}
	}
}
