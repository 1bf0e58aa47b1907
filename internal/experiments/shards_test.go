package experiments

import (
	"testing"

	"srv6bpf/internal/netsim"
)

// TestWaxmanMinCutReducesMessages is the acceptance gate for the
// topology-aware partitioner: on the seeded 256-node Waxman scenario
// at 4 shards, min-cut must cut the cross-shard message bill by at
// least 30% versus the contiguous block partition — while producing
// bit-identical per-node counters (same schedule, different placement).
func TestWaxmanMinCutReducesMessages(t *testing.T) {
	spec := ShardScalingSpec{
		Topology:   "waxman",
		DurationNs: 2 * netsim.Millisecond,
	}
	spec.Partition = "contiguous"
	cont, fpC, err := shardScalingRun(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec.Partition = "mincut"
	minc, fpM, err := shardScalingRun(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("contiguous: cut=%d msgs=%d lookahead=%dns", cont.CutLinks, cont.Messages, cont.LookaheadNs)
	t.Logf("mincut:     cut=%d msgs=%d lookahead=%dns", minc.CutLinks, minc.Messages, minc.LookaheadNs)
	if fpC != fpM {
		t.Fatalf("partitions disagree on per-node counters (determinism violation)")
	}
	if cont.Messages == 0 {
		t.Fatalf("contiguous run saw no cross-shard messages: %+v", cont)
	}
	if minc.CutLinks >= cont.CutLinks {
		t.Errorf("min-cut did not reduce the static cut: %d vs %d", minc.CutLinks, cont.CutLinks)
	}
	// The ISSUE acceptance bound: >= 30% fewer cross-shard messages.
	if 10*minc.Messages > 7*cont.Messages {
		t.Errorf("min-cut reduced Messages only %d -> %d (< 30%%)", cont.Messages, minc.Messages)
	}
}

// TestWaxmanShardScalingMinCut drives the sweep over the Waxman
// scenario with the min-cut partition: its built-in fingerprint check
// verifies a non-contiguous placement still replays the exact
// sequential schedule.
func TestWaxmanShardScalingMinCut(t *testing.T) {
	rows, err := ShardScalingRun(ShardScalingSpec{
		Shards:     []int{1, 2},
		Topology:   "waxman",
		Partition:  "mincut",
		DurationNs: netsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("shards=%d partition=%s cut=%d msgs=%d delivered=%d",
			r.Shards, r.Partition, r.CutLinks, r.Messages, r.Delivered)
		if r.Delivered == 0 {
			t.Errorf("empty measurement: %+v", r)
		}
	}
	if rows[0].Delivered != rows[1].Delivered {
		t.Errorf("shard counts disagree on deliveries: %+v", rows)
	}
}
