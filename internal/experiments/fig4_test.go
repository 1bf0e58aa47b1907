package experiments

import (
	"math"
	"testing"

	"srv6bpf/internal/netsim"
)

// TestTCPHybrid holds the three §4.2 TCP rows, at the 60 s transfers
// srv6bench -tcp prints, to what the paper reports:
//
//   - compensated, one connection: 68 Mbps ± 10 % (measures 68.8);
//   - compensated, four connections: 70 Mbps ± 10 % and no more than
//     the 80 Mbps the two links carry (measures 73.2);
//   - uncompensated, one connection: the paper measures 3.8 Mbps and
//     the model 6.4, 1.7 times as much. tcpsim's sender is not the
//     paper's kernel, and nothing here explains or tunes that gap, so
//     the bound is the collapse itself: some progress (≥ 0.5 Mbps) and
//     an order of magnitude under the compensated rows (≤ 10 Mbps).
//
// The run takes a few seconds, so it and TestModelGolden run in
// parallel.
func TestTCPHybrid(t *testing.T) {
	t.Parallel()
	rows, err := TCPHybrid(60 * netsim.Second)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"WRR, no compensation, 1 conn", "WRR + TWD compensation, 1 conn", "WRR + TWD compensation, 4 conns"}
	if len(rows) != len(names) {
		t.Fatalf("%d rows, want %d", len(rows), len(names))
	}
	for i, r := range rows {
		t.Logf("%-34s %7.2f Mbps", r.Name, r.GoodputMbps)
		if r.Name != names[i] {
			t.Errorf("row %d is %q, want %q", i, r.Name, names[i])
		}
	}
	within := func(got, paper float64) bool { return math.Abs(got-paper) <= 0.1*paper }
	if g := rows[0].GoodputMbps; g < 0.5 || g > 10 {
		t.Errorf("uncompensated: %.2f Mbps, want a collapse to 0.5–10 Mbps (paper: 3.8)", g)
	}
	if g := rows[1].GoodputMbps; !within(g, 68) {
		t.Errorf("compensated, 1 connection: %.2f Mbps, paper: 68 ± 10 %%", g)
	}
	if g := rows[2].GoodputMbps; !within(g, 70) || g > 80 {
		t.Errorf("compensated, 4 connections: %.2f Mbps, paper: 70 ± 10 %% of at most 80", g)
	}
}
