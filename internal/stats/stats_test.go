package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestRates(t *testing.T) {
	// 1000 packets in 1 ms = 1 Mpps.
	if r := Rate(1000, 1_000_000); r != 1e9/1e3 {
		t.Errorf("rate = %f", r)
	}
	if r := Rate(10, 0); r != 0 {
		t.Errorf("zero window rate = %f", r)
	}
	// 125 bytes in 1 µs = 1 Gbps.
	if bps := BitsPerSecond(125, 1000); bps != 1e9 {
		t.Errorf("bps = %f", bps)
	}
	if bps := BitsPerSecond(1, -5); bps != 0 {
		t.Errorf("negative window bps = %f", bps)
	}
}

func TestWelfordAgainstDirectComputation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(500)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var variance float64
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n)
		return math.Abs(w.Mean()-mean) < 1e-9 &&
			math.Abs(w.Variance()-variance) < 1e-6 &&
			w.N() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Stddev() != 0 {
		t.Error("empty welford non-zero")
	}
}

// TestWelfordMergeMatchesSingleStream: splitting a sample stream
// across shard-local accumulators and merging must agree with one
// accumulator over the whole stream — the property the sharded
// engine's deterministic merge rests on.
func TestWelfordMergeMatchesSingleStream(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(400)
		shards := 1 + r.Intn(5)
		var whole Welford
		parts := make([]Welford, shards)
		for i := 0; i < n; i++ {
			x := r.NormFloat64()*3 - 1
			whole.Add(x)
			parts[i%shards].Add(x)
		}
		var merged Welford
		for i := range parts {
			merged.Merge(&parts[i])
		}
		return merged.N() == whole.N() &&
			math.Abs(merged.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(merged.Variance()-whole.Variance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Add(2)
	b.Add(4)
	a.Merge(&b) // empty <- filled
	if a.N() != 2 || a.Mean() != 3 {
		t.Fatalf("merge into empty: n=%d mean=%f", a.N(), a.Mean())
	}
	var empty Welford
	a.Merge(&empty) // filled <- empty
	if a.N() != 2 || a.Mean() != 3 {
		t.Fatalf("merge of empty changed state: n=%d mean=%f", a.N(), a.Mean())
	}
}

func TestReservoirQuantiles(t *testing.T) {
	var r Reservoir
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if r.N() != 100 {
		t.Fatalf("n = %d", r.N())
	}
	if q := r.Quantile(0); q != 1 {
		t.Errorf("min = %f", q)
	}
	if q := r.Quantile(1); q != 100 {
		t.Errorf("max = %f", q)
	}
	if q := r.Quantile(0.5); math.Abs(q-50) > 1.5 {
		t.Errorf("median = %f", q)
	}
	if m := r.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %f", m)
	}
}

func TestReservoirCapAndSaturation(t *testing.T) {
	r := Reservoir{Cap: 10}
	for i := 0; i < 25; i++ {
		r.Add(float64(i))
	}
	if r.N() != 10 {
		t.Errorf("n = %d", r.N())
	}
	if !r.Saturated() {
		t.Error("saturation not reported")
	}
}

func TestReservoirEmpty(t *testing.T) {
	var r Reservoir
	if !math.IsNaN(r.Quantile(0.5)) || !math.IsNaN(r.Mean()) {
		t.Error("empty reservoir should yield NaN")
	}
	if r.Summary("x") != "no samples" {
		t.Errorf("summary = %q", r.Summary("x"))
	}
}

func TestReservoirSummaryFormat(t *testing.T) {
	var r Reservoir
	r.Add(1)
	r.Add(2)
	s := r.Summary("ms")
	for _, want := range []string{"n=2", "mean=1.50ms", "p50="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

// TestQuantileMonotonic: quantiles never decrease in q.
func TestQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Reservoir
		for i := 0; i < 50; i++ {
			r.Add(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := r.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
