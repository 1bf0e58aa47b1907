// Package stats provides the small measurement toolkit the benchmark
// harness uses: counters, rate computation over virtual time, online
// mean/stddev (Welford), and quantile estimation over bounded sample
// reservoirs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter counts events. The simulator is single-threaded per node,
// so no atomics are needed; keep it a plain integer with methods for
// readability.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Rate converts a count observed over a virtual-time window into a
// per-second rate.
func Rate(count uint64, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(count) * 1e9 / float64(windowNs)
}

// BitsPerSecond converts a byte count over a window to bits/s.
func BitsPerSecond(bytes uint64, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(bytes) * 8 * 1e9 / float64(windowNs)
}

// Welford accumulates mean and variance online.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the (population) variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w (Chan et al.'s parallel
// variance combination): the merge primitive for shard-local
// measurement accumulators — merging them in a fixed shard order
// yields a deterministic result. Experiment harnesses that collect
// per-shard Welford series combine them with this.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Reservoir keeps up to Cap samples for quantile estimation. Once
// full it stops admitting (the experiments bound sample counts
// explicitly, so no random replacement is needed; Saturated reports
// whether truncation happened).
type Reservoir struct {
	Cap     int
	samples []float64
	dropped uint64
	sorted  bool
}

// Add records a sample if capacity remains.
func (r *Reservoir) Add(x float64) {
	if r.Cap > 0 && len(r.samples) >= r.Cap {
		r.dropped++
		return
	}
	r.samples = append(r.samples, x)
	r.sorted = false
}

// N returns the number of retained samples.
func (r *Reservoir) N() int { return len(r.samples) }

// Saturated reports whether samples were dropped.
func (r *Reservoir) Saturated() bool { return r.dropped > 0 }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank over
// retained samples; NaN when empty.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	idx := int(q*float64(len(r.samples)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.samples) {
		idx = len(r.samples) - 1
	}
	return r.samples[idx]
}

// Mean returns the sample mean.
func (r *Reservoir) Mean() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range r.samples {
		s += x
	}
	return s / float64(len(r.samples))
}

// Summary formats n, mean and p50/p99 for reports.
func (r *Reservoir) Summary(unit string) string {
	if r.N() == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.2f%s p50=%.2f%s p99=%.2f%s",
		r.N(), r.Mean(), unit, r.Quantile(0.5), unit, r.Quantile(0.99), unit)
}
