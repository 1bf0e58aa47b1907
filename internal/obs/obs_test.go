package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Every value must land in a bucket whose [lower, upper] range
// contains it, and the bucket layout must tile the value space with
// no gaps or overlaps.
func TestHistogramBucketBoundaries(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := bucketIndex(v)
		if lo, hi := BucketLower(i), BucketUpper(i); v < lo || v > hi {
			t.Errorf("value %d → bucket %d [%d,%d] does not contain it", v, i, lo, hi)
		}
	}
	// Tiling: bucket i+1 starts exactly one past bucket i's end.
	for i := 0; i < histBuckets-1; i++ {
		if BucketLower(i+1) != BucketUpper(i)+1 {
			t.Fatalf("gap/overlap at bucket %d: upper=%d next lower=%d", i, BucketUpper(i), BucketLower(i+1))
		}
	}
	// Sub-histSub values are exact (width-1 buckets).
	for v := uint64(0); v < histSub; v++ {
		if BucketLower(int(v)) != v || BucketUpper(int(v)) != v {
			t.Fatalf("small bucket %d not exact", v)
		}
	}
	// Relative bucket width above the linear region is ≤ 1/histSub.
	for _, v := range []uint64{100, 5000, 1 << 33} {
		i := bucketIndex(v)
		width := BucketUpper(i) - BucketLower(i) + 1
		if float64(width)/float64(BucketLower(i)) > 1.0/histSub+1e-9 {
			t.Errorf("bucket %d width %d too wide for lower %d", i, width, BucketLower(i))
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}} {
		got := float64(h.Quantile(tc.q))
		if got < tc.want || got > tc.want*(1+2.0/histSub) {
			t.Errorf("q%.2f = %v, want within [%v, %v]", tc.q, got, tc.want, tc.want*(1+2.0/histSub))
		}
	}
	if h.Quantile(0) == 0 {
		t.Error("q0 of 1..1000 must be ≥ 1")
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

// Merging shard-local histograms must be exactly equivalent to
// observing everything into a single histogram.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		whole.Observe(v)
		parts[rng.Intn(len(parts))].Observe(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged shard histograms differ from the single-histogram ground truth")
	}
	// Merging an empty histogram is a no-op.
	before := merged
	merged.Merge(&Histogram{})
	merged.Merge(nil)
	if merged != before {
		t.Fatal("merging empty/nil changed the histogram")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatalf("negative observation not clamped: %+v", h)
	}
}

// RestoreState(n) truncates the journal to its first n spans and the
// buffer stays appendable (harnesses reuse it between measured passes).
func TestTraceBufSnapshotRestore(t *testing.T) {
	b := NewTraceBuf("r1")
	b.Start(Span{Flow: 1, At: 10})
	b.Start(Span{Flow: 2, At: 20})
	i := b.Start(Span{Flow: 3, At: 30})
	b.At(i).Verdict = "drop"
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	b.RestoreState(2)
	if b.Len() != 2 {
		t.Fatalf("after restore len = %d", b.Len())
	}
	j := b.Start(Span{Flow: 3, At: 30})
	b.At(j).Verdict = "forward"
	lines := b.Lines()
	if len(lines) != 3 || !strings.Contains(lines[2], "forward") {
		t.Fatalf("span appended after truncation wrong: %v", lines)
	}
}

func TestSampledDeterministicAndDistributed(t *testing.T) {
	for flow := uint32(0); flow < 100; flow++ {
		if Sampled(flow, 2) != Sampled(flow, 2) {
			t.Fatal("sampling decision not deterministic")
		}
		if !Sampled(flow, 0) {
			t.Fatal("shift 0 must sample everything")
		}
	}
	// 1-in-2^shift holds roughly over many flows.
	n := 0
	for flow := uint32(0); flow < 4096; flow++ {
		if Sampled(flow, 3) {
			n++
		}
	}
	if n < 4096/8/2 || n > 4096/8*2 {
		t.Fatalf("shift 3 sampled %d of 4096, want ≈ %d", n, 4096/8)
	}
}

func TestRegistryPublishAndRender(t *testing.T) {
	r := New()
	var h Histogram
	h.Observe(3)
	h.Observe(300)
	r.Collect(func(e *Emitter) {
		e.Counter("srv6_events_total", "", 42)
		e.Gauge("srv6_lookahead_ns", `engine="conservative"`, 1500)
		e.Hist("srv6_queue_delay_ns", "", &h)
	})
	r.AddJSON("progs", func() any { return []string{"end_bpf"} })

	if r.Last() != nil {
		t.Fatal("Last before Publish must be nil")
	}
	s := r.Publish(123)
	if r.Last() != s {
		t.Fatal("Last must return the published snapshot")
	}

	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		"# TYPE srv6_events_total counter",
		"srv6_events_total 42",
		`srv6_lookahead_ns{engine="conservative"} 1500`,
		"# TYPE srv6_queue_delay_ns histogram",
		`srv6_queue_delay_ns_bucket{le="+Inf"} 2`,
		"srv6_queue_delay_ns_sum 303",
		"srv6_queue_delay_ns_count 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["at"].(float64) != 123 {
		t.Errorf("at = %v", got["at"])
	}
	if _, ok := got["progs"]; !ok {
		t.Errorf("extra JSON key missing: %s", raw)
	}
	hists := got["hists"].([]any)
	if len(hists) != 1 {
		t.Fatalf("hists = %v", hists)
	}
	if c := hists[0].(map[string]any)["count"].(float64); c != 2 {
		t.Errorf("hist count = %v", c)
	}
}

// Mutating the live histogram after Publish must not alter the
// published snapshot (Emitter.Hist copies).
func TestSnapshotImmutable(t *testing.T) {
	r := New()
	var h Histogram
	h.Observe(7)
	r.Collect(func(e *Emitter) { e.Hist("h", "", &h) })
	s := r.Publish(0)
	h.Observe(9)
	if s.Hists[0].H.Count() != 1 {
		t.Fatal("published snapshot changed after the fact")
	}
}

func TestTraceEventsJSON(t *testing.T) {
	b := NewTraceBuf("rtr0")
	i := b.Start(Span{Flow: 5, At: 1000, QueueNs: 20, DurNs: 75, SegLeft: 1})
	b.At(i).Behavior = "End.BPF"
	b.At(i).Route = "seg6local"
	b.At(i).Verdict = "forward"
	var sb strings.Builder
	if err := WriteTraceEvents(&sb, []*TraceBuf{b}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace_event output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 2 { // thread_name metadata + 1 span
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev["name"] != "End.BPF" || ev["ph"] != "X" {
		t.Errorf("span event wrong: %v", ev)
	}
	if args := ev["args"].(map[string]any); args["flow"].(float64) != 5 || args["verdict"] != "forward" {
		t.Errorf("span args wrong: %v", ev)
	}
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries(4)
	for i := int64(1); i <= 6; i++ {
		s.Push(EnginePoint{Round: i})
	}
	pts := s.Points()
	if s.Len() != 4 || len(pts) != 4 {
		t.Fatalf("len = %d/%d", s.Len(), len(pts))
	}
	rounds := make([]int, 0, 4)
	for _, p := range pts {
		rounds = append(rounds, int(p.Round))
	}
	if !sort.IntsAreSorted(rounds) || rounds[0] != 3 || rounds[3] != 6 {
		t.Fatalf("ring order wrong: %v", rounds)
	}
}
