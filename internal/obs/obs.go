// Package obs is the metrics-and-tracing plane of the simulator: a
// pull-model metrics registry (counters, gauges, log-linear
// histograms), a ring-buffered engine-stats time series, and a
// packet flight recorder, with Prometheus-text, JSON and Chrome
// trace_event export. See OBSERVABILITY.md at the repo
// root for the full tour.
//
// The package is a leaf: it imports only the standard library, so
// every layer of the stack (netsim, core, nf/frr, tcpsim, chaos) can
// publish into it without import cycles.
//
// Concurrency model: collectors read simulator state, so
// Registry.Publish must only be called while the simulation is
// paused (between Run/RunUntil calls). The published Snapshot is
// immutable and swapped in atomically, so HTTP handlers may read
// Last() from any goroutine at any time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes Prometheus metric types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

// Sample is one scalar metric in a Snapshot.
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // `k="v",k2="v2"` form, no braces
	Value  float64 `json:"value"`
	Kind   Kind    `json:"-"`
}

// HistSample is one histogram in a Snapshot (an independent copy).
type HistSample struct {
	Name   string
	Labels string
	H      *Histogram
}

// Snapshot is an immutable point-in-time view of every registered
// collector's output.
type Snapshot struct {
	At      int64 // virtual time (ns) at publish
	Samples []Sample
	Hists   []HistSample
	extra   map[string]any
}

// Emitter is handed to collectors during Publish; collectors push
// their current values through it.
type Emitter struct {
	s *Snapshot
}

// Counter emits a monotonically increasing scalar.
func (e *Emitter) Counter(name, labels string, v float64) {
	e.s.Samples = append(e.s.Samples, Sample{Name: name, Labels: labels, Value: v, Kind: KindCounter})
}

// Gauge emits an instantaneous scalar.
func (e *Emitter) Gauge(name, labels string, v float64) {
	e.s.Samples = append(e.s.Samples, Sample{Name: name, Labels: labels, Value: v, Kind: KindGauge})
}

// Hist emits a histogram; h is copied, so the caller may keep
// mutating its instance afterwards.
func (e *Emitter) Hist(name, labels string, h *Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	e.s.Hists = append(e.s.Hists, HistSample{Name: name, Labels: labels, H: h.Clone()})
}

// Collector is a pull hook: called at Publish time with an Emitter.
type Collector func(*Emitter)

// Registry holds collectors and the latest published Snapshot.
// The zero value is not usable; call New.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	jsonFns    map[string]func() any
	last       atomic.Pointer[Snapshot]
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{jsonFns: map[string]func() any{}}
}

// Collect registers a pull collector. Collectors run in registration
// order at every Publish.
func (r *Registry) Collect(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// AddJSON attaches a named object to every published JSON snapshot
// (e.g. "progs" → the ProgStats list). fn runs at Publish time.
func (r *Registry) AddJSON(key string, fn func() any) {
	r.mu.Lock()
	r.jsonFns[key] = fn
	r.mu.Unlock()
}

// Publish runs every collector, swaps in the new Snapshot and
// returns it. Must not race with simulation execution (collectors
// read live sim state).
func (r *Registry) Publish(nowNs int64) *Snapshot {
	r.mu.Lock()
	cs := r.collectors
	fns := make(map[string]func() any, len(r.jsonFns))
	for k, f := range r.jsonFns {
		fns[k] = f
	}
	r.mu.Unlock()

	s := &Snapshot{At: nowNs, extra: map[string]any{}}
	em := &Emitter{s: s}
	for _, c := range cs {
		c(em)
	}
	for k, f := range fns {
		s.extra[k] = f()
	}
	r.last.Store(s)
	return s
}

// Last returns the most recently published Snapshot, or nil.
func (r *Registry) Last() *Snapshot { return r.last.Load() }

func promEscape(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	for _, sm := range s.Samples {
		name := promEscape(sm.Name)
		if !typed[name] {
			typed[name] = true
			t := "counter"
			if sm.Kind == KindGauge {
				t = "gauge"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, t); err != nil {
				return err
			}
		}
		var err error
		if sm.Labels != "" {
			_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, sm.Labels, fmtF(sm.Value))
		} else {
			_, err = fmt.Fprintf(w, "%s %s\n", name, fmtF(sm.Value))
		}
		if err != nil {
			return err
		}
	}
	for _, hs := range s.Hists {
		name := promEscape(hs.Name)
		if !typed[name] {
			typed[name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
		}
		sep := ""
		if hs.Labels != "" {
			sep = ","
		}
		var cum uint64
		var werr error
		hs.H.Buckets(func(upper, count uint64) {
			if werr != nil {
				return
			}
			cum += count
			_, werr = fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", name, hs.Labels, sep, upper, cum)
		})
		if werr != nil {
			return werr
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, hs.Labels, sep, hs.H.Count()); err != nil {
			return err
		}
		if hs.Labels != "" {
			_, werr = fmt.Fprintf(w, "%s_sum{%s} %d\n%s_count{%s} %d\n",
				name, hs.Labels, hs.H.Sum(), name, hs.Labels, hs.H.Count())
		} else {
			_, werr = fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, hs.H.Sum(), name, hs.H.Count())
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// HistJSON is the JSON rendering of one histogram: summary
// quantiles, not raw buckets.
type HistJSON struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	Sum    uint64  `json:"sum"`
	Min    uint64  `json:"min"`
	Max    uint64  `json:"max"`
	Mean   float64 `json:"mean"`
	P50    uint64  `json:"p50"`
	P90    uint64  `json:"p90"`
	P99    uint64  `json:"p99"`
}

// HistSummary summarises a histogram for JSON output.
func HistSummary(name, labels string, h *Histogram) HistJSON {
	return HistJSON{
		Name: name, Labels: labels,
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
}

// MarshalJSON renders the snapshot as a single JSON object:
// {"at":…, "metrics":[…], "hists":[…], <extra keys>…}.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	m := map[string]any{
		"at":      s.At,
		"metrics": s.Samples,
	}
	hs := make([]HistJSON, 0, len(s.Hists))
	for _, h := range s.Hists {
		hs = append(hs, HistSummary(h.Name, h.Labels, h.H))
	}
	m["hists"] = hs
	keys := make([]string, 0, len(s.extra))
	for k := range s.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "at" && k != "metrics" && k != "hists" {
			m[k] = s.extra[k]
		}
	}
	return json.Marshal(m)
}
