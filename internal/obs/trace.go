package obs

// The packet flight recorder. A deterministic, purely
// flow-label-derived sampling decision (see Sampled) tags a fraction
// of flows; every hop a tagged packet takes appends a Span to the
// processing node's TraceBuf.
//
// Because the sampling decision is a pure function of the flow label
// (not an RNG draw), enabling the recorder consumes no randomness:
// the simulated schedule is bit-identical to a recorder-off run, and
// identical across shard counts — the property the equivalence fuzzer
// locks.

import (
	"fmt"
	"io"
	"strings"
)

// Span is one hop of a sampled packet: where it was processed, what
// the datapath did with it, and how long it queued.
type Span struct {
	Flow     uint32 // IPv6 flow label (the sampling key)
	At       int64  // virtual time (ns) when the hop executed
	QueueNs  int64  // time spent queued before processing
	DurNs    int64  // modeled processing cost of the hop
	SegLeft  int16  // SRH Segments Left at processing (-1: no SRH)
	Behavior string // SRv6 behavior executed ("" for plain forwarding)
	Route    string // FIB outcome ("forward", "local", "seg6local", …)
	Verdict  string // final datapath verdict ("forward", "drop", …)
}

// TraceBuf is a per-node, append-only span journal.
type TraceBuf struct {
	node  string
	spans []Span
}

// NewTraceBuf returns an empty recorder journal for the named node.
func NewTraceBuf(node string) *TraceBuf { return &TraceBuf{node: node} }

// Node returns the owning node's name.
func (b *TraceBuf) Node() string { return b.node }

// Start appends a new span and returns its index; the caller fills
// fields through At(). Index-based (not pointer-based) access keeps
// writes valid across the reallocation a nested append would cause.
func (b *TraceBuf) Start(s Span) int {
	b.spans = append(b.spans, s)
	return len(b.spans) - 1
}

// At returns the span at index i for in-place mutation.
func (b *TraceBuf) At(i int) *Span { return &b.spans[i] }

// Len returns the number of recorded spans.
func (b *TraceBuf) Len() int { return len(b.spans) }

// Spans returns the recorded spans (live slice; do not mutate).
func (b *TraceBuf) Spans() []Span { return b.spans }

// RestoreState truncates the journal to its first v.(int) spans,
// keeping the storage. Outside tests only the frozen benchmark calls it:
// it reuses one sim across measured passes and calls RestoreState(0)
// between them.
func (b *TraceBuf) RestoreState(v any) { b.spans = b.spans[:v.(int)] }

// Lines renders every span as a compact deterministic string —
// the form the equivalence fuzzer fingerprints.
func (b *TraceBuf) Lines() []string {
	out := make([]string, len(b.spans))
	for i, s := range b.spans {
		out[i] = fmt.Sprintf("%d:f%d:q%d:d%d:sl%d:%s/%s/%s",
			s.At, s.Flow, s.QueueNs, s.DurNs, s.SegLeft, s.Behavior, s.Route, s.Verdict)
	}
	return out
}

// Sampled reports whether a flow label is tagged for recording.
// shift selects the sampling rate: 1 in 2^shift flows (0 records
// every flow). The decision hashes the label (FNV-1a) so that flows
// with small consecutive labels — the common trafgen pattern —
// still sample evenly.
func Sampled(flow uint32, shift uint) bool {
	if shift == 0 {
		return true
	}
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= (flow >> (8 * i)) & 0xff
		h *= 16777619
	}
	return h&(1<<shift-1) == 0
}

// WriteTraceEvents renders span journals in the Chrome trace_event
// JSON array format understood by chrome://tracing and Perfetto.
// Each node becomes a named thread; each span a complete ("X") event
// with the flow label, verdict and SRH state in args.
func WriteTraceEvents(w io.Writer, bufs []*TraceBuf) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	for tid, b := range bufs {
		if err := emit(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%q}}`, tid, b.node); err != nil {
			return err
		}
	}
	for tid, b := range bufs {
		for i := range b.spans {
			s := &b.spans[i]
			name := s.Behavior
			if name == "" {
				name = s.Route
			}
			if name == "" {
				name = "hop"
			}
			dur := s.DurNs
			if dur < 1 {
				dur = 1
			}
			if err := emit(`{"name":%q,"cat":"pkt","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,`+
				`"args":{"flow":%d,"segleft":%d,"route":%q,"verdict":%q,"queue_ns":%d}}`,
				name, float64(s.At)/1e3, float64(dur)/1e3, tid,
				s.Flow, s.SegLeft, s.Route, s.Verdict, s.QueueNs); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// DumpSpans is a debug helper: all journals, one span per line.
func DumpSpans(bufs []*TraceBuf) string {
	var sb strings.Builder
	for _, b := range bufs {
		for _, l := range b.Lines() {
			fmt.Fprintf(&sb, "%s %s\n", b.node, l)
		}
	}
	return sb.String()
}
