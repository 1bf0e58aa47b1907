package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one wall-clock interval recorded by the benchmark around a
// call into the system under test. Spans live in memory and are
// written out once the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at the root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
}

// tracer records nested spans on one goroutine. A nil tracer records
// nothing, which is what every untraced repetition runs with.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTime is one row of the per-name roll-up: total time inside
// spans of that name, and the part not covered by their children.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes rolls the spans of one workload up by name, largest self
// time first.
func (t *tracer) selfTimes(workload string) []selfTime {
	if t == nil {
		return nil
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		if s.Workload != workload {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(s.End-s.Start-children[s.ID]) / 1e6
	}
	rows := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto): complete events, one track per
// workload, id and parent in args.
func (t *tracer) writeChromeTrace(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
