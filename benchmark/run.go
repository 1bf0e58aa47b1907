package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
)

// slicesPerRep is how many equal model-time slices the measured
// window of one repetition is cut into; each slice's wall time is one
// timing sample.
const slicesPerRep = 40

// rep is what one repetition of a workload measured.
type rep struct {
	SetupS float64
	// Per slice: wall and process-CPU nanoseconds per packet the end
	// hosts originated in that slice.
	SliceWallNsPerPkt []float64
	SliceCPUNsPerPkt  []float64
	WindowWallNs      int64
	WindowCPUNs       int64
	WindowPkts        uint64
	Mallocs           uint64 // over the window
	AllocBytes        uint64 // over the window
	LiveHeap          int64  // after a forced GC with the sim still referenced, less the heap before set-up

	// Whole repetition (warm-up + window + drain).
	Originated    uint64
	Delivered     uint64
	IntendedDrops uint64
	Failed        uint64
	SinkRate      float64
	Fingerprint   string
	Engine        netsim.EngineStats
	TxPackets     uint64 // every interface
	TxJittered    uint64 // interfaces whose qdisc jitters
	RxRingFull    uint64 // every node
	Progs         []core.ProgStats
	TCP           bool // SinkRate is TCP goodput in bit/s
	Retransmits   uint64

	// Traced repetitions only.
	Hops      hopTally
	PublishUs float64
}

// hopTally counts the flight recorder's spans: one per processed hop.
type hopTally struct {
	Total      uint64
	ByRoute    map[string]uint64
	ByBehavior map[string]uint64
}

func (h *hopTally) add(sim *netsim.Sim) {
	if h.ByRoute == nil {
		h.ByRoute = map[string]uint64{}
		h.ByBehavior = map[string]uint64{}
	}
	for _, tb := range sim.TraceBufs() {
		for _, s := range tb.Spans() {
			h.Total++
			h.ByRoute[s.Route]++
			if s.Behavior != "" {
				h.ByBehavior[s.Behavior]++
			}
		}
		// Truncate the journal (the mechanism a rollback uses) so a
		// whole window of spans never sits in memory at once.
		tb.RestoreState(0)
	}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runRep builds the workload once and measures it: untimed warm-up,
// then slicesPerRep timed slices, then an untimed drain and the
// counter collection. With traced set the sim runs with the flight
// recorder sampling every flow and tr records the benchmark's own
// wall-clock spans.
func runRep(w *workload, seed int64, scaleDiv int64, traced bool, tr *tracer) (*rep, error) {
	name, windowNs := w.name, w.windowNs/scaleDiv
	if tr != nil {
		tr.workload = name
	}
	repSpan := tr.begin("rep")
	defer tr.end(repSpan)

	// Start every repetition from the same heap state, and note what
	// the benchmark itself holds so live_heap_mb counts the sim alone.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	heap0 := m0.HeapAlloc
	sp := tr.begin("setup")
	t0 := time.Now()
	inst, err := w.build(seed, tr)
	setup := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	sim := inst.sim
	r := &rep{
		SetupS:            setup.Seconds(),
		SliceWallNsPerPkt: make([]float64, 0, slicesPerRep),
		SliceCPUNsPerPkt:  make([]float64, 0, slicesPerRep),
	}
	if traced {
		sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 0})
	}

	sp = tr.begin("warmup")
	if inst.settle != nil {
		inst.settle()
	}
	warmNs := windowNs / 10
	base := sim.Now() + warmNs
	if err := inst.start(base + windowNs); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	sim.RunUntil(base)
	if traced {
		r.Hops.add(sim)
	}
	tr.end(sp)

	runtime.ReadMemStats(&m0)
	sent0 := inst.sent()
	prev := sent0
	for i := int64(1); i <= slicesPerRep; i++ {
		sp := tr.begin("run.slice")
		c0, t0 := cpuNow(), time.Now()
		sim.RunUntil(base + windowNs*i/slicesPerRep)
		wall, cpu := time.Since(t0), cpuNow()-c0
		tr.end(sp)
		r.WindowWallNs += int64(wall)
		r.WindowCPUNs += cpu
		now := inst.sent()
		if n := now - prev; n > 0 {
			r.SliceWallNsPerPkt = append(r.SliceWallNsPerPkt, float64(wall)/float64(n))
			r.SliceCPUNsPerPkt = append(r.SliceCPUNsPerPkt, float64(cpu)/float64(n))
		}
		prev = now
		if traced {
			sp := tr.begin("collect.spans")
			r.Hops.add(sim)
			tr.end(sp)
		}
	}
	runtime.ReadMemStats(&m1)
	r.WindowPkts = prev - sent0
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	// Twice: the first cycle may have started before the window's last
	// allocations and left them marked.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.LiveHeap = int64(m1.HeapAlloc) - int64(heap0)

	sp = tr.begin("drain")
	inst.drain()
	if traced {
		r.Hops.add(sim)
	}
	tr.end(sp)

	sp = tr.begin("collect.counters")
	r.collect(inst)
	tr.end(sp)

	if traced {
		sp = tr.begin("obs.publish")
		t0 := time.Now()
		sim.ObsRegistry().Publish(sim.Now())
		r.PublishUs = float64(time.Since(t0)) / 1e3
		tr.end(sp)
	}
	runtime.KeepAlive(inst)
	return r, nil
}

// collect reads the model-observable state after the drain and
// derives the failure count and the fingerprint from it.
func (r *rep) collect(inst *instance) {
	sim := inst.sim
	r.Originated = inst.sent()
	r.Delivered = inst.delivered()
	r.IntendedDrops = inst.intendedDrops()
	r.SinkRate = inst.sinkRate()
	r.Engine = sim.EngineStats()
	r.Progs = progStats(sim)
	r.TCP = len(inst.tcpSenders) > 0
	for _, s := range inst.tcpSenders {
		r.Retransmits += s.Retransmits
	}
	// After the drain nothing is in flight, so a packet is delivered,
	// dropped where the model means to drop it, or lost.
	if lost := int64(r.Originated) - int64(r.Delivered) - int64(r.IntendedDrops); lost > 0 {
		r.Failed = uint64(lost)
	}

	// The fingerprint covers only what the model defines: counters,
	// interface totals, sink and program statistics. Engine event
	// counts are left out because an optimisation may change them.
	var b strings.Builder
	counters := map[string]uint64{}
	var keys []string
	for _, n := range sim.Nodes() {
		clear(counters)
		n.CountersInto(counters)
		keys = keys[:0]
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.RxRingFull += counters["rx_ring_full"]
		b.WriteString(n.Name)
		for _, k := range keys {
			if counters[k] != 0 {
				fmt.Fprintf(&b, " %s=%d", k, counters[k])
			}
		}
		for _, ifc := range n.Ifaces() {
			fmt.Fprintf(&b, " %s:tx=%d,drop=%d", ifc.Name, ifc.TxPackets, ifc.TxDrops)
			r.TxPackets += ifc.TxPackets
			if ifc.Qdisc().Config().JitterNs > 0 {
				r.TxJittered += ifc.TxPackets
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "originated=%d delivered=%d intended_drops=%d sink_rate=%.6g retransmits=%d\n",
		r.Originated, r.Delivered, r.IntendedDrops, r.SinkRate, r.Retransmits)
	for _, p := range r.Progs {
		fmt.Fprintf(&b, "prog %s/%s run=%d insn=%d helpers=%d\n", p.Hook, p.Name, p.RunCnt, p.InsnExecuted, p.HelperCalls)
	}
	r.Fingerprint = fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// progStats lists the statistics of every BPF attachment reachable
// from a main-table route, in node and route order.
func progStats(sim *netsim.Sim) []core.ProgStats {
	var out []core.ProgStats
	for _, n := range sim.Nodes() {
		for _, r := range n.Table(netsim.MainTable).Routes() {
			if l, ok := r.BPF.(*core.LWT); ok {
				out = append(out, l.ProgStats())
			}
			if r.Behaviour != nil {
				if e, ok := r.Behaviour.BPF.(*core.EndBPF); ok {
					out = append(out, e.ProgStats())
				}
			}
		}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pool concatenates one per-slice series over repetitions.
func pool(reps []*rep, f func(*rep) []float64) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, f(r)...)
	}
	return out
}

func wallSamples(reps []*rep) []float64 {
	return pool(reps, func(r *rep) []float64 { return r.SliceWallNsPerPkt })
}

func cpuSamples(reps []*rep) []float64 {
	return pool(reps, func(r *rep) []float64 { return r.SliceCPUNsPerPkt })
}

// over maps reps to one value each.
func over(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
