package netsim

// The simulator side of the observability plane (internal/obs): a
// sim-level switchboard every node checks with a single nil test.
// With observability disabled the datapath pays one pointer compare
// per hop (plus span-index compares that are always false); enabling
// metrics adds per-shard histogram cells, and enabling the flight
// recorder attaches a TraceBuf journal to every node (the equivalence
// fuzzer asserts span-for-span identity across shard counts).

import (
	"context"
	"runtime/pprof"
	"sort"
	"strconv"

	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// ObsOptions configures Sim.EnableObs.
type ObsOptions struct {
	// Registry receives the sim's collectors; nil creates a fresh one.
	Registry *obs.Registry
	// Trace turns on the packet flight recorder.
	Trace bool
	// SampleShift selects the recorder's flow sampling rate: 1 in
	// 2^shift flow labels are recorded (0 records every flow). The
	// decision is a pure hash of the flow label — no RNG draw — so
	// the simulated schedule is bit-identical to a recorder-off run.
	SampleShift uint
	// SeriesCap bounds the per-round EngineStats ring (default 512).
	SeriesCap int
	// PprofLabels wraps shard workers in runtime/pprof labels
	// (shard="<id>") so CPU profiles split by shard.
	PprofLabels bool
}

// obsCell is one shard's histogram set. Cells are per shard so the
// parallel hot path writes without locks; readers merge at scrape
// time (exact, by log-linear bucket construction).
type obsCell struct {
	queueDelay obs.Histogram
	behavior   [seg6.NumActions]obs.Histogram
}

// simObs is the per-sim observability state; Sim.obs and every
// Node.obs point at the same instance.
type simObs struct {
	reg         *obs.Registry
	sampleShift uint
	trace       bool
	pprofLabels bool

	series *obs.Series

	cells  []*obsCell
	labels []string // per-shard pprof label values
	bufs   []*obs.TraceBuf

	scratch map[string]uint64 // counter aggregation, reused per scrape
}

// EnableObs attaches the observability plane to the simulation and
// returns its registry. Call it after the topology is built and while
// the sim is quiescent; calling it twice returns the existing
// registry. Publish the registry only between Run/RunUntil calls.
func (s *Sim) EnableObs(o ObsOptions) *obs.Registry {
	if s.running {
		panic("netsim: EnableObs from inside a sharded run")
	}
	if s.obs != nil {
		return s.obs.reg
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.New()
	}
	seriesCap := o.SeriesCap
	if seriesCap <= 0 {
		seriesCap = 512
	}
	so := &simObs{
		reg:         reg,
		sampleShift: o.SampleShift,
		trace:       o.Trace,
		pprofLabels: o.PprofLabels,
		series:      obs.NewSeries(seriesCap),
		scratch:     make(map[string]uint64),
	}
	so.sizeCells(len(s.shards))
	s.obs = so
	for _, n := range s.nodes {
		so.attachNode(n)
	}
	so.registerCollectors(s)
	return reg
}

// ObsRegistry returns the registry attached by EnableObs (nil when
// observability is off).
func (s *Sim) ObsRegistry() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// TraceBufs returns every node's flight-recorder journal in node
// creation order (nil when the recorder is off).
func (s *Sim) TraceBufs() []*obs.TraceBuf {
	if s.obs == nil {
		return nil
	}
	return s.obs.bufs
}

// EngineSeries returns the ring-buffered per-round EngineStats
// samples, oldest first (nil when observability is off).
func (s *Sim) EngineSeries() []obs.EnginePoint {
	if s.obs == nil {
		return nil
	}
	return s.obs.series.Points()
}

// attachNode wires a node into the plane (called for existing nodes
// at EnableObs and for nodes added afterwards).
func (o *simObs) attachNode(n *Node) {
	n.obs = o
	if o.trace && n.traceBuf == nil {
		tb := obs.NewTraceBuf(n.Name)
		n.traceBuf = tb
		o.bufs = append(o.bufs, tb)
	}
}

// sizeCells (re)allocates the per-shard histogram cells; called at
// EnableObs and again whenever SetShards changes the shard count
// (which also restarts the engine's counters).
func (o *simObs) sizeCells(n int) {
	o.cells = make([]*obsCell, n)
	o.labels = make([]string, n)
	for i := range o.cells {
		o.cells[i] = &obsCell{}
		o.labels[i] = strconv.Itoa(i)
	}
}

func (o *simObs) mergedBehavior(action int) *obs.Histogram {
	m := &obs.Histogram{}
	for _, c := range o.cells {
		m.Merge(&c.behavior[action])
	}
	return m
}

// pushEnginePoint samples the engine's vitals into the ring; called
// by the coordinator once per synchronisation round.
func (o *simObs) pushEnginePoint(s *Sim, virtualNs int64) {
	st := s.EngineStats()
	o.series.Push(obs.EnginePoint{
		Round:     int64(st.Windows),
		VirtualNs: virtualNs,
		Events:    st.Events,
		Messages:  st.Messages,
	})
}

// obsDo runs the loop that executes sh's windows — a worker's, or the
// coordinator's for shard 0 — labeled for pprof when asked.
func (s *Sim) obsDo(sh *shard, body func()) {
	if s.obs != nil && s.obs.pprofLabels {
		pprof.Do(context.Background(), pprof.Labels("shard", s.obs.labels[sh.id]),
			func(context.Context) { body() })
		return
	}
	body()
}

// registerCollectors publishes the sim's metrics into the registry:
// engine vitals, node counters aggregated by name, interface totals
// and the merged histograms.
func (o *simObs) registerCollectors(s *Sim) {
	o.reg.Collect(func(e *obs.Emitter) {
		st := s.EngineStats()
		e.Gauge("srv6sim_virtual_time_ns", "", float64(s.Now()))
		e.Gauge("srv6sim_shards", "", float64(st.Shards))
		e.Counter("srv6sim_engine_events_total", "", float64(st.Events))
		e.Counter("srv6sim_engine_messages_total", "", float64(st.Messages))
		e.Counter("srv6sim_engine_windows_total", "", float64(st.Windows))
		e.Counter("srv6sim_engine_buf_gets_total", "", float64(st.BufGets))
		e.Counter("srv6sim_engine_buf_reuses_total", "", float64(st.BufReuses))

		clear(o.scratch)
		for _, n := range s.nodes {
			n.eachCounter(func(name string, v uint64) { o.scratch[name] += v })
		}
		names := make([]string, 0, len(o.scratch))
		for name := range o.scratch {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			e.Counter("srv6sim_node_events_total", `counter="`+name+`"`, float64(o.scratch[name]))
		}

		var tx, txDrops, downDrops uint64
		for _, n := range s.nodes {
			for _, ifc := range n.ifaces {
				tx += ifc.TxPackets
				txDrops += ifc.TxDrops
				downDrops += ifc.DownDrops()
			}
		}
		e.Counter("srv6sim_iface_tx_packets_total", "", float64(tx))
		e.Counter("srv6sim_iface_tx_drops_total", "", float64(txDrops))
		e.Counter("srv6sim_iface_down_drops_total", "", float64(downDrops))

		queue := &obs.Histogram{}
		for _, c := range o.cells {
			queue.Merge(&c.queueDelay)
		}
		e.Hist("srv6sim_queue_delay_ns", "", queue)
		for a := range o.cells[0].behavior {
			h := o.mergedBehavior(a)
			if h.Count() > 0 {
				e.Hist("srv6sim_behavior_cost_ns", `behavior="`+seg6.Action(a).String()+`"`, h)
			}
		}

		if o.trace {
			var spans int
			for _, b := range o.bufs {
				spans += b.Len()
			}
			e.Gauge("srv6sim_trace_spans", "", float64(spans))
		}
	})
}

// --- Node-side hooks (called from the datapath behind nil checks) ---

// obsBeginHop runs once per processed hop when observability is
// enabled: it feeds the queue-delay histogram and, when the flight
// recorder is on and the packet's flow label samples in, opens the
// hop's span. The sampling decision re-derives at every hop from the
// flow label — which SRH processing preserves end to end — so
// "tagged at first emission" holds without carrying state on the
// packet.
func (n *Node) obsBeginHop(raw []byte, queueNs int64) {
	o := n.obs
	o.cells[n.shard.id].queueDelay.Observe(queueNs)
	if n.traceBuf == nil {
		return
	}
	info, err := packet.ParseInfo(raw)
	if err != nil || !obs.Sampled(info.FlowLabel, o.sampleShift) {
		return
	}
	segLeft := int16(-1)
	if info.HasSRH() {
		segLeft = int16(info.SegmentsLeft)
	}
	n.spanIdx = n.traceBuf.Start(obs.Span{
		Flow: info.FlowLabel, At: n.Now(), QueueNs: queueNs, SegLeft: segLeft,
	})
}

// obsEndHop closes the open span with the hop's total modeled cost.
func (n *Node) obsEndHop(cost int64) {
	if n.spanIdx >= 0 {
		n.traceBuf.At(n.spanIdx).DurNs = cost
		n.spanIdx = -1
	}
}

// obsRoute records the hop's first FIB outcome. Like obsBehavior and
// obsVerdict it tests n.spanIdx itself — only ever >= 0 for a sampled
// hop of a recorder-enabled run — so the datapath calls the three
// unguarded, except where building the argument would cost something.
func (n *Node) obsRoute(kind string) {
	if n.spanIdx >= 0 {
		if sp := n.traceBuf.At(n.spanIdx); sp.Route == "" {
			sp.Route = kind
		}
	}
}

// obsBehavior records the SRv6 behavior the hop executed.
func (n *Node) obsBehavior(b string) {
	if n.spanIdx >= 0 {
		n.traceBuf.At(n.spanIdx).Behavior = b
	}
}

// obsVerdict records the hop's datapath verdict: the stage that ends
// the hop writes it.
func (n *Node) obsVerdict(v string) {
	if n.spanIdx >= 0 {
		n.traceBuf.At(n.spanIdx).Verdict = v
	}
}
