package experiments

// The observability profile: instead of measuring forwarding rate, it
// runs an instrumented workload and reports what the metrics plane saw —
// per-behavior execution-cost quantiles and queue delay from the §3.2
// lab. srv6bench -obs prints these rows and writeBenchJSON embeds them
// in the report.

import (
	"net/netip"
	"sort"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/obs"
)

// ObsRow summarises one histogram of the observability profile. All
// values are virtual nanoseconds.
type ObsRow struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50   uint64  `json:"p50_ns"`
	P90   uint64  `json:"p90_ns"`
	P99   uint64  `json:"p99_ns"`
	Max   uint64  `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
}

func obsRow(name string, h *obs.Histogram) ObsRow {
	return ObsRow{
		Name:  name,
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
		Mean:  h.Mean(),
	}
}

// ObsProfile runs the instrumented lab scenario and returns its
// histogram rows: behavior:<name> and queue_delay.
func ObsProfile(durationNs int64) ([]ObsRow, error) {
	l := newLab1(1)
	l.sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: 4})
	jit := true
	prog, err := bpf.LoadProgram(progs.TagIncrementSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &jit})
	if err != nil {
		return nil, err
	}
	end, err := core.AttachEndBPF(prog)
	if err != nil {
		return nil, err
	}
	l.r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(rSID, 128), Kind: netsim.RouteSeg6Local, Behaviour: end.Behaviour()})
	l.offer(rSID, durationNs)

	hists := l.sim.BehaviorHists()
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []ObsRow
	for _, name := range names {
		rows = append(rows, obsRow("behavior:"+name, hists[name]))
	}
	rows = append(rows, obsRow("queue_delay", l.sim.QueueDelayHist()))

	return rows, nil
}
