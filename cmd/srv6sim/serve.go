package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/tcpsim"
)

// serveLab is the continuously-running scenario behind the live stats
// endpoint: the line topology with a Tag++ End.BPF SID on R, a steady
// UDP flow through the SID and a TCP transfer alongside it, with the
// flight recorder sampling 1 in 2^shift flows.
type serveLab struct {
	sim *netsim.Sim
	a   *netsim.Node
	b   *netsim.Node
	end *core.EndBPF
	reg *obs.Registry

	// mu serialises simulation advances against handlers that read
	// mutable simulation state directly (the trace buffers); metric
	// handlers read the registry's immutable snapshots and do not
	// need it.
	mu sync.Mutex
}

func newServeLab(shards int, sampleShift uint) (*serveLab, error) {
	sim, a, r, b, err := line()
	if err != nil {
		return nil, err
	}
	l := &serveLab{sim: sim, a: a, b: b}

	prog, err := bpf.LoadProgram(progs.TagIncrementSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{})
	if err != nil {
		return nil, err
	}
	l.end, err = core.AttachEndBPF(prog)
	if err != nil {
		return nil, err
	}
	if err := r.AddRoute(&netsim.Route{Prefix: netip.PrefixFrom(sid, 128), Kind: netsim.RouteSeg6Local, Behaviour: l.end.Behaviour()}); err != nil {
		return nil, err
	}
	b.HandleUDP(7, func(*netsim.Node, *packet.Packet, *netsim.PacketMeta) {})

	// Observability on before any traffic, so every node gets a trace
	// buffer and the per-shard cells exist.
	l.reg = sim.EnableObs(netsim.ObsOptions{Trace: true, SampleShift: sampleShift, PprofLabels: true})
	l.reg.AddJSON("prog_stats", func() any {
		return []core.ProgStats{l.end.ProgStats()}
	})
	l.reg.AddJSON("engine_series", func() any {
		return l.sim.EngineSeries()
	})

	// A TCP transfer rides along so the congestion collectors have a
	// live flow to report.
	sndStack, rcvStack := tcpsim.NewStack(a), tcpsim.NewStack(b)
	snd, rcv, err := tcpsim.NewTransfer(sndStack, rcvStack, srcAddr, dstAddr, 40000, 9000, tcpsim.Config{})
	if err != nil {
		return nil, err
	}
	snd.PublishObs(l.reg, "tcp-40000-9000")
	rcv.PublishObs(l.reg, "tcp-40000-9000")
	snd.Start()

	if shards > 1 {
		if err := sim.SetShards(shards); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// advance runs one virtual-time chunk, keeps the UDP flow topped up
// and publishes a fresh snapshot.
func (l *serveLab) advance(chunkNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	until := l.sim.Now() + chunkNs
	for t := l.sim.Now(); t < until; t += 50 * netsim.Microsecond {
		seq := uint64(t / (50 * netsim.Microsecond))
		l.sim.Schedule(t, func() {
			srh := packet.NewSRH([]netip.Addr{sid, dstAddr})
			raw, err := packet.BuildPacket(srcAddr, sid, packet.WithSRH(srh),
				packet.WithUDP(1, 7), packet.WithPayload(make([]byte, 64)),
				packet.WithFlowLabel(uint32(seq%64)))
			if err == nil {
				l.a.Output(raw)
			}
		})
	}
	l.sim.RunUntil(until)
	l.reg.Publish(l.sim.Now())
}

// handler builds the HTTP mux: Prometheus text, the JSON snapshot
// (including ProgStats and the engine time series), and the Chrome
// trace_event dump of the flight recorder. net/http/pprof hangs off
// the default mux, which the server also serves.
func (l *serveLab) handler() http.Handler {
	mux := http.DefaultServeMux
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := l.reg.Last()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap.WritePrometheus(w)
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, _ *http.Request) {
		snap := l.reg.Last()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		l.mu.Lock()
		defer l.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		obs.WriteTraceEvents(w, l.sim.TraceBufs())
	})
	return mux
}

// serve drives the lab forever (or, with a dump directory, for 100 ms
// of virtual time), pacing virtual chunks against the wall clock so the
// endpoint shows a live, slowly-evolving system.
func serve(stdout io.Writer, httpAddr string, shards int, dump string) error {
	l, err := newServeLab(shards, 2)
	if err != nil {
		return err
	}

	if dump != "" {
		// Batch mode: advance a fixed horizon, then write the three
		// artifacts (Prometheus text, JSON snapshot, trace_event dump)
		// and exit. CI smoke uses this path.
		for i := 0; i < 10; i++ {
			l.advance(10 * netsim.Millisecond)
		}
		if err := l.writeDump(dump); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "observability artifacts written to %s\n", dump)
		return nil
	}

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving on http://%s — /metrics /stats.json /trace /debug/pprof/\n", ln.Addr())
	failed := make(chan error, 1)
	go func() { failed <- http.Serve(ln, l.handler()) }()
	for {
		select {
		case err := <-failed:
			return err
		default:
		}
		l.advance(10 * netsim.Millisecond)
		time.Sleep(100 * time.Millisecond)
	}
}

// writeDump renders the current snapshot to metrics.prom, stats.json
// and trace.json inside dir.
func (l *serveLab) writeDump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := l.reg.Last()
	if snap == nil {
		return fmt.Errorf("no snapshot published")
	}
	prom, err := os.Create(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(prom); err != nil {
		prom.Close()
		return err
	}
	if err := prom.Close(); err != nil {
		return err
	}
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "stats.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	tr, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(tr, l.sim.TraceBufs()); err != nil {
		tr.Close()
		return err
	}
	return tr.Close()
}
