package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/bpf/vm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/partition"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// Per-layer probes: timed batches of calls into the public functions
// of each internal package, made from here so the layers themselves
// carry no instrumentation. Every probe reports the median batch.
const (
	probeBatches = 15
	probeCalls   = 1000
)

// sink keeps probe results alive so the compiler cannot drop the call.
var sink any

type prober struct {
	tr *tracer
	ns map[string]float64 // probe name -> median ns per operation
}

// batch times fn, which performs n operations, probeBatches times
// (after one untimed warm-up call) and records the median ns per
// operation under name.
func (p *prober) batch(name string, n int, fn func()) {
	sp := p.tr.begin("probe." + name)
	defer p.tr.end(sp)
	fn()
	samples := make([]float64, probeBatches)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0)) / float64(n)
	}
	p.ns[name] = median(samples)
}

// each times probeCalls calls of fn per batch.
func (p *prober) each(name string, fn func()) {
	p.batch(name, probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			fn()
		}
	})
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runProbes measures every probe once. The inputs are the wire
// packets the workloads send: 64-byte UDP, plain and inside a
// 2-segment SRH, plus an MSS-sized segment for the LWT hook.
func runProbes(tr *tracer) map[string]float64 {
	p := &prober{tr: tr, ns: map[string]float64{}}
	root := tr.begin("probes")
	defer tr.end(root)

	srh := packet.NewSRH([]netip.Addr{labSID(0), labS2})
	srhPkt := must(packet.BuildPacket(labS1, labSID(0), packet.WithSRH(srh),
		packet.WithUDP(1000, 9999), packet.WithPayload(make([]byte, 64))))
	plainPkt := must(packet.BuildPacket(labS1, labS2,
		packet.WithUDP(1000, 9999), packet.WithPayload(make([]byte, 64))))
	work := packet.Clone(srhPkt)

	// packet
	p.each("packet.parse_srh", func() { sink, _ = packet.ParseInfo(srhPkt) })
	p.each("packet.parse_plain", func() { sink, _ = packet.ParseInfo(plainPkt) })
	p.each("packet.clone", func() { sink = packet.Clone(srhPkt) })
	// What a forwarding hop reads: the fixed header and both addresses.
	p.each("packet.decode_hdr", func() {
		hdr := must(packet.DecodeIPv6(srhPkt))
		src := must(packet.IPv6Src(srhPkt))
		dst := must(packet.IPv6Dst(srhPkt))
		sink = hdr.HopLimit + src.As16()[15] + dst.As16()[15]
	})

	// seg6
	end := &seg6.Behaviour{Action: seg6.ActionEnd}
	p.each("seg6.end", func() {
		copy(work, srhPkt)
		sink = must(seg6.Apply(end, work))
	})
	decapSRH := packet.NewSRH([]netip.Addr{hybrid.SIDCPELink0})
	p.each("seg6.encap", func() { sink = must(seg6.Encap(plainPkt, labR, decapSRH)) })
	encapped := must(seg6.Encap(plainPkt, labR, decapSRH))
	dt6 := &seg6.Behaviour{Action: seg6.ActionEndDT6, Table: netsim.MainTable}
	p.each("seg6.dt6", func() { sink = must(seg6.Apply(dt6, encapped)) })

	// bpf/vm: a straight line of register ALU operations.
	alu := asm.Instructions{asm.Mov64Imm(asm.R0, 1)}
	for i := 0; i < 64; i++ {
		alu = append(alu, asm.ALU64Imm(asm.Add, asm.R0, 3), asm.ALU64Imm(asm.Xor, asm.R0, 5))
	}
	alu = append(alu, asm.Return())
	for _, eng := range []struct {
		name string
		jit  bool
	}{{"jit", true}, {"interp", false}} {
		ex := must(vm.NewExecutable(alu, nil, eng.jit))
		m := vm.NewMachine(vm.NewMemory(), nil)
		p.batch("bpf_vm.alu_insn_"+eng.name, probeCalls*len(alu), func() {
			for i := 0; i < probeCalls; i++ {
				sink = must(m.Run(ex, 0))
			}
		})
	}

	// core: the End.BPF hook end to end (parse, bind, run, validate)
	// on the lab's router node.
	lab := must(buildLab3(1, nil, lab3Static, []int64{2000}, 1))
	r := lab.sim.Nodes()[1]
	meta := &netsim.PacketMeta{}
	for _, pr := range []struct {
		name   string
		spec   *bpf.ProgramSpec
		interp bool
	}{
		{"end", progs.EndSpec(), true},
		{"endt", progs.EndTSpec(7), false},
		{"tag", progs.TagIncrementSpec(), true},
		{"addtlv", progs.AddTLVSpec(), true},
	} {
		for _, jit := range []bool{true, false} {
			if !jit && !pr.interp {
				continue
			}
			jit := jit
			hook := must(core.AttachEndBPF(must(bpf.LoadProgram(pr.spec, core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &jit}))))
			name := "core.endbpf_" + pr.name + "_jit"
			if !jit {
				name = "core.endbpf_" + pr.name + "_interp"
			}
			p.each(name, func() {
				// Add TLV grows the packet in place; restore the template.
				work = append(work[:0], srhPkt...)
				res, _, err := hook.RunSeg6Local(r, work, meta)
				if err != nil || res.Verdict == seg6.VerdictDrop {
					panic(fmt.Sprintf("probe %s: verdict %v, err %v", name, res.Verdict, err))
				}
			})
		}
	}

	// core: the LWT hook running the hybrid testbed's own WRR
	// attachment (interpreted, as on the paper's CPE) on an MSS-sized
	// TCP segment.
	tb := must(hybrid.NewTestbed(netsim.New(1), hybrid.Params{
		Link0: hybrid.LinkSpec{RateBps: 50_000_000}, Link1: hybrid.LinkSpec{RateBps: 30_000_000},
	}))
	if err := tb.EnableWRRDownstream(); err != nil {
		panic(err)
	}
	wrr := tb.Agg.Lookup(hybrid.S2Addr, netsim.MainTable).BPF.(*core.LWT)
	seg := must(packet.BuildPacket(hybrid.S1Addr, hybrid.S2Addr,
		packet.WithTCP(packet.TCP{SrcPort: 41000, DstPort: 5001}), packet.WithPayload(make([]byte, 1400))))
	p.each("core.lwt_out", func() {
		out, verdict, _, err := wrr.RunLWTOut(tb.Agg, seg, meta)
		if err != nil || verdict != netsim.LWTOK {
			panic(fmt.Sprintf("probe core.lwt_out: verdict %v, err %v", verdict, err))
		}
		sink = out
	})

	// bpf/verifier: assemble + verify + instantiate the Tag++ program.
	p.batch("bpf_verifier.load", 20, func() {
		for i := 0; i < 20; i++ {
			sink = must(core.AttachEndBPF(must(bpf.LoadProgram(progs.TagIncrementSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{}))))
		}
	})

	// bpf/maps
	hash := maps.MustNew(maps.Spec{Name: "probe_hash", Type: maps.Hash, KeySize: 16, ValueSize: 8, MaxEntries: 1024})
	keys := make([][]byte, 1024)
	val := make([]byte, 8)
	for i := range keys {
		keys[i] = make([]byte, 16)
		binary.LittleEndian.PutUint32(keys[i], uint32(i))
		if err := hash.Update(keys[i], val, maps.UpdateAny); err != nil {
			panic(err)
		}
	}
	i := 0
	p.each("bpf_maps.hash_lookup", func() { sink = must(hash.Lookup(keys[i&1023])); i++ })
	p.each("bpf_maps.hash_update", func() {
		if err := hash.Update(keys[i&1023], val, maps.UpdateExist); err != nil {
			panic(err)
		}
		i++
	})
	lpm := maps.MustNew(maps.Spec{Name: "probe_lpm", Type: maps.LPMTrie, KeySize: 20, ValueSize: 8, MaxEntries: 256})
	lpmKeys := make([][]byte, 256)
	for i := range lpmKeys {
		k := make([]byte, 20)
		binary.LittleEndian.PutUint32(k, 48)
		copy(k[4:], []byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(i)})
		if err := lpm.Update(k, val, maps.UpdateAny); err != nil {
			panic(err)
		}
		q := append([]byte(nil), k...)
		binary.LittleEndian.PutUint32(q, 128)
		q[19] = 1
		lpmKeys[i] = q
	}
	p.each("bpf_maps.lpm_lookup", func() { sink = must(lpm.Lookup(lpmKeys[i&255])); i++ })

	// netem: one admission per call, spaced so the queue never fills.
	rng := rand.New(rand.NewSource(1))
	q := netem.New(netem.Config{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond})
	now := int64(0)
	p.each("netem.admit", func() {
		now += 1000
		if _, ok := q.Admit(now, 118, rng); !ok {
			panic("probe netem.admit: dropped")
		}
	})
	qj := netem.New(netem.Config{RateBps: 50_000_000, DelayNs: 15 * netsim.Millisecond, JitterNs: 2_500_000, QueueLimit: 300})
	p.each("netem.admit_jitter", func() {
		now += 250 * netsim.Microsecond
		if _, ok := qj.Admit(now, 1500, rng); !ok {
			panic("probe netem.admit_jitter: dropped")
		}
	})

	// netsim FIB: the lab router's handful of routes, then an edge
	// switch of the fat-tree (hundreds of /48s with ECMP sets).
	sid := labSID(0)
	p.each("netsim_fib.lookup_lab", func() { sink = r.Lookup(sid, netsim.MainTable) })
	var ftBuild []float64
	var ft *topo.Network
	for n := 0; n < 3; n++ {
		sp := tr.begin("probe.topo.fattree_build")
		t0 := time.Now()
		ft = must(buildTopo(netsim.New(1), "fattree"))
		ftBuild = append(ftBuild, float64(time.Since(t0))/1e6)
		tr.end(sp)
	}
	p.ns["topo.fattree_build_ms"] = median(ftBuild)
	sw := ft.Nodes[0] // edge switch p0-e0: /48 host routes, ECMP over its four uplinks
	hostAddrs := make([]netip.Addr, len(ft.Hosts))
	for n, h := range ft.Hosts {
		hostAddrs[n] = ft.HostAddr(h)
	}
	p.each("netsim_fib.lookup_fattree", func() { sink = sw.Lookup(hostAddrs[i%len(hostAddrs)], netsim.MainTable); i++ })
	var ecmp *netsim.Route
	for _, a := range hostAddrs {
		if rt := sw.Lookup(a, netsim.MainTable); rt != nil && len(rt.Nexthops) > 1 {
			ecmp = rt
			break
		}
	}
	if ecmp == nil {
		panic("probe netsim_fib.select_nexthop: edge switch has no ECMP route")
	}
	p.each("netsim_fib.select_nexthop", func() { sink = ecmp.SelectNexthop(labS1, labS2, uint32(i&15)); i++ })

	// netsim engine: no-op events through a heap held at a steady
	// depth, each event scheduling its successor the way generator
	// ticks and drain continuations do. Depth 8 is what the lab-sized
	// workloads keep pending, 512 what the 200-node ones do (their
	// generators alone hold 128-256 events).
	for _, depth := range []int64{8, 512} {
		es := netsim.New(1)
		left := int64(0)
		var tick func()
		tick = func() {
			if left--; left >= depth {
				es.Schedule(es.Now()+depth, tick)
			}
		}
		p.batch(fmt.Sprintf("netsim_engine.event_d%d", depth), 20*probeCalls, func() {
			left = 20 * probeCalls
			for i := int64(1); i <= depth; i++ {
				es.Schedule(es.Now()+i, tick)
			}
			es.Run()
		})
	}

	// topo + partition: the Waxman build and its 2-way min cut.
	var wxBuild, cut []float64
	for n := 0; n < 3; n++ {
		sp := tr.begin("probe.topo.waxman_build")
		t0 := time.Now()
		wx := must(buildTopo(netsim.New(1), "waxman"))
		wxBuild = append(wxBuild, float64(time.Since(t0))/1e6)
		tr.end(sp)
		sp = tr.begin("probe.partition.mincut")
		t0 = time.Now()
		sink = must(partition.MinCut(partition.FromSim(wx.Sim), 2, minCutSeed))
		cut = append(cut, float64(time.Since(t0))/1e6)
		tr.end(sp)
	}
	p.ns["topo.waxman_build_ms"] = median(wxBuild)
	p.ns["partition.mincut_ms"] = median(cut)

	// obs
	var h obs.Histogram
	p.each("obs.hist_observe", func() { h.Observe(int64(i) * 37); i++ })
	tbuf := obs.NewTraceBuf("probe")
	p.batch("obs.span_start", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			tbuf.Start(obs.Span{Flow: uint32(i), At: int64(i)})
		}
		tbuf.RestoreState(0)
	})
	return p.ns
}

// arms are the repetitions the traced pass made of one workload.
type arms struct {
	untraced []*rep
	traced   []*rep
	seq      []*rep // sharded workloads only: the same sim on the sequential engine
}

// layerMetrics derives every per-layer metric of one workload from
// the probes and the traced pass. Each share_pct is a count from the
// run times the matching probe's cost, over the untraced wall time
// per packet; what the shares leave is netsim_node.unattributed_pct.
func layerMetrics(w *workload, probes map[string]float64, a arms) map[string]float64 {
	ref, tr := a.untraced[0], a.traced[0] // counts are model-fixed: any repetition serves
	pkts := float64(ref.Originated)
	wall := quantile(wallSamples(a.untraced), 0.10)
	m := map[string]float64{}

	per := func(n uint64) float64 { return float64(n) / pkts }
	share := func(nsPerPkt float64) float64 { return 100 * nsPerPkt / wall }
	hops := per(tr.Hops.Total)

	// packet
	m["packet.parse_srh_ns"] = probes["packet.parse_srh"]
	m["packet.parse_plain_ns"] = probes["packet.parse_plain"]
	m["packet.clone_ns"] = probes["packet.clone"]
	m["packet.decode_hdr_ns"] = probes["packet.decode_hdr"]
	parse := probes["packet.parse_plain"]
	if w.srh {
		parse = probes["packet.parse_srh"]
	}
	// One clone per originated packet, a fixed-header decode per
	// forwarding decision (a seg6local or LWT hop forwards its result)
	// and a full parse per local delivery. The SRH walk of a
	// seg6local hop is inside the seg6 and core probes.
	route := tr.Hops.ByRoute
	m["packet.share_pct"] = share(probes["packet.clone"] +
		per(route["forward"]+route["seg6local"]+route["lwt_bpf"])*probes["packet.decode_hdr"] +
		per(route["local"])*parse)

	// seg6
	m["seg6.end_ns"] = probes["seg6.end"]
	m["seg6.encap_ns"] = probes["seg6.encap"]
	m["seg6.dt6_ns"] = probes["seg6.dt6"]
	beh := tr.Hops.ByBehavior
	m["seg6.share_pct"] = share(per(beh["End"])*probes["seg6.end"] +
		per(beh["End.DT6"])*probes["seg6.dt6"] +
		per(beh["T.Encaps"]+beh["H.Encaps.Red"])*probes["seg6.encap"])

	// bpf/vm and core
	m["bpf_vm.alu_ns_per_insn_jit"] = probes["bpf_vm.alu_insn_jit"]
	m["bpf_vm.alu_ns_per_insn_interp"] = probes["bpf_vm.alu_insn_interp"]
	for _, n := range []string{"end", "tag", "addtlv"} {
		m["core.endbpf_"+n+"_jit_ns"] = probes["core.endbpf_"+n+"_jit"]
		m["core.endbpf_"+n+"_interp_ns"] = probes["core.endbpf_"+n+"_interp"]
	}
	m["core.endbpf_endt_jit_ns"] = probes["core.endbpf_endt_jit"]
	m["core.lwt_out_ns"] = probes["core.lwt_out"]
	hookProbe := map[string]string{
		"end_bpf": "end", "end_t_bpf": "endt", "tag_inc": "tag", "add_tlv": "addtlv",
		"end_dm": "tag", // closest in shape: bounds checks plus one helper call
	}
	var runs, insns, helpers, wrrRuns, wrrInsns uint64
	var coreNs float64
	for _, ps := range ref.Progs {
		runs += ps.RunCnt
		insns += ps.InsnExecuted
		helpers += ps.HelperCalls
		cost := probes["core.lwt_out"]
		if ps.Hook == "lwt_seg6local" {
			eng := "_jit"
			if !ps.JIT {
				eng = "_interp"
			}
			cost = probes["core.endbpf_"+hookProbe[ps.Name]+eng]
		}
		if ps.Name == "wrr_sched" {
			wrrRuns += ps.RunCnt
			wrrInsns += ps.InsnExecuted
		}
		coreNs += per(ps.RunCnt) * cost
	}
	m["core.bpf_runs_per_pkt"] = per(runs)
	m["core.helper_calls_per_run"] = ratio(helpers, runs)
	m["core.share_pct"] = share(coreNs)
	m["bpf_vm.insns_per_run"] = ratio(insns, runs)
	m["nf_hybrid.wrr_insns_per_run"] = ratio(wrrInsns, wrrRuns)

	m["bpf_verifier.load_us"] = probes["bpf_verifier.load"] / 1e3
	m["bpf_maps.hash_lookup_ns"] = probes["bpf_maps.hash_lookup"]
	m["bpf_maps.hash_update_ns"] = probes["bpf_maps.hash_update"]
	m["bpf_maps.lpm_lookup_ns"] = probes["bpf_maps.lpm_lookup"]

	// netem: one admission per transmitted packet.
	m["netem.admit_ns"] = probes["netem.admit"]
	m["netem.admit_jitter_ns"] = probes["netem.admit_jitter"]
	m["netem.share_pct"] = share(per(ref.TxPackets-ref.TxJittered)*probes["netem.admit"] +
		per(ref.TxJittered)*probes["netem.admit_jitter"])

	// netsim FIB: one lookup per hop plus the re-lookup after a
	// seg6local or LWT hop; one nexthop selection per transmission.
	m["netsim_fib.lookup_lab_ns"] = probes["netsim_fib.lookup_lab"]
	m["netsim_fib.lookup_fattree_ns"] = probes["netsim_fib.lookup_fattree"]
	m["netsim_fib.select_nexthop_ns"] = probes["netsim_fib.select_nexthop"]
	lookups := hops + per(route["seg6local"]+route["lwt_bpf"])
	selections := 0.0
	if w.fibProbe == "fattree" {
		// Only the generated topologies have ECMP sets to hash over;
		// a single-nexthop route returns its member without hashing.
		selections = per(ref.TxPackets)
	}
	m["netsim_fib.share_pct"] = share(lookups*probes["netsim_fib.lookup_"+w.fibProbe] +
		selections*probes["netsim_fib.select_nexthop"])

	// netsim engine
	event := probes[fmt.Sprintf("netsim_engine.event_d%d", w.heapDepth)]
	m["netsim_engine.event_ns"] = event
	m["netsim_engine.events_per_pkt"] = per(ref.Engine.Events)
	m["netsim_engine.share_pct"] = share(per(ref.Engine.Events) * event)
	m["netsim_engine.slice_ns_per_pkt_p50"] = median(wallSamples(a.untraced))
	m["netsim_engine.slice_ns_per_pkt_p95"] = quantile(wallSamples(a.untraced), 0.95)

	// netsim node
	m["netsim_node.ns_per_pkt_hop"] = wall / hops
	m["netsim_node.rx_ring_full_pct"] = 100 * per(ref.RxRingFull)
	attributed := 0.0
	for _, l := range []string{"packet", "seg6", "core", "netem", "netsim_fib", "netsim_engine"} {
		attributed += m[l+".share_pct"]
	}
	m["netsim_node.unattributed_pct"] = 100 - attributed

	// netsim shard
	m["netsim_shard.windows"] = float64(ref.Engine.Windows)
	m["netsim_shard.cross_shard_msgs"] = float64(ref.Engine.Messages)
	m["netsim_shard.cut_links"] = float64(ref.Engine.CutLinks)
	m["netsim_shard.speedup_vs_seq"] = 1
	if len(a.seq) > 0 {
		m["netsim_shard.speedup_vs_seq"] = quantile(wallSamples(a.seq), 0.10) / wall
	}
	var cpuNs, wallNs int64
	for _, r := range a.untraced {
		cpuNs += r.WindowCPUNs
		wallNs += r.WindowWallNs
	}
	m["netsim_shard.cpu_s_per_wall_s"] = float64(cpuNs) / float64(wallNs)

	m["partition.mincut_ms"] = probes["partition.mincut_ms"]
	m["topo.fattree_build_ms"] = probes["topo.fattree_build_ms"]
	m["topo.waxman_build_ms"] = probes["topo.waxman_build_ms"]

	// tcpsim
	m["tcpsim.model_goodput_mbps"] = 0
	if ref.TCP {
		m["tcpsim.model_goodput_mbps"] = ref.SinkRate / 1e6
	}
	m["tcpsim.retransmits"] = float64(ref.Retransmits)

	// obs
	m["obs.hist_observe_ns"] = probes["obs.hist_observe"]
	m["obs.span_start_ns"] = probes["obs.span_start"]
	m["obs.publish_us"] = median(over(a.traced, func(r *rep) float64 { return r.PublishUs }))
	m["obs.trace_overhead_pct"] = 100 * (quantile(wallSamples(a.traced), 0.10)/wall - 1)
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
