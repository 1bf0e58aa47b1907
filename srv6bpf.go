// Package srv6bpf is a faithful reimplementation, as a self-contained
// Go library, of "Leveraging eBPF for programmable network functions
// with IPv6 Segment Routing" (Xhonneux, Duchene, Bonaventure,
// CoNEXT 2018) — the work that added the End.BPF seg6local action and
// the SRv6 eBPF helpers to Linux 4.18.
//
// The package is a facade over the implementation packages:
//
//   - a complete eBPF toolchain (assembler, verifier, interpreter,
//     maps, perf events) — internal/bpf/...;
//   - the SRv6 data plane (SRH, TLVs, seg6/seg6local behaviours) —
//     internal/seg6 and internal/packet;
//   - a deterministic discrete-event network simulator standing in
//     for the paper's lab (links with netem shaping, routers with
//     calibrated CPU cost models) — internal/netsim, internal/netem —
//     with a deterministic chaos-injection layer on top (seeded fault
//     campaigns: crashes, flaps, packet impairments) —
//     internal/netsim/chaos;
//   - the paper's contribution: the End.BPF hook, the LWT transit
//     hook and the four SRv6 helpers — internal/core;
//   - the paper's three use cases as ready-made network functions —
//     internal/nf/{progs,delaymon,hybrid,oamp} — plus the follow-up
//     work's fast-reroute function (eBPF failure detection and
//     backup segment lists) — internal/nf/frr.
//
// See the examples directory for runnable end-to-end scenarios,
// EXPERIMENTS.md for the reproduction of every figure in the paper's
// evaluation, PERFORMANCE.md for what one simulated packet costs on the
// wall clock and how to measure it (zero allocations per packet in the
// steady state; the paper's JIT factor is model time, a bool the cost
// model reads), and OBSERVABILITY.md for the metrics plane:
// the registry, the packet flight recorder,
// bpftool-style program statistics and the live stats endpoint.
package srv6bpf

import (
	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/chaos"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/nf/frr"
	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// --- Simulation substrate ---

// Sim is the discrete-event simulation kernel. Sim.SetShards(n)
// partitions the nodes across n parallel event loops with
// deterministic cross-shard channels: the same seed yields identical
// per-node counters and delivery traces for any shard count and
// placement, so large generated topologies simulate on all cores
// without giving up replayability. Shards lock-step in windows of the
// minimum cross-shard link delay, so cross-shard links need a
// positive, jitter-free delay (netsim/partition's MinCut keeps the
// others inside one shard). See Sim.EngineStats for the engine's
// accounting.
type Sim = netsim.Sim

// Journal is an append-only record for delivery traces and handler
// observations; create one per node with NewJournal.
type Journal = netsim.Journal

// NewJournal creates a node's Journal.
var NewJournal = netsim.NewJournal

// EngineStats is the parallel engine's merged per-shard accounting
// (windows, events, cross-shard messages, cut links, lookahead).
type EngineStats = netsim.EngineStats

// NewSim creates a simulation with a deterministic seed.
func NewSim(seed int64) *Sim { return netsim.New(seed) }

// Node is a simulated host or router.
type Node = netsim.Node

// Iface is one end of a point-to-point link.
type Iface = netsim.Iface

// Route is a FIB entry.
type Route = netsim.Route

// Nexthop is one ECMP member of a route.
type Nexthop = netsim.Nexthop

// RouteBackup is a route's precomputed local protection: weighted
// backup nexthops plus an optional backup segment list, activated
// when every primary nexthop's interface is down. Link failures are
// injected with Sim.FailLink / Sim.RestoreLink (or Iface.Fail /
// Iface.Restore immediately).
type RouteBackup = netsim.Backup

// PacketMeta accompanies a packet through a node.
type PacketMeta = netsim.PacketMeta

// CostModel charges virtual CPU time per packet.
type CostModel = netsim.CostModel

// Route kinds.
const (
	RouteForward   = netsim.RouteForward
	RouteLocal     = netsim.RouteLocal
	RouteSeg6Local = netsim.RouteSeg6Local
	RouteSeg6Encap = netsim.RouteSeg6Encap
	RouteLWTBPF    = netsim.RouteLWTBPF
)

// Main routing table ID.
const MainTable = netsim.MainTable

// EncapMode selects how a RouteSeg6Encap route applies its policy:
// full encapsulation (H.Encaps), inline SRH insertion, or the reduced
// encapsulation (H.Encaps.Red — the first segment rides only in the
// outer destination and is elided from the SRH).
type EncapMode = netsim.EncapMode

// Encap modes.
const (
	EncapModeEncap    = netsim.EncapModeEncap
	EncapModeInline   = netsim.EncapModeInline
	EncapModeEncapRed = netsim.EncapModeEncapRed
)

// Virtual time units.
const (
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// Cost model presets: the paper's lab servers (Xeon X3440), the
// Turris Omnia CPE, and an infinitely fast traffic host.
var (
	ServerCostModel = netsim.ServerCostModel
	CPECostModel    = netsim.CPECostModel
	HostCostModel   = netsim.HostCostModel
)

// Connect joins two nodes with per-direction netem shaping.
var (
	Connect          = netsim.Connect
	ConnectSymmetric = netsim.ConnectSymmetric
)

// LinkConfig shapes one link direction (tc-netem style).
type LinkConfig = netem.Config

// --- Topology generators (internal/netsim/topo) ---

// Topology is a generated network: the sim it was built into, all
// nodes in creation order, and the traffic-terminating hosts.
type Topology = topo.Network

// TopoOpts parameterises a topology generator (link shaping, cost
// models).
type TopoOpts = topo.Opts

// TopoLink shapes generated links; its delay feeds the sharded
// engine's lookahead.
type TopoLink = topo.LinkSpec

// WaxmanParams parameterises the Waxman random graph generator.
type WaxmanParams = topo.WaxmanParams

// Topology constructors: a chain, a cycle, a k-ary fat-tree
// (k^3/4 hosts, 5k^2/4 switches) and a Waxman random graph — all
// with deterministic shortest-path ECMP routing installed.
var (
	LineTopology = topo.Line
	RingTopology = topo.Ring
	FatTree      = topo.FatTree
	Waxman       = topo.Waxman
)

// --- Packets and the SRv6 data plane ---

// SRH is a segment routing header.
type SRH = packet.SRH

// NewSRH builds an SRH for a path given in travel order.
var NewSRH = packet.NewSRH

// BuildPacket assembles an IPv6 packet (see packet.BuildOption).
var BuildPacket = packet.BuildPacket

// Packet build options.
var (
	WithSRH       = packet.WithSRH
	WithUDP       = packet.WithUDP
	WithTCP       = packet.WithTCP
	WithPayload   = packet.WithPayload
	WithFlowLabel = packet.WithFlowLabel
	WithHopLimit  = packet.WithHopLimit
)

// ParsePacket decodes the header chain of a raw IPv6 packet.
var ParsePacket = packet.Parse

// ParsedPacket is the decoded view over raw packet bytes that UDP
// handlers receive.
type ParsedPacket = packet.Packet

// Behaviour is one seg6local entry (End, End.X, ..., End.BPF). Every
// behaviour is validated against its registry spec when the route is
// installed: Node.AddRoute rejects a misconfigured behaviour (missing
// nexthop, missing policy SRH, unsupported flavor) instead of leaving
// it to drop packets one by one.
type Behaviour = seg6.Behaviour

// seg6local actions (RFC 8986; kernel seg6_local numbering).
const (
	ActionEnd        = seg6.ActionEnd
	ActionEndX       = seg6.ActionEndX
	ActionEndT       = seg6.ActionEndT
	ActionEndDX2     = seg6.ActionEndDX2
	ActionEndDX6     = seg6.ActionEndDX6
	ActionEndDX4     = seg6.ActionEndDX4
	ActionEndDT6     = seg6.ActionEndDT6
	ActionEndDT4     = seg6.ActionEndDT4
	ActionEndDT46    = seg6.ActionEndDT46
	ActionEndB6      = seg6.ActionEndB6
	ActionEndB6Encap = seg6.ActionEndB6Encap
	ActionEndAS      = seg6.ActionEndAS
	ActionEndAM      = seg6.ActionEndAM
	ActionEndBPF     = seg6.ActionEndBPF
)

// Flavor is the RFC 8986 flavor bitmask a Behaviour carries. PSP pops
// the SRH at the penultimate segment, USP at the ultimate one; USD
// lets the End family decapsulate on the last segment — and is the
// explicit opt-in the decap family (End.DX*/DT*) requires before
// accepting a packet whose SRH still has segments left.
type Flavor = seg6.Flavor

// Flavors.
const (
	FlavorPSP = seg6.FlavorPSP
	FlavorUSP = seg6.FlavorUSP
	FlavorUSD = seg6.FlavorUSD
)

// BehaviourSpec is one entry of the behaviour-dispatch registry: its
// install-time validation, its per-packet apply step and, for SR
// proxies, the inbound step rebuilding the SR encapsulation on the
// return leg. RegisterBehaviour adds one (internal/seg6 pre-registers
// the full RFC 8986 set); LookupBehaviour inspects the table.
type BehaviourSpec = seg6.Spec

// RegisterBehaviour installs a behaviour spec in the dispatch table.
var RegisterBehaviour = seg6.Register

// LookupBehaviour returns the spec registered for an action (nil if
// none).
var LookupBehaviour = seg6.Lookup

// Seg6Encap wraps a packet in outer IPv6 + SRH (H.Encaps); EncapRed
// applies the reduced variant (first segment only in the outer
// destination, single-segment lists elide the SRH entirely); EncapL2
// carries an Ethernet frame (H.Encaps.L2). All three follow the
// kernel's tunnel-ingress hop-limit contract: the inner TTL is
// decremented at the encap node and the outer inherits it.
var (
	Seg6Encap    = seg6.Encap
	Seg6EncapRed = seg6.EncapRed
	Seg6EncapL2  = seg6.EncapL2
)

// --- The eBPF toolchain ---

// Instruction and Instructions form eBPF programs; build them with
// the constructors re-exported below (the asm dialect of the paper's
// eBPF C sources).
type (
	// Instruction is one eBPF instruction.
	Instruction = asm.Instruction
	// Instructions is a program under construction.
	Instructions = asm.Instructions
	// Register is an eBPF register (R0..R10).
	Register = asm.Register
)

// ProgramSpec describes an eBPF program before loading; Program is
// the loaded, verified form.
type (
	// ProgramSpec is a program definition.
	ProgramSpec = bpf.ProgramSpec
	// Program is a loaded program.
	Program = bpf.Program
	// LoadOptions tunes loading (simulated JIT on/off, runtime bounds).
	LoadOptions = bpf.LoadOptions
	// Hook is a program attachment type.
	Hook = bpf.Hook
	// MapSpec describes an eBPF map.
	MapSpec = maps.Spec
	// Map is a created eBPF map.
	Map = maps.Map
)

// Map types.
const (
	MapTypeHash           = maps.Hash
	MapTypeArray          = maps.Array
	MapTypePerfEventArray = maps.PerfEventArray
	MapTypeLRUHash        = maps.LRUHash
	MapTypeLPMTrie        = maps.LPMTrie
)

// NewMap creates a map from a spec.
var NewMap = maps.New

// LoadProgram assembles, verifies and loads a program for a hook.
var LoadProgram = bpf.LoadProgram

// --- The paper's contribution (internal/core) ---

// Seg6LocalHook is the End.BPF attachment type (§3): programs receive
// SRv6 packets after the endpoint advance and may call the
// lwt_seg6_* helpers.
var Seg6LocalHook = core.Seg6LocalHook

// LWTOutHook is the transit attachment type: programs run for every
// packet matching a route and may call lwt_push_encap.
var LWTOutHook = core.LWTOutHook

// AttachEndBPF instantiates a loaded program as a seg6local End.BPF
// action; install it with a RouteSeg6Local whose Behaviour comes from
// EndBPF.Behaviour().
var AttachEndBPF = core.AttachEndBPF

// AttachLWT instantiates a loaded program as a transit attachment for
// a RouteLWTBPF route.
var AttachLWT = core.AttachLWT

// EndBPF is a loaded End.BPF attachment.
type EndBPF = core.EndBPF

// LWT is a loaded transit attachment.
type LWT = core.LWT

// Program return codes (§3.1).
const (
	BPFOK       = core.BPFOK
	BPFDrop     = core.BPFDrop
	BPFRedirect = core.BPFRedirect
)

// --- Fast reroute (internal/nf/frr) ---

// FRR is a protecting router's fast-reroute instance: in-band
// liveness probes over the protected link, an End.BPF tracker
// refreshing a last-seen hash map, a K-misses detector, and an LWT
// steering program that flips protected traffic onto a precomputed
// backup segment list. See examples/fast-reroute for a full
// scenario and internal/experiments.FRRRecovery for the measured
// recovery-time/probe-interval trade-off.
type FRR = frr.FRR

// FRRConfig parameterises a protecting router (tracker SID, probe
// interval, K misses).
type FRRConfig = frr.Config

// FRRNeighbor is one monitored adjacency.
type FRRNeighbor = frr.Neighbor

// FRRProtection binds a traffic prefix to a neighbour's liveness and
// its backup segment list.
type FRRProtection = frr.Protection

// FRRTransition is one up/down decision of the detector.
type FRRTransition = frr.Transition

// NewFRR creates the fast-reroute instance on a node.
var NewFRR = frr.New

// --- Chaos injection (internal/netsim/chaos) ---

// ChaosEngine is the deterministic fault injector: given a seed it
// plans node crash/restart cycles, link flaps and netem-level packet
// impairments as ordinary simulation events, so a fault campaign
// replays bit-identically at any shard count.
type ChaosEngine = chaos.Engine

// ChaosCampaign describes a randomized fault campaign (how many
// crashes, flaps and impairment windows to draw, and from what
// ranges).
type ChaosCampaign = chaos.Campaign

// ChaosImpairment is the netem knob set a chaos impairment window
// applies (corruption, duplication, reordering probabilities).
type ChaosImpairment = chaos.Impairment

// NewChaos creates a fault injector for a simulation. Plan faults
// before Sim.Run; the same seed yields the same campaign.
var NewChaos = chaos.New

// --- Observability (internal/obs; see OBSERVABILITY.md) ---

// ObsRegistry is the pull-model metrics registry: subsystems register
// collectors, Publish runs them and swaps in an immutable snapshot
// (Prometheus text or JSON). Attach one to a simulation with
// Sim.EnableObs; frr.FRR, tcpsim senders/receivers and the chaos
// engine publish into it via their PublishObs methods.
type ObsRegistry = obs.Registry

// ObsOptions configures Sim.EnableObs: metrics always, plus the
// packet flight recorder (Trace, with deterministic 1-in-2^SampleShift
// flow sampling — a flow-label hash, not an RNG draw, so the recorded
// schedule is bit-identical to a recorder-off run), the engine
// time-series ring and per-shard pprof labels.
type ObsOptions = netsim.ObsOptions

// ObsSnapshot is one published, immutable view of every metric;
// render it with WritePrometheus or encoding/json.
type ObsSnapshot = obs.Snapshot

// ObsHistogram is the log-linear histogram the plane records into
// (≤6.25% relative quantile error; per-shard instances merge exactly).
type ObsHistogram = obs.Histogram

// TraceBuf is one node's flight-recorder journal; the recorded stream
// is shard-count-invariant.
type TraceBuf = obs.TraceBuf

// EnginePoint is one per-round sample of the engine vitals
// (Sim.EngineSeries).
type EnginePoint = obs.EnginePoint

// ProgStats is a bpftool-style per-attachment statistics snapshot
// (run count, retired instructions, per-helper call counts, verdict
// breakdown, fault/quarantine state); see EndBPF.ProgStats,
// LWT.ProgStats and `sebpf prog show`.
type ProgStats = core.ProgStats

// NewObsRegistry creates a standalone registry (Sim.EnableObs creates
// one implicitly when not given one).
var NewObsRegistry = obs.New

// WriteTraceEvents renders flight-recorder journals (Sim.TraceBufs)
// as Chrome trace_event JSON for chrome://tracing or Perfetto.
var WriteTraceEvents = obs.WriteTraceEvents
