// Package srv6bpf is a faithful reimplementation, as a self-contained
// Go module, of "Leveraging eBPF for programmable network functions
// with IPv6 Segment Routing" (Xhonneux, Duchene, Bonaventure,
// CoNEXT 2018) — the work that added the End.BPF seg6local action and
// the SRv6 eBPF helpers to Linux 4.18.
//
// The module is a tool, not a library: this package exports nothing
// and holds the datapath's wall-clock benchmarks and allocation locks.
// The implementation is in internal packages:
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
// Each lab has one front end, and `go test ./...` runs every one: the
// examples directory narrates the End.BPF quickstart, §4.1 delay
// monitoring, §4.3 ECMP traceroute and fast reroute, each pinning its
// output; cmd/srv6bench prints every figure of the evaluation, §4.2
// included (EXPERIMENTS.md); cmd/sebpf inspects and runs the bundled
// programs; cmd/srv6sim serves the metrics plane (OBSERVABILITY.md).
// PERFORMANCE.md has what one simulated packet costs on the wall clock
// and how to measure it.
package srv6bpf
