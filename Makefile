# Tier-1 verification and benchmark entry points.
#
#   make check   — build + vet + full test suite + sharded-engine
#                  race smoke + equivalence-fuzz smoke + native
#                  parser-fuzz smoke + obs smoke + benchmark-module
#                  smoke (the tier-1 gate). The test suite holds the
#                  model-time golden (Figures 2-4, the JIT factor and
#                  the full PDR scan, compared by equality:
#                  TestModelGolden), the §4.2 TCP rows against the
#                  paper (TestTCPHybrid) and the behaviour-matrix engine
#                  equivalence (TestMatrixScan), and it runs every
#                  example (each pins its output) and a smoke test of
#                  each command
#   make fuzz-native [FUZZTIME=5s] — coverage-guided fuzzing of the
#                  wire parsers (FuzzParseInfo, FuzzValidateSRH) and of
#                  the packet builders against their oracles
#                  (FuzzBuildPacketMatchesReference, FuzzEncapWire,
#                  FuzzEncapInPlace)
#   make chaos-smoke — chaos-injection determinism gate: chaos unit
#                  tests, crash/impairment tests, chaos-heavy
#                  equivalence slice (the CI chaos job)
#   make obs-smoke — observability gate: obs package tests, the
#                  netsim recorder tests, and a headless srv6sim run
#                  writing the three artifacts (Prometheus text, JSON
#                  snapshot, trace_event dump) to OBS_DUMP_DIR on two
#                  shards
#   make race    — full test suite under the race detector (CI job;
#                  the parallel simulation engine must be race-clean)
#   make fuzz-deep — full-depth randomized equivalence fuzzing of the
#                  sharded engine against the sequential one (the
#                  scheduled CI job). FUZZ_SCENARIOS is the single
#                  depth knob for fuzz-deep and fuzz-deep-race: the
#                  Makefile translates it to the SRV6BPF_FUZZ_SCENARIOS
#                  environment variable the test reads — set the make
#                  variable, not the env var.
#   make fuzz-deep-race — the same fuzzing under the race detector
#                  (shallower FUZZ_SCENARIOS recommended; ~10x slower)
#   make bench-smoke — the nested benchmark module's own test (a
#                  1/50-scale run of all six workloads against
#                  benchmark/golden.json, ~4 s): the root `go test
#                  ./...` does not reach that module
#   make bench   — wall-clock datapath benchmarks (-benchmem): the
#                  eight BenchmarkDatapath rows, the table
#                  TestDatapathAllocRegression holds to its allocation
#                  counts, then the per-hop rows (BenchmarkHop: one
#                  packet through one node) and the event queue alone
#                  (BenchmarkEventQueueHold)
#   make bench-pairs PARENT=<rev> WORKLOAD=<name|all> [PAIRS=10 SEED=1
#                  PAIR_SECONDS=15] — the evidence a PR needs, whether it
#                  claims a gain or claims none: check PARENT out as a
#                  git worktree under .bench_build/ (or take it as a
#                  directory holding a checkout), alternate
#                  benchmark/run.sh between it and this tree, print
#                  medians, quartiles, pairs won and, against each
#                  metric's bound in BENCHMARK.json, a worse / within /
#                  better verdict for the six end-to-end metrics, and
#                  for the two allocation metrics whether every run of
#                  a side read the same value (a claim about a count
#                  rests on that); WORKLOAD=all does so for every
#                  workload that file names, takes an hour and more, and
#                  has to be started detached from a tool that kills
#                  what runs past ten minutes: setsid nohup make
#                  bench-pairs ... > out.txt 2>&1 &
#   make fmt     — gofmt the tree

GO ?= go
FUZZ_SCENARIOS ?= 150
FUZZ_RACE_SCENARIOS ?= 60
FUZZTIME ?= 5s
OBS_DUMP_DIR ?= obs-artifacts
PAIRS ?= 10
SEED ?= 1
PAIR_SECONDS ?= 15

.PHONY: check build vet test race race-smoke fuzz-smoke fuzz-native fuzz-deep fuzz-deep-race chaos-smoke obs-smoke bench-smoke bench bench-pairs fmt

check: build vet test race-smoke fuzz-smoke fuzz-native obs-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The quick 2-shard sequential-vs-parallel equivalence gate, run under
# the race detector: determinism and race-cleanliness of the sharded
# engine in one short pass. The event-count pin rides along: five
# events per delivered packet on the 3-node lab at 1 and 2 shards, so
# an extra event on the per-hop path fails here in a second. So does
# the TCP-through-a-tunnel arm: its packets are built with headroom in
# one shard and written into by the tunnel ingress in another. And so
# does the drop-reason table: one scenario per way a packet can die on
# a node, each pinning counter, ICMP, model cost and span verdict. And
# the rules of the packet-buffer free lists: a buffer is taken from one
# shard's list and released into another's, on two goroutines, so the
# race detector has to see one cross a barrier both ways (the TCP arm,
# poisoned) and one way only (TestBufListBound), next to the tests that a
# caller's buffer, a copy and a packet in flight are never listed. And the
# window barrier itself: the caller runs shard 0 and each other shard has
# one worker per Run call, so an event's panic on either must reach the
# caller unchanged with no worker left behind (TestShardWorkerLifecycle),
# and a barrier that spins without yielding waits out the runtime's 10 ms
# preemption at nearly every window when shards outnumber the Ps
# (TestShardFewerProcsThanShards: 2 shards on GOMAXPROCS=1, 4 on 2).
race-smoke:
	$(GO) test -race -run 'TestShardEquivalenceSmoke|TestShardEquivalenceTCPEncap|TestCrossShardInFlightFailure|TestEventsPerHop|TestDropReason|TestInstallRejection|TestForeignInterfaceRefused|TestBufList|TestShardWorkerLifecycle|TestShardFewerProcsThanShards' ./internal/netsim

# A second pass of the randomized sequential-vs-sharded equivalence
# fuzzer at smoke depth: -count 2 re-runs the same seeds and catches
# nondeterminism across process runs. The in-place encapsulation
# target's seed corpus rides along the same way: its verdict depends on
# where the runtime put two buffers, which must never show.
fuzz-smoke:
	$(GO) test -run 'TestShardEquivalenceFuzz' -count 2 ./internal/netsim
	$(GO) test -run 'FuzzEncapInPlace' -count 2 ./internal/seg6

# Coverage-guided mutation of the wire parsers and of the packet
# builders (single-buffer BuildPacket against the multi-buffer
# reference, wire-level encapsulation against its contract and the
# struct path, encapsulation into headroom against the allocating
# path), native go fuzzing bounded by FUZZTIME per target — the
# smoke setting keeps `make check` fast; the nightly CI job runs the
# same targets longer.
fuzz-native:
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzParseInfo -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzValidateSRH -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzBuildPacketMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/seg6 -run '^$$' -fuzz FuzzEncapWire -fuzztime $(FUZZTIME)
	$(GO) test ./internal/seg6 -run '^$$' -fuzz FuzzEncapInPlace -fuzztime $(FUZZTIME)

# Chaos determinism gate: the chaos package's own tests plus the
# crash/impairment tests and a chaos-heavy slice of the equivalence
# fuzzer (roughly half the derived scenarios carry a fault campaign).
chaos-smoke:
	$(GO) test -count 1 ./internal/netsim/chaos
	$(GO) test -count 1 -run 'TestNodeCrash|TestCrash|TestCorruption|TestDuplication|TestReorder' ./internal/netsim
	SRV6BPF_FUZZ_SCENARIOS=16 $(GO) test -count 1 -run 'TestShardEquivalenceFuzz' ./internal/netsim

# Observability gate: the obs package's own tests, the simulator-side
# recorder tests (shard equivalence, alloc parity), and a headless
# 2-shard srv6sim run that must produce the three non-empty artifacts
# (the CI bench job uploads them).
obs-smoke:
	$(GO) test -count 1 ./internal/obs
	$(GO) test -count 1 -run 'TestObs|TestProgStats' ./internal/netsim ./internal/core
	rm -rf $(OBS_DUMP_DIR)
	$(GO) run ./cmd/srv6sim -shards 2 -obs-dump $(OBS_DUMP_DIR)
	test -s $(OBS_DUMP_DIR)/metrics.prom
	test -s $(OBS_DUMP_DIR)/stats.json
	test -s $(OBS_DUMP_DIR)/trace.json

race:
	$(GO) test -race ./...

fuzz-deep:
	SRV6BPF_FUZZ_SCENARIOS=$(FUZZ_SCENARIOS) $(GO) test -run 'TestShardEquivalenceFuzz' -timeout 30m -v ./internal/netsim

fuzz-deep-race:
	SRV6BPF_FUZZ_SCENARIOS=$(FUZZ_RACE_SCENARIOS) $(GO) test -race -run 'TestShardEquivalenceFuzz' -timeout 30m ./internal/netsim

# The wall-clock benchmark is its own Go module (benchmark/go.mod), so
# neither `build` nor `test` above compiles it; its smoke test does, and
# checks every workload's model state against the golden fingerprints.
# One retry: the test also holds two wall-clock sums of a ~20 ms window
# within 2 % of each other, which a preempted run misses about once in
# twenty (2/40 at the commit that introduced it); the benchmark
# directory is frozen for changes that claim a gain, so the tolerance
# is not this target's to fix.
#
# KNOWN RED since the packet-buffer free lists (PR 22): the same frozen
# test asserts that no end-to-end metric reads 0 (main_test.go:112), and
# allocs_per_pkt and alloc_bytes_per_pkt now do on lab3-end, lab3-bpf and
# (most runs) lab3-bpf-overload. Those lines are the whole failure;
# nothing here filters them, so `make check` ends red on this target,
# last, until a change that touches only benchmark/ relaxes the assertion
# to `< 0` for the two allocation metrics.
bench-smoke:
	cd benchmark && { $(GO) test -count 1 ./... || $(GO) test -count 1 ./...; }

bench:
	$(GO) test -run '^$$' -bench BenchmarkDatapath -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkHop|BenchmarkEventQueueHold' -benchmem ./internal/netsim

# Alternating parent/change pairs of one benchmark workload, or of all.
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<rev|dir> WORKLOAD=<name|all> [PAIRS=10 SEED=1 PAIR_SECONDS=15]" >&2; exit 2; }
	scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED) $(PAIR_SECONDS)

fmt:
	gofmt -w .
