#!/usr/bin/env bash
# Alternating parent/change pairs of the wall-clock benchmark: the
# procedure a PR that claims a gain has to follow (at least ten pairs,
# alternating which side runs first; medians, quartiles, pairs won).
#
#   scripts/bench-pairs.sh <parent> <workload> [pairs] [seed] [seconds]
#
# <parent> is a revision, checked out as a git worktree under
# .bench_build/ (kept for the next call; `git worktree prune` after
# deleting it), or a directory that already holds a checkout. Each run is
# `bash benchmark/run.sh --workload W --seed S --seconds N --trace 0`
# in its own tree, so both sides are built from their own source with
# their own copy of the benchmark. Raw result lines are kept in
# .bench_build/pairs-<workload>-seed<S>.{parent,change}.jsonl.
set -euo pipefail

usage="usage: bench-pairs.sh <parent rev|dir> <workload> [pairs] [seed] [seconds]"
parent="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-1}"
seconds="${5:-15}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build

if [ -d "$parent" ]; then
	parent_dir="$(cd "$parent" && pwd)"
else
	sha="$(git rev-parse --short "$parent^{commit}")"
	parent_dir="$root/.bench_build/parent-$sha"
	[ -d "$parent_dir" ] || git worktree add --detach "$parent_dir" "$sha" >&2
fi

out="$root/.bench_build/pairs-$workload-seed$seed"
: >"$out.parent.jsonl"
: >"$out.change.jsonl"

run_side() { # <tree> <result file>
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >>"$2"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side "$parent_dir" "$out.parent.jsonl"
		run_side "$root" "$out.change.jsonl"
	else
		run_side "$root" "$out.change.jsonl"
		run_side "$parent_dir" "$out.parent.jsonl"
	fi
	echo "pair $i/$pairs done" >&2
done

for side in parent change; do
	if grep -vq '"correct":true' "$out.$side.jsonl" || grep -vq '"failed":0,' "$out.$side.jsonl"; then
		echo "bench-pairs: a $side run was incorrect or had failed operations; see $out.$side.jsonl" >&2
		exit 1
	fi
done

# value <metric> <file>: one value per line, in run order.
value() { sed -E "s/.*\"$1\":\{\"value\":([-+0-9.eE]+).*/\1/" "$2"; }

# quartiles <metric> <file>: "q1 median q3" (linear interpolation).
quartiles() {
	value "$1" "$2" | sort -g | awk '
		function q(f,    h, lo) { h = (NR - 1) * f + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		{ v[NR] = $1 }
		END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

echo "$workload, seed $seed, $pairs alternating pairs of $seconds s (parent $parent)"
printf '%-20s %14s %26s %14s %26s %8s  %s\n' metric 'parent median' '[q1, q3]' 'change median' '[q1, q3]' delta 'pairs won'
for metric in sim_pkts_per_wall_s cpu_ns_per_pkt allocs_per_pkt alloc_bytes_per_pkt live_heap_mb setup_s; do
	better=lower
	[ "$metric" = sim_pkts_per_wall_s ] && better=higher
	read -r pq1 pmed pq3 < <(quartiles "$metric" "$out.parent.jsonl")
	read -r cq1 cmed cq3 < <(quartiles "$metric" "$out.change.jsonl")
	won="$(paste <(value "$metric" "$out.parent.jsonl") <(value "$metric" "$out.change.jsonl") |
		awk -v better="$better" '
		$1 == $2 { ties++; next }
		($2 > $1) == (better == "higher") { won++ }
		END { printf "%d/%d", won, NR; if (ties) printf " (%d ties)", ties }')"
	delta="$(awk -v p="$pmed" -v c="$cmed" 'BEGIN { if (p == 0) print "n/a"; else printf "%+.1f%%", (c / p - 1) * 100 }')"
	printf '%-20s %14s %26s %14s %26s %8s  %s\n' "$metric" "$pmed" "[$pq1, $pq3]" "$cmed" "[$cq1, $cq3]" "$delta" "$won"
done
