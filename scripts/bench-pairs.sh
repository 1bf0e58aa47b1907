#!/usr/bin/env bash
# Alternating parent/change pairs of the wall-clock benchmark: the
# procedure a PR that claims a gain has to follow (at least ten pairs,
# alternating which side runs first; medians, quartiles, pairs won), and
# the one a PR that claims none has to follow too: every end-to-end
# metric's change-vs-parent median is held against its `bound` in
# BENCHMARK.json and labelled worse, within or better, and the two
# allocation counts are checked for reading the same in every run.
#
#   scripts/bench-pairs.sh <parent> <workload|all> [pairs] [seed] [seconds]
#
# `all` runs every workload BENCHMARK.json names, one after the other.
# <parent> is a revision, checked out as a git worktree under
# .bench_build/ (kept for the next call; `git worktree prune` after
# deleting it), or a directory that already holds a checkout. Each run is
# `bash benchmark/run.sh --workload W --seed S --seconds N --trace 0`
# in its own tree, so both sides are built from their own source with
# their own copy of the benchmark. Raw result lines are kept in
# .bench_build/pairs-<workload>-seed<S>.{parent,change}.jsonl.
set -euo pipefail

usage="usage: bench-pairs.sh <parent rev|dir> <workload|all> [pairs] [seed] [seconds]"
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

# bench_json <array> <key>...: the named top-level array of BENCHMARK.json,
# one line per entry, the given keys' values tab-separated. The file keeps
# one key per line, which is all this reads.
bench_json() {
	awk -v section="$1" -v keys="${*:2}" '
		BEGIN { n = split(keys, want, " ") }
		$0 ~ "^  \"" section "\": \\[" { on = 1; next }
		on && /^  \]/ { exit }
		on && /^    \{/ { delete got; next }
		on && /^    \}/ { line = got[want[1]]; for (i = 2; i <= n; i++) line = line "\t" got[want[i]]; print line; next }
		on && match($0, /^      "[a-z_]+": /) {
			k = substr($0, 8, RLENGTH - 10); v = substr($0, RLENGTH + 1)
			sub(/,$/, "", v); gsub(/^"|"$/, "", v); got[k] = v
		}' "$root/BENCHMARK.json"
}

# value <metric> <file>: one value per line, in run order.
value() { sed -E "s/.*\"$1\":\{\"value\":([-+0-9.eE]+).*/\1/" "$2"; }

# quartiles <metric> <file>: "q1 median q3" (linear interpolation).
quartiles() {
	value "$1" "$2" | sort -g | awk '
		function q(f,    h, lo) { h = (NR - 1) * f + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		{ v[NR] = $1 }
		END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

run_side() { # <tree> <workload> <result file>
	(cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >>"$3"
}

run_pairs() { # <workload>
	local workload="$1" out="$root/.bench_build/pairs-$1-seed$seed"
	: >"$out.parent.jsonl"
	: >"$out.change.jsonl"

	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run_side "$parent_dir" "$workload" "$out.parent.jsonl"
			run_side "$root" "$workload" "$out.change.jsonl"
		else
			run_side "$root" "$workload" "$out.change.jsonl"
			run_side "$parent_dir" "$workload" "$out.parent.jsonl"
		fi
		echo "$workload: pair $i/$pairs done" >&2
	done

	for side in parent change; do
		if grep -vq '"correct":true' "$out.$side.jsonl" || grep -vq '"failed":0,' "$out.$side.jsonl"; then
			echo "bench-pairs: a $side run was incorrect or had failed operations; see $out.$side.jsonl" >&2
			exit 1
		fi
	done

	echo "$workload, seed $seed, $pairs alternating pairs of $seconds s (parent $parent)"
	printf '%-20s %14s %26s %14s %26s %8s %6s  %-10s %s\n' metric 'parent median' '[q1, q3]' 'change median' '[q1, q3]' delta bound 'pairs won' verdict
	while IFS=$'\t' read -r metric better bound; do
		read -r pq1 pmed pq3 < <(quartiles "$metric" "$out.parent.jsonl")
		read -r cq1 cmed cq3 < <(quartiles "$metric" "$out.change.jsonl")
		won="$(paste <(value "$metric" "$out.parent.jsonl") <(value "$metric" "$out.change.jsonl") |
			awk -v better="$better" '
			$1 == $2 { ties++; next }
			($2 > $1) == (better == "higher") { won++ }
			END { printf "%d/%d", won, NR; if (ties) printf " (%d ties)", ties }')"
		# worse/within/better: the change's median against the parent's by
		# more than the bound. A parent whose own quartiles are further apart
		# than the bound cannot resolve a move of that size.
		read -r delta verdict < <(awk -v p="$pmed" -v c="$cmed" -v q1="$pq1" -v q3="$pq3" -v bound="$bound" -v better="$better" 'BEGIN {
			if (p == 0) { print "n/a", (c == 0 ? "within" : "worse"); exit }
			d = c / p - 1; gain = better == "higher" ? d : -d
			v = gain < -bound ? "worse" : gain > bound ? "better" : "within"
			if ((q3 - q1) / p > bound) v = v " (parent spread > bound: unresolved)"
			printf "%+.1f%% %s\n", d * 100, v }')
		printf '%-20s %14s %26s %14s %26s %8s %6s  %-10s %s\n' "$metric" "$pmed" "[$pq1, $pq3]" "$cmed" "[$cq1, $cq3]" "$delta" "$bound" "$won" "$verdict"
	done < <(bench_json end_to_end name better bound)
	# A count the program makes can carry a claim only if it repeats.
	for metric in allocs_per_pkt alloc_bytes_per_pkt; do
		for side in parent change; do
			distinct="$(value "$metric" "$out.$side.jsonl" | sort -u | wc -l)"
			printf '%-20s %-6s repeats exactly: %s\n' "$metric" "$side" "$([ "$distinct" -eq 1 ] && echo yes || echo "no ($distinct values in $pairs runs)")"
		done
	done
}

if [ "$workload" = all ]; then
	while read -r w; do
		run_pairs "$w"
		echo
	done < <(bench_json workloads name)
else
	run_pairs "$workload"
fi
