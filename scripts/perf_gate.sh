#!/usr/bin/env bash
# perf_gate.sh — the performance gate: run perfbench on a base checkout and
# on this one, then fail if any end-to-end median is worse than the base's
# by more than its BENCHMARK.json bound, any run is incorrect, the failed
# share rose, or a workload or metric is missing.
#
#   scripts/perf_gate.sh <base-root>
#
# Run it from the repository root (the head). <base-root> is a checkout of
# the revision to compare against, e.g. a `git worktree add` of the PR
# base. For each seed, every workload runs on both sides back to back; the
# side that runs first alternates by seed, so drift in the machine's load
# lands on both. Used by `make bench-check` and the CI perf-gate job.
set -euo pipefail

# benchdiff fails on any BENCHMARK.json workload missing from this list.
workloads="point-url drift-email serve-email"

if [[ $# -ne 1 || ! -f "$1/perfbench/run.sh" || ! -f BENCHMARK.json ]]; then
	echo "usage: scripts/perf_gate.sh <base-root>  (from the repository root; base-root has perfbench/run.sh)" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(pwd)
out="$head/.bench_build/perf_gate"
mkdir -p "$out"
: >"$out/base.out"
: >"$out/head.out"

status=0
run() { # side root workload seed
	echo "perf_gate: $1 $3 seed $4" >&2
	if ! (cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds 10) >>"$out/$1.out"; then
		echo "perf_gate: $1 $3 seed $4 exited non-zero" >&2
		status=1
	fi
}

for seed in 1 2 3; do
	for w in $workloads; do
		if ((seed % 2)); then
			run base "$base" "$w" "$seed"
			run head "$head" "$w" "$seed"
		else
			run head "$head" "$w" "$seed"
			run base "$base" "$w" "$seed"
		fi
	done
done

go run ./cmd/benchdiff -mode perfbench BENCHMARK.json "$out/base.out" "$out/head.out" || status=1
exit $status
