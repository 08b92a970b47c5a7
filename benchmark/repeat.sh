#!/usr/bin/env bash
# Runs N full sets of the four workloads, each set with its own seed and the
# workload order alternating from set to set, then prints per workload and
# end-to-end metric the median and quartiles over the sets and whether the
# spread between the quartiles fits the metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh [N=10] [first seed=1]
set -euo pipefail
cd "$(dirname "$0")/.."
sets=${1:-10}
first=${2:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
log="benchmark/out/repeat-$first-$sets.tsv"
errlog="benchmark/out/repeat-$first-$sets.stderr"
: > "$log"
: > "$errlog"
forward="analytic_denorm analytic_sharded oltp_wire ingest_replicated"
backward="ingest_replicated oltp_wire analytic_sharded analytic_denorm"
for ((i = 0; i < sets; i++)); do
	order=$forward
	if ((i % 2)); then order=$backward; fi
	for w in $order; do
		# An incorrect run exits non-zero and still prints its result line:
		# log it and go on, so that the summary reports the failure. What the
		# run wrote to standard error, the reason included, goes to $errlog.
		line=$(bash benchmark/run.sh --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 2>> "$errlog" | tail -n 1) || true
		printf '%s\t%s\n' "$w" "$line" >> "$log"
		echo "set $((i + 1))/$sets $w done" >&2
	done
done
.bench_build/benchmark -summarize "$log" -spec BENCHMARK.json
