#!/usr/bin/env bash
# tick-gate gates the manager's tick latency: it runs the churn-10k benchmark
# workload traced for three seconds (seed 1) and fails when the share of
# coalesced ticks over 50 ms, core.tick_over_50ms_pct, exceeds 1 % or is
# missing from the result. A tick over 50 ms misses the next adaptation tick
# (PAPER.md: HARP adapts every 50 ms). Run via `make bench-check`.
set -euo pipefail
cd "$(dirname "$0")/.."

limit=1
result=$(bash benchmark/run.sh --workload churn-10k --seed 1 --seconds 3 --trace 1 | tail -n 1)
value=$(printf '%s\n' "$result" | grep -o '"core\.tick_over_50ms_pct":{"value":[^,}]*' | sed 's/.*"value"://' || true)
if ! [[ $value =~ ^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$ ]]; then
	echo "tick-gate: core.tick_over_50ms_pct missing from the churn-10k result (read '${value}')"
	exit 1
fi
if awk -v v="$value" -v l="$limit" 'BEGIN { exit !(v > l) }'; then
	echo "tick-gate: core.tick_over_50ms_pct = ${value} %, above the ${limit} % limit"
	exit 1
fi
echo "tick-gate: core.tick_over_50ms_pct = ${value} % (limit ${limit} %)"
