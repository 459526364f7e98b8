#!/usr/bin/env bash
# bench-record runs the repository benchmark once per workload at seed 1 and
# appends one JSON line per workload to bench-history.jsonl at the repo root:
# the commit measured (git describe, "-dirty" when tracked files have
# uncommitted changes), the UTC date, the workload, the attempted and failed
# operation counts and the six end-to-end metrics. Arguments are passed on to
# benchmark/run.sh, e.g. `bash scripts/bench-record.sh --seconds 10`; the
# default is the contract's 20 s. Run via `make bench-record`. Exits non-zero
# when a workload failed an operation (its line is still recorded).
set -euo pipefail
cd "$(dirname "$0")/.."

commit=$(git describe --always --dirty --abbrev=12)
status=0
for w in daemon-admit daemon-retable churn-10k paper-eval; do
	out=$(bash benchmark/run.sh --workload "$w" --seed 1 "$@") || status=1
	printf '%s\n' "$out" | sed '$d' >&2
	res=$(printf '%s\n' "$out" | tail -n 1)
	case $res in
	'{"correct":'*) ;;
	*)
		echo "bench-record: $w printed no result line" >&2
		exit 1
		;;
	esac
	# The result line is {"correct":…,"attempted":…,"failed":…,"metrics":{…}};
	# the record keeps everything after "correct".
	printf '{"commit":"%s","date":"%s","workload":"%s",%s\n' \
		"$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$w" "${res#*,}" >>bench-history.jsonl
done
exit $status
