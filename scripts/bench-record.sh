#!/usr/bin/env bash
# bench-record runs the repository benchmark three times per workload at
# seed 1 and appends one JSON line per workload to bench-history.jsonl at the
# repo root: the commit measured (git describe), the UTC date, the workload,
# the number of runs, the attempted and failed operation counts summed over
# the runs, and for every metric the median of the runs with their min and
# max beside it, and the median and max of the host CPU steal each run
# printed ("steal N %"), so a record taken on a noisy host says so.
# Arguments are passed on to benchmark/run.sh, e.g.
# `bash scripts/bench-record.sh --seconds 10`; the default is the contract's
# 20 s. Run via `make bench-record`. It refuses a tree whose tracked files
# differ from the commit, before it runs anything, so every line names the
# commit that holds the measured code: commit first, then record. Exits
# non-zero when a run failed an operation (its workload is still recorded).
set -euo pipefail
cd "$(dirname "$0")/.."

if ! git diff --quiet HEAD --; then
	echo "bench-record: tracked files differ from HEAD; commit them first, so the record names the measured commit" >&2
	exit 1
fi

# runs is fixed: three runs bound cpu_ms_per_op within the A/A study's
# spread (ROADMAP 1(a)), and a constant keeps every record comparable.
runs=3

commit=$(git describe --always --abbrev=12)
status=0
for w in daemon-admit daemon-retable churn-10k paper-eval; do
	results=""
	steals=""
	for ((i = 1; i <= runs; i++)); do
		out=$(bash benchmark/run.sh --workload "$w" --seed 1 "$@") || status=1
		printf '%s\n' "$out" | sed '$d' >&2
		steal=$(printf '%s\n' "$out" | sed -n 's/.*; steal \([0-9.]*\) %).*/\1/p' | tail -n 1)
		if [ -z "$steal" ]; then
			echo "bench-record: $w printed no steal figure" >&2
			exit 1
		fi
		steals+="$steal "
		res=$(printf '%s\n' "$out" | tail -n 1)
		case $res in
		'{"correct":'*) ;;
		*)
			echo "bench-record: $w printed no result line" >&2
			exit 1
			;;
		esac
		results+="$res"$'\n'
	done
	# Each result line is {"correct":…,"attempted":…,"failed":…,"metrics":
	# {"<name>":{"value":…,"unit":"…"},…}}; the record keeps the counts
	# summed and each metric's median, min and max.
	printf '%s' "$results" | awk -v commit="$commit" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-v workload="$w" -v runs="$runs" -v steals="$steals" '
	function field(line, key,    m) {
		if (!match(line, "\"" key "\":[0-9]+")) return 0
		m = substr(line, RSTART, RLENGTH)
		sub(/.*:/, "", m)
		return m + 0
	}
	{
		attempted += field($0, "attempted")
		failed += field($0, "failed")
		rest = $0
		while (match(rest, /"[a-zA-Z0-9_.]+":\{"value":[^,}]+,"unit":"[^"]*"\}/)) {
			m = substr(rest, RSTART, RLENGTH)
			rest = substr(rest, RSTART + RLENGTH)
			name = m; sub(/^"/, "", name); sub(/".*/, "", name)
			v = m; sub(/.*"value":/, "", v); sub(/,.*/, "", v)
			u = m; sub(/.*"unit":"/, "", u); sub(/".*/, "", u)
			if (!(name in n)) order[++names] = name
			vals[name, ++n[name]] = v + 0
			unit[name] = u
		}
	}
	# sortRuns sorts s[1..c] ascending (insertion sort; c is the run count)
	# and returns the median.
	function sortRuns(s, c,    i, j, t) {
		for (i = 2; i <= c; i++)
			for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		return (c % 2) ? s[(c + 1) / 2] : (s[c / 2] + s[c / 2 + 1]) / 2
	}
	END {
		c = split(steals, st, " ")
		for (i = 1; i <= c; i++) st[i] += 0
		med = sortRuns(st, c)
		printf "{\"commit\":\"%s\",\"date\":\"%s\",\"workload\":\"%s\",\"runs\":%d,\"attempted\":%d,\"failed\":%d,\"steal_pct\":{\"median\":%.17g,\"max\":%.17g},\"metrics\":{", \
			commit, date, workload, runs, attempted, failed, med, st[c]
		for (k = 1; k <= names; k++) {
			name = order[k]
			c = n[name]
			for (i = 1; i <= c; i++) s[i] = vals[name, i]
			med = sortRuns(s, c)
			printf "%s\"%s\":{\"value\":%.17g,\"min\":%.17g,\"max\":%.17g,\"unit\":\"%s\"}", \
				(k > 1 ? "," : ""), name, med, s[1], s[c], unit[name]
		}
		print "}}"
	}' >>bench-history.jsonl
done
exit $status
