#!/usr/bin/env bash
# lint-metrics checks that the harp_* metrics registered in code
# (internal/telemetry/metrics.go) and the metrics table in OBSERVABILITY.md
# agree in both directions: every registered metric is documented, and every
# documented metric is still registered. It also fails when a family is
# registered with an `instance` label: per-session facts live in the status
# document and the decision journal, and a per-session series would make a
# scrape grow with the session count. Run via `make lint-metrics` (part of
# `make check`).
set -eu
cd "$(dirname "$0")/.."

code=$(grep -oE '\br\.(Counter|Gauge|Histogram|CounterVec|FloatCounter|HistogramVec)\("harp_[a-z0-9_]+"' \
	internal/telemetry/metrics.go | grep -oE 'harp_[a-z0-9_]+' | sort -u)
# Table rows look like "| `harp_name` | ..." or "| `harp_name{label=…}` | ...";
# the name ends at the closing backtick or the label brace.
docs=$(sed -n 's/^| `\(harp_[a-z0-9_]*\)[`{].*/\1/p' OBSERVABILITY.md | sort -u)

if [ -z "$code" ]; then
	echo "lint-metrics: no registered harp_* metrics found — extraction broke" >&2
	exit 1
fi
if [ -z "$docs" ]; then
	echo "lint-metrics: no documented harp_* metrics found — extraction broke" >&2
	exit 1
fi

status=0
per_session=$(grep -E '\br\.[A-Za-z]+Vec\("harp_[a-z0-9_]+",.*"instance"' internal/telemetry/metrics.go |
	grep -oE 'harp_[a-z0-9_]+' || true)
if [ -n "$per_session" ]; then
	echo "lint-metrics: registered with a per-session instance label (use Status or the journal):" >&2
	printf '  %s\n' $per_session >&2
	status=1
fi
undocumented=$(comm -23 <(printf '%s\n' "$code") <(printf '%s\n' "$docs"))
if [ -n "$undocumented" ]; then
	echo "lint-metrics: registered in code but missing from OBSERVABILITY.md:" >&2
	printf '  %s\n' $undocumented >&2
	status=1
fi
stale=$(comm -13 <(printf '%s\n' "$code") <(printf '%s\n' "$docs"))
if [ -n "$stale" ]; then
	echo "lint-metrics: documented in OBSERVABILITY.md but not registered in code:" >&2
	printf '  %s\n' $stale >&2
	status=1
fi

if [ "$status" -eq 0 ]; then
	echo "lint-metrics: $(printf '%s\n' "$code" | wc -l | tr -d ' ') metrics, code and docs agree"
fi
exit "$status"
