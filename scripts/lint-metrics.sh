#!/usr/bin/env bash
# lint-metrics checks the harp_* metric families registered in code
# (internal/telemetry/metrics.go) against everything that names them:
#
#   1. The metrics table in OPERATIONS.md agrees with the code in both
#      directions: every registered family has a row, every row is registered.
#   2. No family carries an `instance` label: per-session facts live in the
#      status document and the decision journal, and a per-session series
#      would make a scrape grow with the session count.
#   3. Every family has a reader — a test, a health check, the status
#      document, a harpctl view or the benchmark. A reader is a file among
#      the *_test.go files, harp/health.go, harp/status.go, cmd/harpctl/ and
#      benchmark/ that names the family (word-bounded; histogram suffixes
#      allowed) or reads its telemetry.Metrics field as
#      `.Field.Value(`, `.Count(`, `.Sum(`, `.Quantile(` or `.With(`.
#      A family nothing reads is one nobody would notice stop moving.
#   4. Every harp_* token in the top-level prose names a registered family
#      (`_bucket`, `_sum`, `_count` suffixes accepted). A token ending in `_`
#      (`harp_store_*`) is a prefix and must prefix at least one family;
#      `{a,b}` lists are expanded. CHANGES.md and ROADMAP.md are history and
#      are not checked.
#
# Run via `make lint-metrics` (part of `make check`).
set -euf # -f: tokens such as harp_store_* are data, never globs
cd "$(dirname "$0")/.."

metrics=internal/telemetry/metrics.go
prose="README.md DESIGN.md OPERATIONS.md"

code=$(grep -oE '\br\.(Counter|Gauge|Histogram|CounterVec|FloatCounter|HistogramVec)\("harp_[a-z0-9_]+"' \
	"$metrics" | grep -oE 'harp_[a-z0-9_]+' | sort -u)
# "Field: r.Kind("harp_name", ..." lines of NewMetrics, as "Field harp_name".
fields=$(sed -nE 's/^[[:space:]]+([A-Za-z]+):[[:space:]]+r\.[A-Za-z]+\("(harp_[a-z0-9_]+)".*/\1 \2/p' "$metrics" | sort -k2)
# Table rows look like "| `harp_name` | ..." or "| `harp_name{label=…}` | ...";
# the name ends at the closing backtick or the label brace.
docs=$(sed -n 's/^| `\(harp_[a-z0-9_]*\)[`{].*/\1/p' OPERATIONS.md | sort -u)

if [ -z "$code" ]; then
	echo "lint-metrics: no registered harp_* metrics found — extraction broke" >&2
	exit 1
fi
if [ "$(printf '%s\n' "$fields" | cut -d' ' -f2 | sort -u)" != "$code" ]; then
	echo "lint-metrics: not every family is registered as \"Field: r.Kind(\"harp_…\"\" in NewMetrics — extraction broke" >&2
	exit 1
fi
if [ -z "$docs" ]; then
	echo "lint-metrics: no documented harp_* metrics found — extraction broke" >&2
	exit 1
fi

status=0
per_session=$(grep -E '\br\.[A-Za-z]+Vec\("harp_[a-z0-9_]+",.*"instance"' "$metrics" |
	grep -oE 'harp_[a-z0-9_]+' || true)
if [ -n "$per_session" ]; then
	echo "lint-metrics: registered with a per-session instance label (use Status or the journal):" >&2
	printf '  %s\n' $per_session >&2
	status=1
fi
undocumented=$(comm -23 <(printf '%s\n' "$code") <(printf '%s\n' "$docs"))
if [ -n "$undocumented" ]; then
	echo "lint-metrics: registered in code but missing from OPERATIONS.md:" >&2
	printf '  %s\n' $undocumented >&2
	status=1
fi
stale=$(comm -13 <(printf '%s\n' "$code") <(printf '%s\n' "$docs"))
if [ -n "$stale" ]; then
	echo "lint-metrics: documented in OPERATIONS.md but not registered in code:" >&2
	printf '  %s\n' $stale >&2
	status=1
fi

readers=()
while IFS= read -r f; do
	readers+=("$f")
done < <(
	find . \( -path ./.git -o -path ./.bench_build \) -prune -o -name '*_test.go' -print
	printf '%s\n' harp/health.go harp/status.go
	find cmd/harpctl benchmark -type f
)
unread=""
while read -r field name; do
	if ! grep -qE "\\b${name}(_bucket|_sum|_count)?\\b" "${readers[@]}" &&
		! grep -qE "\\.${field}\\.(Value|Count|Sum|Quantile|With)\\(" "${readers[@]}"; then
		unread="$unread $name"
	fi
done <<<"$fields"
if [ -n "$unread" ]; then
	echo "lint-metrics: registered but read by no test, health check, status field, harpctl view or benchmark:" >&2
	printf '  %s\n' $unread >&2
	status=1
fi

# Each token: a name, an optional {a,b} list followed by more name, and an
# optional trailing `*`. A label set such as {phase="epoch"} holds `=`, so it
# ends the token instead.
bad=""
while IFS=: read -r file tok; do
	word=${tok%\*}
	if [[ $word =~ ^(.*)\{([a-z0-9_,]+)\}(.*)$ ]]; then
		names=""
		IFS=',' read -ra alts <<<"${BASH_REMATCH[2]}"
		for alt in "${alts[@]}"; do
			names="$names ${BASH_REMATCH[1]}$alt${BASH_REMATCH[3]}"
		done
	else
		names=$word
	fi
	for n in $names; do
		case $n in
		*_) grep -q "^$n" <<<"$code" || bad="$bad $file:$tok" ;;
		*) grep -qxE "$n|$(sed -E 's/_(bucket|sum|count)$//' <<<"$n")" <<<"$code" || bad="$bad $file:$tok" ;;
		esac
	done
done < <(grep -oE 'harp_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)?\*?' $prose | sort -u)
if [ -n "$bad" ]; then
	echo "lint-metrics: prose names a harp_* family that is not registered:" >&2
	printf '  %s\n' $bad >&2
	status=1
fi

if [ "$status" -eq 0 ]; then
	echo "lint-metrics: $(printf '%s\n' "$code" | wc -l | tr -d ' ') metrics, each documented and read; prose names only registered families"
fi
exit "$status"
