#!/usr/bin/env bash
# lint-test-gates checks that every test a gate selects by name still
# exists: each alternative of the -run pattern in the invariants,
# cluster-chaos, cluster-chaos-long, soak and lint-api targets, and in the CI
# workflow's `run: go test` steps (the kill -9 crash-restart step), must
# match at least one test that `go test -list` reports for the packages that
# command runs. Without it, renaming a gated test silently drops it from its
# gate. Run via `make lint-test-gates` (part of `make check`).
set -euo pipefail
cd "$(dirname "$0")/.."

# One line per gated command: the Makefile recipes as make would run them
# (backslash continuations joined), then the workflow's go test steps.
cmds=$(
	make -n --no-print-directory invariants cluster-chaos cluster-chaos-long soak lint-api GO=go |
		sed -e ':a' -e '/\\$/N; s/\\\n//; ta'
	grep -E '^[[:space:]]*run: go test ' .github/workflows/ci.yml
)

status=0
checked=0
while IFS= read -r line; do
	pattern=$(printf '%s\n' "$line" | sed -n "s/.*-run '\([^']*\)'.*/\1/p")
	[ -n "$pattern" ] || continue
	pkgs=$(printf '%s\n' "$line" | grep -oE '(^|[[:space:]])\./[^[:space:]]*' | tr -d '[:space:]' | sed 's#\./# ./#g')
	if [ -z "$pkgs" ]; then
		echo "lint-test-gates: no packages found in: $line" >&2
		status=1
		continue
	fi
	# shellcheck disable=SC2086 # pkgs is a word list
	listed=$(go test -list . $pkgs)
	names=$(printf '%s\n' "$listed" | grep -E '^(Test|Fuzz|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		# A here-string, not a pipe: grep -q exits at its first match, and
		# under pipefail the printf it leaves writing would die of SIGPIPE
		# and turn a match into a reported miss.
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "lint-test-gates: -run alternative '$alt' matches no test in$pkgs" >&2
			status=1
		fi
	done
done <<<"$cmds"

if [ "$checked" -eq 0 ]; then
	echo "lint-test-gates: found no -run patterns — extraction broke" >&2
	exit 1
fi
exit $status
