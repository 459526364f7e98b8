#!/usr/bin/env bash
# size prints the code and prose a change adds or removes: lines of non-test
# Go, test Go and Markdown prose per directory, at a base revision and in the
# working tree, with the delta, then three totals — non-test Go outside
# benchmark/, test Go and prose — the numbers every CHANGES.md entry states.
#
# The base side is read from git objects (git ls-tree, git show), so no
# checkout is made. The working-tree side counts the tracked files plus the
# untracked ones .gitignore does not exclude, so an uncommitted change
# counts too.
#
# Usage: scripts/size.sh <base-rev>   (or `make size BASE=<rev>`)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: make size BASE=<rev>, or scripts/size.sh <rev>" >&2
	exit 2
fi
base=$1
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "size: $base is not a revision" >&2
	exit 2
}

# class prints "test", "go" or "prose" for a file name, nothing for others.
class() {
	case $1 in
	*_test.go) echo test ;;
	*.go) echo go ;;
	*.md) echo prose ;;
	esac
}

# One "side class dir lines" record per counted file of either side.
counts=$(
	git ls-tree -r --name-only "$base" | while IFS= read -r f; do
		c=$(class "$f")
		[ -n "$c" ] || continue
		echo "before $c $(dirname "$f") $(git show "$base:$f" | wc -l)"
	done
	git ls-files --cached --others --exclude-standard | while IFS= read -r f; do
		c=$(class "$f")
		[ -n "$c" ] && [ -f "$f" ] || continue
		echo "after $c $(dirname "$f") $(wc -l <"$f")"
	done
)

printf '%-28s %-25s %-25s %s\n' "against $base" "non-test Go" "test Go" "prose"
printf '%-28s%s\n' "" "$(printf ' %7s %7s %7s' before after delta before after delta before after delta)"
awk '
	{ n[$1, $2, $3] += $4; dirs[$3] = 1 }
	END {
		for (d in dirs) {
			row = sprintf("%-28s", d)
			split("go test prose", classes, " ")
			for (i = 1; i <= 3; i++) {
				b = n["before", classes[i], d]; a = n["after", classes[i], d]
				row = row sprintf(" %7d %7d %+7d", b, a, a - b)
			}
			print row
		}
	}' <<<"$counts" | sort
awk '
	{
		total[$1, $2] += $4
		if ($2 == "go" && $3 != "benchmark" && $3 !~ /^benchmark\//) outside[$1] += $4
	}
	function line(label, b, a) { printf "%-36s %7d -> %7d  (%+d)\n", label, b, a, a - b }
	END {
		print ""
		line("non-test Go outside benchmark/", outside["before"], outside["after"])
		line("test Go", total["before", "test"], total["after", "test"])
		line("prose (Markdown)", total["before", "prose"], total["after", "prose"])
	}' <<<"$counts"
