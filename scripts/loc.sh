#!/usr/bin/env bash
# Counts the non-test Go lines a change adds and deletes.
#
#   scripts/loc.sh BASE [HEAD]
#
# Compares BASE with HEAD, or with the working tree (untracked files
# included) when HEAD is omitted, and prints lines added, deleted and net
# twice: raw, and without blank or comment-only (//) lines. _test.go
# files, testdata/ and the benchmark/ module are not counted.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base=${1:?usage: scripts/loc.sh BASE [HEAD]}
head=${2:-}
spec=('*.go' ':(exclude)*_test.go' ':(exclude,glob)**/testdata/**' ':(exclude,glob)benchmark/**')

{
	git diff -U0 --no-color --no-ext-diff "$base" ${head:+"$head"} -- "${spec[@]}"
	if [ -z "$head" ]; then
		git ls-files -z --others --exclude-standard -- "${spec[@]}" |
			while IFS= read -r -d '' f; do
				echo '@@ untracked @@'
				sed 's/^/+/' "$f"
			done
	fi
} | awk -v base="$base" -v head="${head:-working tree}" '
	function code(l) { sub(/^[ \t]+/, "", l); return l != "" && l !~ /^\/\// }
	/^diff --git / { hdr = 1; next }
	/^@@/ { hdr = 0; next }
	hdr { next }
	/^\+/ { add++; if (code(substr($0, 2))) addc++; next }
	/^-/ { del++; if (code(substr($0, 2))) delc++; next }
	END {
		printf "non-test Go lines, %s -> %s\n", base, head
		printf "  raw:                        +%d -%d net %+d\n", add, del, add - del
		printf "  without blank and comments: +%d -%d net %+d\n", addc, delc, addc - delc
	}'
