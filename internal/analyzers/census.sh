#!/usr/bin/env bash
# Linker census (DESIGN.md §8): which functions under internal/ does no
# binary link?
#
# Every main package (cmd/*, examples/*, internal/analyzers/cmd/*, and
# the benchmark module) is built with inlining off (-gcflags=all=-l),
# so a function that is called survives as its own text symbol, and
# `go tool nm` lists the memento/internal/... symbols each binary keeps.
# A function declared in a non-test file of a census package that no
# binary keeps is unlinked. Each unlinked function must have a row in
# DESIGN.md's census table, `| `pkg.Recv.Name` | reason |`, whose reason
# is one of the closed set below; a row for a function that is linked
# or gone is stale. The check prints each function without a row, each
# reason outside the set and each stale row, and exits 1 if there is
# any; -list prints every unlinked function with its file, first line
# and line count (doc comment included).
#
# Usage:
#
#	bash internal/analyzers/census.sh            # check against DESIGN.md
#	bash internal/analyzers/census.sh -list      # print the census only
#
# Build outputs go to a temporary directory that is removed on exit.
set -euo pipefail

pkgs="core codec spacesaving stats keyidx obs delta netsim netwide baseline exact rng hierarchy trace floodgen lb shard"
reasons='^(test tool|test seam|reference|validator)$'

cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$tmp/bin/$(echo "$p" | tr / _)" "$p"
done
go -C benchmark build -gcflags=all=-l -o "$tmp/bin/benchmark" .

# Linked symbols, normalised to pkg.Recv.Name: strip the module path,
# type arguments (innermost brackets first), receiver punctuation and
# method-value suffixes.
for b in "$tmp"/bin/*; do
	go tool nm "$b" | sed -nE 's#^ *[0-9a-f]+ [Tt] memento/internal/(.*)$#\1#p'
done | sed -E '
	:a
	s/\[[^][]*\]//g
	ta
	s/[()*]//g
	s/-fm$//' | sort -u >"$tmp/linked"

# Declared functions: pkg.Recv.Name, file, first line (doc comment
# included) and length in lines.
for p in $pkgs; do
	for f in internal/$p/*.go; do
		case $f in *_test.go) continue ;; esac
		awk -v pkg="$p" -v file="$f" '
			/^\/\// { if (doc == 0) doc = NR; next }
			/^func / {
				line = $0
				name = ""
				if (match(line, /^func \([^)]*\) [A-Za-z_][A-Za-z0-9_]*/)) {
					recv = line
					sub(/^func \(/, "", recv)
					sub(/\).*/, "", recv)
					sub(/\[.*/, "", recv)
					n = split(recv, parts, " ")
					typ = parts[n]
					gsub(/[*]/, "", typ)
					m = substr(line, RSTART, RLENGTH)
					sub(/.* /, "", m)
					name = typ "." m
				} else if (match(line, /^func [A-Za-z_][A-Za-z0-9_]*/)) {
					name = substr(line, 6, RLENGTH - 5)
				}
				start = doc ? doc : NR
				if (line ~ /}$/) { print pkg "." name, file, start, NR - start + 1; doc = 0; next }
				infn = 1
				next
			}
			infn && /^}/ { print pkg "." name, file, start, NR - start + 1; infn = 0; doc = 0; next }
			!infn { doc = 0 }
		' "$f"
	done
done | sort >"$tmp/declared"

# A declared function is linked when a symbol equals it or extends it
# by a closure or instantiation suffix (pkg.F.func1, pkg.T.M.gowrap1).
awk 'NR == FNR { linked[$1] = 1; next }
	{
		n = $1
		hit = (n in linked)
		if (!hit) for (s in linked) if (index(s, n ".") == 1) { hit = 1; break }
		if (!hit) print
	}' "$tmp/linked" "$tmp/declared" >"$tmp/unlinked"

if [ "${1:-}" = "-list" ]; then
	cat "$tmp/unlinked"
	awk '{ n += $4 } END { printf "%d unlinked functions, %d lines\n", NR, n }' "$tmp/unlinked"
	exit 0
fi

# The census table: rows of the form | `name` | reason | between the
# census heading and the next heading.
awk '/^### The linker census/ { on = 1; next } on && /^#/ { on = 0 }
	on && /^\| `[^`]*` \|/ {
		split($0, c, "|")
		name = c[2]; gsub(/[ `]/, "", name)
		reason = c[3]; sub(/^ +/, "", reason); sub(/ +$/, "", reason)
		print name "\t" reason
	}' DESIGN.md >"$tmp/table"

status=0
while read -r name file start n; do
	reason=$(awk -F'\t' -v n="$name" '$1 == n { print $2 }' "$tmp/table")
	if [ -z "$reason" ]; then
		echo "$file:$start: $name ($n lines) is unlinked and has no census row"
		status=1
	elif ! echo "$reason" | grep -Eq "$reasons"; then
		echo "$file:$start: $name: reason \"$reason\" is not in the closed set"
		status=1
	fi
done <"$tmp/unlinked"
stale=$(awk -F'\t' 'NR == FNR { split($0, f, " "); u[f[1]] = 1; next } !($1 in u) { print $1 }' "$tmp/unlinked" "$tmp/table")
for name in $stale; do
	echo "DESIGN.md: census row $name is linked or gone; delete the row"
	status=1
done
if [ $status -eq 0 ]; then
	awk '{ n += $4 } END { printf "%d unlinked functions, %d lines, all with a reason\n", NR, n }' "$tmp/unlinked"
fi
exit $status
