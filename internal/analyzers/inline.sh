#!/usr/bin/env bash
# Inlining guard (DESIGN.md §8, *Adding a new hot path*): do the
# per-packet functions still inline?
#
# Each listed function runs once per packet (or per sampled packet) on
# an ingest path whose cost the design counts in appends and compares,
# not calls. The compiler inlines a function only while its cost stays
# under the inline budget, so one added branch can turn it back into a
# call with no test failing. The guard builds each listed package with
# -gcflags=-m and fails unless the compiler reports `can inline` for
# every function in the list. Type arguments are stripped from the
# compiler's names, so a generic method is listed once.
#
# Usage:
#
#	bash internal/analyzers/inline.sh
set -euo pipefail

# pkg.(*Recv).Name or pkg.Name, pkg a directory under internal/.
hot="
shard.(*PacketBatcher).Add
rng.(*Source).Uint64
audit.(*Auditor).ObservePacket
core.(*HHH).FullUpdatePrefix
core.(*Sketch).WindowAdvance
"

cd "$(dirname "$0")/../.."
status=0
for pkg in $(echo "$hot" | sed -n 's/^\([a-z]*\)\..*/\1/p' | sort -u); do
	# The functions the compiler can inline in this package, as
	# pkg.(*Recv).Name with type arguments (innermost first) removed.
	inl=$(go build -gcflags=-m "./internal/$pkg" 2>&1 |
		sed -E ':a
			s/\[[^][]*\]//g
			ta' |
		sed -nE "s#^internal/$pkg/[^:]*:[0-9]+:[0-9]+: can inline ([^ ]+).*#$pkg.\1#p" | sort -u)
	while read -r fn; do
		if ! grep -qxF "$fn" <<<"$inl"; then
			echo "$fn does not inline (go build -gcflags=-m=2 ./internal/$pkg says why)"
			status=1
		fi
	done < <(grep "^$pkg\." <<<"$hot")
done
if [ $status -eq 0 ]; then
	echo "$(echo "$hot" | grep -c .) hot-path functions inline"
fi
exit $status
