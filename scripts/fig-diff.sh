#!/usr/bin/env bash
# Byte-for-byte comparison of the paper figures between this checkout and
# a parent revision: builds cepbench in both trees, runs `-all -quick`
# (with FULL=1, `-all`) in each, and diffs the two outputs with the
# per-experiment "completed in" timing lines removed. Exits non-zero on
# any difference, so a change that must not move a figure can say so in
# one command.
#
#   make fig-diff PARENT=<rev> [FULL=1]
#
# The parent tree is exported with `git archive` into .bench_build/parent
# (git-ignored; no worktree or branch is created), the way
# scripts/bench-pairs.sh does; outputs land in .bench_build/fig-diff/.
set -euo pipefail
parent=${1:?usage: fig-diff.sh <parent-rev> [full]}
full=${2:-}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

rev=$(git rev-parse --verify "$parent^{commit}")
ptree=$root/.bench_build/parent
if [ "$(cat "$ptree/.rev" 2>/dev/null)" != "$rev" ]; then
	rm -rf "$ptree"
	mkdir -p "$ptree"
	git archive "$rev" | tar -x -C "$ptree"
	echo "$rev" >"$ptree/.rev"
fi
out=$root/.bench_build/fig-diff
mkdir -p "$out"
(cd "$ptree" && go build -o "$out/cepbench-parent" ./cmd/cepbench)
go build -o "$out/cepbench-change" ./cmd/cepbench

args=(-all -quick)
scale=quick
if [ -n "$full" ] && [ "$full" != 0 ]; then
	args=(-all)
	scale=full
fi
for side in parent change; do
	echo "fig-diff: $side cepbench ${args[*]}"
	"$out/cepbench-$side" "${args[@]}" | grep -v 'completed in' >"$out/$side-$scale.txt"
done
if diff -u "$out/parent-$scale.txt" "$out/change-$scale.txt"; then
	echo "fig-diff: $scale figures identical to $rev"
else
	echo "fig-diff: $scale figures differ from $rev" >&2
	exit 1
fi
