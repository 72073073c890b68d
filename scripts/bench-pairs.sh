#!/usr/bin/env bash
# Paired end-to-end comparison of this checkout against a parent revision
# (choosing-metrics guide, section 8): PAIRS pairs of runs of one
# BENCHMARK.json workload, the same seed on both sides of a pair, the side
# that runs first alternating, each side driven by its own tree's
# `bash bench/run.sh`. Prints every run, then per metric both medians,
# both quartile pairs, wins/losses/ties and a verdict: "better" or "worse"
# only when one side wins at least nine tenths of all pairs AND the medians
# differ by more than the distance between the parent's quartiles;
# anything else is "unresolved" ("identical" when every pair ties). The
# percentage beside it is the change of the median, next to the bound
# BENCHMARK.json allows it to worsen by.
#
#   make bench-pairs PARENT=<rev> WORKLOAD=<name> [PAIRS=10] [SEED0=1]
#
# The parent tree is exported with `git archive` into .bench_build/parent
# (git-ignored; no worktree or branch is created) and rebuilt there by its
# own run.sh.
set -euo pipefail
parent=${1:?usage: bench-pairs.sh <parent-rev> <workload> [pairs] [seed0]}
workload=${2:?usage: bench-pairs.sh <parent-rev> <workload> [pairs] [seed0]}
pairs=${3:-10}
seed0=${4:-1}
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
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([a-z0-9_]*\)".*/\1/p' BENCHMARK.json)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# one <side> <tree> <pair> <seed> <order>: run the workload once, append
# "side pair metric value" rows and echo the run on one line.
one() {
	local side=$1 tree=$2 pair=$3 seed=$4 order=$5 json
	json=$(cd "$tree" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
	local line="pair $pair seed $seed $side($order)"
	line+=" correct=$(sed 's/.*"correct":\([a-z]*\).*/\1/' <<<"$json")"
	line+=" failed=$(sed 's/.*"failed":\([0-9]*\).*/\1/' <<<"$json")"
	for m in $metrics; do
		local v
		v=$(sed -n 's/.*"'"$m"'":{"value":\([-0-9.e+]*\).*/\1/p' <<<"$json")
		echo "$side $pair $m ${v:-nan}" >>"$runs"
		line+=" $m=${v:-nan}"
	done
	echo "$line"
	case $line in *correct=true*failed=0\ *) ;; *) bad=1 ;; esac
}

bad=0
echo "# $workload: $pairs pairs, parent $rev, seeds $seed0..$((seed0 + pairs - 1)), $seconds s scored per run"
for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		one parent "$ptree" "$i" "$seed" 1st
		one change "$root" "$i" "$seed" 2nd
	else
		one change "$root" "$i" "$seed" 1st
		one parent "$ptree" "$i" "$seed" 2nd
	fi
done

echo
printf '%-18s %-6s %36s %36s %13s  %s\n' metric better 'parent median [q1, q3]' 'change median [q1, q3]' 'win/loss/tie' verdict
for m in $metrics; do
	better=$(sed -n 's/.*"name": *"'"$m"'".*"better": *"\([a-z]*\)".*/\1/p' BENCHMARK.json)
	bound=$(sed -n 's/.*"name": *"'"$m"'".*"bound": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
	awk -v m="$m" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
		function quant(a, n, p,    pos, lo, frac) { pos = (n - 1) * p; lo = int(pos); frac = pos - lo
			return lo + 1 < n ? a[lo + 1] + frac * (a[lo + 2] - a[lo + 1]) : a[n] }
		function sorted(src, dst, n,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
		$3 == m { v[$1, $2] = $4 }
		END {
			for (i = 0; i < pairs; i++) {
				p[i + 1] = v["parent", i]; c[i + 1] = v["change", i]
				d = c[i + 1] - p[i + 1]; if (better == "lower") d = -d
				if (d > 0) win++; else if (d < 0) loss++; else tie++
			}
			sorted(p, ps, pairs); sorted(c, cs, pairs)
			pm = quant(ps, pairs, .5); cm = quant(cs, pairs, .5)
			iqr = quant(ps, pairs, .75) - quant(ps, pairs, .25)
			gap = cm - pm; if (better == "lower") gap = -gap
			verdict = "unresolved"
			if (win >= .9 * pairs && gap > iqr) verdict = "better"
			if (loss >= .9 * pairs && -gap > iqr) verdict = "worse"
			if (tie == pairs) verdict = "identical"
			printf "%-18s %-6s %12.4f [%9.4f, %9.4f] %12.4f [%9.4f, %9.4f] %4d/%d/%d      %s (%+.1f%%, bound %g%%)\n", m, better,
				pm, quant(ps, pairs, .25), quant(ps, pairs, .75), cm, quant(cs, pairs, .25), quant(cs, pairs, .75),
				win, loss, tie, verdict, pm ? 100 * (cm - pm) / pm : 0, 100 * bound
		}' "$runs"
done
if ((bad)); then
	echo "bench-pairs: at least one run was incorrect or had failed operations" >&2
	exit 1
fi
