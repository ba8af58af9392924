#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: a git revision against the
# work tree, alternating, on fresh seeds. Run from the root of the
# repository:
#
#   AB_SEED=S bash scripts/bench_ab.sh REV WORKLOAD N [METRIC]
#
# REV is exported with `git archive` into .bench_build/ab/<sha>/ and built
# there by its own bench/run.sh (own Go cache, no network); the work tree
# runs in place, uncommitted edits included. Pair i (1..N) runs
# `bench/run.sh --workload WORKLOAD --seed S+i` on both sides, at the
# benchmark's own run length, REV first in odd pairs and the work tree
# first in even ones, so slow drift of the host falls on both sides alike.
# AB_SEED is required and has no default: pick an offset whose seeds
# S+1..S+N no earlier measurement used. The per-pair results and each
# run's full output go to a directory of their own under
# .bench_build/ab/logs/, so invocations never overwrite one another.
#
# The script prints every pair's end-to-end values, then per metric the
# median and quartiles of each side (linear interpolation between order
# statistics) and the paired wins, ties and losses of the work tree.
# Every end-to-end metric of BENCHMARK.json is lower-is-better, and so
# is every metric compared here.
#
# Exit status: 1 if a run failed or reported `correct` false or a
# nonzero `failed` count. With METRIC, also 1 unless the work tree is
# better on METRIC in at least 9 of every 10 pairs (ceil(0.9 N)) and
# its median is below REV's by more than REV's interquartile range.
set -euo pipefail

usage="usage: AB_SEED=S bash scripts/bench_ab.sh REV WORKLOAD N [METRIC]"
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "$usage" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 metric=${4:-}
seed0=${AB_SEED:-}
case $seed0 in '' | *[!0-9]*) echo "bench_ab: AB_SEED must be set to a seed offset (runs use seeds AB_SEED+1..AB_SEED+N)" >&2; echo "$usage" >&2; exit 2 ;; esac
case $pairs in '' | *[!0-9]*) echo "bench_ab: N must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "bench_ab: N must be a positive integer" >&2; exit 2; }

root=$(pwd)
[ -f "$root/bench/run.sh" ] || { echo "bench_ab: run from the root of the repository" >&2; exit 2; }
sha=$(git rev-parse -q --verify "$rev^{commit}") || { echo "bench_ab: unknown revision $rev" >&2; exit 2; }
ab="$root/.bench_build/ab"
base="$ab/$sha"
mkdir -p "$ab/logs"
logs=$(mktemp -d "$ab/logs/${sha:0:12}-$workload-$((seed0 + 1))-XXXX")
if [ ! -d "$base" ]; then
	# Extract beside the final path and rename, so that a concurrent
	# invocation never sees a half-written tree.
	tmp=$(mktemp -d "$ab/.extract-XXXX")
	git archive "$sha" | tar -x -C "$tmp"
	mv -T "$tmp" "$base" 2>/dev/null || rm -rf "$tmp"
fi

results="$logs/results.tsv" # side pair seed metric value
: >"$results"
bad=0

# run SIDE DIR PAIR SEED: one benchmark run; appends its metrics.
run() {
	local side=$1 dir=$2 pair=$3 seed=$4 log status=0 last
	log="$logs/$side-$seed.log"
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed") >"$log" 2>&1 || status=$?
	last=$(tail -n 1 "$log")
	if [ "$status" -ne 0 ] || ! printf '%s' "$last" | grep -q '"correct":true' ||
		! printf '%s' "$last" | grep -q '"failed":0,'; then
		echo "bench_ab: $side run, seed $seed: exit $status, result: $last (log: $log)" >&2
		bad=1
	fi
	printf '%s' "$last" | grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
		while read -r name value; do
			printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$pair" "$seed" "$name" "$value"
		done >>"$results"
}

for pair in $(seq 1 "$pairs"); do
	seed=$((seed0 + pair))
	if [ $((pair % 2)) -eq 1 ]; then
		run base "$base" "$pair" "$seed"
		run work "$root" "$pair" "$seed"
	else
		run work "$root" "$pair" "$seed"
		run base "$base" "$pair" "$seed"
	fi
done

echo "# A/B: $workload, base $rev ($sha) vs work tree, $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs)), logs in ${logs#"$root"/}"
awk -F'\t' -v metric="$metric" -v pairs="$pairs" '
	function sortn(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	# q: the p-quantile of a[1..n] (sorted), interpolating linearly.
	function q(a, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	{
		v[$1, $2, $4] = $5
		seed[$2] = $3
		if (!($4 in seen)) { seen[$4] = 1; names[++nm] = $4 }
	}
	END {
		if (nm == 0) { print "bench_ab: no metrics parsed" > "/dev/stderr"; exit 1 }
		line = "pair  seed"
		for (m = 1; m <= nm; m++) line = line sprintf("  %-27s", names[m] " base/work")
		print line
		for (p = 1; p <= pairs; p++) {
			line = sprintf("%4d  %4d", p, seed[p])
			for (m = 1; m <= nm; m++)
				line = line sprintf("  %-13.6g/%-13.6g", v["base", p, names[m]], v["work", p, names[m]])
			print line
		}
		printf "%-16s %34s %34s %s\n", "metric", "base median [q1-q3]", "work median [q1-q3]", "work better/tie/worse"
		status = 0
		found = metric == ""
		for (m = 1; m <= nm; m++) {
			name = names[m]
			nb = nw = win = tie = lose = 0
			for (p = 1; p <= pairs; p++) {
				if ((("base", p, name) in v) && (("work", p, name) in v)) {
					b[++nb] = v["base", p, name] + 0
					w[++nw] = v["work", p, name] + 0
					if (w[nw] < b[nb]) win++
					else if (w[nw] == b[nb]) tie++
					else lose++
				}
			}
			if (nb == 0) continue
			sortn(b, nb); sortn(w, nw)
			bm = q(b, nb, 0.5); bq1 = q(b, nb, 0.25); bq3 = q(b, nb, 0.75)
			wm = q(w, nw, 0.5)
			printf "%-16s %12.6g [%9.6g-%9.6g] %12.6g [%9.6g-%9.6g] %d/%d/%d\n",
				name, bm, bq1, bq3, wm, q(w, nw, 0.25), q(w, nw, 0.75), win, tie, lose
			if (name == metric) {
				found = 1
				need = int((9 * nb + 9) / 10)
				verdict = "PASS"
				if (win < need || bm - wm <= bq3 - bq1) { verdict = "FAIL"; status = 1 }
				printf "# %s: %s (work better in %d/%d pairs, need %d; medians %.6g -> %.6g, apart %.6g against base IQR %.6g)\n",
					metric, verdict, win, nb, need, bm, wm, bm - wm, bq3 - bq1
			}
		}
		if (!found) { printf "bench_ab: metric %s not in the results\n", metric > "/dev/stderr"; status = 1 }
		exit status
	}
' "$results" || bad=1
exit "$bad"
