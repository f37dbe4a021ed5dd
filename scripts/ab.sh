#!/usr/bin/env bash
# ab.sh — the house A/B method (ROADMAP aim 1, choosing-metrics §8) as one
# command: check two refs out side by side, alternate the end-to-end
# benchmark between them, and judge every metric BENCHMARK.json declares.
#
#   bash scripts/ab.sh <old-ref> <new-ref> [--workload W] [--pairs K] [--seed S]
#
# W defaults to steady_bulk, K to 10, S to 1. Each ref becomes a `git worktree`
# under .bench_build/ab/ (removed on exit) and runs its own
# `sh bench/run.sh --workload W --seed S --seconds 24 --trace 0`, so each
# side is measured by its own benchmark code; which side goes first
# alternates pair by pair. Per metric it prints the parent's and the
# change's median [quartiles] over the K runs, in how many pairs the change
# read better (ties count for neither), and a verdict:
#
#   bit-identical  every run of both sides printed the same value
#   resolved gain  the change is better in >= 9/10 of the pairs and the
#                  medians differ by more than the parent's inter-quartile
#                  distance (resolved loss: the same, the other way; for an
#                  end-to-end metric it says whether the loss exceeds the
#                  bound — that is a regression)
#   inside bound   (end-to-end metrics) not resolved either way, the
#                  parent's spread is within the bound, and the change's
#                  median is no worse than the parent's by more than it
#   unresolved     everything else: the runs spread too widely to tell
#
# End-to-end values are read from the run's final JSON line (full
# precision), per-layer ones from its table. Needs no network; a run that
# fails a correctness check is reported and counts as a run.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=steady_bulk pairs=10 seed=1 refs=()
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	-*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
	*) refs+=("$1"); shift ;;
	esac
done
if [ ${#refs[@]} -ne 2 ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
	echo "usage: scripts/ab.sh <old-ref> <new-ref> [--workload W] [--pairs K] [--seed S]" >&2
	exit 2
fi

root=.bench_build/ab
mkdir -p "$root"
cleanup() {
	for side in old new; do
		git worktree remove --force "$root/$side" 2>/dev/null || true
	done
}
trap cleanup EXIT
cleanup
git worktree add --detach "$root/old" "${refs[0]}" >/dev/null
git worktree add --detach "$root/new" "${refs[1]}" >/dev/null
results=$root/results.txt
: >"$results"

# run SIDE PAIR — one benchmark run, appended to $results as
# "SIDE PAIR METRIC VALUE" lines (values verbatim, as printed).
run() {
	local out=$root/$1.out status=ok
	(cd "$root/$1" && sh bench/run.sh --workload "$workload" --seed "$seed" --seconds 24 --trace 0) >"$out" 2>"$root/$1.err" || status=failed
	echo "ab.sh: pair $2 $1: $status" >&2
	{
		grep -v '^{' "$out" | awk -v e2e="$(tail -1 "$out")" 'NF == 2 && index(e2e, "\"" $1 "\":{\"value\"") == 0'
		tail -1 "$out" | sed 's/"\([A-Za-z0-9_.]*\)":{"value":\([^,}]*\)/\n@ \1 \2\n/g' | sed -n 's/^@ //p'
		tail -1 "$out" | sed -n 's/.*"correct":\([a-z]*\),"attempted":\([0-9]*\),"failed":\([0-9]*\).*/incorrect_runs \1\nfailed_operations \3/p' | sed 's/ true$/ 0/; s/ false$/ 1/'
	} | sed "s/^/$1 $2 /" >>"$results"
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then run old "$i"; run new "$i"; else run new "$i"; run old "$i"; fi
done

echo "workload $workload, seed $seed, $pairs alternating pairs: ${refs[0]} ($(git rev-parse --short "${refs[0]}")) -> ${refs[1]} ($(git rev-parse --short "${refs[1]}"))"
awk -v pairs="$pairs" '
	function quantile(a, n, p,    pos, lo) {
		pos = p * (n - 1); lo = int(pos)
		return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
	}
	# summary fills med/q1/q3 [side] from val[side, 1..pairs, m].
	function summary(side, m,    i, j, t, a) {
		for (i = 1; i <= pairs; i++) {
			t = val[side, i, m] + 0
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
		med[side] = quantile(a, pairs, 0.5); q1[side] = quantile(a, pairs, 0.25); q3[side] = quantile(a, pairs, 0.75)
		lo[side] = a[1]; hi[side] = a[pairs]
	}
	FILENAME ~ /BENCHMARK.json$/ {
		if ($0 ~ /"end_to_end"/) sec = "e2e"; else if ($0 ~ /"per_layer"/) sec = "layer"; else if ($0 ~ /"workloads"/) sec = ""
		gsub(/[",]/, "")
		if (sec != "" && $1 == "name:") { name = $2; order[++n] = name; kind[name] = sec }
		if (sec != "" && $1 == "better:") better[name] = $2
		if (sec != "" && $1 == "bound:") bound[name] = $2
		next
	}
	{ val[$1, $2, $3] = $4; seen[$3] = 1 }
	END {
		order[++n] = "failed_operations"; order[++n] = "incorrect_runs"
		better["failed_operations"] = better["incorrect_runs"] = "lower"; kind["failed_operations"] = kind["incorrect_runs"] = "layer"
		printf "%-34s %-40s %-40s %-6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"
		for (k = 1; k <= n; k++) {
			m = order[k]
			if (!seen[m]) continue
			same = 1; wins = losses = 0
			sign = better[m] == "higher" ? -1 : 1 # after this, lower is better
			for (i = 1; i <= pairs; i++) {
				if (val["old", i, m] != val["old", 1, m] || val["new", i, m] != val["old", 1, m]) same = 0
				d = sign * (val["new", i, m] - val["old", i, m])
				if (d < 0) wins++; else if (d > 0) losses++
			}
			summary("old", m); summary("new", m)
			gap = sign * (med["new"] - med["old"]) # > 0: the change is worse
			iqr = q3["old"] - q1["old"]
			base = med["old"] < 0 ? -med["old"] : med["old"]
			apart = sign > 0 ? hi["new"] < lo["old"] : lo["new"] > hi["old"] # every change run better than every parent run
			few = pairs < 10 ? " (fewer than 10 pairs: not a claim)" : ""
			if (same) verdict = "bit-identical"
			else if (wins >= 0.9 * pairs && -gap > iqr) verdict = "resolved gain" few
			else if (losses >= 0.9 * pairs && gap > iqr) verdict = "resolved loss" (m in bound ? (gap > bound[m] * base ? ": REGRESSION beyond bound " : " inside bound ") bound[m] : "") few
			else if (m in bound && (apart || (iqr <= bound[m] * base && gap <= bound[m] * base))) verdict = "inside bound " bound[m]
			else verdict = "unresolved"
			printf "%-34s %-40s %-40s %-6s %s\n", m,
				sprintf("%.6g [%.6g, %.6g]", med["old"], q1["old"], q3["old"]),
				sprintf("%.6g [%.6g, %.6g]", med["new"], q1["new"], q3["new"]),
				wins "/" pairs, verdict
			if (kind[m] == "e2e") { # as printed, to the last digit
				line = ""
				for (i = 1; i <= (same ? 1 : pairs); i++) line = line " " val["old", i, m] "/" val["new", i, m]
				print "    " (same ? "every run" : "runs") " (parent/change):" line
			}
		}
	}' BENCHMARK.json "$results"
