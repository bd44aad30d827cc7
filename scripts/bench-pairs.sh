#!/bin/sh
# bench-pairs.sh: paired runs of the repository benchmark, PARENT against
# this checkout, for judging a change by the pair rule.
#
#   scripts/bench-pairs.sh PARENT WORKLOAD "SEEDS" [OUT]
#   make bench-pairs PARENT=<rev> WORKLOAD=<workload> SEEDS="31 32 33"
#
# PARENT is exported (git archive) to a temporary directory outside the
# checkout. For each seed, `go run -C bench . --workload WORKLOAD --seed S`
# runs once there and once here, the order alternating from seed to seed.
# Every run's JSON line is appended to OUT (default bench-pairs.jsonl) as
# {"side":"parent"|"change","seed":S,"workload":W,"run":{...}}. At the end it
# prints, per end-to-end metric, each side's median and interquartile range
# over this invocation's runs, in how many pairs the change was lower, the
# one-sided sign-test p-value of that count (ties dropped; the chance of at
# least that many lower pairs if the change moved nothing), and the pair
# rule's verdict: "lower" when the change was lower in at least 9 of 10 of
# all pairs (ties count for neither) and its median is below the parent's by
# more than the parent's IQR, "higher" for the mirror image, "unresolved"
# otherwise.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 PARENT WORKLOAD \"SEEDS\" [OUT]" >&2; exit 2; }
parent=$1 workload=$2 seeds=$3 out=${4:-bench-pairs.jsonl}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$parent" | tar -x -C "$tmp"
mkdir "$tmp/runs"
runs=$tmp/runs/all.jsonl

run() { # side dir seed
	echo "bench-pairs: $1 seed $3" >&2
	line=$(go run -C "$2/bench" . --workload "$workload" --seed "$3" | tail -n 1)
	printf '{"side":"%s","seed":%s,"workload":"%s","run":%s}\n' "$1" "$3" "$workload" "$line" | tee -a "$out" >>"$runs"
}
i=0
for seed in $seeds; do
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$tmp" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$tmp" "$seed"
	fi
	i=$((i + 1))
done

# One "side seed value" line per run and metric, then the statistics.
printf '%-14s %10s %10s %10s %10s %8s %12s %8s  %s\n' metric parent_med parent_iqr change_med change_iqr delta change_lower sign_p verdict
for m in setup_s read_p50_us write_p50_us cpu_us_per_op; do
	sed -n 's/^{"side":"\([a-z]*\)","seed":\([0-9]*\),.*"'"$m"'":{"value":\([^,}]*\).*/\1 \2 \3/p' "$runs" |
		awk -v m="$m" '
		function q(a, n, p,   i, j, t, x) { # quantile p of a[1..n], linear interpolation
			for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
			x = 1 + (n - 1) * p; i = int(x)
			return i >= n ? a[n] : a[i] + (x - i) * (a[i+1] - a[i])
		}
		function tail(k, n,   i, c, s) { # P(X >= k), X ~ Binomial(n, 1/2)
			c = 1; s = 0
			for (i = 0; i <= n; i++) { if (i >= k) s += c; c = c * (n - i) / (i + 1) }
			return n ? s / 2 ^ n : 1
		}
		{ v[$1, $2] = $3; n[$1]++; side[$1, n[$1]] = $3; seeds[$2] = 1 }
		END {
			for (s in seeds) if ((("parent", s) in v) && (("change", s) in v)) {
				pairs++
				if (v["change", s] < v["parent", s]) lower++
				if (v["change", s] > v["parent", s]) higher++
			}
			for (k = 1; k <= n["parent"]; k++) p[k] = side["parent", k]
			for (k = 1; k <= n["change"]; k++) c[k] = side["change", k]
			pm = q(p, n["parent"], 0.5); cm = q(c, n["change"], 0.5)
			piqr = q(p, n["parent"], 0.75) - q(p, n["parent"], 0.25)
			verdict = "unresolved"
			if (pairs && 10 * lower >= 9 * pairs && pm - cm > piqr) verdict = "lower"
			if (pairs && 10 * higher >= 9 * pairs && cm - pm > piqr) verdict = "higher"
			printf "%-14s %10.2f %10.2f %10.2f %10.2f %+7.1f%% %5d of %-3d %8.4f  %s\n", m,
				pm, piqr, cm, q(c, n["change"], 0.75) - q(c, n["change"], 0.25),
				pm ? 100 * (cm - pm) / pm : 0, lower, pairs, tail(lower, lower + higher), verdict
		}'
done
