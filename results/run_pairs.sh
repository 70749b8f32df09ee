#!/usr/bin/env bash
# Alternating before/after pairs of the repo benchmark (BENCHMARK.json's
# command), each side run from its own checkout.
#
#   run_pairs.sh PARENT_DIR CHANGE_DIR OUT_DIR WORKLOAD TRACE SEED...
#
# Odd seeds run the parent first, even seeds the change. Each run's JSON
# result goes to OUT_DIR/<workload>-t<trace>-s<seed>-<side>.json. At the end
# it prints, for each end-to-end metric of CHANGE_DIR/BENCHMARK.json, each
# side's median over these seeds, the parent's inter-quartile distance and
# the pairs in which the change reads better, then each side's failed
# operations.
set -euo pipefail
parent=$1 change=$2 out=$3 workload=$4 trace=$5
shift 5
mkdir -p "$out"
run() { # side dir seed
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds 12 --trace "$trace" 2>/dev/null) \
		> "$out/$workload-t$trace-s$3-$1.json"
}
for seed in "$@"; do
	if (( seed % 2 )); then
		run parent "$parent" "$seed"; run change "$change" "$seed"
	else
		run change "$change" "$seed"; run parent "$parent" "$seed"
	fi
done

python3 - "$change/BENCHMARK.json" "$out" "$workload" "$trace" "$@" <<'EOF'
import json, statistics, sys

spec, out, workload, trace, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
runs = {side: [json.load(open(f"{out}/{workload}-t{trace}-s{s}-{side}.json")) for s in seeds]
        for side in ("parent", "change")}

print(f"{workload} trace {trace}, {len(seeds)} pairs (seeds {' '.join(seeds)}), parent -> change")
print(f"{'metric':<12} {'parent':>12} {'change':>12} {'change':>8} {'better':>7} {'parent IQR':>11}")
for m in json.load(open(spec))["end_to_end"]:
    name = m["name"]
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    lower = m["better"] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [p[0]] * 3
    print(f"{name:<12} {pm:>12.4g} {cm:>12.4g} {100 * (cm - pm) / pm:>+7.1f}% {wins:>4}/{len(seeds):<2} {q[2] - q[0]:>11.4g}")
for side, rs in runs.items():
    print(f"{side}: {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)} operations failed,",
          f"{sum(not r['correct'] for r in rs)} runs not correct")
EOF
