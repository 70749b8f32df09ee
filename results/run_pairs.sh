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
# the pairs in which the change reads better. A traced run (TRACE not 0)
# reports no end-to-end metric, so then the same is printed for each
# per-layer metric that every run reports and some run reads nonzero. Then
# it prints each side's failed operations, then each side's main.refPiece
# offset mod 64 in the benchmark binary it built (go tool nm), with a
# warning when the two differ: a layout shift of the benchmark's normaliser
# moves op_time_us on its own.
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
print(f"{'metric':<26} {'parent':>12} {'change':>12} {'change':>8} {'better':>7} {'parent IQR':>11}")
metrics = json.load(open(spec))["end_to_end" if trace == "0" else "per_layer"]
for m in metrics:
    name = m["name"]
    if trace != "0" and not all(name in r["metrics"] for rs in runs.values() for r in rs):
        continue
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    if trace != "0" and not any(p + c):
        continue
    lower = m["better"] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [p[0]] * 3
    change = f"{100 * (cm - pm) / pm:>+7.1f}%" if pm else f"{'':>8}"
    print(f"{name:<26} {pm:>12.4g} {cm:>12.4g} {change} {wins:>4}/{len(seeds):<2} {q[2] - q[0]:>11.4g}")
for side, rs in runs.items():
    print(f"{side}: {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)} operations failed,",
          f"{sum(not r['correct'] for r in rs)} runs not correct")
EOF

# The benchmark binary each side built last: where its normaliser landed.
refpiece() { # dir
	local addr
	addr=$(go tool nm "$1/.bench_build/bin/benchmark" | awk '$3 == "main.refPiece" { print $1 }')
	echo $(( 0x$addr % 64 ))
}
p=$(refpiece "$parent") c=$(refpiece "$change")
echo "main.refPiece mod 64: parent $p, change $c"
if (( p != c )); then
	echo "warning: the two benchmark binaries' code layouts differ; a difference above may be layout, not the change"
fi
