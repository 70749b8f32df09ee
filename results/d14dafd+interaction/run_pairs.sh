#!/usr/bin/env bash
# Alternating before/after pairs of the repo benchmark (BENCHMARK.json's
# command), each side run from its own checkout.
#
#   run_pairs.sh PARENT_DIR CHANGE_DIR OUT_DIR WORKLOAD TRACE SEED...
#
# Odd seeds run the parent first, even seeds the change. Each run's JSON
# result goes to OUT_DIR/<workload>-t<trace>-s<seed>-<side>.json.
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
