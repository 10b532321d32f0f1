#!/usr/bin/env bash
# Measure a baseline: SETS sets of RUNS untraced runs per workload, each
# run with its own seed, the workload order reversed in every other set;
# then print the median, quartiles and spread per set, workload and metric.
#
#   benchmark/baseline.sh [SETS] [RUNS] [SECONDS] > summary.json
#
# Raw result lines go to benchmark/out/set-<k>.txt.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sets="${1:-2}"
runs="${2:-10}"
seconds="${3:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
out="$root/benchmark/out"
mkdir -p "$out"
workloads=(analyze-dep serve-cold serve-warm forkjoin)
files=()
for set in $(seq 1 "$sets"); do
    file="$out/set-$set.txt"
    : >"$file"
    order=("${workloads[@]}")
    if [ $((set % 2)) -eq 0 ]; then
        order=(forkjoin serve-warm serve-cold analyze-dep)
    fi
    for run in $(seq 1 "$runs"); do
        for workload in "${order[@]}"; do
            seed=$((set * 1000 + run))
            line="$("$root/benchmark/run.sh" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "$workload $seed $line" >>"$file"
            echo "set $set run $run $workload done" >&2
        done
    done
    files+=("$file")
done
"$root/benchmark/run.sh" summarize "${files[@]}"
