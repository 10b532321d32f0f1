#!/usr/bin/env bash
# Run alternating benchmark pairs: git revision REV against this checkout.
#
#   scripts/ab_pairs.sh REV WORKLOAD PAIRS [SECONDS] [SEED0]
#
# REV is exported with `git archive` into a temporary directory. Each side
# builds and runs with its own benchmark/run.sh, into its own target
# directory: target/ab/rev for REV, target/ab/work for this checkout. Pair
# i runs seed SEED0 + i - 1 (SEED0 defaults to 1) on both sides for
# SECONDS (default 20) untraced, REV first in odd pairs and this checkout
# first in even pairs. The raw result lines, `<workload> <seed> <json>` as
# `run.sh summarize` reads them, go to target/ab/WORKLOAD-SEED0/rev.txt and
# work.txt, with each run's full output beside them; nothing is written
# under benchmark/.
#
# Prints, per pair, every end-to-end metric of both sides with the change
# in percent, and each side's as-measured line; then `run.sh summarize` of
# the two sides (median, quartiles and spread per metric).
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-20} seed0=${5:-1}
root="$(cd "$(dirname "$0")/.." && pwd)"
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")

# A fixed path per commit: `git archive` stamps every file with the commit
# time, so a second export to the same path reuses target/ab/rev's build.
src="${TMPDIR:-/tmp}/ab_pairs-$sha"
rm -rf "$src"
mkdir -p "$src"
trap 'rm -rf "$src"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$src"

out="$root/target/ab/$workload-$seed0"
mkdir -p "$out"
: > "$out/rev.txt"
: > "$out/work.txt"

# run SIDE SEED: one run of SIDE (rev or work); appends its result line.
run() {
    local side=$1 seed=$2 dir log
    if [ "$side" = rev ]; then dir=$src; else dir=$root; fi
    log="$out/$side-$seed.log"
    CARGO_TARGET_DIR="$root/target/ab/$side" bash "$dir/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$side-files" > "$log" || echo "ab_pairs: $side seed $seed exited $?" >&2
    echo "$workload $seed $(tail -n 1 "$log")" >> "$out/$side.txt"
}

# metrics LINE: `name value` per metric of a result line.
metrics() {
    printf '%s\n' "$1" | awk '{
        s = $0
        while (match(s, /"[a-z0-9_.]+":\{"value":[^,}]*/)) {
            m = substr(s, RSTART + 1, RLENGTH - 1)
            s = substr(s, RSTART + RLENGTH)
            split(m, kv, "\":\\{\"value\":")
            print kv[1], kv[2]
        }
    }'
}

for ((i = 1; i <= pairs; i++)); do
    seed=$((seed0 + i - 1))
    if ((i % 2)); then order="rev work"; else order="work rev"; fi
    for side in $order; do run "$side" "$seed"; done
    echo "pair $i  seed $seed  order: $order"
    LC_ALL=C join <(metrics "$(tail -n 1 "$out/rev.txt")" | LC_ALL=C sort) \
        <(metrics "$(tail -n 1 "$out/work.txt")" | LC_ALL=C sort) |
        awk '{
            d = ($2 == "null" || $3 == "null" || $2 == 0) ? "" : sprintf("%+.1f%%", 100 * ($3 - $2) / $2)
            printf "  %-20s rev %12s  work %12s  %s\n", $1, $2, $3, d
        }'
    for side in rev work; do
        printf '  %-4s %s\n' "$side" "$(grep '^as measured:' "$out/$side-$seed.log" || echo 'no result')"
    done
done
CARGO_TARGET_DIR="$root/target/ab/work" bash "$root/benchmark/run.sh" summarize \
    "$out/rev.txt" "$out/work.txt"
