#!/usr/bin/env bash
# Build jsceresd and the benchmark runner from this checkout, then run one
# workload, or, without --workload, each of the four in a fresh process.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh summarize FILE...
#
# Both binaries go to $CARGO_TARGET_DIR/release (default benchmark/target),
# where the runner finds jsceresd beside itself. The last line of a run's
# output is its JSON result; see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin jsceresd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
runner="$target/release/ceres-benchmark"
if [ "${1:-}" = summarize ]; then
    exec "$runner" "$@"
fi
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$runner" "$@"
    fi
done
status=0
for workload in analyze-dep serve-cold serve-warm forkjoin; do
    "$runner" --workload "$workload" "$@" || status=1
done
exit "$status"
