#!/usr/bin/env bash
# Count code lines per Rust file and in total: non-blank lines that are not
# a `//` comment (so `///` and `//!` docs are excluded too), up to the first
# `#[cfg(test)]` line, after which a file holds only tests.
#
#   scripts/loc.sh crates/ast/src/visit.rs crates/instrument/src/*.rs
#
# With no arguments, prints only the total over every crate's sources
# (`crates/*/src/*.rs crates/*/src/*/*.rs`), the figure to report as a
# change's net lines.
set -euo pipefail
per_file=1
if [ $# -eq 0 ]; then
    cd "$(dirname "$0")/.."
    set -- crates/*/src/*.rs crates/*/src/*/*.rs
    per_file=0
fi
awk -v per_file="$per_file" '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { count[FILENAME]++; total++ }
    END {
        if (per_file) for (i = 1; i < ARGC; i++) printf "%6d %s\n", count[ARGV[i]], ARGV[i]
        printf "%6d total\n", total
    }
' "$@"
