#!/usr/bin/env bash
# Count code lines per Rust file and in total: non-blank lines that are not
# a `//` comment (so `///` and `//!` docs are excluded too), up to the first
# `#[cfg(test)]` line, after which a file holds only tests.
#
#   scripts/loc.sh crates/ast/src/visit.rs crates/instrument/src/*.rs
set -euo pipefail
if [ $# -eq 0 ]; then
    echo "usage: $0 FILE..." >&2
    exit 2
fi
awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { count[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d %s\n", count[ARGV[i]], ARGV[i]
        printf "%6d total\n", total
    }
' "$@"
