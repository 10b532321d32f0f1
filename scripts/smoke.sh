#!/usr/bin/env bash
# CLI smoke test: exercise the release binaries end to end and hold the
# Fig. 6 N-body output to its checked-in golden. Run from anywhere; exits
# non-zero on any drift.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release
cargo build --release --bins

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== repro all =="
"$BIN/repro" all > "$tmp/repro_all.out"
# Every section header must have rendered.
for section in "Figure 1" "Figure 6" "Table 2" "Table 3" "Amdahl"; do
    grep -q "$section" "$tmp/repro_all.out" || {
        echo "FAIL: 'repro all' output is missing '$section'" >&2
        exit 1
    }
done

echo "== jsceres on examples/js =="
for js in examples/js/*.js; do
    "$BIN/jsceres" "$js" --mode dep > "$tmp/jsceres.out"
    grep -q -- "-- timing --" "$tmp/jsceres.out" || {
        echo "FAIL: jsceres $js printed no timing block" >&2
        exit 1
    }
done

echo "== repro fig6 vs golden =="
"$BIN/repro" fig6 > "$tmp/fig6.out"
diff -u tests/golden/fig6_nbody.txt "$tmp/fig6.out" || {
    echo "FAIL: 'repro fig6' drifted from tests/golden/fig6_nbody.txt" >&2
    echo "(if the change is intentional, refresh the golden with:" >&2
    echo "  cargo run --release -p ceres-bench --bin repro -- fig6 > tests/golden/fig6_nbody.txt)" >&2
    exit 1
}
# The paper's headline N-body characterization must appear verbatim.
grep -qF "while(line 44) ok ok -> for(line 22) ok dependence" "$tmp/fig6.out" || {
    echo "FAIL: N-body 'ok ok -> ok dependence' characterization missing" >&2
    exit 1
}

echo "== fleet analyzer (parallel vs sequential) =="
"$BIN/repro" fleet --workers 4 --json "$tmp/fleet_par.json" > /dev/null
"$BIN/repro" fleet --sequential --json "$tmp/fleet_seq.json" > /dev/null
for f in fleet_par fleet_seq; do
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp/$f.json" || {
        echo "FAIL: $f.json is not valid JSON" >&2
        exit 1
    }
done
"$BIN/jsceres" analyze-all --mode light --workers 2 > "$tmp/analyze_all.out"
grep -q "Table 2" "$tmp/analyze_all.out" || {
    echo "FAIL: 'jsceres analyze-all' printed no Table 2" >&2
    exit 1
}

echo "== repro fleet and jsceres analyze-all are one command =="
fleet_flags=(--mode light --sequential --deterministic)
"$BIN/repro" fleet "${fleet_flags[@]}" --metrics "$tmp/fleet_metrics.json" \
    | sed 's/([0-9.]*s wall)//; s/ written to .*//' > "$tmp/fleet.out"
"$BIN/jsceres" analyze-all "${fleet_flags[@]}" --metrics "$tmp/analyze_all_metrics.json" \
    | sed 's/([0-9.]*s wall)//; s/ written to .*//' > "$tmp/analyze_all_det.out"
cmp "$tmp/fleet_metrics.json" "$tmp/analyze_all_metrics.json" || {
    echo "FAIL: 'repro fleet' and 'jsceres analyze-all' wrote different --metrics" >&2
    exit 1
}
diff -u "$tmp/fleet.out" "$tmp/analyze_all_det.out" || {
    echo "FAIL: 'repro fleet' and 'jsceres analyze-all' printed different reports" >&2
    exit 1
}

echo "smoke OK"
