#!/usr/bin/env bash
# Benchmark gates. Two modes:
#
#   bench_check.sh overhead   (default)
#       Run `repro bench` against the committed baseline (BENCH_0007.json)
#       and fail if the dependence-mode overhead geomean regresses by more
#       than 10%. The geomean is virtual-clock-denominated, so the gate is
#       deterministic and safe on throttled CI runners; wall times are
#       recorded in the artifact for humans but never gated on.
#
#   bench_check.sh fleet
#       Fleet parallel-speedup gate (nightly CI): run the fleet analyzer
#       sequentially and with 4 workers, write BENCH_fleet.json, and fail
#       if the 4-worker speedup falls below 1.5x. Only enforced when the
#       machine has enough real cores to spread across.
#
#   bench_check.sh vm-equivalence
#       Backend-equivalence gate: in each instrumentation mode (light, loop,
#       dep), run the sequential fleet twice — once on the tree-walking
#       interpreter (CERES_INTERP_BACKEND=tree) and once on the default
#       bytecode VM — and fail unless the analysis reports are byte-for-byte
#       identical after dropping the two fields that are allowed to differ:
#       wall-clock timings (nondeterministic) and the VM-only
#       `interp.compile` phase span. Each mode's hooks take their own typed
#       VM path, so each mode is its own gate.
#
#   bench_check.sh stats-schema
#       Serving stats-schema gate: start jsceresd, fetch `{"op":"stats"}`,
#       and fail if the flattened key set of the payload (or the
#       `stats_schema` number itself) drifts from the committed golden
#       (tests/golden/serve_stats_keys.txt). Adding or removing a stats
#       field without bumping SERVE_STATS_SCHEMA — and regenerating the
#       golden with CERES_REGEN_GOLDENS=1 — is exactly the drift this
#       gate exists to catch.
#
#   bench_check.sh parallel-equivalence
#       Fork-join equivalence gate: run `repro parallel-bench` over all 12
#       apps and fail unless (a) every app either parallelized with
#       byte-identical output or was explicitly refused — no third state;
#       (b) at least PAR_MIN_APPS (default 5) apps parallelized; (c) of
#       the apps the paper bounds above 3x, at least PAR_MIN_WITHIN
#       (default 5) have what-if predictions within the documented error
#       bound of the measured speedup (docs/PARALLELIZE.md); (d) the
#       printed report, minus its `JSON written to` line, is byte-identical
#       to tests/golden/parallel_bench_w$PAR_BENCH_WORKERS.txt, so the
#       refusal trail's messages and digests are pinned too
#       (CERES_REGEN_GOLDENS=1 rewrites the golden). All gated quantities
#       are virtual-clock-denominated and deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-overhead}

case "$MODE" in
overhead)
    BASELINE=${BENCH_BASELINE:-BENCH_0007.json}
    OUT=${BENCH_OUT:-BENCH_ci.json}
    MAX_REGRESSION=${BENCH_MAX_REGRESSION:-1.10}

    cargo build --release --bin repro

    if [ ! -f "$BASELINE" ]; then
        echo "note: no recorded baseline at $BASELINE — running the bench ungated."
        echo "      Record one first (then commit it) with:"
        echo "      target/release/repro bench --json $BASELINE --label baseline"
        target/release/repro bench --json "$OUT" --label ci
        exit 0
    fi

    target/release/repro bench --json "$OUT" --baseline "$BASELINE" --label ci

    python3 - "$OUT" "$MAX_REGRESSION" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
limit = float(sys.argv[2])
entries = report["entries"]
if len(entries) < 2:
    sys.exit("FAIL: bench report has no baseline entry to compare against")

def dep_geomean(entry):
    for m in entry["modes"]:
        if m["mode"] == "Dependence":
            return m["geomean_slowdown"]
    sys.exit(f"FAIL: entry {entry['label']!r} has no Dependence mode")

base, cur = entries[0], entries[-1]
b, c = dep_geomean(base), dep_geomean(cur)
ratio = c / b
print(f"dependence overhead geomean: baseline[{base['label']}]={b:.4f}x "
      f"current[{cur['label']}]={c:.4f}x (ratio {ratio:.3f})")
if ratio > limit:
    sys.exit(f"FAIL: overhead geomean regressed {ratio:.3f}x > allowed {limit}x")
print(f"OK: within the {limit}x regression budget")
EOF
    ;;

fleet)
    WORKERS=${FLEET_BENCH_WORKERS:-4}
    OUT=${FLEET_BENCH_OUT:-BENCH_fleet.json}
    MIN_SPEEDUP=${FLEET_BENCH_MIN_SPEEDUP:-1.5}

    cargo build --release --bin repro
    target/release/repro fleet-bench --workers "$WORKERS" --json "$OUT"
    cat "$OUT"

    cores=$(nproc)
    if [ "$cores" -lt "$WORKERS" ]; then
        echo "note: only $cores core(s) available for $WORKERS workers — recording numbers, skipping the ${MIN_SPEEDUP}x gate"
        exit 0
    fi

    python3 - "$OUT" "$MIN_SPEEDUP" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
need = float(sys.argv[2])
got = report["speedup"]
if got < need:
    sys.exit(f"FAIL: fleet speedup {got:.2f}x < required {need}x "
             f"(seq {report['seq_ms']:.0f} ms, par {report['par_ms']:.0f} ms, "
             f"{report['workers']} workers)")
print(f"OK: fleet speedup {got:.2f}x >= {need}x")
EOF
    ;;

vm-equivalence)
    OUT_DIR=$(mktemp -d)
    trap 'rm -rf "$OUT_DIR"' EXIT

    cargo build --release --bin repro
    for mode in light loop dep; do
        echo "== $mode: fleet on the bytecode VM (default backend) =="
        target/release/repro fleet --sequential --mode "$mode" \
            --json "$OUT_DIR/vm-$mode.json" > /dev/null
        echo "== $mode: fleet on the tree-walker (CERES_INTERP_BACKEND=tree) =="
        CERES_INTERP_BACKEND=tree target/release/repro fleet --sequential --mode "$mode" \
            --json "$OUT_DIR/tree-$mode.json" > /dev/null

        python3 - "$mode" "$OUT_DIR/vm-$mode.json" "$OUT_DIR/tree-$mode.json" <<'EOF'
import json, sys

def normalize(o):
    """Drop wall-clock fields and the VM-only interp.compile span; every
    other byte of the report must match across backends."""
    if isinstance(o, dict):
        return {k: normalize(v) for k, v in o.items() if "wall" not in k}
    if isinstance(o, list):
        return [normalize(x) for x in o
                if not (isinstance(x, dict) and x.get("phase") == "interp.compile")]
    return o

mode = sys.argv[1]
vm, tree = (normalize(json.load(open(p))) for p in sys.argv[2:4])
a = json.dumps(vm, indent=1, sort_keys=True)
b = json.dumps(tree, indent=1, sort_keys=True)
if a != b:
    import difflib
    diff = list(difflib.unified_diff(
        b.splitlines(), a.splitlines(), "tree", "vm", lineterm=""))
    print("\n".join(diff[:80]), file=sys.stderr)
    sys.exit(f"FAIL ({mode}): VM and tree-walker fleet reports diverge "
             f"({len(diff)} diff lines, first 80 above)")
print(f"OK ({mode}): VM and tree-walker reports identical ({len(a.splitlines())} "
      "normalized lines; only wall timings and the interp.compile span differ)")
EOF
    done
    ;;

parallel-equivalence)
    WORKERS=${PAR_BENCH_WORKERS:-4}
    OUT=${PAR_BENCH_OUT:-BENCH_parallel.json}
    MIN_APPS=${PAR_MIN_APPS:-5}
    MIN_WITHIN=${PAR_MIN_WITHIN:-5}

    GOLDEN=tests/golden/parallel_bench_w$WORKERS.txt
    TEXT=$(mktemp)
    trap 'rm -f "$TEXT"' EXIT

    cargo build --release --bin repro
    target/release/repro parallel-bench --workers "$WORKERS" --json "$OUT" | tee "$TEXT"

    python3 - "$TEXT" "$GOLDEN" <<'EOF'
import os, sys
text, golden = sys.argv[1], sys.argv[2]
got = "".join(l for l in open(text) if not l.startswith("JSON written to "))
if os.environ.get("CERES_REGEN_GOLDENS"):
    open(golden, "w").write(got)
    print(f"regenerated {golden}")
    sys.exit(0)
if not os.path.exists(golden):
    sys.exit(f"FAIL: no golden {golden}; record one with "
             "CERES_REGEN_GOLDENS=1 scripts/bench_check.sh parallel-equivalence")
want = open(golden).read()
if got != want:
    import difflib
    diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                "golden", "live", lineterm="")
    print("\n".join(diff), file=sys.stderr)
    sys.exit(f"FAIL: the parallel-bench report drifted from {golden}")
print(f"OK: report and refusal trail match {golden}")
EOF

    python3 - "$OUT" "$MIN_APPS" "$MIN_WITHIN" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
min_apps, min_within = int(sys.argv[2]), int(sys.argv[3])
bad = [r for r in report["rows"]
       if not (r["outcome"] == "parallelized" or r["outcome"].startswith("refused:"))]
if bad:
    for r in bad:
        print(f"FAIL: {r['slug']}: unexpected outcome {r['outcome']!r}", file=sys.stderr)
    sys.exit("FAIL: an app neither parallelized byte-identically nor was refused")
par = [r for r in report["rows"] if r["equivalent"] is True]
print(f"{len(par)} of {len(report['rows'])} apps parallelized byte-identically "
      f"on {report['workers']} workers: {', '.join(r['slug'] for r in par)}")
if len(par) < min_apps:
    sys.exit(f"FAIL: only {len(par)} apps parallelized < required {min_apps}")
over = [r for r in report["rows"] if r["paper_over_3x"]]
within = [r for r in over if r["within_bound"] is True]
print(f"{len(within)} of the paper's {len(over)} >3x apps predicted within "
      f"the {report['error_bound']:.0%} error bound: "
      f"{', '.join(r['slug'] for r in within)}")
if len(within) < min_within:
    sys.exit(f"FAIL: only {len(within)} >3x apps within the error bound "
             f"< required {min_within}")
print("OK: fork-join equivalence + prediction gates hold")
EOF
    ;;

stats-schema)
    GOLDEN=tests/golden/serve_stats_keys.txt
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"; [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null || true' EXIT

    cargo build --release --bin jsceresd
    target/release/jsceresd --addr 127.0.0.1:0 --in-process --workers 1 \
        > "$TMP/out" 2> "$TMP/err" &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        grep -q "^listening on " "$TMP/out" 2>/dev/null && break
        kill -0 "$daemon_pid" 2>/dev/null || {
            echo "FAIL: daemon died before binding" >&2
            cat "$TMP/err" >&2
            exit 1
        }
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$TMP/out" | head -1)
    [ -n "$addr" ] || { echo "FAIL: no ready line" >&2; exit 1; }

    python3 - "$addr" "$GOLDEN" <<'EOF'
import json, os, socket, sys

addr, golden = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

stats = rpc('{"op":"stats"}')
assert rpc('{"op":"shutdown"}')["ok"]

def flatten(obj, prefix=""):
    """Dotted key paths; lists contribute their first element as `[]`."""
    keys = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            keys.add(path)
            keys |= flatten(v, path)
    elif isinstance(obj, list) and obj:
        keys |= flatten(obj[0], prefix + "[]")
    return keys

lines = [f"stats_schema={stats['stats_schema']}"] + sorted(flatten(stats))
got = "\n".join(lines) + "\n"
if os.environ.get("CERES_REGEN_GOLDENS"):
    open(golden, "w").write(got)
    print(f"regenerated {golden} ({len(lines) - 1} keys, "
          f"stats_schema {stats['stats_schema']})")
    sys.exit(0)
want = open(golden).read()
if got != want:
    import difflib
    diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                "golden", "live", lineterm="")
    print("\n".join(diff), file=sys.stderr)
    sys.exit("FAIL: the stats payload drifted from the committed golden. "
             "If the change is intentional, bump SERVE_STATS_SCHEMA in "
             "crates/core/src/serve.rs and regenerate with "
             "CERES_REGEN_GOLDENS=1 scripts/bench_check.sh stats-schema")
print(f"OK: stats_schema {stats['stats_schema']} with {len(lines) - 1} "
      "payload keys, matching the committed golden")
EOF
    code=0
    wait "$daemon_pid" || code=$?
    daemon_pid=
    [ "$code" -eq 0 ] || { echo "FAIL: daemon exited $code" >&2; exit 1; }
    ;;

*)
    echo "usage: bench_check.sh [overhead|fleet|vm-equivalence|parallel-equivalence|stats-schema]" >&2
    exit 2
    ;;
esac
