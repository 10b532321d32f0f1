//! The rewriter's output, pinned byte-for-byte in all three modes.
//!
//! `fleet_metrics.json` pins only the apps' dependence-mode ticks. This
//! golden records, per mode:
//!
//! * `<name> <mode> <bytes> <sha256>` of the instrumented text of each of
//!   the 12 registry apps (their page scripts joined the way
//!   `pipeline::analyze` joins them) and of `examples/js/nbody.js`;
//! * the full instrumented text of [`EDGES`], one short program that
//!   reaches every rewrite rule.
//!
//! Any change to what the rewriter inserts, or where, shows up here as a
//! diff. Regenerate deliberately with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test instrument_golden`.

use ceres_ast::{assign_loop_ids, program_to_source};
use ceres_instrument::{instrument_program, Mode};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../golden/instrumented.txt");
const NBODY: &str = include_str!("../../examples/js/nbody.js");
const MODES: [Mode; 3] = [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence];

/// Every rewrite rule once: `for` initializers in `=` and comma forms,
/// `for`-in with and without `var`, a catch parameter, `delete` of a
/// member, an index and a name, `typeof` of an undeclared name, `++`/`--`
/// on a variable, a member and an index, compound member and index
/// writes, a chained assignment, method calls through a member and an
/// index, an IIFE, `new ns.C()`, a function expression inside a loop and
/// a single-statement `do … while`.
const EDGES: &str = "var o = { a: 1, b: [1, 2], c: { d: 3 } }, arr = [1, 2, 3], k, n = 0;\n\
    function C(x) { this.x = x; }\n\
    var ns = { C: C };\n\
    for (k = 0; k < 3; k++) { n += k; }\n\
    for (k = 0, n = 1; k < 2; k++) n *= 2;\n\
    for (k in o) { n++; }\n\
    for (var j in arr) { n--; }\n\
    try { missing(); } catch (e) { n = e; }\n\
    delete o.a; delete o['b']; delete n;\n\
    var t = typeof undeclaredName;\n\
    n++; --n; o.c.d++; --o.c.d; arr[1]++; --arr[k];\n\
    o.c.d += 2; arr[k] -= 1; o.x = arr[0] = n = 5;\n\
    var s = arr.slice(1).length + o['c'].d;\n\
    arr[0](1); o.c.f(n);\n\
    (function () { return 1; })();\n\
    var inst = new ns.C(1);\n\
    while (n < 10) { var g = function (y) { return y + n; }; n = g(n); }\n\
    do n--; while (n > 0);\n";

fn instrumented(source: &str, mode: Mode) -> String {
    let mut program = ceres_parser::parse_program(source).expect("parses");
    assign_loop_ids(&mut program);
    program_to_source(&instrument_program(&program, mode))
}

/// Each app's page scripts, joined by the pipeline's own
/// `Document::script_text`.
fn app_sources() -> Vec<(&'static str, String)> {
    let mut sources: Vec<(&'static str, String)> = ceres_workloads::all()
        .iter()
        .map(|w| {
            let html = ceres_workloads::workload_html(w, 1);
            (w.slug, ceres_core::Document::Html(html).script_text())
        })
        .collect();
    sources.push(("nbody", NBODY.to_string()));
    sources
}

fn render_all() -> String {
    let mut out = String::new();
    for (name, source) in app_sources() {
        for mode in MODES {
            let text = instrumented(&source, mode);
            let digest = ceres_core::sha256_hex(text.as_bytes());
            writeln!(out, "{name} {mode:?} {} {digest}", text.len()).unwrap();
        }
    }
    for mode in MODES {
        writeln!(out, "== edges {mode:?}").unwrap();
        out.push_str(&instrumented(EDGES, mode));
        out.push('\n');
    }
    out
}

#[test]
fn instrumented_text_is_byte_identical_to_golden() {
    let got = render_all();
    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/instrumented.txt");
        std::fs::write(path, &got).expect("regen golden");
        return;
    }
    if got != GOLDEN {
        let (i, (want, have)) = GOLDEN
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .unwrap_or((0, ("(line counts differ)", "")));
        panic!(
            "instrumented text drifted from tests/golden/instrumented.txt at line {}:\n  want: {want}\n  got:  {have}",
            i + 1
        );
    }
}
