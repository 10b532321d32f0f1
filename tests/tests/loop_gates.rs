//! Per-loop verdicts of both loop gates, pinned byte-for-byte.
//!
//! For every numbered loop of the 12 case-study apps the golden records
//! what `refactor_loop` (the Sec. 5.3 `forEachPar` transform) and
//! `parallelize_loop` (the fork-join gate) decide, and the static features
//! the Table 3 divergence column is built from. A change to how either gate
//! recognises a counted loop, or to how the AST is walked, shows up here as
//! a diff. Regenerate deliberately with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test loop_gates`.

use ceres_core::static_features;
use ceres_instrument::{parallelize_loop, refactor_loop};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../golden/loop_gates.txt");

fn verdict<T, E: std::fmt::Display>(r: Result<T, E>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn render() -> String {
    let mut out = String::new();
    for w in ceres_workloads::all() {
        let (program, loops) = ceres_parser::parse_and_number(w.source).expect("app parses");
        let features = static_features(&program);
        for l in &loops {
            let f = features[&l.id];
            writeln!(
                out,
                "{} {} {} line {} | refactor: {} | parallelize: {} | branches={} body_size={} calls={} recursive_call={}",
                w.slug,
                l.id.0,
                l.kind,
                l.span.line,
                verdict(refactor_loop(&program, l.id)),
                verdict(parallelize_loop(&program, l.id)),
                f.branches,
                f.body_size,
                f.calls,
                f.recursive_call,
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn loop_gate_verdicts_are_byte_identical_to_golden() {
    let got = render();
    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/loop_gates.txt");
        std::fs::write(path, &got).expect("regen golden");
        return;
    }
    assert!(
        !got.contains("no loop with that id"),
        "a numbered loop was not found by a gate:\n{got}"
    );
    assert_eq!(
        got, GOLDEN,
        "loop gate verdicts drifted from tests/golden/loop_gates.txt"
    );
}
