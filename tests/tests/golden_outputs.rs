//! Byte-identity goldens for the two primary deterministic surfaces.
//!
//! The hot path is allowed to get faster, never to get *different*: these
//! tests pin the Fig. 6 report text and the deterministic `--metrics`
//! JSON byte-for-byte, so any refactor of the interpreter, hooks, or
//! engine that shifts a warning, a count, or a tick shows up as a diff
//! here rather than as silent drift. Regenerate only when an intentional
//! analysis change lands (and say so in the commit), from the release CLI
//! that writes the same bytes:
//!
//! ```text
//! target/release/repro fig6 > tests/golden/fig6_nbody.txt
//! target/release/repro fleet --sequential --deterministic --mode dep \
//!     --metrics tests/golden/fleet_metrics.json
//! ```

use ceres_core::fleet::FleetPolicy;
use ceres_core::{render, FleetMetrics, Mode, WarningKind};
use ceres_workloads::run_fleet_report;

const NBODY: &str = include_str!("../../examples/js/nbody.js");
const FIG6_GOLDEN: &str = include_str!("../golden/fig6_nbody.txt");
const METRICS_GOLDEN: &str = include_str!("../golden/fleet_metrics.json");

/// Reproduce `repro fig6`'s exact output (header, dedup, order).
fn render_fig6() -> String {
    let (_interp, engine) =
        ceres_core::run_instrumented(NBODY, Mode::Dependence, 2015).expect("nbody run");
    let engine = engine.borrow();
    let mut out = String::from("== Figure 6: N-body example — dependence warnings ==\n");
    let mut shown = std::collections::BTreeSet::new();
    for w in &engine.warnings {
        if matches!(
            w.kind,
            WarningKind::VarWrite | WarningKind::SharedPropWrite | WarningKind::FlowRead
        ) {
            let line = format!(
                "warning: {} `{}`\n  {}",
                w.kind.describe(),
                w.subject,
                render(&w.characterization, &engine.loops)
            );
            if shown.insert(line.clone()) {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn fig6_report_is_byte_identical_to_golden() {
    let got = render_fig6();
    assert!(
        got == FIG6_GOLDEN,
        "fig6 output drifted from tests/golden/fig6_nbody.txt:\n{}",
        diff_hint(FIG6_GOLDEN, &got)
    );
}

#[test]
fn deterministic_metrics_json_is_byte_identical_to_golden() {
    // Same construction as `repro fleet --sequential --deterministic
    // --metrics FILE`: one worker, default policy, deterministic view.
    let outcome = run_fleet_report(Mode::Dependence, 1, 1);
    assert!(outcome.all_ok(), "clean fleet run expected");
    let metrics = FleetMetrics::from_outcome(&outcome, &FleetPolicy::default(), true);
    let got = metrics.to_json();
    assert!(
        got == METRICS_GOLDEN,
        "deterministic metrics drifted from tests/golden/fleet_metrics.json:\n{}",
        diff_hint(METRICS_GOLDEN, &got)
    );
}

/// First differing line, for a readable failure message.
fn diff_hint(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("first diff at line {}:\n  want: {w}\n  got:  {g}", i + 1);
        }
    }
    format!(
        "line counts differ: want {} lines, got {}",
        want.lines().count(),
        got.lines().count()
    )
}
