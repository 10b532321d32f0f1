//! The `--metrics` contract (docs/METRICS.md): under `--deterministic`,
//! the observability JSON for the same fleet is byte-identical regardless
//! of how many workers ran it. Tick-denominated fields (spans, counters)
//! are real measurements either way; only the wall-clock/scheduling
//! fields get zeroed by the deterministic view.

use ceres_core::fleet::FleetPolicy;
use ceres_core::{FleetMetrics, Mode, METRICS_SCHEMA_VERSION};
use ceres_workloads::run_fleet_report;

#[test]
fn deterministic_metrics_are_byte_identical_across_worker_counts() {
    let policy = FleetPolicy::default();
    let seq = run_fleet_report(Mode::LoopProfile, 1, 1);
    let par = run_fleet_report(Mode::LoopProfile, 1, 8);
    assert!(seq.all_ok() && par.all_ok(), "clean fleet runs");

    let a = FleetMetrics::from_outcome(&seq, &policy, true);
    let b = FleetMetrics::from_outcome(&par, &policy, true);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "deterministic metrics JSON must not depend on the worker count"
    );

    // The document is a real measurement, not an empty shell.
    assert_eq!(a.schema_version, METRICS_SCHEMA_VERSION);
    assert_eq!(a.apps.len(), 12);
    for app in &a.apps {
        let phases: Vec<_> = app.spans.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(
            phases,
            ["parse", "rewrite", "interp", "analyze", "report"][..4],
            "{}: every pipeline phase except report (no --report run)",
            app.slug
        );
        assert!(
            app.counters.interp_ticks > 0,
            "{}: the virtual clock advanced",
            app.slug
        );
        assert!(
            app.counters.hook_calls > 0,
            "{}: instrumentation hooks fired",
            app.slug
        );
        // Deterministic view: wall fields are zeroed, ticks survive.
        assert_eq!(app.wall_ms, 0.0);
        assert!(app.spans.iter().all(|s| s.wall_us == 0));
        assert!(app.spans.iter().any(|s| s.ticks() > 0));
    }
    // Totals are the per-app sums, merged in registry order.
    let ticks: u64 = a.apps.iter().map(|x| x.counters.interp_ticks).sum();
    assert_eq!(a.totals.interp_ticks, ticks);
}

#[test]
fn non_deterministic_metrics_carry_wall_time_but_identical_ticks() {
    let policy = FleetPolicy::default();
    let outcome = run_fleet_report(Mode::LoopProfile, 1, 4);
    assert!(outcome.all_ok());
    let live = FleetMetrics::from_outcome(&outcome, &policy, false);
    let det = FleetMetrics::from_outcome(&outcome, &policy, true);

    // Wall time is real in the live view...
    assert!(live.apps.iter().any(|x| x.wall_ms > 0.0));
    assert!(live
        .apps
        .iter()
        .any(|x| x.spans.iter().any(|s| s.wall_us > 0)));
    // ...and carries wall-only sub-spans that the canonical view drops:
    // `interp.compile` on every app run on the VM, on none run on the
    // tree-walker (it compiles nothing)...
    let vm = ceres_interp::interp::default_backend() == ceres_interp::Backend::Vm;
    for x in &live.apps {
        assert_eq!(
            x.spans.iter().any(|s| s.phase == "interp.compile"),
            vm,
            "{}",
            x.slug
        );
    }
    assert!(det
        .apps
        .iter()
        .all(|x| x.spans.iter().all(|s| !s.phase.contains('.'))));
    // ...but the tick-denominated half agrees exactly with the
    // deterministic view (sub-spans are wall-only, so compare the
    // canonical phases).
    for (l, d) in live.apps.iter().zip(&det.apps) {
        assert_eq!(l.counters, d.counters, "{}", l.slug);
        let lt: Vec<_> = l
            .spans
            .iter()
            .filter(|s| !s.phase.contains('.'))
            .map(|s| (s.start_ticks, s.end_ticks))
            .collect();
        let dt: Vec<_> = d
            .spans
            .iter()
            .map(|s| (s.start_ticks, s.end_ticks))
            .collect();
        assert_eq!(lt, dt, "{}", l.slug);
    }
}
