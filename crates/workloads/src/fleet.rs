//! Fleet driver: fan the 12 registered workloads across the core worker
//! pool. Lives here (not in ceres-core) because the dependency points
//! workloads → core; the core pool is workload-agnostic.
//!
//! This layer also rolls the seeded fault-injection harness: with a
//! [`FaultPlan`], a job may (deterministically, per job index and attempt)
//! panic, hang, or report a transient error *before* doing its real work,
//! so CI can prove the supervisor degrades gracefully instead of taking
//! the whole case study down. The faults themselves are the core
//! injector's ([`with_faults`]), the same ones a served `inject` runs.

use crate::registry::{all, workload_html};
use ceres_core::fleet::{
    page_work, run_fleet_with, with_faults, FaultPlan, FleetJob, FleetOutcome, FleetPolicy,
};
use ceres_core::{AnalyzeOptions, Document, Mode};
use std::sync::Arc;
use std::time::Instant;

/// Build one [`FleetJob`] per registered workload, in Table 1 order.
///
/// Each job's work is the core page runner ([`page_work`]): it builds
/// its own `WebServer → instrument → Interp → Engine` pipeline when a
/// worker picks it up — nothing is shared between apps, so isolation is
/// by construction rather than by locking. The policy's budgets are
/// threaded into the pipeline; the fault plan (if any) is rolled per
/// attempt by the core injector ([`with_faults`]), so an injected
/// transient error can clear on retry.
pub fn fleet_jobs(
    mode: Mode,
    scale: u32,
    policy: &FleetPolicy,
    faults: Option<FaultPlan>,
) -> Vec<FleetJob> {
    let opts = AnalyzeOptions {
        mode,
        max_ticks: policy.tick_budget,
        // Leave headroom under the fleet's hard wall backstop so the
        // cooperative in-interpreter cap fires first.
        wall_budget: policy.wall_budget.checked_div(2),
        ..AnalyzeOptions::default()
    };
    // Shared epoch so every app's obs record is stamped with its offset
    // from the start of the fleet, letting a chrome trace show occupancy.
    let epoch = Instant::now();
    all()
        .into_iter()
        .enumerate()
        .map(|(index, w)| {
            let (app, slug) = (w.name.to_string(), w.slug.to_string());
            let page = Document::Html(workload_html(&w, scale));
            let work = page_work(app.clone(), slug.clone(), page, opts.clone(), w.interaction);
            let roll = move |attempt| faults.and_then(|p| p.roll(index, attempt));
            let work = with_faults(work, &slug, policy, roll);
            FleetJob {
                app,
                slug,
                work: Arc::new(move |worker, attempt| {
                    let start = Instant::now();
                    let mut report = work(worker, attempt)?;
                    report.obs.wall_start_us = start.duration_since(epoch).as_micros() as u64;
                    Ok(report)
                }),
            }
        })
        .collect()
}

/// Run the whole fleet under the default policy, no injected faults.
///
/// `workers = 1` is the sequential baseline; the merged outcome is
/// byte-identical across worker counts once [`FleetOutcome::canonical`]
/// strips the wall-clock/worker-id fields (the analysis itself runs on a
/// seeded virtual clock and is deterministic).
pub fn run_fleet_report(mode: Mode, scale: u32, workers: usize) -> FleetOutcome {
    run_fleet_report_with(mode, scale, workers, &FleetPolicy::default(), None)
}

/// Run the whole fleet under `policy`, optionally injecting faults, and
/// merge into a [`FleetOutcome`]. Never fails as a whole: per-app
/// breakage lands in that app's status slot.
pub fn run_fleet_report_with(
    mode: Mode,
    scale: u32,
    workers: usize,
    policy: &FleetPolicy,
    faults: Option<FaultPlan>,
) -> FleetOutcome {
    let apps = run_fleet_with(fleet_jobs(mode, scale, policy, faults), workers, policy);
    FleetOutcome::new(format!("{mode:?}"), scale, workers, apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_core::fleet::{injected_hang, FaultSpec, JobError};

    #[test]
    fn fleet_jobs_cover_the_registry_in_order() {
        let jobs = fleet_jobs(Mode::Lightweight, 1, &FleetPolicy::default(), None);
        let slugs: Vec<_> = jobs.iter().map(|j| j.slug.clone()).collect();
        let expect: Vec<_> = all().iter().map(|w| w.slug.to_string()).collect();
        assert_eq!(slugs, expect);
        assert_eq!(jobs.len(), 12);
    }

    #[test]
    fn injected_hang_is_a_deterministic_timeout() {
        let e1 = injected_hang(&FleetPolicy::default());
        let e2 = injected_hang(&FleetPolicy::default());
        assert_eq!(e1, e2, "hang must cancel identically on every run");
        assert!(
            matches!(e1, JobError::Timeout(_)),
            "hang must be classified as a watchdog timeout: {e1:?}"
        );
    }

    #[test]
    fn fault_plan_threads_through_jobs() {
        // Force a fault on every attempt: all 12 apps must fail, none may
        // take the fleet down.
        let spec = FaultSpec::parse("error:1.0").unwrap();
        let policy = FleetPolicy {
            max_retries: 1,
            backoff: std::time::Duration::from_millis(1),
            ..Default::default()
        };
        let outcome = run_fleet_report_with(
            Mode::Lightweight,
            1,
            4,
            &policy,
            Some(FaultPlan::new(spec, 1)),
        );
        assert_eq!(outcome.apps.len(), 12);
        assert_eq!(outcome.succeeded(), 0);
        assert_eq!(outcome.exit_code(), 4);
        for a in &outcome.apps {
            assert!(
                a.status.detail().unwrap_or("").contains("injected fault"),
                "{:?}",
                a.status
            );
            assert_eq!(a.attempts, 2, "1 try + 1 retry for transient faults");
        }
    }
}
