//! Predicted-vs-measured parallel speedup over the Table 1 registry —
//! the "Table 3 closed-loop" driver behind `repro whatif` and
//! `repro parallel-bench`.
//!
//! Per app the driver (1) runs the dependence analysis, (2) asks the
//! what-if profiler ([`mod@ceres_core::whatif`]) for the ranked counterfactual
//! table, (3) rewrites the top-ranked `ok` nest into fork-join form and
//! executes it on 1 and on W workers ([`ceres_core::parallel`]),
//! (4) verifies byte-identity between the two runs, and (5) compares the
//! measured critical-path speedup against the profiler's prediction and
//! the paper's Table-3/Amdahl expectations. A nest the transform or the
//! runtime refuses is a recorded outcome, not an error — when a ranked
//! `ok` nest fails, the driver falls back to the next one, mirroring how
//! a developer would walk the profiler's ranking.
//!
//! The model predicts perfect balance (`P/W`); the measurement charges
//! the real critical path (`max_k E_k` per instance) plus gating cost, so
//! the two agree only within a tolerance: [`PREDICTION_ERROR_BOUND`], the
//! error bound documented and justified in `docs/PARALLELIZE.md`.

use crate::registry::{all, run_workload_budgeted, Workload};
use ceres_core::parallel::{equivalence, run_parallel, ParallelSpec};
use ceres_core::whatif::{whatif, WhatIfReport, WHATIF_SCHEMA_VERSION};
use ceres_core::{LoopId, Mode};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Documented relative error bound on predicted vs measured speedup:
/// `|predicted - measured| / measured <= 0.35`. See `docs/PARALLELIZE.md`
/// for the derivation (imbalance + gate overhead + instrumented-vs-plain
/// tick-base drift).
pub const PREDICTION_ERROR_BOUND: f64 = 0.35;

/// Wall-clock backstop per executor run.
const RUN_WALL_BUDGET: Duration = Duration::from_secs(120);

/// Event budget, matching `AnalyzeOptions::default`.
const MAX_EVENTS: usize = 10_000;

/// One app's what-if table (for `repro whatif`).
pub struct AppWhatIf {
    /// Display name (Table 1).
    pub app: String,
    /// CLI slug.
    pub slug: String,
    /// Ranked predictions, or the analysis failure.
    pub report: Result<WhatIfReport, String>,
}

/// Run the dependence analysis + what-if profiler over the whole registry.
pub fn whatif_fleet(scale: u32, workers: &[usize]) -> Vec<AppWhatIf> {
    all()
        .into_iter()
        .map(|w| {
            let report =
                run_workload_budgeted(&w, Mode::Dependence, scale, None, Some(RUN_WALL_BUDGET))
                    .map(|run| whatif(&run, workers))
                    .map_err(|e| format!("{e:?}"));
            AppWhatIf {
                app: w.name.to_string(),
                slug: w.slug.to_string(),
                report,
            }
        })
        .collect()
}

/// Per-app outcome of the closed loop (for `repro parallel-bench`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelBenchRow {
    /// Display name (Table 1).
    pub app: String,
    /// CLI slug.
    pub slug: String,
    /// Loop the fork-join executor ran, if any.
    pub target: Option<u32>,
    /// `parallelized`, or `refused: <reason>` / `failed: <reason>`.
    pub outcome: String,
    /// Nests the driver tried before this outcome (fallback trail).
    pub attempts: u32,
    /// Why each earlier-ranked nest was passed over — the static
    /// refusals, runtime divergences, and equivalence failures the gates
    /// caught on the way down the ranking.
    pub trail: Vec<String>,
    /// Parallel fraction `P/T` of the executed nest.
    pub parallel_fraction: Option<f64>,
    /// Profiler-predicted whole-run speedup at the bench worker count.
    pub predicted: Option<f64>,
    /// Measured critical-path speedup (`final / (final - saved)`).
    pub measured: Option<f64>,
    /// `|predicted - measured| / measured`, when both exist.
    pub relative_error: Option<f64>,
    /// Within [`PREDICTION_ERROR_BOUND`]?
    pub within_bound: Option<bool>,
    /// 1-worker vs W-worker gated runs byte-identical?
    pub equivalent: Option<bool>,
    /// Gating cost: gated-1-worker ticks / ungated ticks.
    pub gate_overhead: Option<f64>,
    /// `W → ∞` Amdahl bound of the executed (or top) nest.
    pub amdahl_bound: Option<f64>,
    /// Does the paper's Sec. 4.2 count this app above 3x?
    pub paper_over_3x: bool,
    /// Saved virtual ticks (the critical-path win).
    pub saved_ticks: u64,
    /// Fork-join instances of the executed nest in the W-worker run.
    pub instances: u64,
    /// Gated iterations worker 0 owned in the W-worker run: about a `1/W`
    /// share of the nest's iterations, not their total.
    pub iterations: u64,
}

/// Registry-wide closed-loop report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelBenchReport {
    /// [`WHATIF_SCHEMA_VERSION`] — the rows embed what-if quantities.
    pub schema: u32,
    /// Worker count of the parallel arm.
    pub workers: usize,
    /// Workload scale factor.
    pub scale: u32,
    /// [`PREDICTION_ERROR_BOUND`].
    pub error_bound: f64,
    /// Per-app outcomes, registry order.
    pub rows: Vec<ParallelBenchRow>,
}

impl ParallelBenchReport {
    /// Apps that ran in parallel with byte-identical output.
    pub fn parallelized(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.equivalent == Some(true))
            .count()
    }

    /// Of the paper's >3x apps, how many have predictions within the
    /// documented error bound of the measurement?
    pub fn over3x_within_bound(&self) -> (usize, usize) {
        let over: Vec<_> = self.rows.iter().filter(|r| r.paper_over_3x).collect();
        let within = over.iter().filter(|r| r.within_bound == Some(true)).count();
        (within, over.len())
    }
}

/// Close the loop for one workload. Walks the ranked `ok` nests until one
/// parallelizes and verifies, recording refusals along the way.
pub fn bench_workload(w: &Workload, scale: u32, workers: usize) -> ParallelBenchRow {
    let mut row = ParallelBenchRow {
        app: w.name.to_string(),
        slug: w.slug.to_string(),
        target: None,
        outcome: String::new(),
        attempts: 0,
        trail: Vec::new(),
        parallel_fraction: None,
        predicted: None,
        measured: None,
        relative_error: None,
        within_bound: None,
        equivalent: None,
        gate_overhead: None,
        amdahl_bound: None,
        paper_over_3x: w.expected.amdahl_over_3x,
        saved_ticks: 0,
        instances: 0,
        iterations: 0,
    };

    // 1) Dependence analysis + what-if ranking.
    let run = match run_workload_budgeted(w, Mode::Dependence, scale, None, Some(RUN_WALL_BUDGET)) {
        Ok(run) => run,
        Err(e) => {
            row.outcome = format!("failed: analysis: {e:?}");
            return row;
        }
    };
    let report = whatif(&run, &[workers]);
    if let Some(top) = report.top_ok_prediction() {
        row.amdahl_bound = Some(top.amdahl_bound);
    }
    let candidates: Vec<_> = report
        .nests
        .iter()
        .filter(|n| n.ok && n.nest_ticks > 0)
        .collect();
    if candidates.is_empty() {
        row.outcome = "refused: no ok nest with measured time".to_string();
        return row;
    }

    // 2) Ungated control (shared by every candidate attempt).
    let base_spec = ParallelSpec {
        source: run.source.clone(),
        target: None,
        workers: 1,
        seed: 2015,
        max_events: MAX_EVENTS,
        max_ticks: None,
        wall_budget: Some(RUN_WALL_BUDGET),
        interaction: Some(w.interaction),
    };
    let plain = match run_parallel(&base_spec) {
        Ok(p) => p,
        Err(e) => {
            row.outcome = format!("failed: ungated control: {e}");
            return row;
        }
    };

    // 3) Walk the ranking: gate, run on 1 and on W workers, verify. Every
    // kind of rejection — static refusal, runtime divergence, equivalence
    // mismatch — drops to the next-ranked nest; whatever the gates catch
    // is a trail entry, never a corrupted result.
    for nest in candidates {
        row.attempts += 1;
        let target = Some(LoopId(nest.root));
        let seq = match run_parallel(&ParallelSpec {
            target,
            workers: 1,
            ..base_spec.clone()
        }) {
            Ok(s) => s,
            Err(e) => {
                row.trail.push(format!("nest {}: {e}", nest.root));
                continue;
            }
        };
        // The gate must not change semantics (clock aside).
        if seq.console != plain.console
            || seq.state_render != plain.state_render
            || seq.canvas != plain.canvas
            || seq.dom_mutations != plain.dom_mutations
        {
            row.trail.push(format!(
                "nest {}: gating changed program semantics",
                nest.root
            ));
            continue;
        }
        let par = match run_parallel(&ParallelSpec {
            target,
            workers,
            ..base_spec.clone()
        }) {
            Ok(p) => p,
            Err(e) => {
                row.trail.push(format!("nest {}: {e}", nest.root));
                continue;
            }
        };
        let eq = equivalence(&seq, &par);
        if !eq.identical {
            row.trail.push(format!(
                "nest {}: equivalence gate: {}",
                nest.root,
                eq.diffs.join("; ")
            ));
            continue;
        }

        row.target = Some(nest.root);
        row.outcome = "parallelized".to_string();
        row.parallel_fraction = Some(nest.parallel_fraction);
        row.predicted = Some(nest.speedup(workers));
        row.amdahl_bound = Some(nest.amdahl_bound);
        let measured = par.measured_speedup();
        row.measured = Some(measured);
        let rel = if measured > 0.0 {
            (nest.speedup(workers) - measured).abs() / measured
        } else {
            f64::INFINITY
        };
        row.relative_error = Some(rel);
        row.within_bound = Some(rel <= PREDICTION_ERROR_BOUND);
        row.equivalent = Some(true);
        row.gate_overhead = Some(if plain.final_ticks > 0 {
            seq.final_ticks as f64 / plain.final_ticks as f64
        } else {
            1.0
        });
        row.saved_ticks = par.par_saved_ticks;
        row.instances = par.instances;
        row.iterations = par.par_iterations;
        return row;
    }
    row.outcome = format!("refused: {}", row.trail.last().cloned().unwrap_or_default());
    row
}

/// Close the loop over the whole registry.
pub fn parallel_bench(scale: u32, workers: usize) -> ParallelBenchReport {
    ParallelBenchReport {
        schema: WHATIF_SCHEMA_VERSION,
        workers,
        scale,
        error_bound: PREDICTION_ERROR_BOUND,
        rows: all()
            .iter()
            .map(|w| bench_workload(w, scale, workers))
            .collect(),
    }
}

/// Render the paper-style predicted-vs-measured table.
pub fn render_parallel_bench(report: &ParallelBenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>4} {:>6} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6}  outcome",
        "app", "nest", "P/T", "predicted", "measured", "err", "ok?", "amdahl", ">3x?"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<22} {:>4} {:>6} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6}  {}",
            r.app,
            r.target.map_or("-".into(), |t| t.to_string()),
            r.parallel_fraction
                .map_or("-".into(), |p| format!("{:.0}%", 100.0 * p)),
            r.predicted.map_or("-".into(), |p| format!("{p:.2}x")),
            r.measured.map_or("-".into(), |m| format!("{m:.2}x")),
            r.relative_error
                .map_or("-".into(), |e| format!("{:.0}%", 100.0 * e)),
            match r.within_bound {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
            r.amdahl_bound.map_or("-".into(), |b| if b.is_infinite() {
                "inf".to_string()
            } else {
                format!("{b:.2}x")
            }),
            if r.paper_over_3x { "yes" } else { "no" },
            r.outcome,
        );
    }
    let trails: Vec<_> = report.rows.iter().filter(|r| !r.trail.is_empty()).collect();
    if !trails.is_empty() {
        let _ = writeln!(out, "\ngate refusals along the ranking:");
        for r in trails {
            for t in &r.trail {
                let _ = writeln!(out, "  {:<14} {t}", r.slug);
            }
        }
    }
    let (within, over) = report.over3x_within_bound();
    let _ = writeln!(
        out,
        "\n{} of 12 apps parallelized with byte-identical output on {} workers;\n\
         {within} of the paper's {over} >3x apps predicted within the {:.0}% error bound.",
        report.parallelized(),
        report.workers,
        100.0 * report.error_bound,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::by_slug;

    #[test]
    fn closed_loop_parallelizes_normal_mapping() {
        let w = by_slug("normalmap").expect("registry slug");
        let row = bench_workload(&w, 1, 2);
        assert_eq!(row.outcome, "parallelized", "trail: {:?}", row.trail);
        assert_eq!(row.equivalent, Some(true));
        let measured = row.measured.unwrap();
        let predicted = row.predicted.unwrap();
        assert!(measured > 1.0, "no critical-path win: {measured}");
        assert!(
            predicted >= measured - 1e-9,
            "model predicts perfect balance"
        );
        // JSON round-trip for the `--json` surface.
        let json = serde_json::to_string(&row).unwrap();
        let back: ParallelBenchRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back.target, row.target);
    }

    #[test]
    fn whatif_fleet_ranks_a_hot_nest_for_raytracing() {
        let w = by_slug("raytracing").expect("registry slug");
        let run = crate::registry::run_workload_budgeted(
            &w,
            Mode::Dependence,
            1,
            None,
            Some(RUN_WALL_BUDGET),
        )
        .unwrap();
        let report = whatif(&run, &[2, 4]);
        let top = report.top_ok_prediction().expect("an ok nest");
        assert!(top.parallel_fraction > 0.3, "{top:?}");
        assert!(top.speedup(4) > 1.2, "{top:?}");
    }
}
