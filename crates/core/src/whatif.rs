//! TASKPROF-style what-if parallelism profiler (ROADMAP item 4).
//!
//! The dependence engine characterizes each loop nest as `ok` or not
//! (Table 3); this module turns those characterizations into *quantified,
//! ranked counterfactuals* on the deterministic virtual clock: **if nest R
//! ran on W workers, how many of the run's ticks would disappear?**
//!
//! # Model
//!
//! Let `T` be the run's total interpreter ticks and `P` the ticks spent
//! inside a nest (the nest root's [`crate::engine::LoopRecord`] running
//! time, which by the paper's accounting already includes nested loops).
//! Perfectly balancing the nest's iterations over `W` workers shrinks its
//! contribution from `P` to `P/W`, so the predicted whole-run speedup is
//!
//! ```text
//! speedup(W) = T / (T - P + P/W)
//! ```
//!
//! — Amdahl's law with parallel fraction `p = P/T`; `W → ∞` gives the
//! paper's Sec. 4.2 upper bound `1/(1-p)`. Iterations are indivisible, so
//! the per-worker prediction is additionally trip-capped: with `n`
//! iterations someone owns `ceil(n/W)` of them, and the parallel part
//! shrinks to `P·ceil(n/W)/n` ([`predicted_speedup_capped`]). The
//! prediction still assumes equal-cost iterations; the fork-join executor
//! ([`crate::parallel`]) measures the *actual* critical path
//! (`max_k E_k` per instance), so predicted vs measured comparisons
//! quantify cost imbalance + merge overhead. The error bound the
//! reproduction commits to is documented in `docs/PARALLELIZE.md`.
//!
//! A nest is **eligible** (`ok`) when the dependence engine found its
//! parallelization difficulty at most `medium` and did not discard it for
//! recursion — the same criterion the paper's Sec. 4 discussion applies
//! to its "ok" loop population.

use crate::classify::Difficulty;
use crate::pipeline::AppRun;
use serde::{Deserialize, Serialize};

/// Version stamp on every serialized [`WhatIfReport`]. Bump on any field
/// change; docs/METRICS.md documents the schema.
pub const WHATIF_SCHEMA_VERSION: u32 = 1;

/// Worker counts predictions are computed for by default.
pub const DEFAULT_WORKERS: &[usize] = &[2, 4, 8];

/// Counterfactual prediction for one loop nest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NestPrediction {
    /// Nest root loop id (matches the analysis reports and `--focus`).
    pub root: u32,
    /// Eligible for fork-join execution (difficulty ≤ medium, not
    /// recursion-tainted)?
    pub ok: bool,
    /// Parallelization difficulty, as in Table 3.
    pub difficulty: String,
    /// Ticks spent inside the nest (`P`).
    pub nest_ticks: u64,
    /// `P/T` — the nest's parallel fraction of the whole run.
    pub parallel_fraction: f64,
    /// Nest instances observed.
    pub instances: u64,
    /// Mean trip count of the nest root.
    pub trips_mean: f64,
    /// `(W, T / (T - P + P/W))` for each analyzed worker count.
    pub speedups: Vec<(usize, f64)>,
    /// `W → ∞` Amdahl bound `1/(1-p)` (Sec. 4.2).
    pub amdahl_bound: f64,
}

impl NestPrediction {
    /// Predicted whole-run speedup on `workers` workers.
    pub fn speedup(&self, workers: usize) -> f64 {
        self.speedups
            .iter()
            .find(|(w, _)| *w == workers)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| {
                predicted_speedup_capped(self.parallel_fraction, workers, self.trips_mean)
            })
    }
}

/// Ranked per-app what-if prediction table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// [`WHATIF_SCHEMA_VERSION`].
    pub schema: u32,
    /// Total interpreter ticks of the profiled run (`T`).
    pub total_ticks: u64,
    /// Worker counts the predictions cover.
    pub workers: Vec<usize>,
    /// All observed nests, ranked by tick reduction (descending
    /// `nest_ticks` among `ok` nests first, then the rest).
    pub nests: Vec<NestPrediction>,
    /// Root of the top-ranked `ok` nest — the loop the fork-join
    /// executor targets — if any nest qualified.
    pub top_ok: Option<u32>,
}

impl WhatIfReport {
    /// The top-ranked eligible prediction, if any.
    pub fn top_ok_prediction(&self) -> Option<&NestPrediction> {
        let root = self.top_ok?;
        self.nests.iter().find(|n| n.root == root)
    }
}

/// `T / (T - P + P/W)` expressed in fractions: `1 / (1 - p + p/W)` — the
/// infinite-trip ideal.
pub fn predicted_speedup(parallel_fraction: f64, workers: usize) -> f64 {
    let p = parallel_fraction.clamp(0.0, 1.0);
    let w = workers.max(1) as f64;
    1.0 / ((1.0 - p) + p / w)
}

/// Finite-trip prediction. A nest whose root runs `n` iterations cannot
/// split finer than whole iterations: on `W` workers someone owns
/// `ceil(n/W)` of them, so the parallel part shrinks to
/// `P * ceil(n/W)/n`, not `P/W`. (At `n = 2, W = 4` this is the
/// difference between predicting 4x and the honest 2x.) Falls back to the
/// ideal when the trip count is unknown.
pub fn predicted_speedup_capped(parallel_fraction: f64, workers: usize, trips: f64) -> f64 {
    let p = parallel_fraction.clamp(0.0, 1.0);
    let w = workers.max(1) as f64;
    if !trips.is_finite() || trips < 1.0 {
        return predicted_speedup(parallel_fraction, workers);
    }
    let n = trips.round().max(1.0);
    let chunk = (n / w).ceil() / n;
    1.0 / ((1.0 - p) + p * chunk)
}

/// Build the ranked what-if table for one analyzed run.
///
/// `run` must come from a `Mode::Dependence` analysis (the difficulty
/// columns are derived from dependence warnings; in lighter modes every
/// nest looks trivially `ok`).
pub fn whatif(run: &AppRun, workers: &[usize]) -> WhatIfReport {
    let total_ticks = run.obs.counters.interp_ticks;
    let t = total_ticks as f64;
    let engine = run.engine.borrow();
    let mut nests: Vec<NestPrediction> = run
        .nests()
        .iter()
        .map(|nest| {
            let nest_ticks = engine
                .records
                .get(&nest.root)
                .map(|r| r.time_ticks.total() as u64)
                .unwrap_or(0);
            let p = if t > 0.0 { nest_ticks as f64 / t } else { 0.0 };
            let ok =
                nest.parallelization_difficulty <= Difficulty::Medium && !nest.recursion_tainted;
            NestPrediction {
                root: nest.root.0,
                ok,
                difficulty: nest.parallelization_difficulty.as_str().to_string(),
                nest_ticks,
                parallel_fraction: p,
                instances: nest.instances,
                trips_mean: nest.trips.mean(),
                speedups: workers
                    .iter()
                    .map(|&w| (w, predicted_speedup_capped(p, w, nest.trips.mean())))
                    .collect(),
                amdahl_bound: crate::classify::amdahl_bound(p),
            }
        })
        .collect();
    // Rank by counterfactual value: eligible nests first, biggest tick
    // reduction (== biggest P at fixed W) first within each group.
    nests.sort_by(|a, b| {
        b.ok.cmp(&a.ok)
            .then(b.nest_ticks.cmp(&a.nest_ticks))
            .then(a.root.cmp(&b.root))
    });
    let top_ok = nests
        .iter()
        .find(|n| n.ok && n.nest_ticks > 0)
        .map(|n| n.root);
    WhatIfReport {
        schema: WHATIF_SCHEMA_VERSION,
        total_ticks,
        workers: workers.to_vec(),
        nests,
        top_ok,
    }
}

/// Paper-style text table for one app's what-if report.
pub fn render_whatif(app: &str, report: &WhatIfReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{app}: {} ticks total, {} nest(s)",
        report.total_ticks,
        report.nests.len()
    );
    let _ = writeln!(
        out,
        "  {:>4} {:>3} {:>10} {:>7} {:>9} {}  {:>7}  difficulty",
        "nest",
        "ok",
        "ticks",
        "% run",
        "amdahl",
        report
            .workers
            .iter()
            .map(|w| format!("{:>8}", format!("x@{w}w")))
            .collect::<String>(),
        "top"
    );
    for n in &report.nests {
        let _ = writeln!(
            out,
            "  {:>4} {:>3} {:>10} {:>6.1}% {:>9} {}  {:>7}  {}",
            n.root,
            if n.ok { "yes" } else { "no" },
            n.nest_ticks,
            100.0 * n.parallel_fraction,
            if n.amdahl_bound.is_infinite() {
                "inf".to_string()
            } else {
                format!("{:.2}x", n.amdahl_bound)
            },
            n.speedups
                .iter()
                .map(|(_, s)| format!("{:>8}", format!("{s:.2}x")))
                .collect::<String>(),
            if Some(n.root) == report.top_ok {
                "<-par"
            } else {
                ""
            },
            n.difficulty,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_model_math() {
        // p = 0: nothing to win.
        assert!((predicted_speedup(0.0, 8) - 1.0).abs() < 1e-12);
        // p = 1, W = 4: ideal 4x.
        assert!((predicted_speedup(1.0, 4) - 4.0).abs() < 1e-12);
        // Amdahl: p = 0.9, W = 2 → 1/(0.1 + 0.45); W = 4 → 1/(0.1 + 0.225).
        assert!((predicted_speedup(0.9, 2) - 1.0 / 0.55).abs() < 1e-12);
        assert!((predicted_speedup(0.9, 4) - 1.0 / (0.1 + 0.225)).abs() < 1e-12);
        // Monotone in W, bounded by 1/(1-p).
        assert!(predicted_speedup(0.8, 4) < predicted_speedup(0.8, 8));
        assert!(predicted_speedup(0.8, 1024) < 1.0 / 0.2 + 1e-9);
        // Trip cap: 2 iterations cannot use more than 2 workers.
        let two_trips = predicted_speedup_capped(1.0, 4, 2.0);
        assert!((two_trips - 2.0).abs() < 1e-12, "{two_trips}");
        // n divisible by W matches the ideal; unknown trips fall back.
        assert!(
            (predicted_speedup_capped(0.8, 4, 100.0) - predicted_speedup(0.8, 4)).abs() < 1e-12
        );
        assert!(
            (predicted_speedup_capped(0.8, 4, f64::NAN) - predicted_speedup(0.8, 4)).abs() < 1e-12
        );
        // Quantization only ever lowers the prediction.
        assert!(predicted_speedup_capped(0.9, 4, 6.0) < predicted_speedup(0.9, 4));
    }

    #[test]
    fn whatif_ranks_the_hot_ok_nest_first() {
        let opts = crate::AnalyzeOptions {
            mode: crate::Mode::Dependence,
            seed: 2015,
            ..crate::AnalyzeOptions::default()
        };
        let src = "var out = [];\n\
                   function work(i) { var a = 0; for (var j = 0; j < 60; j++) { a = a + i * j; } return a; }\n\
                   for (var i = 0; i < 40; i++) { out[i] = work(i); }\n\
                   var small = 0;\n\
                   for (var k = 0; k < 3; k++) { small = small + k; }";
        let mut server = crate::WebServer::new();
        server.publish(
            "app",
            crate::Document::Html(format!("<html><body><script>{src}</script></body></html>")),
        );
        let run = crate::analyze(&server, "app", opts, Box::new(|_, _| Ok(()))).unwrap();
        let report = whatif(&run, DEFAULT_WORKERS);
        assert_eq!(report.schema, WHATIF_SCHEMA_VERSION);
        assert!(report.total_ticks > 0);
        let top = report.top_ok_prediction().expect("an ok nest");
        // The hot map loop dominates; its fraction and predictions follow.
        assert!(top.parallel_fraction > 0.5, "{top:?}");
        assert!(top.speedup(4) > 1.5, "{top:?}");
        assert!(top.amdahl_bound > top.speedup(8));
        // JSON round-trip.
        let json = serde_json::to_string(&report).unwrap();
        let back: WhatIfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.top_ok, report.top_ok);
        // Render shows the marker on the chosen nest.
        let text = render_whatif("demo", &report);
        assert!(text.contains("<-par"), "{text}");
    }
}
