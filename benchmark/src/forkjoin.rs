//! `forkjoin`: gated fork-join runs of the apps the executor parallelizes,
//! timed in real wall time next to the virtual critical path the executor
//! reports.
//!
//! The timed window runs every app on two threads, each run checked
//! against the one-thread output set-up recorded. One-thread runs stay out
//! of the window, so that it holds enough two-thread runs for a p90 even
//! when the host runs at half speed: at 20 seconds, W=1/W=2 pairs left
//! barely 100 W=2 runs on such a host, against about 200 without the W=1
//! runs, and both designs were as steady once normalized. The traced
//! replay times one thread against two.

use crate::analysis::app_source;
use crate::host::{self, Speed, Time};
use crate::stats::{geomean, median, Rng};
use crate::trace::{span, Tracer};
use crate::{metric, peak_rss_mb, Args, Metric, Window, SETUP_REPEATS};
use ceres_core::{equivalence, run_parallel, LoopId, Mode, ParallelRunOutput, ParallelSpec};
use ceres_workloads::registry::{by_slug, Workload};
use std::time::{Duration, Instant};

/// The (app, target loop) pairs `repro parallel-bench --workers 2`
/// parallelizes with byte-identical output at the commit that added this
/// benchmark. Fixed here so a change to the what-if ranking cannot change
/// what this workload runs.
pub const TARGETS: &[(&str, u32)] = &[
    ("haar", 1),
    ("cloth", 5),
    ("camanjs", 8),
    ("fluidsim", 7),
    ("raytracing", 2),
    ("normalmap", 5),
    ("processingjs", 5),
];

/// Rounds of the parallel-layer replay in a traced run.
const PROBE_ROUNDS: usize = 3;

struct App {
    workload: Workload,
    source: String,
    target: u32,
}

fn apps() -> Result<Vec<App>, String> {
    TARGETS
        .iter()
        .map(|&(slug, target)| {
            let workload = by_slug(slug).ok_or_else(|| format!("no registry app `{slug}`"))?;
            Ok(App {
                source: app_source(&workload),
                workload,
                target,
            })
        })
        .collect()
}

/// The same spec `repro parallel-bench` runs, on `workers` threads;
/// `target: None` is the ungated control.
fn spec(app: &App, target: Option<u32>, workers: usize) -> ParallelSpec {
    ParallelSpec {
        source: app.source.clone(),
        target: target.map(LoopId),
        workers,
        seed: 2015,
        max_events: 10_000,
        max_ticks: None,
        wall_budget: Some(Duration::from_secs(120)),
        interaction: Some(app.workload.interaction),
    }
}

/// Run one spec, timing the whole call in wall milliseconds.
fn timed(
    app: &App,
    target: Option<u32>,
    workers: usize,
    op: u64,
    tr: &mut Option<&mut Tracer>,
) -> Result<(ParallelRunOutput, f64), String> {
    let name = match (target, workers) {
        (None, _) => "parallel.ungated",
        (Some(_), 1) => "parallel.gated1",
        _ => "parallel.par2",
    };
    let (out, us) = span(tr, name, op, || run_parallel(&spec(app, target, workers)));
    let out = out.map_err(|e| format!("{} W={workers}: {e}", app.workload.slug))?;
    Ok((out, us / 1e3))
}

/// One app in one round: gated W=1 and W=2, in the given order, checked
/// for byte-identical output. Returns both runs with their wall
/// milliseconds, and the microseconds the equivalence check took.
fn pair(
    app: &App,
    w1_first: bool,
    op: u64,
    tr: &mut Option<&mut Tracer>,
) -> Result<([(ParallelRunOutput, f64); 2], f64), String> {
    let t = Some(app.target);
    let (w1, w2) = if w1_first {
        let w1 = timed(app, t, 1, op, tr)?;
        (w1, timed(app, t, 2, op, tr)?)
    } else {
        let w2 = timed(app, t, 2, op, tr)?;
        (timed(app, t, 1, op, tr)?, w2)
    };
    let (same, eq_us) = span(tr, "parallel.equivalence", op, || {
        same_output(app, &w1.0, &w2.0)
    });
    same?;
    Ok(([w1, w2], eq_us))
}

fn same_output(app: &App, w1: &ParallelRunOutput, w2: &ParallelRunOutput) -> Result<(), String> {
    let eq = equivalence(w1, w2);
    if eq.identical {
        Ok(())
    } else {
        Err(format!(
            "{}: W=1 and W=2 differ: {}",
            app.workload.slug,
            eq.diffs.join("; ")
        ))
    }
}

/// The workload's inputs, for the layer replay of a traced run: the
/// replicas run the program uninstrumented, so the lightest mode.
pub fn inputs() -> Vec<(Workload, Mode)> {
    TARGETS
        .iter()
        .filter_map(|(slug, _)| by_slug(slug))
        .map(|w| (w, Mode::Lightweight))
        .collect()
}

pub fn run(args: &Args, mut tr: Option<&mut Tracer>) -> Result<Window, String> {
    let apps = apps()?;
    let mut win = Window::new(1);
    // Set-up is the gate check: every app's W=1/W=2 pair once. The W=1
    // outputs are the references the timed W=2 runs are checked against.
    // Probes run on two threads, as many as a W=2 run keeps busy.
    let mut reference = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let probe = host::settled(2);
        let t = Instant::now();
        reference = apps
            .iter()
            .map(|app| Ok(pair(app, true, 0, &mut None)?.0[0].0.clone()))
            .collect::<Result<Vec<_>, String>>()?;
        win.setup
            .push(Time::new(t.elapsed().as_secs_f64(), 0.0, probe));
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..apps.len()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    let mut speed = Speed::new(2);
    for round in 0u64.. {
        rng.shuffle(&mut order);
        let mut round_tr = if round % 2 == 1 {
            tr.as_deref_mut()
        } else {
            None
        };
        let round_span = round_tr.as_mut().map(|t| t.begin("forkjoin.round", round));
        let mut round_w2 = Time::default();
        let mut complete = true;
        for &i in &order {
            if Instant::now() >= deadline {
                complete = false;
                break;
            }
            op += 1;
            win.attempted += 1;
            let probe = speed.next();
            let app = &apps[i];
            let checked = timed(app, Some(app.target), 2, op, &mut round_tr)
                .and_then(|(w2, ms)| same_output(app, &reference[i], &w2).map(|()| ms));
            match checked {
                Ok(w2_ms) => {
                    let w2 = Time::new(w2_ms, 0.0, probe);
                    win.ok_ops += 1;
                    win.ops.push(w2);
                    win.busy += w2;
                    round_w2 += w2;
                }
                Err(e) => {
                    win.fail(e);
                    complete = false;
                }
            }
        }
        if let (Some(t), Some(s)) = (round_tr, round_span) {
            t.end(s);
            if complete {
                win.traced_units.push(round_w2);
            }
        } else if complete {
            win.units.push(round_w2);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    win.probes = speed.probes;
    win.peak_rss_mb = peak_rss_mb(std::process::id())?;
    Ok(win)
}

/// The parallel-layer replay every traced run makes: ungated, gated W=1
/// and W=2 runs of each target app, `PROBE_ROUNDS` times, each app's
/// numbers taken as the median over rounds.
pub fn probe(win: &mut Window, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let apps = apps()?;
    let (mut ungated, mut gated1, mut par2) = (0.0, 0.0, 0.0);
    let (mut merged_ops, mut rounds) = (0u64, 0u64);
    let mut virtual_speedups = Vec::new();
    let mut equivalence_us = Vec::new();
    let mut per_app = Vec::new();
    for (k, app) in apps.iter().enumerate() {
        let op = k as u64;
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        let mut last = None;
        for round in 0..PROBE_ROUNDS {
            let mut some = Some(&mut *tr);
            win.attempted += 1;
            let (plain, plain_ms) = timed(app, None, 1, op, &mut some)?;
            let w1_first = round % 2 == 0;
            let ([(w1, w1_ms), (w2, w2_ms)], eq_us) = match pair(app, w1_first, op, &mut some) {
                Ok(p) => p,
                Err(e) => {
                    win.fail(e);
                    continue;
                }
            };
            equivalence_us.push(eq_us);
            if plain.console != w1.console || plain.state_render != w1.state_render {
                win.fail(format!(
                    "{}: gating changed the program's output",
                    app.workload.slug
                ));
            }
            samples[0].push(plain_ms);
            samples[1].push(w1_ms);
            samples[2].push(w2_ms);
            last = Some(w2);
        }
        let Some(w2) = last else { continue };
        let [u, g, p] = samples.map(|s| median(&s).unwrap_or(0.0));
        ungated += u;
        gated1 += g;
        par2 += p;
        merged_ops += w2.merged_ops;
        rounds += w2.rounds;
        virtual_speedups.push(w2.measured_speedup());
        let slug = app.workload.slug;
        per_app.push(metric(
            &format!("parallel.wall_speedup.{slug}"),
            "x",
            (p > 0.0).then(|| g / p),
        ));
        per_app.push(metric(
            &format!("parallel.virtual_speedup.{slug}"),
            "x",
            Some(w2.measured_speedup()),
        ));
        win.notes.push(format!(
            "forkjoin {slug:<13} target {:>2}  wall W1/W2 {:.3}x  virtual {:.3}x  gate overhead {:.3}x",
            app.target,
            if p > 0.0 { g / p } else { 0.0 },
            w2.measured_speedup(),
            if u > 0.0 { g / u } else { 0.0 },
        ));
    }
    let ratio = |a: f64, b: f64| (b > 0.0).then(|| a / b);
    let mut metrics = vec![
        metric("parallel.ungated_ms", "ms", Some(ungated)),
        metric("parallel.gated1_ms", "ms", Some(gated1)),
        metric("parallel.par2_ms", "ms", Some(par2)),
        metric("parallel.gate_overhead", "ratio", ratio(gated1, ungated)),
        metric("parallel.virtual_speedup", "x", geomean(&virtual_speedups)),
        metric("parallel.wall_speedup", "x", ratio(gated1, par2)),
        metric("parallel.merged_ops", "count", Some(merged_ops as f64)),
        metric("parallel.rounds", "count", Some(rounds as f64)),
        metric(
            "parallel.equivalence_us",
            "us",
            crate::stats::mean(&equivalence_us),
        ),
    ];
    metrics.extend(per_app);
    Ok(metrics)
}
