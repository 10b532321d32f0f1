//! `analyze-dep`: the paper's tool (Sec. 3.3) — dependence analysis of the
//! twelve registry apps, in process, one thread — and the analysis-layer
//! replay that every traced run makes over its own workload's inputs.

use crate::host::{self, Speed, Time};
use crate::stats::Rng;
use crate::trace::{span, Tracer};
use crate::{peak_rss_mb, Args, Window, SETUP_REPEATS};
use ceres_core::{attach_engine, AppReport, Mode};
use ceres_interp::Interp;
use ceres_workloads::registry::{self, run_workload, workload_html, Workload};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The seed and event budget `run_workload` analyses with.
const SEED: u64 = 2015;
const MAX_EVENTS: usize = 10_000;

/// Per-app counters of the dependence analysis, pinned by the
/// repository's golden: every dependence analysis must reproduce them.
const GOLDEN: &str = include_str!("../../tests/golden/fleet_metrics.json");

/// The deterministic counters an analysis is checked by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    pub ticks: u64,
    pub hook_calls: u64,
    pub warnings: u64,
}

fn parse_golden() -> Result<HashMap<String, Counts>, String> {
    let bad = |what: &str| format!("tests/golden/fleet_metrics.json: {what}");
    let doc = serde_json::parse(GOLDEN).map_err(|e| bad(&e.to_string()))?;
    let apps = doc
        .get("apps")
        .and_then(|a| a.as_array())
        .ok_or_else(|| bad("no `apps` list"))?;
    apps.iter()
        .map(|app| {
            let counter = |name: &str| {
                app.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|v| v.as_u64())
            };
            match (
                app.get("slug").and_then(|s| s.as_str()),
                counter("interp_ticks"),
                counter("hook_calls"),
                counter("warnings"),
            ) {
                (Some(slug), Some(ticks), Some(hook_calls), Some(warnings)) => Ok((
                    slug.to_string(),
                    Counts {
                        ticks,
                        hook_calls,
                        warnings,
                    },
                )),
                _ => Err(bad("an app lacks its slug or counters")),
            }
        })
        .collect()
}

/// Check a dependence analysis of `slug` against the golden counters.
fn check_golden(slug: &str, counts: Counts) -> Result<(), String> {
    static COUNTS: OnceLock<Result<HashMap<String, Counts>, String>> = OnceLock::new();
    let golden = COUNTS.get_or_init(parse_golden).as_ref()?;
    match golden.get(slug) {
        Some(want) if *want == counts => Ok(()),
        Some(want) => Err(format!(
            "{slug}: counters {counts:?} differ from the golden {want:?}"
        )),
        None => Err(format!("{slug}: not in the golden")),
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The JavaScript a registry app runs: the inline scripts of its page,
/// joined the way the pipeline joins them.
pub fn app_source(w: &Workload) -> String {
    ceres_dom::extract_scripts(&workload_html(w, 1))
        .iter()
        .map(|b| b.content.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

/// What one analysis produced and how long its two calls took.
struct Op {
    counts: Counts,
    report: AppReport,
    analyze_us: f64,
    render_us: f64,
}

/// One analysis as a `jsceres` caller waits for it: the pipeline run,
/// then the canonical report rendered to JSON.
fn analyze_op(
    w: &Workload,
    mode: Mode,
    op: u64,
    tr: &mut Option<&mut Tracer>,
) -> Result<Op, String> {
    let (run, analyze_us) = span(tr, "pipeline.analyze", op, || run_workload(w, mode, 1));
    let run = run.map_err(|c| format!("{} ({mode:?}): analysis failed: {c:?}", w.slug))?;
    let (report, render_us) = span(tr, "report.render", op, || {
        let report = AppReport::from_run(w.name, w.slug, mode, &run);
        std::hint::black_box(
            serde_json::to_string(&report.canonical()).expect("AppReport serializes"),
        );
        report
    });
    let c = &run.obs.counters;
    Ok(Op {
        counts: Counts {
            ticks: c.interp_ticks,
            hook_calls: c.hook_calls,
            warnings: c.warnings,
        },
        report,
        analyze_us,
        render_us,
    })
}

/// The workload's inputs, for the layer replay of a traced run.
pub fn inputs() -> Vec<(Workload, Mode)> {
    registry::all()
        .into_iter()
        .map(|w| (w, Mode::Dependence))
        .collect()
}

pub fn run(args: &Args, mut tr: Option<&mut Tracer>) -> Result<Window, String> {
    let apps = registry::all();
    let checked = |w: &Workload, got: Result<Op, String>| check_golden(w.slug, got?.counts);
    let mut win = Window::new(1);
    // Set-up is one warm pass over every app, checked like a timed one.
    for _ in 0..SETUP_REPEATS {
        let probe = host::settled(1);
        let t = Instant::now();
        for w in &apps {
            checked(w, analyze_op(w, Mode::Dependence, 0, &mut None))?;
        }
        win.setup
            .push(Time::new(t.elapsed().as_secs_f64(), 0.0, probe));
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..apps.len()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    let mut speed = Speed::new(1);
    for pass in 0u64.. {
        rng.shuffle(&mut order);
        // Traced runs alternate untraced and traced passes, so the two
        // medians give the tracing overhead under the same conditions.
        let mut pass_tr = if pass % 2 == 1 {
            tr.as_deref_mut()
        } else {
            None
        };
        let pass_span = pass_tr.as_mut().map(|t| t.begin("analyze.pass", pass));
        let mut pass_time = Time::default();
        let mut complete = true;
        for &i in &order {
            if Instant::now() >= deadline {
                complete = false;
                break;
            }
            op += 1;
            let probe = speed.next();
            let t = Instant::now();
            let result = analyze_op(&apps[i], Mode::Dependence, op, &mut pass_tr);
            let time = Time::new(ms_since(t), 0.0, probe);
            win.ops.push(time);
            win.busy += time;
            pass_time += time;
            win.attempted += 1;
            match checked(&apps[i], result) {
                Ok(()) => win.ok_ops += 1,
                Err(e) => win.fail(e),
            }
        }
        if let (Some(t), Some(s)) = (pass_tr, pass_span) {
            t.end(s);
            if complete {
                win.traced_units.push(pass_time);
            }
        } else if complete {
            win.units.push(pass_time);
        }
        if !complete {
            break;
        }
    }
    win.probes = speed.probes;
    win.peak_rss_mb = peak_rss_mb(std::process::id())?;
    Ok(win)
}

/// What replaying one input layer by layer measured, in microseconds.
pub struct Replay {
    pub parse_us: f64,
    pub rewrite_us: f64,
    pub codegen_us: f64,
    /// The uninstrumented program on a bare interpreter.
    pub interp_us: f64,
    /// The instrumented program with the engine attached.
    pub engine_us: f64,
    /// The real operation: `run_workload` ...
    pub analyze_us: f64,
    /// ... then `AppReport::from_run` and the canonical JSON.
    pub render_us: f64,
    /// `AppRun::nests()`, which `from_run` calls and times itself.
    pub nests_us: f64,
    pub compile_us: f64,
    pub plain_ticks: u64,
    pub counts: Counts,
    pub source_bytes: usize,
    pub instrumented_bytes: usize,
    pub report: AppReport,
}

/// Replay one `(app, mode)` input as the sequence of public calls its
/// analysis is made of, each timed on its own, then run the real
/// operation. The standalone engine run must reproduce the operation's
/// counters (and a dependence analysis the golden), so the replay
/// measures the same program the operation runs.
pub fn replay(w: &Workload, mode: Mode, op: u64, tr: &mut Tracer) -> Result<Replay, String> {
    let fail = |what: &str, e: String| format!("{} ({mode:?}): {what}: {e}", w.slug);
    let root = tr.begin("replay", op);
    let source = app_source(w);
    let (parsed, parse_us) = tr.time("parser.parse", op, || {
        ceres_parser::parse_program(&source).map(|mut p| {
            let loops = ceres_ast::assign_loop_ids(&mut p);
            (p, loops)
        })
    });
    let (program, loops) = parsed.map_err(|e| fail("parse", e.to_string()))?;
    let (instrumented, rewrite_us) = tr.time("instrument.rewrite", op, || {
        ceres_instrument::instrument_program(&program, mode)
    });
    let (instrumented, codegen_us) = tr.time("instrument.codegen", op, || {
        ceres_ast::program_to_source(&instrumented)
    });
    let (plain, interp_us) = tr.time("interp.run", op, || {
        let mut interp = Interp::new(SEED);
        let dom = ceres_dom::install_dom(&mut interp);
        interp
            .eval_source(&source)
            .and_then(|()| (w.interaction)(&mut interp, &dom))
            .and_then(|()| interp.run_events(MAX_EVENTS))
            .map(|_| (interp.compile_us, interp.clock.now_ticks()))
    });
    let (compile_us, plain_ticks) = plain.map_err(|c| fail("interp", format!("{c:?}")))?;
    let (engine, engine_us) = tr.time("engine.run", op, || {
        let mut interp = Interp::new(SEED);
        let dom = ceres_dom::install_dom(&mut interp);
        let engine = attach_engine(&mut interp, mode, loops);
        engine
            .borrow_mut()
            .begin_task("main", interp.clock.now_ticks());
        let main = interp.eval_source(&instrumented);
        engine.borrow_mut().end_task(interp.clock.now_ticks());
        main.and_then(|()| (w.interaction)(&mut interp, &dom))
            .and_then(|()| interp.run_events(MAX_EVENTS))
            .map(|_| {
                let e = engine.borrow();
                Counts {
                    ticks: interp.clock.now_ticks(),
                    hook_calls: e.tally.total(),
                    warnings: e.warnings.len() as u64,
                }
            })
    });
    let engine = engine.map_err(|c| fail("engine", format!("{c:?}")))?;

    let op_span = tr.begin("op", op);
    let done = analyze_op(w, mode, op, &mut Some(&mut *tr));
    tr.end(op_span);
    tr.end(root);
    let done = done?;
    if engine != done.counts {
        return Err(fail(
            "replay",
            format!(
                "the standalone engine run counted {engine:?}, the analysis {:?}",
                done.counts
            ),
        ));
    }
    if mode == Mode::Dependence {
        check_golden(w.slug, done.counts)?;
    }
    let nests_us = done.report.obs.span("analyze").map_or(0, |s| s.wall_us) as f64;
    Ok(Replay {
        parse_us,
        rewrite_us,
        codegen_us,
        interp_us,
        engine_us,
        analyze_us: done.analyze_us,
        render_us: done.render_us,
        nests_us,
        compile_us: compile_us as f64,
        plain_ticks,
        counts: done.counts,
        source_bytes: source.len(),
        instrumented_bytes: instrumented.len(),
        report: done.report,
    })
}
