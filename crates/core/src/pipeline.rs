//! The end-to-end JS-CERES pipeline (paper Fig. 5).
//!
//! The paper's tool is "a proxy server sitting between the browser and the
//! web server": it intercepts documents, rewrites the JavaScript, lets the
//! user exercise the app, and ships the analysis results to a git
//! repository. This module reproduces the same seven-step dataflow fully in
//! process:
//!
//! 1. the browser requests a document from the [`WebServer`];
//! 2. the proxy instruments any JavaScript it finds (inline `<script>`
//!    blocks are extracted, rewritten, and spliced back);
//! 3. the instrumented document is delivered to the "browser" — a fresh
//!    interpreter with DOM installed and the analysis engine attached;
//! 4. the [`Interaction`] script exercises the app (events, timers);
//! 5. the analysis results are collected from the engine;
//! 6. the proxy renders them human-readable and commits to a
//!    [`ReportRepo`];
//! 7. the caller interprets the returned [`AppRun`].

use crate::classify::{classify_nests, static_features, Difficulty, NestClassification};
use crate::engine::{attach_engine, EngineRef};
use crate::report::{
    render_loop_profile, render_nest_table, render_polymorphism, render_warnings, ReportRepo,
};
use ceres_dom::{extract_scripts, splice_scripts, DomHandle};
use ceres_instrument::{instrument_program, Mode};
use ceres_interp::{Control, Interp, JsResult, TICKS_PER_MS};
use serde::Serialize;
use std::collections::HashMap;

/// A document the web server can serve.
#[derive(Debug, Clone)]
pub enum Document {
    Html(String),
    Js(String),
}

impl Document {
    /// The JavaScript the document runs: a script as it is, or a page's
    /// inline scripts joined with newlines. The scripts share the global
    /// scope and run in order, so instrumenting their concatenation is
    /// equivalent and keeps loop ids unique across the page.
    pub fn script_text(&self) -> String {
        match self {
            Document::Js(src) => src.clone(),
            Document::Html(html) => extract_scripts(html)
                .iter()
                .map(|b| b.content.as_str())
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }
}

/// The "web server": a named document store.
#[derive(Default)]
pub struct WebServer {
    docs: HashMap<String, Document>,
}

impl WebServer {
    pub fn new() -> WebServer {
        WebServer::default()
    }

    pub fn publish(&mut self, url: &str, doc: Document) {
        self.docs.insert(url.to_string(), doc);
    }

    pub fn get(&self, url: &str) -> Option<&Document> {
        self.docs.get(url)
    }
}

/// User-interaction driver: runs after the document's scripts, with access
/// to the interpreter and the DOM handle (to dispatch events). The event
/// queue is drained afterwards by the pipeline.
pub type Interaction<'a> = Box<dyn FnOnce(&mut Interp, &DomHandle) -> JsResult<()> + 'a>;

/// Result of analyzing one application run.
pub struct AppRun {
    /// Total simulated wall-clock time (Table 2, column "Total").
    pub total_ms: f64,
    /// Sampling-profiler active time (Table 2, column "Active").
    pub active_ms: f64,
    /// Time with ≥1 loop open (Table 2, column "In Loops").
    pub loops_ms: f64,
    pub engine: EngineRef,
    pub dom: DomHandle,
    /// Captured console output of the app.
    pub console: Vec<String>,
    /// Fig. 5 step trace (for the `repro fig5` target).
    pub steps: Vec<String>,
    /// The combined, *uninstrumented* JavaScript the app ran (loop ids in
    /// reports refer to this source).
    pub source: String,
    /// Phase spans and event counters for the run (see [`crate::obs`]).
    pub obs: crate::obs::RunObs,
}

impl AppRun {
    /// Fraction of total time spent in loops, the paper's latent-parallelism
    /// upper-bound proxy (Sec. 4.1).
    pub fn loop_fraction(&self) -> f64 {
        if self.total_ms == 0.0 {
            0.0
        } else {
            self.loops_ms / self.total_ms
        }
    }

    /// [`Self::loop_fraction`] as a percentage: the `loop_pct` of the
    /// report and of the streamed `partial` row, computed here only so
    /// the two never print different digits.
    pub fn loop_pct(&self) -> f64 {
        100.0 * self.loop_fraction()
    }

    /// The Fortuna-style task-parallelism limit study over this run's
    /// tasks (main script + every event callback) — see [`crate::tasks`].
    pub fn task_study(&self) -> crate::tasks::TaskLimitStudy {
        crate::tasks::task_limit_study(&self.engine.borrow())
    }

    /// Classified Table 3 rows for this run.
    pub fn nests(&self) -> Vec<NestClassification> {
        let program = ceres_parser::parse_program(&self.source)
            .map(|mut p| {
                ceres_ast::assign_loop_ids(&mut p);
                p
            })
            .unwrap_or_else(|_| ceres_ast::Program::empty());
        let features = static_features(&program);
        classify_nests(&self.engine.borrow(), &features)
    }

    /// The Sec. 4.2 parallel fraction of the compute: the loop time of the
    /// `nests` rated `medium` or easier, scaled from loop time to active
    /// time.
    pub fn parallel_fraction(&self, nests: &[NestClassification]) -> f64 {
        let parallel_pct: f64 = nests
            .iter()
            .filter(|n| n.parallelization_difficulty <= Difficulty::Medium)
            .map(|n| n.pct_loop_time)
            .sum();
        let denom = self.active_ms.max(self.loops_ms).max(0.001);
        // `abs` turns the `-0.0` an empty float sum yields into `0.0`.
        ((parallel_pct / 100.0) * self.loops_ms / denom)
            .clamp(0.0, 1.0)
            .abs()
    }
}

/// Options for [`analyze`] — the knob surface of the core API. Every
/// field is public: name the ones that differ from the defaults and take
/// the rest from [`AnalyzeOptions::default`]:
///
/// ```
/// use ceres_core::{AnalyzeOptions, Mode};
/// let opts = AnalyzeOptions {
///     mode: Mode::Dependence,
///     seed: 7,
///     ..AnalyzeOptions::default()
/// };
/// assert_eq!(opts.max_events, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Instrumentation mode (paper Sec. 3.1–3.3 staging).
    pub mode: Mode,
    /// Interpreter seed; the virtual clock and `Math.random` derive from it.
    pub seed: u64,
    /// Dependence-mode focus loop (paper: "allows the programmer to focus
    /// on a specific loop"). [`analyze`] refuses an id that names no loop
    /// of the program.
    pub focus: Option<ceres_ast::LoopId>,
    /// Cap on processed events (safety for self-rescheduling apps).
    pub max_events: usize,
    /// Optional tick budget (deterministic watchdog: the interpreter stops
    /// with a `watchdog:` fatal once the virtual clock passes it).
    pub max_ticks: Option<u64>,
    /// Optional wall-clock cap, checked cooperatively at sampling
    /// granularity inside the interpreter. Nondeterministic backstop for
    /// apps whose virtual clock advances too slowly to trip `max_ticks`.
    pub wall_budget: Option<std::time::Duration>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            mode: Mode::LoopProfile,
            seed: 2015,
            focus: None,
            max_events: 10_000,
            max_ticks: None,
            wall_budget: None,
        }
    }
}

/// Run the full pipeline for `url`. See module docs for the step mapping.
pub fn analyze(
    server: &WebServer,
    url: &str,
    opts: AnalyzeOptions,
    interaction: Interaction<'_>,
) -> Result<AppRun, Control> {
    let mut steps = Vec::new();
    let mut recorder = crate::obs::SpanRecorder::new();

    // Step 1: request/response through the proxy.
    steps.push(format!(
        "1: browser requests {url}; proxy intercepts the response"
    ));
    let doc = server
        .get(url)
        .ok_or_else(|| Control::Fatal(format!("404: {url} not published")))?;

    let combined_source = doc.script_text();

    // Step 2: instrument. The virtual clock only runs while JavaScript
    // executes, so the parse/rewrite spans carry wall time but a zero-width
    // tick range.
    let parse_start = recorder.now_us();
    let mut program = ceres_parser::parse_program(&combined_source)
        .map_err(|e| Control::Fatal(format!("parse error in {url}: {e}")))?;
    let loops = ceres_ast::assign_loop_ids(&mut program);
    if let Some(focus) = opts.focus.filter(|&f| !loops.iter().any(|l| l.id == f)) {
        return Err(Control::Fatal(format!(
            "focus loop {} is not a loop of {url} ({} loops found)",
            focus.0,
            loops.len()
        )));
    }
    recorder.record("parse", 0, 0, parse_start);
    let rewrite_start = recorder.now_us();
    let instrumented = ceres_ast::program_to_source(&instrument_program(&program, opts.mode));
    steps.push(format!(
        "2: proxy instruments the JavaScript ({:?} mode, {} loops found)",
        opts.mode,
        loops.len()
    ));

    // Step 3: deliver to the browser. For HTML we also exercise the splice
    // path so the document the "browser" would receive is well-formed.
    if let Document::Html(html) = doc {
        let blocks = extract_scripts(html);
        if !blocks.is_empty() {
            // One combined replacement in the first block; later blocks
            // empty (they were concatenated into the first).
            let mut replacements = vec![String::new(); blocks.len()];
            replacements[0] = instrumented.clone();
            let _spliced = splice_scripts(html, &blocks, &replacements);
        }
    }
    steps.push("3: proxy sends the instrumented document to the browser".to_string());
    recorder.record("rewrite", 0, 0, rewrite_start);

    // Step 4: the browser runs the app and the user exercises it.
    let interp_start = recorder.now_us();
    let mut interp = Interp::new(opts.seed);
    interp.max_ticks = opts.max_ticks;
    interp.clock.set_wall_cap(opts.wall_budget);
    let dom = ceres_dom::install_dom(&mut interp);
    let engine = attach_engine(&mut interp, opts.mode, loops);
    engine.borrow_mut().focus = opts.focus;
    engine
        .borrow_mut()
        .begin_task("main", interp.clock.now_ticks());
    let main_result = interp.eval_source(&instrumented);
    engine.borrow_mut().end_task(interp.clock.now_ticks());
    main_result?;
    interaction(&mut interp, &dom)?;
    interp.run_events(opts.max_events)?;
    steps.push("4: user exercises the app; instrumentation gathers results".to_string());
    // Wall-only sub-span: time the VM backend spent lowering the AST to
    // bytecode, filed inside the interp window. Sub-spans are dropped from
    // the canonical (deterministic) view, so the 5-phase schema is
    // unchanged; recorded before "interp" so phase chaining still picks up
    // the interp span's end as the latest wall point.
    if interp.backend == ceres_interp::Backend::Vm {
        recorder.record_measured("interp.compile", 0, 0, interp_start, interp.compile_us);
    }
    recorder.record("interp", 0, interp.clock.now_ticks(), interp_start);

    // Step 5: results come back from the page.
    let total_ms = interp.clock.now_ms();
    let active_ms = interp.clock.active_ms();
    let loops_ms = engine.borrow().lw_loop_ticks as f64 / TICKS_PER_MS as f64;
    steps.push("5: browser sends analysis results back through the proxy".to_string());

    let counters = {
        let e = engine.borrow();
        crate::obs::Counters {
            interp_ticks: interp.clock.now_ticks(),
            samples: interp.clock.total_samples(),
            events: interp.events_processed,
            hook_calls: e.tally.total(),
            hooks: e
                .tally
                .nonzero()
                .into_iter()
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            stack_pushes: e.stack_pushes,
            warnings: e.warnings.len() as u64,
            retries: 0,
            watchdog_arms: 0,
        }
    };
    let obs = crate::obs::RunObs {
        spans: recorder.into_spans(),
        counters,
        wall_start_us: 0,
    };

    let run = AppRun {
        total_ms,
        active_ms,
        loops_ms,
        engine,
        dom,
        console: interp.console.clone(),
        steps,
        source: combined_source,
        obs,
    };
    // Early result for streaming consumers: the Table-2 timing row is
    // fully determined the moment interpretation ends, well before nest
    // classification and report rendering. All four fields are
    // virtual-clock-derived, so the fragment is deterministic (and
    // golden-pinnable). They are the report's own values, and serde_json
    // formats them as the report serializer does, so a partial frame
    // never shows a value the terminal report then prints differently.
    let row = TimingRow {
        total_ms,
        active_ms,
        loops_ms,
        loop_pct: run.loop_pct(),
    };
    crate::obs::emit_frame(|| crate::serve::Frame::Partial {
        fragment: crate::serve::members(&row),
    });
    Ok(run)
}

/// The deterministic early-timing row a `partial` streaming frame
/// carries.
#[derive(Serialize)]
struct TimingRow {
    total_ms: f64,
    active_ms: f64,
    loops_ms: f64,
    loop_pct: f64,
}

/// Fig. 5 steps 6–7: render the run's results and commit them to the
/// report repository. Returns the commit id.
pub fn publish_report(
    run: &mut AppRun,
    repo: &mut ReportRepo,
    app: &str,
) -> std::io::Result<String> {
    let report_start = std::time::Instant::now();
    let engine = run.engine.borrow();
    let nests = {
        // classify needs the engine borrow dropped inside run.nests()
        drop(engine);
        run.nests()
    };
    let engine = run.engine.borrow();
    let files = vec![
        (
            "timing.txt",
            format!(
                "total: {:.1} ms\nactive: {:.1} ms\nin-loops: {:.1} ms\nloop fraction: {:.1}%\n",
                run.total_ms,
                run.active_ms,
                run.loops_ms,
                run.loop_pct()
            ),
        ),
        ("loops.txt", render_loop_profile(&engine)),
        ("warnings.txt", render_warnings(&engine)),
        ("polymorphism.txt", render_polymorphism(&engine)),
        (
            "suggestions.txt",
            crate::suggest::render_suggestions(&engine, &crate::suggest::suggest(&engine, &nests)),
        ),
        ("nests.txt", render_nest_table(&engine, &nests)),
        ("source.js", run.source.clone()),
    ];
    let id = repo.commit(app, &files)?;
    run.steps
        .push(format!("6: proxy renders reports and commits ({id})"));
    run.steps
        .push("7: results pushed to the report repository".to_string());
    drop(engine);
    run.obs
        .push_post_phase("report", report_start.elapsed().as_micros() as u64);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_instrument::Mode;

    fn no_interaction() -> Interaction<'static> {
        Box::new(|_, _| Ok(()))
    }

    #[test]
    fn analyze_js_document_end_to_end() {
        let mut server = WebServer::new();
        server.publish(
            "app.js",
            Document::Js(
                "var s = 0;\n\
                 for (var i = 0; i < 2000; i++) { s += i; }\n\
                 console.log(s);"
                    .to_string(),
            ),
        );
        let run = analyze(
            &server,
            "app.js",
            AnalyzeOptions::default(),
            no_interaction(),
        )
        .expect("pipeline");
        assert_eq!(run.console, vec!["1999000"]);
        assert!(run.total_ms > 0.0);
        assert!(run.loops_ms > 0.0);
        assert!(
            run.loop_fraction() > 0.5,
            "loop fraction {}",
            run.loop_fraction()
        );
        assert_eq!(run.steps.len(), 5);
    }

    #[test]
    fn analyze_html_document_with_inline_scripts() {
        let mut server = WebServer::new();
        server.publish(
            "index.html",
            Document::Html(
                "<html><body>\n\
                 <script>var acc = 0;</script>\n\
                 <div></div>\n\
                 <script>for (var i = 0; i < 100; i++) { acc += i; } console.log(acc);</script>\n\
                 </body></html>"
                    .to_string(),
            ),
        );
        let run = analyze(
            &server,
            "index.html",
            AnalyzeOptions::default(),
            no_interaction(),
        )
        .expect("pipeline");
        assert_eq!(run.console, vec!["4950"]);
    }

    #[test]
    fn interaction_and_events_drive_the_app() {
        let mut server = WebServer::new();
        server.publish(
            "app.js",
            Document::Js(
                "var clicks = 0;\n\
                 var el = document.getElementById(\"btn\");\n\
                 el.addEventListener(\"click\", function (e) {\n\
                   clicks++;\n\
                   setTimeout(function () { console.log(\"late\", clicks); }, 5);\n\
                 });"
                .to_string(),
            ),
        );
        let run = analyze(
            &server,
            "app.js",
            AnalyzeOptions::default(),
            Box::new(|interp, dom| {
                dom.dispatch(interp, "btn", "click", &[])?;
                dom.dispatch(interp, "btn", "click", &[])?;
                Ok(())
            }),
        )
        .expect("pipeline");
        assert_eq!(run.console, vec!["late 2", "late 2"]);
    }

    #[test]
    fn missing_document_is_an_error() {
        let server = WebServer::new();
        let r = analyze(
            &server,
            "nope.js",
            AnalyzeOptions::default(),
            no_interaction(),
        );
        assert!(matches!(r, Err(Control::Fatal(_))));
    }

    #[test]
    fn table2_shape_total_vs_loops_vs_active() {
        // A compute-heavy app with idle time: total > loops; the tight
        // single-function loop is under-sampled by the function-granularity
        // profiler (active < loops) — the paper's Sec. 3.1 anomaly.
        let mut server = WebServer::new();
        server.publish(
            "hot.js",
            Document::Js(
                "var s = 0;\n\
                 function tick() {\n\
                   for (var i = 0; i < 30000; i++) { s += i * 0.5; }\n\
                 }\n\
                 setTimeout(tick, 50);\n\
                 setTimeout(tick, 120);"
                    .to_string(),
            ),
        );
        let run = analyze(
            &server,
            "hot.js",
            AnalyzeOptions::default(),
            no_interaction(),
        )
        .expect("pipeline");
        assert!(run.total_ms > run.loops_ms, "idle time exists");
        assert!(run.loops_ms > 0.0);
        assert!(
            run.active_ms < run.loops_ms,
            "function-level sampling undercounts tight loops: active {} loops {}",
            run.active_ms,
            run.loops_ms
        );
    }

    #[test]
    fn publish_report_writes_files() {
        let mut server = WebServer::new();
        server.publish(
            "app.js",
            Document::Js(
                "var acc = { v: 0 };\nfor (var i = 0; i < 50; i++) { acc.v += i; }".to_string(),
            ),
        );
        let mut run = analyze(
            &server,
            "app.js",
            AnalyzeOptions {
                mode: Mode::Dependence,
                ..AnalyzeOptions::default()
            },
            no_interaction(),
        )
        .expect("pipeline");
        let dir = std::env::temp_dir().join(format!("ceres-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut repo = ReportRepo::open(&dir).unwrap();
        let id = publish_report(&mut run, &mut repo, "demo").unwrap();
        assert_eq!(id, "commit-0001");
        for f in [
            "timing.txt",
            "loops.txt",
            "warnings.txt",
            "polymorphism.txt",
            "nests.txt",
            "source.js",
        ] {
            assert!(dir.join("demo/commit-0001").join(f).exists(), "{f}");
        }
        assert_eq!(run.steps.len(), 7, "all Fig. 5 steps traced");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
