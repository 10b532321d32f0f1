//! Parallel fleet analyzer: run many applications through the JS-CERES
//! pipeline concurrently, one isolated pipeline per worker thread — and
//! survive the apps that misbehave.
//!
//! The pipeline itself is deliberately single-threaded (the engine hangs
//! off the interpreter as `Rc<RefCell<_>>`, mirroring a browser page), so
//! fleet parallelism is *thread-per-app*: each worker pulls a job off a
//! shared queue, builds its own `WebServer → instrument → Interp → Engine`
//! stack inside the closure, and reduces the non-`Send` [`AppRun`] down to
//! a plain-data [`AppReport`] before anything crosses the thread boundary.
//!
//! Fault isolation (the paper's case study only works because JS-CERES
//! survives 12 messy real-world apps):
//!
//! * every attempt runs under `catch_unwind` on its own runner thread, so
//!   a panicking app is recorded as [`AppStatus::Panicked`] and the rest
//!   of the fleet keeps going;
//! * the work queue is poison-proof — a mutex poisoned by a crashing
//!   worker is recovered, never propagated;
//! * a per-app watchdog cancels runaways: deterministically via the
//!   interpreter tick budget ([`FleetPolicy::tick_budget`], surfaced as
//!   [`JobError::Timeout`]) and as a wall-clock backstop at the fleet
//!   layer ([`FleetPolicy::wall_budget`], which abandons the runner
//!   thread);
//! * transient failures ([`JobError::Transient`]) are retried with
//!   exponential backoff up to [`FleetPolicy::max_retries`] times.
//!
//! The merged [`FleetOutcome`] carries a per-app [`AppStatus`] instead of
//! being all-or-nothing: one crashing app no longer discards eleven good
//! reports.
//!
//! Determinism: the virtual clock is seeded, so analysis results do not
//! depend on scheduling. The collector slots results by job index, which
//! makes the merged [`FleetOutcome`] independent of completion order; the
//! only nondeterministic fields are `wall_ms`/`worker` and the wall-clock
//! half of the observability record (excluded from the table renderings
//! and zeroed by [`FleetOutcome::canonical`]).

#![deny(missing_docs)]

use crate::classify::NestClassification;
use crate::pipeline::{analyze, AnalyzeOptions, AppRun, Document, WebServer};
use crate::stack::render;
use ceres_dom::DomHandle;
use ceres_instrument::Mode;
use ceres_interp::{Interp, JsResult};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How one attempt at a job failed. Distinguishing these drives the
/// supervisor's response: fatal errors are recorded, transient errors are
/// retried, timeouts mark the app as cancelled by the watchdog.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Permanent failure — retrying would reproduce it.
    Fatal(String),
    /// Transient failure — worth retrying with backoff.
    Transient(String),
    /// The execution watchdog cancelled the attempt (tick budget or
    /// in-interpreter wall cap).
    Timeout(String),
}

impl JobError {
    /// Classify a pipeline error: watchdog cancellations become
    /// [`JobError::Timeout`], everything else is fatal.
    pub fn from_control(c: &ceres_interp::Control) -> JobError {
        if c.is_watchdog() {
            JobError::Timeout(format!("{c:?}"))
        } else {
            JobError::Fatal(format!("{c:?}"))
        }
    }
}

/// The work closure: takes (worker id, attempt number starting at 1) and
/// must build — and fully consume — its own pipeline; nothing non-`Send`
/// may escape it. `Fn` (not `FnOnce`) because a transiently-failing job is
/// re-invoked on retry, and `Arc` because a wall-clock-abandoned attempt
/// keeps its clone alive on the orphaned runner thread.
pub type JobWork = Arc<dyn Fn(usize, u32) -> Result<AppReport, JobError> + Send + Sync>;

/// The one page runner: the work of analyzing `page` as the app `app`
/// (`slug`). Each attempt serves the page on its own [`WebServer`], runs
/// the whole pipeline over it under `opts` with the `interaction`
/// script, and reduces the run to an [`AppReport`] stamped with its wall
/// time and worker. Fleet runs and served requests both build their work
/// here. The page is served as `request.html`, the name a parse error
/// quotes.
pub fn page_work(
    app: String,
    slug: String,
    page: Document,
    opts: AnalyzeOptions,
    interaction: fn(&mut Interp, &DomHandle) -> JsResult<()>,
) -> JobWork {
    Arc::new(move |worker, _attempt| {
        let start = std::time::Instant::now();
        let mut server = WebServer::new();
        server.publish("request.html", page.clone());
        let run = analyze(&server, "request.html", opts.clone(), Box::new(interaction))
            .map_err(|c| JobError::from_control(&c))?;
        let mut report = AppReport::from_run(&app, &slug, opts.mode, &run);
        report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        report.worker = worker;
        Ok(report)
    })
}

/// One unit of fleet work: analyze one application.
pub struct FleetJob {
    /// Display name (Table 1 "Name").
    pub app: String,
    /// Short identifier for files/CLI.
    pub slug: String,
    /// The work itself.
    pub work: JobWork,
}

/// Supervision knobs for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Deterministic per-attempt budget in virtual interpreter ticks; jobs
    /// should wire it into `AnalyzeOptions::max_ticks` so a runaway app is
    /// cancelled at exactly the same virtual instant on every run.
    /// `None` = unlimited.
    pub tick_budget: Option<u64>,
    /// Wall-clock backstop per attempt. If an attempt exceeds it, its
    /// runner thread is abandoned and the app is marked
    /// [`AppStatus::TimedOut`]. Catches hangs the tick budget cannot see
    /// (native code, a missing budget).
    pub wall_budget: Duration,
    /// How many times a [`JobError::Transient`] attempt is retried (total
    /// attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles each retry.
    pub backoff: Duration,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            tick_budget: None,
            wall_budget: Duration::from_secs(120),
            max_retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Tick budget used for an injected hang when the policy does not set one:
/// long enough that no real workload at test scale comes near it, short
/// enough that the watchdog trips in well under a second.
const HANG_FALLBACK_TICKS: u64 = 2_000_000;

/// Spin the interpreter on `for(;;){}` under the policy's tick budget. The
/// budget always trips, so this returns the same `watchdog:` error on every
/// run — an injected hang (fleet fault plan or a served `inject:"hang"`)
/// is deterministic and exercises the *real* cancellation path rather
/// than a simulated one.
pub fn injected_hang(policy: &FleetPolicy) -> JobError {
    let mut interp = ceres_interp::Interp::new(2015);
    interp.max_ticks = Some(policy.tick_budget.unwrap_or(HANG_FALLBACK_TICKS));
    match interp.eval_source("for (;;) {}") {
        Err(c) => JobError::from_control(&c),
        Ok(()) => JobError::Fatal("injected hang terminated without tripping".to_string()),
    }
}

/// One classified loop nest, reduced to plain data (Table 3 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestReport {
    /// Loop-header display name, e.g. `for(3)`.
    pub name: String,
    /// Share of total in-loop time spent in this nest, as a percentage.
    pub pct_loop_time: f64,
    /// How many times the nest was entered.
    pub instances: u64,
    /// Mean trips ± stddev, pre-rendered (`"120±5"`).
    pub trips: String,
    /// Trip-count divergence bucket (`low` / `high`), pre-rendered.
    pub divergence: String,
    /// Whether any iteration touched the DOM.
    pub dom_access: bool,
    /// Dependence-breaking difficulty bucket (Table 3 "brk-deps").
    pub dependence_difficulty: String,
    /// Overall parallelization difficulty bucket (Table 3 "parallel").
    pub parallelization_difficulty: String,
}

/// One dependence warning, reduced to plain data (Fig. 6 style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarningReport {
    /// Variant name (`VarWrite`, `SharedPropWrite`, ...).
    pub kind: String,
    /// Human sentence for the kind.
    pub detail: String,
    /// What the warning is about (variable or property name).
    pub subject: String,
    /// Rendered per-level characterization (`while(24) ok ok → ...`).
    pub characterization: String,
    /// How many dynamic occurrences were deduplicated into this row.
    pub count: u64,
}

/// Everything one worker reports back about one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// Display name (Table 1 "Name").
    pub app: String,
    /// Short identifier for files/CLI.
    pub slug: String,
    /// Instrumentation mode the app ran under.
    pub mode: String,
    /// Virtual-clock total time (Table 2 "Total"), in simulated ms.
    pub total_ms: f64,
    /// Simulated-profiler active time (Table 2 "Active"), in simulated ms.
    pub active_ms: f64,
    /// Time with ≥1 loop open (Table 2 "In Loops"), in simulated ms.
    pub loops_ms: f64,
    /// `loops_ms / total_ms`, as a percentage.
    pub loop_pct: f64,
    /// All classified nests, dominant first (Table 3 applies its coverage
    /// cutoff at render time).
    pub nests: Vec<NestReport>,
    /// Deduplicated dependence warnings (Fig. 6 style).
    pub warnings: Vec<WarningReport>,
    /// Phase spans and event counters for the run (see [`crate::obs`]).
    /// Tick-denominated fields are deterministic; wall fields are zeroed
    /// by [`AppReport::canonical`].
    pub obs: crate::obs::RunObs,
    /// Real wall-clock the worker spent on this app. Nondeterministic.
    pub wall_ms: f64,
    /// Which worker ran the job. Nondeterministic.
    pub worker: usize,
}

impl AppReport {
    /// Reduce a finished [`AppRun`] to plain data. Runs on the worker
    /// thread, while the engine is still alive.
    pub fn from_run(app: &str, slug: &str, mode: Mode, run: &AppRun) -> AppReport {
        let analyze_start = std::time::Instant::now();
        let nest_rows = run.nests();
        let analyze_us = analyze_start.elapsed().as_micros() as u64;
        let engine = run.engine.borrow();
        let nests = nest_rows
            .iter()
            .map(|n: &NestClassification| NestReport {
                name: engine
                    .loops
                    .get(&n.root)
                    .map(|l| l.display_name())
                    .unwrap_or_else(|| format!("{}", n.root)),
                pct_loop_time: n.pct_loop_time,
                instances: n.instances,
                trips: n.trips.display_pm(),
                divergence: n.divergence.as_str().to_string(),
                dom_access: n.dom_access,
                dependence_difficulty: n.dependence_difficulty.as_str().to_string(),
                parallelization_difficulty: n.parallelization_difficulty.as_str().to_string(),
            })
            .collect();
        let mut warnings: Vec<_> = engine.warnings.iter().collect();
        warnings.sort_by(|a, b| (a.kind, &a.subject).cmp(&(b.kind, &b.subject)));
        let warnings = warnings
            .iter()
            .map(|w| WarningReport {
                kind: format!("{:?}", w.kind),
                detail: w.kind.describe().to_string(),
                subject: w.subject.clone(),
                characterization: render(&w.characterization, &engine.loops),
                count: w.count,
            })
            .collect();
        let mut obs = run.obs.clone();
        obs.push_post_phase("analyze", analyze_us);
        AppReport {
            app: app.to_string(),
            slug: slug.to_string(),
            mode: format!("{mode:?}"),
            total_ms: run.total_ms,
            active_ms: run.active_ms,
            loops_ms: run.loops_ms,
            loop_pct: run.loop_pct(),
            nests,
            warnings,
            obs,
            wall_ms: 0.0,
            worker: 0,
        }
    }

    /// Copy with the nondeterministic fields zeroed.
    pub fn canonical(&self) -> AppReport {
        AppReport {
            obs: self.obs.canonical(),
            wall_ms: 0.0,
            worker: 0,
            ..self.clone()
        }
    }
}

/// Terminal status of one app's analysis within a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AppStatus {
    /// Analysis completed; the report is present.
    Ok,
    /// The job reported an error (after `attempts` tries).
    Failed {
        /// The final error message.
        error: String,
        /// How many attempts were consumed before giving up.
        attempts: u32,
    },
    /// The job panicked; the panic payload is recorded.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The watchdog cancelled a runaway app (tick budget or wall cap).
    TimedOut {
        /// Which budget fired, human-readable.
        budget: String,
    },
}

impl AppStatus {
    /// Whether the app completed successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self, AppStatus::Ok)
    }

    /// Short fixed-vocabulary label for table rendering.
    pub fn label(&self) -> String {
        match self {
            AppStatus::Ok => "ok".to_string(),
            AppStatus::Failed { attempts, .. } => format!("failed({attempts})"),
            AppStatus::Panicked { .. } => "panicked".to_string(),
            AppStatus::TimedOut { .. } => "timed-out".to_string(),
        }
    }

    /// The failure detail, if any (for the status rendering).
    pub fn detail(&self) -> Option<&str> {
        match self {
            AppStatus::Ok => None,
            AppStatus::Failed { error, .. } => Some(error),
            AppStatus::Panicked { message } => Some(message),
            AppStatus::TimedOut { budget } => Some(budget),
        }
    }
}

/// Per-app result slot in a [`FleetOutcome`]. The app/slug are filled when
/// the job is enqueued, so even an app whose worker vanished is named in
/// the output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// Display name (Table 1 "Name").
    pub app: String,
    /// Short identifier for files/CLI.
    pub slug: String,
    /// Terminal status of the app's analysis.
    pub status: AppStatus,
    /// How many attempts were consumed (1 for a first-try success).
    pub attempts: u32,
    /// Present iff `status` is [`AppStatus::Ok`].
    pub report: Option<AppReport>,
}

/// Version of the externally consumed result envelope: the
/// [`FleetOutcome`] JSON (`--json`) and the `jsceresd` wire protocol.
/// Mirrors [`crate::obs::METRICS_SCHEMA_VERSION`], which versions the
/// *metrics* payload nested inside; this constant versions the envelope
/// around reports and statuses. Bump on any breaking change to either
/// surface.
///
/// Schema **2** is the streaming multi-frame wire protocol: a
/// `stream:true` analyze request is answered with a sequence of typed
/// frames (`accepted`/`phase`/`partial`/`notice` and a terminal
/// `result`/`error`), each stamped `"schema":2`. One-shot requests —
/// the default — are still answered with the original single-line
/// envelope, rendered at [`crate::serve::ONESHOT_SCHEMA_VERSION`]
/// (= 1) so schema-1 clients and the pinned envelope golden are
/// byte-for-byte unchanged. See `docs/SERVING.md` for the frame
/// reference and the compat matrix.
pub const API_SCHEMA_VERSION: u32 = 2;

/// The merged fleet result, app order matching the job order. Replaces the
/// old all-or-nothing `Result<Vec<AppReport>, String>`: every app gets a
/// status, and partial success is a first-class outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Envelope schema version ([`API_SCHEMA_VERSION`] at construction).
    pub api_schema_version: u32,
    /// Instrumentation mode every job ran under.
    pub mode: String,
    /// Workload scale factor the jobs were built with.
    pub scale: u32,
    /// Worker-pool size used. Nondeterministic across configurations.
    pub workers: usize,
    /// Per-app results, in job order.
    pub apps: Vec<AppOutcome>,
}

impl FleetOutcome {
    /// Assemble an outcome, stamping the current [`API_SCHEMA_VERSION`].
    pub fn new(mode: String, scale: u32, workers: usize, apps: Vec<AppOutcome>) -> FleetOutcome {
        FleetOutcome {
            api_schema_version: API_SCHEMA_VERSION,
            mode,
            scale,
            workers,
            apps,
        }
    }

    /// Number of apps that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.apps.iter().filter(|a| a.status.is_ok()).count()
    }

    /// The apps that did not complete.
    pub fn failures(&self) -> Vec<&AppOutcome> {
        self.apps.iter().filter(|a| !a.status.is_ok()).collect()
    }

    /// Whether every app completed successfully.
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Process exit code for CLI drivers: 0 = every app analyzed, 3 =
    /// partial success (degraded but useful), 4 = nothing succeeded.
    pub fn exit_code(&self) -> i32 {
        if self.all_ok() {
            0
        } else if self.succeeded() > 0 {
            3
        } else {
            4
        }
    }

    /// Copy with every scheduling-dependent field zeroed; two runs of the
    /// same fleet must compare equal under this view regardless of worker
    /// count.
    pub fn canonical(&self) -> FleetOutcome {
        FleetOutcome {
            api_schema_version: self.api_schema_version,
            mode: self.mode.clone(),
            scale: self.scale,
            workers: 0,
            apps: self
                .apps
                .iter()
                .map(|a| AppOutcome {
                    app: a.app.clone(),
                    slug: a.slug.clone(),
                    status: a.status.clone(),
                    attempts: a.attempts,
                    report: a.report.as_ref().map(AppReport::canonical),
                })
                .collect(),
        }
    }

    /// Table 2 rendering (virtual-clock timings per app), with a status
    /// column so degraded runs are visible at a glance.
    pub fn render_table2(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22}{:>9}{:>9}{:>10}{:>8}  {}\n",
            "Name", "Total", "Active", "In Loops", "loop%", "Status"
        ));
        for a in &self.apps {
            match &a.report {
                Some(r) => out.push_str(&format!(
                    "{:<22}{:>9.0}{:>9.0}{:>10.0}{:>7.0}%  {}\n",
                    a.app,
                    r.total_ms,
                    r.active_ms,
                    r.loops_ms,
                    r.loop_pct,
                    a.status.label()
                )),
                None => out.push_str(&format!(
                    "{:<22}{:>9}{:>9}{:>10}{:>8}  {}\n",
                    a.app,
                    "-",
                    "-",
                    "-",
                    "-",
                    a.status.label()
                )),
            }
        }
        out
    }

    /// Table 3 rendering: per app, the top nests covering ≥ 2/3 of loop
    /// time (the paper's inspection protocol). Apps without a report show
    /// their status instead of rows.
    pub fn render_table3(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22}{:>4} {:>7} {:>11}  {:<7} {:<4} {:<10} {:<10}\n",
            "name", "%", "inst", "trips", "diverg", "DOM", "brk-deps", "parallel"
        ));
        for a in &self.apps {
            let Some(report) = &a.report else {
                out.push_str(&format!("{:<22}<{}>\n", a.app, a.status.label()));
                continue;
            };
            let mut covered = 0.0;
            let mut first = true;
            for n in &report.nests {
                if covered >= 200.0 / 3.0 {
                    break;
                }
                covered += n.pct_loop_time;
                out.push_str(&format!(
                    "{:<22}{:>4.0} {:>7} {:>11}  {:<7} {:<4} {:<10} {:<10}\n",
                    if first { a.app.as_str() } else { "" },
                    n.pct_loop_time,
                    n.instances,
                    n.trips,
                    n.divergence,
                    if n.dom_access { "yes" } else { "no" },
                    n.dependence_difficulty,
                    n.parallelization_difficulty,
                ));
                first = false;
            }
        }
        out
    }

    /// One line per app: slug, status, and the failure detail if any.
    pub fn render_status(&self) -> String {
        let mut out = String::new();
        for a in &self.apps {
            match a.status.detail() {
                None => out.push_str(&format!("{:<14} {}\n", a.slug, a.status.label())),
                Some(d) => {
                    out.push_str(&format!("{:<14} {:<12} {}\n", a.slug, a.status.label(), d))
                }
            }
        }
        out
    }

    /// Pretty-printed JSON (the `--json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FleetOutcome serializes")
    }
}

// ---------------------------------------------------------------------
// Fault injection (CI proves degradation is graceful)
// ---------------------------------------------------------------------

/// Injection rates per fault class, parsed from
/// `panic:RATE,hang:RATE,error:RATE` (each clause optional).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability an attempt panics.
    pub panic: f64,
    /// Probability an attempt hangs until the watchdog fires.
    pub hang: f64,
    /// Probability an attempt reports a transient error.
    pub error: f64,
}

impl FaultSpec {
    /// Parse a `--inject` argument, e.g. `panic:0.3,hang:0.1,error:0.2`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for clause in s.split(',').filter(|c| !c.is_empty()) {
            let (kind, rate) = clause
                .split_once(':')
                .ok_or_else(|| format!("bad inject clause `{clause}` (want kind:rate)"))?;
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("bad inject rate in `{clause}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("inject rate out of [0,1] in `{clause}`"));
            }
            match Fault::named(kind) {
                Some(Fault::Panic) => spec.panic = rate,
                Some(Fault::Hang) => spec.hang = rate,
                Some(Fault::Error) => spec.error = rate,
                // Fleet jobs run in process, where no worker can abort.
                Some(Fault::Crash) | None => return Err(format!("unknown fault kind `{kind}`")),
            }
        }
        Ok(spec)
    }

    /// Whether no fault class has a nonzero rate (injection disabled).
    pub fn is_zero(&self) -> bool {
        self.panic == 0.0 && self.hang == 0.0 && self.error == 0.0
    }
}

/// The fault classes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Unwind out of the job (exercises `catch_unwind` isolation).
    Panic,
    /// Spin the interpreter until the watchdog budget cancels it.
    Hang,
    /// Report a transient error (exercises retry + backoff).
    Error,
    /// Abort the worker process (exercises the supervisor's restart).
    /// Only a served request injects it; see [`with_faults`].
    Crash,
}

impl Fault {
    /// Every fault class by the name `--inject` and a request's `inject`
    /// give it.
    pub const KINDS: [(&'static str, Fault); 4] = [
        ("panic", Fault::Panic),
        ("hang", Fault::Hang),
        ("error", Fault::Error),
        ("crash", Fault::Crash),
    ];

    /// The fault class called `kind`, if any.
    pub fn named(kind: &str) -> Option<Fault> {
        Fault::KINDS
            .iter()
            .find(|(name, _)| *name == kind)
            .map(|&(_, fault)| fault)
    }
}

/// The one fault injector: wrap `work` so that `roll(attempt)` picks the
/// fault, if any, that replaces each attempt. `Panic` unwinds, `Hang`
/// spins the interpreter until the tick watchdog fires
/// ([`injected_hang`]), `Error` is a transient failure that a retry can
/// clear, and `Crash` fails the job: a worker *process* aborts before it
/// runs a crash-injected job, so a job that gets here runs in process,
/// where an abort would take the daemon down. The fleet rolls its
/// [`FaultPlan`]; a served request's `inject` fixes one fault.
pub fn with_faults(
    work: JobWork,
    slug: &str,
    policy: &FleetPolicy,
    roll: impl Fn(u32) -> Option<Fault> + Send + Sync + 'static,
) -> JobWork {
    let (slug, policy) = (slug.to_string(), policy.clone());
    Arc::new(move |worker, attempt| match roll(attempt) {
        None => work(worker, attempt),
        Some(Fault::Panic) => panic!("injected fault: panic in {slug}"),
        Some(Fault::Hang) => Err(injected_hang(&policy)),
        Some(Fault::Error) => Err(JobError::Transient(format!(
            "injected fault: transient error in {slug}"
        ))),
        Some(Fault::Crash) => Err(JobError::Fatal(format!(
            "injected fault: crash in {slug} requires the process-worker \
             backend (in-process jobs fail cleanly instead of aborting \
             the daemon)"
        ))),
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded fault plan: a pure function of (seed, job index, attempt), so a
/// fleet run under injection is exactly reproducible and a transient
/// injected error can clear on retry.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Injection rates per fault class.
    pub spec: FaultSpec,
    /// Seed mixing into every roll.
    pub seed: u64,
}

impl FaultPlan {
    /// Build a plan from a spec and a seed.
    pub fn new(spec: FaultSpec, seed: u64) -> FaultPlan {
        FaultPlan { spec, seed }
    }

    /// Which fault (if any) hits `job_index` on `attempt`.
    pub fn roll(&self, job_index: usize, attempt: u32) -> Option<Fault> {
        let h = splitmix64(self.seed ^ splitmix64(((job_index as u64) << 32) | u64::from(attempt)));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.spec.panic {
            Some(Fault::Panic)
        } else if u < self.spec.panic + self.spec.hang {
            Some(Fault::Hang)
        } else if u < self.spec.panic + self.spec.hang + self.spec.error {
            Some(Fault::Error)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// The supervised worker pool
// ---------------------------------------------------------------------

/// The default fleet worker count: the machine parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Poison-proof lock: a worker that crashed while holding the queue must
/// not take the rest of the fleet down with a poisoned-mutex panic.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one supervised attempt produced (internal).
enum Attempt {
    Report(Box<AppReport>),
    Err(JobError),
    Panicked(String),
    /// The wall-clock backstop fired; the runner thread was abandoned.
    HardTimeout,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one attempt on a dedicated runner thread so the wall-clock backstop
/// can abandon it without losing the worker. The runner catches unwinds;
/// an abandoned runner's eventual send fails silently (receiver dropped).
fn run_attempt(work: &JobWork, worker: usize, attempt: u32, slug: &str, wall: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let work = Arc::clone(work);
    let spawned = std::thread::Builder::new()
        .name(format!("fleet-{slug}-a{attempt}"))
        .spawn(move || {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| work(worker, attempt)));
            let _ = tx.send(r);
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return Attempt::Err(JobError::Transient(format!("cannot spawn runner: {e}"))),
    };
    match rx.recv_timeout(wall) {
        Ok(result) => {
            let _ = handle.join();
            match result {
                Ok(Ok(report)) => Attempt::Report(Box::new(report)),
                Ok(Err(e)) => Attempt::Err(e),
                Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
            }
        }
        Err(_) => Attempt::HardTimeout, // handle dropped: runner abandoned
    }
}

/// Supervise one job to a terminal [`AppOutcome`]: retry transient errors
/// with exponential backoff, classify panics and timeouts, and never let
/// anything unwind into the caller. This is the single-job entry point the
/// fleet workers use internally; `jsceresd` calls it directly so every
/// served request gets the same watchdog/retry/isolation treatment as a
/// fleet run.
pub fn supervise(job: &FleetJob, worker: usize, policy: &FleetPolicy) -> AppOutcome {
    let outcome = |status: AppStatus, attempts: u32, report: Option<AppReport>| AppOutcome {
        app: job.app.clone(),
        slug: job.slug.clone(),
        status,
        attempts,
        report,
    };
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match run_attempt(&job.work, worker, attempt, &job.slug, policy.wall_budget) {
            Attempt::Report(r) => return outcome(AppStatus::Ok, attempt, Some(*r)),
            Attempt::Panicked(message) => {
                return outcome(AppStatus::Panicked { message }, attempt, None)
            }
            Attempt::HardTimeout => {
                return outcome(
                    AppStatus::TimedOut {
                        budget: format!(
                            "wall-clock cap {} ms exceeded; runner abandoned",
                            policy.wall_budget.as_millis()
                        ),
                    },
                    attempt,
                    None,
                )
            }
            Attempt::Err(JobError::Timeout(budget)) => {
                return outcome(AppStatus::TimedOut { budget }, attempt, None)
            }
            Attempt::Err(JobError::Fatal(error)) => {
                return outcome(
                    AppStatus::Failed {
                        error,
                        attempts: attempt,
                    },
                    attempt,
                    None,
                )
            }
            Attempt::Err(JobError::Transient(error)) => {
                if attempt > policy.max_retries {
                    return outcome(
                        AppStatus::Failed {
                            error,
                            attempts: attempt,
                        },
                        attempt,
                        None,
                    );
                }
                // Exponential backoff: base, 2×base, 4×base, ...
                std::thread::sleep(policy.backoff * 2u32.saturating_pow(attempt - 1));
            }
        }
    }
}

/// Fill terminal outcomes for slots whose worker vanished without
/// reporting (a runner that died so hard even `catch_unwind` never
/// returned). The slot carries the app identity from enqueue time, so the
/// message names the app.
fn finish_slots(slots: Vec<(String, String, Option<AppOutcome>)>) -> Vec<AppOutcome> {
    slots
        .into_iter()
        .map(|(app, slug, outcome)| match outcome {
            Some(o) => o,
            None => AppOutcome {
                app: app.clone(),
                slug: slug.clone(),
                status: AppStatus::Failed {
                    error: format!("{slug}: worker died before reporting"),
                    attempts: 0,
                },
                attempts: 0,
                report: None,
            },
        })
        .collect()
}

/// Run the jobs on a pool of `workers` threads under the default policy.
pub fn run_fleet(jobs: Vec<FleetJob>, workers: usize) -> Vec<AppOutcome> {
    run_fleet_with(jobs, workers, &FleetPolicy::default())
}

/// Run the jobs on a pool of `workers` threads under `policy` and merge
/// the outcomes in job order (independent of completion order). Individual
/// app failures — errors, panics, watchdog cancellations — are recorded in
/// their slot; they never abort the fleet or discard other apps' reports.
pub fn run_fleet_with(
    jobs: Vec<FleetJob>,
    workers: usize,
    policy: &FleetPolicy,
) -> Vec<AppOutcome> {
    let n_jobs = jobs.len();
    let workers = workers.clamp(1, n_jobs.max(1));
    // Slots are pre-named so a vanished worker still yields a named error.
    let mut slots: Vec<(String, String, Option<AppOutcome>)> = jobs
        .iter()
        .map(|j| (j.app.clone(), j.slug.clone(), None))
        .collect();
    let queue: Mutex<VecDeque<(usize, FleetJob)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, AppOutcome)>();

    std::thread::scope(|s| {
        for worker_id in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                let job = relock(queue).pop_front();
                let Some((index, job)) = job else { break };
                let outcome = supervise(&job, worker_id, policy);
                if tx.send((index, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect in completion order; slot by index so the merge is
        // deterministic.
        for (index, outcome) in rx {
            slots[index].2 = Some(outcome);
        }
    });

    finish_slots(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn stub_report(i: usize) -> AppReport {
        AppReport {
            app: format!("app-{i}"),
            slug: format!("a{i}"),
            mode: "Dependence".to_string(),
            total_ms: 10.0 * i as f64 + 0.5,
            active_ms: 5.0,
            loops_ms: 2.5,
            loop_pct: 25.0,
            nests: vec![NestReport {
                name: format!("for({i})"),
                pct_loop_time: 100.0,
                instances: 1 + i as u64,
                trips: "120±5".to_string(),
                divergence: "low".to_string(),
                dom_access: i.is_multiple_of(2),
                dependence_difficulty: "easy".to_string(),
                parallelization_difficulty: "easy".to_string(),
            }],
            warnings: vec![WarningReport {
                kind: "VarWrite".to_string(),
                detail: "write to variable declared outside the loop iteration".to_string(),
                subject: format!("v{i}"),
                characterization: "for(6) ok dependence".to_string(),
                count: 3,
            }],
            obs: crate::obs::RunObs::default(),
            wall_ms: 0.0,
            worker: 0,
        }
    }

    fn stub_job(i: usize, delay_ms: u64) -> FleetJob {
        FleetJob {
            app: format!("app-{i}"),
            slug: format!("a{i}"),
            work: Arc::new(move |worker, _attempt| {
                std::thread::sleep(Duration::from_millis(delay_ms));
                let mut r = stub_report(i);
                r.worker = worker;
                r.wall_ms = delay_ms as f64;
                Ok(r)
            }),
        }
    }

    fn stub_jobs(n: usize, delay_for: impl Fn(usize) -> u64) -> Vec<FleetJob> {
        (0..n).map(|i| stub_job(i, delay_for(i))).collect()
    }

    fn stub_outcome(n: usize) -> FleetOutcome {
        FleetOutcome::new(
            "Dependence".to_string(),
            1,
            4,
            (0..n)
                .map(|i| AppOutcome {
                    app: format!("app-{i}"),
                    slug: format!("a{i}"),
                    status: AppStatus::Ok,
                    attempts: 1,
                    report: Some(stub_report(i)),
                })
                .collect(),
        )
    }

    #[test]
    fn merge_order_is_job_order_despite_out_of_order_completion() {
        // Earlier jobs sleep longest, so later jobs finish first on a
        // multi-worker pool; the merged order must still be job order.
        let jobs = stub_jobs(6, |i| (6 - i as u64) * 20);
        let outcomes = run_fleet(jobs, 4);
        let apps: Vec<_> = outcomes.iter().map(|o| o.app.as_str()).collect();
        assert_eq!(apps, ["app-0", "app-1", "app-2", "app-3", "app-4", "app-5"]);
        assert!(outcomes.iter().all(|o| o.status.is_ok()));
        let workers: std::collections::HashSet<_> = outcomes
            .iter()
            .map(|o| o.report.as_ref().unwrap().worker)
            .collect();
        assert!(
            workers.len() > 1,
            "expected multiple workers to participate: {workers:?}"
        );
    }

    #[test]
    fn workers_run_concurrently() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<FleetJob> = (0..4)
            .map(|i| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                FleetJob {
                    app: format!("app-{i}"),
                    slug: format!("a{i}"),
                    work: Arc::new(move |worker, _attempt| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(40));
                        live.fetch_sub(1, Ordering::SeqCst);
                        let mut r = stub_report(i);
                        r.worker = worker;
                        Ok(r)
                    }),
                }
            })
            .collect();
        let outcomes = run_fleet(jobs, 4);
        assert!(outcomes.iter().all(|o| o.status.is_ok()));
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "4 jobs of 40ms on 4 workers should overlap, peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn sequential_pool_still_merges_in_order() {
        let outcomes = run_fleet(stub_jobs(4, |_| 0), 1);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes
            .iter()
            .all(|o| o.report.as_ref().unwrap().worker == 0));
    }

    #[test]
    fn failures_are_recorded_per_app_without_discarding_the_rest() {
        let mut jobs = stub_jobs(3, |_| 0);
        jobs.insert(
            1,
            FleetJob {
                app: "boom".to_string(),
                slug: "boom".to_string(),
                work: Arc::new(|_, _| Err(JobError::Fatal("engine exploded".to_string()))),
            },
        );
        let outcomes = run_fleet(jobs, 2);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(
            outcomes[1].status,
            AppStatus::Failed {
                error: "engine exploded".to_string(),
                attempts: 1
            }
        );
        assert_eq!(outcomes[1].slug, "boom");
        // The other three apps all completed.
        for i in [0usize, 2, 3] {
            assert!(outcomes[i].status.is_ok(), "slot {i}: {:?}", outcomes[i]);
            assert!(outcomes[i].report.is_some());
        }
    }

    #[test]
    fn a_panicking_job_is_contained_and_named() {
        let mut jobs = stub_jobs(3, |_| 0);
        jobs.insert(
            0,
            FleetJob {
                app: "krash".to_string(),
                slug: "krash".to_string(),
                work: Arc::new(|_, _| panic!("deliberate test panic")),
            },
        );
        let outcomes = run_fleet(jobs, 2);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].slug, "krash");
        match &outcomes[0].status {
            AppStatus::Panicked { message } => {
                assert!(message.contains("deliberate test panic"), "{message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Queue stayed usable after the panic: every other app completed.
        assert_eq!(
            outcomes.iter().filter(|o| o.status.is_ok()).count(),
            3,
            "{outcomes:?}"
        );
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&tries);
        let job = FleetJob {
            app: "flaky".to_string(),
            slug: "flaky".to_string(),
            work: Arc::new(move |_, attempt| {
                t2.fetch_add(1, Ordering::SeqCst);
                if attempt < 3 {
                    Err(JobError::Transient(format!("flap {attempt}")))
                } else {
                    Ok(stub_report(0))
                }
            }),
        };
        let policy = FleetPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let outcomes = run_fleet_with(vec![job], 1, &policy);
        assert!(outcomes[0].status.is_ok(), "{:?}", outcomes[0].status);
        assert_eq!(outcomes[0].attempts, 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retries_are_bounded() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&tries);
        let job = FleetJob {
            app: "hopeless".to_string(),
            slug: "hopeless".to_string(),
            work: Arc::new(move |_, _| {
                t2.fetch_add(1, Ordering::SeqCst);
                Err(JobError::Transient("still down".to_string()))
            }),
        };
        let policy = FleetPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let outcomes = run_fleet_with(vec![job], 1, &policy);
        assert_eq!(
            outcomes[0].status,
            AppStatus::Failed {
                error: "still down".to_string(),
                attempts: 3
            }
        );
        assert_eq!(tries.load(Ordering::SeqCst), 3, "1 try + 2 retries");
    }

    #[test]
    fn job_reported_timeout_is_not_retried() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&tries);
        let job = FleetJob {
            app: "runaway".to_string(),
            slug: "runaway".to_string(),
            work: Arc::new(move |_, _| {
                t2.fetch_add(1, Ordering::SeqCst);
                Err(JobError::Timeout("tick budget exceeded".to_string()))
            }),
        };
        let outcomes = run_fleet(vec![job], 1);
        assert_eq!(
            outcomes[0].status,
            AppStatus::TimedOut {
                budget: "tick budget exceeded".to_string()
            }
        );
        assert_eq!(tries.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wall_clock_backstop_abandons_a_hard_hang() {
        let mut jobs = stub_jobs(2, |_| 0);
        jobs.push(FleetJob {
            app: "tarpit".to_string(),
            slug: "tarpit".to_string(),
            // A native hang no tick budget can see.
            work: Arc::new(|_, _| {
                std::thread::sleep(Duration::from_secs(30));
                Ok(stub_report(9))
            }),
        });
        let policy = FleetPolicy {
            wall_budget: Duration::from_millis(100),
            ..Default::default()
        };
        let outcomes = run_fleet_with(jobs, 2, &policy);
        assert_eq!(outcomes.len(), 3);
        match &outcomes[2].status {
            AppStatus::TimedOut { budget } => {
                assert!(budget.contains("wall-clock cap"), "{budget}")
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(outcomes.iter().filter(|o| o.status.is_ok()).count(), 2);
    }

    #[test]
    fn vanished_worker_slot_names_the_app() {
        // The lost-slug regression: a slot whose worker never reported must
        // still say *which* app it was.
        let slots = vec![
            (
                "app-0".to_string(),
                "a0".to_string(),
                Some(AppOutcome {
                    app: "app-0".to_string(),
                    slug: "a0".to_string(),
                    status: AppStatus::Ok,
                    attempts: 1,
                    report: Some(stub_report(0)),
                }),
            ),
            ("Ghost App".to_string(), "ghost".to_string(), None),
        ];
        let outcomes = finish_slots(slots);
        assert_eq!(outcomes[1].app, "Ghost App");
        assert_eq!(outcomes[1].slug, "ghost");
        match &outcomes[1].status {
            AppStatus::Failed { error, .. } => {
                assert!(
                    error.contains("ghost") && error.contains("worker died before reporting"),
                    "error must name the app: {error}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn exit_codes_reflect_degradation() {
        let mut o = stub_outcome(3);
        assert!(o.all_ok());
        assert_eq!(o.exit_code(), 0);
        o.apps[1].status = AppStatus::Panicked {
            message: "x".to_string(),
        };
        o.apps[1].report = None;
        assert_eq!(o.exit_code(), 3, "partial success");
        assert_eq!(o.succeeded(), 2);
        assert_eq!(o.failures().len(), 1);
        for a in &mut o.apps {
            a.status = AppStatus::TimedOut {
                budget: "b".to_string(),
            };
            a.report = None;
        }
        assert_eq!(o.exit_code(), 4, "total failure");
    }

    #[test]
    fn fault_plan_is_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new(FaultSpec::parse("panic:0.3,hang:0.1,error:0.2").unwrap(), 7);
        for i in 0..64 {
            for a in 1..4 {
                assert_eq!(plan.roll(i, a), plan.roll(i, a), "roll must be pure");
            }
        }
        // Over many rolls the empirical rates land near the spec.
        let n = 10_000usize;
        let mut counts = [0usize; 3];
        let mut none = 0usize;
        for i in 0..n {
            match plan.roll(i, 1) {
                Some(Fault::Panic) => counts[0] += 1,
                Some(Fault::Hang) => counts[1] += 1,
                Some(Fault::Error) => counts[2] += 1,
                Some(Fault::Crash) => panic!("a fault plan never rolls a crash"),
                None => none += 1,
            }
        }
        let close = |got: usize, want: f64| (got as f64 / n as f64 - want).abs() < 0.03;
        assert!(close(counts[0], 0.3), "panic rate {:?}", counts);
        assert!(close(counts[1], 0.1), "hang rate {:?}", counts);
        assert!(close(counts[2], 0.2), "error rate {:?}", counts);
        assert!(close(none, 0.4), "clean rate {none}");
        // Different seeds give different plans.
        let other = FaultPlan::new(plan.spec, 8);
        assert!(
            (0..64).any(|i| plan.roll(i, 1) != other.roll(i, 1)),
            "seed must matter"
        );
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert!(FaultSpec::parse("").unwrap().is_zero());
        let s = FaultSpec::parse("panic:0.5").unwrap();
        assert_eq!(s.panic, 0.5);
        assert_eq!(s.hang, 0.0);
        assert!(FaultSpec::parse("panic:2.0").is_err());
        assert!(FaultSpec::parse("panic:x").is_err());
        assert!(FaultSpec::parse("meteor:0.1").is_err());
        assert_eq!(
            FaultSpec::parse("crash:0.1"),
            Err("unknown fault kind `crash`".to_string())
        );
        assert!(FaultSpec::parse("panic").is_err());
    }

    #[test]
    fn json_round_trip_preserves_the_outcome() {
        let mut outcome = stub_outcome(3);
        outcome.apps[2].status = AppStatus::Failed {
            error: "engine exploded".to_string(),
            attempts: 3,
        };
        outcome.apps[2].report = None;
        let json = outcome.to_json();
        let back: FleetOutcome = serde_json::from_str(&json).expect("parses");
        assert_eq!(outcome, back);
        // Compact round trip too.
        let compact = serde_json::to_string(&outcome).expect("serializes");
        let back2: FleetOutcome = serde_json::from_str(&compact).expect("parses");
        assert_eq!(outcome, back2);
    }

    #[test]
    fn canonical_zeroes_scheduling_noise() {
        let mut outcome = stub_outcome(1);
        outcome.workers = 8;
        let r = outcome.apps[0].report.as_mut().unwrap();
        r.wall_ms = 123.4;
        r.worker = 7;
        let canon = outcome.canonical();
        assert_eq!(canon.workers, 0);
        let cr = canon.apps[0].report.as_ref().unwrap();
        assert_eq!(cr.wall_ms, 0.0);
        assert_eq!(cr.worker, 0);
        // Everything else survives.
        assert_eq!(canon.apps[0].app, "app-0");
        assert_eq!(cr.nests, outcome.apps[0].report.as_ref().unwrap().nests);
    }

    #[test]
    fn renderings_exclude_nondeterministic_fields_and_show_status() {
        let mk = |worker: usize, wall: f64| {
            let mut o = stub_outcome(2);
            o.workers = worker + 1;
            for a in &mut o.apps {
                let r = a.report.as_mut().unwrap();
                r.worker = worker;
                r.wall_ms = wall;
            }
            o.apps[1].status = AppStatus::TimedOut {
                budget: "tick budget exceeded (9 > 8)".to_string(),
            };
            o.apps[1].report = None;
            o
        };
        let a = mk(0, 1.0);
        let b = mk(7, 999.0);
        assert_eq!(a.render_table2(), b.render_table2());
        assert_eq!(a.render_table3(), b.render_table3());
        assert!(
            a.render_table2().contains("timed-out"),
            "{}",
            a.render_table2()
        );
        assert!(
            a.render_table3().contains("<timed-out>"),
            "{}",
            a.render_table3()
        );
        let status = a.render_status();
        assert!(status.contains("a0"), "{status}");
        assert!(status.contains("tick budget exceeded"), "{status}");
    }
}
