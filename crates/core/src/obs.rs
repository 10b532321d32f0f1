//! Observability: phase-stamped tracing and a versioned metrics surface.
//!
//! The paper's headline measurement caveat (Sec. 3.4) is that dependence
//! instrumentation is far more expensive than lightweight profiling — yet
//! until this module the fleet reported only end results, with no
//! visibility into where time goes per app, per phase, or per retry. This
//! module threads a lightweight, zero-dependency tracing layer through the
//! whole pipeline:
//!
//! * every run records [`PhaseSpan`]s for the five pipeline phases
//!   (`parse → rewrite → interp → analyze → report`), stamped with both
//!   the deterministic virtual-clock tick range *and* wall time;
//! * [`Counters`] tally interpreter ticks, profiler samples, processed
//!   events, per-hook invocations, dependence-stack pushes, retries, and
//!   watchdog arms;
//! * [`FleetMetrics`] merges per-app records in registry order into the
//!   versioned JSON document behind `jsceres analyze-all --metrics`
//!   (schema documented in `docs/METRICS.md`);
//! * [`chrome_trace`] renders the spans as a Chrome `about:tracing` /
//!   Perfetto-loadable event array for eyeballing worker occupancy
//!   (the `--trace` flag).
//!
//! Determinism: tick-denominated fields are pure functions of the seeded
//! virtual clock and are byte-identical across worker counts; wall-clock
//! fields are scheduling noise and are zeroed by the `canonical`/
//! `deterministic` views (see [`RunObs::canonical`] and
//! [`FleetMetrics::from_outcome`]).

#![deny(missing_docs)]

use crate::serve::Frame;
use crate::supervisor::FrameSink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Version of the `--metrics` JSON document layout. Bump on any breaking
/// change and update `docs/METRICS.md` alongside.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Canonical phase names, in pipeline order (Fig. 5 steps 2–6).
pub const PHASES: &[&str] = &["parse", "rewrite", "interp", "analyze", "report"];

/// One timed pipeline phase of one app run.
///
/// Ticks and wall time answer different questions: the tick range is the
/// *simulated* cost on the deterministic virtual clock (identical on every
/// run), while `wall_us` is the *real* cost on this machine (scheduling
/// noise; zeroed under the deterministic views). Phases that never enter
/// the interpreter (`parse`, `rewrite`) have `start_ticks == end_ticks`:
/// the virtual clock only advances while JavaScript executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name; one of [`PHASES`].
    pub phase: String,
    /// Virtual-clock reading when the phase began, in ticks.
    pub start_ticks: u64,
    /// Virtual-clock reading when the phase ended, in ticks.
    pub end_ticks: u64,
    /// Wall-clock offset of the phase start from the start of the run, in
    /// microseconds. Nondeterministic.
    pub wall_start_us: u64,
    /// Wall-clock duration of the phase, in microseconds. Nondeterministic.
    pub wall_us: u64,
}

impl PhaseSpan {
    /// Virtual-clock ticks the phase consumed.
    pub fn ticks(&self) -> u64 {
        self.end_ticks.saturating_sub(self.start_ticks)
    }

    /// Copy with the wall-clock (nondeterministic) fields zeroed.
    pub fn canonical(&self) -> PhaseSpan {
        PhaseSpan {
            wall_start_us: 0,
            wall_us: 0,
            ..self.clone()
        }
    }
}

// ---------------------------------------------------------------------
// Live frame sink (streaming serve protocol)
// ---------------------------------------------------------------------

thread_local! {
    static FRAME_SINK: RefCell<Option<FrameSink>> = const { RefCell::new(None) };
}

/// Restores the previously installed sink (usually `None`) when
/// dropped, so a panicking attempt cannot leak its sink into the next
/// job that reuses the thread.
pub struct FrameSinkGuard {
    prev: Option<FrameSink>,
}

impl Drop for FrameSinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        FRAME_SINK.with(|cell| *cell.borrow_mut() = prev);
    }
}

/// Install a frame sink on *this thread* for the lifetime of the
/// returned guard. The pipeline calls it synchronously, the moment it
/// records them, with a `phase` frame per phase and the `partial`
/// timing row, so a job wrapper ([`crate::supervisor::run_job`])
/// installs one on the runner thread to stream them mid-run. Every
/// other consumer (fleet, CLIs) leaves the sink uninstalled and pays one
/// thread-local read per frame.
pub fn install_frame_sink(sink: FrameSink) -> FrameSinkGuard {
    let prev = FRAME_SINK.with(|cell| cell.borrow_mut().replace(sink));
    FrameSinkGuard { prev }
}

/// Feed the frame `make` builds to this thread's sink; without a sink
/// the frame is not built. The sink is taken out for the duration of
/// the call, so a sink that (indirectly) records a span does not recurse
/// or double-borrow.
pub fn emit_frame(make: impl FnOnce() -> Frame) {
    let taken = FRAME_SINK.with(|cell| cell.borrow_mut().take());
    if let Some(mut sink) = taken {
        sink(make());
        FRAME_SINK.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.is_none() {
                *slot = Some(sink);
            }
        });
    }
}

/// Stream `span` as a `phase` frame, which carries its tick range only.
fn emit_phase(span: &PhaseSpan) {
    emit_frame(|| Frame::Phase {
        phase: span.phase.clone(),
        start_ticks: span.start_ticks,
        end_ticks: span.end_ticks,
    });
}

/// Monotonic event counters for one app run (or, in
/// [`FleetMetrics::totals`], summed over the whole fleet in registry
/// order). All fields are deterministic: they count virtual-clock or
/// hook-level events, never wall time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Counters {
    /// Final virtual-clock reading, in ticks (one tick ≈ one AST node).
    pub interp_ticks: u64,
    /// Samples the simulated profiler took (one per `SAMPLE_INTERVAL`).
    pub samples: u64,
    /// Events the interpreter drained from its queue (timers, dispatches).
    pub events: u64,
    /// Total `__ceres_*` hook invocations, all hooks summed.
    pub hook_calls: u64,
    /// Per-hook invocation counts, hook name → count. Only hooks that
    /// fired at least once appear; BTreeMap keeps the order deterministic.
    pub hooks: BTreeMap<String, u64>,
    /// Pushes onto the engine's characterization (loop) stack.
    pub stack_pushes: u64,
    /// Deduplicated dependence warnings the engine recorded.
    pub warnings: u64,
    /// Retries the fleet supervisor consumed for this app
    /// (`attempts - 1`; 0 for a first-try success or a standalone run).
    pub retries: u64,
    /// Watchdog layers armed across all attempts: per attempt, one for the
    /// wall-clock backstop plus one if a tick budget was set.
    pub watchdog_arms: u64,
}

impl Counters {
    /// Accumulate `other` into `self` (used for the fleet-wide totals).
    pub fn merge(&mut self, other: &Counters) {
        self.interp_ticks += other.interp_ticks;
        self.samples += other.samples;
        self.events += other.events;
        self.hook_calls += other.hook_calls;
        for (name, n) in &other.hooks {
            *self.hooks.entry(name.clone()).or_insert(0) += n;
        }
        self.stack_pushes += other.stack_pushes;
        self.warnings += other.warnings;
        self.retries += other.retries;
        self.watchdog_arms += other.watchdog_arms;
    }
}

/// The observability record carried by one app run: its phase spans plus
/// its counters. Built by the pipeline, reduced into
/// [`crate::fleet::AppReport`] on the worker thread.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunObs {
    /// Pipeline phases in execution order.
    pub spans: Vec<PhaseSpan>,
    /// Event counters for the run.
    pub counters: Counters,
    /// Wall-clock offset of this run's start from the fleet epoch, in
    /// microseconds (0 for standalone runs). Nondeterministic.
    pub wall_start_us: u64,
}

impl RunObs {
    /// The span for `phase`, if recorded.
    pub fn span(&self, phase: &str) -> Option<&PhaseSpan> {
        self.spans.iter().find(|s| s.phase == phase)
    }

    /// Wall offset at which the last recorded span ended, in microseconds
    /// (0 with no spans). Used to chain phases recorded after the
    /// pipeline's own stopwatch was consumed.
    pub fn last_wall_end_us(&self) -> u64 {
        self.spans
            .last()
            .map(|s| s.wall_start_us + s.wall_us)
            .unwrap_or(0)
    }

    /// Append a phase that ran after interpretation finished (`analyze`,
    /// `report`): its tick range is frozen at the final clock reading (the
    /// virtual clock only advances while JavaScript runs), its wall start
    /// chains onto the previous span, and `wall_us` is measured by the
    /// caller.
    pub fn push_post_phase(&mut self, phase: &str, wall_us: u64) {
        let end_ticks = self.spans.iter().map(|s| s.end_ticks).max().unwrap_or(0);
        let wall_start_us = self.last_wall_end_us();
        let span = PhaseSpan {
            phase: phase.to_string(),
            start_ticks: end_ticks,
            end_ticks,
            wall_start_us,
            wall_us,
        };
        emit_phase(&span);
        self.spans.push(span);
    }

    /// Copy with every wall-clock (nondeterministic) field zeroed; the
    /// remaining fields are pure functions of the seeded virtual clock.
    ///
    /// Sub-spans (dotted names like `interp.compile`) are dropped: they
    /// measure wall time only, so a zeroed copy carries no information,
    /// and the canonical span list is pinned to the 5-phase schema by the
    /// deterministic-metrics goldens.
    pub fn canonical(&self) -> RunObs {
        RunObs {
            spans: self
                .spans
                .iter()
                .filter(|s| PHASES.contains(&s.phase.as_str()))
                .map(PhaseSpan::canonical)
                .collect(),
            counters: self.counters.clone(),
            wall_start_us: 0,
        }
    }
}

/// Wall-clock stopwatch for recording [`PhaseSpan`]s; pairs an `Instant`
/// with the span list so call sites stay one-liners.
pub struct SpanRecorder {
    t0: std::time::Instant,
    spans: Vec<PhaseSpan>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// Start the stopwatch; the first phase's `wall_start_us` is 0.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            t0: std::time::Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Current wall offset since the stopwatch started, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Record a phase that ran from `wall_start_us` (a prior [`Self::now_us`]
    /// reading) to now, spanning the given virtual-clock tick range.
    pub fn record(&mut self, phase: &str, start_ticks: u64, end_ticks: u64, wall_start_us: u64) {
        let wall_us = self.now_us().saturating_sub(wall_start_us);
        let span = PhaseSpan {
            phase: phase.to_string(),
            start_ticks,
            end_ticks,
            wall_start_us,
            wall_us,
        };
        emit_phase(&span);
        self.spans.push(span);
    }

    /// Record a sub-span whose duration was measured elsewhere (e.g. the
    /// interpreter's own bytecode-lowering stopwatch). Unlike
    /// [`Self::record`] the wall duration is supplied, not read off this
    /// recorder's clock, so the sub-span can be filed under its parent
    /// phase's start offset.
    pub fn record_measured(
        &mut self,
        phase: &str,
        start_ticks: u64,
        end_ticks: u64,
        wall_start_us: u64,
        wall_us: u64,
    ) {
        self.spans.push(PhaseSpan {
            phase: phase.to_string(),
            start_ticks,
            end_ticks,
            wall_start_us,
            wall_us,
        });
    }

    /// The recorded spans, in recording order.
    pub fn into_spans(self) -> Vec<PhaseSpan> {
        self.spans
    }
}

/// Per-app entry in [`FleetMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppMetrics {
    /// Display name (Table 1 "Name").
    pub app: String,
    /// Short identifier for files/CLI.
    pub slug: String,
    /// Terminal status label: `ok`, `failed(N)`, `panicked`, `timed-out`.
    pub status: String,
    /// Attempts the supervisor consumed (1 for a first-try success).
    pub attempts: u32,
    /// Worker that ran the final attempt. Nondeterministic; 0 under the
    /// deterministic view.
    pub worker: usize,
    /// Real wall-clock the worker spent, in milliseconds.
    /// Nondeterministic; 0 under the deterministic view.
    pub wall_ms: f64,
    /// Wall offset of the run start from the fleet epoch, in microseconds.
    /// Nondeterministic; 0 under the deterministic view.
    pub wall_start_us: u64,
    /// Phase spans of the final attempt (empty if the app never finished).
    pub spans: Vec<PhaseSpan>,
    /// Counters of the final attempt, plus supervisor-level
    /// `retries`/`watchdog_arms` filled from the outcome.
    pub counters: Counters,
}

/// The versioned `--metrics` document: one entry per app in registry
/// (job) order, plus fleet-wide totals. See `docs/METRICS.md` for the
/// field-by-field schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Layout version of this document ([`METRICS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// True when wall-clock/worker fields were zeroed for byte-stable
    /// comparison across worker counts (`--deterministic`).
    pub deterministic: bool,
    /// Instrumentation mode the fleet ran under (`Debug` rendering).
    pub mode: String,
    /// Workload problem-size multiplier.
    pub scale: u32,
    /// Worker-pool size. 0 under the deterministic view.
    pub workers: usize,
    /// Per-app metrics, in job (registry) order.
    pub apps: Vec<AppMetrics>,
    /// Deterministic counters summed over all apps in registry order.
    pub totals: Counters,
}

impl FleetMetrics {
    /// Build the metrics document from a merged fleet outcome.
    ///
    /// Supervisor-level counters are derived per app: `retries` is
    /// `attempts - 1`, and `watchdog_arms` counts armed watchdog layers
    /// across attempts (the wall-clock backstop always arms; the tick
    /// budget arms when the policy sets one). With `deterministic`, every
    /// wall-clock/worker field is zeroed so the document is byte-identical
    /// across worker counts.
    pub fn from_outcome(
        outcome: &crate::fleet::FleetOutcome,
        policy: &crate::fleet::FleetPolicy,
        deterministic: bool,
    ) -> FleetMetrics {
        let layers_per_attempt = 1 + u64::from(policy.tick_budget.is_some());
        let mut totals = Counters::default();
        let apps = outcome
            .apps
            .iter()
            .map(|a| {
                let obs = a
                    .report
                    .as_ref()
                    .map(|r| {
                        if deterministic {
                            r.obs.canonical()
                        } else {
                            r.obs.clone()
                        }
                    })
                    .unwrap_or_default();
                let mut counters = obs.counters.clone();
                counters.retries = u64::from(a.attempts.saturating_sub(1));
                counters.watchdog_arms = u64::from(a.attempts) * layers_per_attempt;
                totals.merge(&counters);
                AppMetrics {
                    app: a.app.clone(),
                    slug: a.slug.clone(),
                    status: a.status.label(),
                    attempts: a.attempts,
                    worker: a
                        .report
                        .as_ref()
                        .map(|r| if deterministic { 0 } else { r.worker })
                        .unwrap_or(0),
                    wall_ms: a
                        .report
                        .as_ref()
                        .map(|r| if deterministic { 0.0 } else { r.wall_ms })
                        .unwrap_or(0.0),
                    wall_start_us: obs.wall_start_us,
                    spans: obs.spans,
                    counters,
                }
            })
            .collect();
        FleetMetrics {
            schema_version: METRICS_SCHEMA_VERSION,
            deterministic,
            mode: outcome.mode.clone(),
            scale: outcome.scale,
            workers: if deterministic { 0 } else { outcome.workers },
            apps,
            totals,
        }
    }

    /// Build a single-app metrics document (the `jsceres <file> --metrics`
    /// path) so standalone runs share the fleet schema: one `apps` entry,
    /// `workers = 1`, totals equal to that app's counters.
    pub fn single(
        app: &str,
        slug: &str,
        mode: &str,
        obs: &RunObs,
        deterministic: bool,
    ) -> FleetMetrics {
        let obs = if deterministic {
            obs.canonical()
        } else {
            obs.clone()
        };
        FleetMetrics {
            schema_version: METRICS_SCHEMA_VERSION,
            deterministic,
            mode: mode.to_string(),
            scale: 1,
            workers: if deterministic { 0 } else { 1 },
            apps: vec![AppMetrics {
                app: app.to_string(),
                slug: slug.to_string(),
                status: "ok".to_string(),
                attempts: 1,
                worker: 0,
                wall_ms: 0.0,
                wall_start_us: obs.wall_start_us,
                spans: obs.spans.clone(),
                counters: obs.counters.clone(),
            }],
            totals: obs.counters,
        }
    }

    /// Pretty-printed JSON document, trailing newline included (the
    /// `--metrics` artifact).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("FleetMetrics serializes");
        s.push('\n');
        s
    }
}

/// Render the fleet's spans as a Chrome trace-event array (load in
/// `about:tracing` or [Perfetto](https://ui.perfetto.dev)): one complete
/// (`"ph": "X"`) event per phase span, one event per line, timestamped
/// with the wall offset from the fleet epoch and laid out one trace thread
/// per worker — worker occupancy is visible at a glance. The `--trace`
/// artifact.
pub fn chrome_trace(metrics: &FleetMetrics) -> String {
    /// One trace event; fields serialize in the trace-event order.
    #[derive(Serialize)]
    struct Event {
        name: String,
        cat: String,
        ph: &'static str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: usize,
        args: EventArgs,
    }
    #[derive(Serialize)]
    struct EventArgs {
        ticks: u64,
        app: String,
    }
    let mut events = Vec::new();
    for a in &metrics.apps {
        for s in &a.spans {
            let event = Event {
                name: format!("{}:{}", a.slug, s.phase),
                cat: s.phase.clone(),
                ph: "X",
                ts: a.wall_start_us + s.wall_start_us,
                dur: s.wall_us,
                pid: 0,
                tid: a.worker,
                args: EventArgs {
                    ticks: s.ticks(),
                    app: a.app.clone(),
                },
            };
            events.push(serde_json::to_string(&event).expect("a trace event serializes"));
        }
    }
    format!("[\n{}\n]\n", events.join(",\n"))
}

/// Serving-layer counters for `jsceresd` (see [`mod@crate::serve`]): cache
/// traffic, queue pressure, and the cumulative interpreter-tick odometer
/// that proves warm hits never re-enter the interpreter. Kept separate
/// from [`Counters`] on purpose — `Counters` is part of the byte-pinned
/// per-run metrics schema, while this struct describes one *process*
/// serving many runs and is surfaced only through the daemon's `stats`
/// op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// Analysis requests accepted (cache hits included).
    pub requests: u64,
    /// Requests answered from the content-addressed cache: the cache's
    /// own [`crate::cache::ShardedCacheStats::hits`].
    pub cache_hits: u64,
    /// Requests that had to run the pipeline: the cache's own
    /// [`crate::cache::ShardedCacheStats::misses`].
    pub cache_misses: u64,
    /// Cache entries evicted to respect the capacity bound: the cache's
    /// own [`crate::cache::ShardedCacheStats::evictions`].
    pub cache_evictions: u64,
    /// Requests rejected because the bounded job queue was full.
    pub rejected_queue_full: u64,
    /// Requests rejected because the daemon was draining.
    pub rejected_draining: u64,
    /// Peak instantaneous depth of the job queue.
    pub queue_peak_depth: u64,
    /// Jobs that completed with [`crate::fleet::AppStatus::Ok`].
    pub jobs_ok: u64,
    /// Jobs that ended in any non-`Ok` status.
    pub jobs_failed: u64,
    /// Cumulative virtual interpreter ticks spent across all served jobs.
    /// Unchanged across a warm hit — the zero-new-ticks proof.
    pub interp_ticks: u64,
    /// Worker *processes* restarted by the supervisor after a crash
    /// (always 0 on the in-process backend).
    pub worker_restarts: u64,
    /// Jobs admitted past the in-memory ring into the on-disk spill
    /// queue.
    pub jobs_spilled: u64,
    /// Spilled jobs recovered from a persistent spill directory at
    /// startup and re-executed.
    pub spill_replayed: u64,
    /// Peak instantaneous depth of the on-disk spill queue.
    pub spill_peak_depth: u64,
    /// Queued-but-unstarted jobs flushed to the spill file at drain time
    /// (the never-silently-dropped guarantee).
    pub jobs_flushed_on_drain: u64,
    /// Analyze requests served over the schema-2 streaming protocol
    /// (`stream:true`).
    pub streams: u64,
    /// Non-terminal frames (accepted/phase/partial/notice) written to
    /// streaming clients. Terminal result/error lines are not counted —
    /// they exist on the one-shot wire too.
    pub frames_streamed: u64,
    /// `notice` frames sent the moment a streaming client's job was
    /// parked on the disk spill queue (admission-time, not drain-time).
    pub spill_notices: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{AppOutcome, AppReport, AppStatus, FleetOutcome, FleetPolicy};

    fn span(phase: &str, t0: u64, t1: u64, w0: u64, w: u64) -> PhaseSpan {
        PhaseSpan {
            phase: phase.to_string(),
            start_ticks: t0,
            end_ticks: t1,
            wall_start_us: w0,
            wall_us: w,
        }
    }

    fn obs_fixture() -> RunObs {
        let mut counters = Counters {
            interp_ticks: 9000,
            samples: 4,
            events: 2,
            hook_calls: 30,
            hooks: BTreeMap::new(),
            stack_pushes: 5,
            warnings: 1,
            retries: 0,
            watchdog_arms: 0,
        };
        counters.hooks.insert("__ceres_loop_enter".to_string(), 5);
        counters.hooks.insert("__ceres_iter".to_string(), 25);
        RunObs {
            spans: vec![
                span("parse", 0, 0, 0, 120),
                span("rewrite", 0, 0, 120, 80),
                span("interp", 0, 9000, 200, 700),
            ],
            counters,
            wall_start_us: 42,
        }
    }

    #[test]
    fn canonical_zeroes_wall_but_keeps_ticks() {
        let c = obs_fixture().canonical();
        assert_eq!(c.wall_start_us, 0);
        assert!(c
            .spans
            .iter()
            .all(|s| s.wall_start_us == 0 && s.wall_us == 0));
        assert_eq!(c.span("interp").unwrap().ticks(), 9000);
        assert_eq!(c.counters.hook_calls, 30);
    }

    #[test]
    fn canonical_drops_wall_only_sub_spans() {
        let mut obs = obs_fixture();
        obs.spans.push(span("interp.compile", 0, 0, 200, 55));
        let c = obs.canonical();
        assert!(c.span("interp.compile").is_none());
        let phases: Vec<_> = c.spans.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(phases, ["parse", "rewrite", "interp"]);
    }

    #[test]
    fn counters_merge_sums_fields_and_hooks() {
        let mut a = obs_fixture().counters;
        let b = obs_fixture().counters;
        a.merge(&b);
        assert_eq!(a.interp_ticks, 18000);
        assert_eq!(a.hooks["__ceres_iter"], 50);
        assert_eq!(a.hook_calls, 60);
    }

    #[test]
    fn span_recorder_orders_spans_and_measures_wall() {
        let mut rec = SpanRecorder::new();
        let w0 = rec.now_us();
        rec.record("parse", 0, 0, w0);
        let w1 = rec.now_us();
        rec.record("interp", 0, 500, w1);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, "parse");
        assert_eq!(spans[1].phase, "interp");
        assert_eq!(spans[1].ticks(), 500);
        assert!(spans[1].wall_start_us >= spans[0].wall_start_us);
    }

    fn stub_outcome(deterministic_noise: bool) -> FleetOutcome {
        let mut report = AppReport {
            app: "N-body".to_string(),
            slug: "nbody".to_string(),
            mode: "Dependence".to_string(),
            total_ms: 4.5,
            active_ms: 2.0,
            loops_ms: 3.0,
            loop_pct: 66.7,
            nests: Vec::new(),
            warnings: Vec::new(),
            obs: obs_fixture(),
            wall_ms: 0.0,
            worker: 0,
        };
        if deterministic_noise {
            report.wall_ms = 123.0;
            report.worker = 3;
        }
        FleetOutcome::new(
            "Dependence".to_string(),
            1,
            if deterministic_noise { 8 } else { 1 },
            vec![
                AppOutcome {
                    app: "N-body".to_string(),
                    slug: "nbody".to_string(),
                    status: AppStatus::Ok,
                    attempts: 1,
                    report: Some(report),
                },
                AppOutcome {
                    app: "Ghost".to_string(),
                    slug: "ghost".to_string(),
                    status: AppStatus::Failed {
                        error: "boom".to_string(),
                        attempts: 3,
                    },
                    attempts: 3,
                    report: None,
                },
            ],
        )
    }

    #[test]
    fn metrics_fill_supervisor_counters_and_totals() {
        let policy = FleetPolicy {
            tick_budget: Some(1_000_000),
            ..Default::default()
        };
        let m = FleetMetrics::from_outcome(&stub_outcome(false), &policy, false);
        assert_eq!(m.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!(m.apps.len(), 2);
        // First-try success: no retries, both watchdog layers armed once.
        assert_eq!(m.apps[0].counters.retries, 0);
        assert_eq!(m.apps[0].counters.watchdog_arms, 2);
        // Failed after 3 attempts: 2 retries, 3 × 2 layers.
        assert_eq!(m.apps[1].counters.retries, 2);
        assert_eq!(m.apps[1].counters.watchdog_arms, 6);
        assert!(m.apps[1].spans.is_empty(), "no report → no spans");
        assert_eq!(m.totals.retries, 2);
        assert_eq!(m.totals.watchdog_arms, 8);
        assert_eq!(m.totals.interp_ticks, 9000);
    }

    #[test]
    fn deterministic_view_is_stable_across_scheduling_noise() {
        let policy = FleetPolicy::default();
        let a = FleetMetrics::from_outcome(&stub_outcome(false), &policy, true);
        let b = FleetMetrics::from_outcome(&stub_outcome(true), &policy, true);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.workers, 0);
        assert!(a.deterministic);
        // The non-deterministic view differs (wall/worker fields survive).
        let c = FleetMetrics::from_outcome(&stub_outcome(true), &policy, false);
        assert_ne!(a.to_json(), c.to_json());
        assert_eq!(c.apps[0].worker, 3);
    }

    #[test]
    fn metrics_json_round_trips() {
        let m = FleetMetrics::from_outcome(&stub_outcome(true), &FleetPolicy::default(), false);
        let back: FleetMetrics = serde_json::from_str(&m.to_json()).expect("parses");
        assert_eq!(m, back);
    }

    #[test]
    fn single_run_document_shares_the_fleet_schema() {
        let m = FleetMetrics::single("N-body", "nbody", "Dependence", &obs_fixture(), true);
        assert_eq!(m.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!(m.apps.len(), 1);
        assert_eq!(m.totals, m.apps[0].counters);
        assert_eq!(m.apps[0].wall_start_us, 0, "deterministic zeroes wall");
        let back: FleetMetrics = serde_json::from_str(&m.to_json()).expect("parses");
        assert_eq!(m, back);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let m = FleetMetrics::from_outcome(&stub_outcome(true), &FleetPolicy::default(), false);
        let trace = chrome_trace(&m);
        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let events = parsed.as_array().expect("array");
        assert_eq!(events.len(), 3, "3 spans on the one reporting app");
        let e0 = &events[0];
        assert_eq!(e0.get("name").and_then(|v| v.as_str()), Some("nbody:parse"));
        assert_eq!(e0.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(e0.get("tid").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            e0.get("ts").and_then(|v| v.as_u64()),
            Some(42),
            "fleet epoch offset + span offset"
        );
        let ticks = events[2].get("args").and_then(|a| a.get("ticks"));
        assert_eq!(ticks.and_then(|v| v.as_u64()), Some(9000));
        assert_eq!(
            trace.lines().count(),
            2 + events.len(),
            "one event per line"
        );

        // A name holding `"` or `\` survives into the trace as itself.
        let quoted =
            FleetMetrics::single(r#"q"x\y"#, r#"q"x\y"#, "Dependence", &obs_fixture(), true);
        let trace = chrome_trace(&quoted);
        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let e0 = &parsed.as_array().expect("array")[0];
        assert_eq!(
            e0.get("name").and_then(|v| v.as_str()),
            Some(r#"q"x\y:parse"#)
        );
        let app = e0.get("args").and_then(|a| a.get("app"));
        assert_eq!(app.and_then(|v| v.as_str()), Some(r#"q"x\y"#));
    }
}
