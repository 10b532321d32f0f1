//! `jsceresd`: the persistent analysis service.
//!
//! Five PRs in, the daemon was a *single process* with a bounded
//! in-memory queue: a segfault-class failure killed it, a burst past the
//! queue bound rejected jobs, and a restart lost the entire result
//! cache. This module is the serving core of the multi-process redesign
//! (see `docs/OPERATIONS.md` for the operator's view):
//!
//! 1. **A stable, versioned wire surface.** Clients send one
//!    line-delimited JSON [`AnalysisRequest`] per request over TCP. A
//!    default (one-shot) request is answered with a single JSON
//!    envelope rendered at [`ONESHOT_SCHEMA_VERSION`] — byte-identical
//!    to every prior PR and golden-pinned. A `stream:true` request is
//!    answered with the schema-2 multi-frame protocol
//!    ([`crate::fleet::API_SCHEMA_VERSION`]): `accepted`, per-phase
//!    `phase` frames as each pipeline phase completes, an early
//!    `partial` timing frame, `notice` frames for queue events, and a
//!    terminal `result`/`error` frame whose payload fragment is the
//!    *same bytes* the one-shot envelope carries. All frames are built
//!    by one [`render_frame`] (the one-shot envelope is the degenerate
//!    single-`result` render). The request fields map 1:1 onto the
//!    [`AnalyzeOptions`] fields, so the daemon, `jsceres`, and
//!    `repro fleet` all speak the same options vocabulary.
//! 2. **A sharded, persistent, content-addressed result cache.** Each
//!    analyze request is keyed by [`crate::cache::CacheKey`]; keys route
//!    to one of N [`ShardedCache`] shards (per-shard locks, per-shard
//!    FIFO eviction), and — with a cache directory configured — every
//!    insert is written through to a shard file and reloaded on the next
//!    start, so a restarted daemon serves warm hits **byte-identically**
//!    with zero new interpreter ticks.
//! 3. **One job path, two transports.** [`resolve`] maps a request to
//!    its [`ResolvedJob`] and [`CacheKey`], once per process: admission
//!    resolves each request, looks its key up, and a ring job carries
//!    that resolution to its worker thread. Only a job popped from the
//!    spill file is resolved again, from its spec. Each worker thread
//!    pops the next admitted job and supervises it with
//!    [`crate::supervisor::run_job`], which runs a resolved job and
//!    resolves nothing. With a [`crate::supervisor::WorkerSpec`]
//!    configured (the `jsceresd` default), each worker thread owns one
//!    worker *process* (`jsceresd --worker`) that resolves the job line
//!    once and calls `run_job` with its stdout as the frame sink; a
//!    crash costs one job, the supervisor restarts the worker with
//!    bounded backoff, and the daemon keeps serving. Without a spec
//!    (library/test default, `jsceresd --in-process`) the worker thread
//!    calls `run_job` itself, with the client's channel as the sink.
//!    Either way a job's `phase` frames, `parse` and `rewrite` included,
//!    come from the same run that produces its result, and its work is
//!    the fleet's page runner ([`crate::fleet::page_work`]) under the
//!    fleet's fault injector ([`crate::fleet::with_faults`]).
//! 4. **Spill-to-disk admission.** The in-memory ring holds up to
//!    `queue_capacity` jobs; overflow is appended to a crash-safe
//!    [`SpillQueue`] segment file and drained strictly FIFO behind the
//!    ring, so bursts queue on disk instead of being rejected — and a
//!    streaming client is told by an immediate `notice` frame the
//!    moment its job is parked on disk, not only at drain time.
//!
//! Shutdown is a graceful drain: a `shutdown` op (or
//! [`ServerHandle::shutdown`], or SIGTERM via
//! [`ServerHandle::request_drain`]) stops the accept loop and rejects
//! new analyze requests; jobs already *running* complete and answer
//! their clients, while the queued tail is flushed to the spill file —
//! never silently dropped — and those clients get an explicit
//! `draining` response telling them to retry after restart.
//!
//! Responses always use the canonical (deterministic) view of reports
//! and metrics: a content-addressed cache makes wall-clock noise
//! observable (a warm hit would otherwise return some *other* run's
//! timings), so the served artifact is defined to be the part that is a
//! pure function of the request. See `docs/SERVING.md` for the protocol
//! reference and `docs/OPERATIONS.md` for deployment.

#![deny(missing_docs)]

use crate::cache::{CacheKey, Digested, ShardedCache};
use crate::fleet::{
    page_work, with_faults, AppOutcome, Fault, FleetPolicy, JobWork, API_SCHEMA_VERSION,
};
use crate::obs::{FleetMetrics, ServeCounters};
use crate::pipeline::{AnalyzeOptions, Document};
use crate::spill::SpillQueue;
use crate::supervisor::{run_job, FrameSink, SlotOutcome, WorkerResponse, WorkerSlot, WorkerSpec};
use ceres_dom::DomHandle;
use ceres_instrument::Mode;
use ceres_interp::{Interp, JsResult};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often an idle connection handler wakes up to check for drain.
const READ_POLL: Duration = Duration::from_millis(200);

/// Version stamp of the `stats` op payload (see `docs/METRICS.md`).
/// 2 added the multi-process fields (spill, shards, worker restarts);
/// 3 added the streaming fields: `exec_depth` in the payload and
/// `streams`/`frames_streamed`/`spill_notices` in the counters; 4
/// removed `exec_depth` with the exec queue it measured.
pub const SERVE_STATS_SCHEMA: u32 = 4;

/// Schema stamp of the legacy one-shot envelope — and of every
/// non-analyze op (`ping`, `stats`, `shutdown`), which are one-shot by
/// nature. A request without `stream:true` is answered exactly as
/// before the streaming protocol existed: one `"schema":1` line,
/// byte-identical and golden-pinned. [`API_SCHEMA_VERSION`] (2) is the
/// multi-frame streaming protocol.
pub const ONESHOT_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// One request line. Every field is optional on the wire; `op` defaults
/// to `"analyze"` and the analysis fields default per [`ServeConfig`].
/// The analysis fields mirror the [`AnalyzeOptions`] fields one-to-one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisRequest {
    /// `"analyze"` (default), `"ping"`, `"stats"`, or `"shutdown"`.
    pub op: Option<String>,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// Registry workload slug to analyze (mutually exclusive with
    /// `source`).
    pub app: Option<String>,
    /// Raw JavaScript (or HTML with inline scripts) to analyze.
    pub source: Option<String>,
    /// Instrumentation mode: `lightweight`, `loop-profile`, `dependence`.
    pub mode: Option<String>,
    /// Virtual-clock seed.
    pub seed: Option<u64>,
    /// Dependence-mode focus loop id.
    pub focus: Option<u32>,
    /// Event-processing cap.
    pub max_events: Option<u64>,
    /// Deterministic watchdog tick budget.
    pub max_ticks: Option<u64>,
    /// Registry workload scale factor.
    pub scale: Option<u32>,
    /// Fault to inject into this request's job (`panic`, `hang`, `error`,
    /// or — process-worker backend only — `crash`), exercising the
    /// supervisor; injected requests are never cached.
    pub inject: Option<String>,
    /// `true` ⇒ answer with the schema-2 multi-frame stream
    /// (`accepted`/`phase`/`partial`/`notice` frames before the
    /// terminal `result`/`error`). Absent or `false` ⇒ the schema-1
    /// one-shot envelope, byte-identical to pre-streaming servers.
    pub stream: Option<bool>,
}

/// Parse a mode name as accepted on the CLI and the wire. The single
/// source of truth — the shared bin args module delegates here.
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "light" | "lightweight" | "lw" => Ok(Mode::Lightweight),
        "loop" | "loops" | "profile" | "loop-profile" => Ok(Mode::LoopProfile),
        "dep" | "deps" | "dependence" => Ok(Mode::Dependence),
        other => Err(format!(
            "unknown mode `{other}` (want lightweight|loop-profile|dependence)"
        )),
    }
}

/// The canonical wire spelling of a mode (parseable by [`parse_mode`]).
pub fn mode_wire_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Lightweight => "lightweight",
        Mode::LoopProfile => "loop-profile",
        Mode::Dependence => "dependence",
    }
}

/// Minimal JSON string escaping for hand-assembled envelope fields.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a request as a self-contained single-line job spec: the
/// analysis options are written out *explicitly* from the resolved
/// `opts` (not the raw request), so a worker process — or a replay after
/// restart — computes the identical [`CacheKey`] regardless of its own
/// defaults. This is both the spill-queue payload and the
/// supervisor→worker job line. Only fields that are present are
/// emitted, so the output round-trips through the ordinary
/// [`AnalysisRequest`] parser.
pub fn request_wire_json(req: &AnalysisRequest, opts: &AnalyzeOptions) -> String {
    let mut parts = Vec::with_capacity(8);
    if let Some(app) = &req.app {
        parts.push(format!("\"app\":\"{}\"", json_escape(app)));
    }
    if let Some(src) = &req.source {
        parts.push(format!("\"source\":\"{}\"", json_escape(src)));
    }
    parts.push(format!("\"mode\":\"{}\"", mode_wire_name(opts.mode)));
    parts.push(format!("\"seed\":{}", opts.seed));
    if let Some(f) = opts.focus {
        parts.push(format!("\"focus\":{}", f.0));
    }
    parts.push(format!("\"max_events\":{}", opts.max_events));
    if let Some(t) = opts.max_ticks {
        parts.push(format!("\"max_ticks\":{t}"));
    }
    if let Some(s) = req.scale {
        parts.push(format!("\"scale\":{s}"));
    }
    if let Some(i) = &req.inject {
        parts.push(format!("\"inject\":\"{}\"", json_escape(i)));
    }
    if req.stream == Some(true) {
        // Carried so a worker *process* knows to emit frame lines on its
        // stdout pipe; a replayed spill job with no waiting client keeps
        // the flag but its frames are discarded supervisor-side.
        parts.push("\"stream\":true".to_string());
    }
    format!("{{{}}}", parts.join(","))
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// One unit of an analyze response. A schema-2 streaming response is a
/// sequence of frames ending in exactly one terminal frame; a schema-1
/// one-shot response is the degenerate case — a single terminal frame
/// rendered as the legacy envelope. Every response line on the wire
/// (both backends, both schemas) goes through [`render_frame`], so
/// there is exactly one place envelope bytes are assembled. Between a
/// worker process and the supervisor a frame travels as its serde form
/// (`{"Phase":{"phase":…,"start_ticks":…,"end_ticks":…}}`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Frame {
    /// The job passed admission and is queued; `queue_depth` is its
    /// position-ish depth at admission (ring length, plus spill depth
    /// beyond capacity for spilled jobs). A warm cache hit skips
    /// straight to `result` — `accepted` always implies real work.
    Accepted {
        /// Queue depth observed at admission.
        queue_depth: u64,
    },
    /// A pipeline phase of this job completed. Tick fields are virtual
    /// clock readings and therefore deterministic; wall-clock data is
    /// deliberately not carried (it would make the stream golden
    /// unpinnable — same rule as the canonical report).
    Phase {
        /// Phase name, one of [`crate::obs::PHASES`].
        phase: String,
        /// Virtual clock at phase start, ticks.
        start_ticks: u64,
        /// Virtual clock at phase end, ticks.
        end_ticks: u64,
    },
    /// An early per-app result: the Table-2 timing row, known the
    /// moment interpretation ends, long before nest classification and
    /// report rendering. The fragment is a pre-rendered JSON object
    /// body, deterministic.
    Partial {
        /// Pre-rendered JSON object body (no surrounding braces).
        fragment: String,
    },
    /// Out-of-band queue event: the job spilled to disk, or the server
    /// is draining. Never terminal, never cached.
    Notice {
        /// Human-readable event description.
        notice: String,
    },
    /// Terminal: the job ran to a successful supervised outcome (or was
    /// a warm cache hit). The fragment is exactly what the cache
    /// stores, so a warm hit is byte-identical in every result field;
    /// only `id`, `seq`, and `cached` — which describe the *request* —
    /// may differ.
    Result {
        /// Whether the job produced a report.
        ok: bool,
        /// Whether the fragment came from the result cache.
        cached: bool,
        /// Result payload fragment (JSON object body).
        fragment: String,
    },
    /// Terminal: the request failed — bad request, queue full,
    /// draining, or a job that ran and did not produce a report
    /// (unparseable source, panicked / hung / crashed worker).
    Error {
        /// Error payload fragment (JSON object body).
        fragment: String,
    },
}

impl Frame {
    /// Terminal frames end the response; every request gets exactly one.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Frame::Result { .. } | Frame::Error { .. })
    }

    /// The wire `type` tag of a schema-2 frame.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Accepted { .. } => "accepted",
            Frame::Phase { .. } => "phase",
            Frame::Partial { .. } => "partial",
            Frame::Notice { .. } => "notice",
            Frame::Result { .. } => "result",
            Frame::Error { .. } => "error",
        }
    }
}

/// Render one frame as one wire line (sans newline). Schema 1 renders
/// only terminal frames — no `type`, no `seq`, the legacy envelope
/// byte-for-byte. Schema 2 stamps every frame with its type and the
/// per-response sequence number.
pub fn render_frame(schema: u32, id: &str, seq: u64, frame: &Frame) -> String {
    if schema == ONESHOT_SCHEMA_VERSION {
        let (ok, cached, fragment) = match frame {
            Frame::Result {
                ok,
                cached,
                fragment,
            } => (*ok, *cached, fragment.clone()),
            Frame::Error { fragment } => (false, false, fragment.clone()),
            // Non-terminal frames have no schema-1 form; the one-shot
            // path never writes them. A defensive render keeps this
            // function total.
            other => (
                false,
                false,
                error_fragment(&format!(
                    "internal: `{}` frame in a one-shot response",
                    other.type_name()
                )),
            ),
        };
        return format!(
            "{{\"schema\":{schema},\"id\":\"{}\",\"ok\":{ok},\"cached\":{cached},{fragment}}}",
            json_escape(id)
        );
    }
    let body = match frame {
        Frame::Accepted { queue_depth } => format!("\"queue_depth\":{queue_depth}"),
        Frame::Phase {
            phase,
            start_ticks,
            end_ticks,
        } => format!(
            "\"phase\":\"{}\",\"start_ticks\":{start_ticks},\"end_ticks\":{end_ticks}",
            json_escape(phase)
        ),
        Frame::Partial { fragment } => fragment.clone(),
        Frame::Notice { notice } => format!("\"notice\":\"{}\"", json_escape(notice)),
        Frame::Result {
            ok,
            cached,
            fragment,
        } => format!("\"ok\":{ok},\"cached\":{cached},{fragment}"),
        Frame::Error { fragment } => format!("\"ok\":false,\"cached\":false,{fragment}"),
    };
    format!(
        "{{\"schema\":{schema},\"type\":\"{}\",\"id\":\"{}\",\"seq\":{seq},{body}}}",
        frame.type_name(),
        json_escape(id)
    )
}

/// The legacy one-shot envelope: a degenerate single-`result` render.
fn envelope(id: &str, ok: bool, cached: bool, fragment: &str) -> String {
    render_frame(
        ONESHOT_SCHEMA_VERSION,
        id,
        0,
        &Frame::Result {
            ok,
            cached,
            fragment: fragment.to_string(),
        },
    )
}

/// An error response line (bad request, queue full, draining, ...).
fn error_line(id: &str, error: &str) -> String {
    envelope(
        id,
        false,
        false,
        &format!("\"error\":\"{}\"", json_escape(error)),
    )
}

/// An error payload *fragment* (for replies routed through the job
/// queue, which the connection handler wraps in an envelope itself).
fn error_fragment(error: &str) -> String {
    format!("\"error\":\"{}\"", json_escape(error))
}

// ---------------------------------------------------------------------
// Request resolution
// ---------------------------------------------------------------------

/// A request resolved to runnable work plus its cache identity; with
/// its [`CacheKey`], what [`resolve`] returns.
pub struct ResolvedJob {
    /// Display name for the report.
    pub app: String,
    /// Short identifier.
    pub slug: String,
    /// Canonical source text. For registry apps this is the full
    /// generated HTML page (scale baked in). An inline request for the
    /// same text is keyed in the inline namespace ([`CacheKey::inline`]),
    /// so the two never share an entry: the app's run adds its
    /// interaction script and its name.
    pub source: String,
    /// SHA-256 of `source`, lowercase hex: the content half of the
    /// [`CacheKey`], hashed where the source was made. Every request for
    /// one registry app and scale shares one digest.
    pub source_sha256: Arc<str>,
    /// The supervised work closure.
    pub work: JobWork,
    /// Whether an `Ok` result may be stored. Fault-injected requests are
    /// not cacheable: their `attempts` count differs from a clean run, so
    /// storing them would leak injection artifacts into clean hits.
    pub cacheable: bool,
}

/// Maps a request to a [`ResolvedJob`]. The daemon supplies one that
/// knows the workload registry; [`source_resolver`] handles raw-source
/// requests only (`ceres-core` cannot depend on the workloads crate).
pub type Resolver =
    Arc<dyn Fn(&AnalysisRequest, &AnalyzeOptions) -> Result<ResolvedJob, String> + Send + Sync>;

impl ResolvedJob {
    /// Resolve `req` to the analysis of `source` under `opts`, run by
    /// the [`page_work`] runner with the `interaction` script. A source
    /// starting with `<` is served as HTML (inline scripts extracted),
    /// anything else as plain JavaScript. The request's `inject` fault,
    /// if any, wraps the work ([`with_faults`]; `error` fails the first
    /// attempt only, every other fault every attempt) and makes the job
    /// uncacheable. Every resolver ends here, so a request means the
    /// same work everywhere.
    pub fn for_page(
        req: &AnalysisRequest,
        opts: &AnalyzeOptions,
        policy: &FleetPolicy,
        app: &str,
        slug: &str,
        source: Digested,
        interaction: fn(&mut Interp, &DomHandle) -> JsResult<()>,
    ) -> Result<ResolvedJob, String> {
        let Digested { text, sha256 } = source;
        let page = if text.trim_start().starts_with('<') {
            Document::Html(text.clone())
        } else {
            Document::Js(text.clone())
        };
        let mut work = page_work(app.into(), slug.into(), page, opts.clone(), interaction);
        if let Some(kind) = &req.inject {
            let fault = Fault::named(kind).ok_or_else(|| {
                let kinds = Fault::KINDS.map(|(name, _)| name).join("|");
                format!("unknown inject kind `{kind}` (want {kinds})")
            })?;
            let roll = move |attempt| (fault != Fault::Error || attempt == 1).then_some(fault);
            work = with_faults(work, slug, policy, roll);
        }
        Ok(ResolvedJob {
            app: app.into(),
            slug: slug.into(),
            source: text,
            source_sha256: sha256,
            work,
            cacheable: req.inject.is_none(),
        })
    }
}

/// A resolver for raw-source requests only (no workload registry):
/// rejects `app` requests. Used by core tests, and by the daemon's
/// registry resolver for every request that names `source`.
pub fn source_resolver(policy: FleetPolicy) -> Resolver {
    Arc::new(move |req, opts| {
        if req.app.is_some() {
            return Err("this server has no workload registry; send `source`".to_string());
        }
        let source = req
            .source
            .clone()
            .ok_or_else(|| "request needs `app` or `source`".to_string())?;
        let (app, slug) = ("inline", "inline");
        let source = Digested::new(source);
        ResolvedJob::for_page(req, opts, &policy, app, slug, source, |_, _| Ok(()))
    })
}

/// Map a request to its [`ResolvedJob`] and [`CacheKey`]. A process
/// resolves each request once: admission does, and a ring job carries
/// the result to its worker thread. Only a job popped from the spill
/// file is resolved again, from its spec; a worker process resolves its
/// job line once. The key is built from the job's digest, without
/// hashing its source; a request that names no `app` sent its source
/// inline and is keyed in the inline namespace.
pub fn resolve(
    req: &AnalysisRequest,
    opts: &AnalyzeOptions,
    resolver: &Resolver,
) -> Result<(ResolvedJob, CacheKey), String> {
    let job = resolver(req, opts)?;
    let key = CacheKey {
        inline: req.app.is_none(),
        ..CacheKey::with_digest(&job.source_sha256, opts, req.scale.unwrap_or(1))
    };
    Ok((job, key))
}

/// Build [`AnalyzeOptions`] from a request plus the server defaults.
/// Exposed so the daemon's resolver and the server core agree on exactly
/// one mapping (and tests can construct the matching [`CacheKey`]).
pub fn request_options(
    req: &AnalysisRequest,
    config: &ServeConfig,
) -> Result<AnalyzeOptions, String> {
    let mode = match &req.mode {
        Some(m) => parse_mode(m)?,
        None => config.default_mode,
    };
    let mut opts = AnalyzeOptions {
        mode,
        seed: req.seed.unwrap_or(config.default_seed),
        focus: req.focus.map(ceres_ast::LoopId),
        max_ticks: req.max_ticks.or(config.policy.tick_budget),
        wall_budget: config.policy.wall_budget.checked_div(2),
        ..AnalyzeOptions::default()
    };
    if let Some(me) = req.max_events {
        opts.max_events = me as usize;
    }
    Ok(opts)
}

/// The fields every job fragment leads with.
fn fragment_head(fingerprint: &str, app: &str, slug: &str, status: &str, attempts: u32) -> String {
    format!(
        "\"key\":\"{fingerprint}\",\"app\":\"{}\",\"slug\":\"{}\",\"status\":\"{}\",\"attempts\":{attempts}",
        json_escape(app),
        json_escape(slug),
        json_escape(status),
    )
}

/// Build the result fragment for a finished job. `Ok` outcomes carry
/// the canonical report + deterministic single-run metrics; failures
/// carry the status label and detail ([`failure_fragment`]). Compact
/// JSON throughout — the protocol is line-delimited. Built only by
/// [`crate::supervisor::run_job`], whichever transport runs it, which is
/// what keeps envelopes byte-identical across backends.
pub fn result_fragment(key: &CacheKey, outcome: &AppOutcome) -> (bool, String) {
    let fingerprint = key.fingerprint();
    let status = outcome.status.label();
    let Some(report) = &outcome.report else {
        let detail = outcome.status.detail().unwrap_or("");
        let fragment = failure_fragment(
            &fingerprint,
            &outcome.app,
            &outcome.slug,
            &status,
            outcome.attempts,
            detail,
        );
        return (false, fragment);
    };
    let head = fragment_head(
        &fingerprint,
        &outcome.app,
        &outcome.slug,
        &status,
        outcome.attempts,
    );
    let canonical = report.canonical();
    let metrics = FleetMetrics::single(
        &canonical.app,
        &canonical.slug,
        &canonical.mode,
        &canonical.obs,
        true,
    );
    let report_json = serde_json::to_string(&canonical).expect("AppReport serializes");
    let metrics_json = serde_json::to_string(&metrics).expect("FleetMetrics serializes");
    (
        true,
        format!("{head},\"report\":{report_json},\"metrics\":{metrics_json}"),
    )
}

/// The fragment of a job that ended without a report: the
/// [`result_fragment`] head, then the error. Every failure the server
/// reports — a failed outcome, a crashed or unspawnable worker, a bad
/// worker job line — is rendered here.
pub fn failure_fragment(
    fingerprint: &str,
    app: &str,
    slug: &str,
    status: &str,
    attempts: u32,
    error: &str,
) -> String {
    format!(
        "{},\"error\":\"{}\"",
        fragment_head(fingerprint, app, slug, status, attempts),
        json_escape(error)
    )
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Server knobs. `Default` gives a loopback-friendly test configuration
/// (in-process workers, ephemeral spill, memory-only cache); the daemon
/// overrides from its flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker slots, each running queued jobs one at a time from parse
    /// to report (threads, or — with [`ServeConfig::worker_spec`] set —
    /// worker processes, one per slot).
    pub workers: usize,
    /// In-memory job-ring capacity; overflow spills to disk.
    pub queue_capacity: usize,
    /// Result-cache capacity, in entries (split across shards).
    pub cache_capacity: usize,
    /// Number of cache shards (each with its own lock and FIFO window).
    pub cache_shards: usize,
    /// Cache persistence directory. `Some` ⇒ write-through shard files
    /// + load-on-start; `None` ⇒ memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Spill-queue directory. `Some` ⇒ the backlog survives restarts
    /// (and is replayed on start); `None` ⇒ an ephemeral per-process
    /// temp directory, deleted on clean shutdown.
    pub spill_dir: Option<PathBuf>,
    /// How to spawn worker processes. `Some` ⇒ process-isolated
    /// execution with supervised restart; `None` ⇒ each worker thread
    /// runs its jobs itself (the same job path, without crash
    /// isolation).
    pub worker_spec: Option<WorkerSpec>,
    /// Supervision policy for every served job.
    pub policy: FleetPolicy,
    /// Mode used when a request omits `mode`.
    pub default_mode: Mode,
    /// Seed used when a request omits `seed`.
    pub default_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            cache_dir: None,
            spill_dir: None,
            worker_spec: None,
            policy: FleetPolicy::default(),
            default_mode: Mode::LoopProfile,
            default_seed: 2015,
        }
    }
}

/// One admitted unit of work: a self-contained wire-format job spec
/// (also the spill payload and the worker job line), where to send its
/// frames, and, for a ring job, what admission resolved the spec to.
/// Replayed spill jobs have no reply channel — their results go to the
/// cache only. Every frame goes to the channel; the connection handler
/// drops non-terminal frames for one-shot clients.
struct QueuedJob {
    wire: String,
    reply: Option<mpsc::Sender<Frame>>,
    /// `None` for a job popped from the spill file: its worker thread
    /// resolves `wire` again.
    resolved: Option<Resolved>,
}

/// A request resolved for a worker thread: its job and cache key, and
/// whether its client wants the job's frames.
struct Resolved {
    job: ResolvedJob,
    key: CacheKey,
    stream: bool,
}

impl QueuedJob {
    fn send(&self, frame: Frame) {
        if let Some(reply) = &self.reply {
            let _ = reply.send(frame);
        }
    }
}

/// Queue state under the mutex: the bounded admission ring, the
/// disk-backed overflow, reply channels for spilled jobs (keyed by
/// spill seq), and the open/draining latch.
struct QueueState {
    memory: VecDeque<QueuedJob>,
    spill: Option<SpillQueue>,
    /// True when the spill directory was operator-chosen (backlog
    /// survives restarts); false for the ephemeral default.
    spill_persistent: bool,
    waiters: HashMap<u64, mpsc::Sender<Frame>>,
    /// False once drain begins: workers exit when the ring is empty.
    open: bool,
}

/// Everything shared between the accept loop, connection handlers, and
/// workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ShardedCache,
    counters: Mutex<ServeCounters>,
    draining: AtomicBool,
    config: ServeConfig,
    resolver: Resolver,
    addr: SocketAddr,
}

/// Poison-proof lock (a panicking thread must not wedge the server).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn bump(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut relock(&self.counters));
    }
}

/// Handle to a running server: the bound address plus the threads to
/// join. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] or send a `shutdown` op.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A cheap, cloneable, `Send` drain trigger split off a
/// [`ServerHandle`], for signal watchers and other threads that must be
/// able to start a graceful drain while the main thread blocks in
/// [`ServerHandle::join`].
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Begin a graceful drain (idempotent; returns immediately).
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Snapshot of the serving counters.
    pub fn counters(&self) -> ServeCounters {
        *relock(&self.shared.counters)
    }

    /// Begin a graceful drain without blocking (safe from a signal
    /// watcher thread); pair with [`ServerHandle::join`].
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }

    /// Split off a cloneable [`DrainHandle`] for another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begin a graceful drain and wait for it to complete: stop
    /// accepting, reject new analyze requests, finish in-flight work,
    /// flush the queued tail to the spill file, then join all threads.
    pub fn shutdown(mut self) {
        begin_drain(&self.shared);
        self.join_threads();
    }

    /// Wait until a client-initiated `shutdown` op (or
    /// [`ServerHandle::request_drain`]) drains the server.
    pub fn join(mut self) -> ServeCounters {
        self.join_threads();
        *relock(&self.shared.counters)
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Flip the server into draining mode: latch the flag, close the queue,
/// flush the unstarted tail to the spill file (answering those clients
/// explicitly — accepted jobs are never silently dropped), and poke the
/// accept loop awake with a throwaway self-connection.
fn begin_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    let mut flushed = 0u64;
    {
        let mut q = relock(&shared.queue);
        q.open = false;
        let persistent = q.spill_persistent;
        let tail: Vec<QueuedJob> = q.memory.drain(..).collect();
        for job in tail {
            let persisted = q.spill.as_mut().is_some_and(|s| s.push(&job.wire).is_ok());
            flushed += u64::from(persisted);
            if let Some(reply) = &job.reply {
                tell_flushed(reply, persisted && persistent);
            }
        }
        // Jobs already spilled stay in the segment file; answer their
        // waiting clients the same way. Jobs already on a worker run to
        // completion and answer normally.
        for (_, reply) in q.waiters.drain() {
            tell_flushed(&reply, persistent);
        }
    }
    shared.bump(|c| c.jobs_flushed_on_drain += flushed);
    shared.available.notify_all();
    // Unblock `accept()`; the loop re-checks `draining` per connection.
    let _ = TcpStream::connect(shared.addr);
}

/// The explicit answer a queued-but-unstarted client gets at drain time:
/// a notice (streaming clients only see it), then the terminal error.
fn tell_flushed(reply: &mpsc::Sender<Frame>, persisted: bool) {
    let _ = reply.send(Frame::Notice {
        notice: "draining: flushing the queued tail".to_string(),
    });
    let _ = reply.send(Frame::Error {
        fragment: error_fragment(if persisted {
            "draining: job flushed to the spill queue; it will run after \
             restart — retry then for a cache hit"
        } else {
            "draining: job not started; retry"
        }),
    });
}

/// Start serving on `listener` (bind it yourself; `127.0.0.1:0` works
/// for tests). Spawns the accept loop and `config.workers` job workers,
/// then returns immediately. A persistent spill directory with a
/// backlog is replayed immediately: those jobs run and their results
/// land in the cache, so the clients that lost them can retry into warm
/// hits.
pub fn serve(listener: TcpListener, config: ServeConfig, resolver: Resolver) -> ServerHandle {
    let addr = listener.local_addr().expect("listener has a local addr");
    let cache = ShardedCache::open(
        config.cache_capacity,
        config.cache_shards,
        config.cache_dir.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!(
            "jsceresd: cache dir {} unusable ({e}); falling back to memory-only cache",
            config
                .cache_dir
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
        ShardedCache::open(config.cache_capacity, config.cache_shards, None)
            .expect("memory-only cache cannot fail")
    });
    let spill_persistent = config.spill_dir.is_some();
    let spill_path = config
        .spill_dir
        .clone()
        .unwrap_or_else(|| crate::spill::ephemeral_dir("spill"));
    let spill = match SpillQueue::open(&spill_path, !spill_persistent) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!(
                "jsceresd: spill dir {} unusable ({e}); falling back to reject-at-bound admission",
                spill_path.display()
            );
            None
        }
    };
    let replayed = spill.as_ref().map(|s| s.stats().replayed).unwrap_or(0);

    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            memory: VecDeque::new(),
            spill,
            spill_persistent,
            waiters: HashMap::new(),
            open: true,
        }),
        available: Condvar::new(),
        cache,
        counters: Mutex::new(ServeCounters {
            spill_replayed: replayed,
            ..ServeCounters::default()
        }),
        draining: AtomicBool::new(false),
        config: config.clone(),
        resolver,
        addr,
    });

    let mut workers = Vec::new();
    for id in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("jsceresd-worker-{id}"))
                .spawn(move || exec_loop(&shared))
                .expect("spawn worker"),
        );
    }

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("jsceresd-accept".to_string())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn accept loop")
    };

    // If a replayed backlog is waiting, wake the workers for it.
    if replayed > 0 {
        shared.available.notify_all();
    }

    ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("jsceresd-conn".to_string())
            .spawn(move || handle_connection(stream, &shared))
        {
            handlers.push(h);
        }
    }
    // Drain: wait for every connection handler to write its last
    // response and hang up (their read loops poll `draining`).
    for h in handlers {
        let _ = h.join();
    }
}

/// Pull the next admitted job for a worker: the in-memory ring first,
/// then the spill file (strict FIFO — arrivals go to the spill whenever
/// it is non-empty, so ring-then-spill pop order preserves admission
/// order). `None` once the queue is closed: at drain the ring is flushed
/// to the spill file, so nothing is left behind.
fn next_job(shared: &Shared) -> Option<QueuedJob> {
    let mut q = relock(&shared.queue);
    loop {
        if let Some(job) = q.memory.pop_front() {
            return Some(job);
        }
        if !q.open {
            return None;
        }
        if let Some(spill) = q.spill.as_mut() {
            if let Some((seq, wire)) = spill.pop() {
                let reply = q.waiters.remove(&seq);
                return Some(QueuedJob {
                    wire,
                    reply,
                    resolved: None,
                });
            }
        }
        q = shared
            .available
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Resolve a job popped from the spill file from its spec. (The spec was
/// validated at admission; a failure here is replay-era drift, e.g. a
/// registry app renamed between restarts.)
fn resolve_spilled(shared: &Shared, wire: &str) -> Result<Resolved, String> {
    let req: AnalysisRequest =
        serde_json::from_str(wire).map_err(|e| format!("bad queued job spec: {e}"))?;
    let opts = request_options(&req, &shared.config)?;
    let (job, key) = resolve(&req, &opts, &shared.resolver)?;
    Ok(Resolved {
        job,
        key,
        stream: req.stream == Some(true),
    })
}

/// One worker slot: run admitted jobs on this worker's transport, store
/// cacheable results (first-writer-wins: concurrent cold misses on the
/// same key converge on one stored byte sequence and, with persistence
/// on, one write-through line), and send each client its terminal frame.
fn exec_loop(shared: &Shared) {
    let mut slot = shared.config.worker_spec.clone().map(WorkerSlot::new);
    while let Some(mut job) = next_job(shared) {
        let resolved = job.resolved.take();
        let resolved = match resolved.map_or_else(|| resolve_spilled(shared, &job.wire), Ok) {
            Ok(resolved) => resolved,
            Err(e) => {
                shared.bump(|c| c.jobs_failed += 1);
                job.send(Frame::Error {
                    fragment: error_fragment(&e),
                });
                continue;
            }
        };
        let (key, cacheable) = (&resolved.key, resolved.job.cacheable);
        let resp = match slot.as_mut() {
            Some(slot) => run_on_slot(shared, slot, &job, &resolved),
            None => {
                let sink = job.reply.clone().filter(|_| resolved.stream).map(|reply| {
                    Box::new(move |frame| {
                        let _ = reply.send(frame);
                    }) as FrameSink
                });
                run_job(resolved.job, key, &shared.config.policy, sink)
            }
        };
        let fragment = if resp.ok && cacheable {
            shared.cache.insert_or_get(key, resp.fragment)
        } else {
            resp.fragment
        };
        shared.bump(|c| {
            c.interp_ticks += resp.ticks;
            if resp.ok {
                c.jobs_ok += 1;
            } else {
                c.jobs_failed += 1;
            }
        });
        job.send(if resp.ok {
            Frame::Result {
                ok: true,
                cached: false,
                fragment,
            }
        } else {
            Frame::Error { fragment }
        });
    }
}

/// Ship one job line to this slot's worker process, forwarding its
/// frames to the client; a dead worker is restarted with bounded
/// backoff, and a job it could not finish fails with a
/// [`failure_fragment`].
fn run_on_slot(
    shared: &Shared,
    slot: &mut WorkerSlot,
    job: &QueuedJob,
    resolved: &Resolved,
) -> WorkerResponse {
    let (outcome, restarts) = slot.run(&job.wire, &mut |frame| job.send(frame));
    if restarts > 0 {
        shared.bump(|c| c.worker_restarts += restarts);
    }
    let failed = |status: &str, attempts: u32, error: &str| {
        WorkerResponse::failed(failure_fragment(
            &resolved.key.fingerprint(),
            &resolved.job.app,
            &resolved.job.slug,
            status,
            attempts,
            error,
        ))
    };
    match outcome {
        SlotOutcome::Done(resp) => resp,
        SlotOutcome::Crashed { attempts } => failed(
            "worker-crashed",
            attempts,
            "worker process died while running this job; a fresh worker was started",
        ),
        SlotOutcome::Unavailable(e) => failed("failed", 0, &e),
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Each frame of a stream is its own small write; with Nagle's
    // algorithm on, frame 2 would wait for the client's (delayed) ACK of
    // frame 1.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The bytes of the line so far. A read poll that times out mid-line
    // keeps what it read, even half a UTF-8 character; only a complete
    // line is decoded.
    let mut line = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client hung up
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: once draining, stop waiting for more input.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return; // not UTF-8: not a protocol line
        };
        let text = text.trim();
        if !text.is_empty() && handle_line(text, shared, &mut writer).is_err() {
            return;
        }
        line.clear();
    }
}

/// Write one protocol line and flush (the protocol is line-delimited; a
/// streaming client acts on each frame as it lands). `line` and its
/// `\n` go out in one `write_all`, and the write must stay whole: on a
/// TCP socket a separate one-byte `\n` write is a second small segment,
/// which Nagle's algorithm holds until the peer ACKs the first, and a
/// peer with delayed ACKs sends that ACK only after its 40 ms timer.
/// `line` is taken by value so the `\n` is appended in place and a
/// large result fragment is not copied again.
pub(crate) fn write_line(out: &mut dyn Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Dispatch one request line, writing one response line — or, for a
/// streaming analyze, a frame sequence — to `out`. Non-analyze ops are
/// one-shot by nature and always answer at [`ONESHOT_SCHEMA_VERSION`].
fn handle_line(line: &str, shared: &Arc<Shared>, out: &mut dyn Write) -> std::io::Result<()> {
    let req: AnalysisRequest = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return write_line(out, error_line("", &format!("bad request: {e}"))),
    };
    let id = req.id.clone().unwrap_or_default();
    let response = match req.op.as_deref().unwrap_or("analyze") {
        "ping" => envelope(&id, true, false, "\"op\":\"ping\""),
        "stats" => stats_line(&id, shared),
        "shutdown" => {
            begin_drain(shared);
            envelope(&id, true, false, "\"op\":\"shutdown\",\"draining\":true")
        }
        "analyze" => return handle_analyze(&req, &id, shared, out),
        other => error_line(&id, &format!("unknown op `{other}`")),
    };
    write_line(out, response)
}

fn stats_line(id: &str, shared: &Arc<Shared>) -> String {
    let cache = shared.cache.stats();
    let mut counters = *relock(&shared.counters);
    // The eviction odometer lives in the cache shards; mirror the
    // aggregate into the counters snapshot for one-stop scraping.
    counters.cache_evictions = cache.total.evictions;
    let (queue_depth, spill) = {
        let q = relock(&shared.queue);
        (q.memory.len(), q.spill.as_ref().map(|s| s.stats()))
    };
    let counters_json = serde_json::to_string(&counters).expect("ServeCounters serializes");
    let per_shard = cache
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{}}}",
                s.hits, s.misses, s.evictions, s.len
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let spill_json = match spill {
        Some(s) => format!(
            "{{\"depth\":{},\"pushed\":{},\"replayed\":{},\"corrupt\":{},\"peak_depth\":{}}}",
            s.depth, s.pushed, s.replayed, s.corrupt, s.peak_depth
        ),
        None => "null".to_string(),
    };
    let backend = if shared.config.worker_spec.is_some() {
        "process"
    } else {
        "in-process"
    };
    envelope(
        id,
        true,
        false,
        &format!(
            "\"op\":\"stats\",\"stats_schema\":{SERVE_STATS_SCHEMA},\
             \"counters\":{counters_json},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{},\"capacity\":{},\
             \"shards\":{},\"persistent\":{},\"loaded\":{},\"load_corrupt\":{},\"persisted\":{},\
             \"per_shard\":[{per_shard}]}},\
             \"queue_depth\":{queue_depth},\"spill\":{spill_json},\
             \"workers\":{},\"backend\":\"{backend}\",\"draining\":{}",
            cache.total.hits,
            cache.total.misses,
            cache.total.evictions,
            cache.total.len,
            cache.total.capacity,
            cache.shards.len(),
            cache.persistent,
            cache.loaded,
            cache.load_corrupt,
            cache.persisted,
            shared.config.workers,
            shared.draining.load(Ordering::SeqCst),
        ),
    )
}

/// Writes the frames of one analyze response, stamping `seq` at write
/// time — the stamp and the write are one step on this thread, so the
/// sequence a client observes is gapless and monotonic no matter which
/// thread sent each frame down the channel.
struct FrameWriter<'a> {
    out: &'a mut dyn Write,
    shared: &'a Shared,
    schema: u32,
    id: &'a str,
    seq: u64,
}

impl FrameWriter<'_> {
    /// Write one frame. A non-terminal frame is counted in
    /// `frames_streamed` as soon as it is written, so by the time a
    /// client reads its terminal frame `stats` includes its whole stream.
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.seq += 1;
        write_line(
            self.out,
            render_frame(self.schema, self.id, self.seq, frame),
        )?;
        if !frame.is_terminal() {
            self.shared.bump(|c| c.frames_streamed += 1);
        }
        Ok(())
    }
}

/// How admission classified one analyze request.
enum Admitted {
    Ring(u64),
    Spilled(u64),
    Rejected(String),
}

fn handle_analyze(
    req: &AnalysisRequest,
    id: &str,
    shared: &Arc<Shared>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let stream_mode = req.stream.unwrap_or(false);
    let schema = if stream_mode {
        API_SCHEMA_VERSION
    } else {
        ONESHOT_SCHEMA_VERSION
    };
    let mut fw = FrameWriter {
        out,
        shared,
        schema,
        id,
        seq: 0,
    };

    let resolved = request_options(req, &shared.config)
        .and_then(|opts| Ok((resolve(req, &opts, &shared.resolver)?, opts)));
    let ((job, key), opts) = match resolved {
        Ok(r) => r,
        Err(e) => {
            return fw.send(&Frame::Error {
                fragment: error_fragment(&e),
            })
        }
    };
    shared.bump(|c| {
        c.requests += 1;
        if stream_mode {
            c.streams += 1;
        }
    });

    // Fault-injected requests bypass the cache in both directions: a hit
    // would skip the very supervisor path the injection exists to
    // exercise, and storing the result would leak injection artifacts.
    if job.cacheable {
        if let Some(fragment) = shared.cache.lookup(&key) {
            shared.bump(|c| c.cache_hits += 1);
            // A warm hit needs no pipeline: the stream collapses to its
            // terminal frame (`accepted` always implies real work).
            return fw.send(&Frame::Result {
                ok: true,
                cached: true,
                fragment,
            });
        }
        shared.bump(|c| c.cache_misses += 1);
    }

    if shared.draining.load(Ordering::SeqCst) {
        shared.bump(|c| c.rejected_draining += 1);
        return fw.send(&Frame::Error {
            fragment: error_fragment("draining: not accepting new work"),
        });
    }

    let wire = request_wire_json(req, &opts);
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = relock(&shared.queue);
        if !q.open {
            drop(q);
            shared.bump(|c| c.rejected_draining += 1);
            return fw.send(&Frame::Error {
                fragment: error_fragment("draining: not accepting new work"),
            });
        }
        // Strict FIFO admission: once anything is on disk, new arrivals
        // queue behind it.
        let spill_busy = q.spill.as_ref().map(|s| !s.is_empty()).unwrap_or(false);
        if q.memory.len() >= shared.config.queue_capacity || spill_busy {
            let pushed = q
                .spill
                .as_mut()
                .map(|spill| spill.push(&wire).map(|seq| (seq, spill.len() as u64)));
            match pushed {
                Some(Ok((seq, depth))) => {
                    q.waiters.insert(seq, tx);
                    drop(q);
                    shared.bump(|c| {
                        c.jobs_spilled += 1;
                        c.spill_peak_depth = c.spill_peak_depth.max(depth);
                        if stream_mode {
                            c.spill_notices += 1;
                        }
                    });
                    Admitted::Spilled(depth)
                }
                Some(Err(e)) => {
                    drop(q);
                    Admitted::Rejected(format!(
                        "queue full and spill write failed ({e}): retry later"
                    ))
                }
                None => {
                    drop(q);
                    Admitted::Rejected("queue full: retry later".to_string())
                }
            }
        } else {
            // The worker thread runs what admission resolved.
            q.memory.push_back(QueuedJob {
                wire,
                reply: Some(tx),
                resolved: Some(Resolved {
                    job,
                    key,
                    stream: stream_mode,
                }),
            });
            let depth = q.memory.len() as u64;
            drop(q);
            shared.bump(|c| c.queue_peak_depth = c.queue_peak_depth.max(depth));
            Admitted::Ring(depth)
        }
    };
    shared.available.notify_all();

    match admitted {
        Admitted::Rejected(e) => {
            shared.bump(|c| c.rejected_queue_full += 1);
            return fw.send(&Frame::Error {
                fragment: error_fragment(&e),
            });
        }
        Admitted::Ring(depth) => {
            if stream_mode {
                fw.send(&Frame::Accepted { queue_depth: depth })?;
            }
        }
        Admitted::Spilled(depth) => {
            // The spill-time notice (not just at drain): a streaming
            // client learns immediately that its job went to disk.
            if stream_mode {
                fw.send(&Frame::Accepted {
                    queue_depth: shared.config.queue_capacity as u64 + depth,
                })?;
                fw.send(&Frame::Notice {
                    notice: format!(
                        "job spilled to disk at depth {depth}; it runs in \
                         admission order behind the in-memory ring"
                    ),
                })?;
            }
        }
    }

    loop {
        let frame = rx.recv().unwrap_or_else(|_| Frame::Error {
            fragment: error_fragment("worker exited before finishing the job"),
        });
        if frame.is_terminal() {
            return fw.send(&frame);
        }
        if stream_mode {
            fw.send(&frame)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    fn start(config: ServeConfig) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let policy = config.policy.clone();
        serve(listener, config, source_resolver(policy))
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        response.trim_end().to_string()
    }

    #[test]
    fn ping_and_unknown_op() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let pong = roundtrip(addr, r#"{"op":"ping","id":"p1"}"#);
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert!(pong.contains("\"id\":\"p1\""), "{pong}");
        assert!(
            pong.contains(&format!("\"schema\":{ONESHOT_SCHEMA_VERSION}")),
            "{pong}"
        );
        let bad = roundtrip(addr, r#"{"op":"never"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        server.shutdown();
    }

    #[test]
    fn a_request_split_across_read_polls_is_answered_whole() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        // The pause is longer than two read polls, so one of them times
        // out mid-line on every run.
        let split = |head: &[u8], tail: &[u8]| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(head).expect("send the head");
            std::thread::sleep(Duration::from_millis(500));
            stream.write_all(tail).expect("send the tail");
            let mut response = String::new();
            BufReader::new(stream)
                .read_line(&mut response)
                .expect("response");
            response
        };
        let ascii = split(br#"{"op":"pi"#, b"ng\",\"id\":\"p\"}\n");
        assert_eq!(
            ascii.trim_end(),
            r#"{"schema":1,"id":"p","ok":true,"cached":false,"op":"ping"}"#
        );
        // The id is split between the two bytes of `é`.
        let utf8 = split(b"{\"op\":\"ping\",\"id\":\"\xc3", b"\xa9\"}\n");
        assert_eq!(
            utf8.trim_end(),
            r#"{"schema":1,"id":"é","ok":true,"cached":false,"op":"ping"}"#
        );
        server.shutdown();
    }

    /// A `Write` that counts its `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_line_in_one_write() {
        let ping = envelope("p", true, false, "\"op\":\"ping\"");
        let frame = render_frame(
            API_SCHEMA_VERSION,
            "s",
            1,
            &Frame::Accepted { queue_depth: 1 },
        );
        let mut out = CountingWriter::default();
        write_line(&mut out, ping.clone()).expect("write");
        write_line(&mut out, frame.clone()).expect("write");
        assert_eq!(out.writes, 2);
        assert_eq!(out.bytes, format!("{ping}\n{frame}\n").into_bytes());
    }

    /// On one kept-alive connection, after one untimed ping: the median
    /// of 9 pings, of 9 warm hits and of 5 streamed cold jobs on
    /// distinct tiny sources. Each must be well under Linux's 40 ms
    /// minimum delayed-ACK timer, which a reply split across two writes
    /// (or a stream's frames without `TCP_NODELAY`) waits out.
    #[test]
    fn kept_alive_replies_do_not_wait_for_a_delayed_ack() {
        let server = start(ServeConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone the stream");
        let mut reader = BufReader::new(stream);
        // Send one request line and read up to its terminal line: the
        // elapsed milliseconds and that line.
        let mut request = |line: &str| {
            let start = Instant::now();
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            loop {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reply");
                assert!(reply.ends_with('\n'), "connection closed: {reply:?}");
                let open_frame = reply.starts_with("{\"schema\":2,")
                    && !reply.starts_with("{\"schema\":2,\"type\":\"result\"")
                    && !reply.starts_with("{\"schema\":2,\"type\":\"error\"");
                if !open_frame {
                    return (start.elapsed().as_secs_f64() * 1e3, reply);
                }
            }
        };
        let median = |mut ms: Vec<f64>| {
            ms.sort_by(f64::total_cmp);
            ms[ms.len() / 2]
        };

        let ping = r#"{"op":"ping","id":"p"}"#;
        request(ping);
        let pings = median((0..9).map(|_| request(ping).0).collect());

        let hit = r#"{"id":"w","source":"var w = 1;","mode":"loop-profile"}"#;
        assert!(request(hit).1.contains("\"cached\":false"));
        let hits = median(
            (0..9)
                .map(|_| {
                    let (ms, reply) = request(hit);
                    assert!(reply.contains("\"cached\":true"), "{reply}");
                    ms
                })
                .collect(),
        );

        let streams = median(
            (0..5)
                .map(|i| {
                    let job = format!(
                        r#"{{"id":"s{i}","stream":true,"source":"var s{i} = {i};","mode":"loop-profile"}}"#
                    );
                    let (ms, reply) = request(&job);
                    assert!(
                        reply.starts_with("{\"schema\":2,\"type\":\"result\"")
                            && reply.contains("\"ok\":true,\"cached\":false"),
                        "{reply}"
                    );
                    ms
                })
                .collect(),
        );

        let medians = [
            ("ping", pings),
            ("warm hit", hits),
            ("streamed job", streams),
        ];
        assert!(
            medians.iter().all(|(_, ms)| *ms < 20.0),
            "medians on a kept-alive connection, in ms: {medians:?}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_line_is_an_error_not_a_crash() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let resp = roundtrip(addr, "this is not json");
        assert!(resp.contains("bad request"), "{resp}");
        // The server is still alive.
        let pong = roundtrip(addr, r#"{"op":"ping"}"#);
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    #[test]
    fn warm_hit_is_byte_identical_and_adds_no_ticks() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let req = r#"{"id":"c","source":"var t = 0; for (var i = 0; i < 8; i++) { t += i; }","mode":"dependence","seed":7}"#;
        let cold = roundtrip(addr, req);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"cached\":false"), "{cold}");
        let ticks_after_cold = server.counters().interp_ticks;
        assert!(ticks_after_cold > 0, "cold run must interpret");

        let warm = roundtrip(addr, req);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        // Byte-identity of everything after the request-specific prefix.
        let tail = |s: &str| s[s.find("\"key\":").expect("key field")..].to_string();
        assert_eq!(tail(&cold), tail(&warm), "payload must be byte-identical");
        assert_eq!(
            server.counters().interp_ticks,
            ticks_after_cold,
            "warm hit must not re-enter the interpreter"
        );
        assert_eq!(server.counters().cache_hits, 1);
        assert_eq!(server.counters().cache_misses, 1);
        server.shutdown();
    }

    #[test]
    fn different_options_miss_the_cache() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let a = roundtrip(addr, r#"{"source":"var x = 1;","mode":"dependence"}"#);
        let b = roundtrip(addr, r#"{"source":"var x = 1;","mode":"loop-profile"}"#);
        let c = roundtrip(
            addr,
            r#"{"source":"var x = 1;","mode":"dependence","seed":9}"#,
        );
        for r in [&a, &b, &c] {
            assert!(r.contains("\"cached\":false"), "{r}");
        }
        assert_eq!(server.counters().cache_misses, 3);
        assert_eq!(server.counters().cache_hits, 0);
        server.shutdown();
    }

    #[test]
    fn injected_faults_exercise_the_supervisor_and_skip_the_cache() {
        let mut config = ServeConfig::default();
        config.policy.backoff = Duration::from_millis(1);
        let server = start(config);
        let addr = server.local_addr();

        // A panic is contained and reported, not fatal to the server.
        let p = roundtrip(addr, r#"{"source":"var x;","inject":"panic"}"#);
        assert!(p.contains("\"status\":\"panicked\""), "{p}");
        assert!(p.contains("\"ok\":false"), "{p}");

        // A transient error clears on retry; the result is real but must
        // not be cached (attempts differ from a clean run).
        let e = roundtrip(addr, r#"{"source":"var x;","inject":"error"}"#);
        assert!(e.contains("\"status\":\"ok\""), "{e}");
        assert!(e.contains("\"attempts\":2"), "{e}");
        let clean = roundtrip(addr, r#"{"source":"var x;"}"#);
        assert!(
            clean.contains("\"cached\":false"),
            "injected result leaked: {clean}"
        );
        assert!(clean.contains("\"attempts\":1"), "{clean}");

        // And the reverse leak: a warm cache entry must not short-circuit
        // a later injected request — the fault has to actually run.
        let e2 = roundtrip(addr, r#"{"source":"var x;","inject":"error"}"#);
        assert!(e2.contains("\"cached\":false"), "{e2}");
        assert!(e2.contains("\"attempts\":2"), "{e2}");

        // `crash` on the in-process backend fails the job cleanly
        // instead of aborting the daemon.
        let c = roundtrip(addr, r#"{"source":"var x;","inject":"crash"}"#);
        assert!(c.contains("\"ok\":false"), "{c}");
        assert!(c.contains("process-worker"), "{c}");

        // A hang runs until the tick watchdog cancels it, once: a
        // timeout is not retried, and its result is not cached.
        let h = roundtrip(addr, r#"{"source":"var x;","inject":"hang"}"#);
        assert!(h.contains("\"status\":\"timed-out\""), "{h}");
        assert!(h.contains("\"attempts\":1"), "{h}");
        assert!(h.contains("\"cached\":false"), "{h}");

        // An unknown kind is refused at admission, naming the kind and
        // every valid one.
        let u = roundtrip(addr, r#"{"source":"var x;","inject":"meteor"}"#);
        assert!(u.contains("\"ok\":false"), "{u}");
        for name in ["`meteor`", "panic|hang|error|crash"] {
            assert!(u.contains(name), "missing {name}: {u}");
        }

        assert_eq!(server.counters().jobs_failed, 3);
        assert_eq!(server.counters().jobs_ok, 3);
        assert_eq!(server.counters().cache_hits, 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_identical_requests_converge_on_one_payload() {
        let server = start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let req = r#"{"source":"var s = 0; for (var i = 0; i < 5; i++) { s += i; }","mode":"dependence"}"#;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let req = req.to_string();
                std::thread::spawn(move || roundtrip(addr, &req))
            })
            .collect();
        let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let tail = |s: &str| s[s.find("\"key\":").expect("key field")..].to_string();
        let first = tail(&responses[0]);
        for r in &responses {
            assert!(r.contains("\"ok\":true"), "{r}");
            assert_eq!(tail(r), first, "all clients must see identical payloads");
        }
        server.shutdown();
    }

    /// Holds the job whose source is `marker` inside its interp slot:
    /// `(started, released)` under a lock, with the resolver that gates
    /// the marker's work on it.
    type Latch = Arc<(Mutex<(bool, bool)>, Condvar)>;

    fn gated_resolver(policy: FleetPolicy, marker: String, latch: &Latch) -> Resolver {
        let (inner, latch) = (source_resolver(policy), Arc::clone(latch));
        Arc::new(move |req, opts| {
            let mut job = inner(req, opts)?;
            if req.source.as_deref() == Some(marker.as_str()) {
                let (work, latch) = (job.work, Arc::clone(&latch));
                job.work = Arc::new(move |worker, attempt| {
                    let mut s = latch.0.lock().unwrap();
                    s.0 = true;
                    latch.1.notify_all();
                    drop(latch.1.wait_while(s, |s| !s.1).unwrap());
                    work(worker, attempt)
                });
            }
            Ok(job)
        })
    }

    /// Block until the marker job holds its slot (panics after 60 s).
    fn wait_started(latch: &Latch) {
        let started = latch.0.lock().unwrap();
        let (started, wait) = latch
            .1
            .wait_timeout_while(started, Duration::from_secs(60), |s| !s.0)
            .unwrap();
        assert!(!wait.timed_out(), "the marker job never started");
        drop(started);
    }

    /// Let the marker job run.
    fn release(latch: &Latch) {
        latch.0.lock().unwrap().1 = true;
        latch.1.notify_all();
    }

    #[test]
    fn overflow_spills_to_disk_and_every_client_still_gets_its_answer() {
        // A 1-worker, 2-slot ring with a burst of 8 jobs: burst-0 holds
        // the only worker slot on a latch while the other 7 arrive. Only
        // 2 fit in the ring, so the rest must overflow to the spill file
        // — and every client must still get a real (non-rejected)
        // response.
        let source = |i: usize| {
            format!(
                "var b{i} = 0; for (var i = 0; i < {n}; i++) {{ b{i} += i; }}",
                n = 50 + i
            )
        };
        let latch = Latch::default();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let resolver = gated_resolver(config.policy.clone(), source(0), &latch);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = serve(listener, config, resolver);
        let addr = server.local_addr();
        let send = |i: usize| {
            // Distinct sources: no cache short-circuits.
            let req = format!(
                r#"{{"id":"burst-{i}","source":"{}","mode":"dependence"}}"#,
                source(i)
            );
            std::thread::spawn(move || roundtrip(addr, &req))
        };
        let mut handles = vec![send(0)];
        wait_started(&latch);
        handles.extend((1..8).map(send));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while server.counters().jobs_spilled < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "the burst never spilled"
            );
            std::thread::yield_now();
        }
        release(&latch);
        for h in handles {
            let r = h.join().unwrap();
            assert!(r.contains("\"ok\":true"), "{r}");
            assert!(!r.contains("queue full"), "spill must absorb bursts: {r}");
        }
        let c = server.counters();
        assert!(
            c.jobs_spilled > 0,
            "burst of 8 into a ring of 2 must spill: {c:?}"
        );
        assert_eq!(c.jobs_ok, 8);
        assert_eq!(c.rejected_queue_full, 0);
        server.shutdown();
    }

    /// Wraps `inner`, counting its calls by the request's source.
    fn counting(inner: Resolver, counts: &Arc<Mutex<HashMap<String, usize>>>) -> Resolver {
        let counts = Arc::clone(counts);
        Arc::new(move |req, opts| {
            let source = req.source.clone().unwrap_or_default();
            *counts.lock().unwrap().entry(source).or_default() += 1;
            inner(req, opts)
        })
    }

    /// Poll `done` every millisecond until it holds, panicking with
    /// `what` after 60 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn each_process_resolves_a_request_once() {
        let counts = Arc::new(Mutex::new(HashMap::new()));
        let resolutions = |source: &str| counts.lock().unwrap().get(source).copied();
        let job = |source: &str| format!(r#"{{"source":"{source}"}}"#);
        let bind = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let policy = FleetPolicy::default();

        // In process: admission resolves a cold request and its worker
        // thread runs that resolution; a warm hit resolves once more.
        let resolver = counting(source_resolver(policy.clone()), &counts);
        let server = serve(bind(), ServeConfig::default(), resolver);
        let cold = "var c = 1;";
        let reply = roundtrip(server.local_addr(), &job(cold));
        assert!(reply.contains("\"cached\":false"), "{reply}");
        assert_eq!(resolutions(cold), Some(1), "a cold in-process request");
        let reply = roundtrip(server.local_addr(), &job(cold));
        assert!(reply.contains("\"cached\":true"), "{reply}");
        assert_eq!(resolutions(cold), Some(2), "then a warm hit");
        server.shutdown();

        // A spilled job is resolved at admission and again when popped
        // from the spill file. One worker and a ring of one: `held`
        // holds the worker, `queued` fills the ring, `spilled` spills.
        let (held, queued, spilled) = ("var h = 1;", "var q = 1;", "var s = 1;");
        let latch = Latch::default();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let gated = gated_resolver(policy.clone(), held.to_string(), &latch);
        let server = serve(bind(), config, counting(gated, &counts));
        let addr = server.local_addr();
        let send = |source: &str| {
            let line = job(source);
            std::thread::spawn(move || roundtrip(addr, &line))
        };
        let mut replies = vec![send(held)];
        wait_started(&latch);
        replies.push(send(queued));
        // `held` has left the ring, so a ring of one job is `queued`.
        wait_until("`queued` is in the ring", || {
            roundtrip(addr, r#"{"op":"stats"}"#).contains("\"queue_depth\":1,")
        });
        replies.push(send(spilled));
        wait_until("`spilled` spills", || server.counters().jobs_spilled == 1);
        release(&latch);
        for reply in replies {
            let reply = reply.join().unwrap();
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let counted = [held, queued, spilled].map(resolutions);
        assert_eq!(
            counted,
            [Some(1), Some(1), Some(2)],
            "held, queued, spilled"
        );
        server.shutdown();

        // With worker processes, the daemon resolves at admission only.
        // A stand-in worker answers every job line.
        let script =
            r#"while read l; do echo '{"ok":true,"ticks":0,"fragment":"\"stub\":1"}'; done"#;
        let config = ServeConfig {
            worker_spec: Some(WorkerSpec {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".to_string(), script.to_string()],
            }),
            ..ServeConfig::default()
        };
        let resolver = counting(source_resolver(policy), &counts);
        let server = serve(bind(), config, resolver);
        let remote = "var r = 1;";
        let reply = roundtrip(server.local_addr(), &job(remote));
        assert!(reply.contains("\"stub\":1"), "{reply}");
        assert_eq!(
            resolutions(remote),
            Some(1),
            "the daemon side of a process job"
        );
        server.shutdown();
    }

    #[test]
    fn stats_reports_the_current_schema_with_spill_and_shards() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let stats = roundtrip(addr, r#"{"op":"stats","id":"s"}"#);
        assert!(
            stats.contains(&format!("\"stats_schema\":{SERVE_STATS_SCHEMA}")),
            "{stats}"
        );
        for field in [
            "\"worker_restarts\":0",
            "\"jobs_spilled\":0",
            "\"streams\":0",
            "\"frames_streamed\":0",
            "\"spill_notices\":0",
            "\"spill\":{\"depth\":0",
            "\"per_shard\":[",
            "\"backend\":\"in-process\"",
        ] {
            assert!(stats.contains(field), "missing {field}: {stats}");
        }
        assert!(!stats.contains("\"exec_depth\""), "{stats}");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_in_flight_work_and_rejects_new() {
        // Hold the slow job in its interp slot, so it is provably in
        // flight when the `shutdown` op arrives: the drain must let it
        // finish and answer its client with a real result.
        let source = "var t = 0; for (var i = 0; i < 2000; i++) { t += i; }";
        let latch = Latch::default();
        let config = ServeConfig::default();
        let resolver = gated_resolver(config.policy.clone(), source.to_string(), &latch);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = serve(listener, config, resolver);
        let addr = server.local_addr();
        let slow = std::thread::spawn(move || {
            roundtrip(addr, &format!(r#"{{"id":"slow","source":"{source}"}}"#))
        });
        wait_started(&latch);
        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"draining\":true"), "{bye}");
        release(&latch);

        let slow_response = slow.join().unwrap();
        assert!(
            slow_response.contains("\"ok\":true"),
            "the in-flight job must finish: {slow_response}"
        );
        let counters = server.join();
        // New connections are refused or reset after the drain; either
        // way the server threads have all exited by now.
        assert!(counters.requests >= 1);
    }

    #[test]
    fn request_wire_json_round_trips_and_pins_options() {
        let config = ServeConfig::default();
        let req: AnalysisRequest = serde_json::from_str(
            r#"{"id":"x","source":"var q = 1;","mode":"dep","scale":2,"inject":"error"}"#,
        )
        .unwrap();
        let opts = request_options(&req, &config).unwrap();
        let wire = request_wire_json(&req, &opts);
        // The wire spec drops request-identity fields and makes every
        // option explicit.
        assert!(!wire.contains("\"id\""), "{wire}");
        assert!(wire.contains("\"mode\":\"dependence\""), "{wire}");
        assert!(
            wire.contains(&format!("\"seed\":{}", config.default_seed)),
            "{wire}"
        );
        assert!(wire.contains("\"scale\":2"), "{wire}");
        assert!(wire.contains("\"inject\":\"error\""), "{wire}");
        // And it round-trips through the ordinary request parser onto
        // the same cache key.
        let parsed: AnalysisRequest = serde_json::from_str(&wire).unwrap();
        let opts2 = request_options(&parsed, &config).unwrap();
        let k1 = CacheKey::of("var q = 1;", &opts, req.scale.unwrap_or(1));
        let k2 = CacheKey::of("var q = 1;", &opts2, parsed.scale.unwrap_or(1));
        assert_eq!(k1.fingerprint(), k2.fingerprint());
    }

    /// An inline source is keyed in its own namespace, and the same text
    /// in the registry namespace keeps the fingerprint it had before the
    /// namespace existed: the key `tests/golden/serve_envelope.json` pinned
    /// for this request until then.
    #[test]
    fn inline_keys_have_their_own_namespace() {
        let config = ServeConfig::default();
        let source = "var t = 0; for (var i = 0; i < 6; i++) { t += i; }";
        let req = AnalysisRequest {
            source: Some(source.to_string()),
            mode: Some("dep".to_string()),
            seed: Some(2015),
            ..AnalysisRequest::default()
        };
        let opts = request_options(&req, &config).unwrap();
        let (job, key) = resolve(&req, &opts, &source_resolver(config.policy)).unwrap();
        assert!(key.inline);
        assert_eq!(
            &*job.source_sha256,
            CacheKey::of(source, &opts, 1).source_sha256
        );
        assert_eq!(
            key.fingerprint(),
            "dded4aad2eeedfc596f4f701183ec6711e7e92832c1792bbd8c2b9a20c53a75c"
        );
        assert_eq!(
            CacheKey::of(source, &opts, 1).fingerprint(),
            "bd9b8b598cbf0afbbf2861f48761f84d6e3558e8bc46f5cf5d819c3115bc659e"
        );
    }
}
