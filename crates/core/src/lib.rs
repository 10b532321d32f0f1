//! # ceres-core
//!
//! The JS-CERES profiling and runtime dependence-analysis engine — the
//! primary contribution of *"Are web applications ready for parallelism?"*
//! (Radoi, Herhut, Sreeram, Dig — PPoPP 2015), reproduced in Rust.
//!
//! JS-CERES answers two research questions about a web application:
//!
//! * **Q1 — how much latent data parallelism is available?** Measured by
//!   staged profiling: a lightweight open-loop counter bounds the time spent
//!   in loops (Table 2); per-loop instance/trip/time statistics with
//!   Welford variance identify the computationally intensive nests
//!   (Table 3, left half).
//! * **Q2 — what impedes parallelization?** A dependence analysis stamps
//!   every binding and object with the stack of open loops at creation,
//!   snapshots property writes, and characterizes each access as an
//!   `ok`/`dependence` triple list per loop level (Fig. 6); a classifier
//!   rolls the warnings up into control-flow divergence, DOM access, and
//!   dependence-breaking difficulty (Table 3, right half) plus Amdahl
//!   speedup bounds (Sec. 4.2).
//!
//! Module map:
//!
//! * [`welford`] — online mean/variance (paper's \[36\]);
//! * [`stack`] — characterization stacks, stamps, and the diff rules;
//! * [`engine`] — hook runtime wiring the instrumentation to the analysis;
//! * [`classify`] — Table 3 columns 5–8 and the Amdahl model;
//! * [`report`] — paper-style rendering + the local "github" repo;
//! * [`pipeline`] — the Fig. 5 proxy dataflow, end to end;
//! * [`fleet`] — the fault-tolerant thread-per-app fleet supervisor;
//! * [`mod@serve`] — the `jsceresd` serving core (sharded persistent cache,
//!   spill-to-disk admission, graceful drain);
//! * [`supervisor`] — process-isolated analysis workers with supervised
//!   restart;
//! * [`spill`] — the crash-safe disk-backed overflow queue;
//! * [`obs`] — phase-stamped tracing, counters, and the versioned
//!   `--metrics`/`--trace` surfaces.
//!
//! ```
//! use ceres_core::engine::run_instrumented;
//! use ceres_instrument::Mode;
//!
//! let (_interp, engine) = run_instrumented(
//!     "var total = 0;\n\
//!      for (var i = 0; i < 100; i++) { total += i; }",
//!     Mode::Dependence,
//!     42,
//! ).unwrap();
//! let engine = engine.borrow();
//! // `total` is an accumulator shared across iterations: flagged.
//! assert!(engine.warnings.iter().any(|w| w.subject == "total"));
//! ```

pub mod cache;
pub mod classify;
pub mod engine;
pub mod fleet;
pub mod obs;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod spill;
pub mod stack;
pub mod suggest;
pub mod supervisor;
pub mod tasks;
pub mod welford;
pub mod whatif;

pub use cache::{sha256, sha256_hex, CacheKey, CacheStats, ShardedCache, ShardedCacheStats};
pub use classify::{
    amdahl_bound, classify_nests, static_features, Difficulty, Divergence, NestClassification,
};
pub use engine::{attach_engine, run_instrumented, Engine, EngineRef, Warning, WarningKind};
pub use fleet::{
    default_workers, run_fleet, run_fleet_with, supervise, AppOutcome, AppReport, AppStatus, Fault,
    FaultPlan, FaultSpec, FleetJob, FleetOutcome, FleetPolicy, JobError, NestReport, WarningReport,
    API_SCHEMA_VERSION,
};
pub use obs::{
    chrome_trace, emit_frame, install_frame_sink, AppMetrics, Counters, FleetMetrics,
    FrameSinkGuard, PhaseSpan, RunObs, ServeCounters, METRICS_SCHEMA_VERSION,
};
pub use parallel::{
    equivalence, run_parallel, EquivalenceReport, ParallelError, ParallelRunOutput, ParallelSpec,
};
pub use pipeline::{analyze, publish_report, AnalyzeOptions, AppRun, Document, WebServer};
pub use report::ReportRepo;
pub use serve::{
    mode_wire_name, parse_mode, render_frame, request_wire_json, serve, AnalysisRequest,
    DrainHandle, Frame, ServeConfig, ServerHandle, ONESHOT_SCHEMA_VERSION, SERVE_STATS_SCHEMA,
};
pub use spill::{ephemeral_dir, SpillQueue, SpillStats};
pub use stack::{characterize, flow, matched, render, Characterization, Flag, Split};
pub use suggest::{render_suggestions, suggest, Suggestion};
pub use supervisor::{worker_serve_stdio, SlotOutcome, WorkerResponse, WorkerSlot, WorkerSpec};
pub use tasks::{task_limit_study, TaskLimitStudy, TaskRecord};
pub use welford::Welford;
pub use whatif::{
    predicted_speedup, predicted_speedup_capped, render_whatif, whatif, NestPrediction,
    WhatIfReport, WHATIF_SCHEMA_VERSION,
};

/// Re-exported so downstream users need only one crate for the common path.
pub use ceres_instrument::Mode;

/// Loop identity, re-exported for [`ParallelSpec::target`] consumers.
pub use ceres_ast::LoopId;

/// The symbol table the hot path is keyed on — re-exported so analysis
/// consumers can write `ceres_core::intern::Sym` (see `docs/PERFORMANCE.md`).
pub use ceres_interp::intern;
