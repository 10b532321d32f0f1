//! # ceres-instrument
//!
//! The three source-rewriting instrumentation passes of JS-CERES (Sec. 3 of
//! *"Are web applications ready for parallelism?"*, PPoPP 2015). The proxy
//! intercepts JavaScript on its way to the browser and rewrites it; here the
//! rewrite is AST → AST, and [`ceres_ast::codegen`] prints the result back
//! to source. The inserted code is plain calls to `__ceres_*` host functions
//! that `ceres-core` registers with the interpreter.
//!
//! Modes (staged to minimize measurement bias, exactly as the paper argues):
//!
//! * [`Mode::Lightweight`] — total time in loops via an open-loop counter.
//!   Inserts `__ceres_lw_enter()` / `__ceres_lw_exit()` around each loop.
//! * [`Mode::LoopProfile`] — per-syntactic-loop instance counts, trip counts
//!   and running time. Inserts `__ceres_loop_enter(id)` / `__ceres_iter(id)`
//!   / `__ceres_loop_exit(id)`.
//! * [`Mode::Dependence`] — everything above plus memory-access hooks:
//!   binding stamps (`__ceres_declvars`), variable writes (`__ceres_wrvar`),
//!   object-creation wraps (`__ceres_wrap`), property reads/writes
//!   (`__ceres_getprop` / `__ceres_setprop` / `__ceres_setprop2` /
//!   `__ceres_update_prop`) and method calls (`__ceres_mcall`, which
//!   preserves the receiver).
//!
//! Loop exit hooks are exact even under `break`/`continue`/`return`/`throw`
//! because every loop is wrapped in `try { … } finally { exit() }`.

pub mod hooks;
pub mod parallelize;
pub mod refactor;
pub mod rewrite;
pub mod shape;

pub use hooks::*;
pub use parallelize::{parallelize_loop, ParallelizeError, PAR_ENTER, PAR_EXIT, PAR_ITER};
pub use refactor::{refactor_loop, RefactorError};
pub use rewrite::{instrument_program, instrument_source, Mode};
