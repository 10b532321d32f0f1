//! # ceres-interp
//!
//! A deterministic, tree-walking JavaScript interpreter — the "browser" in
//! the js-ceres-rs reproduction of *"Are web applications ready for
//! parallelism?"* (PPoPP 2015).
//!
//! Why an interpreter instead of a real engine: JS-CERES measures *where
//! time goes* (Table 2) and *how memory is accessed* (Table 3, Fig. 6).
//! Running the instrumented sources on a virtual-clock interpreter makes
//! every measurement exact and reproducible, while preserving all the
//! semantics the study depends on — function-scoped `var`, closures,
//! prototype construction, higher-order array operators, and an event loop
//! with idle time.
//!
//! Key pieces:
//!
//! * [`value`] — values and the object heap (unique object ids for analysis
//!   side tables; the stand-in for the paper's ES `Proxy` stamps), and the
//!   write log the fork-join executor builds its merge from;
//! * `env` — function-scoped environments with unique binding ids;
//! * [`clock`] — virtual clock plus the simulated Gecko sampling profiler
//!   (reproduces the paper's "Active < In-Loops" artifact);
//! * [`interp`] — the evaluator, host-function registry and event loop;
//! * [`builtins`] — `Math` (seeded random), arrays, strings, timers, etc.
//! * [`ops`] — ES5 coercion and operator semantics.
//! * [`mod@intern`] — the `Sym` symbol table and fast hashing that keep the
//!   dependence-analysis hot path allocation-free (see
//!   `docs/PERFORMANCE.md`).
//! * [`hooks`] — the instrumentation hook names and the typed
//!   [`HookSink`] entry points the bytecode VM calls.

#![deny(missing_docs)]

pub mod builtins;
pub mod bytecode;
pub mod clock;
pub mod compile;
pub mod env;
pub mod hooks;
pub mod intern;
pub mod interp;
pub mod ops;
pub mod value;
pub mod vm;

pub use clock::{Clock, SAMPLE_INTERVAL, TICKS_PER_MS};
pub use env::{Binding, BindingRef, Scope, ScopeRef};
pub use hooks::HookSink;
pub use intern::{intern, resolve, sym_of_key, FxHashMap, FxHashSet, Sym};
pub use interp::{
    set_default_backend, Backend, Control, Interp, JsResult, Monitor, MAX_CALL_DEPTH,
    WATCHDOG_PREFIX,
};
pub use value::{native_fn, new_array, new_object, CallCtx, NativeFn, ObjKind, ObjRef, Value};

/// Convenience: run a source string on a fresh interpreter (seed 42) and
/// return the interpreter for inspection. Panics on uncaught errors —
/// intended for tests and examples.
pub fn run_source(source: &str) -> Interp {
    let mut interp = Interp::new(42);
    match interp.eval_source(source) {
        Ok(()) => interp,
        Err(c) => panic!("uncaught error: {c:?}\nconsole: {:#?}", interp.console),
    }
}
