//! Fork-join parallel execution of one `ok` loop nest, with a deterministic
//! merge and byte-identity equivalence checking (ROADMAP item 4).
//!
//! This is the execution half of the auto-parallelization pipeline: the
//! what-if profiler ([`mod@crate::whatif`]) predicts which nest is worth
//! parallelizing and by how much; this module actually runs it on W
//! workers and measures what the prediction claimed.
//!
//! # Execution model
//!
//! The interpreter's values are `Rc`-based and cannot cross threads, so we
//! do not share a heap. Instead every worker is a **replica**: each of the
//! W OS threads builds its own fresh [`Interp`] (same seed, same budgets,
//! same DOM) and runs the *whole* gated program — the transform from
//! [`ceres_instrument::parallelize`] has rewritten the target loop so that
//! every iteration's body executes only on the worker that owns it
//! (round-robin: worker k owns iteration c iff `c % W == k`):
//!
//! ```text
//! __ceres_par_enter(ID);                 // open the write log, read the clock
//! for (var i = 0; i < N; i++) {
//!   if (__ceres_par_iter(ID)) { body }   // read the clock; true on the owner only
//! }
//! __ceres_par_exit(ID);                  // join barrier: merge + resync
//! ```
//!
//! Everything outside gated bodies executes identically on every replica
//! (same seed ⇒ same RNG, virtual clock ⇒ same timer schedule), so the
//! replicas stay in lock-step except for the owned loop bodies — which is
//! exactly the state the join has to reconcile.
//!
//! # The join barrier
//!
//! While an instance is open, the heap's write log
//! ([`ceres_interp::value::open_write_log`]) records the pre-image of
//! every object that existed at `__ceres_par_enter`, at its first write.
//! At `__ceres_par_exit` each worker turns the changed slots of those
//! objects, plus the changed program globals (a shallow compare of the
//! global bindings), into a list of merge ops: plain `Send` data whose
//! values are scalars, entry-time objects named by their id, or objects
//! the body created named by their index in the worker's list of new
//! objects. That list holds every new object a changed slot reaches, once,
//! with its prototype, elements and properties as values of the same
//! three kinds, so an object stored in two slots, or one that refers to
//! itself, crosses as one object. A join costs O(writes), not O(heap):
//! nothing walks the global graph unless a refusal needs a path to name.
//!
//! Workers rendezvous on a [`std::sync::Condvar`] barrier; the last
//! arriver checks the rounds for divergence (identical entry ticks and
//! object ids, trip counts, RNG state, canvas pixels, DOM mutation counts,
//! no console growth), checks the write sets for conflicts (two workers
//! writing different values to one location: a global, or an object id
//! plus a key or index; two workers' new objects always differ), and
//! publishes every worker's writes, shared rather than copied. Every
//! worker then moves its object-id counter to the highest any worker
//! reached, makes every worker's new objects in worker order, fills them,
//! and applies every worker's ops in worker order, so each replica
//! converges to the same merged state and names the objects it allocates
//! next alike.
//!
//! # Virtual-clock resynchronization
//!
//! Replicas must leave the barrier with **identical virtual clocks**, or
//! timers registered after the loop would fire in different orders. The
//! hooks only read the clock: each worker records it at the enter hook, at
//! each of the N gate calls and at the exit hook, and brings those N + 2
//! readings to the barrier, where one function (`settle_round`) does
//! all the algebra. Reading `j + 1` minus reading `j` is segment `j`:
//! segment 0 is the loop's prefix (init, first condition, first gate) and
//! segment `c + 1` is iteration `c`, owned by worker `c % W`. Every worker
//! that does not own a segment must have paid one shared cost for it: the
//! common prefix, the header `h` (update, condition, gate), or on the last
//! iteration the exit edge `e`; any other cost refuses the round. Worker
//! `k`'s *owned extra* `E_k` is its instance time `Δ_k` minus the shared
//! part `S` (the prefix plus each iteration's `h` or `e`), the body work
//! it actually did, and every worker resynchronizes to
//!
//! ```text
//! t_enter + S + Σ_k E_k
//! ```
//!
//! — the entry tick plus each segment's cost on its owner, the tick the
//! loop would have reached on **one** worker. Total ticks are therefore
//! identical to the 1-worker run of the same gated program, and everything
//! downstream (timers, sampling budget, watchdog) behaves identically. The
//! parallelism win is recorded on the side: per instance the critical path
//! is `S + max_k E_k`, so the run banks `Σ_k E_k - max_k E_k` *saved*
//! ticks ([`ParallelRunOutput::par_saved_ticks`]), and the measured
//! speedup is `final_ticks / (final_ticks - saved)`. On one worker nothing
//! is un-owned, so `S` is the prefix and nothing is saved.
//!
//! # Equivalence gate
//!
//! [`equivalence`] compares two runs (canonically: the same gated program
//! on 1 worker and on W workers) for byte-identity of console output,
//! canonical global-state render, canvas checksums, DOM mutation count,
//! final virtual clock, and drained event count. The fleet-wide contract
//! lives in `docs/PARALLELIZE.md`; `scripts/bench_check.sh
//! parallel-equivalence` enforces it in CI.

use ceres_dom::DomHandle;
use ceres_instrument::parallelize::{
    parallelize_loop, ParallelizeError, PAR_ENTER, PAR_EXIT, PAR_ITER,
};
use ceres_interp::value::{
    advance_object_ids, close_write_log, next_object_id, object_by_id, open_write_log, PreImage,
};
use ceres_interp::{
    intern, new_array, new_object, resolve, Control, FxHashMap, FxHashSet, Interp, JsResult,
    ObjKind, ObjRef, Sym, Value,
};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Objects deeper than this render as `<depth-capped>` in the final state,
/// and the path walk that names a refused location stops there.
const SNAP_DEPTH: u32 = 24;

/// How long a worker waits at the join barrier before declaring the run
/// wedged. Generous: peers may be executing large owned bodies.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// Specification of one parallel (or 1-worker control) run.
#[derive(Clone)]
pub struct ParallelSpec {
    /// Combined uninstrumented JavaScript (same text `analyze` ran, so
    /// [`ceres_ast::LoopId`]s line up with the analysis reports).
    pub source: String,
    /// Loop to rewrite into fork-join form; `None` runs the program
    /// unmodified (the ungated control used to measure gate overhead).
    pub target: Option<ceres_ast::LoopId>,
    /// Worker count (`>= 1`). `1` is the sequential control arm of the
    /// equivalence gate: same gating, same accounting, no parallelism.
    pub workers: usize,
    /// Interpreter RNG seed (the pipeline uses 2015).
    pub seed: u64,
    /// Event-drain budget, as in [`crate::AnalyzeOptions`].
    pub max_events: usize,
    /// Virtual-clock watchdog budget.
    pub max_ticks: Option<u64>,
    /// Wall-clock backstop.
    pub wall_budget: Option<Duration>,
    /// Post-load interaction driver (plain `fn` so it is `Send`); the
    /// registry workloads expose exactly this shape.
    pub interaction: Option<fn(&mut Interp, &DomHandle) -> JsResult<()>>,
}

/// Why a parallel run failed. Refusals are first-class results: the
/// driver records them per app instead of crashing the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// The static transform refused the loop (see
    /// [`ceres_instrument::parallelize`] for the preconditions).
    Parallelize(ParallelizeError),
    /// The source did not parse.
    Parse(String),
    /// A worker's JavaScript execution failed.
    Js(String),
    /// Workers disagreed at a barrier or in final output — the loop was
    /// not actually safe to parallelize (or the clock algebra was
    /// violated); the sequential result stands.
    Diverged(String),
    /// Two workers wrote different values to the same location, named by
    /// its global path.
    WriteConflict(String),
    /// A gated body wrote a value the merge cannot carry: a function or a
    /// host object the body created.
    Unmergeable(String),
    /// A peer worker failed first; this worker was unwound.
    Poisoned(String),
    /// A worker thread panicked or could not be joined.
    Thread(String),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Parallelize(e) => write!(f, "refused: {e}"),
            ParallelError::Parse(e) => write!(f, "parse error: {e}"),
            ParallelError::Js(e) => write!(f, "js error: {e}"),
            ParallelError::Diverged(e) => write!(f, "workers diverged: {e}"),
            ParallelError::WriteConflict(e) => write!(f, "write conflict: {e}"),
            ParallelError::Unmergeable(e) => write!(f, "unmergeable state: {e}"),
            ParallelError::Poisoned(e) => write!(f, "aborted by peer failure: {e}"),
            ParallelError::Thread(e) => write!(f, "worker thread failure: {e}"),
        }
    }
}

impl std::error::Error for ParallelError {}

/// Everything observable about one run, for the equivalence gate and the
/// bench report. All fields are plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRunOutput {
    /// Worker count the run used.
    pub workers: usize,
    /// Captured console output.
    pub console: Vec<String>,
    /// Canonical text render of the reachable (non-builtin) global state.
    pub state_render: String,
    /// SHA-256 of [`ParallelRunOutput::state_render`].
    pub state_digest: String,
    /// Per-canvas pixel checksums, sorted by canvas object id.
    pub canvas: Vec<(u64, u64)>,
    /// Total DOM mutations performed.
    pub dom_mutations: u64,
    /// Final virtual clock (identical across worker counts by the resync
    /// contract).
    pub final_ticks: u64,
    /// Events drained from the queue.
    pub events: u64,
    /// Gated-loop instances executed.
    pub instances: u64,
    /// Gated iterations worker 0 owned, across all instances: every
    /// iteration at `workers == 1`, about a `1/workers` share otherwise.
    pub par_iterations: u64,
    /// Virtual ticks the fork-join actually removed from the critical
    /// path: `Σ_instances (Σ_k E_k - max_k E_k)`. Zero when `workers == 1`.
    pub par_saved_ticks: u64,
    /// Join barriers crossed: one per instance, so always equal to
    /// [`ParallelRunOutput::instances`], `workers == 1` included.
    pub rounds: u64,
    /// Merge ops applied across all barriers: each worker's changed slots
    /// of entry-time objects and changed program globals, counted once per
    /// worker that wrote them.
    pub merged_ops: u64,
    /// Real wall time of the whole run (not gated on, informational).
    pub wall_ms: f64,
}

impl ParallelRunOutput {
    /// Measured critical-path speedup of this run relative to the same
    /// gated program on one worker: `final / (final - saved)`.
    pub fn measured_speedup(&self) -> f64 {
        let t = self.final_ticks as f64;
        let saved = self.par_saved_ticks as f64;
        if t <= saved || t == 0.0 {
            1.0
        } else {
            t / (t - saved)
        }
    }
}

/// Result of [`equivalence`]: field-by-field comparison of two runs.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// True when every compared field was byte-identical.
    pub identical: bool,
    /// Human-readable description of each differing field.
    pub diffs: Vec<String>,
}

/// Compare two runs for byte-identity of everything a user of the app
/// could observe (plus the virtual clock, which the resync contract pins).
pub fn equivalence(seq: &ParallelRunOutput, par: &ParallelRunOutput) -> EquivalenceReport {
    let mut diffs = Vec::new();
    if seq.console != par.console {
        diffs.push(format!(
            "console differs: {} vs {} lines",
            seq.console.len(),
            par.console.len()
        ));
    }
    if seq.state_render != par.state_render {
        diffs.push(format!(
            "global state differs: digest {} vs {}",
            seq.state_digest, par.state_digest
        ));
    }
    if seq.canvas != par.canvas {
        diffs.push(format!(
            "canvas checksums differ: {:?} vs {:?}",
            seq.canvas, par.canvas
        ));
    }
    if seq.dom_mutations != par.dom_mutations {
        diffs.push(format!(
            "dom mutations differ: {} vs {}",
            seq.dom_mutations, par.dom_mutations
        ));
    }
    if seq.final_ticks != par.final_ticks {
        diffs.push(format!(
            "final virtual clock differs: {} vs {} ticks",
            seq.final_ticks, par.final_ticks
        ));
    }
    if seq.events != par.events {
        diffs.push(format!(
            "events drained differ: {} vs {}",
            seq.events, par.events
        ));
    }
    EquivalenceReport {
        identical: diffs.is_empty(),
        diffs,
    }
}

// ---------------------------------------------------------------------------
// The final state render
// ---------------------------------------------------------------------------

/// The globals the *program* created (baseline = builtins, DOM, hooks —
/// recorded before `eval`), in name order.
fn program_globals(interp: &Interp, baseline: &FxHashSet<Sym>) -> Vec<(String, Value)> {
    interp
        .global
        .local_names()
        .into_iter()
        .filter(|n| !baseline.contains(&intern(n)))
        .map(|n| {
            let v = interp.global.get(&n).unwrap_or(Value::Undefined);
            (n, v)
        })
        .collect()
}

/// Canonical text render of every program global, ordered by name, for
/// digests and diffs in error messages. Structural and id-free: two
/// replicas that computed the same data render alike. A function renders
/// as `<function>`, a host-tagged object as `<tag>`, an object already on
/// the path from its global as `<cycle>`, and one nested deeper than
/// [`SNAP_DEPTH`] as `<depth-capped>`.
fn render_globals(interp: &Interp, baseline: &FxHashSet<Sym>) -> String {
    use std::fmt::Write;
    fn pad(out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
    fn render(v: &Value, depth: u32, visiting: &mut FxHashSet<u64>, out: &mut String) {
        let o = match v {
            Value::Object(o) => o,
            Value::Undefined => return out.push_str("undefined"),
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n:?}");
                return;
            }
            Value::Str(s) => {
                let _ = write!(out, "{s:?}");
                return;
            }
        };
        if o.is_callable() {
            return out.push_str("<function>");
        }
        if let Some(tag) = o.tag() {
            let _ = write!(out, "<{tag}>");
            return;
        }
        if depth == 0 {
            return out.push_str("<depth-capped>");
        }
        if !visiting.insert(o.id()) {
            return out.push_str("<cycle>");
        }
        let indent = (SNAP_DEPTH - depth) as usize;
        let obj = o.borrow();
        let els = match &obj.kind {
            ObjKind::Array(els) => Some(els.as_slice()),
            _ => None,
        };
        out.push_str(if els.is_some() { "[\n" } else { "{\n" });
        for e in els.unwrap_or_default() {
            pad(out, indent + 1);
            render(e, depth - 1, visiting, out);
            out.push_str(",\n");
        }
        // An array's index keys live in its elements; a named key spelling
        // an index below the length is left to them. Its other named keys
        // follow the elements, marked with a dot.
        for k in &obj.key_order {
            let name = resolve(*k);
            if matches!(els, Some(els) if matches!(name.parse::<usize>(), Ok(i) if i < els.len())) {
                continue;
            }
            if let Some(v) = obj.props.get(k) {
                pad(out, indent + 1);
                let dot = if els.is_some() { "." } else { "" };
                let _ = write!(out, "{dot}{name}: ");
                render(v, depth - 1, visiting, out);
                out.push_str(",\n");
            }
        }
        pad(out, indent);
        out.push(if els.is_some() { ']' } else { '}' });
        visiting.remove(&o.id());
    }
    let mut visiting = FxHashSet::default();
    let mut out = String::new();
    for (name, v) in program_globals(interp, baseline) {
        out.push_str(&name);
        out.push_str(" = ");
        render(&v, SNAP_DEPTH, &mut visiting, &mut out);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Merge ops from the write log
// ---------------------------------------------------------------------------

/// A scalar value; `Num` keeps raw bits so `-0` and NaN compare exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scalar {
    Undefined,
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
}

impl Scalar {
    /// The scalar `v` holds, or `None` for an object.
    fn of(v: &Value) -> Option<Scalar> {
        Some(match v {
            Value::Undefined => Scalar::Undefined,
            Value::Null => Scalar::Null,
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Num(n) => Scalar::Num(n.to_bits()),
            Value::Str(s) => Scalar::Str(s.to_string()),
            Value::Object(_) => return None,
        })
    }

    fn to_value(&self) -> Value {
        match self {
            Scalar::Undefined => Value::Undefined,
            Scalar::Null => Value::Null,
            Scalar::Bool(b) => Value::Bool(*b),
            Scalar::Num(bits) => Value::Num(f64::from_bits(*bits)),
            Scalar::Str(s) => Value::str(s.as_str()),
        }
    }
}

/// A value a merge op writes: a scalar, an object every replica had at
/// the instance's entry, by id, or an object the writing worker's body
/// created, by its index in that worker's [`Writes::news`].
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Scalar(Scalar),
    Old(u64),
    New(usize),
}

/// An object a worker's body created, as it stood at the barrier.
#[derive(Debug, Clone)]
struct NewObj {
    /// Its elements, for an array.
    elems: Option<Vec<Val>>,
    /// Its prototype; `null` for none.
    proto: Val,
    /// Its named properties, in insertion order.
    props: Vec<(String, Val)>,
}

/// One write a worker performed inside a gated instance.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Bind a program global.
    Global(String, Val),
    /// Write an element of the array with this id.
    Elem(u64, usize, Val),
    /// Write a named property of the object with this id.
    Prop(u64, String, Val),
    /// Delete a named property of the object with this id.
    Delete(u64, String),
    /// Shrink the array with this id to a length.
    Truncate(u64, usize),
}

/// One worker's writes for one instance, as plain `Send` data every
/// replica can replay.
#[derive(Debug, Clone)]
struct Writes {
    /// Every object the body created that a changed slot reaches, each
    /// listed once.
    news: Vec<NewObj>,
    ops: Vec<Op>,
}

/// Where an op writes: the key of the barrier's conflict check. Deleting
/// and writing one property write one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc<'a> {
    Global(&'a str),
    Elem(u64, usize),
    Prop(u64, &'a str),
    Len(u64),
}

impl Op {
    fn loc(&self) -> Loc<'_> {
        match self {
            Op::Global(name, _) => Loc::Global(name),
            Op::Elem(id, i, _) => Loc::Elem(*id, *i),
            Op::Prop(id, k, _) | Op::Delete(id, k) => Loc::Prop(*id, k),
            Op::Truncate(id, _) => Loc::Len(*id),
        }
    }

    fn val(&self) -> Option<&Val> {
        match self {
            Op::Global(_, v) | Op::Elem(_, _, v) | Op::Prop(_, _, v) => Some(v),
            Op::Delete(..) | Op::Truncate(..) => None,
        }
    }
}

/// Do two values name the same thing? Numbers by bits, objects by id.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a.strict_eq(b),
    }
}

/// Names the values one worker wrote. An object with an id below `fresh`
/// existed at entry and goes by id; a newer one is listed once, when a
/// slot first reaches it, and goes by its index in the list.
struct Namer<'a> {
    interp: &'a Interp,
    baseline: &'a FxHashSet<Sym>,
    fresh: u64,
    news: Vec<ObjRef>,
    index: FxHashMap<u64, usize>,
}

impl Namer<'_> {
    /// The value `v` in the slot at `loc`. A function or a host object the
    /// body created cannot cross to another replica and refuses, named by
    /// the slot's global path; one that existed at entry goes by id.
    fn val(&mut self, loc: Loc<'_>, v: &Value) -> Result<Val, String> {
        let Value::Object(o) = v else {
            return Ok(Val::Scalar(Scalar::of(v).expect("a scalar")));
        };
        let what = if o.id() < self.fresh {
            return Ok(Val::Old(o.id()));
        } else if o.is_callable() {
            "function"
        } else if let Some(tag) = o.tag() {
            tag
        } else {
            let next = self.news.len();
            let i = *self.index.entry(o.id()).or_insert(next);
            if i == next {
                self.news.push(o.clone());
            }
            return Ok(Val::New(i));
        };
        Err(format!(
            "body created or changed an unmergeable value ({what}) at {}",
            first_path(self.interp, self.baseline, &[loc]).1
        ))
    }
}

/// This worker's writes for one instance: the changed slots of every
/// object its write log saw, then the changed program globals by name,
/// then every new object those slots reach. An unchanged value emits no
/// op, and neither does an `undefined` in an array slot past the entry
/// length (a hole left by growth). Host-tagged objects stay out, as their
/// effects are checked at the barrier.
fn instance_ops(
    interp: &Interp,
    baseline: &FxHashSet<Sym>,
    act: &ActiveInstance,
    dirty: &[PreImage],
) -> Result<Writes, String> {
    let mut namer = Namer {
        interp,
        baseline,
        fresh: act.enter_next_id,
        news: Vec::new(),
        index: FxHashMap::default(),
    };
    let mut ops = Vec::new();
    for pre in dirty {
        let obj = pre.obj.borrow();
        if obj.tag.is_some() {
            continue;
        }
        let id = pre.obj.id();
        if let (ObjKind::Array(now), Some(old)) = (&obj.kind, &pre.elems) {
            if now.len() < old.len() {
                ops.push(Op::Truncate(id, now.len()));
            }
            for (i, v) in now.iter().enumerate() {
                match old.get(i) {
                    Some(prev) if same(prev, v) => {}
                    None if matches!(v, Value::Undefined) => {}
                    _ => ops.push(Op::Elem(id, i, namer.val(Loc::Elem(id, i), v)?)),
                }
            }
        }
        for k in &pre.key_order {
            if !obj.props.contains_key(k) {
                ops.push(Op::Delete(id, resolve(*k).to_string()));
            }
        }
        for k in &obj.key_order {
            let v = &obj.props[k];
            if !pre.props.get(k).is_some_and(|prev| same(prev, v)) {
                let name = resolve(*k);
                let v = namer.val(Loc::Prop(id, &name), v)?;
                ops.push(Op::Prop(id, name.to_string(), v));
            }
        }
    }
    let mut globals: Vec<(Rc<str>, Value)> = interp
        .global
        .local_values()
        .into_iter()
        .filter(|(s, v)| match act.globals.get(s) {
            Some(prev) => !same(prev, v),
            None => !baseline.contains(s),
        })
        .map(|(s, v)| (resolve(s), v))
        .collect();
    globals.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in &globals {
        let v = namer.val(Loc::Global(name), v)?;
        ops.push(Op::Global(name.to_string(), v));
    }
    // The worklist: naming a new object's contents may list more of them.
    let mut news = Vec::with_capacity(namer.news.len());
    while let Some(o) = namer.news.get(news.len()).cloned() {
        let id = o.id();
        let obj = o.borrow();
        let elems = match &obj.kind {
            ObjKind::Array(els) => Some(
                els.iter()
                    .enumerate()
                    .map(|(i, e)| namer.val(Loc::Elem(id, i), e))
                    .collect::<Result<_, _>>()?,
            ),
            _ => None,
        };
        // A prototype has no slot of its own; a refusal names the object.
        let proto = match &obj.proto {
            Some(p) => namer.val(Loc::Len(id), &Value::Object(p.clone()))?,
            None => Val::Scalar(Scalar::Null),
        };
        let props = obj
            .key_order
            .iter()
            .map(|k| {
                let name = resolve(*k);
                let v = namer.val(Loc::Prop(id, &name), &obj.props[k])?;
                Ok((name.to_string(), v))
            })
            .collect::<Result<_, String>>()?;
        news.push(NewObj {
            elems,
            proto,
            props,
        });
    }
    Ok(Writes { news, ops })
}

/// The global path of the first of `wanted` that a walk of the program
/// globals meets, and its index. The walk takes globals by name, then
/// depth first each object's length, its elements, its deleted and then
/// its present named properties, so the first clash named is the first in
/// that order. An object no global reaches is named by id. Only a refusal
/// pays for this walk.
fn first_path(interp: &Interp, baseline: &FxHashSet<Sym>, wanted: &[Loc<'_>]) -> (usize, String) {
    struct Walk<'w, 'a> {
        wanted: &'w [Loc<'a>],
        seen: FxHashSet<u64>,
        path: String,
    }
    impl Walk<'_, '_> {
        fn hit(&self, loc: Loc<'_>) -> Option<(usize, String)> {
            let i = self.wanted.iter().position(|l| *l == loc)?;
            Some((i, self.path.clone()))
        }

        fn slot(
            &mut self,
            seg: &str,
            loc: Loc<'_>,
            v: &Value,
            depth: u32,
        ) -> Option<(usize, String)> {
            let len = self.path.len();
            self.path.push_str(seg);
            let found = self.hit(loc).or_else(|| self.value(v, depth));
            self.path.truncate(len);
            found
        }

        fn value(&mut self, v: &Value, depth: u32) -> Option<(usize, String)> {
            let Value::Object(o) = v else { return None };
            if depth == 0 || o.is_callable() || o.tag().is_some() || !self.seen.insert(o.id()) {
                return None;
            }
            let id = o.id();
            if let Some(found) = self.hit(Loc::Len(id)) {
                return Some(found);
            }
            let obj = o.borrow();
            if let ObjKind::Array(els) = &obj.kind {
                for (i, e) in els.iter().enumerate() {
                    if let Some(found) =
                        self.slot(&format!("[{i}]"), Loc::Elem(id, i), e, depth - 1)
                    {
                        return Some(found);
                    }
                }
            }
            for (i, l) in self.wanted.iter().enumerate() {
                if let Loc::Prop(oid, k) = l {
                    if *oid == id && !obj.props.contains_key(&intern(k)) {
                        return Some((i, format!("{}.{k}", self.path)));
                    }
                }
            }
            for k in &obj.key_order {
                let name = resolve(*k);
                let v = &obj.props[k];
                if let Some(found) =
                    self.slot(&format!(".{name}"), Loc::Prop(id, &name), v, depth - 1)
                {
                    return Some(found);
                }
            }
            None
        }
    }
    let mut walk = Walk {
        wanted,
        seen: FxHashSet::default(),
        path: String::new(),
    };
    for (name, v) in program_globals(interp, baseline) {
        if let Some(found) = walk.slot(&format!(".{name}"), Loc::Global(&name), &v, SNAP_DEPTH) {
            return found;
        }
    }
    let at = match wanted[0] {
        Loc::Global(name) => format!(".{name}"),
        Loc::Elem(id, i) => format!("(object #{id})[{i}]"),
        Loc::Prop(id, k) => format!("(object #{id}).{k}"),
        Loc::Len(id) => format!("(object #{id})"),
    };
    (0, at)
}

/// Replay every worker's writes on this replica, in worker order, and
/// count the ops. First every worker's new objects are made, empty and in
/// worker order, so each gets one id on every replica; then they are
/// filled, then every op's value is resolved, and only then does an op
/// write, so an object one op unlinks is still there for a later op that
/// links it elsewhere. A target object this replica no longer holds is
/// unreachable here, and its write is dropped.
fn apply(interp: &Interp, merged: &[Writes]) -> Result<u64, String> {
    let made: Vec<Vec<ObjRef>> = merged
        .iter()
        .map(|w| {
            w.news
                .iter()
                .map(|n| match n.elems {
                    Some(_) => new_array(Vec::new()),
                    None => new_object(),
                })
                .collect()
        })
        .collect();
    let value = |k: usize, v: &Val| -> Result<Value, String> {
        Ok(match v {
            Val::Scalar(s) => s.to_value(),
            Val::Old(id) => Value::Object(
                object_by_id(*id)
                    .ok_or_else(|| format!("merged object #{id} is gone on this replica"))?,
            ),
            Val::New(i) => Value::Object(made[k][*i].clone()),
        })
    };
    for (k, w) in merged.iter().enumerate() {
        for (n, o) in w.news.iter().zip(&made[k]) {
            if let Some(els) = &n.elems {
                let els = els.iter().map(|e| value(k, e)).collect::<Result<_, _>>()?;
                o.with_array_mut(|v| *v = els);
            }
            if let Value::Object(p) = value(k, &n.proto)? {
                o.set_proto(Some(p));
            }
            for (key, v) in &n.props {
                o.set_prop(key, value(k, v)?);
            }
        }
    }
    let mut ops = Vec::new();
    for (k, w) in merged.iter().enumerate() {
        for op in &w.ops {
            ops.push((op, op.val().map(|v| value(k, v)).transpose()?));
        }
    }
    let count = ops.len() as u64;
    for (op, value) in ops {
        match (op, value) {
            (Op::Global(name, _), Some(v)) => {
                if !interp.global.set(name, v.clone()) {
                    interp.global.declare(name, v);
                }
            }
            (Op::Elem(id, i, _), Some(v)) => {
                if let Some(o) = object_by_id(*id) {
                    o.array_set(*i, v);
                }
            }
            (Op::Prop(id, k, _), Some(v)) => {
                if let Some(o) = object_by_id(*id) {
                    o.set_prop(k, v);
                }
            }
            (Op::Delete(id, k), _) => {
                if let Some(o) = object_by_id(*id) {
                    o.borrow_mut().delete_prop(k);
                }
            }
            (Op::Truncate(id, n), _) => {
                if let Some(o) = object_by_id(*id) {
                    o.with_array_mut(|v| v.truncate(*n));
                }
            }
            _ => unreachable!("every write op carries a value"),
        }
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// The join barrier
// ---------------------------------------------------------------------------

/// What one worker brings to a join barrier.
#[derive(Debug, Clone)]
struct WorkerRound {
    /// The clock at the enter hook, at each gate and at the exit hook.
    ticks: Vec<u64>,
    console_grew: bool,
    rng_state: u64,
    canvas: Vec<(u64, u64)>,
    mutations: u64,
    /// The id the first object allocated inside the instance got.
    enter_next_id: u64,
    /// The id the next object allocated gets.
    next_id: u64,
    writes: Writes,
}

/// What the barrier publishes back to every worker.
struct RoundResult {
    /// Resync target: the entry tick plus each segment's cost on its owner.
    target_ticks: u64,
    /// `Σ E_k - max E_k` — ticks removed from the critical path.
    saved: u64,
    /// Where every replica moves its object-id counter before the apply:
    /// the highest any worker reached, so the objects the apply makes get
    /// one id on every replica.
    next_id: u64,
    /// All workers' writes, in worker order.
    merged: Vec<Writes>,
}

/// A write conflict found at a barrier: each location worker `worker`
/// wrote that an earlier worker wrote differently.
struct Conflict {
    worker: usize,
    /// The earlier worker, and this worker's op.
    clashes: Vec<(usize, Op)>,
}

impl Conflict {
    /// The refusal, naming the first clash by its global path on this
    /// replica.
    fn refusal(&self, interp: &Interp, baseline: &FxHashSet<Sym>) -> ParallelError {
        let wanted: Vec<Loc<'_>> = self.clashes.iter().map(|(_, op)| op.loc()).collect();
        let (i, path) = first_path(interp, baseline, &wanted);
        ParallelError::WriteConflict(format!(
            "workers {} and {} wrote different values to `{path}`",
            self.clashes[i].0, self.worker
        ))
    }
}

/// Why a worker leaves a barrier without a merge.
enum Refusal {
    Failed(ParallelError),
    /// A write conflict for this worker to name: the worker that wrote
    /// second names it on its own heap, which is the state the clash came
    /// from.
    Conflict(Conflict),
}

struct RoundState {
    round: u64,
    arrived: usize,
    slots: Vec<Option<WorkerRound>>,
    published: Option<Arc<RoundResult>>,
    /// A write conflict its worker has not named yet.
    conflict: Option<Conflict>,
    poison: Option<ParallelError>,
}

/// Condvar rendezvous shared by the workers. Any failure poisons it so
/// peers unwind instead of deadlocking.
struct Coordinator {
    workers: usize,
    inner: Mutex<RoundState>,
    cv: Condvar,
}

impl Coordinator {
    fn new(workers: usize) -> Coordinator {
        Coordinator {
            workers,
            inner: Mutex::new(RoundState {
                round: 0,
                arrived: 0,
                slots: vec![None; workers],
                published: None,
                conflict: None,
                poison: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn poison(&self, err: ParallelError) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.poison.is_none() {
            g.poison = Some(err);
        }
        self.cv.notify_all();
    }

    fn rendezvous(&self, wid: usize, data: WorkerRound) -> Result<Arc<RoundResult>, Refusal> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = &g.poison {
            return Err(Refusal::Failed(ParallelError::Poisoned(p.to_string())));
        }
        let my_round = g.round;
        g.slots[wid] = Some(data);
        g.arrived += 1;
        if g.arrived == self.workers {
            let rounds: Vec<WorkerRound> = g.slots.iter_mut().map(|s| s.take().unwrap()).collect();
            g.arrived = 0;
            match merge_round(rounds) {
                Ok(res) => {
                    g.published = Some(Arc::new(res));
                    g.round += 1;
                }
                Err(Refusal::Conflict(c)) => g.conflict = Some(c),
                Err(Refusal::Failed(e)) => {
                    g.poison = Some(e.clone());
                    self.cv.notify_all();
                    return Err(Refusal::Failed(e));
                }
            }
            self.cv.notify_all();
        }
        loop {
            if let Some(p) = &g.poison {
                return Err(Refusal::Failed(ParallelError::Poisoned(p.to_string())));
            }
            if g.round != my_round {
                return Ok(g.published.clone().expect("published round"));
            }
            if g.conflict.as_ref().is_some_and(|c| c.worker == wid) {
                return Err(Refusal::Conflict(g.conflict.take().expect("a conflict")));
            }
            let (guard, timeout) = self
                .cv
                .wait_timeout(g, BARRIER_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
            if timeout.timed_out() && g.round == my_round && g.poison.is_none() {
                let err = ParallelError::Diverged(format!(
                    "worker {wid} timed out at the join barrier after {}s",
                    BARRIER_TIMEOUT.as_secs()
                ));
                g.poison = Some(err.clone());
                self.cv.notify_all();
                return Err(Refusal::Failed(err));
            }
        }
    }
}

/// The barrier math + divergence and conflict checks, run once per round
/// by the last worker to arrive.
fn merge_round(rounds: Vec<WorkerRound>) -> Result<RoundResult, Refusal> {
    let (target_ticks, saved) = settle_round(&rounds).map_err(Refusal::Failed)?;

    // Write-conflict check: each worker emits at most one op per
    // location, so two workers writing one location must write one value.
    // A new object is its own worker's, unlike any other worker's.
    let total = rounds.iter().map(|r| r.writes.ops.len()).sum();
    let mut writers: FxHashMap<Loc<'_>, (usize, &Op)> =
        FxHashMap::with_capacity_and_hasher(total, Default::default());
    for (k, r) in rounds.iter().enumerate() {
        let mut clashes = Vec::new();
        for op in &r.writes.ops {
            match writers.entry(op.loc()) {
                Entry::Vacant(e) => {
                    e.insert((k, op));
                }
                Entry::Occupied(e) => {
                    let (prev_k, prev) = *e.get();
                    if prev != op || matches!(op.val(), Some(Val::New(_))) {
                        clashes.push((prev_k, op.clone()));
                    }
                }
            }
        }
        if !clashes.is_empty() {
            return Err(Refusal::Conflict(Conflict { worker: k, clashes }));
        }
    }
    drop(writers);

    Ok(RoundResult {
        target_ticks,
        saved,
        next_id: rounds.iter().map(|r| r.next_id).max().unwrap_or(0),
        merged: rounds.into_iter().map(|r| r.writes).collect(),
    })
}

/// The divergence checks and the clock algebra: the resync target and the
/// saved ticks.
fn settle_round(rounds: &[WorkerRound]) -> Result<(u64, u64), ParallelError> {
    let first = &rounds[0];
    for (k, r) in rounds.iter().enumerate() {
        if r.ticks[0] != first.ticks[0] {
            return Err(ParallelError::Diverged(format!(
                "workers entered the instance at different ticks ({} vs {} on worker {k})",
                first.ticks[0], r.ticks[0]
            )));
        }
        if r.enter_next_id != first.enter_next_id {
            return Err(ParallelError::Diverged(format!(
                "workers entered the instance with different heaps (next object id {} vs {} on worker {k})",
                first.enter_next_id, r.enter_next_id
            )));
        }
        if r.ticks.len() != first.ticks.len() {
            return Err(ParallelError::Diverged(format!(
                "trip count differs: worker 0 saw {}, worker {k} saw {}",
                first.ticks.len() - 2,
                r.ticks.len() - 2
            )));
        }
        if r.console_grew {
            return Err(ParallelError::Diverged(format!(
                "worker {k} produced console output inside a gated body"
            )));
        }
        if r.rng_state != first.rng_state {
            return Err(ParallelError::Diverged(format!(
                "seeded RNG drawn inside a gated body (worker {k} state differs)"
            )));
        }
        if r.canvas != first.canvas {
            return Err(ParallelError::Diverged(format!(
                "canvas pixels differ on worker {k} at the barrier"
            )));
        }
        if r.mutations != first.mutations {
            return Err(ParallelError::Diverged(format!(
                "DOM mutation counts differ on worker {k} at the barrier"
            )));
        }
    }

    // Segment `j` is `ticks[j + 1] - ticks[j]`: segment 0 runs from the
    // enter hook to the first gate, and segment `c + 1` is iteration `c`,
    // owned by worker `c % W`. A worker that does not own a segment pays
    // one shared cost for it, by kind: the prefix, a header, or the exit
    // edge on the last iteration.
    let segments = first.ticks.len() - 1;
    let kind = |j: usize| match j {
        0 => 0,
        _ if j + 1 < segments => 1,
        _ => 2,
    };
    let mut shared = [None; 3];
    for (k, r) in rounds.iter().enumerate() {
        for (j, t) in r.ticks.windows(2).enumerate() {
            if j > 0 && (j - 1) % rounds.len() == k {
                continue;
            }
            let d = t[1] - t[0];
            let s = *shared[kind(j)].get_or_insert(d);
            if d != s {
                return Err(ParallelError::Diverged(format!(
                    "un-owned iteration cost not constant ({s} vs {d} ticks in segment {j} on worker {k}) — loop header observes body effects"
                )));
            }
        }
    }
    // `S` sums each segment's shared cost, and a worker's owned extra `E_k`
    // is the rest of its instance: the bodies it ran. One worker sees no
    // header or exit edge, so its `E_0` is all but the prefix and nothing
    // is saved.
    let s: u64 = (0..segments).map(|j| shared[kind(j)].unwrap_or(0)).sum();
    let extras: Vec<u64> = rounds
        .iter()
        .map(|r| (r.ticks[segments] - r.ticks[0]).saturating_sub(s))
        .collect();
    let sum: u64 = extras.iter().sum();
    let max = extras.iter().copied().max().unwrap_or(0);
    Ok((first.ticks[0] + s + sum, sum - max))
}

// ---------------------------------------------------------------------------
// Worker execution
// ---------------------------------------------------------------------------

/// Per-worker mutable state the three hooks share.
struct ParState {
    wid: usize,
    workers: usize,
    /// Globals bound before the program ran (builtins, DOM, hooks).
    baseline: FxHashSet<Sym>,
    active: Option<ActiveInstance>,
    instances: u64,
    iterations: u64,
    saved: u64,
    merged_ops: u64,
}

struct ActiveInstance {
    /// The clock at the enter hook and at each gate so far.
    ticks: Vec<u64>,
    console_len: usize,
    /// The id of the first object allocated inside the instance; the write
    /// log covers every older one.
    enter_next_id: u64,
    /// The program globals' values at entry.
    globals: FxHashMap<Sym, Value>,
}

fn fatal(coord: &Coordinator, err: ParallelError) -> Control {
    coord.poison(err.clone());
    Control::Fatal(format!("__ceres_par: {err}"))
}

/// Install the three `__ceres_par_*` natives on a worker's interpreter.
fn install_par_hooks(
    interp: &mut Interp,
    state: Rc<RefCell<ParState>>,
    coord: Arc<Coordinator>,
    dom: DomHandle,
) {
    {
        let state = state.clone();
        let coord = coord.clone();
        interp.register_native(PAR_ENTER, move |interp, _ctx, _args| {
            let mut st = state.borrow_mut();
            if st.active.is_some() {
                return Err(fatal(
                    &coord,
                    ParallelError::Diverged(
                        "nested parallel instance: __ceres_par_enter while one is active"
                            .to_string(),
                    ),
                ));
            }
            let globals = interp
                .global
                .local_values()
                .into_iter()
                .filter(|(s, _)| !st.baseline.contains(s))
                .collect();
            open_write_log();
            st.active = Some(ActiveInstance {
                ticks: vec![interp.clock.now_ticks()],
                console_len: interp.console.len(),
                enter_next_id: next_object_id(),
                globals,
            });
            Ok(Value::Undefined)
        });
    }
    {
        let state = state.clone();
        let coord = coord.clone();
        interp.register_native(PAR_ITER, move |interp, _ctx, _args| {
            let mut st = state.borrow_mut();
            let (wid, workers) = (st.wid, st.workers);
            let Some(act) = st.active.as_mut() else {
                return Err(fatal(
                    &coord,
                    ParallelError::Diverged(
                        "__ceres_par_iter outside an active instance".to_string(),
                    ),
                ));
            };
            act.ticks.push(interp.clock.now_ticks());
            Ok(Value::Bool((act.ticks.len() - 2) % workers == wid))
        });
    }
    {
        interp.register_native(PAR_EXIT, move |interp, _ctx, _args| {
            let mut st = state.borrow_mut();
            let (wid, workers) = (st.wid, st.workers);
            let Some(mut act) = st.active.take() else {
                return Err(fatal(
                    &coord,
                    ParallelError::Diverged(
                        "__ceres_par_exit outside an active instance".to_string(),
                    ),
                ));
            };
            act.ticks.push(interp.clock.now_ticks());
            let dirty = close_write_log();
            let writes = match instance_ops(interp, &st.baseline, &act, &dirty) {
                Ok(writes) => writes,
                Err(e) => return Err(fatal(&coord, ParallelError::Unmergeable(e))),
            };
            drop(dirty);
            let owned = (wid..act.ticks.len() - 2).step_by(workers).count();
            let round = WorkerRound {
                ticks: act.ticks,
                console_grew: interp.console.len() != act.console_len,
                rng_state: interp.rng_state(),
                canvas: canvas_checksums(&dom),
                mutations: dom.mutations(),
                enter_next_id: act.enter_next_id,
                next_id: next_object_id(),
                writes,
            };
            let result = match coord.rendezvous(wid, round) {
                Ok(r) => r,
                Err(Refusal::Failed(e)) => return Err(fatal(&coord, e)),
                Err(Refusal::Conflict(c)) => {
                    return Err(fatal(&coord, c.refusal(interp, &st.baseline)))
                }
            };
            advance_object_ids(result.next_id);
            match apply(interp, &result.merged) {
                Ok(n) => st.merged_ops += n,
                Err(e) => return Err(fatal(&coord, ParallelError::Unmergeable(e))),
            }
            let now = interp.clock.now_ticks();
            if result.target_ticks < now {
                return Err(fatal(
                    &coord,
                    ParallelError::Diverged(format!(
                        "resync target {} behind worker {wid} clock {now}",
                        result.target_ticks
                    )),
                ));
            }
            interp.clock.tick(result.target_ticks - now);
            st.instances += 1;
            st.iterations += owned as u64;
            st.saved += result.saved;
            Ok(Value::Undefined)
        });
    }
}

fn canvas_checksums(dom: &DomHandle) -> Vec<(u64, u64)> {
    let shared = dom.shared.borrow();
    let mut sums: Vec<(u64, u64)> = shared
        .canvases
        .iter()
        .map(|(id, c)| (*id, c.borrow().checksum()))
        .collect();
    sums.sort_unstable();
    sums
}

/// One worker: build a replica, run the gated program to completion, and
/// report everything observable.
fn worker_run(
    spec: &ParallelSpec,
    gated_source: &str,
    wid: usize,
    coord: Arc<Coordinator>,
) -> Result<ParallelRunOutput, ParallelError> {
    let wall_start = std::time::Instant::now();
    let mut interp = Interp::new(spec.seed);
    interp.max_ticks = spec.max_ticks;
    interp.clock.set_wall_cap(spec.wall_budget);
    let dom = ceres_dom::install_dom(&mut interp);
    let state = Rc::new(RefCell::new(ParState {
        wid,
        workers: spec.workers,
        baseline: FxHashSet::default(),
        active: None,
        instances: 0,
        iterations: 0,
        saved: 0,
        merged_ops: 0,
    }));
    install_par_hooks(&mut interp, state.clone(), coord.clone(), dom.clone());
    // Baseline: every name bound before the program runs is host-provided
    // and excluded from the merge and the state render.
    state.borrow_mut().baseline = interp
        .global
        .local_values()
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    let js = |coord: &Coordinator, c: Control| -> ParallelError {
        let err = match c {
            Control::Fatal(m) if m.starts_with("__ceres_par: ") => {
                // A hook already poisoned with the precise error; keep it.
                return match coord
                    .inner
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .poison
                    .clone()
                {
                    Some(e) => e,
                    None => ParallelError::Js(m),
                };
            }
            Control::Fatal(m) => ParallelError::Js(m),
            Control::Throw(v) => ParallelError::Js(format!("uncaught throw: {}", v.type_of())),
            other => ParallelError::Js(format!("abnormal completion: {other:?}")),
        };
        coord.poison(err.clone());
        err
    };

    if let Err(c) = interp.eval_source(gated_source) {
        return Err(js(&coord, c));
    }
    if let Some(interaction) = spec.interaction {
        if let Err(c) = interaction(&mut interp, &dom) {
            return Err(js(&coord, c));
        }
    }
    if let Err(c) = interp.run_events(spec.max_events) {
        return Err(js(&coord, c));
    }
    if state.borrow().active.is_some() {
        let err = ParallelError::Diverged("run ended inside an open parallel instance".to_string());
        coord.poison(err.clone());
        return Err(err);
    }

    let st = state.borrow();
    let state_render = render_globals(&interp, &st.baseline);
    let state_digest = crate::cache::sha256_hex(state_render.as_bytes());
    Ok(ParallelRunOutput {
        workers: spec.workers,
        console: interp.console.clone(),
        state_render,
        state_digest,
        canvas: canvas_checksums(&dom),
        dom_mutations: dom.mutations(),
        final_ticks: interp.clock.now_ticks(),
        events: interp.events_processed,
        instances: st.instances,
        par_iterations: st.iterations,
        par_saved_ticks: st.saved,
        rounds: st.instances,
        merged_ops: st.merged_ops,
        wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Run `spec.source` with `spec.target` rewritten into fork-join form on
/// `spec.workers` replicas and return the (verified-identical) output.
///
/// With `target: None` the program runs unmodified on one replica — the
/// ungated control arm for measuring gate overhead.
pub fn run_parallel(spec: &ParallelSpec) -> Result<ParallelRunOutput, ParallelError> {
    assert!(spec.workers >= 1, "run_parallel needs at least one worker");
    let mut program = ceres_parser::parse_program(&spec.source)
        .map_err(|e| ParallelError::Parse(e.to_string()))?;
    ceres_ast::assign_loop_ids(&mut program);
    let gated = match spec.target {
        Some(target) => {
            let rewritten =
                parallelize_loop(&program, target).map_err(ParallelError::Parallelize)?;
            ceres_ast::program_to_source(&rewritten)
        }
        None => ceres_ast::program_to_source(&program),
    };

    let coord = Arc::new(Coordinator::new(spec.workers));
    // Every worker runs in a *fresh* OS thread (including worker 0 and the
    // workers == 1 case) so thread-local id counters start from the same
    // point on every replica and across repeated runs.
    let handles: Vec<_> = (0..spec.workers)
        .map(|wid| {
            let spec = spec.clone();
            let gated = gated.clone();
            let coord = coord.clone();
            std::thread::Builder::new()
                .name(format!("ceres-par-{wid}"))
                .spawn(move || worker_run(&spec, &gated, wid, coord))
                .map_err(|e| ParallelError::Thread(e.to_string()))
        })
        .collect::<Result<_, _>>()?;

    let mut outputs = Vec::with_capacity(spec.workers);
    let mut first_err: Option<ParallelError> = None;
    for (wid, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(out)) => outputs.push(out),
            Ok(Err(e)) => {
                // Prefer the root-cause error over peers' Poisoned echoes.
                let replace = match (&first_err, &e) {
                    (None, _) => true,
                    (Some(ParallelError::Poisoned(_)), other)
                        if !matches!(other, ParallelError::Poisoned(_)) =>
                    {
                        true
                    }
                    _ => false,
                };
                if replace {
                    first_err = Some(e);
                }
            }
            Err(_) => {
                coord.poison(ParallelError::Thread(format!("worker {wid} panicked")));
                if first_err.is_none() {
                    first_err = Some(ParallelError::Thread(format!("worker {wid} panicked")));
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    // Replicas must agree on *everything* observable.
    let first = &outputs[0];
    for (wid, out) in outputs.iter().enumerate().skip(1) {
        let rep = equivalence(first, out);
        if !rep.identical {
            return Err(ParallelError::Diverged(format!(
                "worker {wid} finished with different output than worker 0: {}",
                rep.diffs.join("; ")
            )));
        }
    }
    Ok(outputs.into_iter().next().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(source: &str, target: Option<u32>, workers: usize) -> ParallelSpec {
        ParallelSpec {
            source: source.to_string(),
            target: target.map(ceres_ast::LoopId),
            workers,
            seed: 2015,
            max_events: 1000,
            max_ticks: None,
            wall_budget: Some(Duration::from_secs(30)),
            interaction: None,
        }
    }

    /// Map-style loop with per-iteration scratch in a function activation
    /// (the idiom real apps use; top-level `var` scratch would hoist to
    /// the global scope, where the leftover value is a genuine per-worker
    /// difference the merge refuses). `work`'s inner loop gets id 1, the
    /// parallelized outer loop id 2.
    const MAP_LOOP: &str = "var out = [];\nfunction work(i) { var acc = 0; for (var j = 0; j < 50; j++) { acc = acc + i * j; } return acc; }\nfor (var i = 0; i < 64; i++) { out[i] = work(i); }";
    const MAP_TARGET: u32 = 2;

    #[test]
    fn gated_matches_ungated_semantics() {
        let plain = run_parallel(&spec(MAP_LOOP, None, 1)).unwrap();
        let gated = run_parallel(&spec(MAP_LOOP, Some(MAP_TARGET), 1)).unwrap();
        assert_eq!(plain.state_render, gated.state_render);
        assert_eq!(plain.console, gated.console);
        // Gating costs ticks (the hook calls), so clocks legitimately
        // differ between the plain and gated programs.
        assert!(gated.final_ticks > plain.final_ticks);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let seq = run_parallel(&spec(MAP_LOOP, Some(MAP_TARGET), 1)).unwrap();
        for workers in [2, 3, 4] {
            let par = run_parallel(&spec(MAP_LOOP, Some(MAP_TARGET), workers)).unwrap();
            let rep = equivalence(&seq, &par);
            assert!(rep.identical, "workers={workers}: {:?}", rep.diffs);
            assert!(par.par_saved_ticks > 0, "workers={workers} saved nothing");
            assert!(par.measured_speedup() > 1.0);
        }
    }

    #[test]
    fn speedup_grows_with_workers() {
        let s2 = run_parallel(&spec(MAP_LOOP, Some(MAP_TARGET), 2)).unwrap();
        let s4 = run_parallel(&spec(MAP_LOOP, Some(MAP_TARGET), 4)).unwrap();
        assert!(
            s4.measured_speedup() > s2.measured_speedup(),
            "2w={} 4w={}",
            s2.measured_speedup(),
            s4.measured_speedup()
        );
    }

    #[test]
    fn cross_iteration_dependence_is_a_write_conflict() {
        // Every iteration writes the same accumulator: workers produce
        // different values for `total` and the merge must refuse.
        let src = "var total = 0;\nfor (var i = 0; i < 16; i++) { total = total + i; }";
        let seq = run_parallel(&spec(src, Some(1), 1)).unwrap();
        assert!(
            seq.state_render.contains("total = 120"),
            "{}",
            seq.state_render
        );
        let err = run_parallel(&spec(src, Some(1), 2)).unwrap_err();
        assert!(
            matches!(err, ParallelError::WriteConflict(_)),
            "expected a write conflict, got: {err}"
        );
    }

    #[test]
    fn impure_loop_is_refused_statically() {
        let src = "for (var i = 0; i < 8; i++) { console.log(i); }";
        let err = run_parallel(&spec(src, Some(1), 2)).unwrap_err();
        assert!(matches!(
            err,
            ParallelError::Parallelize(ParallelizeError::ImpureBody(_))
        ));
    }

    #[test]
    fn object_graph_writes_merge() {
        let src = "var rows = [];\nfor (var i = 0; i < 12; i++) { rows[i] = { idx: i, sq: i * i, tags: [i, i + 1] }; }";
        let seq = run_parallel(&spec(src, Some(1), 1)).unwrap();
        let par = run_parallel(&spec(src, Some(1), 3)).unwrap();
        assert!(equivalence(&seq, &par).identical);
        assert!(par.state_render.contains("sq: 121"), "{}", par.state_render);
    }

    #[test]
    fn timers_after_the_loop_fire_identically() {
        let src = "var out = [];\nfunction work(i) { var a = 0; for (var j = 0; j < 40; j++) { a = a + j; } return a + i; }\nfor (var i = 0; i < 32; i++) { out[i] = work(i); }\nvar late = 0;\nsetTimeout(function () { late = out[31]; }, 5);";
        let seq = run_parallel(&spec(src, Some(2), 1)).unwrap();
        let par = run_parallel(&spec(src, Some(2), 4)).unwrap();
        let rep = equivalence(&seq, &par);
        assert!(rep.identical, "{:?}", rep.diffs);
        assert!(
            par.state_render.contains("late = 811"),
            "{}",
            par.state_render
        );
    }
}
