//! The tree-walking evaluator.
//!
//! Design notes:
//!
//! * **Function scoping.** A [`Scope`] is created per activation; `var`s and
//!   function declarations are hoisted at entry (see [`ceres_ast::hoisted`]).
//!   Blocks do not scope. This is what makes the Fig. 6 `p` warning
//!   reproducible.
//! * **Virtual clock.** Every evaluated node charges one tick; function
//!   entries/exits additionally notify the sampling profiler.
//! * **Control flow** is modeled with `Result<_, Control>`: `break`,
//!   `continue`, `return` and `throw` unwind through `?` and are caught by
//!   the nearest construct that handles them. `Control::Fatal` (budget or
//!   internal failure) is never catchable.
//! * **Host hooks.** Native functions receive the interpreter, the call
//!   context (receiver + caller scope) and arguments; the `__ceres_*`
//!   instrumentation hooks the rewriter inserts are registered this way by
//!   `ceres-core`.

use crate::clock::Clock;
use crate::env::{Scope, ScopeRef};
use crate::intern::{self, Sym};
use crate::ops;
use crate::value::{
    native_fn, new_array, new_object, CallCtx, CompiledFn, JsFunction, NativeFn, ObjKind, ObjRef,
    Value,
};
use ceres_ast::ast::*;
use ceres_ast::Hoisted;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Which evaluator executes programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The original recursive tree-walker.
    Tree,
    /// The bytecode compiler + flat dispatch loop (`vm.rs`). Observably
    /// identical to [`Backend::Tree`] — same tick sequence, same heap and
    /// binding ids, same hook order — but without per-node recursion.
    Vm,
}

thread_local! {
    static BACKEND_OVERRIDE: std::cell::Cell<Option<Backend>> =
        const { std::cell::Cell::new(None) };
}

/// Override the backend new interpreters on *this thread* default to.
/// `None` restores the environment-driven default. Intended for in-process
/// equivalence tests; cross-process selection uses `CERES_INTERP_BACKEND`.
pub fn set_default_backend(b: Option<Backend>) {
    BACKEND_OVERRIDE.with(|c| c.set(b));
}

/// The backend a fresh [`Interp`] starts on: the thread-local override if
/// set, else `CERES_INTERP_BACKEND` (`tree` selects the tree-walker),
/// else the VM.
pub fn default_backend() -> Backend {
    if let Some(b) = BACKEND_OVERRIDE.with(|c| c.get()) {
        return b;
    }
    match std::env::var("CERES_INTERP_BACKEND") {
        Ok(s) if s.eq_ignore_ascii_case("tree") => Backend::Tree,
        _ => Backend::Vm,
    }
}

/// Non-local control flow.
pub enum Control {
    /// `return` unwinding to the nearest call.
    Return(Value),
    /// `break` unwinding to the nearest loop.
    Break,
    /// `continue` unwinding to the nearest loop head.
    Continue,
    /// A thrown value unwinding to the nearest `try`.
    Throw(Value),
    /// Uncatchable: tick budget exhausted, stack overflow, internal error.
    Fatal(String),
}

impl std::fmt::Debug for Control {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Control::Return(v) => write!(f, "Return({v:?})"),
            Control::Break => write!(f, "Break"),
            Control::Continue => write!(f, "Continue"),
            Control::Throw(v) => write!(f, "Throw({})", ops::to_string(v)),
            Control::Fatal(m) => write!(f, "Fatal({m})"),
        }
    }
}

/// Prefix carried by `Control::Fatal` messages raised by the execution
/// watchdog (tick budget or wall-clock cap). Callers that need to tell a
/// cancelled runaway apart from a genuine failure match on this via
/// [`Control::is_watchdog`] instead of string-scraping ad hoc.
pub const WATCHDOG_PREFIX: &str = "watchdog:";

impl Control {
    /// Was this error raised by the execution watchdog (budget exhaustion),
    /// as opposed to a genuine program/analysis failure?
    pub fn is_watchdog(&self) -> bool {
        matches!(self, Control::Fatal(m) if m.starts_with(WATCHDOG_PREFIX))
    }
}

/// Result of evaluating an expression.
pub type JsResult<T = Value> = Result<T, Control>;

/// Observer interface used by `ceres-dom` (DOM/Canvas access notifications)
/// and implemented by `ceres-core`'s analysis state.
pub trait Monitor {
    /// A tagged host object (DOM node, canvas context, …) was touched.
    /// `tag` is the object tag, `op` a short operation name.
    fn host_access(&self, tag: &'static str, op: &str);

    /// A task (event-loop callback, dispatched event, top-level script)
    /// begins. Used by the task-parallelism limit study; defaults to no-op.
    fn task_begin(&self, _label: &str, _now_ticks: u64) {}

    /// The innermost task ends.
    fn task_end(&self, _now_ticks: u64) {}
}

/// Scheduled event-loop entry.
pub(crate) struct Scheduled {
    pub at: u64,
    pub seq: u64,
    /// Timer id (0 = not cancellable). `setInterval` entries reschedule
    /// themselves under the same id.
    pub timer_id: u64,
    /// Repeat period in ticks for `setInterval` entries.
    pub period: Option<u64>,
    pub callback: Value,
    pub args: Vec<Value>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Maximum interpreted call depth before a `RangeError` is thrown.
///
/// Kept conservative: each interpreted frame costs several deep Rust frames
/// in the tree-walker, and debug builds must fit a 2 MiB test-thread stack.
pub const MAX_CALL_DEPTH: usize = 96;

/// The interpreter.
pub struct Interp {
    /// The global scope.
    pub global: ScopeRef,
    /// The virtual clock every evaluation step charges.
    pub clock: Clock,
    /// Captured `console.log` lines.
    pub console: Vec<String>,
    /// Optional tick budget; exceeding it aborts with `Control::Fatal`.
    pub max_ticks: Option<u64>,
    /// Events drained from the queue by [`Interp::run_events`] over the
    /// interpreter's lifetime (timers and dispatched callbacks).
    pub events_processed: u64,
    /// Analysis observer (set by `ceres-core`, used by `ceres-dom`).
    pub monitor: Option<Rc<dyn Monitor>>,
    /// Typed entry points of the instrumentation hooks (set by
    /// `ceres-core` beside the by-name natives). A program the VM compiles
    /// while one is installed calls the rewriter's hooks through it; without
    /// one, every hook call is an ordinary call of whatever the name binds.
    pub hook_sink: Option<Rc<dyn crate::hooks::HookSink>>,
    /// Which evaluator [`Interp::eval_program`] uses.
    pub backend: Backend,
    /// Wall time spent lowering ASTs to bytecode, in microseconds
    /// (surfaced by the pipeline as the `interp.compile` sub-span).
    pub compile_us: u64,
    pub(crate) queue: BinaryHeap<Scheduled>,
    pub(crate) queue_seq: u64,
    pub(crate) cancelled_timers: std::collections::HashSet<u64>,
    /// Buffers of finished VM frames, reused by the next frame.
    pub(crate) frame_pool: Vec<crate::vm::Frame>,
    rng: u64,
    call_depth: usize,
    /// Prototype objects for primitive-adjacent method lookup.
    array_methods: ObjRef,
    string_methods: ObjRef,
    number_methods: ObjRef,
    function_methods: ObjRef,
    /// Pre-interned property names the hot access paths compare against.
    sym_length: Sym,
    sym_name: Sym,
    /// Allocation-registry mark taken at construction; `Drop` sweeps every
    /// object allocated since to break `Rc` cycles (closure env ↔ scope).
    heap_mark: usize,
    /// The thread's next binding and object ids at construction: every
    /// binding and object this interpreter makes, its globals included,
    /// has an id at or above them.
    first_ids: (u64, u64),
}

impl Drop for Interp {
    fn drop(&mut self) {
        crate::value::heap_sweep(self.heap_mark);
    }
}

impl Interp {
    /// Create an interpreter with all standard builtins installed and the
    /// RNG seeded to `seed` (deterministic `Math.random`).
    pub fn new(seed: u64) -> Interp {
        let heap_mark = crate::value::heap_mark();
        let first_ids = (
            crate::env::next_binding_id(),
            crate::value::next_object_id(),
        );
        let global = Scope::global();
        let mut interp = Interp {
            global,
            clock: Clock::new(),
            console: Vec::new(),
            max_ticks: None,
            events_processed: 0,
            monitor: None,
            hook_sink: None,
            backend: default_backend(),
            compile_us: 0,
            queue: BinaryHeap::new(),
            queue_seq: 0,
            cancelled_timers: std::collections::HashSet::new(),
            frame_pool: Vec::new(),
            rng: seed.max(1),
            call_depth: 0,
            array_methods: new_object(),
            string_methods: new_object(),
            number_methods: new_object(),
            function_methods: new_object(),
            sym_length: intern::intern("length"),
            sym_name: intern::intern("name"),
            heap_mark,
            first_ids,
        };
        crate::builtins::install(&mut interp);
        interp
    }

    /// The first binding id and the first object id this interpreter
    /// could hand out: analysis side tables indexed by id start there.
    pub fn first_ids(&self) -> (u64, u64) {
        self.first_ids
    }

    /// Seeded xorshift64* random in [0, 1).
    pub fn next_random(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D);
        (r >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Current seeded-RNG state. Two runs that started from the same seed
    /// and made the same `Math.random()` draws report the same state; the
    /// parallel backend compares it across workers at join barriers to
    /// detect RNG draws inside a gated loop body.
    pub fn rng_state(&self) -> u64 {
        self.rng
    }

    /// Register a global native function.
    pub fn register_native(
        &mut self,
        name: &str,
        f: impl Fn(&mut Interp, &CallCtx, &[Value]) -> JsResult + 'static,
    ) {
        let obj = native_fn(name, Rc::new(f));
        self.global.declare(name, Value::Object(obj));
    }

    /// Register a global value.
    pub fn register_global(&mut self, name: &str, value: Value) {
        self.global.declare(name, value);
    }

    /// Method-holder objects, used by `builtins` during installation.
    pub(crate) fn method_tables(&self) -> (ObjRef, ObjRef, ObjRef, ObjRef) {
        (
            self.array_methods.clone(),
            self.string_methods.clone(),
            self.number_methods.clone(),
            self.function_methods.clone(),
        )
    }

    /// Throw a JS error value built from a message.
    pub fn throw<T>(&mut self, kind: &str, message: impl Into<String>) -> JsResult<T> {
        let obj = new_object();
        obj.set_prop("name", Value::str(kind));
        obj.set_prop("message", Value::str(message.into()));
        Err(Control::Throw(Value::Object(obj)))
    }

    /// Charge `n` ticks at once — the VM's batched form of `n` consecutive
    /// [`Interp::charge`]`(1)` calls with no observable work in between.
    /// Sampling is handled inside [`Clock::tick`] at the exact same tick
    /// boundaries; a tick-budget trip lands on `max + 1`, the tick where
    /// the one-at-a-time walk would have tripped, so the watchdog message
    /// and the post-mortem clock reading are identical.
    #[inline]
    pub(crate) fn charge_n(&mut self, n: u64) -> Result<(), Control> {
        if let Some(max) = self.max_ticks {
            let now = self.clock.now_ticks();
            if now + n > max {
                // First tick the one-at-a-time walk trips on: `max + 1`
                // normally, or the very next tick when the clock is already
                // past the budget (a caller kept dispatching after a trip).
                self.clock.tick(if now >= max { 1 } else { max + 1 - now });
                return Err(Control::Fatal(format!(
                    "{WATCHDOG_PREFIX} tick budget exceeded ({} > {max})",
                    self.clock.now_ticks()
                )));
            }
        }
        self.clock.tick(n);
        if self.clock.wall_tripped() {
            let cap = self.clock.wall_cap().unwrap_or_default();
            return Err(Control::Fatal(format!(
                "{WATCHDOG_PREFIX} wall-clock cap exceeded ({} ms)",
                cap.as_millis()
            )));
        }
        Ok(())
    }

    pub(crate) fn charge(&mut self, n: u64) -> Result<(), Control> {
        self.clock.tick(n);
        if let Some(max) = self.max_ticks {
            if self.clock.now_ticks() > max {
                return Err(Control::Fatal(format!(
                    "{WATCHDOG_PREFIX} tick budget exceeded ({} > {max})",
                    self.clock.now_ticks()
                )));
            }
        }
        if self.clock.wall_tripped() {
            let cap = self.clock.wall_cap().unwrap_or_default();
            return Err(Control::Fatal(format!(
                "{WATCHDOG_PREFIX} wall-clock cap exceeded ({} ms)",
                cap.as_millis()
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Program evaluation
    // ------------------------------------------------------------------

    /// Parse, hoist, and run a program in the global scope.
    pub fn eval_source(&mut self, source: &str) -> JsResult<()> {
        let mut program = ceres_parser::parse_program(source)
            .map_err(|e| Control::Fatal(format!("parse error: {e}")))?;
        ceres_ast::assign_loop_ids(&mut program);
        self.eval_program(&program)
    }

    /// Hoist and run an already-parsed program in the global scope, on
    /// whichever backend [`Interp::backend`] selects.
    pub fn eval_program(&mut self, program: &Program) -> JsResult<()> {
        if self.backend == Backend::Vm {
            return self.vm_eval_program(program);
        }
        let scope = self.global.clone();
        self.hoist_into(&program.body, &scope)?;
        for stmt in &program.body {
            self.eval_stmt(stmt, &scope)?;
        }
        Ok(())
    }

    /// Evaluate a single expression string in the global scope (testing).
    pub fn eval_expr_source(&mut self, source: &str) -> JsResult {
        let expr = ceres_parser::parse_expression(source)
            .map_err(|e| Control::Fatal(format!("parse error: {e}")))?;
        let scope = self.global.clone();
        self.eval_expr(&expr, &scope)
    }

    // ------------------------------------------------------------------
    // Hoisting
    // ------------------------------------------------------------------

    /// Declare hoisted `var`s (as `undefined`) and function declarations
    /// (fully initialized) into `scope`.
    fn hoist_into(&mut self, body: &[Stmt], scope: &ScopeRef) -> Result<(), Control> {
        let (vars, funcs) = hoisted_of(body);
        for name in vars {
            scope.declare(name, Value::Undefined);
        }
        for decl in funcs {
            let f = self.make_function(Some(decl.name.clone()), &decl.func, scope);
            scope.declare(&decl.name, f);
        }
        Ok(())
    }

    fn make_function(&mut self, name: Option<String>, func: &Func, scope: &ScopeRef) -> Value {
        let obj = ObjRef::new(ObjKind::Function(JsFunction {
            name,
            func: Rc::new(func.clone()),
            env: scope.clone(),
            code: None,
        }));
        // Every function gets a fresh `prototype` object for `new`.
        let proto = new_object();
        proto.set_prop("constructor", Value::Object(obj.clone()));
        obj.set_prop("prototype", Value::Object(proto));
        Value::Object(obj)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Execute one statement in `scope`.
    pub fn eval_stmt(&mut self, stmt: &Stmt, scope: &ScopeRef) -> Result<(), Control> {
        self.charge(1)?;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval_expr(e, scope)?;
                Ok(())
            }
            StmtKind::VarDecl(decls) => {
                for d in decls {
                    if let Some(init) = &d.init {
                        let v = self.eval_expr(init, scope)?;
                        // Binding already hoisted; assign.
                        if !scope.set(&d.name, v.clone()) {
                            scope.declare(&d.name, v);
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Func(_) => Ok(()), // handled at hoist time
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_expr(e, scope)?,
                    None => Value::Undefined,
                };
                Err(Control::Return(v))
            }
            StmtKind::If { cond, then, alt } => {
                if self.eval_expr(cond, scope)?.truthy() {
                    self.eval_stmt(then, scope)
                } else if let Some(alt) = alt {
                    self.eval_stmt(alt, scope)
                } else {
                    Ok(())
                }
            }
            StmtKind::While { cond, body, .. } => {
                while self.eval_expr(cond, scope)?.truthy() {
                    match self.eval_stmt(body, scope) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            StmtKind::DoWhile { body, cond, .. } => {
                loop {
                    match self.eval_stmt(body, scope) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                    if !self.eval_expr(cond, scope)?.truthy() {
                        break;
                    }
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                match init {
                    Some(ForInit::VarDecl(decls)) => {
                        for d in decls {
                            if let Some(e) = &d.init {
                                let v = self.eval_expr(e, scope)?;
                                if !scope.set(&d.name, v.clone()) {
                                    scope.declare(&d.name, v);
                                }
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => {
                        self.eval_expr(e, scope)?;
                    }
                    None => {}
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval_expr(c, scope)?.truthy() {
                            break;
                        }
                    }
                    match self.eval_stmt(body, scope) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                    if let Some(u) = update {
                        self.eval_expr(u, scope)?;
                    }
                }
                Ok(())
            }
            StmtKind::ForIn {
                decl,
                var,
                object,
                body,
                ..
            } => {
                let obj = self.eval_expr(object, scope)?;
                let keys = match obj {
                    Value::Object(o) => o.own_keys(),
                    // for-in over primitives iterates nothing.
                    _ => Vec::new(),
                };
                if *decl && !scope.declares_locally(var) && scope.lookup(var).is_none() {
                    scope.declare(var, Value::Undefined);
                }
                for key in keys {
                    let kv = Value::Str(key.clone());
                    if !scope.set(var, kv.clone()) {
                        scope.declare(var, kv);
                    }
                    match self.eval_stmt(body, scope) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.eval_stmt(s, scope)?;
                }
                Ok(())
            }
            StmtKind::Break => Err(Control::Break),
            StmtKind::Continue => Err(Control::Continue),
            StmtKind::Throw(e) => {
                let v = self.eval_expr(e, scope)?;
                Err(Control::Throw(v))
            }
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                let mut outcome: Result<(), Control> = (|| {
                    for s in block {
                        self.eval_stmt(s, scope)?;
                    }
                    Ok(())
                })();
                if let Err(Control::Throw(exc)) = &outcome {
                    if let Some(c) = catch {
                        let exc = exc.clone();
                        let catch_scope = Scope::child(scope);
                        catch_scope.declare(&c.param, exc);
                        outcome = (|| {
                            for s in &c.body {
                                self.eval_stmt(s, &catch_scope)?;
                            }
                            Ok(())
                        })();
                    }
                }
                if let Some(f) = finally {
                    let fin: Result<(), Control> = (|| {
                        for s in f {
                            self.eval_stmt(s, scope)?;
                        }
                        Ok(())
                    })();
                    // An abrupt finally overrides the try/catch outcome.
                    fin?;
                }
                outcome
            }
            StmtKind::Switch { disc, cases } => {
                let d = self.eval_expr(disc, scope)?;
                let mut matched = None;
                for (i, case) in cases.iter().enumerate() {
                    if let Some(t) = &case.test {
                        let tv = self.eval_expr(t, scope)?;
                        if d.strict_eq(&tv) {
                            matched = Some(i);
                            break;
                        }
                    }
                }
                let start = matched.or_else(|| cases.iter().position(|c| c.test.is_none()));
                if let Some(start) = start {
                    for case in &cases[start..] {
                        for s in &case.body {
                            match self.eval_stmt(s, scope) {
                                Ok(()) => {}
                                Err(Control::Break) => return Ok(()),
                                Err(other) => return Err(other),
                            }
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Empty => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Evaluate one expression in `scope`.
    pub fn eval_expr(&mut self, expr: &Expr, scope: &ScopeRef) -> JsResult {
        self.charge(1)?;
        match &expr.kind {
            ExprKind::Num(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::str(s)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Undefined => Ok(Value::Undefined),
            // `this` is declared as an ordinary binding in each activation
            // (see `call_js`); at top level there is none → undefined.
            ExprKind::This => Ok(scope.get("this").unwrap_or(Value::Undefined)),
            ExprKind::Ident(name) => match scope.get(name) {
                Some(v) => Ok(v),
                None => self.throw("ReferenceError", format!("{name} is not defined")),
            },
            ExprKind::Array(elems) => {
                let mut values = Vec::with_capacity(elems.len());
                for e in elems {
                    values.push(self.eval_expr(e, scope)?);
                }
                Ok(Value::Object(new_array(values)))
            }
            ExprKind::Object(props) => {
                let obj = new_object();
                for (key, value) in props {
                    let v = self.eval_expr(value, scope)?;
                    obj.set_prop(&key.as_name(), v);
                }
                Ok(Value::Object(obj))
            }
            ExprKind::Func { name, func } => Ok(self.make_function(name.clone(), func, scope)),
            ExprKind::Unary { op, expr: inner } => {
                if *op == UnaryOp::TypeOf {
                    // typeof tolerates undeclared identifiers.
                    if let ExprKind::Ident(name) = &inner.kind {
                        return Ok(match scope.get(name) {
                            Some(v) => Value::str(v.type_of()),
                            None => Value::str("undefined"),
                        });
                    }
                }
                if *op == UnaryOp::Delete {
                    return self.eval_delete(inner, scope);
                }
                let v = self.eval_expr(inner, scope)?;
                Ok(match op {
                    UnaryOp::Neg => Value::Num(-ops::to_number(&v)),
                    UnaryOp::Plus => Value::Num(ops::to_number(&v)),
                    UnaryOp::Not => Value::Bool(!v.truthy()),
                    UnaryOp::BitNot => Value::Num(!ops::to_int32(&v) as f64),
                    UnaryOp::TypeOf => Value::str(v.type_of()),
                    UnaryOp::Void => Value::Undefined,
                    UnaryOp::Delete => unreachable!("handled above"),
                })
            }
            ExprKind::Update { op, prefix, target } => {
                let old = ops::to_number(&self.eval_lvalue_read(target, scope)?);
                let new = match op {
                    UpdateOp::Inc => old + 1.0,
                    UpdateOp::Dec => old - 1.0,
                };
                self.assign_to(target, Value::Num(new), scope)?;
                Ok(Value::Num(if *prefix { new } else { old }))
            }
            ExprKind::Binary { op, left, right } => {
                let l = self.eval_expr(left, scope)?;
                if matches!(op, BinaryOp::InstanceOf) {
                    let r = self.eval_expr(right, scope)?;
                    return self.instance_of(&l, &r);
                }
                if matches!(op, BinaryOp::In) {
                    let r = self.eval_expr(right, scope)?;
                    let key = ops::to_string(&l);
                    return match r {
                        Value::Object(o) => Ok(Value::Bool(self.has_property(&o, &key))),
                        _ => self.throw("TypeError", "'in' requires an object"),
                    };
                }
                let r = self.eval_expr(right, scope)?;
                self.binary_op(*op, &l, &r)
            }
            ExprKind::Logical { op, left, right } => {
                let l = self.eval_expr(left, scope)?;
                match op {
                    LogicalOp::And => {
                        if l.truthy() {
                            self.eval_expr(right, scope)
                        } else {
                            Ok(l)
                        }
                    }
                    LogicalOp::Or => {
                        if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval_expr(right, scope)
                        }
                    }
                }
            }
            ExprKind::Assign { op, target, value } => {
                let rhs = match op.binary() {
                    None => self.eval_expr(value, scope)?,
                    Some(bop) => {
                        let old = self.eval_lvalue_read(target, scope)?;
                        let v = self.eval_expr(value, scope)?;
                        self.binary_op(bop, &old, &v)?
                    }
                };
                self.assign_to(target, rhs.clone(), scope)?;
                Ok(rhs)
            }
            ExprKind::Cond { cond, then, alt } => {
                if self.eval_expr(cond, scope)?.truthy() {
                    self.eval_expr(then, scope)
                } else {
                    self.eval_expr(alt, scope)
                }
            }
            ExprKind::Call { callee, args } => self.eval_call(callee, args, scope),
            ExprKind::New { callee, args } => {
                let f = self.eval_expr(callee, scope)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_expr(a, scope)?);
                }
                self.construct(&f, &argv, scope)
            }
            ExprKind::Member { object, prop } => {
                let obj = self.eval_expr(object, scope)?;
                self.get_property(&obj, prop)
            }
            ExprKind::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                if let Some(i) = Self::array_index(&obj, &idx) {
                    if let Value::Object(o) = &obj {
                        return Ok(o.array_get(i).unwrap_or(Value::Undefined));
                    }
                }
                let key = ops::to_string(&idx);
                self.get_property(&obj, &key)
            }
            ExprKind::Seq(exprs) => {
                let mut last = Value::Undefined;
                for e in exprs {
                    last = self.eval_expr(e, scope)?;
                }
                Ok(last)
            }
        }
    }

    fn eval_delete(&mut self, target: &Expr, scope: &ScopeRef) -> JsResult {
        match &target.kind {
            ExprKind::Member { object, prop } => {
                let obj = self.eval_expr(object, scope)?;
                if let Value::Object(o) = obj {
                    return Ok(Value::Bool(o.borrow_mut().delete_prop(prop)));
                }
                Ok(Value::Bool(true))
            }
            ExprKind::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                let key = ops::to_string(&idx);
                if let Value::Object(o) = obj {
                    if let Ok(i) = key.parse::<usize>() {
                        if o.is_array() {
                            o.with_array_mut(|v| {
                                if i < v.len() {
                                    v[i] = Value::Undefined;
                                }
                            });
                            return Ok(Value::Bool(true));
                        }
                    }
                    return Ok(Value::Bool(o.borrow_mut().delete_prop(&key)));
                }
                Ok(Value::Bool(true))
            }
            // `delete x` on a variable: sloppy-mode no-op returning false.
            _ => {
                self.eval_expr(target, scope)?;
                Ok(Value::Bool(false))
            }
        }
    }

    /// Read the current value of an lvalue (for compound assignment and
    /// update expressions).
    fn eval_lvalue_read(&mut self, target: &Expr, scope: &ScopeRef) -> JsResult {
        match &target.kind {
            ExprKind::Ident(name) => match scope.get(name) {
                Some(v) => Ok(v),
                None => self.throw("ReferenceError", format!("{name} is not defined")),
            },
            _ => self.eval_expr(target, scope),
        }
    }

    /// Assign `value` to an lvalue expression.
    pub fn assign_to(&mut self, target: &Expr, value: Value, scope: &ScopeRef) -> JsResult<()> {
        match &target.kind {
            ExprKind::Ident(name) => {
                if !scope.set(name, value.clone()) {
                    // Implicit global, as sloppy-mode JS would create.
                    self.global.declare(name, value);
                }
                Ok(())
            }
            ExprKind::Member { object, prop } => {
                let obj = self.eval_expr(object, scope)?;
                self.set_property(&obj, prop, value)
            }
            ExprKind::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                if let Some(i) = Self::array_index(&obj, &idx) {
                    if let Value::Object(o) = &obj {
                        o.array_set(i, value);
                        return Ok(());
                    }
                }
                let key = ops::to_string(&idx);
                self.set_property(&obj, &key, value)
            }
            _ => self.throw("SyntaxError", "invalid assignment target"),
        }
    }

    /// Evaluate `l op r`. `in` and `instanceof` are the caller's to
    /// evaluate; passing either panics.
    pub fn binary_op(&mut self, op: BinaryOp, l: &Value, r: &Value) -> JsResult {
        use ops::CmpResult::*;
        Ok(match op {
            BinaryOp::Add => ops::js_add(l, r),
            BinaryOp::Sub => Value::Num(ops::to_number(l) - ops::to_number(r)),
            BinaryOp::Mul => Value::Num(ops::to_number(l) * ops::to_number(r)),
            BinaryOp::Div => Value::Num(ops::to_number(l) / ops::to_number(r)),
            BinaryOp::Rem => Value::Num(ops::to_number(l) % ops::to_number(r)),
            BinaryOp::Eq => Value::Bool(ops::loose_eq(l, r)),
            BinaryOp::NotEq => Value::Bool(!ops::loose_eq(l, r)),
            BinaryOp::StrictEq => Value::Bool(l.strict_eq(r)),
            BinaryOp::StrictNotEq => Value::Bool(!l.strict_eq(r)),
            BinaryOp::Lt => Value::Bool(ops::less_than(l, r) == True),
            BinaryOp::Gt => Value::Bool(ops::less_than(r, l) == True),
            BinaryOp::LtEq => Value::Bool(ops::less_than(r, l) == False),
            BinaryOp::GtEq => Value::Bool(ops::less_than(l, r) == False),
            BinaryOp::Shl => Value::Num((ops::to_int32(l) << (ops::to_uint32(r) & 31)) as f64),
            BinaryOp::Shr => Value::Num((ops::to_int32(l) >> (ops::to_uint32(r) & 31)) as f64),
            BinaryOp::UShr => Value::Num((ops::to_uint32(l) >> (ops::to_uint32(r) & 31)) as f64),
            BinaryOp::BitAnd => Value::Num((ops::to_int32(l) & ops::to_int32(r)) as f64),
            BinaryOp::BitOr => Value::Num((ops::to_int32(l) | ops::to_int32(r)) as f64),
            BinaryOp::BitXor => Value::Num((ops::to_int32(l) ^ ops::to_int32(r)) as f64),
            BinaryOp::In | BinaryOp::InstanceOf => unreachable!("handled by caller"),
        })
    }

    pub(crate) fn instance_of(&mut self, l: &Value, r: &Value) -> JsResult {
        let ctor = match r.as_object() {
            Some(o) if o.is_callable() => o.clone(),
            _ => return self.throw("TypeError", "right-hand side of instanceof is not callable"),
        };
        let proto = match ctor.get_own("prototype") {
            Some(Value::Object(p)) => p,
            _ => return Ok(Value::Bool(false)),
        };
        let mut cur = l.as_object().and_then(|o| o.proto());
        while let Some(p) = cur {
            if p.id() == proto.id() {
                return Ok(Value::Bool(true));
            }
            cur = p.proto();
        }
        Ok(Value::Bool(false))
    }

    pub(crate) fn has_property(&self, obj: &ObjRef, key: &str) -> bool {
        if obj.is_array() {
            if let Ok(i) = key.parse::<usize>() {
                return i < obj.array_len().unwrap_or(0);
            }
            if key == "length" {
                return true;
            }
        }
        if obj.get_own(key).is_some() {
            return true;
        }
        let mut cur = obj.proto();
        while let Some(p) = cur {
            if p.get_own(key).is_some() {
                return true;
            }
            cur = p.proto();
        }
        false
    }

    // ------------------------------------------------------------------
    // Property access
    // ------------------------------------------------------------------

    /// Allocation-free fast path for `arr[i]`: a non-negative integer
    /// index on an *untagged* array — the dominant access shape in the
    /// paper's workloads (N-body bodies, pixel buffers, sort keys).
    /// Returns `None` whenever the slow string-keyed path must run to
    /// preserve semantics: DOM-tagged objects (the monitor must see the
    /// access), fractional/negative/huge indices, or non-arrays.
    #[inline]
    pub(crate) fn array_index(obj: &Value, idx: &Value) -> Option<usize> {
        let (Value::Object(o), Value::Num(n)) = (obj, idx) else {
            return None;
        };
        if o.tag().is_some() || !o.is_array() {
            return None;
        }
        if *n == 0.0 {
            return Some(0); // JS prints both zeros as "0"
        }
        if n.fract() == 0.0 && *n > 0.0 && *n < u32::MAX as f64 {
            Some(*n as usize)
        } else {
            None
        }
    }

    /// `obj[key]` with full JS semantics (arrays, strings, proto chain,
    /// method tables for primitives).
    pub fn get_property(&mut self, obj: &Value, key: &str) -> JsResult {
        self.get_property_sym(obj, intern::intern(key))
    }

    /// [`Interp::get_property`] with a pre-interned key — the VM's hot
    /// path. Objects store properties `Sym`-keyed, so this never hashes
    /// the key bytes; numeric keys ride the inline-`Sym` encoding.
    pub fn get_property_sym(&mut self, obj: &Value, key: Sym) -> JsResult {
        if let Some(m) = &self.monitor {
            if let Value::Object(o) = obj {
                if let Some(tag) = o.tag() {
                    m.clone().host_access(tag, &intern::resolve(key));
                }
            }
        }
        match obj {
            Value::Object(o) => {
                if o.is_array() {
                    if key == self.sym_length {
                        return Ok(Value::Num(o.array_len().unwrap_or(0) as f64));
                    }
                    if let Some(i) = sym_usize(key) {
                        return Ok(o.array_get(i).unwrap_or(Value::Undefined));
                    }
                    if let Some(v) = o.get_own_sym(key) {
                        return Ok(v);
                    }
                    if let Some(m) = self.array_methods.get_own_sym(key) {
                        return Ok(m);
                    }
                    return Ok(Value::Undefined);
                }
                if o.is_callable() {
                    if let Some(v) = o.get_own_sym(key) {
                        return Ok(v);
                    }
                    if let Some(m) = self.function_methods.get_own_sym(key) {
                        return Ok(m);
                    }
                    if key == self.sym_name {
                        let name = match &o.borrow().kind {
                            ObjKind::Function(f) => f.name.clone().unwrap_or_default(),
                            ObjKind::Native { name, .. } => name.clone(),
                            _ => String::new(),
                        };
                        return Ok(Value::str(name));
                    }
                    if key == self.sym_length {
                        if let ObjKind::Function(f) = &o.borrow().kind {
                            return Ok(Value::Num(f.func.params.len() as f64));
                        }
                        return Ok(Value::Num(0.0));
                    }
                    return Ok(Value::Undefined);
                }
                // Plain object: own, then proto chain.
                if let Some(v) = o.get_own_sym(key) {
                    return Ok(v);
                }
                let mut cur = o.proto();
                while let Some(p) = cur {
                    if let Some(v) = p.get_own_sym(key) {
                        return Ok(v);
                    }
                    cur = p.proto();
                }
                Ok(Value::Undefined)
            }
            Value::Str(s) => {
                if key == self.sym_length {
                    return Ok(Value::Num(s.chars().count() as f64));
                }
                if let Some(i) = sym_usize(key) {
                    return Ok(match s.chars().nth(i) {
                        Some(c) => Value::str(c.to_string()),
                        None => Value::Undefined,
                    });
                }
                Ok(self
                    .string_methods
                    .get_own_sym(key)
                    .unwrap_or(Value::Undefined))
            }
            Value::Num(_) => Ok(self
                .number_methods
                .get_own_sym(key)
                .unwrap_or(Value::Undefined)),
            Value::Bool(_) => Ok(Value::Undefined),
            Value::Undefined | Value::Null => self.throw(
                "TypeError",
                format!(
                    "cannot read property '{}' of {}",
                    intern::resolve(key),
                    obj.type_of()
                ),
            ),
        }
    }

    /// `obj[key] = value`.
    pub fn set_property(&mut self, obj: &Value, key: &str, value: Value) -> JsResult<()> {
        self.set_property_sym(obj, intern::intern(key), value)
    }

    /// [`Interp::set_property`] with a pre-interned key.
    pub fn set_property_sym(&mut self, obj: &Value, key: Sym, value: Value) -> JsResult<()> {
        if let Some(m) = &self.monitor {
            if let Value::Object(o) = obj {
                if let Some(tag) = o.tag() {
                    m.clone().host_access(tag, &intern::resolve(key));
                }
            }
        }
        match obj {
            Value::Object(o) => {
                if o.is_array() {
                    if key == self.sym_length {
                        let n = ops::to_number(&value).max(0.0) as usize;
                        o.with_array_mut(|v| v.resize(n, Value::Undefined));
                        return Ok(());
                    }
                    if let Some(i) = sym_usize(key) {
                        o.array_set(i, value);
                        return Ok(());
                    }
                }
                o.set_prop_sym(key, value);
                Ok(())
            }
            // Property writes on primitives silently no-op (sloppy mode).
            Value::Str(_) | Value::Num(_) | Value::Bool(_) => Ok(()),
            Value::Undefined | Value::Null => self.throw(
                "TypeError",
                format!(
                    "cannot set property '{}' of {}",
                    intern::resolve(key),
                    obj.type_of()
                ),
            ),
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    fn eval_call(&mut self, callee: &Expr, args: &[Expr], scope: &ScopeRef) -> JsResult {
        // Method call: compute receiver.
        let (f, this) = match &callee.kind {
            ExprKind::Member { object, prop } => {
                let obj = self.eval_expr(object, scope)?;
                let f = self.get_property(&obj, prop)?;
                (f, obj)
            }
            ExprKind::Index { object, index } => {
                let obj = self.eval_expr(object, scope)?;
                let idx = self.eval_expr(index, scope)?;
                let f = if let Some(i) = Self::array_index(&obj, &idx) {
                    match &obj {
                        Value::Object(o) => o.array_get(i).unwrap_or(Value::Undefined),
                        _ => Value::Undefined,
                    }
                } else {
                    let key = ops::to_string(&idx);
                    self.get_property(&obj, &key)?
                };
                (f, obj)
            }
            _ => (self.eval_expr(callee, scope)?, Value::Undefined),
        };
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval_expr(a, scope)?);
        }
        self.call_value(&f, this, &argv, Some(scope.clone()))
            .map_err(|c| self.describe_callee_error(c, callee))
    }

    fn describe_callee_error(&self, c: Control, callee: &Expr) -> Control {
        self.rewrite_not_a_function(c, || ceres_ast::expr_to_source(callee))
    }

    /// Improve bare "not a function" errors with the callee's source text.
    /// `name` is lazy because rendering it costs an allocation the
    /// non-error path never pays.
    pub(crate) fn rewrite_not_a_function(
        &self,
        c: Control,
        name: impl FnOnce() -> String,
    ) -> Control {
        if let Control::Throw(Value::Object(o)) = &c {
            if matches!(o.get_own("message"), Some(Value::Str(ref s)) if &**s == "not a function") {
                let obj = new_object();
                obj.set_prop("name", Value::str("TypeError"));
                obj.set_prop(
                    "message",
                    Value::str(format!("{} is not a function", name())),
                );
                return Control::Throw(Value::Object(obj));
            }
        }
        c
    }

    /// Call a function value. `caller_scope` is exposed to native functions
    /// so analysis hooks can inspect the instrumented code's bindings.
    pub fn call_value(
        &mut self,
        f: &Value,
        this: Value,
        args: &[Value],
        caller_scope: Option<ScopeRef>,
    ) -> JsResult {
        enum Callee {
            Vm(CompiledFn, ScopeRef),
            Tree(Rc<Func>, ScopeRef),
            Native(NativeFn),
            NotCallable,
        }
        // One borrow of the callee reads everything the call needs; the
        // AST is cloned only for a closure without bytecode.
        let callee = match f {
            Value::Object(o) => match &o.borrow().kind {
                ObjKind::Function(jf) => match &jf.code {
                    Some(code) => Callee::Vm(code.clone(), jf.env.clone()),
                    None => Callee::Tree(jf.func.clone(), jf.env.clone()),
                },
                ObjKind::Native { f, .. } => Callee::Native(f.clone()),
                _ => Callee::NotCallable,
            },
            _ => Callee::NotCallable,
        };
        match callee {
            // Compiled closures run on the VM; AST-only closures take the
            // tree-walker, so the two backends interoperate within one heap.
            Callee::Vm(code, env) => self.js_frame(|it| it.vm_call(code, &env, this, args)),
            Callee::Tree(func, env) => {
                self.js_frame(|it| match it.call_js(&func, &env, this, args) {
                    Ok(()) => Ok(Value::Undefined),
                    Err(Control::Return(v)) => Ok(v),
                    Err(other) => Err(other),
                })
            }
            Callee::Native(nf) => {
                self.clock.fn_boundary();
                let ctx = CallCtx { this, caller_scope };
                let r = nf(self, &ctx, args);
                self.clock.fn_boundary();
                r
            }
            Callee::NotCallable => self.throw("TypeError", "not a function"),
        }
    }

    /// Run an interpreted call's `body` one level deeper, between its two
    /// function-boundary events.
    fn js_frame(&mut self, body: impl FnOnce(&mut Interp) -> JsResult) -> JsResult {
        if self.call_depth >= MAX_CALL_DEPTH {
            return self.throw("RangeError", "maximum call stack size exceeded");
        }
        self.call_depth += 1;
        self.clock.fn_boundary();
        let result = body(self);
        self.clock.fn_boundary();
        self.call_depth -= 1;
        result
    }

    fn call_js(
        &mut self,
        func: &Rc<Func>,
        env: &ScopeRef,
        this: Value,
        args: &[Value],
    ) -> Result<(), Control> {
        let activation = Scope::child(env);
        // Parameters.
        for (i, p) in func.params.iter().enumerate() {
            activation.declare(p, args.get(i).cloned().unwrap_or(Value::Undefined));
        }
        // `this` and `arguments`.
        activation.declare("this", this);
        activation.declare("arguments", Value::Object(new_array(args.to_vec())));
        // Hoist vars and nested function declarations.
        self.hoist_into(&func.body, &activation)?;
        for stmt in &func.body {
            self.eval_stmt(stmt, &activation)?;
        }
        Ok(())
    }

    /// `new F(args)`.
    pub fn construct(&mut self, f: &Value, args: &[Value], scope: &ScopeRef) -> JsResult {
        let fobj = match f.as_object() {
            Some(o) if o.is_callable() => o.clone(),
            _ => return self.throw("TypeError", "not a constructor"),
        };
        let proto = match fobj.get_own("prototype") {
            Some(Value::Object(p)) => Some(p),
            _ => None,
        };
        let obj = new_object();
        obj.set_proto(proto);
        let this = Value::Object(obj.clone());
        let r = self.call_value(f, this, args, Some(scope.clone()))?;
        // If the constructor returned an object, that wins.
        Ok(match r {
            Value::Object(_) => r,
            _ => Value::Object(obj),
        })
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Schedule `callback(args…)` to run at absolute tick `at`. Returns the
    /// timer id usable with [`Interp::cancel_timer`].
    pub fn schedule_at(&mut self, at: u64, callback: Value, args: Vec<Value>) -> u64 {
        self.schedule_full(at, None, callback, args)
    }

    fn schedule_full(
        &mut self,
        at: u64,
        period: Option<u64>,
        callback: Value,
        args: Vec<Value>,
    ) -> u64 {
        self.queue_seq += 1;
        let seq = self.queue_seq;
        self.queue.push(Scheduled {
            at,
            seq,
            timer_id: seq,
            period,
            callback,
            args,
        });
        seq
    }

    /// Schedule after a delay in simulated milliseconds. Returns a timer id.
    pub fn schedule_in_ms(&mut self, ms: f64, callback: Value, args: Vec<Value>) -> u64 {
        let at = self.clock.now_ticks() + (ms.max(0.0) * crate::clock::TICKS_PER_MS as f64) as u64;
        self.schedule_at(at, callback, args)
    }

    /// Schedule a repeating timer (`setInterval`). Returns a timer id.
    pub fn schedule_every_ms(&mut self, ms: f64, callback: Value) -> u64 {
        let period = (ms.max(1.0) * crate::clock::TICKS_PER_MS as f64) as u64;
        let at = self.clock.now_ticks() + period;
        self.schedule_full(at, Some(period), callback, Vec::new())
    }

    /// Cancel a timer by id (`clearTimeout` / `clearInterval`).
    pub fn cancel_timer(&mut self, id: u64) {
        self.cancelled_timers.insert(id);
    }

    /// Run queued events until the queue drains or `limit` events have run.
    /// Idle gaps between events advance the virtual clock without activity.
    pub fn run_events(&mut self, limit: usize) -> JsResult<usize> {
        let mut ran = 0;
        while ran < limit {
            let Some(ev) = self.queue.pop() else { break };
            if self.cancelled_timers.contains(&ev.timer_id) {
                continue;
            }
            if ev.at > self.clock.now_ticks() {
                let gap = ev.at - self.clock.now_ticks();
                self.clock.advance_idle(gap);
            }
            // Intervals reschedule themselves before running (so a handler
            // calling clearInterval stops the chain).
            if let Some(period) = ev.period {
                self.queue_seq += 1;
                let seq = self.queue_seq;
                self.queue.push(Scheduled {
                    at: ev.at + period,
                    seq,
                    timer_id: ev.timer_id,
                    period: Some(period),
                    callback: ev.callback.clone(),
                    args: ev.args.clone(),
                });
            }
            let monitor = self.monitor.clone();
            if let Some(m) = &monitor {
                m.task_begin(&format!("timer#{}", ev.timer_id), self.clock.now_ticks());
            }
            let r = self.call_value(&ev.callback, Value::Undefined, &ev.args, None);
            if let Some(m) = &monitor {
                m.task_end(self.clock.now_ticks());
            }
            r?;
            ran += 1;
            self.events_processed += 1;
        }
        Ok(ran)
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// The `key.parse::<usize>()` the string-keyed property paths used to
/// apply, lifted to `Sym`: inline-numeric symbols answer without touching
/// the string table, everything else falls back to parsing the resolved
/// text (so non-canonical spellings like `"007"` or `"+7"` still index,
/// exactly as before).
#[inline]
pub(crate) fn sym_usize(key: Sym) -> Option<usize> {
    if let Some(i) = key.as_index() {
        return Some(i as usize);
    }
    intern::resolve(key).parse::<usize>().ok()
}

/// Hoisted `var` names (source order) and function declarations of a body
/// — the sets `hoist_into` declares, shared with the bytecode compiler so
/// both backends build identical frame prologues.
pub(crate) fn hoisted_of(body: &[Stmt]) -> (Vec<&str>, Vec<&FuncDecl>) {
    let mut vars = Vec::new();
    let mut funcs = Vec::new();
    for h in ceres_ast::hoisted(body) {
        match h {
            Hoisted::Var(name) => vars.push(name),
            Hoisted::Func(decl) => funcs.push(decl),
        }
    }
    (vars, funcs)
}
