//! The instrumentation hook ABI: the names of the host functions the
//! rewriter inserts, and the typed entry points the bytecode VM calls in
//! their place.
//!
//! The names live here, below both `ceres-instrument` (which emits the
//! calls and re-exports these constants from its `hooks` module) and
//! `ceres-core` (which implements them), so the compiler can recognise a
//! hook call and no crate spells a name twice.
//!
//! A hook can be reached two ways:
//!
//! * **By name.** The tree-walker evaluates `__ceres_getprop(o, "k", "o")`
//!   as an ordinary call of the native registered under that name, which
//!   decodes its `Value` arguments. So does the VM for every call it does
//!   not type.
//! * **Typed.** When the interpreter has a [`HookSink`] installed, the
//!   compiler lowers each rewriter call site to
//!   [`Insn::Hook`](crate::bytecode::Insn::Hook): string-literal operands
//!   are interned at compile time, binding ids come from the VM's slot
//!   cache, and the VM calls the matching [`HookSink`] method directly.
//!
//! `ceres-core`'s natives decode their arguments and call the same
//! [`HookSink`] methods, so each hook has one body on both paths.

use crate::env::ScopeRef;
use crate::intern::Sym;
use crate::interp::{Interp, JsResult};
use crate::value::Value;

/// Lightweight mode: open-loop counter increment (no arguments).
pub const LW_ENTER: &str = "__ceres_lw_enter";
/// Lightweight mode: open-loop counter decrement (no arguments).
pub const LW_EXIT: &str = "__ceres_lw_exit";

/// Loop-profile/dependence: `(loop_id)` — push a (loop, instance, 0) triple.
pub const LOOP_ENTER: &str = "__ceres_loop_enter";
/// Loop-profile/dependence: `(loop_id)` — increment the iteration in place.
pub const ITER: &str = "__ceres_iter";
/// Loop-profile/dependence: `(loop_id)` — pop the triple, record stats.
pub const LOOP_EXIT: &str = "__ceres_loop_exit";

/// Dependence: `("a", "b", …)` — stamp the named bindings of the *calling*
/// activation with the current loop stack. Inserted at the top of every
/// function body (and of the program) for all hoisted names and parameters.
pub const DECLVARS: &str = "__ceres_declvars";
/// Dependence: `("x", "op")` — record a write to variable `x` (type (a)
/// warning). `op` is the spelling of the write ("=", "+=", "++", "init",
/// "forin"), used by the difficulty classifier to spot induction/reduction
/// patterns.
pub const WRVAR: &str = "__ceres_wrvar";
/// Dependence: `(value) -> value` — stamp a freshly created object (the
/// paper's Proxy wrap).
pub const WRAP: &str = "__ceres_wrap";
/// Dependence: `(obj, key[, baseVar]) -> obj[key]` — recorded property read
/// (type (c)). `baseVar` names the variable the object was reached through,
/// when the base expression is a simple identifier.
pub const GETPROP: &str = "__ceres_getprop";
/// Dependence: `(obj, key, value[, baseVar]) -> value` — recorded property
/// write (type (b)). `baseVar` names the variable the object was reached
/// through, when the base expression is a simple identifier.
pub const SETPROP: &str = "__ceres_setprop";
/// Dependence: `(obj, key, "op", value[, baseVar]) -> result` — compound
/// property assignment (`o.k op= v`): recorded read + write.
pub const SETPROP2: &str = "__ceres_setprop2";
/// Dependence: `(obj, key, delta, isPrefix[, baseVar]) -> old|new` —
/// `o.k++` and friends: recorded read + write.
pub const UPDATE_PROP: &str = "__ceres_update_prop";
/// Dependence: `(obj, key, baseVarOrNull, args…) -> obj[key](args…)` —
/// method call that records the property read and preserves the receiver.
/// The base slot is always present because the arguments are variadic.
pub const MCALL: &str = "__ceres_mcall";

/// All hook names, for tests and for the engine's registration loop.
pub const ALL_HOOKS: &[&str] = &[
    LW_ENTER,
    LW_EXIT,
    LOOP_ENTER,
    ITER,
    LOOP_EXIT,
    DECLVARS,
    WRVAR,
    WRAP,
    GETPROP,
    SETPROP,
    SETPROP2,
    UPDATE_PROP,
    MCALL,
];

/// Number of distinct hooks (`ALL_HOOKS.len()` as a const, so counters can
/// live in a fixed array with no allocation on the hot path).
pub const HOOK_COUNT: usize = 13;

/// Position of `name` in [`ALL_HOOKS`], for pre-computing a tally index
/// once instead of string-matching per call.
///
/// # Panics
/// Panics on a name that is not a registered hook — that is always an
/// instrument/engine drift bug, never a runtime condition.
pub fn hook_index(name: &str) -> usize {
    ALL_HOOKS
        .iter()
        .position(|h| *h == name)
        .unwrap_or_else(|| panic!("unknown hook `{name}`"))
}

/// The typed entry points of the hooks in [`ALL_HOOKS`], one method per
/// hook, installed as [`Interp::hook_sink`].
///
/// Arguments arrive decoded: keys, names and ops as [`Sym`]s (a missing
/// base variable is [`Sym::NONE`]), loop ids as integers, and binding ids
/// resolved from the calling scope (0 when the name resolves to none).
/// The caller charges the call's two `fn_boundary` events; each method
/// charges its hook's own ticks and returns the hook's result value.
pub trait HookSink {
    /// [`LW_ENTER`].
    fn lw_enter(&self, interp: &mut Interp) -> JsResult;
    /// [`LW_EXIT`].
    fn lw_exit(&self, interp: &mut Interp) -> JsResult;
    /// [`LOOP_ENTER`] of loop `id`.
    fn loop_enter(&self, interp: &mut Interp, id: u32) -> JsResult;
    /// [`ITER`] of loop `id`.
    fn iter(&self, interp: &mut Interp, id: u32) -> JsResult;
    /// [`LOOP_EXIT`] of loop `id`.
    fn loop_exit(&self, interp: &mut Interp, id: u32) -> JsResult;
    /// [`DECLVARS`] with `names` arguments, whose bindings (those found)
    /// are `bindings`.
    fn declvars(
        &self,
        interp: &mut Interp,
        names: usize,
        bindings: &mut dyn Iterator<Item = u64>,
    ) -> JsResult;
    /// [`WRVAR`] of variable `name` (binding `binding`) with write op
    /// `op`; `value` is the third argument, when present.
    fn wrvar(
        &self,
        interp: &mut Interp,
        name: Sym,
        binding: u64,
        op: Sym,
        value: Option<Value>,
    ) -> JsResult;
    /// [`WRAP`] of `value`.
    fn wrap(&self, interp: &mut Interp, value: Value) -> JsResult;
    /// [`GETPROP`]: `obj[key]`, reached through variable `base`.
    fn getprop(&self, interp: &mut Interp, obj: &Value, key: Sym, base: Sym) -> JsResult;
    /// [`SETPROP`]: `obj[key] = value`, reached through variable `base`
    /// (binding `binding`).
    fn setprop(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        value: Value,
        base: Sym,
        binding: u64,
    ) -> JsResult;
    /// [`SETPROP2`]: `obj[key] op= value`.
    #[allow(clippy::too_many_arguments)]
    fn setprop2(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        op: Sym,
        value: &Value,
        base: Sym,
        binding: u64,
    ) -> JsResult;
    /// [`UPDATE_PROP`]: `obj[key] += delta`, returning the new value when
    /// `prefix`, else the old one.
    #[allow(clippy::too_many_arguments)]
    fn update_prop(
        &self,
        interp: &mut Interp,
        obj: &Value,
        key: Sym,
        delta: f64,
        prefix: bool,
        base: Sym,
        binding: u64,
    ) -> JsResult;
    /// [`MCALL`]: `obj[key](args…)` with `obj` as `this`, called from
    /// `caller`.
    fn mcall(
        &self,
        interp: &mut Interp,
        obj: Value,
        key: Sym,
        base: Sym,
        args: &[Value],
        caller: Option<ScopeRef>,
    ) -> JsResult;
}
