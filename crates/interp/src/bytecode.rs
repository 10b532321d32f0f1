//! The bytecode instruction set and compiled-module containers.
//!
//! `compile.rs` lowers a parsed [`Program`](ceres_ast::ast::Program) into a
//! [`Module`] of [`Chunk`]s — one per function body plus one for the
//! top-level program — and `vm.rs` executes them in a flat dispatch loop.
//!
//! Design constraints (see `docs/ARCHITECTURE.md`):
//!
//! * **Instructions are `Copy` and fixed-width** (16 bytes: an 8-byte
//!   payload — at most an `f64` or two `u32`s — plus discriminant and
//!   padding), so the dispatch loop reads them by value out of a dense
//!   `Vec` with no pointer chasing.
//! * **Names are pre-interned.** Variable accesses carry a [`Sym`] resolved
//!   at compile time, plus a per-chunk *slot* index into the frame's inline
//!   binding cache (see `vm.rs`). String property keys and diagnostic
//!   strings live in the chunk's constant pool.
//! * **Typed hook calls.** When the interpreter has a
//!   [`HookSink`](crate::hooks::HookSink) installed, each instrumentation
//!   call site the rewriter emits is one [`Insn::Hook`] whose operands —
//!   interned string literals, loop ids, and the binding-cache slots of
//!   variable operands — sit in the chunk's [`HookSite`] table; only
//!   computed operands travel on the value stack. Every other call is an
//!   ordinary [`Insn::Call`].
//! * **Tick fidelity.** [`Insn::Tick`] replays the tree-walker's per-node
//!   `charge(1)` calls — the compiler merges consecutive node-entry charges
//!   into one instruction, and the VM still charges them one at a time so
//!   watchdog messages fire at the exact same tick.
//! * **Unwind tables, not Rust recursion.** `break`/`continue`/`return`/
//!   `throw` are single instructions; the VM walks a runtime handler stack
//!   (pushed by the `Push*` instructions) to find the target, rather than
//!   unwinding nested Rust frames with `?`.
//! * **A compile-time prologue.** Each chunk lists the declarations its
//!   frame makes at entry ([`Decl`]), with the binding-cache slot each
//!   fills, and elides the `this` and `arguments` bindings of a body that
//!   cannot name them.

use crate::intern::Sym;
use ceres_ast::ast::{BinaryOp, Func, UnaryOp};
use std::rc::Rc;

/// A compiled program: chunk 0 is the top-level script, the rest are
/// function bodies in compilation (reservation) order.
pub struct Module {
    /// All chunks; [`Insn::MakeClosure`] and hoisted-function prologues
    /// reference them by index.
    pub chunks: Vec<Chunk>,
}

/// One compiled function body (or the top-level program).
pub struct Chunk {
    /// Function name, when declared or inferred (diagnostics, `f.name`).
    pub name: Option<String>,
    /// The source AST of the function. Kept so mixed-backend calls and
    /// `f.length` keep working — the VM never walks it.
    pub func: Option<Rc<Func>>,
    /// The prologue layout: the declarations a frame of this chunk makes
    /// at entry, in the order the tree-walker makes them (parameters,
    /// `this`, `arguments`, hoisted vars, hoisted functions; the program
    /// has only the last two).
    pub prologue: Vec<Decl>,
    /// Number of [`Decl::Bind`]s in the prologue, which an activation's
    /// binding map is sized for.
    pub bindings: u32,
    /// The instruction stream. Always ends with [`Insn::End`].
    pub code: Vec<Insn>,
    /// String constant pool (property keys, literals, callee diagnostics).
    pub strs: Vec<Rc<str>>,
    /// Number of distinct variable-cache slots referenced by the code.
    pub num_slots: u32,
    /// Operands of the typed hook call sites, indexed by [`Insn::Hook`].
    pub hooks: Vec<HookSite>,
    /// Variable operands of [`HookSite::DeclVars`] sites, in argument
    /// order.
    pub hook_vars: Vec<VarRef>,
    /// Pre-interned `"this"` (the [`Insn::LoadThis`] lookup).
    pub sym_this: Sym,
}

/// One declaration of a frame prologue.
#[derive(Clone, Copy, Debug)]
pub enum Decl {
    /// Declare `sym` with the value `init` makes. A name declared earlier
    /// in the prologue keeps its binding and drops the value, as the
    /// tree-walker's `declare` does.
    Bind {
        /// Interned name.
        sym: Sym,
        /// Where the value comes from.
        init: Init,
        /// The binding-cache slot the binding is written to, when the
        /// chunk reads or writes the name.
        slot: Option<u32>,
    },
    /// `this` or `arguments` in a body that never names it: use up the
    /// binding id the declaration would take and, for `arguments`
    /// (`object`), its array's object id, allocating nothing.
    Elide {
        /// Is this `arguments` (an object id too)?
        object: bool,
    },
}

/// Where a prologue binding's value comes from.
#[derive(Clone, Copy, Debug)]
pub enum Init {
    /// Call argument `i`, or `undefined` past the last.
    Arg(u32),
    /// The call's receiver.
    This,
    /// A new array of the call's arguments.
    Arguments,
    /// `undefined` (a hoisted `var`).
    Undefined,
    /// A closure over chunk `idx` (a hoisted function declaration).
    Closure(u32),
}

/// A variable operand of a hook call site: the interned name, and its
/// binding-cache slot in the chunk (shared with every other access to the
/// name), so the hook's binding id comes from the slot cache instead of a
/// scope walk.
#[derive(Clone, Copy, Debug)]
pub struct VarRef {
    /// Interned variable name.
    pub sym: Sym,
    /// Binding-cache slot.
    pub slot: u32,
}

/// The operands of one typed hook call site ([`Insn::Hook`]), one variant
/// per hook in [`crate::hooks::ALL_HOOKS`], mirroring the argument lists
/// the rewriter emits. String literals are interned at compile time; a
/// `key` of `None` is computed and sits on the value stack. Stack effects
/// list only the computed operands, in argument order.
#[derive(Clone, Copy, Debug)]
pub enum HookSite {
    /// `-> [r]` `__ceres_lw_enter()`.
    LwEnter,
    /// `-> [r]` `__ceres_lw_exit()`.
    LwExit,
    /// `-> [r]` `__ceres_loop_enter(id)`.
    LoopEnter(u32),
    /// `-> [r]` `__ceres_iter(id)`.
    Iter(u32),
    /// `-> [r]` `__ceres_loop_exit(id)`.
    LoopExit(u32),
    /// `-> [r]` `__ceres_declvars("a", …)`: the names are
    /// `hook_vars[start .. start + len]`.
    DeclVars {
        /// First name in [`Chunk::hook_vars`].
        start: u32,
        /// Number of names.
        len: u32,
    },
    /// `[v]? -> [r]` `__ceres_wrvar("x", "op"[, v])`.
    WrVar {
        /// The written variable.
        name: VarRef,
        /// Interned write op.
        op: Sym,
        /// Is the value passed through the hook (3-argument form)?
        value: bool,
    },
    /// `[v] -> [r]` `__ceres_wrap(v)`.
    Wrap,
    /// `[obj][key]? -> [r]` `__ceres_getprop(obj, key[, "base"])`.
    GetProp {
        /// Interned literal key, or `None` when computed.
        key: Option<Sym>,
        /// Base variable (3-argument form).
        base: Option<Sym>,
    },
    /// `[obj][key]?[v] -> [r]` `__ceres_setprop(obj, key, v[, "base"])`.
    SetProp {
        /// Interned literal key, or `None` when computed.
        key: Option<Sym>,
        /// Base variable (4-argument form).
        base: Option<VarRef>,
    },
    /// `[obj][key]?[v] -> [r]`
    /// `__ceres_setprop2(obj, key, "op", v[, "base"])`.
    SetProp2 {
        /// Interned literal key, or `None` when computed.
        key: Option<Sym>,
        /// Interned binary operator spelling.
        op: Sym,
        /// Base variable (5-argument form).
        base: Option<VarRef>,
    },
    /// `[obj][key]? -> [r]`
    /// `__ceres_update_prop(obj, key, delta, prefix[, "base"])`.
    UpdateProp {
        /// Interned literal key, or `None` when computed.
        key: Option<Sym>,
        /// The literal delta.
        delta: f64,
        /// The literal prefix flag.
        prefix: f64,
        /// Base variable (5-argument form).
        base: Option<VarRef>,
    },
    /// `[obj][key]?[a0]…[an-1] -> [r]`
    /// `__ceres_mcall(obj, key, "base"|null, a0, …)`.
    MCall {
        /// Interned literal key, or `None` when computed.
        key: Option<Sym>,
        /// Base variable, or `None` for a literal `null`.
        base: Option<Sym>,
        /// Number of call arguments.
        argc: u16,
    },
}

/// One bytecode instruction.
///
/// Stack-effect notation in the comments: `[a][b] -> [c]` pops `b` then `a`
/// and pushes `c` (leftmost is deepest).
#[derive(Clone, Copy, Debug)]
pub enum Insn {
    /// Charge `n` virtual-clock ticks, one at a time (budget checks and
    /// watchdog messages must observe every intermediate tick).
    Tick(u32),

    // -- pushes ---------------------------------------------------------
    /// Push a number literal.
    Num(f64),
    /// Push string constant `strs[idx]`.
    Str(u32),
    /// Push `undefined`.
    PushUndef,
    /// Push `null`.
    PushNull,
    /// Push a boolean.
    PushBool(bool),
    /// Push `this` (the frame's `this` binding; `undefined` at top level).
    LoadThis {
        /// Binding-cache slot for the `this` lookup.
        slot: u32,
    },

    // -- stack shuffling -------------------------------------------------
    /// `[v] ->` discard.
    Pop,
    /// `[v] -> [v][v]`.
    Dup,

    // -- variables -------------------------------------------------------
    /// Push the variable's value; throws `ReferenceError` when undeclared.
    LoadVar {
        /// Interned variable name.
        sym: Sym,
        /// Binding-cache slot.
        slot: u32,
    },
    /// `[v] ->` assign; creates an implicit *global* when undeclared
    /// (sloppy-mode assignment).
    StoreVar {
        /// Interned variable name.
        sym: Sym,
        /// Binding-cache slot.
        slot: u32,
    },
    /// `[v] ->` assign; declares in the *current* scope when undeclared
    /// (`var` initializers, for-in loop variables).
    StoreDecl {
        /// Interned variable name.
        sym: Sym,
        /// Binding-cache slot.
        slot: u32,
    },
    /// Push `typeof ident` — tolerates undeclared names.
    TypeofVar {
        /// Interned variable name.
        sym: Sym,
        /// Binding-cache slot.
        slot: u32,
    },

    // -- literals / allocation -------------------------------------------
    /// `[e0]…[en-1] -> [arr]` collect `n` elements into a new array.
    MakeArray(u32),
    /// `-> [obj]` allocate an empty object (before its property values are
    /// evaluated, matching tree-walk object-id order).
    MakeObject,
    /// `[obj][v] -> [obj]` raw own-property write with the interned key
    /// (object literals; bypasses monitor and array length magic).
    SetOwnProp(Sym),
    /// `-> [f]` construct a closure over `chunks[idx]` in the current scope.
    MakeClosure(u32),

    // -- operators -------------------------------------------------------
    /// `[v] -> [op v]` (Neg/Plus/Not/BitNot/TypeOf/Void; never Delete).
    Unary(UnaryOp),
    /// `[l][r] -> [l op r]` (never In/InstanceOf).
    Binary(BinaryOp),
    /// `[l][r] -> [bool]` `instanceof` with callable check.
    InstanceOf,
    /// `[l][r] -> [bool]` `in` (throws on non-object right side).
    InOp,
    /// `[v] -> [result][new]` shared update-expression core: coerce,
    /// add/subtract 1, push the expression result then the value to store.
    IncDec {
        /// `++` vs `--`.
        inc: bool,
        /// Prefix (`++x`, result = new) vs postfix (`x++`, result = old).
        prefix: bool,
    },

    // -- property access -------------------------------------------------
    /// `[obj] -> [v]` `obj.key` with the interned key.
    GetProp(Sym),
    /// `[v][obj] -> [v]` `obj.key = v`, pushes the stored value back.
    SetProp(Sym),
    /// `[obj][idx] -> [v]` `obj[idx]` with the untagged-array fast path.
    GetIndex,
    /// `[v][obj][idx] -> [v]` `obj[idx] = v`.
    SetIndex,
    /// `[obj] -> [f][obj]` method-call callee: property lookup that keeps
    /// the receiver for `this`.
    GetMethod(Sym),
    /// `[obj][idx] -> [f][obj]` computed method-call callee.
    GetIndexMethod,
    /// `[obj] -> [bool]` `delete obj.key`.
    DeleteProp(Sym),
    /// `[obj][idx] -> [bool]` `delete obj[idx]`.
    DeleteIndex,
    /// `[v] -> [false]` `delete` of a non-member (sloppy no-op).
    DeleteOther,

    // -- calls -----------------------------------------------------------
    /// `[f][this][a0]…[an-1] -> [ret]`. `src` indexes the callee's source
    /// text in `strs` for "x is not a function" diagnostics.
    Call {
        /// Argument count.
        argc: u16,
        /// Constant-pool index of the callee source text.
        src: u32,
    },
    /// `[operands…] -> [r]`: charge `ticks` (the node-entry charges pending
    /// since the last computed operand, or since the last real instruction
    /// when there is none), then make the typed instrumentation hook
    /// call `hooks[site]` through the interpreter's
    /// [`HookSink`](crate::hooks::HookSink). Emitted only for an
    /// interpreter with a sink installed and a program that never binds or
    /// assigns a `__ceres_`-prefixed name, so the hook's global native is
    /// the callee the tree-walker would resolve.
    Hook {
        /// Index into [`Chunk::hooks`].
        site: u32,
        /// Pending node-entry charges.
        ticks: u32,
    },
    /// `[f][a0]…[an-1] -> [obj]` constructor call.
    New {
        /// Argument count.
        argc: u16,
    },

    // -- jumps -----------------------------------------------------------
    /// Unconditional jump to `pc`.
    Jump(u32),
    /// `[v] ->` jump when falsy.
    JumpIfFalse(u32),
    /// `[v] ->` jump when truthy.
    JumpIfTrue(u32),
    /// Peek; jump when falsy *keeping* the value (`&&` short-circuit).
    JumpIfFalsePeek(u32),
    /// Peek; jump when truthy *keeping* the value (`||` short-circuit).
    JumpIfTruePeek(u32),
    /// `[disc][test] -> [disc]` or jump: switch-case comparison. On strict
    /// equality pops both and jumps to the case body; otherwise pops only
    /// the test value and falls through to the next test.
    CaseEq(u32),

    // -- handler stack (unwind tables) ------------------------------------
    /// Arm a loop: `break` resumes at `break_pc`, `continue` at
    /// `continue_pc`.
    PushLoop {
        /// Unwind target for `break` (after the loop).
        break_pc: u32,
        /// Unwind target for `continue` (loop update/condition).
        continue_pc: u32,
    },
    /// Arm a switch: `break` resumes at `break_pc`.
    PushSwitch {
        /// Unwind target for `break` (after the switch).
        break_pc: u32,
    },
    /// Arm a catch clause at `pc`; the unwinder pushes a one-binding scope
    /// declaring `param` to the thrown value.
    PushCatch {
        /// Start of the catch body.
        pc: u32,
        /// Interned catch parameter name.
        param: Sym,
    },
    /// Arm a finally block starting at `pc` (just after
    /// [`Insn::EnterFinally`]).
    PushFinally {
        /// Start of the finally body.
        pc: u32,
    },
    /// Disarm the innermost handler (normal completion of its region).
    PopHandler,
    /// Normal entry into a finally body: disarm its handler and record "no
    /// pending action", then fall through.
    EnterFinally,
    /// End of a finally body: resume the pending action captured when the
    /// block was entered (none after normal entry).
    EndFinally,
    /// Leave a catch-clause scope.
    PopScope,

    // -- for-in ----------------------------------------------------------
    /// `[obj] ->` snapshot own keys and (for `for (var k in …)` with an
    /// undeclared variable) declare the loop variable.
    ForInInit {
        /// Interned loop-variable name.
        sym: Sym,
        /// Was the loop variable written `for (var k in …)`?
        decl: bool,
    },
    /// Loop head: bind the next key to `sym`, or pop the iterator and jump
    /// to `end` when exhausted.
    ForInNext {
        /// Interned loop-variable name.
        sym: Sym,
        /// Jump target once keys run out (loop-handler pop).
        end: u32,
    },
    /// Drop the innermost key iterator (`break` out of a `for-in`, where
    /// the unwinder keeps the iterator the loop handler was armed inside).
    ForInDrop,

    // -- abrupt completions ----------------------------------------------
    /// `[v] ->` unwind with `return v`.
    Return,
    /// Unwind with `break`.
    Break,
    /// Unwind with `continue`.
    Continue,
    /// `[v] ->` unwind with `throw v`.
    Throw,
    /// `[v] ->` invalid assignment target: throw `SyntaxError` (after the
    /// right-hand side was evaluated, as the tree-walker does).
    InvalidTarget,
    /// End of chunk: return `undefined` from the frame.
    End,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insns_are_small_and_copy() {
        // The dispatch loop copies instructions out of the stream; keep
        // them register-friendly.
        assert!(std::mem::size_of::<Insn>() <= 16);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Insn>();
    }
}
