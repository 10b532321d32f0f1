//! AST → bytecode lowering.
//!
//! The contract with the tree-walker is *observational identity*: the same
//! virtual-clock tick sequence (every `eval_stmt`/`eval_expr` entry charge,
//! in the same order), the same binding/object-id allocation order, the
//! same evaluation order for every subexpression, and the same error
//! values. The comments on each lowering cite the tree-walk behavior they
//! replicate; `interp.rs` is the normative reference.
//!
//! Consecutive node-entry charges with nothing observable between them are
//! merged into one [`Insn::Tick`] (the VM still charges them one at a
//! time). Pending ticks are flushed before any real instruction and before
//! every jump target, so a tick never migrates across a control-flow edge.
//!
//! When the interpreter that runs the program has a
//! [`HookSink`](crate::hooks::HookSink) installed, calls of the
//! instrumentation hooks ([`crate::hooks::ALL_HOOKS`]) with the argument
//! shapes the rewriter emits lower to [`Insn::Hook`]: their string, number
//! and `null` literals are folded into the call site's [`HookSite`]
//! (keeping only each literal's node-entry charge), and their variable
//! operands get binding-cache slots. Every other call, the fork-join
//! `__ceres_par_*` gates included, is an ordinary [`Insn::Call`].

use crate::bytecode::{Chunk, Decl, HookSite, Init, Insn, Module, VarRef};
use crate::hooks;
use crate::intern::{intern, resolve, FxHashMap, Sym};
use ceres_ast::ast::*;
use ceres_ast::visit::{walk_expr, walk_func, walk_stmt, Visit};
use std::rc::Rc;

/// Compile a whole program (including every nested function) to a module.
/// Chunk 0 is the top-level script. `typed_hooks` says whether the
/// interpreter that runs the module has a
/// [`HookSink`](crate::hooks::HookSink) installed.
pub fn compile_program(program: &Program, typed_hooks: bool) -> Module {
    let typed_hooks = typed_hooks && {
        let mut binding = HookBinding::default();
        binding.visit_program(program);
        !binding.0
    };
    let mut c = Compiler {
        chunks: Vec::new(),
        typed_hooks,
    };
    c.compile_chunk(None, None, &program.body);
    Module { chunks: c.chunks }
}

struct Compiler {
    chunks: Vec<Chunk>,
    /// Lower rewriter hook calls to [`Insn::Hook`]: a sink is installed,
    /// and the program itself binds no name in the reserved hook namespace
    /// (else every call resolves through the scope chain).
    typed_hooks: bool,
}

/// Is `name` in the namespace reserved for instrumentation hooks?
fn is_hook_name(name: &str) -> bool {
    name.starts_with("__ceres_")
}

/// Finds whether a program binds (declares, shadows, or assigns) a
/// `__ceres_*` name anywhere. Instrumented programs never do — the
/// rewriter owns that prefix — so a clean scan is what licenses
/// [`Insn::Hook`].
#[derive(Default)]
struct HookBinding(bool);

impl HookBinding {
    fn bind(&mut self, name: &str) {
        self.0 |= is_hook_name(name);
    }
}

impl<'ast> Visit<'ast> for HookBinding {
    fn visit_stmt(&mut self, s: &'ast Stmt) {
        match &s.kind {
            StmtKind::VarDecl(ds)
            | StmtKind::For {
                init: Some(ForInit::VarDecl(ds)),
                ..
            } => ds.iter().for_each(|d| self.bind(&d.name)),
            StmtKind::Func(decl) => self.bind(&decl.name),
            StmtKind::ForIn { var, .. } => self.bind(var),
            StmtKind::Try { catch: Some(c), .. } => self.bind(&c.param),
            _ => {}
        }
        walk_stmt(self, s);
    }

    fn visit_expr(&mut self, e: &'ast Expr) {
        match &e.kind {
            ExprKind::Func {
                name: Some(name), ..
            } => self.bind(name),
            ExprKind::Assign { target, .. } | ExprKind::Update { target, .. } => {
                if let ExprKind::Ident(name) = &target.kind {
                    self.bind(name);
                }
            }
            _ => {}
        }
        walk_expr(self, e);
    }

    fn visit_func(&mut self, f: &'ast Func) {
        f.params.iter().for_each(|p| self.bind(p));
        walk_func(self, f);
    }
}

/// Per-chunk emission state.
struct Ctx {
    code: Vec<Insn>,
    strs: Vec<Rc<str>>,
    str_map: FxHashMap<Rc<str>, u32>,
    slots: FxHashMap<Sym, u32>,
    hooks: Vec<HookSite>,
    hook_vars: Vec<VarRef>,
    /// Node-entry charges not yet emitted.
    pending_ticks: u32,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            code: Vec::new(),
            strs: Vec::new(),
            str_map: FxHashMap::default(),
            slots: FxHashMap::default(),
            hooks: Vec::new(),
            hook_vars: Vec::new(),
            pending_ticks: 0,
        }
    }

    /// Record one node-entry `charge(1)`.
    fn tick(&mut self) {
        self.pending_ticks += 1;
    }

    fn flush_ticks(&mut self) {
        if self.pending_ticks > 0 {
            self.code.push(Insn::Tick(self.pending_ticks));
            self.pending_ticks = 0;
        }
    }

    /// Emit a real instruction (flushes pending ticks first).
    fn emit(&mut self, i: Insn) {
        self.flush_ticks();
        self.code.push(i);
    }

    /// Current pc as a jump target (flushes so the target is stable).
    fn here(&mut self) -> u32 {
        self.flush_ticks();
        self.code.len() as u32
    }

    /// Emit `i` and return its index for later patching.
    fn emit_patchable(&mut self, i: Insn) -> usize {
        self.flush_ticks();
        self.code.push(i);
        self.code.len() - 1
    }

    /// Patch the single jump-target operand of the instruction at `at`.
    fn patch(&mut self, at: usize, pc: u32) {
        match &mut self.code[at] {
            Insn::Jump(t)
            | Insn::JumpIfFalse(t)
            | Insn::JumpIfTrue(t)
            | Insn::JumpIfFalsePeek(t)
            | Insn::JumpIfTruePeek(t)
            | Insn::CaseEq(t)
            | Insn::PushSwitch { break_pc: t }
            | Insn::PushCatch { pc: t, .. }
            | Insn::PushFinally { pc: t }
            | Insn::ForInNext { end: t, .. } => *t = pc,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_loop(&mut self, at: usize, brk: u32, cont: u32) {
        match &mut self.code[at] {
            Insn::PushLoop {
                break_pc,
                continue_pc,
            } => {
                *break_pc = brk;
                *continue_pc = cont;
            }
            other => unreachable!("patching non-loop {other:?}"),
        }
    }

    /// Intern a string in the chunk constant pool.
    fn str_const(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.str_map.get(s) {
            return i;
        }
        let rc: Rc<str> = Rc::from(s);
        let i = self.strs.len() as u32;
        self.strs.push(rc.clone());
        self.str_map.insert(rc, i);
        i
    }

    /// Binding-cache slot for a variable name.
    fn slot(&mut self, sym: Sym) -> u32 {
        let next = self.slots.len() as u32;
        *self.slots.entry(sym).or_insert(next)
    }

    /// A variable operand of a hook call site.
    fn var(&mut self, sym: Sym) -> VarRef {
        VarRef {
            sym,
            slot: self.slot(sym),
        }
    }

    /// Can the chunk name variable `sym`? Every variable instruction and
    /// variable hook operand takes a binding-cache slot; for-in targets,
    /// catch parameters and the base names of `getprop`/`mcall` sites do
    /// not. A string constant that spells `sym` counts too, because a
    /// by-name hook native looks its string arguments up in the caller's
    /// scope.
    fn names(&self, sym: Sym) -> bool {
        self.slots.contains_key(&sym)
            || self.code.iter().any(|i| match *i {
                Insn::ForInInit { sym: s, .. }
                | Insn::ForInNext { sym: s, .. }
                | Insn::PushCatch { param: s, .. } => s == sym,
                _ => false,
            })
            || self.hooks.iter().any(|h| match *h {
                HookSite::GetProp { base, .. } | HookSite::MCall { base, .. } => base == Some(sym),
                _ => false,
            })
            || self.str_map.contains_key(&*resolve(sym))
    }
}

/// The interned text of a string literal.
fn str_lit(e: &Expr) -> Option<Sym> {
    match &e.kind {
        ExprKind::Str(s) => Some(intern(s)),
        _ => None,
    }
}

/// The value of a number literal.
fn num_lit(e: &Expr) -> Option<f64> {
    match e.kind {
        ExprKind::Num(n) => Some(n),
        _ => None,
    }
}

/// The typed form of a call of hook `name` with `args`, when the arguments
/// have the shape the rewriter emits: the call site, and per argument
/// whether it is a literal folded into the site. `None` for any other
/// name or shape (the call then stays an ordinary call).
fn hook_site(ctx: &mut Ctx, name: &str, args: &[Expr]) -> Option<(HookSite, Vec<bool>)> {
    // Loop ids fold only when `id as f64` gives back the literal, so the
    // sink gets the id the tree-walker's by-name native decodes from it.
    let loop_id = |e: &Expr| {
        num_lit(e)
            .filter(|n| *n == (*n as u32) as f64)
            .map(|n| n as u32)
    };
    // The optional trailing base-variable argument must be a string.
    let base = |tail: &[Expr]| match tail {
        [] => Some(None),
        [b] => str_lit(b).map(Some),
        _ => None,
    };
    // Positions of the literals the site holds, besides a property hook's
    // key (position 1), which folds whenever it is a string literal.
    let (site, literals): (HookSite, &[usize]) = match (name, args) {
        (hooks::LW_ENTER, []) => (HookSite::LwEnter, &[]),
        (hooks::LW_EXIT, []) => (HookSite::LwExit, &[]),
        (hooks::LOOP_ENTER, [id]) => (HookSite::LoopEnter(loop_id(id)?), &[0]),
        (hooks::ITER, [id]) => (HookSite::Iter(loop_id(id)?), &[0]),
        (hooks::LOOP_EXIT, [id]) => (HookSite::LoopExit(loop_id(id)?), &[0]),
        (hooks::DECLVARS, names) => {
            let syms = names.iter().map(str_lit).collect::<Option<Vec<_>>>()?;
            let start = ctx.hook_vars.len() as u32;
            for sym in syms {
                let v = ctx.var(sym);
                ctx.hook_vars.push(v);
            }
            let len = names.len() as u32;
            let site = HookSite::DeclVars { start, len };
            return Some((site, vec![true; names.len()]));
        }
        (hooks::WRVAR, [x, op, value @ ..]) if value.len() <= 1 => {
            let (x, op) = (str_lit(x)?, str_lit(op)?);
            let name = ctx.var(x);
            let value = value.len() == 1;
            (HookSite::WrVar { name, op, value }, &[0, 1])
        }
        (hooks::WRAP, [_]) => (HookSite::Wrap, &[]),
        (hooks::GETPROP, [_, k, tail @ ..]) => {
            let (key, base) = (str_lit(k), base(tail)?);
            (HookSite::GetProp { key, base }, &[2])
        }
        (hooks::SETPROP, [_, k, _, tail @ ..]) => {
            let (key, base) = (str_lit(k), base(tail)?.map(|b| ctx.var(b)));
            (HookSite::SetProp { key, base }, &[3])
        }
        (hooks::SETPROP2, [_, k, op, _, tail @ ..]) => {
            let (key, op) = (str_lit(k), str_lit(op)?);
            let base = base(tail)?.map(|b| ctx.var(b));
            (HookSite::SetProp2 { key, op, base }, &[2, 4])
        }
        (hooks::UPDATE_PROP, [_, k, delta, prefix, tail @ ..]) => {
            let (key, delta, prefix) = (str_lit(k), num_lit(delta)?, num_lit(prefix)?);
            let base = base(tail)?.map(|b| ctx.var(b));
            let site = HookSite::UpdateProp {
                key,
                delta,
                prefix,
                base,
            };
            (site, &[2, 3, 4])
        }
        (hooks::MCALL, [_, k, b, call_args @ ..]) => {
            let base = match b.kind {
                ExprKind::Null => None,
                _ => Some(str_lit(b)?),
            };
            let (key, argc) = (str_lit(k), call_args.len() as u16);
            (HookSite::MCall { key, base, argc }, &[2])
        }
        _ => return None,
    };
    let key_folded = match site {
        HookSite::GetProp { key, .. }
        | HookSite::SetProp { key, .. }
        | HookSite::SetProp2 { key, .. }
        | HookSite::UpdateProp { key, .. }
        | HookSite::MCall { key, .. } => key.is_some(),
        _ => false,
    };
    let folded = (0..args.len())
        .map(|i| literals.contains(&i) || (i == 1 && key_folded))
        .collect();
    Some((site, folded))
}

impl Compiler {
    /// Compile one function body (or the program when `func` is `None`)
    /// into a fresh chunk; returns its index.
    fn compile_chunk(&mut self, name: Option<String>, func: Option<&Func>, body: &[Stmt]) -> u32 {
        let idx = self.chunks.len() as u32;
        // Reserve the slot so nested functions get later indices, matching
        // a pre-order numbering.
        self.chunks.push(Chunk {
            name: None,
            func: None,
            prologue: Vec::new(),
            bindings: 0,
            code: Vec::new(),
            strs: Vec::new(),
            num_slots: 0,
            hooks: Vec::new(),
            hook_vars: Vec::new(),
            sym_this: Sym::NONE,
        });

        // Hoisting mirrors `hoist_into`: vars in source order, then
        // function declarations (closures built at frame entry).
        let (vars, funcs) = crate::interp::hoisted_of(body);
        let mut hoisted_funcs = Vec::with_capacity(funcs.len());
        for decl in &funcs {
            let f_idx =
                self.compile_chunk(Some(decl.name.clone()), Some(&decl.func), &decl.func.body);
            hoisted_funcs.push((intern(&decl.name), f_idx));
        }

        let mut ctx = Ctx::new();
        for s in body {
            self.stmt(&mut ctx, s);
        }
        ctx.emit(Insn::End);

        // The prologue in `call_js` order. `this` and `arguments` are
        // bound only when the body can name them; `arguments` also when
        // the prologue itself declares the name, whose later
        // declarations then find it bound.
        let sym_this = intern("this");
        let sym_arguments = intern("arguments");
        let bind = |sym: Sym, init: Init| Decl::Bind {
            sym,
            init,
            slot: ctx.slots.get(&sym).copied(),
        };
        let mut prologue = Vec::new();
        if let Some(f) = func {
            for (i, p) in f.params.iter().enumerate() {
                prologue.push(bind(intern(p), Init::Arg(i as u32)));
            }
            prologue.push(if ctx.names(sym_this) {
                bind(sym_this, Init::This)
            } else {
                Decl::Elide { object: false }
            });
            let declares_arguments = f.params.iter().any(|p| p == "arguments")
                || vars.contains(&"arguments")
                || funcs.iter().any(|d| d.name == "arguments");
            prologue.push(if declares_arguments || ctx.names(sym_arguments) {
                bind(sym_arguments, Init::Arguments)
            } else {
                Decl::Elide { object: true }
            });
        }
        prologue.extend(vars.iter().map(|v| bind(intern(v), Init::Undefined)));
        prologue.extend(
            hoisted_funcs
                .iter()
                .map(|&(sym, f)| bind(sym, Init::Closure(f))),
        );
        let bindings = prologue
            .iter()
            .filter(|d| matches!(d, Decl::Bind { .. }))
            .count();

        let chunk = &mut self.chunks[idx as usize];
        chunk.name = name;
        chunk.func = func.map(|f| Rc::new(f.clone()));
        chunk.prologue = prologue;
        chunk.bindings = bindings as u32;
        chunk.code = ctx.code;
        chunk.strs = ctx.strs;
        chunk.num_slots = ctx.slots.len() as u32;
        chunk.hooks = ctx.hooks;
        chunk.hook_vars = ctx.hook_vars;
        chunk.sym_this = sym_this;
        idx
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, ctx: &mut Ctx, s: &Stmt) {
        ctx.tick(); // eval_stmt entry charge
        match &s.kind {
            StmtKind::Expr(e) => {
                self.expr(ctx, e);
                ctx.emit(Insn::Pop);
            }
            StmtKind::VarDecl(decls) => {
                for d in decls {
                    if let Some(init) = &d.init {
                        self.expr(ctx, init);
                        let sym = intern(&d.name);
                        let slot = ctx.slot(sym);
                        ctx.emit(Insn::StoreDecl { sym, slot });
                    }
                }
            }
            StmtKind::Func(_) => {} // handled at hoist time; tick only
            StmtKind::Return(e) => {
                match e {
                    Some(e) => self.expr(ctx, e),
                    None => ctx.emit(Insn::PushUndef),
                }
                ctx.emit(Insn::Return);
            }
            StmtKind::If { cond, then, alt } => {
                self.expr(ctx, cond);
                let jf = ctx.emit_patchable(Insn::JumpIfFalse(0));
                self.stmt(ctx, then);
                match alt {
                    Some(alt) => {
                        let jend = ctx.emit_patchable(Insn::Jump(0));
                        let l_alt = ctx.here();
                        ctx.patch(jf, l_alt);
                        self.stmt(ctx, alt);
                        let l_end = ctx.here();
                        ctx.patch(jend, l_end);
                    }
                    None => {
                        let l_end = ctx.here();
                        ctx.patch(jf, l_end);
                    }
                }
            }
            StmtKind::While { cond, body, .. } => {
                let pl = ctx.emit_patchable(Insn::PushLoop {
                    break_pc: 0,
                    continue_pc: 0,
                });
                let head = ctx.here();
                self.expr(ctx, cond);
                let jf = ctx.emit_patchable(Insn::JumpIfFalse(0));
                self.stmt(ctx, body);
                ctx.emit(Insn::Jump(head));
                let l_pop = ctx.here();
                ctx.emit(Insn::PopHandler);
                let after = ctx.here();
                ctx.patch(jf, l_pop);
                ctx.patch_loop(pl, after, head);
            }
            StmtKind::DoWhile { body, cond, .. } => {
                let pl = ctx.emit_patchable(Insn::PushLoop {
                    break_pc: 0,
                    continue_pc: 0,
                });
                let head = ctx.here();
                self.stmt(ctx, body);
                let cont = ctx.here();
                self.expr(ctx, cond);
                ctx.emit(Insn::JumpIfTrue(head));
                ctx.emit(Insn::PopHandler);
                let after = ctx.here();
                ctx.patch_loop(pl, after, cont);
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
                                self.expr(ctx, e);
                                let sym = intern(&d.name);
                                let slot = ctx.slot(sym);
                                ctx.emit(Insn::StoreDecl { sym, slot });
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => {
                        self.expr(ctx, e);
                        ctx.emit(Insn::Pop);
                    }
                    None => {}
                }
                let pl = ctx.emit_patchable(Insn::PushLoop {
                    break_pc: 0,
                    continue_pc: 0,
                });
                let head = ctx.here();
                let jf = cond.as_ref().map(|c| {
                    self.expr(ctx, c);
                    ctx.emit_patchable(Insn::JumpIfFalse(0))
                });
                self.stmt(ctx, body);
                let cont = ctx.here();
                if let Some(u) = update {
                    self.expr(ctx, u);
                    ctx.emit(Insn::Pop);
                }
                ctx.emit(Insn::Jump(head));
                let l_pop = ctx.here();
                ctx.emit(Insn::PopHandler);
                let after = ctx.here();
                if let Some(jf) = jf {
                    ctx.patch(jf, l_pop);
                }
                ctx.patch_loop(pl, after, cont);
            }
            StmtKind::ForIn {
                decl,
                var,
                object,
                body,
                ..
            } => {
                let sym = intern(var);
                self.expr(ctx, object);
                ctx.emit(Insn::ForInInit { sym, decl: *decl });
                // The loop handler is armed *after* the iterator exists, so
                // `continue` (which truncates to the armed depth) keeps it;
                // `break` lands on ForInDrop to discard it.
                let pl = ctx.emit_patchable(Insn::PushLoop {
                    break_pc: 0,
                    continue_pc: 0,
                });
                let head = ctx.here();
                let fin = ctx.emit_patchable(Insn::ForInNext { sym, end: 0 });
                self.stmt(ctx, body);
                ctx.emit(Insn::Jump(head));
                let l_end = ctx.here();
                ctx.emit(Insn::PopHandler);
                let jend = ctx.emit_patchable(Insn::Jump(0));
                let l_brk = ctx.here();
                ctx.emit(Insn::ForInDrop);
                let after = ctx.here();
                ctx.patch(fin, l_end);
                ctx.patch(jend, after);
                ctx.patch_loop(pl, l_brk, head);
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.stmt(ctx, s);
                }
            }
            StmtKind::Break => ctx.emit(Insn::Break),
            StmtKind::Continue => ctx.emit(Insn::Continue),
            StmtKind::Throw(e) => {
                self.expr(ctx, e);
                ctx.emit(Insn::Throw);
            }
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                let pf = finally
                    .as_ref()
                    .map(|_| ctx.emit_patchable(Insn::PushFinally { pc: 0 }));
                let pcatch = catch.as_ref().map(|c| {
                    ctx.emit_patchable(Insn::PushCatch {
                        pc: 0,
                        param: intern(&c.param),
                    })
                });
                for s in block {
                    self.stmt(ctx, s);
                }
                if let (Some(pcatch), Some(c)) = (pcatch, catch.as_ref()) {
                    ctx.emit(Insn::PopHandler);
                    let jend = ctx.emit_patchable(Insn::Jump(0));
                    let l_catch = ctx.here();
                    ctx.patch(pcatch, l_catch);
                    for s in &c.body {
                        self.stmt(ctx, s);
                    }
                    ctx.emit(Insn::PopScope);
                    let l_end = ctx.here();
                    ctx.patch(jend, l_end);
                }
                if let (Some(pf), Some(f)) = (pf, finally.as_ref()) {
                    ctx.emit(Insn::EnterFinally);
                    let l_fin = ctx.here();
                    ctx.patch(pf, l_fin);
                    for s in f {
                        self.stmt(ctx, s);
                    }
                    ctx.emit(Insn::EndFinally);
                }
            }
            StmtKind::Switch { disc, cases } => {
                let ps = ctx.emit_patchable(Insn::PushSwitch { break_pc: 0 });
                self.expr(ctx, disc);
                // All tests evaluate (until a match) before any body runs.
                let mut case_jumps: Vec<(usize, usize)> = Vec::new(); // (case idx, patch at)
                for (i, case) in cases.iter().enumerate() {
                    if let Some(t) = &case.test {
                        self.expr(ctx, t);
                        let at = ctx.emit_patchable(Insn::CaseEq(0));
                        case_jumps.push((i, at));
                    }
                }
                ctx.emit(Insn::Pop); // no test matched: discard discriminant
                let default = cases.iter().position(|c| c.test.is_none());
                let jdef = ctx.emit_patchable(Insn::Jump(0));
                if let Some(di) = default {
                    case_jumps.push((di, jdef));
                }
                let mut body_pcs = Vec::with_capacity(cases.len());
                for case in cases {
                    body_pcs.push(ctx.here());
                    for s in &case.body {
                        self.stmt(ctx, s);
                    }
                    // fall through to the next case body
                }
                let l_pop = ctx.here();
                ctx.emit(Insn::PopHandler);
                let after = ctx.here();
                for (i, at) in case_jumps {
                    ctx.patch(at, body_pcs[i]);
                }
                if default.is_none() {
                    ctx.patch(jdef, l_pop);
                }
                ctx.patch(ps, after);
            }
            StmtKind::Empty => {}
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self, ctx: &mut Ctx, e: &Expr) {
        ctx.tick(); // eval_expr entry charge
        match &e.kind {
            ExprKind::Num(n) => ctx.emit(Insn::Num(*n)),
            ExprKind::Str(s) => {
                let i = ctx.str_const(s);
                ctx.emit(Insn::Str(i));
            }
            ExprKind::Bool(b) => ctx.emit(Insn::PushBool(*b)),
            ExprKind::Null => ctx.emit(Insn::PushNull),
            ExprKind::Undefined => ctx.emit(Insn::PushUndef),
            ExprKind::This => {
                let slot = ctx.slot(intern("this"));
                ctx.emit(Insn::LoadThis { slot });
            }
            ExprKind::Ident(name) => {
                let sym = intern(name);
                let slot = ctx.slot(sym);
                ctx.emit(Insn::LoadVar { sym, slot });
            }
            ExprKind::Array(elems) => {
                for el in elems {
                    self.expr(ctx, el);
                }
                // Array allocated *after* its elements (tree-walk id order).
                ctx.emit(Insn::MakeArray(elems.len() as u32));
            }
            ExprKind::Object(props) => {
                // Object allocated *before* its values (tree-walk id order).
                ctx.emit(Insn::MakeObject);
                for (key, value) in props {
                    self.expr(ctx, value);
                    let k = intern(&key.as_name());
                    ctx.emit(Insn::SetOwnProp(k));
                }
            }
            ExprKind::Func { name, func } => {
                let idx = self.compile_chunk(name.clone(), Some(func), &func.body);
                ctx.emit(Insn::MakeClosure(idx));
            }
            ExprKind::Unary { op, expr: inner } => match op {
                // `typeof ident` tolerates undeclared names and charges
                // only the Unary node.
                UnaryOp::TypeOf if matches!(&inner.kind, ExprKind::Ident(_)) => {
                    let ExprKind::Ident(name) = &inner.kind else {
                        unreachable!()
                    };
                    let sym = intern(name);
                    let slot = ctx.slot(sym);
                    ctx.emit(Insn::TypeofVar { sym, slot });
                }
                // `delete` dispatches on the target shape without charging
                // the Member/Index node itself (see `eval_delete`).
                UnaryOp::Delete => match &inner.kind {
                    ExprKind::Member { object, prop } => {
                        self.expr(ctx, object);
                        let k = intern(prop);
                        ctx.emit(Insn::DeleteProp(k));
                    }
                    ExprKind::Index { object, index } => {
                        self.expr(ctx, object);
                        self.expr(ctx, index);
                        ctx.emit(Insn::DeleteIndex);
                    }
                    _ => {
                        self.expr(ctx, inner);
                        ctx.emit(Insn::DeleteOther);
                    }
                },
                _ => {
                    self.expr(ctx, inner);
                    ctx.emit(Insn::Unary(*op));
                }
            },
            ExprKind::Update { op, prefix, target } => {
                let inc = matches!(op, UpdateOp::Inc);
                let prefix = *prefix;
                match &target.kind {
                    // eval_lvalue_read(Ident) reads without charging.
                    ExprKind::Ident(name) => {
                        let sym = intern(name);
                        let slot = ctx.slot(sym);
                        ctx.emit(Insn::LoadVar { sym, slot });
                        ctx.emit(Insn::IncDec { inc, prefix });
                        ctx.emit(Insn::StoreVar { sym, slot });
                    }
                    // Member/Index targets evaluate the object (and index)
                    // twice: once reading via eval_expr (which charges the
                    // node), once writing via assign_to (which does not).
                    ExprKind::Member { object, prop } => {
                        ctx.tick(); // Member node charge from the lvalue read
                        self.expr(ctx, object);
                        let k = intern(prop);
                        ctx.emit(Insn::GetProp(k));
                        ctx.emit(Insn::IncDec { inc, prefix });
                        self.expr(ctx, object);
                        ctx.emit(Insn::SetProp(k));
                        ctx.emit(Insn::Pop);
                    }
                    ExprKind::Index { object, index } => {
                        ctx.tick(); // Index node charge from the lvalue read
                        self.expr(ctx, object);
                        self.expr(ctx, index);
                        ctx.emit(Insn::GetIndex);
                        ctx.emit(Insn::IncDec { inc, prefix });
                        self.expr(ctx, object);
                        self.expr(ctx, index);
                        ctx.emit(Insn::SetIndex);
                        ctx.emit(Insn::Pop);
                    }
                    _ => {
                        // Read evaluates the target, then assign_to throws.
                        self.expr(ctx, target);
                        ctx.emit(Insn::InvalidTarget);
                    }
                }
            }
            ExprKind::Binary { op, left, right } => {
                self.expr(ctx, left);
                self.expr(ctx, right);
                match op {
                    BinaryOp::InstanceOf => ctx.emit(Insn::InstanceOf),
                    BinaryOp::In => ctx.emit(Insn::InOp),
                    _ => ctx.emit(Insn::Binary(*op)),
                }
            }
            ExprKind::Logical { op, left, right } => {
                self.expr(ctx, left);
                let j = ctx.emit_patchable(match op {
                    LogicalOp::And => Insn::JumpIfFalsePeek(0),
                    LogicalOp::Or => Insn::JumpIfTruePeek(0),
                });
                ctx.emit(Insn::Pop);
                self.expr(ctx, right);
                let end = ctx.here();
                ctx.patch(j, end);
            }
            ExprKind::Assign { op, target, value } => match op.binary() {
                None => match &target.kind {
                    ExprKind::Ident(name) => {
                        self.expr(ctx, value);
                        let sym = intern(name);
                        let slot = ctx.slot(sym);
                        ctx.emit(Insn::Dup);
                        ctx.emit(Insn::StoreVar { sym, slot });
                    }
                    // assign_to evaluates the target object *after* the
                    // value, without charging the Member/Index node.
                    ExprKind::Member { object, prop } => {
                        self.expr(ctx, value);
                        self.expr(ctx, object);
                        let k = intern(prop);
                        ctx.emit(Insn::SetProp(k));
                    }
                    ExprKind::Index { object, index } => {
                        self.expr(ctx, value);
                        self.expr(ctx, object);
                        self.expr(ctx, index);
                        ctx.emit(Insn::SetIndex);
                    }
                    _ => {
                        self.expr(ctx, value);
                        ctx.emit(Insn::InvalidTarget);
                    }
                },
                Some(bop) => {
                    match &target.kind {
                        ExprKind::Ident(name) => {
                            let sym = intern(name);
                            let slot = ctx.slot(sym);
                            ctx.emit(Insn::LoadVar { sym, slot });
                            self.expr(ctx, value);
                            ctx.emit(Insn::Binary(bop));
                            ctx.emit(Insn::Dup);
                            ctx.emit(Insn::StoreVar { sym, slot });
                        }
                        ExprKind::Member { object, prop } => {
                            ctx.tick(); // Member node charge from lvalue read
                            self.expr(ctx, object);
                            let k = intern(prop);
                            ctx.emit(Insn::GetProp(k));
                            self.expr(ctx, value);
                            ctx.emit(Insn::Binary(bop));
                            self.expr(ctx, object);
                            ctx.emit(Insn::SetProp(k));
                        }
                        ExprKind::Index { object, index } => {
                            ctx.tick(); // Index node charge from lvalue read
                            self.expr(ctx, object);
                            self.expr(ctx, index);
                            ctx.emit(Insn::GetIndex);
                            self.expr(ctx, value);
                            ctx.emit(Insn::Binary(bop));
                            self.expr(ctx, object);
                            self.expr(ctx, index);
                            ctx.emit(Insn::SetIndex);
                        }
                        _ => {
                            self.expr(ctx, target); // lvalue read charges
                            self.expr(ctx, value);
                            ctx.emit(Insn::Binary(bop));
                            ctx.emit(Insn::InvalidTarget);
                        }
                    }
                }
            },
            ExprKind::Cond { cond, then, alt } => {
                self.expr(ctx, cond);
                let jf = ctx.emit_patchable(Insn::JumpIfFalse(0));
                self.expr(ctx, then);
                let jend = ctx.emit_patchable(Insn::Jump(0));
                let l_alt = ctx.here();
                ctx.patch(jf, l_alt);
                self.expr(ctx, alt);
                let l_end = ctx.here();
                ctx.patch(jend, l_end);
            }
            ExprKind::Call { callee, args } => {
                // A rewriter hook call binds directly to the sink. Tick
                // parity with the ordinary lowering: the callee Ident's
                // node-entry charge is kept (`LoadVar`/`PushUndef` carry
                // no charges of their own), and so is each folded literal's.
                // They stay pending, for the first computed operand's
                // `Tick` or the `Hook` itself to charge.
                let typed = match &callee.kind {
                    ExprKind::Ident(name) if self.typed_hooks => hook_site(ctx, name, args),
                    _ => None,
                };
                if let Some((hook, folded)) = typed {
                    ctx.tick(); // callee Ident node entry charge
                    for (a, folded) in args.iter().zip(folded) {
                        if folded {
                            ctx.tick(); // the literal's node entry charge
                        } else {
                            self.expr(ctx, a);
                        }
                    }
                    let ticks = std::mem::take(&mut ctx.pending_ticks);
                    let site = ctx.hooks.len() as u32;
                    ctx.hooks.push(hook);
                    ctx.code.push(Insn::Hook { site, ticks });
                    return;
                }
                // Method calls compute the receiver; the Member/Index node
                // of the callee itself is *not* charged (see eval_call).
                match &callee.kind {
                    ExprKind::Member { object, prop } => {
                        self.expr(ctx, object);
                        let k = intern(prop);
                        ctx.emit(Insn::GetMethod(k));
                    }
                    ExprKind::Index { object, index } => {
                        self.expr(ctx, object);
                        self.expr(ctx, index);
                        ctx.emit(Insn::GetIndexMethod);
                    }
                    _ => {
                        self.expr(ctx, callee);
                        ctx.emit(Insn::PushUndef);
                    }
                }
                for a in args {
                    self.expr(ctx, a);
                }
                let src = ctx.str_const(&ceres_ast::expr_to_source(callee));
                ctx.emit(Insn::Call {
                    argc: args.len() as u16,
                    src,
                });
            }
            ExprKind::New { callee, args } => {
                self.expr(ctx, callee);
                for a in args {
                    self.expr(ctx, a);
                }
                ctx.emit(Insn::New {
                    argc: args.len() as u16,
                });
            }
            ExprKind::Member { object, prop } => {
                self.expr(ctx, object);
                let k = intern(prop);
                ctx.emit(Insn::GetProp(k));
            }
            ExprKind::Index { object, index } => {
                self.expr(ctx, object);
                self.expr(ctx, index);
                ctx.emit(Insn::GetIndex);
            }
            ExprKind::Seq(exprs) => match exprs.split_last() {
                None => ctx.emit(Insn::PushUndef),
                Some((last, init)) => {
                    for e in init {
                        self.expr(ctx, e);
                        ctx.emit(Insn::Pop);
                    }
                    self.expr(ctx, last);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Does the module compiled with `typed_hooks` have an [`Insn::Hook`]?
    fn uses_typed_hook(src: &str, typed_hooks: bool) -> bool {
        let program = ceres_parser::parse_program(src).unwrap();
        compile_program(&program, typed_hooks)
            .chunks
            .iter()
            .any(|c| c.code.iter().any(|i| matches!(i, Insn::Hook { .. })))
    }

    #[test]
    fn binding_a_hook_name_anywhere_turns_the_fast_path_off() {
        assert!(uses_typed_hook("__ceres_iter(1);", true));
        // Without a sink, a hook call is an ordinary call.
        assert!(!uses_typed_hook("__ceres_iter(1);", false));
        for binding in [
            "var __ceres_x;",
            "for (var __ceres_x = 0; false; ) {}",
            "function __ceres_x() {}",
            "var f = function __ceres_x() {};",
            "function f(__ceres_x) {}",
            "try {} catch (__ceres_x) {}",
            "for (__ceres_x in {}) {}",
            "__ceres_x = 1;",
            "__ceres_x++;",
        ] {
            for src in [
                format!("{binding}\n__ceres_iter(1);"),
                format!("(function () {{ {binding} }});\n__ceres_iter(1);"),
            ] {
                assert!(!uses_typed_hook(&src, true), "{src}");
            }
        }
    }
}
