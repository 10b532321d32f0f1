//! The AST rewriting pass.
//!
//! [`instrument_program`] clones the loop-numbered program once and runs one
//! [`VisitMut`] over the clone. Each node is rewritten after its children
//! have been, so the hooks it inserts are never visited (no double
//! instrumentation). A site that takes a place apart (an assignment or
//! update target, a `delete` operand, a method call's callee) visits only
//! the place's object and key, so the place itself is never hooked as a
//! read.

use crate::hooks;
use ceres_ast::ast::*;
use ceres_ast::build::{self, call, str_lit};
use ceres_ast::visit::{walk_expr_mut, walk_func_mut, walk_stmt_mut, VisitMut};
use ceres_ast::{assign_loop_ids, LoopInfo};
use ceres_parser::ParseError;

/// Instrumentation mode (paper Sec. 3.1–3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open-loop counter + total time in loops only.
    Lightweight,
    /// Per-loop instance counts, trip counts, running time (Welford).
    LoopProfile,
    /// Loop profiling plus memory-access tracking.
    Dependence,
}

/// Instrument source text: parse → number loops → rewrite → print.
///
/// Returns the instrumented source and the loop table (ids ↔ source lines),
/// which the analysis engine needs to render reports like
/// `for(line 6) ok dependence`.
pub fn instrument_source(source: &str, mode: Mode) -> Result<(String, Vec<LoopInfo>), ParseError> {
    let mut program = ceres_parser::parse_program(source)?;
    let loops = assign_loop_ids(&mut program);
    let instrumented = instrument_program(&program, mode);
    Ok((ceres_ast::program_to_source(&instrumented), loops))
}

/// Instrument an already-numbered program.
pub fn instrument_program(program: &Program, mode: Mode) -> Program {
    let mut rw = Rewriter { mode };
    let mut out = program.clone();
    let decl = rw.declvars(&out.body, &[]);
    rw.visit_program(&mut out);
    out.body.splice(0..0, decl);
    out
}

struct Rewriter {
    mode: Mode,
}

impl Rewriter {
    fn tracks_accesses(&self) -> bool {
        self.mode == Mode::Dependence
    }

    /// In dependence mode, `__ceres_declvars("a", "b", …)` for `params`
    /// plus the hoisted names of `body`, each once in first-occurrence
    /// order. `None` in the other modes, or when there is nothing to stamp.
    fn declvars(&self, body: &[Stmt], params: &[String]) -> Option<Stmt> {
        if !self.tracks_accesses() {
            return None;
        }
        let mut names: Vec<&str> = params.iter().map(String::as_str).collect();
        names.dedup();
        for h in ceres_ast::hoisted(body) {
            if !names.contains(&h.name()) {
                names.push(h.name());
            }
        }
        let args: Vec<Expr> = names.into_iter().map(str_lit).collect();
        (!args.is_empty()).then(|| build::expr_stmt(call(hooks::DECLVARS, args)))
    }

    /// Visit what an assignment, update, `delete` or call takes apart: a
    /// property place's object and key, never the place itself as a read.
    fn visit_place(&mut self, place: &mut Expr) {
        match &mut place.kind {
            ExprKind::Member { object, .. } => self.visit_expr(object),
            ExprKind::Index { object, index } => {
                self.visit_expr(object);
                self.visit_expr(index);
            }
            _ => self.visit_expr(place),
        }
    }

    /// `for (k = 0; …)` initializers are induction-variable setup: record
    /// the write with op "init" so the classifier doesn't mistake loop
    /// bookkeeping for a cross-iteration conflict.
    fn visit_for_init(&mut self, e: &mut Expr) {
        if let ExprKind::Seq(parts) = &mut e.kind {
            return parts.iter_mut().for_each(|p| self.visit_for_init(p));
        }
        if let ExprKind::Assign {
            op: AssignOp::Assign,
            target,
            value,
        } = &mut e.kind
        {
            if let ExprKind::Ident(name) = &target.kind {
                self.visit_expr(value);
                **value = wrvar(name, "init", Some(take(value)));
                return;
            }
        }
        self.visit_expr(e);
    }

    /// Prefix a walked loop's body with the per-iteration hook (and a
    /// for-in's loop-variable write), then wrap the loop with enter/exit
    /// hooks:
    ///
    /// ```text
    /// enter(); try { <loop> } finally { exit(); }
    /// ```
    fn wrap_loop(&self, s: &mut Stmt) {
        let Some(id) = s.kind.loop_id() else { return };
        let id_arg = || vec![build::num(id.0 as f64)];
        if self.mode != Mode::Lightweight {
            let (body, var) = match &mut s.kind {
                StmtKind::ForIn { var, body, .. } => (body, Some(var)),
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => (body, None),
                _ => unreachable!("a loop"),
            };
            let mut head = vec![build::expr_stmt(call(hooks::ITER, id_arg()))];
            if self.tracks_accesses() {
                // The loop variable is (re)written each iteration: record it.
                head.extend(var.map(|v| build::expr_stmt(wrvar(v, "forin", None))));
            }
            match &mut body.kind {
                StmtKind::Block(stmts) => drop(stmts.splice(0..0, head)),
                _ => {
                    head.push(std::mem::replace(&mut **body, Stmt::synth(StmtKind::Empty)));
                    **body = build::block(head);
                }
            }
        }
        let (enter, exit) = match self.mode {
            Mode::Lightweight => (call(hooks::LW_ENTER, vec![]), call(hooks::LW_EXIT, vec![])),
            Mode::LoopProfile | Mode::Dependence => (
                call(hooks::LOOP_ENTER, id_arg()),
                call(hooks::LOOP_EXIT, id_arg()),
            ),
        };
        let loop_stmt = std::mem::replace(s, Stmt::synth(StmtKind::Empty));
        *s = build::block(vec![
            build::expr_stmt(enter),
            build::try_finally(vec![loop_stmt], vec![build::expr_stmt(exit)]),
        ]);
    }
}

impl VisitMut for Rewriter {
    fn visit_func(&mut self, func: &mut Func) {
        let decl = self.declvars(&func.body, &func.params);
        walk_func_mut(self, func);
        func.body.splice(0..0, decl);
    }

    fn visit_stmt(&mut self, s: &mut Stmt) {
        let tracks = self.tracks_accesses();
        // In dependence mode a `for` initializer expression stays out of
        // the walk: `visit_for_init` visits it below.
        let init = match &mut s.kind {
            StmtKind::For {
                init: init @ Some(ForInit::Expr(_)),
                ..
            } if tracks => init.take(),
            _ => None,
        };
        walk_stmt_mut(self, s);
        match &mut s.kind {
            StmtKind::VarDecl(ds)
            | StmtKind::For {
                init: Some(ForInit::VarDecl(ds)),
                ..
            } if tracks => {
                // `var p = __ceres_wrvar("p", "init", e)` — a write to `p`
                // (Fig. 6's line-7 warning comes from exactly this case),
                // with the value observed.
                for d in ds {
                    d.init = d.init.take().map(|e| wrvar(&d.name, "init", Some(e)));
                }
            }
            StmtKind::For { init: slot, .. } => {
                if let Some(ForInit::Expr(mut e)) = init {
                    self.visit_for_init(&mut e);
                    *slot = Some(ForInit::Expr(e));
                }
            }
            // Catch parameters are fresh bindings: stamp them.
            StmtKind::Try { catch: Some(c), .. } => {
                let decl = self.declvars(&[], std::slice::from_ref(&c.param));
                c.body.splice(0..0, decl);
            }
            _ => {}
        }
        self.wrap_loop(s);
    }

    fn visit_expr(&mut self, e: &mut Expr) {
        if !self.tracks_accesses() {
            // Lightweight/loop modes only need function bodies rewritten
            // (they may contain loops).
            return walk_expr_mut(self, e);
        }
        match &mut e.kind {
            // Reads of properties.
            ExprKind::Member { .. } | ExprKind::Index { .. } => {
                walk_expr_mut(self, e);
                *e = prop_hook(hooks::GETPROP, take(e).kind, []);
            }
            // Object creation sites get wrapped (the paper's Proxy).
            ExprKind::New { .. }
            | ExprKind::Object(_)
            | ExprKind::Array(_)
            | ExprKind::Func { .. } => {
                walk_expr_mut(self, e);
                *e = call(hooks::WRAP, vec![take(e)]);
            }
            ExprKind::Assign { op, target, value } => {
                self.visit_place(target);
                self.visit_expr(value);
                if let ExprKind::Ident(name) = &target.kind {
                    // `x op= __ceres_wrvar("x", "op", v)` — the hook records
                    // the write (and observes the value's runtime type for
                    // the polymorphism report), then passes v through.
                    **value = wrvar(name, op.as_str(), Some(take(value)));
                } else if is_prop(target) {
                    let value = take(value);
                    *e = match op.binary() {
                        None => prop_hook(hooks::SETPROP, take(target).kind, [value]),
                        Some(bop) => {
                            let bop = str_lit(bop.as_str());
                            prop_hook(hooks::SETPROP2, take(target).kind, [bop, value])
                        }
                    };
                }
            }
            ExprKind::Update { op, prefix, target } => {
                self.visit_place(target);
                if let ExprKind::Ident(name) = &target.kind {
                    let hook = wrvar(name, op.as_str(), None);
                    *e = build::seq(vec![hook, take(e)]);
                } else if is_prop(target) {
                    let delta = build::num(if *op == UpdateOp::Inc { 1.0 } else { -1.0 });
                    let prefix = build::num(if *prefix { 1.0 } else { 0.0 });
                    *e = prop_hook(hooks::UPDATE_PROP, take(target).kind, [delta, prefix]);
                }
            }
            // `delete o.p` must keep the member syntactically intact.
            ExprKind::Unary {
                op: UnaryOp::Delete,
                expr,
            } => self.visit_place(expr),
            // Method calls keep their receiver via __ceres_mcall. The base
            // slot is always present (null when the base is not a variable)
            // because the call arguments follow variadically.
            ExprKind::Call { callee, args } => {
                self.visit_place(callee);
                args.iter_mut().for_each(|a| self.visit_expr(a));
                if is_prop(callee) {
                    let (object, key, base) = split(take(callee).kind);
                    let mut hook_args = Vec::with_capacity(args.len() + 3);
                    hook_args.extend([object, key, base.unwrap_or(Expr::synth(ExprKind::Null))]);
                    hook_args.append(args);
                    *e = call(hooks::MCALL, hook_args);
                }
            }
            _ => walk_expr_mut(self, e),
        }
    }
}

/// Move `e` out, leaving a placeholder.
fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::synth(ExprKind::Null))
}

/// `o.p` or `o[k]`.
fn is_prop(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Member { .. } | ExprKind::Index { .. })
}

/// A property place's object, its key as an expression and, if the object
/// is a plain variable, its name as a string literal: the binding-stamp
/// refinement of type (b) warnings (DESIGN.md §4) and the subject reports
/// name ("reads of properties x, y, m of com").
fn split(place: ExprKind) -> (Expr, Expr, Option<Expr>) {
    let (object, key) = match place {
        ExprKind::Member { object, prop } => (*object, Expr::synth(ExprKind::Str(prop))),
        ExprKind::Index { object, index } => (*object, *index),
        _ => unreachable!("a property place"),
    };
    let base = match &object.kind {
        ExprKind::Ident(name) => Some(str_lit(name)),
        _ => None,
    };
    (object, key, base)
}

/// `hook(object, key, mid…, base)` for a property place, the base only when
/// the object is a variable.
fn prop_hook<const N: usize>(hook: &str, place: ExprKind, mid: [Expr; N]) -> Expr {
    let (object, key, base) = split(place);
    let mut args = Vec::with_capacity(N + 3);
    args.extend([object, key]);
    args.extend(mid);
    args.extend(base);
    call(hook, args)
}

/// `__ceres_wrvar("name", "op")`, with the written value when there is one.
fn wrvar(name: &str, op: &str, value: Option<Expr>) -> Expr {
    let mut args = vec![str_lit(name), str_lit(op)];
    args.extend(value);
    call(hooks::WRVAR, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_parser::parse_program;

    fn instrument(src: &str, mode: Mode) -> String {
        let (out, _) = instrument_source(src, mode).unwrap();
        out
    }

    #[test]
    fn lightweight_wraps_loops_with_try_finally() {
        let out = instrument("while (a) { f(); }", Mode::Lightweight);
        assert!(out.contains("__ceres_lw_enter()"), "{out}");
        assert!(out.contains("finally"), "{out}");
        assert!(out.contains("__ceres_lw_exit()"), "{out}");
        // No per-iteration hooks in lightweight mode.
        assert!(!out.contains("__ceres_iter"), "{out}");
        // No access hooks.
        assert!(!out.contains("__ceres_wrvar"), "{out}");
    }

    #[test]
    fn loop_profile_inserts_ids_and_iter() {
        let out = instrument(
            "while (a) { for (var i = 0; i < n; i++) { f(i); } }",
            Mode::LoopProfile,
        );
        assert!(out.contains("__ceres_loop_enter(1)"), "{out}");
        assert!(out.contains("__ceres_loop_enter(2)"), "{out}");
        assert!(out.contains("__ceres_iter(1)"), "{out}");
        assert!(out.contains("__ceres_iter(2)"), "{out}");
        assert!(out.contains("__ceres_loop_exit(1)"), "{out}");
        assert!(out.contains("__ceres_loop_exit(2)"), "{out}");
    }

    #[test]
    fn instrumented_output_reparses() {
        for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
            let out = instrument(
                "function f(a) { var t = { x: 1 }; for (var i = 0; i < a.length; i++) { t.x += a[i]; } return t.x; }\n\
                 var r = f([1, 2, 3]);",
                mode,
            );
            parse_program(&out).unwrap_or_else(|e| panic!("{mode:?}: {e}\n{out}"));
        }
    }

    #[test]
    fn dependence_rewrites_reads_and_writes() {
        let out = instrument("y = o.a + o[k];", Mode::Dependence);
        assert!(out.contains("__ceres_getprop(o, \"a\", \"o\")"), "{out}");
        assert!(out.contains("__ceres_getprop(o, k, \"o\")"), "{out}");
        assert!(out.contains("y = __ceres_wrvar(\"y\", \"=\","), "{out}");
    }

    #[test]
    fn dependence_rewrites_property_writes_with_base_var() {
        let out = instrument("p.vX += p.fX / p.m * dT;", Mode::Dependence);
        assert!(out.contains("__ceres_setprop2(p, \"vX\", \"+\""), "{out}");
        // Base-variable name is passed as the trailing argument.
        assert!(out.contains(", \"p\")"), "{out}");
        let out = instrument("a.b.c = 1;", Mode::Dependence);
        // Base of the write is `a.b` (not a variable): no trailing name.
        assert!(
            out.contains("__ceres_setprop(__ceres_getprop(a, \"b\", \"a\"), \"c\", 1)"),
            "{out}"
        );
    }

    #[test]
    fn dependence_wraps_object_creation() {
        let out = instrument(
            "var a = new P(); var b = { x: 1 }; var c = [1, 2]; var d = function () { return 0; };",
            Mode::Dependence,
        );
        assert!(out.contains("__ceres_wrap(new P())"), "{out}");
        assert!(out.contains("__ceres_wrap({ x: 1 })"), "{out}");
        assert!(out.contains("__ceres_wrap([1, 2])"), "{out}");
        assert!(out.contains("__ceres_wrap(function"), "{out}");
    }

    #[test]
    fn dependence_method_calls_preserve_receiver() {
        let out = instrument("bodies.push(x); grid[i].step();", Mode::Dependence);
        assert!(
            out.contains("__ceres_mcall(bodies, \"push\", \"bodies\", x)"),
            "{out}"
        );
        assert!(
            out.contains("__ceres_mcall(__ceres_getprop(grid, i, \"grid\"), \"step\", null)"),
            "{out}"
        );
    }

    #[test]
    fn dependence_stamps_declared_vars_and_params() {
        let out = instrument(
            "function step(dt) { var com = 0; for (var i = 0; i < 3; i++) { var p = i; } }",
            Mode::Dependence,
        );
        assert!(
            out.contains("__ceres_declvars(\"dt\", \"com\", \"i\", \"p\")"),
            "{out}"
        );
        // Global program stamp.
        assert!(out.contains("__ceres_declvars(\"step\")"), "{out}");
    }

    #[test]
    fn var_initializer_counts_as_write() {
        let out = instrument("function f(b) { var p = b[0]; }", Mode::Dependence);
        assert!(
            out.contains("var p = __ceres_wrvar(\"p\", \"init\", __ceres_getprop(b, 0, \"b\"))"),
            "{out}"
        );
    }

    #[test]
    fn update_expressions() {
        let out = instrument("i++; o.n--; ++arr[k];", Mode::Dependence);
        assert!(out.contains("__ceres_wrvar(\"i\", \"++\"), i++"), "{out}");
        assert!(
            out.contains("__ceres_update_prop(o, \"n\", -1, 0, \"o\")"),
            "{out}"
        );
        assert!(
            out.contains("__ceres_update_prop(arr, k, 1, 1, \"arr\")"),
            "{out}"
        );
    }

    #[test]
    fn typeof_and_delete_survive() {
        let out = instrument("t = typeof undeclared; delete o.p;", Mode::Dependence);
        assert!(out.contains("typeof undeclared"), "{out}");
        assert!(out.contains("delete o.p"), "{out}");
    }

    #[test]
    fn catch_params_are_stamped() {
        let out = instrument("try { f(); } catch (e) { g(e); }", Mode::Dependence);
        assert!(out.contains("catch (e) {"), "{out}");
        assert!(out.contains("__ceres_declvars(\"e\")"), "{out}");
    }

    #[test]
    fn for_in_records_loop_variable_writes() {
        let out = instrument("for (var k in obj) { f(k); }", Mode::Dependence);
        assert!(out.contains("__ceres_wrvar(\"k\", \"forin\")"), "{out}");
        assert!(out.contains("__ceres_iter(1)"), "{out}");
    }

    #[test]
    fn loop_ids_stable_between_modes() {
        let src = "for (var i = 0; i < 3; i++) { while (g()) { h(); } }";
        let (_, loops_a) = instrument_source(src, Mode::LoopProfile).unwrap();
        let (_, loops_b) = instrument_source(src, Mode::Dependence).unwrap();
        let a: Vec<_> = loops_a.iter().map(|l| (l.id, l.kind)).collect();
        let b: Vec<_> = loops_b.iter().map(|l| (l.id, l.kind)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn nested_functions_inside_loops_are_instrumented() {
        let out = instrument(
            "while (a) { arr.forEach(function (x) { s += x.v; }); }",
            Mode::Dependence,
        );
        // The callback body gets access hooks too.
        assert!(out.contains("s += __ceres_wrvar(\"s\", \"+=\","), "{out}");
        assert!(out.contains("__ceres_getprop(x, \"v\", \"x\")"), "{out}");
        assert!(out.contains("__ceres_mcall(arr, \"forEach\""), "{out}");
    }
}
