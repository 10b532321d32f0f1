//! The AST rewriting passes.
//!
//! The rewriter consumes a loop-numbered program and produces a new program
//! with hook calls inserted. It never mutates in place: transformation is a
//! pure `&Stmt -> Stmt` / `&Expr -> Expr` fold, so synthesized nodes are
//! built once and never re-visited (no double instrumentation).

use crate::hooks;
use ceres_ast::ast::*;
use ceres_ast::build;
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
    let rw = Rewriter { mode };
    let mut body = Vec::with_capacity(program.body.len() + 1);
    if mode == Mode::Dependence {
        if let Some(decl) = declvars_stmt(&program.body, &[]) {
            body.push(decl);
        }
    }
    for stmt in &program.body {
        body.push(rw.stmt(stmt));
    }
    Program { body }
}

/// Build a `__ceres_declvars("a", "b", …)` statement for `params` plus the
/// hoisted names of `body`, each once in first-occurrence order. Returns
/// `None` when there is nothing to stamp.
fn declvars_stmt(body: &[Stmt], params: &[String]) -> Option<Stmt> {
    let mut names: Vec<&str> = params.iter().map(String::as_str).collect();
    names.dedup();
    for h in ceres_ast::hoisted(body) {
        if !names.contains(&h.name()) {
            names.push(h.name());
        }
    }
    if names.is_empty() {
        return None;
    }
    let args = names.iter().map(|n| build::str_lit(n)).collect();
    Some(build::expr_stmt(build::call(hooks::DECLVARS, args)))
}

struct Rewriter {
    mode: Mode,
}

impl Rewriter {
    fn tracks_accesses(&self) -> bool {
        self.mode == Mode::Dependence
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&self, s: &Stmt) -> Stmt {
        let kind = match &s.kind {
            StmtKind::Expr(e) => StmtKind::Expr(self.expr(e)),
            StmtKind::VarDecl(ds) => StmtKind::VarDecl(self.var_decls(ds)),
            StmtKind::Func(decl) => StmtKind::Func(FuncDecl {
                name: decl.name.clone(),
                func: self.func(&decl.func),
            }),
            StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(|e| self.expr(e))),
            StmtKind::If { cond, then, alt } => StmtKind::If {
                cond: self.expr(cond),
                then: Box::new(self.stmt(then)),
                alt: alt.as_ref().map(|a| Box::new(self.stmt(a))),
            },
            StmtKind::While {
                loop_id,
                cond,
                body,
            } => {
                return self.wrap_loop(
                    *loop_id,
                    Stmt::new(
                        StmtKind::While {
                            loop_id: *loop_id,
                            cond: self.expr(cond),
                            body: Box::new(self.loop_body(*loop_id, body, None)),
                        },
                        s.span,
                    ),
                );
            }
            StmtKind::DoWhile {
                loop_id,
                body,
                cond,
            } => {
                return self.wrap_loop(
                    *loop_id,
                    Stmt::new(
                        StmtKind::DoWhile {
                            loop_id: *loop_id,
                            body: Box::new(self.loop_body(*loop_id, body, None)),
                            cond: self.expr(cond),
                        },
                        s.span,
                    ),
                );
            }
            StmtKind::For {
                loop_id,
                init,
                cond,
                update,
                body,
            } => {
                let init = init.as_ref().map(|i| match i {
                    ForInit::VarDecl(ds) => ForInit::VarDecl(self.var_decls(ds)),
                    ForInit::Expr(e) => ForInit::Expr(self.for_init_expr(e)),
                });
                return self.wrap_loop(
                    *loop_id,
                    Stmt::new(
                        StmtKind::For {
                            loop_id: *loop_id,
                            init,
                            cond: cond.as_ref().map(|c| self.expr(c)),
                            update: update.as_ref().map(|u| self.expr(u)),
                            body: Box::new(self.loop_body(*loop_id, body, None)),
                        },
                        s.span,
                    ),
                );
            }
            StmtKind::ForIn {
                loop_id,
                decl,
                var,
                object,
                body,
            } => {
                // The loop variable is (re)written each iteration: record it.
                let extra = if self.tracks_accesses() {
                    Some(build::expr_stmt(build::call(
                        hooks::WRVAR,
                        vec![build::str_lit(var), build::str_lit("forin")],
                    )))
                } else {
                    None
                };
                return self.wrap_loop(
                    *loop_id,
                    Stmt::new(
                        StmtKind::ForIn {
                            loop_id: *loop_id,
                            decl: *decl,
                            var: var.clone(),
                            object: self.expr(object),
                            body: Box::new(self.loop_body(*loop_id, body, extra)),
                        },
                        s.span,
                    ),
                );
            }
            StmtKind::Block(ss) => StmtKind::Block(ss.iter().map(|s| self.stmt(s)).collect()),
            StmtKind::Break => StmtKind::Break,
            StmtKind::Continue => StmtKind::Continue,
            StmtKind::Throw(e) => StmtKind::Throw(self.expr(e)),
            StmtKind::Try {
                block,
                catch,
                finally,
            } => StmtKind::Try {
                block: block.iter().map(|s| self.stmt(s)).collect(),
                catch: catch.as_ref().map(|c| {
                    let mut body: Vec<Stmt> = Vec::with_capacity(c.body.len() + 1);
                    if self.tracks_accesses() {
                        // Catch parameters are fresh bindings: stamp them.
                        body.push(build::expr_stmt(build::call(
                            hooks::DECLVARS,
                            vec![build::str_lit(&c.param)],
                        )));
                    }
                    body.extend(c.body.iter().map(|s| self.stmt(s)));
                    CatchClause {
                        param: c.param.clone(),
                        body,
                    }
                }),
                finally: finally
                    .as_ref()
                    .map(|f| f.iter().map(|s| self.stmt(s)).collect()),
            },
            StmtKind::Switch { disc, cases } => StmtKind::Switch {
                disc: self.expr(disc),
                cases: cases
                    .iter()
                    .map(|c| SwitchCase {
                        test: c.test.as_ref().map(|t| self.expr(t)),
                        body: c.body.iter().map(|s| self.stmt(s)).collect(),
                    })
                    .collect(),
            },
            StmtKind::Empty => StmtKind::Empty,
        };
        Stmt::new(kind, s.span)
    }

    fn var_decls(&self, ds: &[VarDeclarator]) -> Vec<VarDeclarator> {
        ds.iter()
            .map(|d| {
                let init = d.init.as_ref().map(|e| {
                    let e = self.expr(e);
                    if self.tracks_accesses() {
                        // `var p = __ceres_wrvar("p", "init", e)` — a write
                        // to `p` (Fig. 6's line-7 warning comes from
                        // exactly this case), with the value observed.
                        build::call(
                            hooks::WRVAR,
                            vec![build::str_lit(&d.name), build::str_lit("init"), e],
                        )
                    } else {
                        e
                    }
                });
                VarDeclarator {
                    name: d.name.clone(),
                    init,
                    span: d.span,
                }
            })
            .collect()
    }

    /// `for (k = 0; …)` initializers are induction-variable setup: record
    /// the write with op "init" so the classifier doesn't mistake loop
    /// bookkeeping for a cross-iteration conflict.
    fn for_init_expr(&self, e: &Expr) -> Expr {
        if !self.tracks_accesses() {
            return self.expr(e);
        }
        match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Assign,
                target,
                value,
            } if matches!(target.kind, ExprKind::Ident(_)) => {
                let ExprKind::Ident(name) = &target.kind else {
                    unreachable!()
                };
                Expr::new(
                    ExprKind::Assign {
                        op: AssignOp::Assign,
                        target: target.clone(),
                        value: Box::new(build::call(
                            hooks::WRVAR,
                            vec![
                                build::str_lit(name),
                                build::str_lit("init"),
                                self.expr(value),
                            ],
                        )),
                    },
                    e.span,
                )
            }
            ExprKind::Seq(parts) => {
                build::seq(parts.iter().map(|p| self.for_init_expr(p)).collect())
            }
            _ => self.expr(e),
        }
    }

    fn func(&self, f: &Func) -> Func {
        let mut body: Vec<Stmt> = Vec::with_capacity(f.body.len() + 1);
        if self.tracks_accesses() {
            if let Some(decl) = declvars_stmt(&f.body, &f.params) {
                body.push(decl);
            }
        }
        body.extend(f.body.iter().map(|s| self.stmt(s)));
        Func {
            params: f.params.clone(),
            body,
            span: f.span,
        }
    }

    /// Prefix the (block) body with the per-iteration hook, plus an optional
    /// extra statement (used by for-in's loop-variable write).
    fn loop_body(&self, id: LoopId, body: &Stmt, extra: Option<Stmt>) -> Stmt {
        let transformed = self.stmt(body);
        if self.mode == Mode::Lightweight {
            return transformed;
        }
        let mut stmts = vec![build::expr_stmt(build::call(
            hooks::ITER,
            vec![build::num(id.0 as f64)],
        ))];
        if let Some(e) = extra {
            stmts.push(e);
        }
        match transformed.kind {
            StmtKind::Block(inner) => stmts.extend(inner),
            other => stmts.push(Stmt::new(other, transformed.span)),
        }
        build::block(stmts)
    }

    /// Wrap an instrumented loop statement with enter/exit hooks:
    ///
    /// ```text
    /// enter(); try { <loop> } finally { exit(); }
    /// ```
    fn wrap_loop(&self, id: LoopId, loop_stmt: Stmt) -> Stmt {
        let (enter, exit) = match self.mode {
            Mode::Lightweight => (
                build::call(hooks::LW_ENTER, vec![]),
                build::call(hooks::LW_EXIT, vec![]),
            ),
            Mode::LoopProfile | Mode::Dependence => (
                build::call(hooks::LOOP_ENTER, vec![build::num(id.0 as f64)]),
                build::call(hooks::LOOP_EXIT, vec![build::num(id.0 as f64)]),
            ),
        };
        build::block(vec![
            build::expr_stmt(enter),
            build::try_finally(vec![loop_stmt], vec![build::expr_stmt(exit)]),
        ])
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&self, e: &Expr) -> Expr {
        if !self.tracks_accesses() {
            // Lightweight/loop modes only need function bodies transformed
            // (they may contain loops); everything else is structural.
            return self.expr_structural(e);
        }
        self.expr_dependence(e)
    }

    /// Recurse into subexpressions without adding access hooks (still
    /// transforms nested function bodies, which may contain loops).
    fn expr_structural(&self, e: &Expr) -> Expr {
        let kind = match &e.kind {
            ExprKind::Func { name, func } => ExprKind::Func {
                name: name.clone(),
                func: self.func(func),
            },
            ExprKind::Array(els) => ExprKind::Array(els.iter().map(|x| self.expr(x)).collect()),
            ExprKind::Object(props) => ExprKind::Object(
                props
                    .iter()
                    .map(|(k, v)| (k.clone(), self.expr(v)))
                    .collect(),
            ),
            ExprKind::Unary { op, expr } => ExprKind::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            ExprKind::Update { op, prefix, target } => ExprKind::Update {
                op: *op,
                prefix: *prefix,
                target: Box::new(self.expr(target)),
            },
            ExprKind::Binary { op, left, right } => ExprKind::Binary {
                op: *op,
                left: Box::new(self.expr(left)),
                right: Box::new(self.expr(right)),
            },
            ExprKind::Logical { op, left, right } => ExprKind::Logical {
                op: *op,
                left: Box::new(self.expr(left)),
                right: Box::new(self.expr(right)),
            },
            ExprKind::Assign { op, target, value } => ExprKind::Assign {
                op: *op,
                target: Box::new(self.expr(target)),
                value: Box::new(self.expr(value)),
            },
            ExprKind::Cond { cond, then, alt } => ExprKind::Cond {
                cond: Box::new(self.expr(cond)),
                then: Box::new(self.expr(then)),
                alt: Box::new(self.expr(alt)),
            },
            ExprKind::Call { callee, args } => ExprKind::Call {
                callee: Box::new(self.expr(callee)),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            ExprKind::New { callee, args } => ExprKind::New {
                callee: Box::new(self.expr(callee)),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            ExprKind::Member { object, prop } => ExprKind::Member {
                object: Box::new(self.expr(object)),
                prop: prop.clone(),
            },
            ExprKind::Index { object, index } => ExprKind::Index {
                object: Box::new(self.expr(object)),
                index: Box::new(self.expr(index)),
            },
            ExprKind::Seq(es) => ExprKind::Seq(es.iter().map(|x| self.expr(x)).collect()),
            other => other.clone(),
        };
        Expr::new(kind, e.span)
    }

    /// Full dependence-mode expression rewrite.
    fn expr_dependence(&self, e: &Expr) -> Expr {
        match &e.kind {
            // Reads of properties. The base-variable name (third argument)
            // lets reports name the subject the way the paper does
            // ("reads of properties x, y, m of com").
            ExprKind::Member { object, prop } => {
                let mut args = vec![self.expr(object), build::str_lit(prop)];
                if let Some(b) = base_var(object) {
                    args.push(build::str_lit(&b));
                }
                build::call(hooks::GETPROP, args)
            }
            ExprKind::Index { object, index } => {
                let mut args = vec![self.expr(object), self.expr(index)];
                if let Some(b) = base_var(object) {
                    args.push(build::str_lit(&b));
                }
                build::call(hooks::GETPROP, args)
            }
            // Method calls keep their receiver via __ceres_mcall. The base
            // slot is always present (null when the base is not a variable)
            // because the call arguments follow variadically.
            ExprKind::Call { callee, args } => match &callee.kind {
                ExprKind::Member { object, prop } => {
                    let base = match base_var(object) {
                        Some(b) => build::str_lit(&b),
                        None => Expr::synth(ExprKind::Null),
                    };
                    let mut hook_args = vec![self.expr(object), build::str_lit(prop), base];
                    hook_args.extend(args.iter().map(|a| self.expr(a)));
                    build::call(hooks::MCALL, hook_args)
                }
                ExprKind::Index { object, index } => {
                    let base = match base_var(object) {
                        Some(b) => build::str_lit(&b),
                        None => Expr::synth(ExprKind::Null),
                    };
                    let mut hook_args = vec![self.expr(object), self.expr(index), base];
                    hook_args.extend(args.iter().map(|a| self.expr(a)));
                    build::call(hooks::MCALL, hook_args)
                }
                _ => Expr::new(
                    ExprKind::Call {
                        callee: Box::new(self.expr(callee)),
                        args: args.iter().map(|a| self.expr(a)).collect(),
                    },
                    e.span,
                ),
            },
            // Object creation sites get wrapped (the paper's Proxy).
            ExprKind::New { callee, args } => build::call(
                hooks::WRAP,
                vec![Expr::new(
                    ExprKind::New {
                        callee: Box::new(self.expr(callee)),
                        args: args.iter().map(|a| self.expr(a)).collect(),
                    },
                    e.span,
                )],
            ),
            ExprKind::Object(props) => build::call(
                hooks::WRAP,
                vec![Expr::new(
                    ExprKind::Object(
                        props
                            .iter()
                            .map(|(k, v)| (k.clone(), self.expr(v)))
                            .collect(),
                    ),
                    e.span,
                )],
            ),
            ExprKind::Array(els) => build::call(
                hooks::WRAP,
                vec![Expr::new(
                    ExprKind::Array(els.iter().map(|x| self.expr(x)).collect()),
                    e.span,
                )],
            ),
            ExprKind::Func { name, func } => build::call(
                hooks::WRAP,
                vec![Expr::new(
                    ExprKind::Func {
                        name: name.clone(),
                        func: self.func(func),
                    },
                    e.span,
                )],
            ),
            // Assignments.
            ExprKind::Assign { op, target, value } => self.assign(*op, target, value, e),
            // Increment/decrement.
            ExprKind::Update { op, prefix, target } => {
                let delta = match op {
                    UpdateOp::Inc => 1.0,
                    UpdateOp::Dec => -1.0,
                };
                match &target.kind {
                    ExprKind::Ident(name) => build::seq(vec![
                        build::call(
                            hooks::WRVAR,
                            vec![
                                build::str_lit(name),
                                build::str_lit(match op {
                                    UpdateOp::Inc => "++",
                                    UpdateOp::Dec => "--",
                                }),
                            ],
                        ),
                        Expr::new(
                            ExprKind::Update {
                                op: *op,
                                prefix: *prefix,
                                target: target.clone(),
                            },
                            e.span,
                        ),
                    ]),
                    ExprKind::Member { object, prop } => self.update_prop(
                        self.expr(object),
                        build::str_lit(prop),
                        delta,
                        *prefix,
                        base_var(object),
                    ),
                    ExprKind::Index { object, index } => self.update_prop(
                        self.expr(object),
                        self.expr(index),
                        delta,
                        *prefix,
                        base_var(object),
                    ),
                    _ => self.expr_structural(e),
                }
            }
            // `delete o.p` must keep the member syntactically intact.
            ExprKind::Unary {
                op: UnaryOp::Delete,
                expr: inner,
            } => {
                let inner = match &inner.kind {
                    ExprKind::Member { object, prop } => Expr::new(
                        ExprKind::Member {
                            object: Box::new(self.expr(object)),
                            prop: prop.clone(),
                        },
                        inner.span,
                    ),
                    ExprKind::Index { object, index } => Expr::new(
                        ExprKind::Index {
                            object: Box::new(self.expr(object)),
                            index: Box::new(self.expr(index)),
                        },
                        inner.span,
                    ),
                    _ => self.expr(inner),
                };
                Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::Delete,
                        expr: Box::new(inner),
                    },
                    e.span,
                )
            }
            // `typeof x` tolerates undeclared names: leave the operand raw.
            ExprKind::Unary {
                op: UnaryOp::TypeOf,
                expr: inner,
            } if matches!(inner.kind, ExprKind::Ident(_)) => e.clone(),
            _ => self.expr_structural(e),
        }
    }

    fn assign(&self, op: AssignOp, target: &Expr, value: &Expr, whole: &Expr) -> Expr {
        match &target.kind {
            ExprKind::Ident(name) => {
                // `x op= __ceres_wrvar("x", "op", v)` — the hook records the
                // write (and observes the value's runtime type for the
                // polymorphism report), then passes v through unchanged.
                Expr::new(
                    ExprKind::Assign {
                        op,
                        target: Box::new(target.clone()),
                        value: Box::new(build::call(
                            hooks::WRVAR,
                            vec![
                                build::str_lit(name),
                                build::str_lit(op.as_str()),
                                self.expr(value),
                            ],
                        )),
                    },
                    whole.span,
                )
            }
            ExprKind::Member { object, prop } => self.prop_assign(
                op,
                self.expr(object),
                build::str_lit(prop),
                self.expr(value),
                base_var(object),
            ),
            ExprKind::Index { object, index } => self.prop_assign(
                op,
                self.expr(object),
                self.expr(index),
                self.expr(value),
                base_var(object),
            ),
            _ => self.expr_structural(whole),
        }
    }

    fn prop_assign(
        &self,
        op: AssignOp,
        obj: Expr,
        key: Expr,
        value: Expr,
        base: Option<String>,
    ) -> Expr {
        let mut args = match op.binary() {
            None => vec![obj, key, value],
            Some(bop) => vec![obj, key, build::str_lit(bop.as_str()), value],
        };
        if let Some(b) = &base {
            args.push(build::str_lit(b));
        }
        build::call(
            if op.binary().is_none() {
                hooks::SETPROP
            } else {
                hooks::SETPROP2
            },
            args,
        )
    }

    fn update_prop(
        &self,
        obj: Expr,
        key: Expr,
        delta: f64,
        prefix: bool,
        base: Option<String>,
    ) -> Expr {
        let mut args = vec![
            obj,
            key,
            build::num(delta),
            build::num(if prefix { 1.0 } else { 0.0 }),
        ];
        if let Some(b) = &base {
            args.push(build::str_lit(b));
        }
        build::call(hooks::UPDATE_PROP, args)
    }
}

/// If the base expression of a property access is a plain variable, return
/// its name (used for the binding-stamp refinement of type (b) warnings —
/// see DESIGN.md §4).
fn base_var(object: &Expr) -> Option<String> {
    match &object.kind {
        ExprKind::Ident(name) => Some(name.clone()),
        _ => None,
    }
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
