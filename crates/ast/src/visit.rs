//! AST walkers.
//!
//! [`Visit`] (read-only) and [`VisitMut`] walk the tree in source order,
//! calling overridable hooks before descending. Both are generated from one
//! definition, so they have the same hooks and visit children in the same
//! order. Default methods perform the full traversal; an implementation
//! overrides only what it needs and calls the matching free function to
//! continue: `walk_*` for [`Visit`], `walk_*_mut` for [`VisitMut`].
//!
//! Loop numbering, the parser's span stripping, the loop gates' find and
//! replace and the instrumentation rewriter use [`VisitMut`]; the rewriter
//! runs over a clone of the numbered program and rewrites each node after
//! its children. The loop-shape scan, the static loop features, the
//! compiler's hook-namespace scan and [`hoisted`] use [`Visit`].
#![deny(missing_docs)]

use crate::ast::*;

/// Expands to a visitor trait and its four `walk_*` functions. `mut`
/// selects the mutable flavour; a lifetime parameter lets a read-only
/// visitor keep references into the tree it walks.
macro_rules! visitor {
    (
        $(#[$doc:meta])*
        $Visit:ident $(<$lt:lifetime>)? $($mut_:ident)?:
        $walk_program:ident, $walk_func:ident, $walk_stmt:ident, $walk_expr:ident
    ) => {
        $(#[$doc])*
        pub trait $Visit$(<$lt>)? {
            /// Visit a whole program.
            fn visit_program(&mut self, program: &$($lt)? $($mut_)? Program) {
                $walk_program(self, program);
            }

            /// Visit one statement.
            fn visit_stmt(&mut self, stmt: &$($lt)? $($mut_)? Stmt) {
                $walk_stmt(self, stmt);
            }

            /// Visit one expression.
            fn visit_expr(&mut self, expr: &$($lt)? $($mut_)? Expr) {
                $walk_expr(self, expr);
            }

            /// Visit a function's body (declaration or expression).
            fn visit_func(&mut self, func: &$($lt)? $($mut_)? Func) {
                $walk_func(self, func);
            }
        }

        /// Walk all top-level statements.
        pub fn $walk_program<$($lt,)? V: $Visit$(<$lt>)? + ?Sized>(
            v: &mut V,
            program: &$($lt)? $($mut_)? Program,
        ) {
            for stmt in &$($mut_)? program.body {
                v.visit_stmt(stmt);
            }
        }

        /// Walk a function body.
        pub fn $walk_func<$($lt,)? V: $Visit$(<$lt>)? + ?Sized>(
            v: &mut V,
            func: &$($lt)? $($mut_)? Func,
        ) {
            for stmt in &$($mut_)? func.body {
                v.visit_stmt(stmt);
            }
        }

        /// Walk the children of a statement.
        pub fn $walk_stmt<$($lt,)? V: $Visit$(<$lt>)? + ?Sized>(
            v: &mut V,
            stmt: &$($lt)? $($mut_)? Stmt,
        ) {
            match &$($mut_)? stmt.kind {
                StmtKind::Expr(e) => v.visit_expr(e),
                StmtKind::VarDecl(decls) => {
                    for d in decls {
                        if let Some(init) = &$($mut_)? d.init {
                            v.visit_expr(init);
                        }
                    }
                }
                StmtKind::Func(decl) => v.visit_func(&$($mut_)? decl.func),
                StmtKind::Return(Some(e)) => v.visit_expr(e),
                StmtKind::Return(None) => {}
                StmtKind::If { cond, then, alt } => {
                    v.visit_expr(cond);
                    v.visit_stmt(then);
                    if let Some(alt) = alt {
                        v.visit_stmt(alt);
                    }
                }
                StmtKind::While { cond, body, .. } => {
                    v.visit_expr(cond);
                    v.visit_stmt(body);
                }
                StmtKind::DoWhile { body, cond, .. } => {
                    v.visit_stmt(body);
                    v.visit_expr(cond);
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
                                if let Some(e) = &$($mut_)? d.init {
                                    v.visit_expr(e);
                                }
                            }
                        }
                        Some(ForInit::Expr(e)) => v.visit_expr(e),
                        None => {}
                    }
                    if let Some(c) = cond {
                        v.visit_expr(c);
                    }
                    if let Some(u) = update {
                        v.visit_expr(u);
                    }
                    v.visit_stmt(body);
                }
                StmtKind::ForIn { object, body, .. } => {
                    v.visit_expr(object);
                    v.visit_stmt(body);
                }
                StmtKind::Block(stmts) => {
                    for s in stmts {
                        v.visit_stmt(s);
                    }
                }
                StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
                StmtKind::Throw(e) => v.visit_expr(e),
                StmtKind::Try {
                    block,
                    catch,
                    finally,
                } => {
                    for s in block {
                        v.visit_stmt(s);
                    }
                    if let Some(c) = catch {
                        for s in &$($mut_)? c.body {
                            v.visit_stmt(s);
                        }
                    }
                    if let Some(f) = finally {
                        for s in f {
                            v.visit_stmt(s);
                        }
                    }
                }
                StmtKind::Switch { disc, cases } => {
                    v.visit_expr(disc);
                    for case in cases {
                        if let Some(t) = &$($mut_)? case.test {
                            v.visit_expr(t);
                        }
                        for s in &$($mut_)? case.body {
                            v.visit_stmt(s);
                        }
                    }
                }
            }
        }

        /// Walk the children of an expression.
        pub fn $walk_expr<$($lt,)? V: $Visit$(<$lt>)? + ?Sized>(
            v: &mut V,
            expr: &$($lt)? $($mut_)? Expr,
        ) {
            match &$($mut_)? expr.kind {
                ExprKind::Num(_)
                | ExprKind::Str(_)
                | ExprKind::Bool(_)
                | ExprKind::Null
                | ExprKind::Undefined
                | ExprKind::This
                | ExprKind::Ident(_) => {}
                ExprKind::Array(elems) => {
                    for e in elems {
                        v.visit_expr(e);
                    }
                }
                ExprKind::Object(props) => {
                    for (_, e) in props {
                        v.visit_expr(e);
                    }
                }
                ExprKind::Func { func, .. } => v.visit_func(func),
                ExprKind::Unary { expr, .. } => v.visit_expr(expr),
                ExprKind::Update { target, .. } => v.visit_expr(target),
                ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
                    v.visit_expr(left);
                    v.visit_expr(right);
                }
                ExprKind::Assign { target, value, .. } => {
                    v.visit_expr(target);
                    v.visit_expr(value);
                }
                ExprKind::Cond { cond, then, alt } => {
                    v.visit_expr(cond);
                    v.visit_expr(then);
                    v.visit_expr(alt);
                }
                ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
                    v.visit_expr(callee);
                    for a in args {
                        v.visit_expr(a);
                    }
                }
                ExprKind::Member { object, .. } => v.visit_expr(object),
                ExprKind::Index { object, index } => {
                    v.visit_expr(object);
                    v.visit_expr(index);
                }
                ExprKind::Seq(exprs) => {
                    for e in exprs {
                        v.visit_expr(e);
                    }
                }
            }
        }
    };
}

visitor! {
    /// A read-only visitor over the AST. The `'ast` lifetime lets an
    /// implementation keep references to the nodes it visits.
    ///
    /// Every hook defaults to "just walk the children". Overrides that still
    /// want to descend must call the corresponding `walk_*` function.
    Visit<'ast>: walk_program, walk_func, walk_stmt, walk_expr
}

visitor! {
    /// A mutable visitor over the AST.
    ///
    /// Every hook defaults to "just walk the children". Overrides that still
    /// want to descend must call the corresponding `walk_*_mut` function.
    VisitMut mut: walk_program_mut, walk_func_mut, walk_stmt_mut, walk_expr_mut
}

impl StmtKind {
    /// True for `if` and `switch`: the statements that pick which child
    /// runs.
    pub fn is_branch(&self) -> bool {
        matches!(self, StmtKind::If { .. } | StmtKind::Switch { .. })
    }

    /// True for the statements an unlabelled `break` inside them leaves:
    /// the four loops and `switch`.
    pub fn is_break_target(&self) -> bool {
        self.is_loop() || matches!(self, StmtKind::Switch { .. })
    }
}

/// One declaration a function body (or the program) hoists to its top.
#[derive(Debug, Clone, Copy)]
pub enum Hoisted<'ast> {
    /// A `var` name: from a `var` statement, a `for (var …; …)` header or
    /// a `for (var k in …)` header.
    Var(&'ast str),
    /// A function declaration.
    Func(&'ast FuncDecl),
}

impl<'ast> Hoisted<'ast> {
    /// The name the declaration binds.
    pub fn name(&self) -> &'ast str {
        match self {
            Hoisted::Var(name) => name,
            Hoisted::Func(decl) => &decl.name,
        }
    }
}

/// The `var` names and function declarations `body` hoists, in source
/// order and with repeats kept. Nested functions are not entered: they
/// hoist into their own scope.
pub fn hoisted(body: &[Stmt]) -> Vec<Hoisted<'_>> {
    struct Collect<'ast>(Vec<Hoisted<'ast>>);
    impl<'ast> Visit<'ast> for Collect<'ast> {
        fn visit_stmt(&mut self, stmt: &'ast Stmt) {
            match &stmt.kind {
                StmtKind::VarDecl(ds)
                | StmtKind::For {
                    init: Some(ForInit::VarDecl(ds)),
                    ..
                } => self.0.extend(ds.iter().map(|d| Hoisted::Var(&d.name))),
                StmtKind::ForIn {
                    decl: true, var, ..
                } => self.0.push(Hoisted::Var(var)),
                StmtKind::Func(decl) => return self.0.push(Hoisted::Func(decl)),
                _ => {}
            }
            walk_stmt(self, stmt);
        }

        // An expression declares nothing here; a function expression has
        // its own scope.
        fn visit_expr(&mut self, _: &'ast Expr) {}
    }
    let mut collect = Collect(Vec::new());
    for stmt in body {
        collect.visit_stmt(stmt);
    }
    collect.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    /// Ident names in visit order, through either walker, to check the
    /// traversal reaches every corner.
    #[derive(Default)]
    struct IdentOrder(Vec<String>);

    impl<'ast> Visit<'ast> for IdentOrder {
        fn visit_expr(&mut self, expr: &'ast Expr) {
            if let ExprKind::Ident(name) = &expr.kind {
                self.0.push(name.clone());
            }
            walk_expr(self, expr);
        }
    }

    impl VisitMut for IdentOrder {
        fn visit_expr(&mut self, expr: &mut Expr) {
            if let ExprKind::Ident(name) = &expr.kind {
                self.0.push(name.clone());
            }
            walk_expr_mut(self, expr);
        }
    }

    /// Count the idents both walkers reach, checking they reach the same
    /// ones in the same order.
    fn count_idents(program: &mut Program) -> usize {
        let mut read = IdentOrder::default();
        Visit::visit_program(&mut read, program);
        let mut write = IdentOrder::default();
        VisitMut::visit_program(&mut write, program);
        assert_eq!(read.0, write.0, "walkers disagree on child order");
        read.0.len()
    }

    fn ident(name: &str) -> Expr {
        Expr::synth(ExprKind::Ident(name.into()))
    }

    #[test]
    fn visits_nested_expressions() {
        // if (a) { b(c, d ? e : f); } else { var g = h; }
        let mut program = Program {
            body: vec![Stmt::new(
                StmtKind::If {
                    cond: ident("a"),
                    then: Box::new(Stmt::synth(StmtKind::Block(vec![Stmt::synth(
                        StmtKind::Expr(Expr::synth(ExprKind::Call {
                            callee: Box::new(ident("b")),
                            args: vec![
                                ident("c"),
                                Expr::synth(ExprKind::Cond {
                                    cond: Box::new(ident("d")),
                                    then: Box::new(ident("e")),
                                    alt: Box::new(ident("f")),
                                }),
                            ],
                        })),
                    )]))),
                    alt: Some(Box::new(Stmt::synth(StmtKind::VarDecl(vec![
                        VarDeclarator {
                            name: "g".into(),
                            init: Some(ident("h")),
                            span: Span::SYNTHETIC,
                        },
                    ])))),
                },
                Span::new(0, 1, 1),
            )],
        };
        // a, b, c, d, e, f, h — `g` is a declarator name, not an Ident expr.
        assert_eq!(count_idents(&mut program), 7);
    }

    #[test]
    fn visits_loops_and_functions() {
        // while (x) { function f(p) { return p + y; } }
        let mut program = Program {
            body: vec![Stmt::synth(StmtKind::While {
                loop_id: LoopId::UNASSIGNED,
                cond: ident("x"),
                body: Box::new(Stmt::synth(StmtKind::Func(FuncDecl {
                    name: "f".into(),
                    func: Func {
                        params: vec!["p".into()],
                        body: vec![Stmt::synth(StmtKind::Return(Some(Expr::synth(
                            ExprKind::Binary {
                                op: BinaryOp::Add,
                                left: Box::new(ident("p")),
                                right: Box::new(ident("y")),
                            },
                        ))))],
                        span: Span::SYNTHETIC,
                    },
                }))),
            })],
        };
        assert_eq!(count_idents(&mut program), 3); // x, p, y
    }

    #[test]
    fn visits_try_switch_forin() {
        let mut program = Program {
            body: vec![
                Stmt::synth(StmtKind::Try {
                    block: vec![Stmt::synth(StmtKind::Throw(ident("t1")))],
                    catch: Some(CatchClause {
                        param: "e".into(),
                        body: vec![Stmt::synth(StmtKind::Expr(ident("t2")))],
                    }),
                    finally: Some(vec![Stmt::synth(StmtKind::Expr(ident("t3")))]),
                }),
                Stmt::synth(StmtKind::Switch {
                    disc: ident("s"),
                    cases: vec![SwitchCase {
                        test: Some(ident("c1")),
                        body: vec![Stmt::synth(StmtKind::Break)],
                    }],
                }),
                Stmt::synth(StmtKind::ForIn {
                    loop_id: LoopId::UNASSIGNED,
                    decl: true,
                    var: "k".into(),
                    object: ident("o"),
                    body: Box::new(Stmt::synth(StmtKind::Continue)),
                }),
            ],
        };
        assert_eq!(count_idents(&mut program), 6); // t1 t2 t3 s c1 o
    }
}
