//! The shape of one counted `for` loop, shared by both loop gates.
//!
//! [`LoopShape::of`] scans a `for` statement's header and body once and
//! reports the induction variable, the strict counted bound, and every
//! [`Hazard`] in the order the scan reaches it. [`crate::refactor`] and
//! [`crate::parallelize`] each refuse on the first hazard in their own set;
//! `replace_loop` is the find and replace both use to swap the target loop
//! for its rewrite.
#![deny(missing_docs)]

use ceres_ast::ast::*;
use ceres_ast::visit::{walk_expr, walk_func, walk_stmt, walk_stmt_mut, Visit, VisitMut};

/// Identifiers whose appearance inside a loop makes it impure: their effects
/// are per-worker and the fork-join merge cannot replay them. (`random`
/// catches `Math.random`; `document`/`window` catch DOM access that the
/// difficulty classifier should already have excluded.)
pub const IMPURE_NAMES: &[&str] = &[
    "console",
    "setTimeout",
    "setInterval",
    "clearTimeout",
    "clearInterval",
    "requestAnimationFrame",
    "addEventListener",
    "performance",
    "Date",
    "random",
    "document",
    "window",
    "alert",
];

/// One reason a loop's iterations may not run apart from each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hazard<'ast> {
    /// The header has no induction variable under the relaxed rule of
    /// [`LoopShape::induction`]. Always the last hazard: the body is not
    /// scanned after it.
    NonCanonicalHeader,
    /// A `break` that leaves this loop (not a nested loop or `switch`).
    Break,
    /// A `continue` of this loop (not of a nested loop).
    Continue,
    /// A `return` from the function around the loop. A nested function's
    /// `return` is its own.
    Return,
    /// An assignment or update of the induction variable, or its use as a
    /// `for-in` variable, anywhere in the loop including nested functions.
    /// The header's own update clause is not one.
    WritesInduction(&'ast str),
    /// An identifier or property name from [`IMPURE_NAMES`].
    Impure(&'ast str),
}

/// What one scan of a `for` statement found.
#[derive(Debug, Clone)]
pub struct LoopShape<'ast> {
    /// The induction variable under the relaxed header rule: the update
    /// clause is `i++`, `i--`, `++i`, `--i` or `i op= e` on a plain name,
    /// the init clause (if any) is `var i = e` or `i = e` on the same name,
    /// and there is a condition. `None` when the header breaks the rule.
    pub induction: Option<&'ast str>,
    /// `Some(N)` when the header is exactly `var i = 0` (or `i = 0`);
    /// `i < N`; `i++` (or `++i`, `i += 1`).
    pub bound: Option<&'ast Expr>,
    /// Every hazard, in scan order: header init, update, then condition,
    /// then the body in source order. A `return`'s operand is scanned
    /// before the `return` itself.
    pub hazards: Vec<Hazard<'ast>>,
}

impl<'ast> LoopShape<'ast> {
    /// Scan the parts of one `for` statement.
    pub fn of(
        init: &'ast Option<ForInit>,
        cond: &'ast Option<Expr>,
        update: &'ast Option<Expr>,
        body: &'ast Stmt,
    ) -> Self {
        let mut scan = Scan {
            induction: "",
            hazards: Vec::new(),
            fns: 0,
            loops: 0,
            break_targets: 0,
        };
        let induction = scan.header(init, cond, update);
        match induction {
            Some(_) => scan.visit_stmt(body),
            None => scan.hazards.push(Hazard::NonCanonicalHeader),
        }
        LoopShape {
            induction,
            bound: counted_bound(init, cond, update),
            hazards: scan.hazards,
        }
    }
}

/// Clone `program` and replace the loop numbered `target` with what
/// `rewrite` makes of it. Returns `missing` when no loop has that id, and
/// `rewrite`'s error when it refuses.
pub(crate) fn replace_loop<E>(
    program: &Program,
    target: LoopId,
    missing: E,
    rewrite: impl FnOnce(&Stmt) -> Result<Stmt, E>,
) -> Result<Program, E> {
    struct Replace<F, E> {
        target: LoopId,
        rewrite: Option<F>,
        result: Result<(), E>,
    }
    impl<E, F: FnOnce(&Stmt) -> Result<Stmt, E>> VisitMut for Replace<F, E> {
        fn visit_stmt(&mut self, stmt: &mut Stmt) {
            if stmt.kind.loop_id() != Some(self.target) {
                return walk_stmt_mut(self, stmt);
            }
            if let Some(rewrite) = self.rewrite.take() {
                self.result = rewrite(stmt).map(|new| *stmt = new);
            }
        }
    }
    let mut program = program.clone();
    let mut replace = Replace {
        target,
        rewrite: Some(rewrite),
        result: Err(missing),
    };
    replace.visit_program(&mut program);
    replace.result.map(|()| program)
}

fn ident(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Ident(name) => Some(name),
        _ => None,
    }
}

fn is_num(e: &Expr, want: f64) -> bool {
    matches!(e.kind, ExprKind::Num(n) if n == want)
}

/// The `N` of a header that is exactly `i = 0; i < N; i++`.
fn counted_bound<'ast>(
    init: &'ast Option<ForInit>,
    cond: &'ast Option<Expr>,
    update: &'ast Option<Expr>,
) -> Option<&'ast Expr> {
    let var = match init.as_ref()? {
        ForInit::VarDecl(ds) if ds.len() == 1 && is_num(ds[0].init.as_ref()?, 0.0) => {
            ds[0].name.as_str()
        }
        ForInit::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: AssignOp::Assign,
                    target,
                    value,
                },
            ..
        }) if is_num(value, 0.0) => ident(target)?,
        _ => return None,
    };
    let ExprKind::Binary {
        op: BinaryOp::Lt,
        left,
        right,
    } = &cond.as_ref()?.kind
    else {
        return None;
    };
    let steps_by_one = match &update.as_ref()?.kind {
        ExprKind::Update {
            op: UpdateOp::Inc,
            target,
            ..
        } => ident(target) == Some(var),
        ExprKind::Assign {
            op: AssignOp::Add,
            target,
            value,
        } => ident(target) == Some(var) && is_num(value, 1.0),
        _ => false,
    };
    (ident(left) == Some(var) && steps_by_one).then_some(&**right)
}

/// The scan behind [`LoopShape::of`].
struct Scan<'ast> {
    /// The name whose writes are hazards ("" before the header names one).
    induction: &'ast str,
    hazards: Vec<Hazard<'ast>>,
    /// Functions nested inside the loop around the current node.
    fns: u32,
    /// Loops nested inside the loop around the current statement.
    loops: u32,
    /// Loops and `switch`es nested inside the loop around the current
    /// statement.
    break_targets: u32,
}

impl<'ast> Scan<'ast> {
    /// Scan the header in init → update → condition order and return the
    /// induction variable, or `None` at the first clause that breaks the
    /// relaxed rule.
    fn header(
        &mut self,
        init: &'ast Option<ForInit>,
        cond: &'ast Option<Expr>,
        update: &'ast Option<Expr>,
    ) -> Option<&'ast str> {
        let init_var = match init {
            None => None,
            Some(ForInit::VarDecl(ds)) if ds.len() == 1 => {
                self.scan_as(&ds[0].name, ds[0].init.as_ref());
                Some(ds[0].name.as_str())
            }
            Some(ForInit::Expr(Expr {
                kind:
                    ExprKind::Assign {
                        op: AssignOp::Assign,
                        target,
                        value,
                    },
                ..
            })) => {
                let name = ident(target)?;
                self.scan_as(name, Some(value));
                Some(name)
            }
            Some(_) => return None,
        };
        let var = match &update.as_ref()?.kind {
            ExprKind::Update { target, .. } => ident(target)?,
            // `i += step` / `i = i + step`: the step may read `i` but not
            // write it again.
            ExprKind::Assign { target, value, .. } => {
                let name = ident(target)?;
                self.scan_as(name, Some(value));
                name
            }
            _ => return None,
        };
        if init_var.is_some_and(|v| v != var) {
            return None;
        }
        self.scan_as(var, Some(cond.as_ref()?));
        Some(var)
    }

    fn scan_as(&mut self, induction: &'ast str, expr: Option<&'ast Expr>) {
        self.induction = induction;
        if let Some(e) = expr {
            self.visit_expr(e);
        }
    }
}

impl<'ast> Visit<'ast> for Scan<'ast> {
    fn visit_stmt(&mut self, stmt: &'ast Stmt) {
        let own = self.fns == 0;
        match &stmt.kind {
            StmtKind::Break if own && self.break_targets == 0 => self.hazards.push(Hazard::Break),
            StmtKind::Continue if own && self.loops == 0 => self.hazards.push(Hazard::Continue),
            StmtKind::ForIn { var, .. } if var == self.induction => {
                self.hazards.push(Hazard::WritesInduction(var))
            }
            _ => {}
        }
        let is_loop = u32::from(stmt.kind.is_loop());
        let is_target = u32::from(stmt.kind.is_break_target());
        self.loops += is_loop;
        self.break_targets += is_target;
        walk_stmt(self, stmt);
        self.loops -= is_loop;
        self.break_targets -= is_target;
        if own && matches!(stmt.kind, StmtKind::Return(_)) {
            self.hazards.push(Hazard::Return);
        }
    }

    fn visit_expr(&mut self, expr: &'ast Expr) {
        match &expr.kind {
            ExprKind::Ident(name) | ExprKind::Member { prop: name, .. }
                if IMPURE_NAMES.contains(&name.as_str()) =>
            {
                self.hazards.push(Hazard::Impure(name))
            }
            ExprKind::Assign { target, .. } | ExprKind::Update { target, .. }
                if ident(target) == Some(self.induction) =>
            {
                self.hazards.push(Hazard::WritesInduction(self.induction))
            }
            _ => {}
        }
        walk_expr(self, expr);
    }

    fn visit_func(&mut self, func: &'ast Func) {
        self.fns += 1;
        walk_func(self, func);
        self.fns -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_parser::parse_and_number;

    /// The shape of the first statement of `src`, a `for` loop.
    fn shape_of(src: &str, check: impl FnOnce(LoopShape<'_>)) {
        let (program, _) = parse_and_number(src).unwrap();
        let StmtKind::For {
            init,
            cond,
            update,
            body,
            ..
        } = &program.body[0].kind
        else {
            panic!("not a for loop: {src}");
        };
        check(LoopShape::of(init, cond, update, body));
    }

    #[test]
    fn counted_header_has_bound_and_induction() {
        shape_of("for (var i = 0; i < n; i++) { a[i] = i; }", |s| {
            assert_eq!(s.induction, Some("i"));
            assert_eq!(s.bound.map(ceres_ast::expr_to_source).as_deref(), Some("n"));
            assert!(s.hazards.is_empty(), "{:?}", s.hazards);
        });
        // Relaxed but not strict: an induction variable, no bound.
        shape_of("for (var i = n - 1; i >= 0; i -= 2) {}", |s| {
            assert_eq!(s.induction, Some("i"));
            assert!(s.bound.is_none());
        });
    }

    #[test]
    fn hazards_come_in_scan_order() {
        shape_of(
            "for (var i = 0; i < 8; i++) { if (i) { continue; } f(function () { return i++; }); \
             switch (i) { case 1: break; } for (;;) { break; } break; console.log(i); }",
            |s| {
                assert_eq!(
                    s.hazards,
                    [
                        Hazard::Continue,
                        Hazard::WritesInduction("i"),
                        Hazard::Break,
                        Hazard::Impure("console"),
                    ]
                );
            },
        );
    }

    #[test]
    fn broken_header_ends_the_scan() {
        shape_of("for (var i = 0; j < 8; j++) { break; }", |s| {
            assert_eq!(s.induction, None);
            assert_eq!(s.hazards, [Hazard::NonCanonicalHeader]);
        });
    }
}
