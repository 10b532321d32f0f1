//! Convenience constructors for synthesized AST nodes.
//!
//! The instrumentation rewriter (a [`crate::visit::VisitMut`]) and the
//! loop transforms build many small snippets (hook calls, blocks,
//! try/finally wrappers); these helpers keep that code terse. All nodes
//! produced here carry [`crate::span::Span::SYNTHETIC`].

use crate::ast::*;

/// `name`
pub fn ident(name: &str) -> Expr {
    Expr::synth(ExprKind::Ident(name.to_string()))
}

/// Numeric literal.
pub fn num(n: f64) -> Expr {
    Expr::synth(ExprKind::Num(n))
}

/// String literal.
pub fn str_lit(s: &str) -> Expr {
    Expr::synth(ExprKind::Str(s.to_string()))
}

/// `callee(args...)` where `callee` is a bare identifier.
pub fn call(callee: &str, args: Vec<Expr>) -> Expr {
    Expr::synth(ExprKind::Call {
        callee: Box::new(ident(callee)),
        args,
    })
}

/// `(a, b, ...)`
pub fn seq(exprs: Vec<Expr>) -> Expr {
    Expr::synth(ExprKind::Seq(exprs))
}

/// Expression statement.
pub fn expr_stmt(e: Expr) -> Stmt {
    Stmt::synth(StmtKind::Expr(e))
}

/// `{ stmts }`
pub fn block(stmts: Vec<Stmt>) -> Stmt {
    Stmt::synth(StmtKind::Block(stmts))
}

/// `try { body } finally { fin }`
pub fn try_finally(body: Vec<Stmt>, fin: Vec<Stmt>) -> Stmt {
    Stmt::synth(StmtKind::Try {
        block: body,
        catch: None,
        finally: Some(fin),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{expr_to_source, stmt_to_source};

    #[test]
    fn builders_print_expected_source() {
        let e = call("__ceres_loop_enter", vec![num(7.0)]);
        assert_eq!(expr_to_source(&e), "__ceres_loop_enter(7)");

        let s = try_finally(
            vec![expr_stmt(ident("work"))],
            vec![expr_stmt(call("done", vec![]))],
        );
        let src = stmt_to_source(&s);
        assert!(src.starts_with("try {"), "got {src}");
        assert!(src.contains("finally {"), "got {src}");
    }
}
