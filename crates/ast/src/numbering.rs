//! Loop numbering.
//!
//! JS-CERES identifies each *syntactic* loop by a unique id (Sec. 3.2: "each
//! syntactic loop is represented by an object in a global map"). This pass
//! assigns ids in source order so that ids are deterministic and stable
//! across re-parses of the same source.

use crate::ast::{LoopId, Program, Stmt, StmtKind};
use crate::span::Span;
use crate::visit::{walk_stmt_mut, VisitMut};

/// Description of one numbered loop, returned by [`assign_loop_ids`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    pub id: LoopId,
    /// `"while"`, `"do-while"`, `"for"` or `"for-in"`.
    pub kind: &'static str,
    /// Source location of the loop header.
    pub span: Span,
}

impl LoopInfo {
    /// Human-readable name used in warning reports, e.g. `for(line 6)`.
    pub fn display_name(&self) -> String {
        format!("{}(line {})", self.kind, self.span.line)
    }
}

struct Numberer {
    next: u32,
    loops: Vec<LoopInfo>,
}

impl VisitMut for Numberer {
    fn visit_stmt(&mut self, stmt: &mut Stmt) {
        let span = stmt.span;
        let info = match &mut stmt.kind {
            StmtKind::While { loop_id, .. } => Some((loop_id, "while")),
            StmtKind::DoWhile { loop_id, .. } => Some((loop_id, "do-while")),
            StmtKind::For { loop_id, .. } => Some((loop_id, "for")),
            StmtKind::ForIn { loop_id, .. } => Some((loop_id, "for-in")),
            _ => None,
        };
        if let Some((slot, kind)) = info {
            let id = LoopId(self.next);
            self.next += 1;
            *slot = id;
            self.loops.push(LoopInfo { id, kind, span });
        }
        walk_stmt_mut(self, stmt);
    }
}

/// Assign ids to every loop in the program, in source order, starting at 1.
///
/// Returns the table of loops found. Re-running renumbers from 1 again, so
/// the pass is idempotent on an already-numbered tree.
pub fn assign_loop_ids(program: &mut Program) -> Vec<LoopInfo> {
    let mut n = Numberer {
        next: 1,
        loops: Vec::new(),
    };
    n.visit_program(program);
    n.loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, ExprKind};

    fn mk_while(body: Stmt, line: u32) -> Stmt {
        Stmt::new(
            StmtKind::While {
                loop_id: LoopId::UNASSIGNED,
                cond: Expr::synth(ExprKind::Bool(true)),
                body: Box::new(body),
            },
            Span::new(0, 1, line),
        )
    }

    #[test]
    fn numbers_in_source_order_nested() {
        let inner = mk_while(Stmt::synth(StmtKind::Empty), 2);
        let outer = mk_while(inner, 1);
        let mut program = Program {
            body: vec![outer, mk_while(Stmt::synth(StmtKind::Empty), 5)],
        };
        let loops = assign_loop_ids(&mut program);
        assert_eq!(loops.len(), 3);
        assert_eq!(loops[0].id, LoopId(1));
        assert_eq!(loops[0].span.line, 1);
        assert_eq!(loops[1].id, LoopId(2));
        assert_eq!(loops[1].span.line, 2);
        assert_eq!(loops[2].id, LoopId(3));
        assert_eq!(loops[2].span.line, 5);
        // Outer loop got id 1.
        match &program.body[0].kind {
            StmtKind::While { loop_id, .. } => assert_eq!(*loop_id, LoopId(1)),
            _ => panic!("expected while"),
        }
    }

    #[test]
    fn idempotent_renumbering() {
        let mut program = Program {
            body: vec![mk_while(Stmt::synth(StmtKind::Empty), 1)],
        };
        let first = assign_loop_ids(&mut program);
        let second = assign_loop_ids(&mut program);
        assert_eq!(first, second);
    }

    #[test]
    fn display_name_formats_like_paper() {
        let info = LoopInfo {
            id: LoopId(1),
            kind: "while",
            span: Span::new(0, 1, 24),
        };
        assert_eq!(info.display_name(), "while(line 24)");
    }
}
