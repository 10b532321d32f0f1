//! Imperative-to-functional loop refactoring (paper Sec. 5.3 / 5.5).
//!
//! "Refactoring tools \[23\] that can transform imperative iteration into
//! functional style could make these loops amenable to parallelism via
//! libraries with parallel operators such as RiverTrail." This module is
//! that transform for the canonical counted loop:
//!
//! ```text
//! for (var i = 0; i < N; i++) { body }   ⇒   forEachPar(N, function (i) { body });
//! ```
//!
//! `forEachPar` is the RiverTrail-style shim the interpreter provides
//! (sequential today, parallel-ready in shape). The transform is *exactly*
//! the function extraction of the paper's Fig. 6 discussion: loop-body
//! `var`s become locals of the callback, so their cross-iteration sharing
//! (the `p` warning) disappears — which the integration tests verify by
//! re-running the dependence analysis on the refactored program.
//!
//! The transform refuses loops it cannot prove shape-compatible, reading
//! the [`LoopShape`] both loop gates share: non-canonical headers, then the
//! first of these hazards in scan order — a `break`/`continue` at the
//! loop's own level, a `return`, or a write to the induction variable.
//!
//! Not checked: uses of the induction variable after the loop. The
//! callback's parameter shadows the variable, so a program that reads it
//! afterwards (`var i; for (i = 0; i < n; i++) {} f(i);`) no longer sees
//! the loop's final value. Nor is `N` checked for changing while the loop
//! runs: `forEachPar` evaluates it once.

use crate::shape::{replace_loop, Hazard, LoopShape};
use ceres_ast::ast::*;
use ceres_ast::build;
use ceres_ast::Span;

/// Why a loop was not refactored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefactorError {
    /// No loop with the requested id.
    NoSuchLoop,
    /// Header is not `for (var i = 0; i < N; i++)` (or the `i = 0` form).
    NonCanonicalHeader,
    /// Body contains `break`/`continue` belonging to this loop.
    BodyBreaksOut,
    /// Body contains `return` (outside any nested function) — extraction
    /// would change where it returns to.
    BodyReturns,
    /// Body assigns the induction variable — the callback would assign its
    /// own parameter, so the iteration space would no longer follow it.
    WritesInductionVar(String),
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::NoSuchLoop => write!(f, "no loop with that id"),
            RefactorError::NonCanonicalHeader => {
                write!(f, "loop header is not `for (var i = 0; i < N; i++)`")
            }
            RefactorError::BodyBreaksOut => {
                write!(f, "loop body breaks/continues at the loop's own level")
            }
            RefactorError::BodyReturns => {
                write!(f, "loop body returns from the enclosing function")
            }
            RefactorError::WritesInductionVar(v) => {
                write!(f, "loop body assigns the induction variable `{v}`")
            }
        }
    }
}

impl std::error::Error for RefactorError {}

/// Rewrite the loop `target` into a `forEachPar` call throughout `program`.
/// Returns the transformed program; the original is untouched.
pub fn refactor_loop(program: &Program, target: LoopId) -> Result<Program, RefactorError> {
    replace_loop(program, target, RefactorError::NoSuchLoop, |stmt| {
        let StmtKind::For {
            init,
            cond,
            update,
            body,
            ..
        } = &stmt.kind
        else {
            return Err(RefactorError::NonCanonicalHeader);
        };
        let shape = LoopShape::of(init, cond, update, body);
        let (Some(var), Some(bound)) = (shape.induction, shape.bound) else {
            return Err(RefactorError::NonCanonicalHeader);
        };
        if let Some(refusal) = shape.hazards.iter().find_map(refusal) {
            return Err(refusal);
        }
        // forEachPar(N, function (i) { body });
        let callback = Expr::synth(ExprKind::Func {
            name: None,
            func: Func {
                params: vec![var.to_string()],
                body: match &body.kind {
                    StmtKind::Block(ss) => ss.clone(),
                    other => vec![Stmt::new(other.clone(), body.span)],
                },
                span: Span::SYNTHETIC,
            },
        });
        Ok(build::expr_stmt(build::call(
            "forEachPar",
            vec![bound.clone(), callback],
        )))
    })
}

/// The refusal a hazard causes here, if any: an impure name is fine,
/// since `forEachPar` runs the callback in order.
fn refusal(hazard: &Hazard) -> Option<RefactorError> {
    match hazard {
        Hazard::Break | Hazard::Continue => Some(RefactorError::BodyBreaksOut),
        Hazard::Return => Some(RefactorError::BodyReturns),
        Hazard::WritesInduction(v) => Some(RefactorError::WritesInductionVar(v.to_string())),
        Hazard::NonCanonicalHeader | Hazard::Impure(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_parser::parse_and_number;

    fn refactor(src: &str, id: u32) -> Result<String, RefactorError> {
        let (program, _) = parse_and_number(src).unwrap();
        refactor_loop(&program, LoopId(id)).map(|p| ceres_ast::program_to_source(&p))
    }

    #[test]
    fn canonical_loop_becomes_for_each_par() {
        let out = refactor(
            "var out = new Float32Array(8);\nfor (var i = 0; i < 8; i++) { out[i] = i * 2; }",
            1,
        )
        .unwrap();
        assert!(out.contains("forEachPar(8, function (i) {"), "{out}");
        assert!(out.contains("out[i] = i * 2;"), "{out}");
        assert!(!out.contains("for ("), "{out}");
    }

    #[test]
    fn i_equals_zero_form_and_plus_equals_update() {
        let out = refactor("var i;\nfor (i = 0; i < n; i += 1) { f(i); }", 1).unwrap();
        assert!(out.contains("forEachPar(n, function (i) {"), "{out}");
    }

    #[test]
    fn non_canonical_headers_are_refused() {
        assert_eq!(
            refactor("for (var i = 1; i < 8; i++) { }", 1),
            Err(RefactorError::NonCanonicalHeader),
            "non-zero start"
        );
        assert_eq!(
            refactor("for (var i = 0; i <= 8; i++) { }", 1),
            Err(RefactorError::NonCanonicalHeader),
            "<= bound"
        );
        assert_eq!(
            refactor("for (var i = 0; i < 8; i += 2) { }", 1),
            Err(RefactorError::NonCanonicalHeader),
            "stride 2"
        );
        assert_eq!(
            refactor("while (x) { }", 1),
            Err(RefactorError::NonCanonicalHeader),
            "while loop"
        );
    }

    #[test]
    fn bodies_with_escapes_are_refused() {
        assert_eq!(
            refactor("for (var i = 0; i < 8; i++) { if (i === 3) { break; } }", 1),
            Err(RefactorError::BodyBreaksOut)
        );
        assert_eq!(
            refactor(
                "function f() { for (var i = 0; i < 8; i++) { return i; } }",
                1
            ),
            Err(RefactorError::BodyReturns)
        );
        // continue at the loop's own level
        assert_eq!(
            refactor(
                "for (var i = 0; i < 8; i++) { if (i % 2) { continue; } f(i); }",
                1
            ),
            Err(RefactorError::BodyBreaksOut)
        );
    }

    #[test]
    fn induction_writes_are_refused() {
        for write in [
            "i++;",
            "i += 1;",
            "for (i in o) {}",
            "(function () { i = 3; })();",
        ] {
            let src =
                format!("var out = [];\nfor (var i = 0; i < 8; i++) {{ {write} out.push(i); }}");
            assert_eq!(
                refactor(&src, 1),
                Err(RefactorError::WritesInductionVar("i".to_string())),
                "{src}"
            );
        }
    }

    #[test]
    fn nested_loop_breaks_are_fine() {
        let out = refactor(
            "for (var i = 0; i < 4; i++) {\n\
               var j;\n\
               for (j = 0; j < 10; j++) { if (j === i) { break; } }\n\
             }",
            1,
        )
        .unwrap();
        assert!(out.contains("forEachPar(4, function (i)"), "{out}");
        assert!(out.contains("break;"), "inner break survives: {out}");
    }

    #[test]
    fn switch_breaks_do_not_block() {
        let out = refactor(
            "for (var i = 0; i < 4; i++) { switch (i) { case 1: f(); break; default: g(); } }",
            1,
        )
        .unwrap();
        assert!(out.contains("forEachPar"), "{out}");
    }

    #[test]
    fn continue_inside_a_switch_is_refused() {
        // A `switch` owns `break` but not `continue`: this one continues
        // the loop, and would be left without a loop in the callback.
        assert_eq!(
            refactor(
                "for (var i = 0; i < 4; i++) { switch (i) { case 1: continue; } f(i); }",
                1
            ),
            Err(RefactorError::BodyBreaksOut)
        );
    }

    #[test]
    fn missing_loop_id_reports() {
        assert_eq!(refactor("f();", 1), Err(RefactorError::NoSuchLoop));
        assert_eq!(
            refactor("for (var i = 0; i < 2; i++) { }", 9),
            Err(RefactorError::NoSuchLoop)
        );
    }

    #[test]
    fn inner_loop_can_be_targeted() {
        let out = refactor(
            "var t;\nfor (t = 0; t < 3; t += 1) {\n\
               for (var i = 0; i < 8; i++) { g(t, i); }\n\
             }",
            2,
        )
        .unwrap();
        assert!(out.contains("for (t = 0"), "outer stays imperative: {out}");
        assert!(out.contains("forEachPar(8, function (i)"), "{out}");
    }
}
