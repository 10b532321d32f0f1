//! Fork-join parallelization of one `ok` loop nest (ROADMAP item 4).
//!
//! Where [`crate::refactor`] rewrites a counted loop into functional style
//! (`forEachPar`) to *remove* a dependence warning, this pass rewrites the
//! loop for actual parallel execution on the multi-worker backend in
//! `ceres_core::parallel`. The divide/execute shape follows the japaric
//! `parallel.rs` fork-join idiom (SNIPPETS.md §1): the iteration space is
//! divided among W workers, each executes its share, and a deterministic
//! join merges the results.
//!
//! The rewrite is deliberately minimal — three host hooks around and inside
//! an otherwise untouched loop:
//!
//! ```text
//! for (var i = 0; i < N; i++) { body }
//! ⇒
//! __ceres_par_enter(ID);
//! for (var i = 0; i < N; i++) {
//!   if (__ceres_par_iter(ID)) { body }
//! }
//! __ceres_par_exit(ID);
//! ```
//!
//! Every worker runs the whole program and evaluates the loop header for
//! every iteration (that is the sequential fraction); `__ceres_par_iter`
//! answers "does this worker own this iteration" (round-robin), so loop
//! bodies — where the nest's time is spent — execute on exactly one worker.
//! `__ceres_par_enter`/`__ceres_par_exit` bracket each *instance* of the
//! loop: the exit hook is the join barrier where workers exchange the
//! global-state writes their bodies performed, verify they agree, and
//! resynchronize their virtual clocks (see `ceres_core::parallel` for the
//! merge contract).
//!
//! # Safety preconditions (static)
//!
//! The transform refuses loops whose shape it cannot prove safe; the
//! runtime adds its own checks (write conflicts, trip-count divergence,
//! state it cannot merge), so these are the *necessary* conditions, not a
//! proof. They are the [`LoopShape`] hazards, and the first one the scan
//! reaches is the refusal. Documented in `docs/PARALLELIZE.md`:
//!
//! * a counted header with one induction variable
//!   ([`LoopShape::induction`]) — workers must agree on the iteration
//!   space without observing body effects. Ownership is by iteration
//!   *ordinal* (the gate counts entries) and the header runs identically
//!   in every replica, so a nonzero start, `<=`, strides and downward
//!   counts are all fine;
//! * no `break` or `return` at the loop's own level (`continue` is fine:
//!   it stays inside the gated body; a nested function's `return` is its
//!   own);
//! * no write to the induction variable, in the header's init, step or
//!   condition or anywhere in the body;
//! * no unmergeable side effects the runtime cannot replicate across
//!   workers, in the header or the body: console output, timer/listener
//!   registration, clock reads, seeded-RNG draws, or DOM access (checked
//!   by identifier, [`crate::shape::IMPURE_NAMES`]; the dependence engine's `ok`
//!   characterization already excludes DOM-heavy nests).
//!
//! Everything subtler — a body write that feeds the condition, say — is
//! caught at run time by the barrier's trip-count and state divergence
//! checks, which refuse rather than corrupt.

use crate::shape::{replace_loop, Hazard, LoopShape};
use ceres_ast::ast::*;
use ceres_ast::build;

/// Host hook: `(loop_id)` — one instance of the parallel loop begins
/// (the join's write log opens here).
pub const PAR_ENTER: &str = "__ceres_par_enter";
/// Host hook: `(loop_id) -> bool` — called once per iteration by every
/// worker; true when this worker owns the iteration.
pub const PAR_ITER: &str = "__ceres_par_iter";
/// Host hook: `(loop_id)` — instance ends: join barrier, merge, clock
/// resync.
pub const PAR_EXIT: &str = "__ceres_par_exit";

/// Why a loop was refused parallelization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelizeError {
    /// No loop with the requested id.
    NoSuchLoop,
    /// Header is not the canonical counted form.
    NonCanonicalHeader,
    /// Body `break`s at the loop's own level (workers would disagree on
    /// the trip count).
    BodyBreaksOut,
    /// Body `return`s from the enclosing function (same disagreement, via
    /// early exit).
    BodyReturns,
    /// Body assigns the induction variable — iteration spaces diverge.
    WritesInductionVar(String),
    /// Body mentions an identifier whose effects the join cannot merge.
    ImpureBody(String),
}

impl std::fmt::Display for ParallelizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelizeError::NoSuchLoop => write!(f, "no loop with that id"),
            ParallelizeError::NonCanonicalHeader => {
                write!(f, "loop header is not `for (var i = 0; i < N; i++)`")
            }
            ParallelizeError::BodyBreaksOut => {
                write!(f, "loop body breaks at the loop's own level")
            }
            ParallelizeError::BodyReturns => {
                write!(f, "loop body returns from the enclosing function")
            }
            ParallelizeError::WritesInductionVar(v) => {
                write!(f, "loop body assigns the induction variable `{v}`")
            }
            ParallelizeError::ImpureBody(name) => {
                write!(f, "loop body uses `{name}`, whose effects cannot be merged")
            }
        }
    }
}

impl std::error::Error for ParallelizeError {}

/// Rewrite the loop `target` into fork-join gated form throughout
/// `program`. The original is untouched; all other loops are preserved
/// verbatim.
pub fn parallelize_loop(program: &Program, target: LoopId) -> Result<Program, ParallelizeError> {
    replace_loop(program, target, ParallelizeError::NoSuchLoop, |stmt| {
        let StmtKind::For {
            loop_id,
            init,
            cond,
            update,
            body,
        } = &stmt.kind
        else {
            return Err(ParallelizeError::NonCanonicalHeader);
        };
        let shape = LoopShape::of(init, cond, update, body);
        if let Some(refusal) = shape.hazards.iter().find_map(refusal) {
            return Err(refusal);
        }
        let id = || build::num(target.0 as f64);
        // if (__ceres_par_iter(ID)) { body }
        let gated_body = Stmt::new(
            StmtKind::If {
                cond: build::call(PAR_ITER, vec![id()]),
                then: body.clone(),
                alt: None,
            },
            body.span,
        );
        let gated_loop = Stmt::new(
            StmtKind::For {
                loop_id: *loop_id,
                init: init.clone(),
                cond: cond.clone(),
                update: update.clone(),
                body: Box::new(gated_body),
            },
            stmt.span,
        );
        Ok(build::block(vec![
            build::expr_stmt(build::call(PAR_ENTER, vec![id()])),
            gated_loop,
            build::expr_stmt(build::call(PAR_EXIT, vec![id()])),
        ]))
    })
}

/// The refusal a hazard causes here, if any: a `continue` is fine, since
/// it stays inside the gated body.
fn refusal(hazard: &Hazard) -> Option<ParallelizeError> {
    Some(match hazard {
        Hazard::NonCanonicalHeader => ParallelizeError::NonCanonicalHeader,
        Hazard::Break => ParallelizeError::BodyBreaksOut,
        Hazard::Return => ParallelizeError::BodyReturns,
        Hazard::WritesInduction(v) => ParallelizeError::WritesInductionVar(v.to_string()),
        Hazard::Impure(name) => ParallelizeError::ImpureBody(name.to_string()),
        Hazard::Continue => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_parser::parse_and_number;

    fn parallelize(src: &str, id: u32) -> Result<String, ParallelizeError> {
        let (program, _) = parse_and_number(src).unwrap();
        parallelize_loop(&program, LoopId(id)).map(|p| ceres_ast::program_to_source(&p))
    }

    #[test]
    fn canonical_loop_is_gated() {
        let out = parallelize(
            "var out = [];\nfor (var i = 0; i < 8; i++) { out[i] = i * 2; }",
            1,
        )
        .unwrap();
        assert!(out.contains("__ceres_par_enter(1)"), "{out}");
        assert!(out.contains("if (__ceres_par_iter(1)) {"), "{out}");
        assert!(out.contains("out[i] = i * 2;"), "{out}");
        assert!(out.contains("__ceres_par_exit(1)"), "{out}");
        // The loop header survives verbatim.
        assert!(out.contains("for (var i = 0; i < 8; i++)"), "{out}");
    }

    #[test]
    fn gated_output_reparses() {
        let out = parallelize(
            "function f(n) { var a = []; for (var i = 0; i < n; i++) { a[i] = i; } return a; }\nf(4);",
            1,
        )
        .unwrap();
        ceres_parser::parse_program(&out).unwrap();
    }

    #[test]
    fn inner_nest_loops_survive_untouched() {
        let out = parallelize(
            "for (var i = 0; i < 4; i++) { for (var j = 0; j < 4; j++) { g(i, j); } }",
            1,
        )
        .unwrap();
        assert!(out.contains("__ceres_par_iter(1)"), "{out}");
        assert!(!out.contains("__ceres_par_iter(2)"), "{out}");
        assert!(out.contains("for (var j = 0; j < 4; j++)"), "{out}");
    }

    #[test]
    fn continue_is_allowed_break_is_not() {
        assert!(parallelize(
            "for (var i = 0; i < 8; i++) { if (i % 2) { continue; } f(i); }",
            1
        )
        .is_ok());
        assert_eq!(
            parallelize("for (var i = 0; i < 8; i++) { if (i === 3) { break; } }", 1),
            Err(ParallelizeError::BodyBreaksOut)
        );
    }

    #[test]
    fn non_canonical_headers_are_refused() {
        // No condition: no trip count for the replicas to agree on.
        assert_eq!(
            parallelize("for (var i = 0; ; i++) { f(i); }", 1),
            Err(ParallelizeError::NonCanonicalHeader)
        );
        // No update clause: no induction variable to protect.
        assert_eq!(
            parallelize("for (var i = 0; i < 8; ) { f(i); }", 1),
            Err(ParallelizeError::NonCanonicalHeader)
        );
        // Init and update disagree about the induction variable.
        assert_eq!(
            parallelize("for (var i = 0; j < 8; j++) { f(j); }", 1),
            Err(ParallelizeError::NonCanonicalHeader)
        );
        assert_eq!(
            parallelize("while (x) { f(); }", 1),
            Err(ParallelizeError::NonCanonicalHeader)
        );
        assert_eq!(
            parallelize("for (var k in o) { f(k); }", 1),
            Err(ParallelizeError::NonCanonicalHeader)
        );
        // An impure header is refused outright.
        assert_eq!(
            parallelize(
                "for (var i = 0; i < a.length; i += Math.random()) { f(i); }",
                1
            ),
            Err(ParallelizeError::ImpureBody("random".to_string()))
        );
    }

    #[test]
    fn relaxed_headers_are_accepted() {
        // Nonzero start, <=, strided and compound updates, assignment
        // init, and compound conditions all gate fine: ownership is by
        // iteration ordinal, not induction value.
        for src in [
            "for (var i = 1; i <= 8; i++) { f(i); }",
            "for (var y = 0; y + 4 < h; y += 2) { f(y); }",
            "for (s = 1; s <= 2; s++) { f(s); }",
            "for (var i = n - 1; i >= 0; i--) { f(i); }",
            "for (var q = 0; q < o.queue.length; q = q + 1) { f(q); }",
        ] {
            let out = parallelize(src, 1).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(out.contains("__ceres_par_iter(1)"), "{src}: {out}");
        }
    }

    #[test]
    fn induction_writes_are_refused() {
        assert_eq!(
            parallelize("for (var i = 0; i < 8; i++) { i = i + 2; }", 1),
            Err(ParallelizeError::WritesInductionVar("i".to_string()))
        );
        assert_eq!(
            parallelize("for (var i = 0; i < 8; i++) { i++; }", 1),
            Err(ParallelizeError::WritesInductionVar("i".to_string()))
        );
    }

    #[test]
    fn impure_bodies_are_refused() {
        assert_eq!(
            parallelize("for (var i = 0; i < 8; i++) { console.log(i); }", 1),
            Err(ParallelizeError::ImpureBody("console".to_string()))
        );
        assert_eq!(
            parallelize(
                "for (var i = 0; i < 8; i++) { setTimeout(function () { f(i); }, 0); }",
                1
            ),
            Err(ParallelizeError::ImpureBody("setTimeout".to_string()))
        );
        assert_eq!(
            parallelize("for (var i = 0; i < 8; i++) { a[i] = Math.random(); }", 1),
            Err(ParallelizeError::ImpureBody("random".to_string()))
        );
        assert_eq!(
            parallelize(
                "for (var i = 0; i < 8; i++) { document.getElementById(\"x\"); }",
                1
            ),
            Err(ParallelizeError::ImpureBody("document".to_string()))
        );
    }

    #[test]
    fn impure_names_inside_nested_callbacks_are_caught() {
        assert_eq!(
            parallelize(
                "for (var i = 0; i < 8; i++) { a.forEach(function (x) { console.log(x); }); }",
                1
            ),
            Err(ParallelizeError::ImpureBody("console".to_string()))
        );
    }

    #[test]
    fn returns_refused_at_loop_level_allowed_in_nested_fn() {
        assert_eq!(
            parallelize(
                "function f() { for (var i = 0; i < 8; i++) { return i; } }",
                1
            ),
            Err(ParallelizeError::BodyReturns)
        );
        assert!(parallelize(
            "for (var i = 0; i < 8; i++) { a[i] = (function (x) { return x * 2; })(i); }",
            1
        )
        .is_ok());
    }

    /// Loops with more than one defect: which refusal each gate reports.
    /// `None` in the refactor column means the loop is not pinned there.
    #[test]
    fn refusal_precedence_table() {
        use crate::refactor::{refactor_loop, RefactorError};
        use ParallelizeError::*;
        let body = |b: &str| format!("for (var i = 0; i < 8; i++) {b}");
        let in_fn = |b: &str| format!("function f() {{ for (var i = 0; i < 8; i++) {b} }}");
        let s = |v: &str| v.to_string();
        let table: [(String, ParallelizeError, Option<RefactorError>); 8] = [
            (
                s("for (var i = Math.random(); ; ) {}"),
                ImpureBody(s("random")),
                Some(RefactorError::NonCanonicalHeader),
            ),
            (
                s("for (var i = 0; i < Date.now(); i += Math.random()) {}"),
                ImpureBody(s("random")),
                None,
            ),
            (
                s("for (var i = 0; i++ < 8; i++) {}"),
                WritesInductionVar(s("i")),
                None,
            ),
            (
                body("{ console.log(i); break; }"),
                ImpureBody(s("console")),
                Some(RefactorError::BodyBreaksOut),
            ),
            (body("{ break; console.log(i); }"), BodyBreaksOut, None),
            (
                in_fn("{ return console.log(i); }"),
                ImpureBody(s("console")),
                Some(RefactorError::BodyReturns),
            ),
            (in_fn("{ return; i++; }"), BodyReturns, None),
            (
                body("{ continue; i = 2; }"),
                WritesInductionVar(s("i")),
                Some(RefactorError::BodyBreaksOut),
            ),
        ];
        for (src, par, refactor) in table {
            let (program, _) = parse_and_number(&src).unwrap();
            assert_eq!(
                parallelize_loop(&program, LoopId(1)).err(),
                Some(par),
                "{src}"
            );
            if let Some(want) = refactor {
                assert_eq!(
                    refactor_loop(&program, LoopId(1)).err(),
                    Some(want),
                    "{src}"
                );
            }
        }
    }

    #[test]
    fn returns_anywhere_in_a_nested_fn_are_its_own() {
        assert!(parallelize(
            "for (var i = 0; i < 8; i++) { a[i] = (function (x) { if (x) { return 1; } return 2; })(i); }",
            1
        )
        .is_ok());
    }

    #[test]
    fn loops_in_function_expressions_are_found_in_every_position() {
        use crate::refactor::{refactor_loop, RefactorError};
        let f = "(function () { for (var j = 0; j < 2; j++) {} return 1; })()";
        for src in [
            format!("throw {f};"),
            format!("for (var k = {f}; k < 2; k++) {{}}"),
            format!("for (var k = 0; k < {f}; k++) {{}}"),
            format!("for (var k = 0; k < 2; k += {f}) {{}}"),
            format!("switch ({f}) {{ default: }}"),
            format!("switch (1) {{ case {f}: }}"),
        ] {
            let (program, loops) = parse_and_number(&src).unwrap();
            for l in loops {
                let par = parallelize_loop(&program, l.id).err();
                assert_ne!(par, Some(ParallelizeError::NoSuchLoop), "{src} {:?}", l.id);
                let refactor = refactor_loop(&program, l.id).err();
                assert_ne!(
                    refactor,
                    Some(RefactorError::NoSuchLoop),
                    "{src} {:?}",
                    l.id
                );
            }
        }
    }

    #[test]
    fn missing_loop_reports() {
        assert_eq!(parallelize("f();", 1), Err(ParallelizeError::NoSuchLoop));
    }

    #[test]
    fn inner_loop_of_a_nest_can_be_targeted() {
        let out = parallelize(
            "var t;\nfor (t = 0; t < 3; t += 1) {\n  for (var i = 0; i < 8; i++) { g(t, i); }\n}",
            2,
        )
        .unwrap();
        assert!(out.contains("__ceres_par_enter(2)"), "{out}");
        assert!(out.contains("for (t = 0"), "outer untouched: {out}");
    }
}
