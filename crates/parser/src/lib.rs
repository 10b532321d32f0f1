//! # ceres-parser
//!
//! Lexer and recursive-descent parser for the JavaScript subset used by
//! **js-ceres-rs** (the Rust reproduction of JS-CERES from *"Are web
//! applications ready for parallelism?"*, PPoPP 2015).
//!
//! The parser feeds three consumers:
//!
//! * the interpreter front end (`ceres-interp`),
//! * the instrumentation rewriter, which re-parses the source the proxy
//!   intercepts, transforms it, and prints it back with
//!   [`ceres_ast::codegen`],
//! * the loop-numbering pass, which needs deterministic source-order ids.
//!
//! The central invariant, enforced by unit and property tests, is the
//! **round-trip property**: for any program `p` accepted by the parser,
//! `parse(print(parse(p))) == parse(p)` modulo spans.

pub mod lexer;
pub mod parser;

pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use parser::{parse_expression, parse_program, ParseError};

use ceres_ast::{assign_loop_ids, LoopInfo, Program};

/// Parse a program and number its loops in one step.
pub fn parse_and_number(source: &str) -> Result<(Program, Vec<LoopInfo>), ParseError> {
    let mut program = parse_program(source)?;
    let loops = assign_loop_ids(&mut program);
    Ok((program, loops))
}

/// Strip spans from a program so structural comparison ignores layout.
/// Used by round-trip tests here and in downstream crates.
pub fn strip_spans(mut p: Program) -> Program {
    use ceres_ast::ast::*;
    use ceres_ast::visit::{walk_expr_mut, walk_func_mut, walk_stmt_mut, VisitMut};
    struct Strip;
    impl VisitMut for Strip {
        fn visit_stmt(&mut self, s: &mut Stmt) {
            s.span = ceres_ast::Span::SYNTHETIC;
            if let StmtKind::VarDecl(ds) = &mut s.kind {
                for d in ds {
                    d.span = ceres_ast::Span::SYNTHETIC;
                }
            }
            if let StmtKind::For {
                init: Some(ForInit::VarDecl(ds)),
                ..
            } = &mut s.kind
            {
                for d in ds {
                    d.span = ceres_ast::Span::SYNTHETIC;
                }
            }
            walk_stmt_mut(self, s);
        }
        fn visit_expr(&mut self, e: &mut Expr) {
            e.span = ceres_ast::Span::SYNTHETIC;
            walk_expr_mut(self, e);
        }
        fn visit_func(&mut self, f: &mut Func) {
            f.span = ceres_ast::Span::SYNTHETIC;
            walk_func_mut(self, f);
        }
    }
    Strip.visit_program(&mut p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_ast::ast::*;
    use ceres_ast::codegen::program_to_source;

    fn normalize(p: Program) -> Program {
        strip_spans(p)
    }

    fn roundtrip(src: &str) {
        let first = normalize(parse_program(src).unwrap_or_else(|e| panic!("{e}\nsrc: {src}")));
        let printed = program_to_source(&first);
        let second = normalize(
            parse_program(&printed).unwrap_or_else(|e| panic!("{e}\nprinted: {printed}")),
        );
        assert_eq!(
            first, second,
            "round-trip mismatch.\nsrc: {src}\nprinted: {printed}"
        );
    }

    #[test]
    fn parses_fig6_nbody() {
        // The paper's Fig. 6 example, verbatim modulo elided lines.
        let src = r#"
function step() {
  computeForces();
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * 2 + p.x) / 2;
    com.y = (com.y * 2 + p.y) / 2;
  }
  return com;
}
while (true) {
  var com = step();
  display(bodies, com);
}
"#;
        let (program, loops) = parse_and_number(src).unwrap();
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].kind, "for");
        assert_eq!(loops[1].kind, "while");
        assert_eq!(program.body.len(), 2);
        roundtrip(src);
    }

    #[test]
    fn operator_precedence_shapes() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    right.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_expression("a && b || c && d").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Logical {
                op: LogicalOp::Or,
                ..
            }
        ));
        let e = parse_expression("a < b == c").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Eq,
                ..
            }
        ));
    }

    #[test]
    fn left_associativity() {
        let e = parse_expression("a - b - c").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Sub,
                left,
                right,
            } => {
                assert!(matches!(
                    left.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Sub,
                        ..
                    }
                ));
                assert!(matches!(right.kind, ExprKind::Ident(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert!(matches!(parse_expression("-3").unwrap().kind, ExprKind::Num(n) if n == -3.0));
        assert!(matches!(
            parse_expression("-x").unwrap().kind,
            ExprKind::Unary { .. }
        ));
        // `- -3`: inner folds to Num(-3), outer folds again to Num(3).
        assert!(matches!(parse_expression("- -3").unwrap().kind, ExprKind::Num(n) if n == 3.0));
    }

    #[test]
    fn member_call_chains() {
        let e = parse_expression("a.b.c(1)[2](3).d").unwrap();
        assert!(matches!(e.kind, ExprKind::Member { .. }));
        roundtrip("a.b.c(1)[2](3).d;");
    }

    #[test]
    fn new_expression_forms() {
        let e = parse_expression("new Foo(1, 2)").unwrap();
        match e.kind {
            ExprKind::New { callee, args } => {
                assert!(matches!(callee.kind, ExprKind::Ident(_)));
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // `new a.b.C()` — callee is the dotted path.
        let e = parse_expression("new a.b.C()").unwrap();
        assert!(matches!(e.kind, ExprKind::New { .. }));
        // `new F().m()` — the call applies to the new result.
        let e = parse_expression("new F().m()").unwrap();
        assert!(matches!(e.kind, ExprKind::Call { .. }));
        roundtrip("var x = new Outer(new Inner());");
    }

    #[test]
    fn for_variants() {
        roundtrip("for (var i = 0; i < 10; i++) { f(i); }");
        roundtrip("for (i = 0; i < 10; i += 2) { f(i); }");
        roundtrip("for (; ; ) { break; }");
        roundtrip("for (var k in obj) { f(k); }");
        roundtrip("for (k in obj) { f(k); }");
        // `in` as an operator still works outside for-init.
        roundtrip("if (\"x\" in obj) { f(); }");
    }

    #[test]
    fn for_in_lookahead_does_not_eat_classic_for() {
        let (p, loops) = parse_and_number("for (var i = a; i < b; i++) { }").unwrap();
        assert_eq!(loops[0].kind, "for");
        assert!(matches!(p.body[0].kind, StmtKind::For { .. }));
    }

    #[test]
    fn statements_roundtrip() {
        roundtrip("var a = 1, b, c = \"x\";");
        roundtrip("if (a) { b(); } else if (c) { d(); } else { e(); }");
        roundtrip("do { f(); } while (g());");
        roundtrip("try { f(); } catch (e) { g(e); } finally { h(); }");
        roundtrip("try { f(); } finally { h(); }");
        roundtrip("switch (x) { case 1: f(); break; default: g(); }");
        roundtrip("throw new Error(\"boom\");");
        roundtrip("function f(a, b) { return a + b; }");
        roundtrip("var f = function (x) { return x * x; };");
        roundtrip("var g = function named(x) { return named(x - 1); };");
        roundtrip("(function () { init(); })();");
        roundtrip("x = { a: 1, \"b c\": 2, 3: f, while: 9 };");
        roundtrip("y = [1, 2, [3, 4], \"five\"];");
        roundtrip(";");
        roundtrip("a = b ? c : d ? e : f;");
        roundtrip("a = (b, c, d);");
        roundtrip("delete obj.prop;");
        roundtrip("x = typeof y === \"number\";");
        roundtrip("i++; --j; k = i++ + --j;");
        roundtrip("a.b[c.d] = e[f][0] >>> 2;");
        roundtrip("obj.in = 1;"); // keyword as member name
    }

    #[test]
    fn body_normalization_wraps_single_statements() {
        let p = parse_program("if (a) b(); else c();").unwrap();
        match &p.body[0].kind {
            StmtKind::If { then, alt, .. } => {
                assert!(matches!(then.kind, StmtKind::Block(_)));
                assert!(matches!(alt.as_ref().unwrap().kind, StmtKind::Block(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let p = parse_program("while (a) b();").unwrap();
        match &p.body[0].kind {
            StmtKind::While { body, .. } => assert!(matches!(body.kind, StmtKind::Block(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = parse_program("var;\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_program("f(\n\n1 +;\n);").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(parse_program("1 = 2;").is_err(), "assignment to rvalue");
        assert!(parse_program("++1;").is_err(), "update of rvalue");
        assert!(parse_program("try { }").is_err(), "try without handler");
        assert!(parse_program("switch (x) { default: ; default: ; }").is_err());
    }

    #[test]
    fn comments_do_not_affect_ast() {
        let a = normalize(parse_program("var x = 1; // hi\n").unwrap());
        let b = normalize(parse_program("/* hello */ var x = 1;").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn trailing_commas_in_literals() {
        roundtrip("a = [1, 2, 3];");
        let p = parse_program("a = [1, 2, ];").unwrap();
        match &p.body[0].kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => match &value.kind {
                    ExprKind::Array(els) => assert_eq!(els.len(), 2),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_elision_reads_as_undefined() {
        let elems = |src: &str| -> Vec<ExprKind> {
            let p = parse_program(src).unwrap();
            match &p.body[0].kind {
                StmtKind::Expr(e) => match &e.kind {
                    ExprKind::Assign { value, .. } => match &value.kind {
                        ExprKind::Array(els) => els.iter().map(|e| e.kind.clone()).collect(),
                        other => panic!("unexpected {other:?}"),
                    },
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }
        };
        let els = elems("a = [3, , 1];");
        assert_eq!(els.len(), 3);
        assert!(matches!(els[0], ExprKind::Num(n) if n == 3.0));
        assert!(matches!(els[1], ExprKind::Undefined));
        assert!(matches!(els[2], ExprKind::Num(n) if n == 1.0));
        // Leading hole, and `[,]` has length 1 (the trailing comma after a
        // hole is the hole's separator, not an extra element).
        assert!(matches!(elems("a = [, 1];")[0], ExprKind::Undefined));
        assert_eq!(elems("a = [,];").len(), 1);
        // Holes round-trip (printed as the `undefined` literal).
        roundtrip("a = [3, , 1];");
    }

    #[test]
    fn loop_numbering_is_stable_across_roundtrip() {
        let src = "while (a) { for (var i = 0; i < n; i++) { do { f(); } while (g()); } }";
        let (p1, l1) = parse_and_number(src).unwrap();
        let printed = program_to_source(&p1);
        let (_, l2) = parse_and_number(&printed).unwrap();
        let k1: Vec<_> = l1.iter().map(|l| (l.id, l.kind)).collect();
        let k2: Vec<_> = l2.iter().map(|l| (l.id, l.kind)).collect();
        assert_eq!(k1, k2);
    }
}
