//! # ceres-ast
//!
//! Abstract syntax tree, source spans, visitors, loop numbering, synthetic
//! node builders, and JavaScript code generation for **js-ceres-rs** — a
//! Rust reproduction of the JS-CERES tool from *"Are web applications ready
//! for parallelism?"* (Radoi, Herhut, Sreeram, Dig — PPoPP 2015).
//!
//! This crate defines the language subset everything else operates on:
//! roughly ES5 with function-scoped `var` (which is load-bearing — the
//! paper's Fig. 6 warning about the shared loop variable `p` exists *because*
//! of function scoping), closures, prototype-based `new`, `try`/`catch`/
//! `finally`, and the usual operator set. It deliberately omits `with`,
//! labels, getters/setters, regex literals, and automatic semicolon
//! insertion.

pub mod ast;
pub mod build;
pub mod codegen;
pub mod numbering;
pub mod span;
pub mod visit;

pub use ast::*;
pub use codegen::{expr_to_source, program_to_source, stmt_to_source};
pub use numbering::{assign_loop_ids, LoopInfo};
pub use span::Span;
pub use visit::{hoisted, Hoisted, Visit, VisitMut};
