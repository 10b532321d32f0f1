//! Loop-nest classification — the right half of Table 3, plus the Amdahl
//! analysis of Sec. 4.2.
//!
//! For every top-level loop nest the classifier derives:
//!
//! * **control-flow divergence** (`none` / `little` / `yes`) — from static
//!   branch density of the nest's bodies, runtime recursion taint, and the
//!   outer trip count (nests that "only execute roughly one iteration on
//!   average" diverge by definition);
//! * **DOM access** — whether any tagged host object was touched while the
//!   nest was open;
//! * **breaking-dependencies difficulty** — from the dependence warnings:
//!   induction writes are free, reductions are breakable, disjoint
//!   per-iteration writes ("well-defined pattern that allows parallelism")
//!   are easy, genuine flow dependencies are hard;
//! * **parallelization difficulty** — dependence difficulty bumped by
//!   today's non-concurrent DOM/Canvas: an otherwise-easy nest that talks
//!   to the DOM becomes very hard (the Harmony rows), while a nest whose
//!   dependencies are already hard stays hard (the D3 row) because the DOM
//!   is not its binding constraint.

use crate::engine::{Engine, Warning, WarningKind};
use crate::welford::Welford;
use ceres_ast::ast::*;
use ceres_ast::visit::{walk_expr, walk_stmt, Visit};
use ceres_ast::LoopId;
use std::collections::{HashMap, HashSet};

/// Difficulty scale used by both Table 3 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Difficulty {
    VeryEasy,
    Easy,
    Medium,
    Hard,
    VeryHard,
}

impl Difficulty {
    pub fn as_str(&self) -> &'static str {
        match self {
            Difficulty::VeryEasy => "very easy",
            Difficulty::Easy => "easy",
            Difficulty::Medium => "medium",
            Difficulty::Hard => "hard",
            Difficulty::VeryHard => "very hard",
        }
    }
}

impl std::fmt::Display for Difficulty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Control-flow divergence assessment (Table 3, column 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Divergence {
    None,
    Little,
    Yes,
}

impl Divergence {
    pub fn as_str(&self) -> &'static str {
        match self {
            Divergence::None => "none",
            Divergence::Little => "little",
            Divergence::Yes => "yes",
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One classified loop nest — a full Table 3 row.
#[derive(Debug, Clone)]
pub struct NestClassification {
    pub root: LoopId,
    /// Share of the program's total loop time spent in this nest (column 2).
    pub pct_loop_time: f64,
    /// Times the nest was encountered (column 3, "instances").
    pub instances: u64,
    /// Outer-loop trip count statistics (column 4, `avg±sd`).
    pub trips: Welford,
    pub divergence: Divergence,
    pub dom_access: bool,
    pub dependence_difficulty: Difficulty,
    pub parallelization_difficulty: Difficulty,
    /// Results discarded due to recursion (paper Sec. 3.3)?
    pub recursion_tainted: bool,
}

/// Static per-loop features extracted from the *uninstrumented* AST.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticFeatures {
    /// Branching constructs in the loop body (if/switch/?:/&&/||).
    pub branches: u32,
    /// Total AST nodes in the body (density denominator).
    pub body_size: u32,
    /// Calls in the body (divergence through callees is possible).
    pub calls: u32,
    /// The body calls (possibly transitively) a recursive function —
    /// variable-depth recursion per iteration, the paper's HAAR/Raytracing
    /// divergence cases.
    pub recursive_call: bool,
}

/// Walk the program and compute [`StaticFeatures`] for every loop.
pub fn static_features(program: &Program) -> HashMap<LoopId, StaticFeatures> {
    let recursive = recursive_functions(program);
    let mut features = Features {
        stack: Vec::new(),
        recursive: &recursive,
        out: HashMap::new(),
    };
    features.visit_program(program);
    features.out
}

/// The walk behind [`static_features`]: every node counts toward each loop
/// whose body encloses it. Loops inside a function body belong to the nest
/// of whoever *calls* the function; statically we attribute conservatively
/// to the enclosing syntactic loops (callbacks defined in loops).
struct Features<'a> {
    /// Loops whose body encloses the current node, outermost first.
    stack: Vec<LoopId>,
    recursive: &'a HashSet<&'a str>,
    out: HashMap<LoopId, StaticFeatures>,
}

impl Features<'_> {
    fn bump(&mut self, f: impl Fn(&mut StaticFeatures)) {
        for id in &self.stack {
            f(self.out.entry(*id).or_default());
        }
    }
}

impl<'ast> Visit<'ast> for Features<'_> {
    fn visit_stmt(&mut self, s: &'ast Stmt) {
        self.bump(|f| f.body_size += 1);
        if s.kind.is_branch() {
            self.bump(|f| f.branches += 1);
        }
        let Some(id) = s.kind.loop_id() else {
            return walk_stmt(self, s);
        };
        self.out.entry(id).or_default();
        // The header counts toward the enclosing loops only, the body
        // toward this loop as well.
        let body = match &s.kind {
            StmtKind::While { cond, body, .. } | StmtKind::DoWhile { cond, body, .. } => {
                self.visit_expr(cond);
                body
            }
            StmtKind::ForIn { object, body, .. } => {
                self.visit_expr(object);
                body
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                match init {
                    Some(ForInit::VarDecl(ds)) => ds
                        .iter()
                        .flat_map(|d| &d.init)
                        .for_each(|e| self.visit_expr(e)),
                    Some(ForInit::Expr(e)) => self.visit_expr(e),
                    None => {}
                }
                cond.iter().chain(update).for_each(|e| self.visit_expr(e));
                body
            }
            _ => unreachable!("only loops have a loop id"),
        };
        self.stack.push(id);
        self.visit_stmt(body);
        self.stack.pop();
    }

    fn visit_expr(&mut self, e: &'ast Expr) {
        self.bump(|f| f.body_size += 1);
        match &e.kind {
            ExprKind::Cond { .. } | ExprKind::Logical { .. } => self.bump(|f| f.branches += 1),
            ExprKind::Call { callee, .. } | ExprKind::New { callee, .. } => {
                self.bump(|f| f.calls += 1);
                if let ExprKind::Ident(name) = &callee.kind {
                    if self.recursive.contains(name.as_str()) {
                        self.bump(|f| f.recursive_call = true);
                    }
                }
            }
            _ => {}
        }
        walk_expr(self, e);
    }
}

/// Names of functions that can reach themselves through the (name-based)
/// static call graph. Conservative and simple: function declarations and
/// `var f = function …` anywhere in the program both define nodes; `f(…)`
/// call sites with a plain identifier callee define edges from every named
/// function whose body encloses them.
fn recursive_functions(program: &Program) -> HashSet<&str> {
    let mut graph = CallGraph::default();
    graph.visit_program(program);
    let edges = graph.edges;

    // A function is recursion-reaching if DFS from it finds a cycle.
    fn reaches_cycle<'a>(
        name: &'a str,
        edges: &HashMap<&'a str, HashSet<&'a str>>,
        path: &mut HashSet<&'a str>,
        memo: &mut HashMap<&'a str, bool>,
    ) -> bool {
        if let Some(&r) = memo.get(name) {
            return r;
        }
        if !path.insert(name) {
            return true; // back-edge: cycle
        }
        let mut found = false;
        if let Some(callees) = edges.get(name) {
            for c in callees {
                if path.contains(c) || reaches_cycle(c, edges, path, memo) {
                    found = true;
                    break;
                }
            }
        }
        path.remove(name);
        memo.insert(name, found);
        found
    }
    let mut memo = HashMap::new();
    edges
        .keys()
        .copied()
        .filter(|name| reaches_cycle(name, &edges, &mut HashSet::new(), &mut memo))
        .collect()
}

/// The name-based call graph behind [`recursive_functions`].
#[derive(Default)]
struct CallGraph<'ast> {
    /// Named functions whose body encloses the current node.
    enclosing: Vec<&'ast str>,
    edges: HashMap<&'ast str, HashSet<&'ast str>>,
}

impl<'ast> CallGraph<'ast> {
    fn named(&mut self, name: &'ast str, func: &'ast Func) {
        self.edges.entry(name).or_default();
        self.enclosing.push(name);
        self.visit_func(func);
        self.enclosing.pop();
    }
}

impl<'ast> Visit<'ast> for CallGraph<'ast> {
    fn visit_stmt(&mut self, s: &'ast Stmt) {
        match &s.kind {
            StmtKind::Func(decl) => self.named(&decl.name, &decl.func),
            StmtKind::VarDecl(ds) => {
                for d in ds {
                    match &d.init {
                        Some(Expr {
                            kind: ExprKind::Func { func, .. },
                            ..
                        }) => self.named(&d.name, func),
                        Some(e) => self.visit_expr(e),
                        None => {}
                    }
                }
            }
            _ => walk_stmt(self, s),
        }
    }

    fn visit_expr(&mut self, e: &'ast Expr) {
        if let ExprKind::Call { callee, .. } = &e.kind {
            if let ExprKind::Ident(callee) = &callee.kind {
                for caller in &self.enclosing {
                    self.edges.entry(caller).or_default().insert(callee);
                }
            }
        }
        walk_expr(self, e);
    }
}

/// Var-write ops that are trivially breakable (loop bookkeeping).
fn is_induction_op(op: &str) -> bool {
    matches!(op, "++" | "--" | "forin" | "init")
}

/// Compound arithmetic — a reduction pattern, breakable with a combiner.
fn is_reduction_op(op: &str) -> bool {
    matches!(op, "+=" | "-=" | "*=" | "+" | "-" | "*")
}

/// Does the dependence this warning describes *block* parallelizing the
/// nest's profitable loop?
///
/// The characterization's split level `L` names the loop that carries the
/// dependence. Iterations of loops *inside* `L` are still independent, so
/// if the bulk of the nest's parallelism lives below `L` (deeper loops
/// have larger trip counts — e.g. fluidSim's 8-trip Jacobi `k` loop over
/// a 10×10 sweep), the dependence does not block the nest:
/// one parallelizes the inner sweep and keeps `L` sequential. If `L` is
/// itself the widest loop at-or-below its level (sigma's per-node layout
/// loop, a single accumulator loop), the dependence blocks.
fn blocks_nest(engine: &Engine, w: &Warning) -> bool {
    let Some(split) = w.characterization.split else {
        return false;
    };
    let trips = |id: ceres_ast::LoopId| -> f64 {
        engine
            .records
            .get(&id)
            .map(|r| r.trips.mean())
            .unwrap_or(0.0)
    };
    let carrier = trips(w.characterization.loops[split.level()]);
    // The nest's profitable parallelism level: the widest loop anywhere in
    // the nest. A dependence carried by a much narrower loop (fluidSim's
    // 8-trip Jacobi `k`, a 3-trip argmin over spheres) leaves that wide
    // loop's iterations independent, so it doesn't block the nest.
    let nest_max = engine
        .nest_root
        .iter()
        .filter(|(_, root)| **root == w.nest_root)
        .map(|(id, _)| trips(*id))
        .fold(0.0f64, f64::max);
    carrier + 1.0 >= nest_max
}

/// Classify the dependence-breaking difficulty of one nest from its
/// warnings and subject statistics.
pub fn dependence_difficulty(engine: &Engine, warnings: &[&Warning]) -> Difficulty {
    let mut reductions = 0u32;
    let mut plain_var_writes = 0u32;
    let mut conflicting_writes = 0u32;
    let mut flow_reduction = 0u32;
    let mut flow_true = 0u32;

    // Subjects whose writes were all compound arithmetic are reductions;
    // flow reads on them are breakable.
    let mut write_ops: HashMap<&str, (bool, bool)> = HashMap::new(); // subject -> (any, all_reduction)
    for w in warnings {
        if w.kind == WarningKind::SharedPropWrite {
            let entry = write_ops.entry(w.subject.as_str()).or_insert((false, true));
            entry.0 = true;
            let red = w.op.as_deref().map(is_reduction_op).unwrap_or(false)
                || w.op.as_deref().map(is_induction_op).unwrap_or(false);
            entry.1 &= red;
        }
    }

    for w in warnings {
        match w.kind {
            WarningKind::VarWrite => {
                let op = w.op.as_deref().unwrap_or("=");
                if is_induction_op(op) {
                    // free
                } else if is_reduction_op(op) {
                    reductions += 1;
                } else if blocks_nest(engine, w) {
                    plain_var_writes += 1;
                }
            }
            WarningKind::SharedPropWrite => {
                let disjoint = engine
                    .subject_stats_for(&w.subject)
                    .map(|s| s.disjointness() >= 0.8)
                    .unwrap_or(false);
                if disjoint {
                    // Disjoint per-iteration writes never raise difficulty.
                } else if w.op.as_deref().map(is_reduction_op).unwrap_or(false) {
                    reductions += 1;
                } else if blocks_nest(engine, w) {
                    conflicting_writes += 1;
                }
            }
            WarningKind::FlowRead => {
                if !blocks_nest(engine, w) {
                    continue;
                }
                let all_reduction = write_ops
                    .get(w.subject.as_str())
                    .map(|(_, r)| *r)
                    .unwrap_or(false);
                if all_reduction {
                    flow_reduction += 1;
                } else {
                    flow_true += 1;
                }
            }
            WarningKind::WawWrite => {
                // Same location written by two iterations of the profitable
                // loop: a real output conflict (the cloth-constraint case).
                if blocks_nest(engine, w) {
                    conflicting_writes += 1;
                }
            }
            WarningKind::Recursion => {}
        }
    }

    if flow_true >= 3 {
        Difficulty::VeryHard
    } else if flow_true > 0 {
        Difficulty::Hard
    } else if conflicting_writes > 0 || plain_var_writes >= 3 {
        Difficulty::Medium
    } else if reductions > 0 || flow_reduction > 0 || plain_var_writes > 0 {
        Difficulty::Easy
    } else {
        // Only disjoint writes (or nothing problematic at all).
        Difficulty::VeryEasy
    }
}

/// Combine dependence difficulty with the non-concurrent-DOM reality
/// (Sec. 4.2 / 5.1): DOM access caps an otherwise-parallelizable nest.
pub fn parallelization_difficulty(dep: Difficulty, dom: bool) -> Difficulty {
    if dom && dep <= Difficulty::Medium {
        Difficulty::VeryHard
    } else {
        dep
    }
}

/// Assess control-flow divergence for a nest.
pub fn divergence(
    root_trips_mean: f64,
    recursion: bool,
    features: Option<&StaticFeatures>,
) -> Divergence {
    if recursion {
        return Divergence::Yes;
    }
    if root_trips_mean > 0.0 && root_trips_mean < 3.0 {
        return Divergence::Yes;
    }
    match features {
        None => Divergence::None,
        Some(f) => {
            if f.recursive_call {
                return Divergence::Yes;
            }
            if f.branches == 0 {
                Divergence::None
            } else if (f.branches as f64) <= 0.12 * f.body_size as f64 {
                Divergence::Little
            } else {
                Divergence::Yes
            }
        }
    }
}

/// Produce the Table 3 rows for every top-level nest observed at runtime,
/// sorted by descending share of loop time.
pub fn classify_nests(
    engine: &Engine,
    features: &HashMap<LoopId, StaticFeatures>,
) -> Vec<NestClassification> {
    // Total loop time = sum of root-nest times.
    let roots: Vec<LoopId> = {
        let mut r: Vec<LoopId> = engine
            .nest_root
            .values()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        r.retain(|id| engine.nest_root.get(id) == Some(id));
        r
    };
    let total: f64 = roots
        .iter()
        .filter_map(|id| engine.records.get(id))
        .map(|r| r.time_ticks.total())
        .sum();

    let mut rows = Vec::new();
    for root in roots {
        let Some(rec) = engine.records.get(&root) else {
            continue;
        };
        // Nest members: loops whose nest_root is this root.
        let members: Vec<LoopId> = engine
            .nest_root
            .iter()
            .filter(|(_, r)| **r == root)
            .map(|(l, _)| *l)
            .collect();
        let recursion = members
            .iter()
            .filter_map(|l| engine.records.get(l))
            .any(|r| r.recursion_tainted);
        let dom = members.iter().any(|l| {
            engine
                .dom_by_loop
                .get(l)
                .map(|t| !t.is_empty())
                .unwrap_or(false)
        });
        let warnings = engine.warnings_for_nest(root);
        let dep = dependence_difficulty(engine, &warnings);
        // Merge static features over the nest.
        let mut merged = StaticFeatures::default();
        for m in &members {
            if let Some(f) = features.get(m) {
                merged.branches += f.branches;
                merged.body_size += f.body_size;
                merged.calls += f.calls;
                merged.recursive_call |= f.recursive_call;
            }
        }
        let div = divergence(rec.trips.mean(), recursion, Some(&merged));
        rows.push(NestClassification {
            root,
            pct_loop_time: if total > 0.0 {
                100.0 * rec.time_ticks.total() / total
            } else {
                0.0
            },
            instances: rec.instances,
            trips: rec.trips.clone(),
            divergence: div,
            dom_access: dom,
            dependence_difficulty: dep,
            parallelization_difficulty: parallelization_difficulty(dep, dom),
            recursion_tainted: recursion,
        });
    }
    rank_nests(&mut rows);
    rows
}

/// Order nests by descending share of loop time. Uses `f64::total_cmp`, not
/// `partial_cmp().unwrap()`: a zero-runtime app can yield NaN percentages,
/// which must rank last in the table, never panic the analyzer. NaN keys
/// are mapped below every real share so they sink to the bottom.
pub fn rank_nests(rows: &mut [NestClassification]) {
    let key = |x: f64| if x.is_nan() { f64::NEG_INFINITY } else { x };
    rows.sort_by(|a, b| key(b.pct_loop_time).total_cmp(&key(a.pct_loop_time)));
}

// ---------------------------------------------------------------------
// Amdahl (Sec. 4.2: "the upper bound for speedup is greater than 3× for
// 5 of the 12 applications when only counting easy to parallelize loops")
// ---------------------------------------------------------------------

/// Upper-bound speedup with unlimited cores: `1 / (1 - p)`.
pub fn amdahl_bound(parallel_fraction: f64) -> f64 {
    let p = parallel_fraction.clamp(0.0, 1.0);
    if p >= 1.0 {
        f64::INFINITY
    } else {
        1.0 / (1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_instrumented;
    use ceres_instrument::Mode;

    #[test]
    fn amdahl_math() {
        assert!((amdahl_bound(0.5) - 2.0).abs() < 1e-12);
        assert!((amdahl_bound(0.9) - 10.0).abs() < 1e-12);
        assert!(amdahl_bound(0.0) == 1.0);
        assert!(amdahl_bound(1.0).is_infinite());
        // >3x requires p > 2/3.
        assert!(amdahl_bound(0.67) > 3.0);
        assert!(amdahl_bound(0.66) < 3.0);
    }

    #[test]
    fn rank_nests_handles_nan_shares_without_panicking() {
        // Regression: ranking used `partial_cmp().unwrap()` and panicked on
        // NaN percentages; now NaN rows must sink to the bottom instead.
        let mk = |root: u32, pct: f64| NestClassification {
            root: LoopId(root),
            pct_loop_time: pct,
            instances: 1,
            trips: Welford::new(),
            divergence: Divergence::None,
            dom_access: false,
            dependence_difficulty: Difficulty::Easy,
            parallelization_difficulty: Difficulty::Easy,
            recursion_tainted: false,
        };
        let mut rows = vec![mk(1, f64::NAN), mk(2, 10.0), mk(3, 90.0), mk(4, f64::NAN)];
        rank_nests(&mut rows);
        assert_eq!(rows[0].pct_loop_time, 90.0);
        assert_eq!(rows[1].pct_loop_time, 10.0);
        assert!(rows[2].pct_loop_time.is_nan());
        assert!(rows[3].pct_loop_time.is_nan());
    }

    #[test]
    fn zero_tick_app_classifies_without_panicking() {
        // An app whose only loop never runs a body spends 0 ticks in loops;
        // classification (including the ranking sort) must survive that.
        let (_interp, engine) = run_instrumented(
            "for (var i = 0; i < 0; i++) { var x = i; }",
            Mode::Dependence,
            2015,
        )
        .expect("run");
        let rows = classify_nests(&engine.borrow(), &HashMap::new());
        for r in &rows {
            assert!(!r.pct_loop_time.is_nan(), "{r:?}");
        }
    }

    #[test]
    fn difficulty_ordering() {
        assert!(Difficulty::VeryEasy < Difficulty::Easy);
        assert!(Difficulty::Hard < Difficulty::VeryHard);
        assert_eq!(Difficulty::Medium.as_str(), "medium");
    }

    #[test]
    fn dom_bumps_easy_to_very_hard_but_not_hard() {
        assert_eq!(
            parallelization_difficulty(Difficulty::Easy, true),
            Difficulty::VeryHard
        );
        assert_eq!(
            parallelization_difficulty(Difficulty::Hard, true),
            Difficulty::Hard
        );
        assert_eq!(
            parallelization_difficulty(Difficulty::Easy, false),
            Difficulty::Easy
        );
    }

    #[test]
    fn static_branch_density() {
        let (program, _) = {
            let mut p = ceres_parser::parse_program(
                "for (var i = 0; i < 10; i++) {\n\
                   if (i % 2) { f(i); } else { g(i); }\n\
                   h(i && i + 1);\n\
                 }",
            )
            .unwrap();
            let l = ceres_ast::assign_loop_ids(&mut p);
            (p, l)
        };
        let features = static_features(&program);
        let f = &features[&LoopId(1)];
        assert_eq!(f.branches, 2); // if + &&
        assert!(f.calls >= 3);
        assert!(f.body_size > 5);
    }

    #[test]
    fn recursive_helpers_are_found_below_top_level() {
        let walk = "function walk(n) { return n > 0 ? walk(n - 1) : 0; }";
        let lp = "for (var i = 0; i < 4; i++) { walk(i); }";
        for src in [
            format!("{walk}\n{lp}"),
            format!("function C() {{}}\nC.prototype.m = function () {{ {walk} {lp} }};"),
            format!("try {{ {walk} }} catch (e) {{}}\n{lp}"),
        ] {
            let (program, _) = ceres_parser::parse_and_number(&src).unwrap();
            let features = static_features(&program);
            assert!(features[&LoopId(1)].recursive_call, "{src}");
        }
    }

    #[test]
    fn divergence_rules() {
        let straight = StaticFeatures {
            branches: 0,
            body_size: 40,
            calls: 0,
            recursive_call: false,
        };
        let few = StaticFeatures {
            branches: 2,
            body_size: 40,
            calls: 1,
            recursive_call: false,
        };
        let heavy = StaticFeatures {
            branches: 12,
            body_size: 40,
            calls: 2,
            recursive_call: false,
        };
        assert_eq!(divergence(100.0, false, Some(&straight)), Divergence::None);
        assert_eq!(divergence(100.0, false, Some(&few)), Divergence::Little);
        assert_eq!(divergence(100.0, false, Some(&heavy)), Divergence::Yes);
        // ~1-iteration loops diverge regardless of body shape.
        assert_eq!(divergence(1.1, false, Some(&straight)), Divergence::Yes);
        // Recursion always diverges.
        assert_eq!(divergence(100.0, true, Some(&straight)), Divergence::Yes);
    }

    #[test]
    fn classify_disjoint_stencil_as_easy_parallel() {
        let (_interp, eng) = run_instrumented(
            "var n = 32;\n\
             var grid = new Float32Array(n);\n\
             var out = new Float32Array(n);\n\
             for (var t = 0; t < 4; t++) {\n\
               for (var i = 0; i < n; i++) {\n\
                 out[i] = grid[i] * 0.5;\n\
               }\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let mut program = ceres_parser::parse_program(
            "var n = 32; var grid = new Float32Array(n); var out = new Float32Array(n);\n\
             for (var t = 0; t < 4; t++) { for (var i = 0; i < n; i++) { out[i] = grid[i] * 0.5; } }",
        )
        .unwrap();
        ceres_ast::assign_loop_ids(&mut program);
        let features = static_features(&program);
        let eng = eng.borrow();
        let rows = classify_nests(&eng, &features);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.instances, 1);
        assert_eq!(row.trips.mean(), 4.0);
        assert!((row.pct_loop_time - 100.0).abs() < 1e-9);
        assert_eq!(row.divergence, Divergence::None);
        assert!(!row.dom_access);
        assert!(
            row.dependence_difficulty <= Difficulty::Easy,
            "{:?}",
            row.dependence_difficulty
        );
        assert_eq!(row.parallelization_difficulty, row.dependence_difficulty);
    }

    #[test]
    fn classify_sequential_accumulator_as_hard() {
        let (_interp, eng) = run_instrumented(
            "var acc = { v: 1 };\n\
             for (var i = 0; i < 32; i++) {\n\
               acc.v = acc.v * 1.5 - i;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let rows = classify_nests(&eng, &HashMap::new());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].dependence_difficulty >= Difficulty::Hard);
    }

    #[test]
    fn classify_dom_writer_as_very_hard() {
        let (_interp, eng) = run_instrumented(
            "var el = document.getElementById(\"x\");\n\
             for (var i = 0; i < 16; i++) { el.innerHTML = \"v\" + i; }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let rows = classify_nests(&eng, &HashMap::new());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].dom_access);
        assert_eq!(rows[0].parallelization_difficulty, Difficulty::VeryHard);
    }
}
