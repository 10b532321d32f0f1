//! Differential tests: the bytecode VM backend must be observationally
//! identical to the reference tree-walking evaluator — same console
//! output, same error messages, and the *same virtual-clock tick count*
//! (the analysis results are tick-denominated, so a VM that runs the
//! right program on the wrong clock would silently skew every table).
//!
//! Backends are selected per-interpreter via
//! [`ceres_interp::set_default_backend`], which `Interp::new` snapshots,
//! so both variants can run side by side in one process.

use ceres_core::engine::run_instrumented;
use ceres_core::Mode;
use ceres_interp::ops::{to_int32, to_number, to_uint32};
use ceres_interp::value::next_object_id;
use ceres_interp::{set_default_backend, Backend, Interp, Value};
use proptest::prelude::*;

/// Build an interpreter pinned to `backend` (the thread-local override is
/// cleared again immediately — `Interp::new` snapshots it).
fn interp_on(backend: Backend, seed: u64) -> Interp {
    set_default_backend(Some(backend));
    let interp = Interp::new(seed);
    set_default_backend(None);
    interp
}

/// Run `src` on both backends; return `(console, ticks, error-debug)`.
fn run_both(src: &str) -> [(Vec<String>, u64, Option<String>); 2] {
    [Backend::Tree, Backend::Vm].map(|b| {
        let mut interp = interp_on(b, 42);
        let err = interp.eval_source(src).err().map(|c| format!("{c:?}"));
        (interp.console.clone(), interp.clock.now_ticks(), err)
    })
}

fn assert_equivalent(src: &str) {
    let [tree, vm] = run_both(src);
    assert_eq!(tree.0, vm.0, "console diverged on:\n{src}");
    assert_eq!(tree.2, vm.2, "completion diverged on:\n{src}");
    assert_eq!(
        tree.1, vm.1,
        "virtual clock diverged (tree={} vm={}) on:\n{src}",
        tree.1, vm.1
    );
}

#[test]
fn control_flow_battery_matches_tree_walker() {
    for src in [
        // Loops, break/continue, nested.
        "var s = 0;\nfor (var i = 0; i < 10; i++) {\n  if (i === 3) { continue; }\n  if (i === 7) { break; }\n  for (var j = 0; j < i; j++) { s += j; }\n}\nconsole.log(s);",
        // do-while and while with compound updates.
        "var n = 0, k = 1;\ndo { k *= 2; n++; } while (k < 100);\nwhile (n > 0) { n -= 2; }\nconsole.log(k, n);",
        // try/catch/finally ordering, finally overriding a return.
        "function f() {\n  try { throw { message: 'boom' }; }\n  catch (e) { console.log('caught', e.message); return 1; }\n  finally { console.log('finally'); }\n}\nfunction g() {\n  try { return 'a'; } finally { return 'b'; }\n}\nconsole.log(f(), g());",
        // Exception unwinding across call frames, with finally on the way.
        "function deep(n) {\n  try {\n    if (n === 0) { throw new Error('bottom'); }\n    deep(n - 1);\n  } finally { console.log('unwind', n); }\n}\ntry { deep(3); } catch (e) { console.log('top', e.message); }",
        // Switch: fallthrough, default in the middle, break.
        "function pick(x) {\n  var out = '';\n  switch (x) {\n    case 1: out += 'a';\n    case 2: out += 'b'; break;\n    default: out += 'd';\n    case 3: out += 'c';\n  }\n  return out;\n}\nconsole.log(pick(1), pick(2), pick(3), pick(9));",
        // for-in over objects and (sparse-ish) arrays, with delete.
        "var o = { a: 1, b: 2, c: 3 };\ndelete o.b;\nvar keys = [];\nfor (var k in o) { keys.push(k); }\nvar arr = [10, 20, 30];\nfor (var idx in arr) { keys.push(idx); }\nconsole.log(keys.join(','));",
        // break out of for-in (iterator teardown path).
        "var o = { a: 1, b: 2, c: 3 };\nvar seen = 0;\nfor (var k in o) { seen++; if (seen === 2) { break; } }\nconsole.log(seen);",
        // Closures, counters, shadowing.
        "function counter() {\n  var n = 0;\n  return function () { n++; return n; };\n}\nvar c1 = counter(), c2 = counter();\nc1(); c1();\nconsole.log(c1(), c2());",
        // Prototypes, new, instanceof, this.
        "function Point(x, y) { this.x = x; this.y = y; }\nPoint.prototype.norm = function () { return this.x * this.x + this.y * this.y; };\nvar p = new Point(3, 4);\nconsole.log(p.norm(), p instanceof Point, 'x' in p);",
        // typeof on undeclared names, delete on members/elements.
        "console.log(typeof missing, typeof 1, typeof undefined);\nvar a = [1, 2, 3];\ndelete a[1];\nconsole.log(a[1], a.length);",
        // Coercion-heavy expressions (the numeric-semantics sweep).
        "console.log(1 + '2', '3' * '4', '0x10' | 0, ' 12 ' - 2, [] + {}, +'1e3');\nconsole.log((4294967296 + 5) | 0, (-7) >>> 0, 1 / 0, -1 / 0, 0 / 0);",
        // Logical short-circuit, comma, conditional: evaluation order.
        "var log = [];\nfunction t(x) { log.push(x); return x; }\nt(1) && t(2);\nt(0) && t(3);\nt(0) || t(4);\nvar v = (t(5), t(6));\nvar w = t(7) ? t(8) : t(9);\nconsole.log(log.join(''), v, w);",
        // Update/compound assignment on identifiers, members, elements.
        "var o = { n: 1 }, a = [1, 2], i = 0;\no.n += 2; a[i] *= 5; a[i++] -= 1;\nvar pre = ++o.n, post = a[0]++;\nconsole.log(o.n, a[0], a[1], i, pre, post);",
        // Callee error message rewriting ("X is not a function").
        "var obj = { f: 1 };\ntry { obj.f(); } catch (e) { console.log(e.message); }\ntry { missingFn(); } catch (e) { console.log(e.message); }",
        // Higher-order array builtins driving JS callbacks from natives.
        "var xs = [1, 2, 3, 4];\nvar ys = xs.map(function (x) { return x * x; }).filter(function (x) { return x % 2 === 0; });\nvar sum = ys.reduce(function (a, b) { return a + b; }, 0);\nxs.forEach(function (x) { sum += x; });\nconsole.log(ys.join('+'), sum);",
        // Recursion with var hoisting and arguments.
        "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\nfunction count() { return arguments.length + arguments[0]; }\nconsole.log(fib(12), count(10, 20, 30));",
    ] {
        assert_equivalent(src);
    }
}

#[test]
fn timers_and_events_match_tree_walker() {
    let src = "var order = [];\n\
               setTimeout(function () { order.push('b'); }, 5);\n\
               setTimeout(function () { order.push('a'); order.push(String(Date.now() >= 0)); }, 1);\n\
               order.push('sync');\n\
               setTimeout(function () { console.log(order.join(',')); }, 10);";
    let results = [Backend::Tree, Backend::Vm].map(|b| {
        let mut interp = interp_on(b, 42);
        interp.eval_source(src).expect("main script");
        interp.run_events(64).expect("event loop");
        (interp.console.clone(), interp.clock.now_ticks())
    });
    assert_eq!(results[0], results[1], "event-loop run diverged");
}

#[test]
fn watchdog_trips_at_identical_tick() {
    let src = "var i = 0;\nwhile (true) { i++; }\n";
    let errs = [Backend::Tree, Backend::Vm].map(|b| {
        let mut interp = interp_on(b, 42);
        interp.max_ticks = Some(5_000);
        format!("{:?}", interp.eval_source(src).unwrap_err())
    });
    assert!(
        errs[0].contains("watchdog"),
        "expected watchdog: {}",
        errs[0]
    );
    assert_eq!(errs[0], errs[1], "watchdog tick / message diverged");
}

#[test]
fn watchdog_unwinds_through_finally_identically() {
    // The reference evaluator enters `finally` even while unwinding a
    // fatal (watchdog) abort — where the very first charge inside the
    // finally body re-trips the watchdog. The VM's unwind tables must
    // reproduce that exact dance: same (empty) console, same fatal
    // message, same final tick.
    let src = "var i = 0;\ntry {\n  while (true) { i++; }\n} finally { console.log('finally ran', i > 0); }\n";
    let results = [Backend::Tree, Backend::Vm].map(|b| {
        let mut interp = interp_on(b, 42);
        interp.max_ticks = Some(5_000);
        let err = format!("{:?}", interp.eval_source(src).unwrap_err());
        (interp.console.clone(), err, interp.clock.now_ticks())
    });
    assert!(
        results[0].1.contains("watchdog"),
        "expected fatal: {:?}",
        results[0]
    );
    assert_eq!(results[0], results[1]);
}

/// A program that reaches every operand shape the typed hook lowering
/// handles: literal and computed keys, a 2-argument getprop whose base is
/// not a variable, an mcall with a `null` base, `o.k op= v`, `o.k++` and
/// `--o.k`, a mutating and a non-mutating method call, declvars in a
/// nested function and in a `catch` block whose parameter shadows a
/// global and is itself written, 2- and 3-argument wrvar,
/// `this.x = …` in a constructor, a write to an implicit global, and a
/// closure writing a captured variable; timers make tasks with read and
/// write sets. A binding slot resolved in the wrong scope shows up as a
/// different warning or task set.
const HOOK_SHAPES: &str = "var SIZE = 6;\n\
    function Particle(x) { this.x = x; this.v = 0; }\n\
    function make(n) { return { go: function () { return n; }, inner: { k: n } }; }\n\
    function counter() { var c = 0; return function (d) { c = c + d; return c; }; }\n\
    var bump = counter();\n\
    var grid = [], keys = ['a', 'b', 'c'], out = [], total = 0, mixed;\n\
    var o = { a: 1, b: 2, c: 3, n: 0 }, e = 'outer';\n\
    for (var i = 0; i < SIZE; i++) {\n\
      var p = new Particle(i);\n\
      grid[i] = p;\n\
      p.v += i * 2;\n\
      o[keys[i % 3]] += 1;\n\
      o.n++;\n\
      --o.n;\n\
      o[keys[0]]++;\n\
      total = total + grid[i].x;\n\
      out.push(bump(i));\n\
      mixed = i % 2 === 0 ? i : 's' + i;\n\
      make(i).go();\n\
      keys.indexOf('b');\n\
      make(i).inner.k = o[keys[1]];\n\
      implicitGlobal = i;\n\
      try { if (i % 2) { throw { code: i }; } } catch (e) { var caught = e.code; e.code = i; e = i; }\n\
      e = 'after' + i;\n\
      (function nested(a) { var b = a * 2; function deeper() { var z = b; return z; } return deeper(); })(i);\n\
    }\n\
    for (var key in o) { total += o[key]; }\n\
    setTimeout(function () { for (var j = 0; j < 3; j++) { o.a = o.a + j; grid[j].v = j; } }, 5);\n\
    setTimeout(function () { var s = 0; for (var j = 0; j < 3; j++) { s += o.b; } total = s; }, 10);\n\
    console.log(total, o.n, out.join(','), typeof implicitGlobal, mixed, caught, e);";

/// Everything observable about one instrumented run's hook stream.
#[derive(Debug, PartialEq)]
struct HookStream {
    console: Vec<String>,
    ticks: u64,
    tally: Vec<(&'static str, u64)>,
    stack_pushes: u64,
    records: Vec<(ceres_core::LoopId, u64, u64)>,
    warnings: Vec<String>,
    polymorphic: Vec<(String, Vec<&'static str>)>,
    tasks: Vec<(String, Vec<u64>, Vec<u64>)>,
    /// Every (variable or property subject, binding id) written inside a
    /// loop, with the types written.
    bindings: Vec<(String, u64, Vec<&'static str>)>,
    next_object_id: u64,
}

/// Run `f` on a fresh thread: object and binding ids are thread-local
/// counters, so two runs compare id for id only from the same start.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("run panicked")
}

fn hook_stream(src: &'static str, mode: Mode, backend: Backend) -> HookStream {
    on_fresh_thread(move || {
        set_default_backend(Some(backend));
        let out = run_instrumented(src, mode, 7);
        set_default_backend(None);
        let (mut interp, engine) = out.unwrap_or_else(|e| panic!("{mode:?} on {backend:?}: {e:?}"));
        interp.run_events(64).expect("event loop");
        let eng = engine.borrow();
        let mut records: Vec<_> = eng
            .records
            .iter()
            .map(|(id, r)| (*id, r.instances, r.trips.total().to_bits()))
            .collect();
        records.sort();
        let mut bindings: Vec<_> = eng
            .observed_types
            .iter()
            .map(|((s, id), tys)| {
                (
                    ceres_interp::resolve(*s).to_string(),
                    *id,
                    tys.names().collect(),
                )
            })
            .collect();
        bindings.sort();
        let sorted = |set: &ceres_interp::FxHashSet<u64>| {
            let mut v: Vec<u64> = set.iter().copied().collect();
            v.sort();
            v
        };
        HookStream {
            console: interp.console.clone(),
            ticks: interp.clock.now_ticks(),
            tally: eng.tally.nonzero(),
            stack_pushes: eng.stack_pushes,
            records,
            warnings: eng
                .warnings
                .iter()
                .map(|w| {
                    format!(
                        "{:?} `{}` op={:?} nest={} count={} | {}",
                        w.kind,
                        w.subject,
                        w.op,
                        w.nest_root,
                        w.count,
                        ceres_core::render(&w.characterization, &eng.loops)
                    )
                })
                .collect(),
            polymorphic: eng.polymorphic_subjects(),
            tasks: eng
                .tasks
                .iter()
                .map(|t| (t.label.clone(), sorted(&t.reads), sorted(&t.writes)))
                .collect(),
            bindings,
            next_object_id: next_object_id(),
        }
    })
}

#[test]
fn instrumented_runs_fire_identical_hook_streams() {
    // The analysis hooks must fire in the same order with the same
    // payloads on both backends: identical tallies, stack accounting,
    // loop records, warnings, polymorphism and task sets.
    let basic = "var data = [];\nfor (var i = 0; i < 16; i++) { data[i] = i; }\n\
                 var acc = { total: 0 };\n\
                 for (var t = 0; t < 3; t++) {\n\
                   for (var j = 0; j < 16; j++) { acc.total += data[j] * 2; }\n\
                 }\nconsole.log(acc.total);";
    for src in [basic, HOOK_SHAPES] {
        for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
            let tree = hook_stream(src, mode, Backend::Tree);
            let vm = hook_stream(src, mode, Backend::Vm);
            assert_eq!(tree, vm, "{mode:?} instrumentation diverged on:\n{src}");
        }
    }
    // The shapes program really reaches what it is meant to reach.
    let dep = hook_stream(HOOK_SHAPES, Mode::Dependence, Backend::Vm);
    assert_eq!(
        dep.tally.len(),
        ceres_instrument::hooks::ALL_HOOKS.len() - 2,
        "every dependence hook fires: {:?}",
        dep.tally
    );
    assert!(
        dep.polymorphic.iter().any(|(s, _)| s == "mixed"),
        "{:?}",
        dep.polymorphic
    );
    assert_eq!(dep.tasks.len(), 2);
    assert!(dep.tasks.iter().all(|t| !t.1.is_empty() && !t.2.is_empty()));
}

/// Programs that reach every shape of the VM's compile-time prologue: a
/// body binds `this` and `arguments` only when it can name them, and
/// otherwise uses up their ids without allocating. Each calls its
/// functions inside a loop, so Dependence mode records the binding id of
/// every local they write.
const PROLOGUE_CASES: &[&str] = &[
    // Read, write, index-write and `typeof` of `arguments`.
    "function sum() { var t = 0; for (var i = 0; i < arguments.length; i++) { t += arguments[i]; } return t; }\n\
     function setFirst(a) { arguments[0] = 9; return a + ':' + arguments[0]; }\n\
     function replace(a) { arguments = [a, a]; return arguments.length; }\n\
     function kind() { var k = typeof arguments; return k; }\n\
     function none(a, b) { var c = a + b; return c; }\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { out.push(sum(r, 2, 3), setFirst(r), replace(r), kind(), none(r, 1)); }\n\
     console.log(out.join(','));",
    // A parameter, a var and a function named `arguments`, and other
    // redeclarations, which keep the first binding.
    "function p(arguments) { var t = arguments; return t; }\n\
     function q(a) { var arguments; var t = typeof arguments + a; return t; }\n\
     function q2(a) { var arguments = a * 2; return arguments; }\n\
     function q3(a) { var arguments; var t = a; return t; }\n\
     function fa(a) { function arguments() { return 'fn'; } var t = a; return t; }\n\
     function dup(a, a) { var t = a; return t; }\n\
     function twice() { function h() { return 1; } function h() { return 2; } var t = h(); return t; }\n\
     function shadow(v) { var v; function v() { return 0; } var t = typeof v; return t; }\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { out.push(p(r), q(r), q2(r), q3(r), fa(r), dup(r, r + 1), twice(), shadow(r)); }\n\
     console.log(out.join(','));",
    // Nested closures, each reading its own `arguments` and `this`.
    "function outer(a) {\n\
       var self = this;\n\
       var inner = function (b) { var t = arguments.length + ':' + (this === self) + ':' + arguments[0]; return t; };\n\
       var t = arguments.length + '/' + inner(a, 1, 2) + '/' + inner.call(self, 5);\n\
       return t;\n\
     }\n\
     var o = { m: outer, tag: 'o' };\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { out.push(o.m(r, r), outer(r)); }\n\
     console.log(out.join(','));",
    // `this` read only by a nested function.
    "function make(x) { var y = x * 2; return function () { var t = this.v + y; return t; }; }\n\
     var holder = { v: 10 };\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { holder.f = make(r); out.push(holder.f()); }\n\
     console.log(out.join(','));",
    // `f.call`, `f.apply` and `new F`, with and without `this` in the body.
    "function withThis(a, b) { var t = this.k + a + b; return t; }\n\
     function without(a, b) { var t = a * b; return t; }\n\
     function Point(x) { this.x = x; }\n\
     function Plain(x) { var y = x + 1; }\n\
     var ctx = { k: 100 };\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) {\n\
       out.push(withThis.call(ctx, r, 1), withThis.apply(ctx, [r, 2]), without.call(null, r, 3), without.apply(ctx, [r, 4]));\n\
       var p = new Point(r), q = new Plain(r);\n\
       out.push(p.x, typeof q, q instanceof Plain);\n\
     }\n\
     console.log(out.join(','));",
    // `catch (arguments)` and `for (arguments in o)`.
    "function c(a) { try { throw a + 1; } catch (arguments) { var t = arguments; return t; } }\n\
     function c2(a) { try { throw a; } catch (arguments) { } var t = typeof a; return t; }\n\
     function fi(o) { var ks = []; for (arguments in o) { ks.push(arguments); } return ks.join(''); }\n\
     function fv(o) { var n = 0; for (var arguments in o) { n++; } return n; }\n\
     function fe(o) { for (arguments in o) { } var t = 1; return t; }\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { out.push(c(r), c2(r), fi({ a: 1, b: 2 }), fv({ x: 1, y: 2 }), fe({ z: r })); }\n\
     console.log(out.join(','));",
    // A program that binds a `__ceres_*` name, so its hook calls go by
    // name through the caller's scope, and writes `this.x`.
    "var __ceres_local = 0;\n\
     function Thing(v) { this.x = v; var w = v * 2; this.y = w; }\n\
     function bump(t) { t.x += 1; var n = arguments.length; return n; }\n\
     var out = [];\n\
     for (var r = 0; r < 3; r++) { var t = new Thing(r); out.push(bump(t, r), t.x, t.y); __ceres_local = r; }\n\
     console.log(out.join(','));",
];

#[test]
fn prologue_layouts_match_the_tree_walker() {
    for &src in PROLOGUE_CASES {
        // Console, completion, ticks and the next object id, uninstrumented.
        let [tree, vm] = [Backend::Tree, Backend::Vm].map(|b| {
            on_fresh_thread(move || {
                let mut interp = interp_on(b, 42);
                let err = interp.eval_source(src).err().map(|c| format!("{c:?}"));
                (
                    interp.console.clone(),
                    err,
                    interp.clock.now_ticks(),
                    next_object_id(),
                )
            })
        });
        assert_eq!(tree.1, None, "{src}");
        assert_eq!(tree, vm, "uninstrumented run diverged on:\n{src}");
        // The hook streams of Dependence mode, binding ids included.
        let tree = hook_stream(src, Mode::Dependence, Backend::Tree);
        let vm = hook_stream(src, Mode::Dependence, Backend::Vm);
        assert!(!tree.bindings.is_empty(), "{src}");
        assert_eq!(tree, vm, "Dependence instrumentation diverged on:\n{src}");
    }
}

/// The message of a thrown error value (or the debug form of any other
/// completion), without object ids.
fn error_text(c: &ceres_interp::Control) -> String {
    match c {
        ceres_interp::Control::Throw(Value::Object(o)) => format!(
            "{}: {}",
            o.get_own("name")
                .map(|v| to_string_lossy(&v))
                .unwrap_or_default(),
            o.get_own("message")
                .map(|v| to_string_lossy(&v))
                .unwrap_or_default()
        ),
        other => format!("{other:?}"),
    }
}

fn to_string_lossy(v: &Value) -> String {
    ceres_interp::ops::to_string(v).to_string()
}

#[test]
fn typed_hooks_without_an_engine_fail_like_calls_by_name() {
    // No engine, no natives: with no sink installed, hook calls are
    // ordinary calls on both backends, so the first one throws the same
    // ReferenceError at the same tick.
    for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
        let (instrumented, _) = ceres_instrument::instrument_source(HOOK_SHAPES, mode).unwrap();
        let results = [Backend::Tree, Backend::Vm].map(|b| {
            let mut interp = interp_on(b, 7);
            let err = interp
                .eval_source(&instrumented)
                .expect_err("hooks are undefined");
            (error_text(&err), interp.clock.now_ticks())
        });
        assert!(results[0].0.contains("is not defined"), "{results:?}");
        assert_eq!(results[0], results[1], "{mode:?}");
    }
}

#[test]
fn typed_hooks_without_an_engine_pass_plain_natives_the_same_arguments() {
    // Plain natives under every hook name, logging their arguments: with
    // no sink installed, the VM calls them as ordinary calls, with the
    // same arguments the tree-walker passes.
    for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
        let (instrumented, _) = ceres_instrument::instrument_source(HOOK_SHAPES, mode).unwrap();
        let runs = [Backend::Tree, Backend::Vm].map(|b| {
            let src = instrumented.clone();
            on_fresh_thread(move || {
                let mut interp = interp_on(b, 7);
                let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::<String>::new()));
                for &name in ceres_instrument::hooks::ALL_HOOKS {
                    let log = log.clone();
                    interp.register_native(name, move |_interp, _ctx, args| {
                        log.borrow_mut().push(format!("{name}{args:?}"));
                        // Pass values through where the rewriter expects it.
                        Ok(match name {
                            ceres_instrument::hooks::WRAP => args[0].clone(),
                            ceres_instrument::hooks::WRVAR => {
                                args.get(2).cloned().unwrap_or(Value::Undefined)
                            }
                            _ => Value::Undefined,
                        })
                    });
                }
                let r = interp.eval_source(&src).map_err(|e| error_text(&e));
                let r = r.and_then(|()| interp.run_events(64).map_err(|e| error_text(&e)));
                let log = log.borrow().clone();
                (
                    r.map(|_| ()),
                    log,
                    interp.console.clone(),
                    interp.clock.now_ticks(),
                )
            })
        });
        assert!(runs[0].1.len() >= 8, "{mode:?}: {:?}", runs[0].1);
        assert_eq!(runs[0], runs[1], "{mode:?}");
    }
}

#[test]
fn app_hook_calls_compile_to_typed_instructions() {
    // With a sink installed, every hook call site the rewriter emits into
    // the 12 apps, in every mode, is an `Insn::Hook`: no hook name is
    // loaded for an ordinary call.
    use ceres_interp::bytecode::Insn;
    for w in ceres_workloads::all() {
        for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
            let (instrumented, _) = ceres_instrument::instrument_source(w.source, mode).unwrap();
            let program = ceres_parser::parse_program(&instrumented).unwrap();
            let module = ceres_interp::compile::compile_program(&program, true);
            let code = module.chunks.iter().flat_map(|c| c.code.iter());
            let mut typed = 0;
            for insn in code {
                match insn {
                    Insn::Hook { .. } => typed += 1,
                    Insn::LoadVar { sym, .. } => {
                        let name = ceres_interp::resolve(*sym);
                        assert!(
                            !ceres_instrument::hooks::ALL_HOOKS.contains(&&*name),
                            "{} {mode:?}: `{name}` compiled to an ordinary call",
                            w.slug
                        );
                    }
                    _ => {}
                }
            }
            assert!(typed > 0, "{} {mode:?}", w.slug);
        }
    }
}

#[test]
fn an_unbound_gate_throws_before_its_arguments_run() {
    // A `__ceres_*` name outside the rewriter's hooks is an ordinary call:
    // the callee resolves, and throws, before any argument is evaluated,
    // with or without a sink installed.
    let src = "function f() { console.log('argument evaluated'); return 1; }\n\
               try { __ceres_par_iter(f()); } catch (e) { console.log(e.message); }";
    assert_equivalent(src);
    let runs = [Backend::Tree, Backend::Vm].map(|b| {
        set_default_backend(Some(b));
        let out = run_instrumented(src, Mode::Dependence, 7);
        set_default_backend(None);
        let (interp, _engine) = out.unwrap_or_else(|e| panic!("{b:?}: {e:?}"));
        (interp.console.clone(), interp.clock.now_ticks())
    });
    assert_eq!(runs[0].0, ["__ceres_par_iter is not defined"]);
    assert_eq!(runs[0], runs[1], "console or ticks diverged");
}

#[test]
fn a_program_that_defines_a_hook_name_keeps_its_own_function() {
    // Inside `run`, the program's own `__ceres_iter` shadows the engine's
    // hook of that name, so its calls (and the instrumented loop's) must
    // reach the program's function on the VM too, not the registered
    // native.
    let src = "function run() {\n\
                 function __ceres_iter(id) { console.log('own iter', id); return id; }\n\
                 for (var i = 0; i < 2; i++) { __ceres_iter(10 + i); }\n\
               }\n\
               run();";
    let consoles = [Backend::Tree, Backend::Vm].map(|b| {
        set_default_backend(Some(b));
        let out = run_instrumented(src, Mode::LoopProfile, 7);
        set_default_backend(None);
        let (interp, _engine) = out.unwrap_or_else(|e| panic!("{b:?}: {e:?}"));
        interp.console.clone()
    });
    assert!(
        consoles[0].iter().any(|l| l.contains("own iter 10")),
        "{consoles:?}"
    );
    assert_eq!(consoles[0], consoles[1], "console diverged");
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ExprSpec {
    seeds: Vec<i32>,
    use_helper: bool,
    use_try: bool,
    use_switch: bool,
    loop_n: usize,
    divisor: i32,
}

fn expr_spec() -> impl Strategy<Value = ExprSpec> {
    (
        prop::collection::vec(-999i32..1000, 3..8),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1usize..12,
        1i32..7,
    )
        .prop_map(
            |(seeds, use_helper, use_try, use_switch, loop_n, divisor)| ExprSpec {
                seeds,
                use_helper,
                use_try,
                use_switch,
                loop_n,
                divisor,
            },
        )
}

fn render_expr_program(spec: &ExprSpec) -> String {
    let mut src = String::new();
    src.push_str("var vals = [");
    let seeds: Vec<String> = spec.seeds.iter().map(|s| s.to_string()).collect();
    src.push_str(&seeds.join(", "));
    src.push_str("];\nvar acc = 0;\nvar obj = { hits: 0 };\n");
    if spec.use_helper {
        src.push_str("function step(x, i) { return (x * 3 - i) | 0; }\n");
    }
    let d = spec.divisor;
    src.push_str(&format!("for (var t = 0; t < {}; t++) {{\n", spec.loop_n));
    src.push_str("  for (var i = 0; i < vals.length; i++) {\n");
    if spec.use_helper {
        src.push_str("    var v = step(vals[i], i);\n");
    } else {
        src.push_str("    var v = (vals[i] * 3 - i) | 0;\n");
    }
    if spec.use_try {
        src.push_str(&format!(
            "    try {{ if (v % {d} === 0) {{ throw {{ v: v }}; }} acc += v; }}\n    catch (e) {{ obj.hits++; acc -= e.v; }}\n    finally {{ acc = acc | 0; }}\n"
        ));
    } else {
        src.push_str(&format!(
            "    if (v % {d} === 0) {{ obj.hits++; acc -= v; }} else {{ acc += v; }}\n"
        ));
    }
    if spec.use_switch {
        src.push_str(&format!(
            "    switch (((v % {d}) + {d}) % {d}) {{ case 0: acc += 1; break; case 1: acc += 2; default: acc += 3; }}\n"
        ));
    }
    src.push_str("  }\n}\n");
    src.push_str("console.log(acc, obj.hits, String(acc / 7), vals.join('|'));\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tree and VM agree — output *and* tick count — on generated
    /// expression programs mixing arithmetic, exceptions, and switches.
    #[test]
    fn generated_programs_run_identically_on_both_backends(spec in expr_spec()) {
        let src = render_expr_program(&spec);
        let [tree, vm] = run_both(&src);
        prop_assert_eq!(&tree.2, &None::<String>, "tree run failed\n{}", &src);
        prop_assert_eq!(&tree.0, &vm.0, "console diverged\n{}", &src);
        prop_assert_eq!(tree.1, vm.1, "tick count diverged\n{}", &src);
    }

    /// ES5 ToString(ToNumber(s)) round-trip: printing any finite double
    /// and reading it back is exact (shortest-round-trip printing), with
    /// `-0` collapsing to `+0` (ES5 ToString drops the sign of zero).
    #[test]
    fn number_to_string_to_number_round_trips(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        if !x.is_finite() {
            continue; // body runs inside the case loop; skip NaN/Inf bit patterns
        }
        let printed = ceres_ast::number_to_string(x);
        let back = to_number(&Value::str(&printed));
        if x == 0.0 {
            prop_assert_eq!(back, 0.0);
            prop_assert!(back.is_sign_positive(), "-0 must print as \"0\"");
        } else {
            prop_assert_eq!(back, x, "{} reparsed as {}", printed, back);
        }
    }

    /// ToInt32/ToUint32 are the mod-2^32 reductions of any integral
    /// double, related by a plain sign cast.
    #[test]
    fn to_int32_is_mod_2_pow_32(v in -(1i64 << 53)..(1i64 << 53), k in -4i64..5) {
        let shifted = v as f64 + (k as f64) * 4294967296.0;
        if shifted.abs() > 9007199254740991.0 {
            continue; // would round: no longer integral
        }
        let n = Value::Num(shifted);
        let expected = (v.rem_euclid(1 << 32)) as u32;
        prop_assert_eq!(to_uint32(&n), expected);
        prop_assert_eq!(to_int32(&n), expected as i32);
        prop_assert_eq!(to_int32(&n) as u32, to_uint32(&n));
    }

    /// String round-trip through the interpreter itself: `String(x)`
    /// then `Number(...)` inside a generated program gives `x` back, on
    /// both backends, matching the host-side coercion functions.
    #[test]
    fn interp_level_numeric_round_trip(m in -9007199254740991i64..9007199254740992i64) {
        let x = m as f64;
        let src = format!(
            "var s = String({x});\nvar back = Number(s);\nconsole.log(s, back === {x});"
        );
        let [tree, vm] = run_both(&src);
        prop_assert_eq!(&tree.0, &vm.0);
        prop_assert_eq!(tree.1, vm.1);
        let expected = format!("{} true", ceres_ast::number_to_string(x));
        prop_assert_eq!(&vm.0[..], &[expected][..]);
    }
}
