//! Differential tests for the fork-join parallel executor: a gated loop
//! run on W workers must be *byte-identical* to the same gated program on
//! one worker — same console, same global-state render, same canvas
//! checksums, same final virtual clock — for every worker count, or the
//! run must be refused outright. There is no third outcome: the
//! equivalence gate ([`ceres_core::equivalence`]) is the contract the
//! auto-parallelizer ships under (docs/PARALLELIZE.md).

use ceres_core::{equivalence, run_parallel, LoopId, ParallelError, ParallelSpec};
use proptest::prelude::*;

/// Spec for an embarrassingly-parallel map with function-local scratch
/// (the real-app idiom: `var` temporaries live in a callee's activation,
/// not the global scope).
fn map_spec(n: u64, inner: u64, target: Option<u32>, workers: usize) -> ParallelSpec {
    ParallelSpec {
        source: format!(
            "var out = [];\n\
             function work(i) {{\n\
               var acc = 0;\n\
               for (var j = 0; j < {inner}; j++) {{ acc = acc + i * j + (acc % 7); }}\n\
               return acc;\n\
             }}\n\
             for (var i = 0; i < {n}; i++) {{ out[i] = work(i); }}\n\
             var done = out.length;"
        ),
        target: target.map(LoopId),
        workers,
        seed: 2015,
        max_events: 1000,
        max_ticks: None,
        wall_budget: Some(std::time::Duration::from_secs(60)),
        interaction: None,
    }
    // LoopId 1 is `work`'s inner loop (numbered first in source order);
    // the map loop is LoopId 2.
}

const MAP_TARGET: u32 = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte-identity across arbitrary worker counts and loop sizes,
    /// including W > trip count (some workers own nothing).
    #[test]
    fn parallel_is_byte_identical_across_worker_counts(
        n in 1u64..40,
        inner in 1u64..30,
        workers in 2usize..7,
    ) {
        let seq = run_parallel(&map_spec(n, inner, Some(MAP_TARGET), 1)).unwrap();
        let par = run_parallel(&map_spec(n, inner, Some(MAP_TARGET), workers)).unwrap();
        let eq = equivalence(&seq, &par);
        prop_assert!(eq.identical, "n={n} inner={inner} W={workers}: {:?}", eq.diffs);
        prop_assert_eq!(seq.final_ticks, par.final_ticks);
        prop_assert_eq!(&seq.state_digest, &par.state_digest);
        // The gated program must also match the ungated one semantically
        // (clock aside — gating costs ticks).
        let plain = run_parallel(&map_spec(n, inner, None, 1)).unwrap();
        prop_assert_eq!(&plain.state_render, &seq.state_render);
        prop_assert_eq!(&plain.console, &seq.console);
    }
}

/// Cross-iteration accumulation through a global is a genuine dependence:
/// the runtime must refuse (write conflict), never emit a wrong answer.
#[test]
fn accumulator_dependence_is_refused_not_corrupted() {
    let spec = |workers| ParallelSpec {
        source: "var total = 0;\n\
                 for (var i = 0; i < 30; i++) { total = total + i; }\n\
                 var after = total * 2;"
            .to_string(),
        target: Some(LoopId(1)),
        workers,
        seed: 2015,
        max_events: 1000,
        max_ticks: None,
        wall_budget: Some(std::time::Duration::from_secs(60)),
        interaction: None,
    };
    // Sequential gated run works and computes the right sum.
    let seq = run_parallel(&spec(1)).unwrap();
    assert!(
        seq.state_render.contains("total = 435"),
        "{}",
        seq.state_render
    );
    // Parallel run is refused.
    match run_parallel(&spec(3)) {
        Err(ParallelError::WriteConflict(msg)) => {
            assert!(msg.contains("total"), "{msg}");
        }
        other => panic!("expected a write conflict, got {other:?}"),
    }
}

/// A not-ok nest shape — the transform's static preconditions — is
/// refused before any thread spawns.
#[test]
fn not_ok_nests_are_refused_statically() {
    let refusal = |source: &str, target: u32| {
        run_parallel(&ParallelSpec {
            source: source.to_string(),
            target: Some(LoopId(target)),
            workers: 2,
            seed: 2015,
            max_events: 1000,
            max_ticks: None,
            wall_budget: Some(std::time::Duration::from_secs(60)),
            interaction: None,
        })
        .unwrap_err()
    };
    // Impure body: console inside the loop.
    match refusal("for (var i = 0; i < 8; i++) { console.log(i); }", 1) {
        ParallelError::Parallelize(e) => assert!(e.to_string().contains("console"), "{e}"),
        other => panic!("expected static refusal, got {other:?}"),
    }
    // Loop-level break.
    match refusal("for (var i = 0; i < 8; i++) { if (i === 3) { break; } }", 1) {
        ParallelError::Parallelize(e) => assert!(e.to_string().contains("break"), "{e}"),
        other => panic!("expected static refusal, got {other:?}"),
    }
    // No such loop id.
    match refusal("for (var i = 0; i < 8; i++) { }", 99) {
        ParallelError::Parallelize(_) => {}
        other => panic!("expected static refusal, got {other:?}"),
    }
}

/// Relaxed headers (nonzero start, stride, `<=`) still verify end to end.
#[test]
fn strided_header_parallelizes_byte_identically() {
    let spec = |workers| {
        ParallelSpec {
        source: "var out = [];\n\
                 function cell(y) { var s = 0; for (var j = 0; j < 25; j++) { s = s + y * j; } return s; }\n\
                 for (var y = 1; y <= 20; y += 2) { out[y] = cell(y); }\n\
                 var done = 1;"
            .to_string(),
        target: Some(LoopId(2)),
        workers,
        seed: 2015,
        max_events: 1000,
        max_ticks: None,
        wall_budget: Some(std::time::Duration::from_secs(60)),
        interaction: None,
    }
    };
    let seq = run_parallel(&spec(1)).unwrap();
    let par = run_parallel(&spec(4)).unwrap();
    let eq = equivalence(&seq, &par);
    assert!(eq.identical, "{:?}", eq.diffs);
    assert!(par.par_saved_ticks > 0, "expected a critical-path win");
}

/// Timers scheduled inside the run still fire at identical virtual times
/// after the join (the clock-resync contract).
#[test]
fn events_after_the_join_are_identical() {
    let spec = |workers| {
        ParallelSpec {
        source: "var out = [];\n\
                 function work(i) { var a = 0; for (var j = 0; j < 20; j++) { a = a + i + j; } return a; }\n\
                 var late = 0;\n\
                 setTimeout(function () { late = out[15] + 1; }, 5);\n\
                 for (var i = 0; i < 16; i++) { out[i] = work(i); }\n"
            .to_string(),
        target: Some(LoopId(2)),
        workers,
        seed: 2015,
        max_events: 1000,
        max_ticks: None,
        wall_budget: Some(std::time::Duration::from_secs(60)),
        interaction: None,
    }
    };
    let seq = run_parallel(&spec(1)).unwrap();
    let par = run_parallel(&spec(3)).unwrap();
    assert_eq!(seq.events, par.events);
    let eq = equivalence(&seq, &par);
    assert!(eq.identical, "{:?}", eq.diffs);
    assert!(seq.state_render.contains("late ="), "{}", seq.state_render);
}

fn gated(source: &str, target: Option<u32>, workers: usize) -> ParallelSpec {
    ParallelSpec {
        source: source.to_string(),
        target: target.map(LoopId),
        workers,
        seed: 2015,
        max_events: 1000,
        max_ticks: None,
        wall_budget: Some(std::time::Duration::from_secs(60)),
        interaction: None,
    }
}

/// Each iteration touches only its own slots and its own pre-existing
/// `cells[i]` and `objs[i]`, through every kind of write the merge
/// carries: index and named writes, growth holes, every mutating array
/// method, `delete`, compound assignment and `++`, fresh nested objects
/// and arrays with `undefined` properties and elements, one fresh object
/// stored in two slots, an `undefined` in a new key of a pre-existing
/// object, an object made by `new` with its prototype, a fresh object
/// that refers to itself, a pre-existing object moved to another slot, a
/// function, a native function and a canvas context that existed at entry,
/// an implicit global, strings, `-0` and NaN. Loop 1 sets up; loop 2 is
/// the target.
const EVERY_WRITE: &str = "var N = 9;\n\
    var cells = [], objs = [], olds = [], grow = [], fresh = [], twinA = [], twinB = [], moved = [], ctor = [], cyc = [];\n\
    var fns = [], maxes = [], ctxs = [];\n\
    var shared = function () { return 7; };\n\
    var cx = document.getElementById('canvas').getContext('2d');\n\
    function V(x) { this.x = x; }\n\
    V.prototype.twice = function () { return this.x * 2; };\n\
    for (var s = 0; s < N; s++) {\n\
      cells[s] = [s, s + 1, s + 2, s + 3, s + 4];\n\
      objs[s] = { k: s, n: s * 2, gone: 'x' + s, z: 0, nan: 0 };\n\
      olds[s] = { tag: 'old' + s, inner: [s] };\n\
    }\n\
    function body(i) {\n\
      var c = cells[i];\n\
      c[0] = c[0] * 10;\n\
      c.label = 'cell' + i;\n\
      c.push(i * 3, i * 4);\n\
      c.pop();\n\
      c.shift();\n\
      c.unshift(-i);\n\
      c.splice(1, 2, 7, 8, 9);\n\
      c.reverse();\n\
      c.sort();\n\
      var o = objs[i];\n\
      delete o.gone;\n\
      o.k += 5;\n\
      o.n++;\n\
      o.s = 'str' + i;\n\
      o.z = -0;\n\
      o.nan = NaN;\n\
      o.flag = undefined;\n\
      grow[2 * i + 1] = i;\n\
      fresh[i] = { a: [i, { b: i }, undefined], c: { d: [1, 2] }, u: undefined };\n\
      var f = { v: i };\n\
      twinA[i] = f;\n\
      twinB[i] = f;\n\
      ctor[i] = new V(i);\n\
      var n = { id: i };\n\
      n.self = n;\n\
      n.kids = [n, { up: n }];\n\
      cyc[i] = n;\n\
      moved[i] = olds[i];\n\
      olds[i] = null;\n\
      fns[i] = shared;\n\
      maxes[i] = Math.max;\n\
      ctxs[i] = cx;\n\
      if (i === 3) { made = 'implicit'; }\n\
    }\n\
    for (var i = 0; i < N; i++) { body(i); }\n\
    var summary = cells[4].join(',') + '|' + objs[4].k + '|' + grow.length + '|' + moved[2].tag + '|' + made;\n\
    var same = twinA[2] === twinB[2];\n\
    var tw = ctor[3].twice();\n\
    var loops = cyc[4].kids[1].up === cyc[4];\n\
    var fcall = fns[4]() + maxes[4](3, 8);\n\
    var fsame = fns[2] === shared && maxes[2] === Math.max && ctxs[2] === cx;";

#[test]
fn every_kind_of_write_merges_byte_identically() {
    let plain = run_parallel(&gated(EVERY_WRITE, None, 1)).unwrap();
    let seq = run_parallel(&gated(EVERY_WRITE, Some(2), 1)).unwrap();
    assert_eq!(plain.state_render, seq.state_render);
    assert_eq!(plain.console, seq.console);
    for needle in [
        "made = \"implicit\"",
        "z: -0.0",
        "nan: NaN",
        "label: \"cell4\"",
        "grow = [\n  undefined,\n  0.0,",
        "same = true",
        "tw = 6.0",
        "loops = true",
        "fcall = 15.0",
        "fsame = true",
    ] {
        assert!(
            seq.state_render.contains(needle),
            "{needle}: {}",
            seq.state_render
        );
    }
    assert!(!seq.state_render.contains("gone"), "{}", seq.state_render);
    for workers in [2, 3, 4] {
        let par = run_parallel(&gated(EVERY_WRITE, Some(2), workers))
            .unwrap_or_else(|e| panic!("W={workers}: {e}"));
        let eq = equivalence(&seq, &par);
        assert!(eq.identical, "W={workers}: {:?}", eq.diffs);
        assert_eq!(seq.state_digest, par.state_digest, "W={workers}");
        assert!(par.merged_ops > 0, "W={workers} merged nothing");
    }
}

/// Two iterations that `splice` into one shared array write its first
/// element differently: a write conflict named by its global path. Two
/// workers that `push` a new object each onto one shared array clash at
/// the slot, as their new objects always differ.
#[test]
fn shared_splice_is_a_write_conflict() {
    for (src, path) in [
        (
            "var shared = [0, 1, 2, 3];\n\
             for (var i = 0; i < 4; i++) { shared.splice(0, 0, i); }",
            "`.shared[0]`",
        ),
        (
            "var out = [];\n\
             for (var i = 0; i < 4; i++) { out.push({ v: i }); }",
            "`.out[0]`",
        ),
    ] {
        assert!(run_parallel(&gated(src, Some(1), 1)).is_ok());
        match run_parallel(&gated(src, Some(1), 2)) {
            Err(ParallelError::WriteConflict(msg)) => assert!(msg.contains(path), "{msg}"),
            other => panic!("expected a write conflict, got {other:?}"),
        }
    }
}

/// A closure made inside a gated body cannot travel between replicas.
#[test]
fn closure_stored_in_a_global_is_unmergeable() {
    let src = "var fns = [];\n\
               for (var i = 0; i < 4; i++) { fns[i] = function () { return 1; }; }";
    match run_parallel(&gated(src, Some(1), 2)) {
        Err(ParallelError::Unmergeable(msg)) => {
            assert!(msg.contains("(function) at .fns["), "{msg}")
        }
        other => panic!("expected an unmergeable refusal, got {other:?}"),
    }
}

/// A gated loop inside a function fills a function-local buffer made
/// before it, and a later loop publishes the buffer to a global. No
/// global reaches the buffer while the gated loop runs, but the write log
/// sees every object that existed at the instance's entry, so the merge
/// carries the buffer and the run is byte-identical at every worker
/// count. A merge built from the globals alone misses it and refuses.
#[test]
fn function_local_buffer_merges() {
    let src = "var result = [];\n\
               function fill(n) {\n\
                 var buf = [];\n\
                 for (var k = 0; k < n; k++) { buf[k] = 0; }\n\
                 for (var i = 0; i < n; i++) { buf[i] = i * i + 1; }\n\
                 for (var j = 0; j < n; j++) { result[j] = buf[j]; }\n\
               }\n\
               fill(16);";
    let plain = run_parallel(&gated(src, None, 1)).unwrap();
    let seq = run_parallel(&gated(src, Some(2), 1)).unwrap();
    assert_eq!(plain.state_render, seq.state_render);
    assert!(seq.state_render.contains("226.0"), "{}", seq.state_render);
    for workers in [2, 4] {
        let par = run_parallel(&gated(src, Some(2), workers))
            .unwrap_or_else(|e| panic!("W={workers}: {e}"));
        let eq = equivalence(&seq, &par);
        assert!(eq.identical, "W={workers}: {:?}", eq.diffs);
    }
}

/// A loop header that reads state the body writes costs a different
/// number of ticks on the worker that ran the body than on the others, so
/// the replicas cannot agree on one shared header cost: the barrier's
/// clock check refuses the run at every W > 1 instead of resyncing to a
/// tick the one-worker run never reaches.
#[test]
fn a_loop_header_that_reads_body_state_is_refused() {
    let src = "var flag = false; var out = [];\n\
               for (var i = 0; i < (flag ? 12 : 12 + 0 * 1); i++) { out[i] = i; flag = i % 2 === 0; }\n\
               var done = out.length;";
    assert!(run_parallel(&gated(src, Some(1), 1)).is_ok());
    for workers in [2, 3, 4] {
        match run_parallel(&gated(src, Some(1), workers)) {
            Err(ParallelError::Diverged(msg)) => {
                assert!(
                    msg.contains("un-owned iteration cost"),
                    "W={workers}: {msg}"
                )
            }
            other => panic!("W={workers}: expected a clock divergence, got {other:?}"),
        }
    }
}
