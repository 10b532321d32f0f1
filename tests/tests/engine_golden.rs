//! The dependence engine's full output for the 12 case-study apps, pinned
//! byte-for-byte.
//!
//! `fleet_metrics.json` pins only warning counts and `fig6_nbody.txt` only
//! N-body's warnings. This golden records, for every app in Dependence
//! mode at scale 1:
//!
//! * every warning in the order it was first recorded: kind, subject, op,
//!   nest root, dedup count and rendered characterization;
//! * `polymorphic_subjects()`;
//! * the task limit study: tasks, total work, critical path, conflicts;
//! * `disjointness()` of every written subject, to 4 decimals.
//!
//! A change to the hooks, the stamp tables, the warning dedup, type
//! observation or the task sets that moves any of these shows up here as a
//! diff. Regenerate deliberately with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test engine_golden`.

use ceres_core::{render, task_limit_study, Mode};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../golden/engine_dep.txt");

fn render_app(out: &mut String, slug: &str, engine: &ceres_core::Engine) {
    let loop_name = |id: ceres_core::LoopId| {
        engine
            .loops
            .get(&id)
            .map(|l| l.display_name())
            .unwrap_or_else(|| format!("{id}"))
    };
    writeln!(out, "== {slug}").unwrap();
    for w in &engine.warnings {
        writeln!(
            out,
            "warning {:?} `{}` op={:?} nest={} count={} | {}",
            w.kind,
            w.subject,
            w.op.as_deref(),
            loop_name(w.nest_root),
            w.count,
            render(&w.characterization, &engine.loops),
        )
        .unwrap();
    }
    for (subject, types) in engine.polymorphic_subjects() {
        writeln!(out, "polymorphic `{subject}` {}", types.join(",")).unwrap();
    }
    let study = task_limit_study(engine);
    writeln!(
        out,
        "tasks {} work={} critical_path={} conflicts={}",
        study.tasks, study.total_work, study.critical_path, study.conflicts
    )
    .unwrap();
    let mut subjects: Vec<(String, f64)> = engine
        .subject_stats
        .iter()
        .map(|(s, stats)| {
            (
                ceres_core::intern::resolve(*s).to_string(),
                stats.disjointness(),
            )
        })
        .collect();
    subjects.sort_by(|a, b| a.0.cmp(&b.0));
    for (subject, d) in subjects {
        writeln!(out, "disjointness `{subject}` {d:.4}").unwrap();
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for w in ceres_workloads::all() {
        let run = ceres_workloads::run_workload(&w, Mode::Dependence, 1)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.slug));
        render_app(&mut out, w.slug, &run.engine.borrow());
    }
    out
}

#[test]
fn engine_output_is_byte_identical_to_golden() {
    let got = render_all();
    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/engine_dep.txt");
        std::fs::write(path, &got).expect("regen golden");
        return;
    }
    if got != GOLDEN {
        let (i, (want, have)) = GOLDEN
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .unwrap_or((0, ("(line counts differ)", "")));
        panic!(
            "engine output drifted from tests/golden/engine_dep.txt at line {}:\n  want: {want}\n  got:  {have}",
            i + 1
        );
    }
}

/// The section of the golden for one app, its `== slug` line included.
fn golden_section(slug: &str) -> &'static str {
    let head = format!("== {slug}\n");
    let start = GOLDEN.find(&head).expect("app in the golden");
    let len = GOLDEN[start + head.len()..]
        .find("\n== ")
        .map_or(GOLDEN.len() - start, |end| head.len() + end + 1);
    &GOLDEN[start..start + len]
}

/// The engine's per-id tables are indexed from the first ids of each
/// run's interpreter. So a run late in a thread's life, whose ids sit far
/// from 1, analyzes exactly as the first run did, and each run's tables
/// span no more ids than that run allocated, however long the thread
/// lives: the third run's ids start past both earlier runs' ids, where a
/// table indexed by the raw id would span all three runs.
#[test]
fn runs_late_on_one_thread_match_the_first_and_span_only_their_ids() {
    use ceres_interp::{env::next_binding_id, value::next_object_id};
    let mut rendered = Vec::new();
    for slug in ["haar", "cloth", "haar"] {
        let w = ceres_workloads::by_slug(slug).expect("registry app");
        let first = (next_binding_id(), next_object_id());
        let run = ceres_workloads::run_workload(&w, Mode::Dependence, 1)
            .unwrap_or_else(|e| panic!("{slug}: {e:?}"));
        let allocated = (next_binding_id() - first.0, next_object_id() - first.1);
        let engine = run.engine.borrow();
        let (bindings, objects) = engine.id_rows();
        assert!(
            bindings as u64 <= allocated.0 && objects as u64 <= allocated.1,
            "{slug}: tables hold {bindings} binding and {objects} object rows \
             after a run that allocated {allocated:?}"
        );
        let mut out = String::new();
        render_app(&mut out, slug, &engine);
        assert_eq!(out, golden_section(slug), "{slug} drifted from the golden");
        rendered.push(out);
    }
    assert_eq!(rendered[2], rendered[0]);
}
