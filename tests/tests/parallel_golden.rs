//! The fork-join executor's observable outputs for the seven (app, nest)
//! targets the `forkjoin` benchmark runs, pinned byte-for-byte at 1, 2 and
//! 4 workers.
//!
//! The equivalence gate only compares a W-worker run with the 1-worker run
//! of the same build. This golden also pins both against earlier builds, so
//! a change to the join barrier, the merge or the clock resync that moves
//! the merged state, the console, the canvas, the DOM or the virtual clock
//! shows up here as a diff. Per run it records the state digest, the
//! console's line count and digest, the canvas checksums, the DOM mutation
//! count, the final clock, the drained events, the instance, iteration and
//! round counts and the saved ticks. Wall time and the merged-op count are
//! left out: neither is part of what a program computes.
//!
//! Regenerate deliberately with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test parallel_golden`.

use ceres_core::{run_parallel, sha256_hex, Document, LoopId, ParallelSpec};
use std::fmt::Write as _;
use std::time::Duration;

const GOLDEN: &str = include_str!("../golden/parallel_targets.txt");

/// The (app, target loop) pairs of the `forkjoin` benchmark workload.
const TARGETS: &[(&str, u32)] = &[
    ("haar", 1),
    ("cloth", 5),
    ("camanjs", 8),
    ("fluidsim", 7),
    ("raytracing", 2),
    ("normalmap", 5),
    ("processingjs", 5),
];

fn render_target(out: &mut String, slug: &str, target: u32) {
    let w = ceres_workloads::by_slug(slug).unwrap_or_else(|| panic!("no registry app `{slug}`"));
    let source = Document::Html(ceres_workloads::workload_html(&w, 1)).script_text();
    for workers in [1, 2, 4] {
        let run = run_parallel(&ParallelSpec {
            source: source.clone(),
            target: Some(LoopId(target)),
            workers,
            seed: 2015,
            max_events: 10_000,
            max_ticks: None,
            wall_budget: Some(Duration::from_secs(120)),
            interaction: Some(w.interaction),
        })
        .unwrap_or_else(|e| panic!("{slug} nest {target} W={workers}: {e}"));
        writeln!(out, "== {slug} nest {target} W={workers}").unwrap();
        writeln!(out, "state_digest {}", run.state_digest).unwrap();
        writeln!(
            out,
            "console {} lines {}",
            run.console.len(),
            sha256_hex(run.console.join("\n").as_bytes())
        )
        .unwrap();
        writeln!(out, "canvas {:?}", run.canvas).unwrap();
        writeln!(out, "dom_mutations {}", run.dom_mutations).unwrap();
        writeln!(out, "final_ticks {}", run.final_ticks).unwrap();
        writeln!(out, "events {}", run.events).unwrap();
        writeln!(out, "instances {}", run.instances).unwrap();
        writeln!(out, "par_iterations {}", run.par_iterations).unwrap();
        writeln!(out, "rounds {}", run.rounds).unwrap();
        writeln!(out, "par_saved_ticks {}", run.par_saved_ticks).unwrap();
    }
}

#[test]
fn fork_join_targets_are_byte_identical_to_golden() {
    let mut got = String::new();
    for &(slug, target) in TARGETS {
        render_target(&mut got, slug, target);
    }
    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/parallel_targets.txt");
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
            "fork-join outputs drifted from tests/golden/parallel_targets.txt at line {}:\n  want: {want}\n  got:  {have}",
            i + 1
        );
    }
}
