//! `repro` — regenerate every table and figure of *"Are web applications
//! ready for parallelism?"* (PPoPP 2015) from this reproduction.
//!
//! ```text
//! repro <target>    where target ∈ {fig1, fig2, fig3, fig4, fig5, fig6,
//!                                   table1, table2, table3, amdahl,
//!                                   overhead, speedup, fleet,
//!                                   fleet-bench, all}
//!
//! repro fleet [--mode light|loop|dep] [--scale N] [--workers N]
//!             [--sequential] [--json FILE]
//!             [--watchdog-ticks N] [--watchdog-wall-ms N]
//!             [--inject SPEC] [--inject-seed N]
//!             [--metrics FILE] [--trace FILE] [--deterministic]
//!     run the 12-app fleet through the fault-tolerant parallel analyzer
//!     and print the merged Table 2/Table 3: the same command, flags and
//!     report as `jsceres analyze-all`. One crashing/hanging app degrades
//!     its own row, never the fleet. Exit: 0 = all ok, 3 = partial
//!     success, 4 = total failure.
//!     `--inject panic:0.3,hang:0.1,error:0.2` plus `--inject-seed`
//!     deterministically injects faults (the CI resilience smoke).
//!     `--metrics` writes the versioned observability JSON (see
//!     docs/METRICS.md), `--trace` a chrome://tracing span dump, and
//!     `--deterministic` zeroes the wall-clock/scheduling fields so the
//!     metrics are byte-identical across worker counts.
//! repro fleet-bench [--workers N] [--json FILE]
//!     time sequential vs parallel fleet analysis, emit speedup JSON
//! repro bench [--json BENCH_<n>.json] [--baseline FILE] [--label S]
//!             [--scale N] [--reps N]
//!     perf-trajectory harness: the 12-app fleet under all three modes,
//!     best-of-reps wall time + deterministic virtual-clock ticks +
//!     per-phase spans, with the Sec. 3.4 geomean slowdown per mode.
//!     `--baseline` embeds a previous BENCH_*.json so one artifact holds
//!     the before/after pair (see docs/PERFORMANCE.md)
//! repro overhead
//!     Sec. 3.4 instrumentation-overhead ledger: per-app virtual-clock
//!     ticks under each mode and the slowdown vs the lightweight baseline
//! repro whatif [--workers N[,N...]] [--json FILE]
//!     TASKPROF-style what-if profiler: per app, the ranked counterfactual
//!     table — which `ok` nest removes the most virtual-clock ticks at
//!     each worker count, with the Sec. 4.2 Amdahl bound per nest. The
//!     `<-par` marker is the nest `repro parallel-bench` executes.
//! repro parallel-bench [--workers N] [--scale N] [--json FILE]
//!     close the loop: rewrite each app's top-ranked `ok` nest into
//!     fork-join form, execute on 1 and on N workers, verify byte-identical
//!     output, and print predicted vs measured speedup against the paper's
//!     Table-3/Amdahl expectations (see docs/PARALLELIZE.md). Exit 1 if any
//!     parallelized app fails the equivalence gate.
//! ```
//!
//! Each subcommand takes exactly the flags listed for it; any other is a
//! usage error (exit 2).
//!
//! Absolute numbers come from the virtual clock / this machine; the claim
//! being reproduced is the *shape* (who wins, ratios, classifications) —
//! see EXPERIMENTS.md for the side-by-side with the paper.

use ceres_bench::{exit_usage, write_artifact, Flags, FleetArgs};
use ceres_core::{amdahl_bound, render, Difficulty, Mode, WarningKind};
use ceres_survey as survey;
use ceres_workloads::{all as workloads, run_workload};
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (target, args) = match argv.split_first() {
        Some((target, args)) => (target.as_str(), args),
        None => ("all", &[][..]),
    };
    let run: fn() = match target {
        "fig1" => fig1,
        "fig2" => fig2,
        "fig3" => fig3,
        "fig4" => fig4,
        "fig5" => fig5,
        "fig6" => fig6,
        "table1" => table1,
        "table2" => table2,
        "table3" => table3,
        "amdahl" => amdahl,
        "tasklimit" => tasklimit,
        "overhead" => overhead,
        "speedup" => speedup,
        "all" => all,
        "fleet" => {
            let args = FleetArgs::parse(args).unwrap_or_else(|e| exit_usage(&e, ""));
            std::process::exit(ceres_bench::fleet(&args));
        }
        "fleet-bench" => return check(fleet_bench(args)),
        "bench" => return check(bench(args)),
        "whatif" => return check(whatif_cmd(args)),
        "parallel-bench" => return check(parallel_bench_cmd(args)),
        other => {
            eprintln!("unknown target `{other}`");
            eprintln!(
                "targets: fig1 fig2 fig3 fig4 fig5 fig6 table1 table2 table3 amdahl tasklimit overhead speedup fleet fleet-bench bench whatif parallel-bench all"
            );
            std::process::exit(2);
        }
    };
    // The remaining targets take no flags.
    let mut f = Flags::new(args);
    if f.next_flag().is_some() {
        exit_usage(&f.unknown(), "");
    }
    run();
}

/// Exit 2 on a subcommand's usage error.
fn check(parsed: Result<(), String>) {
    if let Err(e) = parsed {
        exit_usage(&e, "");
    }
}

/// Every table and figure, in the paper's order.
fn all() {
    for f in [
        fig1, fig2, fig3, fig4, table1, table2, table3, fig5, fig6, amdahl, tasklimit, overhead,
    ] {
        f();
        println!();
    }
    check(whatif_cmd(&[]));
    println!();
    check(parallel_bench_cmd(&[]));
    println!();
    speedup();
}

fn header(title: &str) {
    println!("== {title} ==");
}

// ---------------------------------------------------------------------
// Survey figures
// ---------------------------------------------------------------------

fn fig1() {
    header("Figure 1: future web application categories (174 respondents)");
    let pop = survey::generate(2015);
    let (rows, no_answer) = survey::fig1(&pop, &survey::Coder::primary());
    for r in &rows {
        println!(
            "{:<52} {:>3}  {:>4.0}%  {}",
            r.category.label(),
            r.count,
            r.pct,
            survey::bar(r.pct, 30)
        );
    }
    println!("{:<52} {:>3}", "No answer / no valid data", no_answer);
    // Methodology check (paper: Jaccard agreement > 80% on 20% of data).
    let answers: Vec<&str> = pop
        .iter()
        .filter_map(|r| r.trend_answer.as_deref())
        .collect();
    // 20% validation sample, spread across the data.
    let sample: Vec<&str> = answers.iter().step_by(5).copied().collect();
    let agreement = survey::agreement(
        &survey::Coder::primary(),
        &survey::Coder::secondary(),
        &sample,
    );
    println!(
        "inter-rater agreement (Jaccard, 20% sample): {:.0}%",
        agreement * 100.0
    );
}

fn fig2() {
    header("Figure 2: performance bottlenecks as scaled by respondents");
    let pop = survey::generate(2015);
    println!(
        "{:<28} {:>12} {:>9} {:>13}",
        "component", "not an issue", "so, so...", "is a bottleneck"
    );
    for row in survey::fig2(&pop) {
        let t = row.total().max(1) as f64;
        println!(
            "{:<28} {:>4} ({:>2.0}%) {:>4} ({:>2.0}%) {:>6} ({:>2.0}%)   {}",
            row.component.label(),
            row.not_an_issue,
            100.0 * row.not_an_issue as f64 / t,
            row.so_so,
            100.0 * row.so_so as f64 / t,
            row.bottleneck,
            row.bottleneck_pct(),
            survey::bar(row.bottleneck_pct(), 20)
        );
    }
}

fn scale_figure(title: &str, hist: survey::ScaleHistogram, lo: &str, hi: &str) {
    header(title);
    println!("scale: 1 = {lo} ... 5 = {hi}  ({} answers)", hist.total());
    for v in 1..=5u8 {
        println!(
            "{v}: {:>3} ({:>4.0}%)  {}",
            hist.counts[(v - 1) as usize],
            hist.pct(v),
            survey::bar(hist.pct(v), 30)
        );
    }
}

fn fig3() {
    let pop = survey::generate(2015);
    scale_figure(
        "Figure 3: programming style preference",
        survey::fig3(&pop),
        "strongly functional",
        "strongly imperative",
    );
}

fn fig4() {
    let pop = survey::generate(2015);
    scale_figure(
        "Figure 4: variable monomorphism",
        survey::fig4(&pop),
        "purely monomorphic",
        "extensively polymorphic",
    );
}

// ---------------------------------------------------------------------
// Case-study tables
// ---------------------------------------------------------------------

fn table1() {
    header("Table 1: case study — web applications");
    println!("{:<22} {:<38} Category / Description", "Name", "URL");
    for w in workloads() {
        println!(
            "{:<22} {:<38} {} / {}",
            w.name, w.url, w.category, w.description
        );
    }
}

fn table2() {
    header("Table 2: case study — running time (virtual ms; paper reported seconds)");
    println!(
        "{:<22}{:>9}{:>9}{:>10}{:>8}   paper(total/active/loops s)",
        "Name", "Total", "Active", "In Loops", "loop%"
    );
    let paper: &[(&str, f64, f64, f64)] = &[
        ("HAAR.js", 8.0, 2.0, 0.44),
        ("Tear-able Cloth", 14.0, 7.0, 9.0),
        ("CamanJS", 40.0, 23.0, 17.0),
        ("fluidSim", 22.0, 17.0, 12.0),
        ("Harmony", 41.0, 0.36, 0.28),
        ("Ace", 30.0, 0.4, 0.4),
        ("MyScript", 12.0, 0.33, 0.15),
        ("Realtime Raytracing", 62.0, 19.0, 26.0),
        ("Normal Mapping", 25.0, 6.0, 4.0),
        ("sigma.js", 32.0, 9.0, 8.0),
        ("processing.js", 21.0, 12.0, 2.0),
        ("D3.js", 18.0, 5.0, 4.0),
    ];
    for (w, p) in workloads().iter().zip(paper) {
        let run = run_workload(w, Mode::Lightweight, 1).expect(w.slug);
        println!(
            "{:<22}{:>9.0}{:>9.0}{:>10.0}{:>7.0}%   ({}/{}/{})",
            w.name,
            run.total_ms,
            run.active_ms,
            run.loops_ms,
            run.loop_pct(),
            p.1,
            p.2,
            p.3
        );
    }
}

fn table3() {
    header("Table 3: case study — detailed inspection of loop nests");
    print!(
        "{}",
        ceres_workloads::run_fleet_report(Mode::Dependence, 1, 1).render_table3()
    );
}

// ---------------------------------------------------------------------
// Pipeline & worked example
// ---------------------------------------------------------------------

fn fig5() {
    header("Figure 5: JS-CERES instrumentation and reporting process");
    let mut server = ceres_core::WebServer::new();
    server.publish(
        "index.html",
        ceres_core::Document::Html(
            "<html><body><script>\n\
             var acc = { v: 0 };\n\
             for (var i = 0; i < 200; i++) { acc.v += i; }\n\
             console.log(\"acc\", acc.v);\n\
             </script></body></html>"
                .to_string(),
        ),
    );
    let mut run = ceres_core::analyze(
        &server,
        "index.html",
        ceres_core::AnalyzeOptions {
            mode: Mode::Dependence,
            ..ceres_core::AnalyzeOptions::default()
        },
        Box::new(|_, _| Ok(())),
    )
    .expect("pipeline");
    // A report repository of this run's own, so every run commits the
    // same first commit and prints the same lines.
    let dir = std::env::temp_dir().join(format!("js-ceres-fig5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut repo = ceres_core::ReportRepo::open(&dir).expect("report repo");
    let commit = ceres_core::publish_report(&mut run, &mut repo, "fig5-demo").expect("commit");
    for step in &run.steps {
        println!("  step {step}");
    }
    println!("report committed as fig5-demo/{commit} in a fresh report repository");
    let _ = std::fs::remove_dir_all(&dir);
}

fn fig6() {
    header("Figure 6: N-body example — dependence warnings");
    let src = include_str!("../../../../examples/js/nbody.js");
    let (_interp, engine) =
        ceres_core::run_instrumented(src, Mode::Dependence, 2015).expect("nbody run");
    let engine = engine.borrow();
    let mut shown = std::collections::BTreeSet::new();
    for w in &engine.warnings {
        if matches!(
            w.kind,
            WarningKind::VarWrite | WarningKind::SharedPropWrite | WarningKind::FlowRead
        ) {
            let line = format!(
                "warning: {} `{}`\n  {}",
                w.kind.describe(),
                w.subject,
                render(&w.characterization, &engine.loops)
            );
            if shown.insert(line.clone()) {
                println!("{line}");
            }
        }
    }
}

/// Sec. 3.4: the cost of watching. Per-app virtual-clock readings under
/// each instrumentation mode; slowdowns are relative to the lightweight
/// baseline and fully deterministic.
fn overhead() {
    header("Sec. 3.4: instrumentation overhead (virtual-clock ticks)");
    let rows = ceres_workloads::overhead_ledger(1);
    print!("{}", ceres_workloads::render_overhead(&rows));
}

/// `repro fleet-bench [--workers N] [--json FILE]`: a clean
/// dependence-mode fleet, timed sequential and on `--workers`.
fn fleet_bench(args: &[String]) -> Result<(), String> {
    let (mut workers, mut json) = (ceres_core::default_workers(), None);
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--workers" => workers = f.positive()?,
            "--json" => json = Some(f.value()?),
            _ => return Err(f.unknown()),
        }
    }
    header("Fleet speedup: sequential vs parallel analysis (wall clock)");
    let time_fleet = |workers: usize| -> f64 {
        let t = Instant::now();
        let outcome = ceres_workloads::run_fleet_report(Mode::Dependence, 1, workers);
        assert_eq!(outcome.apps.len(), 12);
        assert!(
            outcome.all_ok(),
            "fleet bench expects a clean run: {:?}",
            outcome
                .failures()
                .iter()
                .map(|a| (&a.slug, &a.status))
                .collect::<Vec<_>>()
        );
        t.elapsed().as_secs_f64() * 1e3
    };
    // Warm both paths once (file reads, allocator), then measure.
    time_fleet(1);
    let seq_ms = time_fleet(1);
    let par_ms = time_fleet(workers);
    let speedup = seq_ms / par_ms;
    println!(
        "sequential {seq_ms:.0} ms | parallel({workers} workers) {par_ms:.0} ms | speedup {speedup:.2}x"
    );
    if let Some(path) = &json {
        write_artifact(
            path,
            format!(
                "{{\"seq_ms\": {seq_ms:.3}, \"par_ms\": {par_ms:.3}, \"workers\": {workers}, \"speedup\": {speedup:.4}}}\n"
            ),
        );
        println!("JSON written to {path}");
    }
    Ok(())
}

/// The recorded perf trajectory: run the 12-app fleet under all three
/// modes, best-of-`reps` wall time plus deterministic tick readings, and
/// write the versioned `BENCH_<n>.json` artifact. With `--baseline FILE`
/// the previous report is embedded so one file carries the before/after
/// pair and the headline dependence-mode speedup. See
/// `docs/PERFORMANCE.md` for the playbook.
fn bench(args: &[String]) -> Result<(), String> {
    let (mut json, mut baseline) = (None, None);
    let mut label = "current".to_string();
    let (mut scale, mut reps) = (1, 3);
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--json" => json = Some(f.value()?),
            "--baseline" => baseline = Some(f.value()?),
            "--label" => label = f.value()?,
            "--scale" => scale = f.positive()?,
            "--reps" => reps = f.positive()?,
            _ => return Err(f.unknown()),
        }
    }
    header("Fleet benchmark: 12 apps x 3 modes (wall + virtual clock)");
    let entry = ceres_workloads::run_bench(&label, scale, reps);
    let report = match &baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            });
            let base = ceres_workloads::BenchReport::from_json(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse baseline {path}: {e}");
                std::process::exit(1);
            });
            ceres_workloads::BenchReport::with_baseline(base, entry)
        }
        None => ceres_workloads::BenchReport::single(entry),
    };
    print!("{}", ceres_workloads::render_bench(&report));
    if let Some(path) = &json {
        write_artifact(path, report.to_json());
        println!("bench JSON written to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// What-if profiler & fork-join closed loop (docs/PARALLELIZE.md)
// ---------------------------------------------------------------------

/// `repro whatif [--workers N[,N...]] [--json FILE]` — the ranked
/// counterfactual tables for all 12 apps.
fn whatif_cmd(args: &[String]) -> Result<(), String> {
    let mut workers: Vec<usize> = ceres_core::whatif::DEFAULT_WORKERS.to_vec();
    let mut json: Option<String> = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--workers" => workers = f.parse_with(worker_list)?,
            "--json" => json = Some(f.value()?),
            _ => return Err(f.unknown()),
        }
    }
    header("What-if profiler: counterfactual speedup per loop nest");
    let fleet = ceres_workloads::whatif_fleet(1, &workers);
    let mut json_rows = Vec::new();
    for app in &fleet {
        match &app.report {
            Ok(report) => {
                print!("{}", ceres_core::render_whatif(&app.app, report));
                if json.is_some() {
                    json_rows.push(format!(
                        "{{\"app\": {}, \"slug\": {}, \"report\": {}}}",
                        serde_json::to_string(&app.app).unwrap(),
                        serde_json::to_string(&app.slug).unwrap(),
                        serde_json::to_string(report).unwrap()
                    ));
                }
            }
            Err(e) => println!("{}: analysis failed: {e}", app.app),
        }
        println!();
    }
    if let Some(path) = &json {
        write_artifact(path, format!("[\n{}\n]\n", json_rows.join(",\n")));
        println!("JSON written to {path}");
    }
    Ok(())
}

/// `repro whatif --workers 2,4,8`: a comma-separated list of counts of at
/// least 1.
fn worker_list(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|s| match s.trim().parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "bad worker count `{s}` (want positive integers like 2,4,8)"
            )),
        })
        .collect()
}

/// `repro parallel-bench [--workers N] [--scale N] [--json FILE]` — the
/// predicted-vs-measured Table-3 reproduction.
fn parallel_bench_cmd(args: &[String]) -> Result<(), String> {
    let (mut workers, mut scale, mut json) = (4, 1, None);
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--workers" => workers = f.positive()?,
            "--scale" => scale = f.positive()?,
            "--json" => json = Some(f.value()?),
            _ => return Err(f.unknown()),
        }
    }
    header("Fork-join closed loop: predicted vs measured speedup");
    let report = ceres_workloads::parallel_bench(scale, workers);
    print!("{}", ceres_workloads::render_parallel_bench(&report));
    if let Some(path) = &json {
        write_artifact(
            path,
            serde_json::to_string_pretty(&report).expect("serialize") + "\n",
        );
        println!("JSON written to {path}");
    }
    // An app that parallelized but failed byte-identity is a gate failure.
    if report.rows.iter().any(|r| r.equivalent == Some(false)) {
        std::process::exit(1);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Sec. 4.2 analyses
// ---------------------------------------------------------------------

fn amdahl() {
    header("Amdahl upper bounds (Sec. 4.2)");
    println!(
        "{:<22}{:>8}{:>12}{:>10}   counting nests with parallelization <= medium",
        "name", "loop%", "p(parallel)", "bound"
    );
    let mut over3 = 0;
    let mut hard = 0;
    for w in workloads() {
        let run = run_workload(&w, Mode::Dependence, 1).expect(w.slug);
        let nests = run.nests();
        let p = run.parallel_fraction(&nests);
        let bound = amdahl_bound(p);
        if bound > 3.0 {
            over3 += 1;
        }
        let top_hard = nests
            .first()
            .map(|n| n.parallelization_difficulty >= Difficulty::Hard)
            .unwrap_or(false);
        if top_hard {
            hard += 1;
        }
        println!(
            "{:<22}{:>7.0}%{:>11.2}{:>10}",
            w.name,
            run.loop_pct(),
            p,
            if bound.is_infinite() {
                "inf".to_string()
            } else {
                format!("{bound:.1}x")
            },
        );
    }
    println!("apps with speedup bound > 3x: {over3} (paper: 5)");
    println!("apps where significant speedup is hard/very hard: {hard} (paper: 5)");
}

fn tasklimit() {
    header("Task-parallelism limit study (the Fortuna et al. baseline, Sec. 6)");
    println!(
        "{:<22}{:>7}{:>11}{:>12}{:>12}   vs data-parallel view",
        "name", "tasks", "conflicts", "task-bound", "data-bound"
    );
    for w in workloads() {
        let run = run_workload(&w, Mode::Dependence, 1).expect(w.slug);
        let study = run.task_study();
        let data_bound = amdahl_bound(run.parallel_fraction(&run.nests()));
        println!(
            "{:<22}{:>7}{:>11}{:>11.2}x{:>11}",
            w.name,
            study.tasks,
            study.conflicts,
            study.speedup_bound(),
            if data_bound.is_infinite() {
                "inf".to_string()
            } else {
                format!("{data_bound:.1}x")
            },
        );
    }
    println!(
        "\nFortuna et al. found most *legacy-web* speedup in independent tasks;\n\
         on the paper's emerging workloads the frames/strokes are chained\n\
         (task bound ≈ 1-2x) and the parallelism lives inside the loops —\n\
         the paper's case for data parallelism."
    );
}

fn speedup() {
    header("Native kernel twins: sequential vs Rayon (wall clock)");
    use ceres_workloads::native::*;
    let threads = rayon::current_num_threads();
    println!("rayon threads: {threads}");
    if threads == 1 {
        println!("note: single-core machine — expect speedup ≈ 1.0x; the");
        println!("paper's testbed was a quad-core i7 (Sec. 3.1).");
    }
    let time = |f: &mut dyn FnMut()| -> f64 {
        // One warmup, then best of 3.
        f();
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };

    {
        let img = image_filter::Image::gradient(1024, 768);
        let seq = time(&mut || {
            let mut i = img.clone();
            image_filter::filter_seq(&mut i);
        });
        let par = time(&mut || {
            let mut i = img.clone();
            image_filter::filter_par(&mut i);
        });
        println!(
            "camanjs filter 1024x768 : seq {seq:>8.2} ms  par {par:>8.2} ms  speedup {:.2}x",
            seq / par
        );
    }
    {
        let s = raytrace::scene();
        let seq = time(&mut || {
            raytrace::render_seq(&s, 640, 480);
        });
        let par = time(&mut || {
            raytrace::render_par(&s, 640, 480);
        });
        println!(
            "raytrace 640x480        : seq {seq:>8.2} ms  par {par:>8.2} ms  speedup {:.2}x",
            seq / par
        );
    }
    {
        let x0 = fluid::Grid::seeded(256);
        let seq = time(&mut || {
            let mut x = x0.clone();
            fluid::lin_solve_seq(&mut x, &x0, 1.0, 4.0, 20);
        });
        let par = time(&mut || {
            let mut x = x0.clone();
            fluid::lin_solve_par(&mut x, &x0, 1.0, 4.0, 20);
        });
        println!(
            "fluid jacobi 256^2 k=20 : seq {seq:>8.2} ms  par {par:>8.2} ms  speedup {:.2}x",
            seq / par
        );
    }
    {
        let bodies = nbody::make_bodies(4096);
        let seq = time(&mut || {
            let mut b = bodies.clone();
            nbody::compute_forces_seq(&mut b);
            nbody::step_seq(&mut b);
        });
        let par = time(&mut || {
            let mut b = bodies.clone();
            nbody::compute_forces_par(&mut b);
            nbody::step_par(&mut b);
        });
        println!(
            "nbody 4096 (Fig. 6)     : seq {seq:>8.2} ms  par {par:>8.2} ms  speedup {:.2}x",
            seq / par
        );
    }
    {
        let hm = normal_map::height_map(1024, 768);
        let seq = time(&mut || {
            let n = normal_map::normals_seq(&hm, 1024, 768);
            normal_map::shade_seq(&n, 1024, 768, 100.0, 100.0);
        });
        let par = time(&mut || {
            let n = normal_map::normals_par(&hm, 1024, 768);
            normal_map::shade_par(&n, 1024, 768, 100.0, 100.0);
        });
        println!(
            "normal map 1024x768     : seq {seq:>8.2} ms  par {par:>8.2} ms  speedup {:.2}x",
            seq / par
        );
    }
}
