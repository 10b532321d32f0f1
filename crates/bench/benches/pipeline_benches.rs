//! End-to-end pipeline cost (Fig. 5 dataflow) per instrumentation mode,
//! plus a Table 2-style measurement of one real workload.

use ceres_bench::BENCH_PROGRAM;
use ceres_core::{analyze, AnalyzeOptions, Document, Mode, WebServer};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);

    for (name, mode) in [
        ("lightweight", Mode::Lightweight),
        ("loop_profile", Mode::LoopProfile),
        ("dependence", Mode::Dependence),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut server = WebServer::new();
                server.publish("app.js", Document::Js(BENCH_PROGRAM.to_string()));
                let run = analyze(
                    &server,
                    "app.js",
                    AnalyzeOptions {
                        mode,
                        ..AnalyzeOptions::default()
                    },
                    Box::new(|_, _| Ok(())),
                )
                .unwrap();
                black_box(run.loops_ms)
            })
        });
    }

    // Ablation: the paper's "focus on a specific loop" exists because full
    // dependence recording is expensive; a focused run skips recording for
    // everything outside the chosen nest.
    for (name, focus) in [
        ("dependence_unfocused", None),
        ("dependence_focused", Some(ceres_ast::LoopId(1))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut server = WebServer::new();
                server.publish("app.js", Document::Js(BENCH_PROGRAM.to_string()));
                let run = analyze(
                    &server,
                    "app.js",
                    AnalyzeOptions {
                        mode: Mode::Dependence,
                        focus,
                        ..AnalyzeOptions::default()
                    },
                    Box::new(|_, _| Ok(())),
                )
                .unwrap();
                let n = run.engine.borrow().warnings.len();
                black_box(n)
            })
        });
    }

    // One real workload through the lightweight pipeline (the Table 2 path).
    group.bench_function("workload_normalmap_lightweight", |b| {
        let w = ceres_workloads::by_slug("normalmap").unwrap();
        b.iter(|| {
            let run = ceres_workloads::run_workload(&w, Mode::Lightweight, 1).unwrap();
            black_box(run.loop_fraction())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
