//! # ceres-bench
//!
//! Benchmark harness for js-ceres-rs:
//!
//! * the `repro` binary regenerates every table and figure of the paper
//!   (`cargo run --release -p ceres-bench --bin repro -- all`);
//! * the `jsceres` binary analyzes one file, or the whole fleet with
//!   `analyze-all`, and `jsceresd` serves analyses over TCP;
//! * Criterion benches measure instrumentation overhead (`overhead` — the
//!   paper's three-stage rationale), native kernel speedups (`kernels`),
//!   front-end throughput (`parser_throughput`), survey processing
//!   (`survey_benches`), and the full pipeline (`pipeline_benches`).
//!
//! The binaries share the flag scanner in [`args`], the fleet command
//! ([`fleet`], run by both `jsceres analyze-all` and `repro fleet`), and
//! one way to write an artifact ([`write_artifact`], [`write_obs`]).

pub mod args;

pub use args::{args_or_help, exit_usage, DaemonArgs, Flags, FleetArgs};

use ceres_core::{chrome_trace, FleetMetrics, Mode};

/// Write `contents` to `path`, or print `cannot write PATH: ERROR` and
/// exit 1.
pub fn write_artifact(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Write the `--metrics` JSON and the `--trace` span dump, each when its
/// path is given, and say where. `metrics` is built only if one is.
pub fn write_obs(
    metrics_path: Option<&str>,
    trace_path: Option<&str>,
    metrics: impl FnOnce() -> FleetMetrics,
) {
    if metrics_path.is_none() && trace_path.is_none() {
        return;
    }
    let metrics = metrics();
    if let Some(path) = metrics_path {
        write_artifact(path, metrics.to_json());
        println!("metrics written to {path} (schema docs/METRICS.md)");
    }
    if let Some(path) = trace_path {
        write_artifact(path, chrome_trace(&metrics));
        println!("chrome trace written to {path} (open in chrome://tracing)");
    }
}

/// The fleet command (`jsceres analyze-all`, `repro fleet`): fan the 12
/// registered apps across the supervised worker pool, print the merged
/// Table 2/Table 3 renderings (and the per-app status of a degraded run),
/// write the artifacts `args` name, and return the exit code: 0 every app
/// analyzed, 3 partial success, 4 nothing succeeded.
pub fn fleet(args: &FleetArgs) -> i32 {
    let start = std::time::Instant::now();
    let outcome = ceres_workloads::run_fleet_report_with(
        args.mode,
        args.scale,
        args.workers,
        &args.policy,
        args.faults,
    );
    let wall = start.elapsed().as_secs_f64();
    println!(
        "-- fleet: {} apps ({} ok, {} failed), {} workers, mode {:?}, scale {} ({wall:.2}s wall) --\n",
        outcome.apps.len(),
        outcome.succeeded(),
        outcome.failures().len(),
        args.workers,
        args.mode,
        args.scale,
    );
    println!("-- Table 2: task durations (virtual-clock ms) --");
    print!("{}", outcome.render_table2());
    if args.mode != Mode::Lightweight {
        println!("\n-- Table 3: dominant loop nests --");
        print!("{}", outcome.render_table3());
    }
    if !outcome.all_ok() {
        println!("\n-- per-app status --");
        print!("{}", outcome.render_status());
    }
    if let Some(path) = &args.json {
        write_artifact(path, outcome.to_json());
        println!("\nJSON report written to {path}");
    }
    write_obs(args.metrics.as_deref(), args.trace.as_deref(), || {
        FleetMetrics::from_outcome(&outcome, &args.policy, args.deterministic)
    });
    outcome.exit_code()
}

/// A small fixed JS program used by the overhead and pipeline benches: a
/// loop nest with both disjoint and accumulating accesses.
pub const BENCH_PROGRAM: &str = "\
var n = 24;\n\
var grid = new Float32Array(n * n);\n\
var acc = { total: 0 };\n\
function kernel(t) {\n\
  var i, j;\n\
  for (j = 0; j < n; j++) {\n\
    for (i = 0; i < n; i++) {\n\
      grid[j * n + i] = (i * 31 + j * 17 + t) % 255;\n\
      acc.total += grid[j * n + i] * 0.001;\n\
    }\n\
  }\n\
}\n\
var t;\n\
for (t = 0; t < 4; t++) { kernel(t); }\n\
console.log(acc.total.toFixed(3));\n";
