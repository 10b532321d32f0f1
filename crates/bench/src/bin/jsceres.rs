//! `jsceres` — run the JS-CERES analysis on a JavaScript or HTML file.
//!
//! ```text
//! jsceres <file.js|file.html> [options]
//!
//!   --mode light|loop|dep   instrumentation mode (default: loop)
//!   --focus <loop-id>       dependence focus (paper Sec. 3.3)
//!   --seed <n>              interpreter seed (default 2015)
//!   --max-ticks <n>         abort runaway programs after n virtual ticks
//!   --report <dir>          commit a full report under <dir>
//!   --emit-instrumented     print the rewritten source and exit
//!   --refactor <loop-id>    print the loop rewritten as forEachPar and exit
//!   --metrics <file>        write the observability JSON (docs/METRICS.md)
//!   --trace <file>          write a chrome://tracing span dump
//!   --deterministic         zero wall-clock fields in --metrics/--trace
//!
//! jsceres analyze-all [options]     analyze the whole 12-app fleet
//!
//!   --mode light|loop|dep   instrumentation mode (default: dep)
//!   --scale <n>             workload problem-size multiplier (default 1)
//!   --workers <n>           worker threads (default: CERES_FLEET_WORKERS
//!                           or the machine parallelism)
//!   --sequential            shorthand for --workers 1
//!   --json <file>           also write the merged report as JSON
//!   --watchdog-ticks <n>    per-app deterministic tick budget
//!   --watchdog-wall-ms <n>  per-app wall-clock backstop (default 120000)
//!   --inject <spec>         seeded fault injection, e.g. panic:0.3,hang:0.1
//!   --inject-seed <n>       fault-plan seed (default 7)
//!   --metrics <file>        write phase spans + counters as versioned JSON
//!                           (schema: docs/METRICS.md)
//!   --trace <file>          write a chrome://tracing span dump
//!   --deterministic         zero wall-clock/scheduling fields so --metrics
//!                           output is byte-identical across worker counts
//!
//! Exit codes for analyze-all: 0 = every app analyzed, 2 = usage,
//! 3 = partial success, 4 = no app succeeded.
//! ```
//!
//! The file is served through the in-process proxy pipeline (Fig. 5), run
//! to completion (event queue drained, no user interaction), and the
//! analysis is printed: timing, loop profile, warnings, polymorphism, and
//! the Table 3-style nest classification.

use ceres_core::report::{
    render_loop_profile, render_nest_table, render_polymorphism, render_warnings, ReportRepo,
};
use ceres_core::{analyze, publish_report, AnalyzeOptions, Document, Mode, WebServer};

struct Options {
    file: String,
    mode: Mode,
    focus: Option<u32>,
    seed: u64,
    max_ticks: Option<u64>,
    report: Option<String>,
    emit_instrumented: bool,
    refactor: Option<u32>,
    metrics: Option<String>,
    trace: Option<String>,
    deterministic: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: jsceres <file.js|file.html> [--mode light|loop|dep] [--focus N]\n\
         \x20              [--seed N] [--max-ticks N] [--report DIR] [--emit-instrumented]\n\
         \x20              [--refactor LOOP_ID] [--metrics FILE] [--trace FILE]\n\
         \x20              [--deterministic]\n\
         \x20      jsceres analyze-all [--mode light|loop|dep] [--scale N] [--workers N]\n\
         \x20              [--sequential] [--json FILE] [--watchdog-ticks N]\n\
         \x20              [--watchdog-wall-ms N] [--inject SPEC] [--inject-seed N]\n\
         \x20              [--metrics FILE] [--trace FILE] [--deterministic]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        mode: Mode::LoopProfile,
        focus: None,
        seed: 2015,
        max_ticks: None,
        report: None,
        emit_instrumented: false,
        refactor: None,
        metrics: None,
        trace: None,
        deterministic: false,
    };
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage();
        })
    };
    let integer = |value: String, flag: &str| -> u64 {
        ceres_bench::args::parsed(&value, flag, "an integer").unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                opts.mode = match ceres_core::parse_mode(&next_value(&mut args, "--mode")) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                };
            }
            "--focus" => {
                opts.focus = next_value(&mut args, "--focus").parse().ok();
                if opts.focus.is_none() {
                    eprintln!("--focus needs a loop id (see the loop profile output)");
                    usage();
                }
            }
            "--seed" => opts.seed = integer(next_value(&mut args, "--seed"), "--seed"),
            "--max-ticks" => {
                opts.max_ticks = Some(integer(next_value(&mut args, "--max-ticks"), "--max-ticks"));
            }
            "--report" => opts.report = Some(next_value(&mut args, "--report")),
            "--refactor" => {
                opts.refactor = next_value(&mut args, "--refactor").parse().ok();
                if opts.refactor.is_none() {
                    eprintln!("--refactor needs a loop id (see the loop profile output)");
                    usage();
                }
            }
            "--emit-instrumented" => opts.emit_instrumented = true,
            "--metrics" => opts.metrics = Some(next_value(&mut args, "--metrics")),
            "--trace" => opts.trace = Some(next_value(&mut args, "--trace")),
            "--deterministic" => opts.deterministic = true,
            "-h" | "--help" => usage(),
            other if opts.file.is_empty() && !other.starts_with('-') => {
                opts.file = other.to_string();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if opts.file.is_empty() {
        usage();
    }
    opts
}

/// `jsceres analyze-all`: fan the registered workloads across the fleet
/// worker pool and print the merged Table 2/Table 3 renderings.
fn analyze_all(args: &[String]) {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
    }
    let flags = match ceres_bench::parse_fleet_args(args, ceres_bench::FleetArgs::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    let (mode, scale, workers) = (flags.mode, flags.scale, flags.workers);
    let (json, metrics_path, trace_path) = (flags.json, flags.metrics, flags.trace);
    let (deterministic, policy, faults) = (flags.deterministic, flags.policy, flags.faults);

    let start = std::time::Instant::now();
    let outcome = ceres_workloads::run_fleet_report_with(mode, scale, workers, &policy, faults);
    let wall = start.elapsed().as_secs_f64();

    println!(
        "-- fleet: {} apps ({} ok, {} failed), {} workers, mode {:?}, scale {scale} ({wall:.2}s wall) --\n",
        outcome.apps.len(),
        outcome.succeeded(),
        outcome.failures().len(),
        workers,
        mode
    );
    println!("-- Table 2: task durations (virtual-clock ms) --");
    print!("{}", outcome.render_table2());
    if mode != Mode::Lightweight {
        println!("\n-- Table 3: dominant loop nests --");
        print!("{}", outcome.render_table3());
    }
    if !outcome.all_ok() {
        println!("\n-- per-app status --");
        print!("{}", outcome.render_status());
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, outcome.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nJSON report written to {path}");
    }
    if metrics_path.is_some() || trace_path.is_some() {
        let metrics = ceres_core::FleetMetrics::from_outcome(&outcome, &policy, deterministic);
        if let Some(path) = metrics_path {
            if let Err(e) = std::fs::write(&path, metrics.to_json()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("metrics written to {path} (schema docs/METRICS.md)");
        }
        if let Some(path) = trace_path {
            if let Err(e) = std::fs::write(&path, ceres_core::chrome_trace(&metrics)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("chrome trace written to {path} (open in chrome://tracing)");
        }
    }
    std::process::exit(outcome.exit_code());
}

fn main() {
    // Fleet subcommand takes its own flags; dispatch before normal parsing.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("analyze-all") {
        analyze_all(&argv[1..]);
        return;
    }

    let opts = parse_args();
    let content = match std::fs::read_to_string(&opts.file) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            std::process::exit(1);
        }
    };
    let is_html = opts.file.ends_with(".html") || opts.file.ends_with(".htm");

    if let Some(loop_id) = opts.refactor {
        let source = if is_html {
            ceres_dom::extract_scripts(&content)
                .iter()
                .map(|b| b.content.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        } else {
            content.clone()
        };
        match ceres_parser::parse_and_number(&source) {
            Ok((program, _)) => {
                match ceres_instrument::refactor_loop(&program, ceres_ast::LoopId(loop_id)) {
                    Ok(p) => {
                        println!("{}", ceres_ast::program_to_source(&p));
                        return;
                    }
                    Err(e) => {
                        eprintln!("cannot refactor loop {loop_id}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    if opts.emit_instrumented {
        let source = if is_html {
            ceres_dom::extract_scripts(&content)
                .iter()
                .map(|b| b.content.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        } else {
            content.clone()
        };
        match ceres_instrument::instrument_source(&source, opts.mode) {
            Ok((out, loops)) => {
                eprintln!(
                    "// {} loops instrumented ({:?} mode)",
                    loops.len(),
                    opts.mode
                );
                println!("{out}");
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    let mut server = WebServer::new();
    let doc = if is_html {
        Document::Html(content)
    } else {
        Document::Js(content)
    };
    server.publish(&opts.file, doc);

    let run = analyze(
        &server,
        &opts.file,
        AnalyzeOptions {
            mode: opts.mode,
            seed: opts.seed,
            focus: opts.focus.map(ceres_ast::LoopId),
            max_ticks: opts.max_ticks,
            ..AnalyzeOptions::default()
        },
        Box::new(|_, _| Ok(())),
    );
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e:?}");
            std::process::exit(1);
        }
    };

    if !run.console.is_empty() {
        println!("-- console --");
        for line in &run.console {
            println!("{line}");
        }
        println!();
    }

    println!("-- timing --");
    println!(
        "total {:.1} ms | profiler-active {:.1} ms | in loops {:.1} ms ({:.0}%)",
        run.total_ms,
        run.active_ms,
        run.loops_ms,
        100.0 * run.loop_fraction()
    );

    {
        let engine = run.engine.borrow();
        if opts.mode != Mode::Lightweight {
            println!("\n-- loop profile --");
            print!("{}", render_loop_profile(&engine));
        }
        if opts.mode == Mode::Dependence {
            println!("\n-- dependence warnings --");
            print!("{}", render_warnings(&engine));
            println!("\n-- polymorphism --");
            print!("{}", render_polymorphism(&engine));
        }
    }
    if opts.mode != Mode::Lightweight {
        let nests = run.nests();
        if !nests.is_empty() {
            let engine = run.engine.borrow();
            println!("\n-- loop nests (Table 3 style) --");
            print!("{}", render_nest_table(&engine, &nests));
            if opts.mode == Mode::Dependence {
                println!("\n-- suggestions --");
                print!(
                    "{}",
                    ceres_core::render_suggestions(&engine, &ceres_core::suggest(&engine, &nests))
                );
            }
        }
    }

    if let Some(dir) = &opts.report {
        let app = std::path::Path::new(&opts.file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("app")
            .to_string();
        let mut repo = match ReportRepo::open(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot open report dir {dir}: {e}");
                std::process::exit(1);
            }
        };
        match publish_report(&mut run, &mut repo, &app) {
            Ok(commit) => println!("\nreport committed as {commit} under {dir}"),
            Err(e) => eprintln!("report failed: {e}"),
        }
    }

    // Emitted last so the obs record includes the report phase if
    // --report ran.
    if opts.metrics.is_some() || opts.trace.is_some() {
        let app = std::path::Path::new(&opts.file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("app");
        let metrics = ceres_core::FleetMetrics::single(
            app,
            app,
            &format!("{:?}", opts.mode),
            &run.obs,
            opts.deterministic,
        );
        if let Some(path) = &opts.metrics {
            if let Err(e) = std::fs::write(path, metrics.to_json()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("\nmetrics written to {path} (schema docs/METRICS.md)");
        }
        if let Some(path) = &opts.trace {
            if let Err(e) = std::fs::write(path, ceres_core::chrome_trace(&metrics)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("chrome trace written to {path} (open in chrome://tracing)");
        }
    }
}
