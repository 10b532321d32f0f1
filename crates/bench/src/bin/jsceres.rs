//! `jsceres` — run the JS-CERES analysis on a JavaScript or HTML file.
//!
//! ```text
//! jsceres <file.js|file.html> [options]
//!
//!   --mode light|loop|dep   instrumentation mode (default: loop)
//!   --focus <loop-id>       dependence focus (paper Sec. 3.3); needs --mode dep
//!                           and a loop id of the program
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
//!                                   (the same command as `repro fleet`)
//!
//!   --mode light|loop|dep   instrumentation mode (default: dep)
//!   --scale <n>             workload problem-size multiplier (default 1)
//!   --workers <n>           worker threads (default: the machine
//!                           parallelism)
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
//! Each form takes exactly the flags listed for it; any other is a usage
//! error (exit 2).
//!
//! The file is served through the in-process proxy pipeline (Fig. 5), run
//! to completion (event queue drained, no user interaction), and the
//! analysis is printed: timing, loop profile, warnings, polymorphism, and
//! the Table 3-style nest classification.

use ceres_bench::{args_or_help, exit_usage, write_obs, Flags, FleetArgs};
use ceres_core::report::{
    render_loop_profile, render_nest_table, render_polymorphism, render_warnings, ReportRepo,
};
use ceres_core::{analyze, parse_mode, publish_report, AnalyzeOptions, Document, Mode, WebServer};

const USAGE: &str = "usage: jsceres <file.js|file.html> [--mode light|loop|dep] [--focus N]\n\
\x20              [--seed N] [--max-ticks N] [--report DIR] [--emit-instrumented]\n\
\x20              [--refactor LOOP_ID] [--metrics FILE] [--trace FILE]\n\
\x20              [--deterministic]\n\
\x20      jsceres analyze-all [--mode light|loop|dep] [--scale N] [--workers N]\n\
\x20              [--sequential] [--json FILE] [--watchdog-ticks N]\n\
\x20              [--watchdog-wall-ms N] [--inject SPEC] [--inject-seed N]\n\
\x20              [--metrics FILE] [--trace FILE] [--deterministic]";

/// What `--focus` and `--refactor` want.
const LOOP_ID: &str = "a loop id from the loop profile";

/// `jsceres <file>`: the analysis options plus what to do with the run.
struct Options {
    file: String,
    analyze: AnalyzeOptions,
    report: Option<String>,
    emit_instrumented: bool,
    refactor: Option<u32>,
    metrics: Option<String>,
    trace: Option<String>,
    deterministic: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        analyze: AnalyzeOptions::default(),
        report: None,
        emit_instrumented: false,
        refactor: None,
        metrics: None,
        trace: None,
        deterministic: false,
    };
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--mode" => opts.analyze.mode = f.parse_with(parse_mode)?,
            "--focus" => {
                opts.analyze.focus = Some(ceres_ast::LoopId(f.parse(LOOP_ID)?));
            }
            "--seed" => opts.analyze.seed = f.integer()?,
            "--max-ticks" => opts.analyze.max_ticks = Some(f.integer()?),
            "--report" => opts.report = Some(f.value()?),
            "--emit-instrumented" => opts.emit_instrumented = true,
            "--refactor" => opts.refactor = Some(f.parse(LOOP_ID)?),
            "--metrics" => opts.metrics = Some(f.value()?),
            "--trace" => opts.trace = Some(f.value()?),
            "--deterministic" => opts.deterministic = true,
            file if opts.file.is_empty() && !file.starts_with('-') => opts.file = file.to_string(),
            _ => return Err(f.unknown()),
        }
    }
    if opts.analyze.focus.is_some() && opts.analyze.mode != Mode::Dependence {
        return Err("--focus needs --mode dep".to_string());
    }
    Ok(opts)
}

fn main() {
    let argv = args_or_help(USAGE);
    if argv.first().map(String::as_str) == Some("analyze-all") {
        let args = FleetArgs::parse(&argv[1..]).unwrap_or_else(|e| exit_usage(&e, USAGE));
        std::process::exit(ceres_bench::fleet(&args));
    }

    let opts = parse_args(&argv).unwrap_or_else(|e| exit_usage(&e, USAGE));
    if opts.file.is_empty() {
        exit_usage("", USAGE);
    }
    let mode = opts.analyze.mode;
    let content = match std::fs::read_to_string(&opts.file) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            std::process::exit(1);
        }
    };
    let doc = if opts.file.ends_with(".html") || opts.file.ends_with(".htm") {
        Document::Html(content)
    } else {
        Document::Js(content)
    };

    if let Some(loop_id) = opts.refactor {
        match ceres_parser::parse_and_number(&doc.script_text()) {
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
        match ceres_instrument::instrument_source(&doc.script_text(), mode) {
            Ok((out, loops)) => {
                eprintln!("// {} loops instrumented ({mode:?} mode)", loops.len());
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
    server.publish(&opts.file, doc);
    let run = analyze(&server, &opts.file, opts.analyze, Box::new(|_, _| Ok(())));
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
        if mode != Mode::Lightweight {
            println!("\n-- loop profile --");
            print!("{}", render_loop_profile(&engine));
        }
        if mode == Mode::Dependence {
            println!("\n-- dependence warnings --");
            print!("{}", render_warnings(&engine));
            println!("\n-- polymorphism --");
            print!("{}", render_polymorphism(&engine));
        }
    }
    if mode != Mode::Lightweight {
        let nests = run.nests();
        if !nests.is_empty() {
            let engine = run.engine.borrow();
            println!("\n-- loop nests (Table 3 style) --");
            print!("{}", render_nest_table(&engine, &nests));
            if mode == Mode::Dependence {
                println!("\n-- suggestions --");
                print!(
                    "{}",
                    ceres_core::render_suggestions(&engine, &ceres_core::suggest(&engine, &nests))
                );
            }
        }
    }

    let app = std::path::Path::new(&opts.file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("app");
    if let Some(dir) = &opts.report {
        let mut repo = match ReportRepo::open(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot open report dir {dir}: {e}");
                std::process::exit(1);
            }
        };
        match publish_report(&mut run, &mut repo, app) {
            Ok(commit) => println!("\nreport committed as {commit} under {dir}"),
            Err(e) => eprintln!("report failed: {e}"),
        }
    }

    // Emitted last so the obs record includes the report phase if
    // --report ran.
    if opts.metrics.is_some() {
        println!();
    }
    write_obs(opts.metrics.as_deref(), opts.trace.as_deref(), || {
        ceres_core::FleetMetrics::single(
            app,
            app,
            &format!("{mode:?}"),
            &run.obs,
            opts.deterministic,
        )
    });
}
