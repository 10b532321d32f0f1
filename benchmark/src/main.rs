//! `ceres-benchmark`: one command for the analyzer, the `jsceresd` daemon
//! and the fork-join executor.
//!
//! ```text
//! ceres-benchmark --workload analyze-dep|serve-cold|serve-warm|forkjoin
//!                 [--seed N] [--seconds S] [--trace 0|1]
//!                 [--daemon PATH] [--out DIR]
//! ceres-benchmark summarize FILE...
//! ```
//!
//! A run sets up its workload several times (the median is `setup_s`),
//! measures `--seconds` of closed-loop work, checks every output, and
//! prints a table followed by one JSON line (timings in reference-host
//! units, see `host.rs`; the table also gives them as measured):
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Untraced
//! runs report the end-to-end metrics; traced runs (`--trace 1`) replay
//! the workload's inputs layer by layer and report the per-layer metrics,
//! writing the spans to `DIR/trace-<workload>-<seed>.json`.
//! `summarize` reads files of such lines (prefixed by workload name and
//! seed, as `run.sh` writes them) and prints median, quartiles and spread
//! per workload and metric. See `README.md`.

mod analysis;
mod forkjoin;
mod host;
mod layers;
mod serve;
mod stats;
mod summary;
mod trace;

use ceres_core::Mode;
use ceres_workloads::registry::Workload;
use host::Time;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;
use trace::obj;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub const WORKLOADS: &[&str] = &["analyze-dep", "serve-cold", "serve-warm", "forkjoin"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `jsceresd` binary the serve workloads and probes start.
    pub daemon: PathBuf,
    /// Where traces and daemon scratch directories go.
    pub out: PathBuf,
}

/// One named measurement. `None` means too few samples to report it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
}

pub fn metric(name: &str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// What a workload's timed window produced, before it is reduced to
/// metrics. Every duration is a [`Time`]: as measured and normalized.
pub struct Window {
    /// How many callers ran operations at once.
    callers: usize,
    /// Each set-up, seconds.
    pub setup: Vec<Time>,
    /// Operations started in the window (and in post-window checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Operations that completed correctly (the throughput numerator).
    pub ok_ops: u64,
    /// Milliseconds the callers spent in operations, summed over callers.
    pub busy: Time,
    /// Latency of each untraced unit the median is taken over, ms: a
    /// 12-app pass, a fork-join round, or a request.
    pub units: Vec<Time>,
    /// The same, for traced units (trace mode only).
    pub traced_units: Vec<Time>,
    /// Latency of each single operation, for the tail percentile, ms.
    pub ops: Vec<Time>,
    /// Each host probe of the window, ms.
    pub probes: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Workload-specific lines for the table.
    pub notes: Vec<String>,
}

impl Window {
    pub fn new(callers: usize) -> Window {
        Window {
            callers,
            setup: Vec::new(),
            attempted: 0,
            failed: 0,
            ok_ops: 0,
            busy: Time::default(),
            units: Vec::new(),
            traced_units: Vec::new(),
            ops: Vec::new(),
            probes: Vec::new(),
            peak_rss_mb: 0.0,
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("benchmark: check failed: {}", why.as_ref());
        }
    }

    /// The end-to-end metrics every untraced run reports, in the order
    /// `BENCHMARK.json` lists them, from the normalized (`|t| t.norm`) or
    /// the measured (`|t| t.raw`) durations.
    fn end_to_end(&self, pick: fn(Time) -> f64) -> Vec<Metric> {
        let all = |times: &[Time]| times.iter().map(|&t| pick(t)).collect::<Vec<_>>();
        let busy_s = pick(self.busy) / 1e3;
        vec![
            metric("setup_s", "s", stats::median(&all(&self.setup))),
            metric(
                "throughput_per_s",
                "1/s",
                (busy_s > 0.0).then(|| (self.ok_ops * self.callers as u64) as f64 / busy_s),
            ),
            metric("latency_ms_p50", "ms", stats::median(&all(&self.units))),
            metric(
                "latency_ms_p90",
                "ms",
                stats::tail_percentile(&all(&self.ops), 0.9),
            ),
            metric("peak_rss_mb", "MB", Some(self.peak_rss_mb)),
        ]
    }

    /// A table line with the end-to-end numbers as measured, and the
    /// host's speed.
    fn raw_note(&self) -> String {
        let raw: Vec<String> = self
            .end_to_end(|t| t.raw)
            .iter()
            .filter(|m| m.name != "peak_rss_mb")
            .map(|m| {
                let v = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
                format!("{} {v}", m.name)
            })
            .collect();
        format!(
            "as measured: {}; host probe median {:.3} ms",
            raw.join(", "),
            stats::median(&self.probes).unwrap_or(0.0)
        )
    }
}

/// What running a workload hands the layer replay: its window, the
/// `(app, mode)` inputs it ran, and, for a serve workload, the daemon's
/// counters over the window.
pub type Ran = (Window, Vec<(Workload, Mode)>, Option<serve::Stats>);

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn usage() -> ! {
    eprintln!(
        "usage: ceres-benchmark --workload {} [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                      [--daemon PATH] [--out DIR]\n\
         \x20      ceres-benchmark summarize FILE...",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate runner: {e}"))?;
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        daemon: exe.with_file_name("jsceresd"),
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
                }
            }
            "--daemon" => args.daemon = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Run one workload: its window, then — traced — the layer replay.
fn run(args: &Args) -> Result<(Window, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new(epoch, 0);
    let tr = args.trace.then_some(&mut tracer);
    let (mut window, inputs, served) = match args.workload.as_str() {
        "analyze-dep" => {
            let w = analysis::run(args, tr)?;
            (w, analysis::inputs(), None)
        }
        "serve-cold" => serve::run_cold(args, tr)?,
        "serve-warm" => serve::run_warm(args, tr)?,
        "forkjoin" => {
            let w = forkjoin::run(args, tr)?;
            (w, forkjoin::inputs(), None)
        }
        _ => unreachable!("workload names are checked when parsing"),
    };
    let raw = window.raw_note();
    window.notes.push(raw);
    if !args.trace {
        let metrics = window.end_to_end(|t| t.norm);
        return Ok((window, metrics));
    }
    let metrics = layers::measure(args, &mut window, &inputs, served, &mut tracer)?;
    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("benchmark: spans written to {}", path.display());
    Ok((window, metrics))
}

fn print_result(args: &Args, window: &Window, metrics: &[Metric]) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{:<36} {:>16}  unit", "metric", "value");
    for m in metrics {
        let value = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
        println!("{:<36} {:>16}  {}", m.name, value, m.unit);
    }
    for note in &window.notes {
        println!("{note}");
    }
    println!(
        "attempted {}  failed {}  correct {}",
        window.attempted,
        window.failed,
        window.failed == 0
    );
    let line = obj(vec![
        ("correct", Value::Bool(window.failed == 0)),
        ("attempted", Value::U64(window.attempted)),
        ("failed", Value::U64(window.failed)),
        (
            "metrics",
            Value::Map(
                metrics
                    .iter()
                    .map(|m| {
                        let value = m.value.map_or(Value::Null, Value::F64);
                        (
                            m.name.clone(),
                            obj(vec![("value", value), ("unit", Value::Str(m.unit.into()))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{line}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        usage();
    }
    if argv.first().map(String::as_str) == Some("summarize") {
        match summary::summarize(&argv[1..]) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("summarize: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    match run(&args) {
        Ok((window, metrics)) => {
            for m in metrics.iter().filter(|m| m.value.is_none()) {
                eprintln!(
                    "benchmark: {} has too few samples in {} s; run longer",
                    m.name, args.seconds
                );
            }
            print_result(&args, &window, &metrics);
            if window.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
