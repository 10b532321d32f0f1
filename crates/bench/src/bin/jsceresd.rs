//! `jsceresd` — the persistent JS-CERES analysis service.
//!
//! ```text
//! jsceresd [options]
//!
//!   --addr HOST:PORT        listen address (default 127.0.0.1:7015;
//!                           port 0 picks a free port)
//!   --workers <n>           analysis worker processes, each running
//!                           one job at a time (default 2)
//!   --in-process            worker threads run each job themselves
//!                           instead of in worker processes: same job
//!                           path and bytes, no crash isolation
//!   --worker                run as a worker process over stdin/stdout
//!                           (spawned by the supervisor, not by hand)
//!   --queue-cap <n>         in-memory job-ring capacity (default 64);
//!                           overflow spills to disk, FIFO order kept
//!   --spill-dir <dir>       keep the spill queue here; the backlog
//!                           survives restarts and is replayed on start
//!                           (default: ephemeral temp dir)
//!   --cache-cap <n>         result-cache capacity, entries (default 256)
//!   --cache-shards <n>      cache shard count (default 8)
//!   --cache-dir <dir>       persist the result cache here across
//!                           restarts (default: memory-only)
//!   --watchdog-ticks <n>    per-job deterministic tick budget
//!   --watchdog-wall-ms <n>  per-job wall-clock backstop (default 120000)
//! ```
//!
//! The flags parse into a `ceres_core::serve::ServeConfig` that starts
//! from its defaults (`ceres_bench::DaemonArgs`); any other flag is a
//! usage error (exit 2).
//!
//! Protocol: line-delimited JSON over TCP — see `docs/SERVING.md`. One
//! request per line; one response line per request by default, or — with
//! `"stream":true` — a schema-2 frame sequence (`accepted`, per-phase
//! `phase` frames, an early `partial` timing row, then the terminal
//! `result`/`error`). Requests name either
//! a registry workload (`{"app":"nbody"}` — any slug from
//! `jsceres analyze-all`) or inline source (`{"source":"var x = 1;"}`),
//! plus the analysis options of `AnalyzeOptions`; an option a request
//! omits takes `AnalyzeOptions::default()`'s value (mode `loop-profile`,
//! seed 2015), so the daemon has no defaults of its own. Results
//! are content-addressed: a repeated request is served byte-identically
//! from the cache without re-entering the interpreter.
//!
//! By default the daemon re-executes itself `--workers` times in
//! `--worker` mode and runs every job in one of those processes; a
//! worker crash costs one job and a supervised restart, never the
//! daemon. Both transports run a job through the same
//! `ceres_core::supervisor::run_job`. Deployment, failure drills, and
//! the full lifecycle are in `docs/OPERATIONS.md`.
//!
//! The daemon prints `listening on ADDR` once ready and exits 0 after a
//! client sends `{"op":"shutdown"}` (or SIGTERM/SIGINT arrives) and the
//! drain completes.

use ceres_bench::{args_or_help, exit_usage, DaemonArgs};
use ceres_core::serve::{serve, ServeConfig};
use ceres_core::supervisor::{worker_serve_stdio, WorkerSpec};
use ceres_workloads::registry_resolver;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "usage: jsceresd [--addr HOST:PORT] [--workers N] [--in-process] [--worker]\n\
\x20               [--queue-cap N] [--spill-dir DIR]\n\
\x20               [--cache-cap N] [--cache-shards N] [--cache-dir DIR]\n\
\x20               [--watchdog-ticks N] [--watchdog-wall-ms N]";

/// The argument vector for spawning ourselves as a worker: `--worker`
/// plus the supervision policy, from which a worker takes each job's
/// wall-clock cap and tick budget. Every job line spells out the job's
/// analysis options (`ceres_core::request_wire_json`).
fn worker_args(config: &ServeConfig) -> Vec<String> {
    let mut args = vec![
        "--worker".to_string(),
        "--watchdog-wall-ms".to_string(),
        config.policy.wall_budget.as_millis().to_string(),
    ];
    if let Some(t) = config.policy.tick_budget {
        args.push("--watchdog-ticks".to_string());
        args.push(t.to_string());
    }
    args
}

/// SIGTERM/SIGINT → graceful drain, with no libc dependency: a raw
/// `signal(2)` registration that flips an atomic, watched by a thread
/// that triggers the drain. (`signal` is fine here — the handler only
/// stores a relaxed atomic.)
#[cfg(unix)]
fn install_signal_drain(drain: ceres_core::DrainHandle) {
    static SIGNALED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    std::thread::Builder::new()
        .name("jsceresd-signal".to_string())
        .spawn(move || loop {
            if SIGNALED.load(Ordering::Relaxed) {
                eprintln!("jsceresd: signal received; draining");
                drain.request_drain();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
        .expect("spawn signal watcher");
}

#[cfg(not(unix))]
fn install_signal_drain(_drain: ceres_core::DrainHandle) {}

fn main() {
    let args = args_or_help(USAGE);
    let mut opts = DaemonArgs::parse(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    let policy = opts.config.policy.clone();

    if opts.worker {
        // Worker mode: serve stdin→stdout job lines until the supervisor
        // closes our stdin. Exit codes: 0 on clean EOF, 1 on pipe error.
        let resolver = registry_resolver(policy);
        match worker_serve_stdio(&opts.config, &resolver) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("jsceresd --worker: {e}");
                std::process::exit(1);
            }
        }
    }

    if !opts.in_process {
        match std::env::current_exe() {
            Ok(exe) => {
                opts.config.worker_spec = Some(WorkerSpec {
                    args: worker_args(&opts.config),
                    program: exe,
                });
            }
            Err(e) => {
                eprintln!(
                    "jsceresd: cannot locate own binary for worker processes ({e}); \
                     falling back to in-process execution"
                );
            }
        }
    }

    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    let backend = opts.config.backend();
    let workers = opts.config.workers;
    let handle = serve(listener, opts.config, registry_resolver(policy));
    install_signal_drain(handle.drain_handle());
    eprintln!(
        "jsceresd: pid {} serving with {workers} {backend} worker(s)",
        std::process::id()
    );
    println!("listening on {}", handle.local_addr());
    // Make the line visible to pipes/scripts immediately.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let counters = handle.join();
    eprintln!(
        "drained: {} requests ({} hits, {} misses), {} jobs ok, {} failed, \
         {} spilled, {} replayed, {} flushed, {} worker restarts",
        counters.requests,
        counters.cache_hits,
        counters.cache_misses,
        counters.jobs_ok,
        counters.jobs_failed,
        counters.jobs_spilled,
        counters.spill_replayed,
        counters.jobs_flushed_on_drain,
        counters.worker_restarts
    );
}
