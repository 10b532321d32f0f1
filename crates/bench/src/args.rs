//! Shared CLI flag parsing for the `jsceres`, `repro`, and `jsceresd`
//! binaries.
//!
//! Before this module, `jsceres analyze-all` and `repro fleet` each
//! carried a hand-rolled copy of the same twelve flags, and the copies
//! had already drifted (different mode spellings, different error
//! wording). This is now the single source of truth: one [`FleetArgs`]
//! struct that maps 1:1 onto [`ceres_core::AnalyzeOptions`] fields and
//! [`FleetPolicy`] knobs, parsed by one function. Mode names
//! delegate to [`ceres_core::parse_mode`] — the same parser the daemon
//! wire protocol uses — so a mode spelling accepted anywhere is accepted
//! everywhere.
//!
//! Parsers return `Err(String)` instead of exiting so each binary keeps
//! its own usage rendering and exit-code convention (2 for usage).

use ceres_core::fleet::default_workers;
use ceres_core::{parse_mode, FaultPlan, FaultSpec, FleetPolicy, Mode};
use std::time::Duration;

/// The shared fleet/daemon flag set. Field-for-field this mirrors
/// `AnalyzeOptions` (`mode`, `seed`) plus the fleet supervision and
/// artifact flags.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// `--mode` (accepts every spelling `ceres_core::parse_mode` does).
    pub mode: Mode,
    /// `--scale`: workload problem-size multiplier.
    pub scale: u32,
    /// `--seed`: virtual-clock seed.
    pub seed: u64,
    /// `--workers` / `--sequential`.
    pub workers: usize,
    /// `--json FILE`: merged report artifact.
    pub json: Option<String>,
    /// `--metrics FILE`: versioned observability JSON.
    pub metrics: Option<String>,
    /// `--trace FILE`: chrome://tracing span dump.
    pub trace: Option<String>,
    /// `--deterministic`: zero wall-clock/scheduling fields.
    pub deterministic: bool,
    /// `--watchdog-ticks` / `--watchdog-wall-ms`.
    pub policy: FleetPolicy,
    /// `--inject SPEC` + `--inject-seed N`, combined.
    pub faults: Option<FaultPlan>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            mode: Mode::Dependence,
            scale: 1,
            seed: 2015,
            workers: default_workers(),
            json: None,
            metrics: None,
            trace: None,
            deterministic: false,
            policy: FleetPolicy::default(),
            faults: None,
        }
    }
}

/// Parse `value`, the argument of `flag`, or say what the flag wants:
/// ``--seed needs an integer (got `abc`)``.
pub fn parsed<T: std::str::FromStr>(value: &str, flag: &str, want: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs {want} (got `{value}`)"))
}

/// Parse the shared fleet flags into `defaults`, consuming every
/// recognized flag. Unknown flags are an error (the caller renders its
/// own usage text).
pub fn parse_fleet_args(args: &[String], defaults: FleetArgs) -> Result<FleetArgs, String> {
    let mut flags = defaults;
    let mut inject: Option<FaultSpec> = None;
    let mut inject_seed: u64 = 7;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                flags.mode = parse_mode(&value(args, i, "--mode")?)?;
                i += 2;
            }
            "--scale" => {
                flags.scale = parsed(&value(args, i, "--scale")?, "--scale", "an integer")?;
                i += 2;
            }
            "--seed" => {
                flags.seed = parsed(&value(args, i, "--seed")?, "--seed", "an integer")?;
                i += 2;
            }
            "--workers" => {
                let n: usize = parsed(
                    &value(args, i, "--workers")?,
                    "--workers",
                    "a positive integer",
                )?;
                if n == 0 {
                    return Err("--workers needs a positive integer".to_string());
                }
                flags.workers = n;
                i += 2;
            }
            "--sequential" => {
                flags.workers = 1;
                i += 1;
            }
            "--json" => {
                flags.json = Some(value(args, i, "--json")?);
                i += 2;
            }
            "--metrics" => {
                flags.metrics = Some(value(args, i, "--metrics")?);
                i += 2;
            }
            "--trace" => {
                flags.trace = Some(value(args, i, "--trace")?);
                i += 2;
            }
            "--deterministic" => {
                flags.deterministic = true;
                i += 1;
            }
            "--watchdog-ticks" => {
                flags.policy.tick_budget = Some(parsed(
                    &value(args, i, "--watchdog-ticks")?,
                    "--watchdog-ticks",
                    "an integer",
                )?);
                i += 2;
            }
            "--watchdog-wall-ms" => {
                let ms: u64 = parsed(
                    &value(args, i, "--watchdog-wall-ms")?,
                    "--watchdog-wall-ms",
                    "an integer",
                )?;
                flags.policy.wall_budget = Duration::from_millis(ms);
                i += 2;
            }
            "--inject" => {
                inject = Some(
                    FaultSpec::parse(&value(args, i, "--inject")?)
                        .map_err(|e| format!("--inject: {e}"))?,
                );
                i += 2;
            }
            "--inject-seed" => {
                inject_seed = parsed(
                    &value(args, i, "--inject-seed")?,
                    "--inject-seed",
                    "an integer",
                )?;
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    flags.faults = inject
        .filter(|s| !s.is_zero())
        .map(|s| FaultPlan::new(s, inject_seed));
    Ok(flags)
}

/// The `jsceresd`-only flag set, peeled off *before* the shared fleet
/// flags: serving topology (address, queue/cache bounds, shard count),
/// persistence directories, and backend selection. The shared flags the
/// daemon reads (workers, watchdog, mode, seed) pass through in `rest`;
/// the fleet-only ones it would ignore are refused. All flags are
/// documented operator-facing in `docs/OPERATIONS.md`.
#[derive(Debug, Clone, Default)]
pub struct DaemonArgs {
    /// `--addr HOST:PORT` (default `127.0.0.1:7015`; port 0 picks one).
    pub addr: String,
    /// `--worker`: run as an analysis worker process over stdin/stdout
    /// instead of a TCP daemon (spawned by the supervisor, not by hand).
    pub worker: bool,
    /// `--in-process`: the transport choice — worker threads call the job
    /// path themselves instead of handing it to worker processes (same
    /// job path and bytes; loses crash isolation).
    pub in_process: bool,
    /// `--queue-cap N`: in-memory job-ring bound (overflow spills).
    pub queue_capacity: Option<usize>,
    /// `--cache-cap N`: result-cache capacity in entries, all shards.
    pub cache_capacity: Option<usize>,
    /// `--cache-shards N`: number of cache shards.
    pub cache_shards: Option<usize>,
    /// `--cache-dir DIR`: persist the result cache here across restarts.
    pub cache_dir: Option<String>,
    /// `--spill-dir DIR`: keep the overflow queue here; the backlog
    /// survives restarts and is replayed on start.
    pub spill_dir: Option<String>,
    /// Unrecognized (shared fleet) flags, for [`parse_fleet_args`].
    pub rest: Vec<String>,
}

/// Peel the daemon-only flags out of `args`; pass `DaemonArgs::rest` on
/// to [`parse_fleet_args`] for the shared set. A fleet-only flag (report
/// artifacts, `--scale`, fault injection) is an error naming it.
pub fn parse_daemon_args(args: &[String]) -> Result<DaemonArgs, String> {
    let mut d = DaemonArgs {
        addr: "127.0.0.1:7015".to_string(),
        ..DaemonArgs::default()
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let positive = |v: &str, flag: &str| -> Result<usize, String> {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} needs a positive integer (got `{v}`)")),
        }
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                d.addr = value(args, i, "--addr")?;
                i += 2;
            }
            "--worker" => {
                d.worker = true;
                i += 1;
            }
            "--in-process" => {
                d.in_process = true;
                i += 1;
            }
            "--queue-cap" => {
                d.queue_capacity = Some(positive(&value(args, i, "--queue-cap")?, "--queue-cap")?);
                i += 2;
            }
            "--cache-cap" => {
                d.cache_capacity = Some(positive(&value(args, i, "--cache-cap")?, "--cache-cap")?);
                i += 2;
            }
            "--cache-shards" => {
                d.cache_shards = Some(positive(
                    &value(args, i, "--cache-shards")?,
                    "--cache-shards",
                )?);
                i += 2;
            }
            "--cache-dir" => {
                d.cache_dir = Some(value(args, i, "--cache-dir")?);
                i += 2;
            }
            "--spill-dir" => {
                d.spill_dir = Some(value(args, i, "--spill-dir")?);
                i += 2;
            }
            flag @ ("--scale" | "--json" | "--metrics" | "--trace" | "--deterministic"
            | "--inject" | "--inject-seed") => {
                return Err(format!("jsceresd does not take {flag}"));
            }
            _ => {
                d.rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_pass_through_untouched() {
        let f = parse_fleet_args(&[], FleetArgs::default()).unwrap();
        assert_eq!(f.mode, Mode::Dependence);
        assert_eq!(f.scale, 1);
        assert_eq!(f.seed, 2015);
        assert!(f.faults.is_none());
    }

    #[test]
    fn every_shared_flag_maps_onto_its_field() {
        let f = parse_fleet_args(
            &sv(&[
                "--mode",
                "loop-profile",
                "--scale",
                "3",
                "--seed",
                "42",
                "--workers",
                "2",
                "--json",
                "out.json",
                "--metrics",
                "m.json",
                "--trace",
                "t.json",
                "--deterministic",
                "--watchdog-ticks",
                "500",
                "--watchdog-wall-ms",
                "9000",
                "--inject",
                "panic:0.5",
                "--inject-seed",
                "11",
            ]),
            FleetArgs::default(),
        )
        .unwrap();
        assert_eq!(f.mode, Mode::LoopProfile);
        assert_eq!(f.scale, 3);
        assert_eq!(f.seed, 42);
        assert_eq!(f.workers, 2);
        assert_eq!(f.json.as_deref(), Some("out.json"));
        assert_eq!(f.metrics.as_deref(), Some("m.json"));
        assert_eq!(f.trace.as_deref(), Some("t.json"));
        assert!(f.deterministic);
        assert_eq!(f.policy.tick_budget, Some(500));
        assert_eq!(f.policy.wall_budget, Duration::from_millis(9000));
        let plan = f.faults.expect("fault plan");
        assert_eq!(plan.spec.panic, 0.5);
        assert_eq!(plan.seed, 11);
    }

    #[test]
    fn legacy_and_wire_mode_spellings_agree() {
        for (spelling, want) in [
            ("light", Mode::Lightweight),
            ("lightweight", Mode::Lightweight),
            ("lw", Mode::Lightweight),
            ("loop", Mode::LoopProfile),
            ("loops", Mode::LoopProfile),
            ("profile", Mode::LoopProfile),
            ("loop-profile", Mode::LoopProfile),
            ("dep", Mode::Dependence),
            ("deps", Mode::Dependence),
            ("dependence", Mode::Dependence),
        ] {
            let f = parse_fleet_args(&sv(&["--mode", spelling]), FleetArgs::default()).unwrap();
            assert_eq!(f.mode, want, "spelling `{spelling}`");
        }
    }

    #[test]
    fn errors_name_the_flag() {
        for bad in [
            sv(&["--mode", "quantum"]),
            sv(&["--workers", "0"]),
            sv(&["--workers"]),
            sv(&["--inject", "meteor:0.1"]),
            sv(&["--frobnicate"]),
        ] {
            let e = parse_fleet_args(&bad, FleetArgs::default()).unwrap_err();
            assert!(!e.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn sequential_overrides_workers_in_order() {
        let f = parse_fleet_args(
            &sv(&["--workers", "8", "--sequential"]),
            FleetArgs::default(),
        )
        .unwrap();
        assert_eq!(f.workers, 1);
    }

    #[test]
    fn zero_rate_inject_disables_the_plan() {
        let f = parse_fleet_args(&sv(&["--inject", "panic:0.0"]), FleetArgs::default()).unwrap();
        assert!(f.faults.is_none());
    }

    #[test]
    fn daemon_flags_peel_off_and_pass_the_rest_through() {
        let d = parse_daemon_args(&sv(&[
            "--addr",
            "0.0.0.0:9000",
            "--queue-cap",
            "16",
            "--cache-cap",
            "512",
            "--cache-shards",
            "4",
            "--cache-dir",
            "/tmp/ceres-cache",
            "--spill-dir",
            "/tmp/ceres-spill",
            "--in-process",
            "--mode",
            "dep",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(d.addr, "0.0.0.0:9000");
        assert_eq!(d.queue_capacity, Some(16));
        assert_eq!(d.cache_capacity, Some(512));
        assert_eq!(d.cache_shards, Some(4));
        assert_eq!(d.cache_dir.as_deref(), Some("/tmp/ceres-cache"));
        assert_eq!(d.spill_dir.as_deref(), Some("/tmp/ceres-spill"));
        assert!(d.in_process);
        assert!(!d.worker);
        assert_eq!(d.rest, sv(&["--mode", "dep", "--seed", "9"]));
        let f = parse_fleet_args(&d.rest, FleetArgs::default()).unwrap();
        assert_eq!(f.mode, Mode::Dependence);
        assert_eq!(f.seed, 9);
    }

    #[test]
    fn daemon_flag_errors_name_the_flag() {
        for bad in [
            sv(&["--queue-cap", "0"]),
            sv(&["--cache-shards", "banana"]),
            sv(&["--cache-dir"]),
            sv(&["--scale", "3"]),
            sv(&["--json", "out.json"]),
            sv(&["--metrics", "m.json"]),
            sv(&["--trace", "t.json"]),
            sv(&["--deterministic"]),
            sv(&["--inject", "panic:1.0"]),
            sv(&["--inject-seed", "7"]),
        ] {
            let e = parse_daemon_args(&bad).unwrap_err();
            assert!(e.contains(&bad[0]), "{bad:?}: {e}");
        }
    }
}
