//! Command-line flags for the `jsceres`, `repro`, and `jsceresd` binaries.
//!
//! One scanner, [`Flags`], walks every command's arguments. A command
//! matches each flag the scanner yields, one arm per flag it takes, and
//! asks the scanner for that flag's value; anything else is
//! ``unknown argument `--x` ``. So a command takes exactly the flags it
//! reads, and every usage error is worded the same way everywhere:
//! ``--x needs a value``, ``--x needs an integer (got `abc`)``,
//! ``--x needs a positive integer (got `0`)``. Errors come back as
//! `Err(String)`; each binary prints it and exits 2 ([`exit_usage`]).
//!
//! Two flag sets live here, each parsed straight into what it sets:
//! [`FleetArgs`], shared by `jsceres analyze-all` and `repro fleet` (both
//! run [`crate::fleet`]), and [`DaemonArgs`], `jsceresd`'s [`ServeConfig`]
//! plus how the process runs. The other commands parse their few flags
//! where they run. Mode names go through [`ceres_core::parse_mode`], the
//! parser the daemon's wire protocol uses, so a mode spelling accepted
//! anywhere is accepted everywhere.

use ceres_core::fleet::default_workers;
use ceres_core::serve::ServeConfig;
use ceres_core::{parse_mode, FaultPlan, FaultSpec, FleetPolicy, Mode};
use std::str::FromStr;
use std::time::Duration;

/// Print `error` and then `usage`, each when not empty, to stderr and
/// exit 2: the usage-error code of every binary.
pub fn exit_usage(error: &str, usage: &str) -> ! {
    for text in [error, usage] {
        if !text.is_empty() {
            eprintln!("{text}");
        }
    }
    std::process::exit(2);
}

/// This process's arguments after its name; a `-h` or `--help` among
/// them prints `usage` and exits 2.
pub fn args_or_help(usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        exit_usage("", usage);
    }
    args
}

/// The flag scanner: yields each argument in turn and reads the value of
/// the flag it last yielded, naming that flag in every error.
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A scanner over `args` (the arguments after the command's name).
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument, or `None` at the end.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value: ``--x needs a value`` when none is left.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value parsed as a `T`, or
    /// ``--x needs <want> (got `v`)``.
    pub fn parse<T: FromStr>(&mut self, want: &str) -> Result<T, String> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| format!("{} needs {want} (got `{value}`)", self.flag))
    }

    /// The current flag's value as an integer.
    pub fn integer<T: FromStr>(&mut self) -> Result<T, String> {
        self.parse("an integer")
    }

    /// The current flag's value as a count of at least 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, String> {
        let value = self.value()?;
        match value.parse() {
            Ok(n) if n >= T::from(1) => Ok(n),
            _ => Err(format!(
                "{} needs a positive integer (got `{value}`)",
                self.flag
            )),
        }
    }

    /// The current flag's value through `parse`, whose error gets the
    /// flag's name in front: ``--mode: unknown mode `x` (…)``.
    pub fn parse_with<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let value = self.value()?;
        parse(&value).map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The error for an argument no arm took: ``unknown argument `--x` ``.
    pub fn unknown(&self) -> String {
        format!("unknown argument `{}`", self.flag)
    }
}

/// The flags of a fleet run (`jsceres analyze-all`, `repro fleet`).
#[derive(Debug)]
pub struct FleetArgs {
    /// `--mode` (default dependence).
    pub mode: Mode,
    /// `--scale`: workload problem-size multiplier.
    pub scale: u32,
    /// `--workers` / `--sequential` (default: the machine parallelism).
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
    /// `--inject SPEC` + `--inject-seed N` (default 7), combined.
    pub faults: Option<FaultPlan>,
}

impl FleetArgs {
    /// Parse a fleet command's arguments over the defaults.
    pub fn parse(args: &[String]) -> Result<FleetArgs, String> {
        let mut fleet = FleetArgs {
            mode: Mode::Dependence,
            scale: 1,
            workers: default_workers(),
            json: None,
            metrics: None,
            trace: None,
            deterministic: false,
            policy: FleetPolicy::default(),
            faults: None,
        };
        let (mut inject, mut inject_seed) = (None::<FaultSpec>, 7);
        let mut f = Flags::new(args);
        while let Some(flag) = f.next_flag() {
            match flag {
                "--mode" => fleet.mode = f.parse_with(parse_mode)?,
                "--scale" => fleet.scale = f.positive()?,
                "--workers" => fleet.workers = f.positive()?,
                "--sequential" => fleet.workers = 1,
                "--json" => fleet.json = Some(f.value()?),
                "--metrics" => fleet.metrics = Some(f.value()?),
                "--trace" => fleet.trace = Some(f.value()?),
                "--deterministic" => fleet.deterministic = true,
                "--watchdog-ticks" => fleet.policy.tick_budget = Some(f.integer()?),
                "--watchdog-wall-ms" => {
                    fleet.policy.wall_budget = Duration::from_millis(f.integer()?)
                }
                "--inject" => inject = Some(f.parse_with(FaultSpec::parse)?),
                "--inject-seed" => inject_seed = f.integer()?,
                _ => return Err(f.unknown()),
            }
        }
        fleet.faults = inject
            .filter(|s| !s.is_zero())
            .map(|s| FaultPlan::new(s, inject_seed));
        Ok(fleet)
    }
}

/// What `jsceresd` runs: the served configuration, from
/// [`ServeConfig::default`] plus the flags, and the three flags that say
/// how the process runs rather than what it serves. Every flag is
/// documented for operators in `docs/OPERATIONS.md`.
#[derive(Debug)]
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
    /// `--workers`, `--queue-cap`, `--cache-cap`, `--cache-shards`,
    /// `--cache-dir`, `--spill-dir` and the watchdog budgets, each on its
    /// field.
    pub config: ServeConfig,
}

impl DaemonArgs {
    /// Parse `jsceresd`'s arguments over the defaults.
    pub fn parse(args: &[String]) -> Result<DaemonArgs, String> {
        let mut daemon = DaemonArgs {
            addr: "127.0.0.1:7015".to_string(),
            worker: false,
            in_process: false,
            config: ServeConfig::default(),
        };
        let config = &mut daemon.config;
        let mut f = Flags::new(args);
        while let Some(flag) = f.next_flag() {
            match flag {
                "--addr" => daemon.addr = f.value()?,
                "--worker" => daemon.worker = true,
                "--in-process" => daemon.in_process = true,
                "--workers" => config.workers = f.positive()?,
                "--queue-cap" => config.queue_capacity = f.positive()?,
                "--cache-cap" => config.cache_capacity = f.positive()?,
                "--cache-shards" => config.cache_shards = f.positive()?,
                "--cache-dir" => config.cache_dir = Some(f.value()?.into()),
                "--spill-dir" => config.spill_dir = Some(f.value()?.into()),
                "--watchdog-ticks" => config.policy.tick_budget = Some(f.integer()?),
                "--watchdog-wall-ms" => {
                    config.policy.wall_budget = Duration::from_millis(f.integer()?)
                }
                _ => return Err(f.unknown()),
            }
        }
        Ok(daemon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_pass_through_untouched() {
        let f = FleetArgs::parse(&[]).unwrap();
        assert_eq!(f.mode, Mode::Dependence);
        assert_eq!(f.scale, 1);
        assert_eq!(f.workers, default_workers());
        assert!(f.faults.is_none());
        let d = DaemonArgs::parse(&[]).unwrap();
        assert_eq!(d.addr, "127.0.0.1:7015");
        assert_eq!(d.config.workers, 2);
        assert_eq!(d.config.queue_capacity, 64);
        assert_eq!(d.config.cache_capacity, 256);
        assert_eq!(d.config.cache_shards, 8);
    }

    #[test]
    fn every_shared_flag_maps_onto_its_field() {
        let f = FleetArgs::parse(&sv(&[
            "--mode",
            "loop-profile",
            "--scale",
            "3",
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
        ]))
        .unwrap();
        assert_eq!(f.mode, Mode::LoopProfile);
        assert_eq!(f.scale, 3);
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
            let f = FleetArgs::parse(&sv(&["--mode", spelling])).unwrap();
            assert_eq!(f.mode, want, "spelling `{spelling}`");
        }
    }

    #[test]
    fn errors_name_the_flag() {
        for (bad, want) in [
            (sv(&["--mode", "quantum"]), "--mode: unknown mode `quantum`"),
            (
                sv(&["--workers", "0"]),
                "--workers needs a positive integer (got `0`)",
            ),
            (
                sv(&["--scale", "0"]),
                "--scale needs a positive integer (got `0`)",
            ),
            (sv(&["--workers"]), "--workers needs a value"),
            (sv(&["--inject", "meteor:0.1"]), "--inject: "),
            (sv(&["--frobnicate"]), "unknown argument `--frobnicate`"),
            // A fleet runs every app with the registry seed.
            (sv(&["--seed", "42"]), "unknown argument `--seed`"),
        ] {
            let e = FleetArgs::parse(&bad).unwrap_err();
            assert!(e.contains(want), "{bad:?}: {e}");
        }
    }

    #[test]
    fn sequential_overrides_workers_in_order() {
        let f = FleetArgs::parse(&sv(&["--workers", "8", "--sequential"])).unwrap();
        assert_eq!(f.workers, 1);
    }

    #[test]
    fn zero_rate_inject_disables_the_plan() {
        let f = FleetArgs::parse(&sv(&["--inject", "panic:0.0"])).unwrap();
        assert!(f.faults.is_none());
    }

    #[test]
    fn daemon_flags_land_in_the_serve_config() {
        let d = DaemonArgs::parse(&sv(&[
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
            "--workers",
            "3",
            "--watchdog-ticks",
            "500",
            "--watchdog-wall-ms",
            "9000",
        ]))
        .unwrap();
        assert_eq!(d.addr, "0.0.0.0:9000");
        assert!(d.in_process);
        assert!(!d.worker);
        let c = &d.config;
        assert_eq!(c.queue_capacity, 16);
        assert_eq!(c.cache_capacity, 512);
        assert_eq!(c.cache_shards, 4);
        assert_eq!(c.cache_dir, Some(PathBuf::from("/tmp/ceres-cache")));
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/ceres-spill")));
        assert_eq!(c.workers, 3);
        assert_eq!(c.policy.tick_budget, Some(500));
        assert_eq!(c.policy.wall_budget, Duration::from_millis(9000));
        assert!(DaemonArgs::parse(&sv(&["--worker"])).unwrap().worker);
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
            // A request that omits `mode` or `seed` gets the analysis
            // defaults; the daemon has none of its own.
            sv(&["--mode", "dep"]),
            sv(&["--seed", "9"]),
        ] {
            let e = DaemonArgs::parse(&bad).unwrap_err();
            assert!(e.contains(&bad[0]), "{bad:?}: {e}");
        }
    }
}
