//! Runs every workload for two seconds, untraced and traced, and checks
//! that each run is correct and prints every metric `BENCHMARK.json`
//! names, with its unit. The serve workloads and the traced runs (whose
//! serving probe starts daemons) need the release `jsceresd` that
//! `run.sh` builds; without one they are skipped with a message.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn catalogue(section: &str) -> Vec<(String, String)> {
    let doc = serde_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|s| s.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, daemon: &Path) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_ceres-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--daemon")
        .arg(daemon)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the runner starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("the runner prints a result");
    serde_json::parse(last).expect("the last line is JSON")
}

fn check(result: &Value, expected: &[(String, String)], what: &str) {
    assert_eq!(
        result.get("correct").and_then(|c| c.as_bool()),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(|c| c.as_u64()),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(|c| c.as_u64()) >= Some(1),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("a metrics object");
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, expected, "{what}: metric names and units");
}

/// The `jsceresd` that `run.sh` builds into the same target directory as
/// these tests: `<target>/release/jsceresd`.
fn daemon() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_ceres-benchmark"))
        .parent()
        .and_then(Path::parent)
        .expect("the runner is built in <target>/<profile>/")
        .join("release/jsceresd")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let daemon = daemon();
    let have_daemon = daemon.is_file();
    if !have_daemon {
        eprintln!(
            "skipping serve-cold, serve-warm and the traced runs: {} is absent \
             (run benchmark/run.sh once to build it)",
            daemon.display()
        );
    }
    let end_to_end = catalogue("end_to_end");
    let per_layer = catalogue("per_layer");
    for workload in ["analyze-dep", "serve-cold", "serve-warm", "forkjoin"] {
        if !have_daemon && workload.starts_with("serve") {
            continue;
        }
        check(&run(workload, false, &daemon), &end_to_end, workload);
        if have_daemon {
            check(&run(workload, true, &daemon), &per_layer, workload);
        }
    }
}
