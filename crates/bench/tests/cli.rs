//! Smoke tests for the `jsceres`, `repro`, and `jsceresd` binaries.

use std::process::Command;

fn jsceres() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jsceres"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("jsceres-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn jsceres_analyzes_a_js_file() {
    let file = write_temp(
        "acc.js",
        "var acc = { v: 0 };\nvar i;\nfor (i = 0; i < 40; i++) { acc.v += i; }\nconsole.log(acc.v);",
    );
    let out = jsceres()
        .arg(&file)
        .arg("--mode")
        .arg("dep")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("780"), "{stdout}"); // 0+..+39
    assert!(stdout.contains("-- loop profile --"), "{stdout}");
    assert!(stdout.contains("-- dependence warnings --"), "{stdout}");
    assert!(stdout.contains("acc.v"), "{stdout}");
    assert!(stdout.contains("-- suggestions --"), "{stdout}");
    assert!(stdout.contains("parallel reduction"), "{stdout}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn jsceres_handles_html_input() {
    let file = write_temp(
        "page.html",
        "<html><body><script>var s = 0; var i; for (i = 0; i < 5; i++) { s += i; }\nconsole.log(\"sum\", s);</script></body></html>",
    );
    let out = jsceres().arg(&file).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sum 10"), "{stdout}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn jsceres_emit_instrumented_prints_hooks() {
    let file = write_temp("loop.js", "var i;\nfor (i = 0; i < 3; i++) { }\n");
    let out = jsceres()
        .arg(&file)
        .arg("--mode")
        .arg("loop")
        .arg("--emit-instrumented")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("__ceres_loop_enter(1)"), "{stdout}");
    assert!(stdout.contains("finally"), "{stdout}");
    let _ = std::fs::remove_file(file);
}

/// Every binary and subcommand refuses bad usage with exit 2 and an error
/// naming the flag: a flag with no value, a malformed value, an unknown
/// flag, and a flag the command would not read.
#[test]
fn jsceres_rejects_bad_usage() {
    let out = jsceres().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = jsceres().arg("nonexistent-file.js").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "a missing file is not usage");

    let file = write_temp("usage.js", "var x = 1;");
    // Each row: a command line (`FILE` is a real script) and the error it
    // must print.
    let table = [
        // jsceres <file>
        ("jsceres FILE --seed", "--seed needs a value"),
        (
            "jsceres FILE --seed abc",
            "--seed needs an integer (got `abc`)",
        ),
        (
            "jsceres FILE --max-ticks abc",
            "--max-ticks needs an integer (got `abc`)",
        ),
        (
            "jsceres FILE --focus x",
            "--focus needs a loop id from the loop profile (got `x`)",
        ),
        ("jsceres FILE --focus 1", "--focus needs --mode dep"),
        (
            "jsceres FILE --mode light --focus 1",
            "--focus needs --mode dep",
        ),
        ("jsceres --mode bogus", "--mode: unknown mode `bogus`"),
        ("jsceres FILE --scale 2", "unknown argument `--scale`"),
        // jsceres analyze-all and repro fleet: one command.
        ("jsceres analyze-all --json", "--json needs a value"),
        (
            "jsceres analyze-all --workers many",
            "--workers needs a positive integer (got `many`)",
        ),
        (
            "jsceres analyze-all --frobnicate",
            "unknown argument `--frobnicate`",
        ),
        ("jsceres analyze-all --seed 99", "unknown argument `--seed`"),
        (
            "jsceres analyze-all --scale 0",
            "--scale needs a positive integer (got `0`)",
        ),
        ("repro fleet --inject", "--inject needs a value"),
        (
            "repro fleet --inject meteor:0.1",
            "--inject: unknown fault kind `meteor`",
        ),
        (
            "repro fleet --frobnicate",
            "unknown argument `--frobnicate`",
        ),
        ("repro fleet --seed 99", "unknown argument `--seed`"),
        // repro fleet-bench reads only --workers and --json.
        ("repro fleet-bench --workers", "--workers needs a value"),
        (
            "repro fleet-bench --workers 0",
            "--workers needs a positive integer (got `0`)",
        ),
        (
            "repro fleet-bench --mode light",
            "unknown argument `--mode`",
        ),
        ("repro fleet-bench --scale 3", "unknown argument `--scale`"),
        (
            "repro fleet-bench --inject panic:1.0",
            "unknown argument `--inject`",
        ),
        (
            "repro fleet-bench --metrics f.json",
            "unknown argument `--metrics`",
        ),
        // repro bench, whatif, parallel-bench, and a flagless target.
        ("repro bench --label", "--label needs a value"),
        (
            "repro bench --reps 0",
            "--reps needs a positive integer (got `0`)",
        ),
        ("repro bench --workers 2", "unknown argument `--workers`"),
        ("repro whatif --json", "--json needs a value"),
        (
            "repro whatif --workers 2,x",
            "--workers: bad worker count `x`",
        ),
        ("repro whatif --scale 2", "unknown argument `--scale`"),
        ("repro parallel-bench --json", "--json needs a value"),
        (
            "repro parallel-bench --workers 0",
            "--workers needs a positive integer (got `0`)",
        ),
        (
            "repro parallel-bench --scale 0",
            "--scale needs a positive integer (got `0`)",
        ),
        (
            "repro parallel-bench --mode dep",
            "unknown argument `--mode`",
        ),
        ("repro fig6 --json f.json", "unknown argument `--json`"),
        // jsceresd
        ("jsceresd --addr", "--addr needs a value"),
        (
            "jsceresd --queue-cap 0",
            "--queue-cap needs a positive integer (got `0`)",
        ),
        ("jsceresd --seed abc", "--seed needs an integer (got `abc`)"),
        ("jsceresd --scale 3", "unknown argument `--scale`"),
        ("jsceresd --frobnicate", "unknown argument `--frobnicate`"),
    ];
    for (line, want) in table {
        let mut words = line.split_whitespace();
        let exe = match words.next() {
            Some("jsceres") => env!("CARGO_BIN_EXE_jsceres"),
            Some("repro") => env!("CARGO_BIN_EXE_repro"),
            _ => env!("CARGO_BIN_EXE_jsceresd"),
        };
        let out = Command::new(exe)
            .args(words.map(|w| {
                if w == "FILE" {
                    file.as_os_str()
                } else {
                    w.as_ref()
                }
            }))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(want), "{line}: {stderr}");
    }
    let _ = std::fs::remove_file(file);
}

/// A focus that names no loop of the program fails the run: it would
/// record nothing and read clean.
#[test]
fn jsceres_refuses_a_focus_on_no_loop() {
    let nbody = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/js/nbody.js");
    let out = jsceres()
        .args([nbody, "--mode", "dep", "--focus", "999"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("focus loop 999 is not a loop of"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a refused run prints no report");
}

#[test]
fn jsceres_writes_reports() {
    let file = write_temp(
        "rep.js",
        "var x = 0;\nvar i;\nfor (i = 0; i < 4; i++) { x += i; }",
    );
    let dir = std::env::temp_dir().join(format!("jsceres-cli-reports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = jsceres()
        .arg(&file)
        .arg("--mode")
        .arg("dep")
        .arg("--report")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("log.txt").exists());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(file);
}

#[test]
fn repro_survey_targets_run_quickly() {
    for target in ["fig1", "fig3", "fig4", "table1"] {
        let out = repro().arg(target).output().unwrap();
        assert!(out.status.success(), "{target}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("=="), "{target}: {stdout}");
    }
    // fig1 carries the paper's exact Games count.
    let out = repro().arg("fig1").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Games"), "{stdout}");
    assert!(stdout.contains("26"), "{stdout}");
}

/// Two runs of `repro fig5` print the same bytes: each commits its
/// report into a repository of its own.
#[test]
fn repro_fig5_prints_the_same_on_every_run() {
    let run = || {
        let out = repro().arg("fig5").output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    assert!(first.contains("commits (commit-0001)"), "{first}");
    assert_eq!(first, run());
}

#[test]
fn repro_rejects_unknown_target() {
    let out = repro().arg("bogus").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn repro_overhead_prints_the_ledger_with_the_paper_ordering() {
    let out = repro().arg("overhead").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("instrumentation overhead"), "{stdout}");
    assert!(stdout.contains("geomean"), "{stdout}");
    // All 12 apps get a row.
    for name in ["HAAR.js", "CamanJS", "D3.js"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    // The geomean row ends with the two slowdown factors; dependence must
    // exceed loop profiling.
    let geomean = stdout
        .lines()
        .find(|l| l.starts_with("geomean"))
        .expect("geomean row");
    let factors: Vec<f64> = geomean
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().expect("slowdown factor"))
        .collect();
    assert_eq!(factors.len(), 2, "{geomean}");
    assert!(
        factors[1] > factors[0] && factors[0] >= 1.0,
        "dependence {} must out-cost loop profiling {}",
        factors[1],
        factors[0]
    );
}

#[test]
fn jsceres_single_file_metrics_and_trace() {
    let file = write_temp(
        "obs.js",
        "var t = 0;\nvar i;\nfor (i = 0; i < 30; i++) { t += i; }\nconsole.log(t);",
    );
    let metrics = write_temp("obs-metrics.json", "");
    let trace = write_temp("obs-trace.json", "");
    let out = jsceres()
        .arg(&file)
        .arg("--mode")
        .arg("dep")
        .arg("--metrics")
        .arg(&metrics)
        .arg("--trace")
        .arg(&trace)
        .arg("--deterministic")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"schema_version\": 1"), "{doc}");
    assert!(doc.contains("\"phase\": \"interp\""), "{doc}");
    assert!(doc.contains("\"deterministic\": true"), "{doc}");
    // Deterministic: wall fields zeroed.
    assert!(doc.contains("\"wall_ms\": 0.0"), "{doc}");
    let tr = std::fs::read_to_string(&trace).unwrap();
    assert!(tr.starts_with('['), "{tr}");
    assert!(tr.contains("\"ph\":\"X\""), "{tr}");
    for f in [file, metrics, trace] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn analyze_all_metrics_json_is_deterministic_across_worker_counts() {
    let run = |workers: &str| -> String {
        let path = write_temp(&format!("fleet-metrics-{workers}.json"), "");
        let out = jsceres()
            .arg("analyze-all")
            .arg("--mode")
            .arg("light")
            .arg("--workers")
            .arg(workers)
            .arg("--metrics")
            .arg(&path)
            .arg("--deterministic")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(path);
        doc
    };
    let seq = run("1");
    let par = run("6");
    assert_eq!(seq, par, "deterministic metrics must not see the pool size");
    assert!(seq.contains("\"schema_version\": 1"), "{seq}");
    assert!(seq.contains("\"totals\""), "{seq}");
}

/// Once per transport: worker processes (the default), then
/// `--in-process`.
#[test]
fn jsceresd_serves_caches_and_drains() {
    for transport in [None, Some("--in-process")] {
        serve_cache_and_drain(transport);
    }
}

fn serve_cache_and_drain(transport: Option<&str>) {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_jsceresd"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .args(transport)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The daemon prints `listening on ADDR` once the socket is bound.
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let addr = ready
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected ready line: {ready}"))
        .to_string();

    let roundtrip = |line: &str| -> String {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    let src =
        r#"{"id":"s1","source":"var n = 0; for (var i = 0; i < 9; i++) { n += i; }","mode":"dep"}"#;
    let cold = roundtrip(src);
    assert!(cold.contains("\"ok\":true"), "{transport:?}: {cold}");
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let warm = roundtrip(src);
    assert!(warm.contains("\"cached\":true"), "{warm}");

    let stats = roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");
    let backend = transport.map_or("process", |_| "in-process");
    assert!(
        stats.contains(&format!("\"backend\":\"{backend}\"")),
        "{stats}"
    );

    // Shutdown drains and the process exits 0 with a summary on stderr.
    let bye = roundtrip(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    let out = daemon.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{transport:?}: daemon must exit 0 after drain"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drained:"), "{stderr}");
}

/// `jsceresd --worker` speaks the stdin/stdout job protocol: one job
/// line in, one `{"ok":..,"ticks":..,"fragment":..}` line out, clean
/// exit 0 on stdin EOF. This is the exact process the supervisor spawns.
#[test]
fn jsceresd_worker_mode_answers_jobs_over_stdio() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let mut worker = Command::new(env!("CARGO_BIN_EXE_jsceresd"))
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let mut stdin = worker.stdin.take().unwrap();
    let mut stdout = BufReader::new(worker.stdout.take().unwrap());
    stdin
        .write_all(
            b"{\"source\":\"var n = 0; for (var i = 0; i < 5; i++) { n += i; }\",\"mode\":\"dependence\",\"seed\":2015}\n",
        )
        .unwrap();
    stdin.flush().unwrap();

    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"ticks\":"), "{line}");
    assert!(line.contains("\\\"status\\\":\\\"ok\\\""), "{line}");

    // A second job on the same worker still works (the loop persists)...
    stdin
        .write_all(b"{\"app\":\"haar\",\"mode\":\"light\"}\n")
        .unwrap();
    stdin.flush().unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("haar"), "{line}");

    // ...and EOF on stdin is a clean exit.
    drop(stdin);
    let status = worker.wait().unwrap();
    assert!(status.success(), "worker must exit 0 on stdin EOF");
}
