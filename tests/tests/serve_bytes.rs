//! Byte pins for every JSON body `jsceresd` writes: the job line (the
//! spill payload and the worker's stdin line), frames at both schemas,
//! the `stats` line of a fresh server, the ok, failed and
//! worker-crashed job fragments, the worker pipe's lines, the `partial`
//! timing row, and the envelopes of the non-analyze ops and of refused
//! requests. The goldens pin whole responses for a few requests; these
//! pin each encoder on inputs that need escaping, so a change to how a
//! body is built cannot move a byte unnoticed.
//!
//! Each test checks every pin of its table and reports all that drifted
//! at once, with the bytes it got.

use ceres_core::cache::CacheKey;
use ceres_core::fleet::{page_work, AppOutcome, AppStatus};
use ceres_core::pipeline::Document;
use ceres_core::serve::{
    render_frame, request_options, request_wire_json, result_fragment, AnalysisRequest, Frame,
};
use ceres_core::supervisor::WorkerSpec;
use ceres_core::{serve, AnalyzeOptions, Mode, ServeConfig, ServerHandle};
use ceres_workloads::registry_resolver;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Every control and quoting case a JSON string encoder must handle,
/// plus a non-ASCII letter: `"`, `\`, a newline, a tab, U+0001 and `é`.
const AWKWARD: &str = "q\"b\\s\nn\tt\u{1}u é";

/// The same text as it must appear inside a JSON string.
const AWKWARD_JSON: &str = r#"q\"b\\s\nn\tt\u0001u é"#;

/// Compare every `(label, got, want)` pin and fail once, listing each
/// pin that drifted with the bytes it got.
fn check(pins: &[(String, String, String)]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}:\n  got  {got}\n  want {want}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} pins drifted:\n{}",
        drifted.len(),
        pins.len(),
        drifted.join("\n")
    );
}

fn pin(
    label: impl Into<String>,
    got: impl Into<String>,
    want: impl Into<String>,
) -> (String, String, String) {
    (label.into(), got.into(), want.into())
}

fn start(config: ServeConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let policy = config.policy.clone();
    serve(listener, config, registry_resolver(policy))
}

/// Send one request line and read response lines up to its terminal
/// one (a one-shot response is one line; a stream ends in a `result` or
/// `error` frame).
fn exchange(addr: SocketAddr, line: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut l = String::new();
        let n = reader.read_line(&mut l).expect("read a response line");
        assert!(n > 0, "connection closed before a terminal line: {lines:?}");
        let l = l.trim_end().to_string();
        let open = l.starts_with("{\"schema\":2,")
            && !l.starts_with("{\"schema\":2,\"type\":\"result\"")
            && !l.starts_with("{\"schema\":2,\"type\":\"error\"");
        lines.push(l);
        if !open {
            return lines;
        }
    }
}

/// The job line of `request` (JSON text) under the default server
/// configuration.
fn job_line(request: &str) -> String {
    let req: AnalysisRequest = serde_json::from_str(request).expect("a request line");
    let opts = request_options(&req, &ServeConfig::default()).expect("a valid request");
    request_wire_json(&req, &opts)
}

#[test]
fn job_lines_are_pinned() {
    let awkward = AnalysisRequest {
        id: Some(AWKWARD.to_string()),
        source: Some(AWKWARD.to_string()),
        ..AnalysisRequest::default()
    };
    let opts = request_options(&awkward, &ServeConfig::default()).expect("a valid request");
    let mut pins = vec![pin(
        "inline source that needs escaping",
        request_wire_json(&awkward, &opts),
        format!(
            r#"{{"source":"{AWKWARD_JSON}","mode":"loop-profile","seed":2015,"max_events":10000}}"#
        ),
    )];
    let table = [
        (
            r#"{"app":"haar"}"#,
            r#"{"app":"haar","mode":"loop-profile","seed":2015,"max_events":10000}"#,
        ),
        (
            r#"{"op":"analyze","id":"x","app":"cloth","mode":"light","seed":7,"max_events":40}"#,
            r#"{"app":"cloth","mode":"lightweight","seed":7,"max_events":40}"#,
        ),
        (
            r#"{"source":"for (;;) {}","mode":"dep","focus":3}"#,
            r#"{"source":"for (;;) {}","mode":"dependence","seed":2015,"focus":3,"max_events":10000}"#,
        ),
        (
            r#"{"app":"nbody","max_ticks":5000}"#,
            r#"{"app":"nbody","mode":"loop-profile","seed":2015,"max_events":10000,"max_ticks":5000}"#,
        ),
        (
            r#"{"app":"haar","scale":2}"#,
            r#"{"app":"haar","mode":"loop-profile","seed":2015,"max_events":10000,"scale":2}"#,
        ),
        (
            r#"{"source":"var x;","inject":"panic"}"#,
            r#"{"source":"var x;","mode":"loop-profile","seed":2015,"max_events":10000,"inject":"panic"}"#,
        ),
        (
            r#"{"source":"var x;","inject":"hang"}"#,
            r#"{"source":"var x;","mode":"loop-profile","seed":2015,"max_events":10000,"inject":"hang"}"#,
        ),
        (
            r#"{"source":"var x;","inject":"error"}"#,
            r#"{"source":"var x;","mode":"loop-profile","seed":2015,"max_events":10000,"inject":"error"}"#,
        ),
        (
            r#"{"source":"var x;","inject":"crash"}"#,
            r#"{"source":"var x;","mode":"loop-profile","seed":2015,"max_events":10000,"inject":"crash"}"#,
        ),
        (
            r#"{"app":"haar","stream":true}"#,
            r#"{"app":"haar","mode":"loop-profile","seed":2015,"max_events":10000,"stream":true}"#,
        ),
        (
            r#"{"app":"haar","stream":false}"#,
            r#"{"app":"haar","mode":"loop-profile","seed":2015,"max_events":10000}"#,
        ),
        (
            r#"{"app":"sigmajs","mode":"dep","seed":9,"focus":1,"max_events":3,"max_ticks":8,"scale":3,"inject":"error","stream":true}"#,
            r#"{"app":"sigmajs","mode":"dependence","seed":9,"focus":1,"max_events":3,"max_ticks":8,"scale":3,"inject":"error","stream":true}"#,
        ),
    ];
    pins.extend(
        table
            .iter()
            .map(|(request, want)| pin(*request, job_line(request), *want)),
    );
    check(&pins);
}

#[test]
fn frames_are_pinned_at_both_schemas() {
    let frames = [
        Frame::Accepted { queue_depth: 3 },
        Frame::Phase {
            phase: "interp".to_string(),
            start_ticks: 4,
            end_ticks: 272,
        },
        Frame::Partial {
            fragment: r#""total_ms":0.5"#.to_string(),
        },
        Frame::Notice {
            notice: AWKWARD.to_string(),
        },
        Frame::Result {
            ok: true,
            cached: true,
            fragment: r#""key":"k""#.to_string(),
        },
        Frame::Error {
            fragment: r#""error":"e""#.to_string(),
        },
    ];
    let streamed = [
        format!(
            r#"{{"schema":2,"type":"accepted","id":"{AWKWARD_JSON}","seq":7,"queue_depth":3}}"#
        ),
        format!(
            r#"{{"schema":2,"type":"phase","id":"{AWKWARD_JSON}","seq":7,"phase":"interp","start_ticks":4,"end_ticks":272}}"#
        ),
        format!(r#"{{"schema":2,"type":"partial","id":"{AWKWARD_JSON}","seq":7,"total_ms":0.5}}"#),
        format!(
            r#"{{"schema":2,"type":"notice","id":"{AWKWARD_JSON}","seq":7,"notice":"{AWKWARD_JSON}"}}"#
        ),
        format!(
            r#"{{"schema":2,"type":"result","id":"{AWKWARD_JSON}","seq":7,"ok":true,"cached":true,"key":"k"}}"#
        ),
        format!(
            r#"{{"schema":2,"type":"error","id":"{AWKWARD_JSON}","seq":7,"ok":false,"cached":false,"error":"e"}}"#
        ),
    ];
    let mut pins: Vec<_> = frames
        .iter()
        .zip(streamed)
        .map(|(frame, want)| {
            let label = format!("schema 2 {}", frame.type_name());
            pin(label, render_frame(2, AWKWARD, 7, frame), want)
        })
        .collect();
    pins.push(pin(
        "schema 1 result",
        render_frame(1, AWKWARD, 0, &frames[4]),
        format!(r#"{{"schema":1,"id":"{AWKWARD_JSON}","ok":true,"cached":true,"key":"k"}}"#),
    ));
    pins.push(pin(
        "schema 1 error",
        render_frame(1, AWKWARD, 0, &frames[5]),
        format!(r#"{{"schema":1,"id":"{AWKWARD_JSON}","ok":false,"cached":false,"error":"e"}}"#),
    ));
    pins.push(pin(
        "schema 1 of a non-terminal frame",
        render_frame(1, "n", 0, &frames[0]),
        r#"{"schema":1,"id":"n","ok":false,"cached":false,"error":"internal: `accepted` frame in a one-shot response"}"#,
    ));
    check(&pins);
}

#[test]
fn fresh_stats_line_is_pinned() {
    let server = start(ServeConfig::default());
    let got = exchange(server.local_addr(), r#"{"op":"stats","id":"s"}"#).remove(0);
    server.shutdown();
    let want = concat!(
        r#"{"schema":1,"id":"s","ok":true,"cached":false,"op":"stats","stats_schema":4,"#,
        r#""counters":{"requests":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"#,
        r#""rejected_queue_full":0,"rejected_draining":0,"queue_peak_depth":0,"jobs_ok":0,"#,
        r#""jobs_failed":0,"interp_ticks":0,"worker_restarts":0,"jobs_spilled":0,"#,
        r#""spill_replayed":0,"spill_peak_depth":0,"jobs_flushed_on_drain":0,"streams":0,"#,
        r#""frames_streamed":0,"spill_notices":0},"#,
        r#""cache":{"hits":0,"misses":0,"evictions":0,"len":0,"capacity":256,"shards":8,"#,
        r#""persistent":false,"loaded":0,"load_corrupt":0,"persisted":0,"per_shard":["#,
        r#"{"hits":0,"misses":0,"evictions":0,"len":0},{"hits":0,"misses":0,"evictions":0,"len":0},"#,
        r#"{"hits":0,"misses":0,"evictions":0,"len":0},{"hits":0,"misses":0,"evictions":0,"len":0},"#,
        r#"{"hits":0,"misses":0,"evictions":0,"len":0},{"hits":0,"misses":0,"evictions":0,"len":0},"#,
        r#"{"hits":0,"misses":0,"evictions":0,"len":0},{"hits":0,"misses":0,"evictions":0,"len":0}]},"#,
        r#""queue_depth":0,"spill":{"depth":0,"pushed":0,"replayed":0,"corrupt":0,"peak_depth":0},"#,
        r#""workers":2,"backend":"in-process","draining":false}"#,
    );
    check(&[pin("stats of a fresh in-process server", got, want)]);
}

#[test]
fn job_fragments_are_pinned() {
    // An ok fragment, with an app and slug that need escaping in the
    // fragment head and in the report.
    let source = "var t = 0; for (var i = 0; i < 3; i++) { t += i; }";
    let opts = AnalyzeOptions {
        mode: Mode::Lightweight,
        ..AnalyzeOptions::default()
    };
    let key = CacheKey::of(source, &opts, 1);
    let work = page_work(
        AWKWARD.to_string(),
        AWKWARD.to_string(),
        Document::Js(source.to_string()),
        opts,
        |_, _| Ok(()),
    );
    let report = work(0, 1).unwrap_or_else(|_| panic!("the source runs"));
    let ok = AppOutcome {
        app: AWKWARD.to_string(),
        slug: AWKWARD.to_string(),
        status: AppStatus::Ok,
        attempts: 1,
        report: Some(report),
    };
    let failed = AppOutcome {
        app: "inline".to_string(),
        slug: "inline".to_string(),
        status: AppStatus::Failed {
            error: AWKWARD.to_string(),
            attempts: 3,
        },
        attempts: 3,
        report: None,
    };
    let (flag, fragment) = result_fragment(&key, &ok);
    let mut pins = vec![
        pin("ok flag", flag.to_string(), "true"),
        pin("ok", fragment, OK_FRAGMENT.concat()),
    ];
    let (flag, fragment) = result_fragment(&key, &failed);
    pins.push(pin("failed flag", flag.to_string(), "false"));
    pins.push(pin(
        "failed",
        fragment,
        format!(
            r#""key":"{}","app":"inline","slug":"inline","status":"failed(3)","attempts":3,"error":"{AWKWARD_JSON}""#,
            key.fingerprint()
        ),
    ));

    // A worker that dies on every job: the job fails as worker-crashed
    // after its two attempts.
    let server = start(ServeConfig {
        worker_spec: Some(WorkerSpec {
            program: PathBuf::from("/bin/false"),
            args: Vec::new(),
        }),
        ..ServeConfig::default()
    });
    let crashed = exchange(server.local_addr(), r#"{"id":"c","source":"var x;"}"#).remove(0);
    server.shutdown();
    pins.push(pin(
        "worker-crashed",
        crashed,
        concat!(
            r#"{"schema":1,"id":"c","ok":false,"cached":false,"#,
            r#""key":"262cfb80987c44fb4ba9ef504558d3d0a3afa3196552356338505cc0e769a3f1","app":"inline","slug":"inline","#,
            r#""status":"worker-crashed","attempts":2,"#,
            r#""error":"worker process died while running this job; a fresh worker was started"}"#
        ),
    ));
    check(&pins);
}

/// The ok fragment of [`job_fragments_are_pinned`].
const OK_FRAGMENT: &[&str] = &[
    r#""key":"4ce04a8e6c6771bfe903df657bb6010c7e8b38f55006ecfbe18756732af0660a","#,
    r#""app":"q\"b\\s\nn\tt\u0001u é","slug":"q\"b\\s\nn\tt\u0001u é","status":"ok","#,
    r#""attempts":1,"report":{"app":"q\"b\\s\nn\tt\u0001u é","#,
    r#""slug":"q\"b\\s\nn\tt\u0001u é","mode":"Lightweight","total_ms":0.0195,"#,
    r#""active_ms":0.0,"loops_ms":0.0165,"loop_pct":84.61538461538461,"nests":[],"#,
    r#""warnings":[],"obs":{"spans":[{"phase":"parse","start_ticks":0,"end_ticks":0,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"rewrite","start_ticks":0,"end_ticks":0,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"interp","start_ticks":0,"end_ticks":39,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"analyze","start_ticks":39,"end_ticks":39,"#,
    r#""wall_start_us":0,"wall_us":0}],"counters":{"interp_ticks":39,"samples":0,"events":0,"#,
    r#""hook_calls":2,"hooks":{"__ceres_lw_enter":1,"__ceres_lw_exit":1},"stack_pushes":0,"#,
    r#""warnings":0,"retries":0,"watchdog_arms":0},"wall_start_us":0},"wall_ms":0.0,"#,
    r#""worker":0},"metrics":{"schema_version":1,"deterministic":true,"mode":"Lightweight","#,
    r#""scale":1,"workers":0,"apps":[{"app":"q\"b\\s\nn\tt\u0001u é","#,
    r#""slug":"q\"b\\s\nn\tt\u0001u é","status":"ok","attempts":1,"worker":0,"wall_ms":0.0,"#,
    r#""wall_start_us":0,"spans":[{"phase":"parse","start_ticks":0,"end_ticks":0,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"rewrite","start_ticks":0,"end_ticks":0,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"interp","start_ticks":0,"end_ticks":39,"#,
    r#""wall_start_us":0,"wall_us":0},{"phase":"analyze","start_ticks":39,"end_ticks":39,"#,
    r#""wall_start_us":0,"wall_us":0}],"counters":{"interp_ticks":39,"samples":0,"events":0,"#,
    r#""hook_calls":2,"hooks":{"__ceres_lw_enter":1,"__ceres_lw_exit":1},"stack_pushes":0,"#,
    r#""warnings":0,"retries":0,"watchdog_arms":0}}],"totals":{"interp_ticks":39,"#,
    r#""samples":0,"events":0,"hook_calls":2,"hooks":{"__ceres_lw_enter":1,"#,
    r#""__ceres_lw_exit":1},"stack_pushes":0,"warnings":0,"retries":0,"watchdog_arms":0}}"#,
];

/// The terminal pipe line of [`worker_pipe_lines_are_pinned`]'s job.
const PIPE_RESPONSE: &[&str] = &[
    r#"{"ok":true,"ticks":101,"#,
    r#""fragment":"\"key\":\"7832aa61ede64d712338aacb9349fcded2a8baca76c698853cfd60d95883d49f\","#,
    r#"\"app\":\"inline\",\"slug\":\"inline\",\"status\":\"ok\",\"attempts\":1,"#,
    r#"\"report\":{\"app\":\"inline\",\"slug\":\"inline\",\"mode\":\"LoopProfile\","#,
    r#"\"total_ms\":0.0505,\"active_ms\":0.0,\"loops_ms\":0.047,"#,
    r#"\"loop_pct\":93.06930693069306,\"nests\":[{\"name\":\"for(line 1)\","#,
    r#"\"pct_loop_time\":100.0,\"instances\":1,\"trips\":\"7\",\"divergence\":\"none\","#,
    r#"\"dom_access\":false,\"dependence_difficulty\":\"very easy\","#,
    r#"\"parallelization_difficulty\":\"very easy\"}],\"warnings\":[],"#,
    r#"\"obs\":{\"spans\":[{\"phase\":\"parse\",\"start_ticks\":0,\"end_ticks\":0,"#,
    r#"\"wall_start_us\":0,\"wall_us\":0},{\"phase\":\"rewrite\",\"start_ticks\":0,"#,
    r#"\"end_ticks\":0,\"wall_start_us\":0,\"wall_us\":0},{\"phase\":\"interp\","#,
    r#"\"start_ticks\":0,\"end_ticks\":101,\"wall_start_us\":0,\"wall_us\":0},"#,
    r#"{\"phase\":\"analyze\",\"start_ticks\":101,\"end_ticks\":101,\"wall_start_us\":0,"#,
    r#"\"wall_us\":0}],\"counters\":{\"interp_ticks\":101,\"samples\":0,\"events\":0,"#,
    r#"\"hook_calls\":9,\"hooks\":{\"__ceres_iter\":7,\"__ceres_loop_enter\":1,"#,
    r#"\"__ceres_loop_exit\":1},\"stack_pushes\":1,\"warnings\":0,\"retries\":0,"#,
    r#"\"watchdog_arms\":0},\"wall_start_us\":0},\"wall_ms\":0.0,\"worker\":0},"#,
    r#"\"metrics\":{\"schema_version\":1,\"deterministic\":true,\"mode\":\"LoopProfile\","#,
    r#"\"scale\":1,\"workers\":0,\"apps\":[{\"app\":\"inline\",\"slug\":\"inline\","#,
    r#"\"status\":\"ok\",\"attempts\":1,\"worker\":0,\"wall_ms\":0.0,\"wall_start_us\":0,"#,
    r#"\"spans\":[{\"phase\":\"parse\",\"start_ticks\":0,\"end_ticks\":0,"#,
    r#"\"wall_start_us\":0,\"wall_us\":0},{\"phase\":\"rewrite\",\"start_ticks\":0,"#,
    r#"\"end_ticks\":0,\"wall_start_us\":0,\"wall_us\":0},{\"phase\":\"interp\","#,
    r#"\"start_ticks\":0,\"end_ticks\":101,\"wall_start_us\":0,\"wall_us\":0},"#,
    r#"{\"phase\":\"analyze\",\"start_ticks\":101,\"end_ticks\":101,\"wall_start_us\":0,"#,
    r#"\"wall_us\":0}],\"counters\":{\"interp_ticks\":101,\"samples\":0,\"events\":0,"#,
    r#"\"hook_calls\":9,\"hooks\":{\"__ceres_iter\":7,\"__ceres_loop_enter\":1,"#,
    r#"\"__ceres_loop_exit\":1},\"stack_pushes\":1,\"warnings\":0,\"retries\":0,"#,
    r#"\"watchdog_arms\":0}}],\"totals\":{\"interp_ticks\":101,\"samples\":0,\"events\":0,"#,
    r#"\"hook_calls\":9,\"hooks\":{\"__ceres_iter\":7,\"__ceres_loop_enter\":1,"#,
    r#"\"__ceres_loop_exit\":1},\"stack_pushes\":1,\"warnings\":0,\"retries\":0,"#,
    r#"\"watchdog_arms\":0}}"}"#,
];

#[test]
fn worker_pipe_lines_are_pinned() {
    let mut worker = Command::new(env!("CARGO_BIN_EXE_serve-worker-harness"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the worker harness");
    let mut stdin = worker.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(worker.stdout.take().expect("piped stdout"));
    let mut read = || {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("a pipe line");
        line.trim_end().to_string()
    };
    let mut pins = Vec::new();

    stdin.write_all(b"not a job\n").expect("send");
    pins.push(pin(
        "a job line that does not parse",
        read(),
        r#"{"ok":false,"ticks":0,"fragment":"\"key\":\"\",\"app\":\"\",\"slug\":\"\",\"status\":\"failed\",\"attempts\":0,\"error\":\"bad worker job line: expected a JSON value at byte 0\""}"#,
    ));

    let job = r#"{"source":"var t = 0; for (var i = 0; i < 7; i++) { t += i; }","mode":"loop-profile","seed":2015,"max_events":10000,"stream":true}"#;
    stdin
        .write_all(format!("{job}\n").as_bytes())
        .expect("send");
    let streamed: Vec<String> = (0..6).map(|_| read()).collect();
    let want = [
        r#"{"Phase":{"phase":"parse","start_ticks":0,"end_ticks":0}}"#.to_string(),
        r#"{"Phase":{"phase":"rewrite","start_ticks":0,"end_ticks":0}}"#.to_string(),
        r#"{"Phase":{"phase":"interp","start_ticks":0,"end_ticks":101}}"#.to_string(),
        r#"{"Partial":{"fragment":"\"total_ms\":0.0505,\"active_ms\":0.0,\"loops_ms\":0.047,\"loop_pct\":93.06930693069307"}}"#.to_string(),
        r#"{"Phase":{"phase":"analyze","start_ticks":101,"end_ticks":101}}"#.to_string(),
        PIPE_RESPONSE.concat(),
    ];
    for (i, (got, want)) in streamed.into_iter().zip(want).enumerate() {
        pins.push(pin(format!("streamed pipe line {i}"), got, want));
    }
    drop(stdin);
    assert!(worker.wait().expect("the worker exits").success());
    check(&pins);
}

#[test]
fn partial_timing_rows_are_pinned() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let mut pins = Vec::new();
    for (source, want) in [
        (
            "var t = 0; for (var i = 0; i < 7; i++) { t += i; }",
            r#"{"schema":2,"type":"partial","id":"p","seq":5,"total_ms":0.0505,"active_ms":0.0,"loops_ms":0.047,"loop_pct":93.06930693069307}"#,
        ),
        (
            "var s = 1; for (var i = 0; i < 300; i++) { s = s * 3 % 7; }",
            r#"{"schema":2,"type":"partial","id":"p","seq":5,"total_ms":2.4085,"active_ms":2.0,"loops_ms":2.405,"loop_pct":99.85468133693169}"#,
        ),
        (
            "var z = 0;",
            r#"{"schema":2,"type":"partial","id":"p","seq":5,"total_ms":0.001,"active_ms":0.0,"loops_ms":0.0,"loop_pct":0.0}"#,
        ),
    ] {
        let request = format!(r#"{{"id":"p","stream":true,"source":"{source}"}}"#);
        let partial = exchange(addr, &request)
            .into_iter()
            .find(|l| l.contains(r#""type":"partial""#))
            .unwrap_or_default();
        pins.push(pin(source, partial, want));
    }
    server.shutdown();
    check(&pins);
}

#[test]
fn op_replies_and_refusals_are_pinned() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let id = format!(r#""id":"{AWKWARD_JSON}""#);
    let mut pins: Vec<_> = [
        (
            format!(r#"{{"op":"ping",{id}}}"#),
            format!(r#"{{"schema":1,{id},"ok":true,"cached":false,"op":"ping"}}"#),
        ),
        (
            format!(r#"{{"op":"never",{id}}}"#),
            format!(r#"{{"schema":1,{id},"ok":false,"cached":false,"error":"unknown op `never`"}}"#),
        ),
        (
            "not json".to_string(),
            r#"{"schema":1,"id":"","ok":false,"cached":false,"error":"bad request: expected a JSON value at byte 0"}"#.to_string(),
        ),
        (
            format!(r#"{{{id},"source":"var x;","mode":"quantum"}}"#),
            format!(r#"{{"schema":1,{id},"ok":false,"cached":false,"error":"unknown mode `quantum` (want lightweight|loop-profile|dependence)"}}"#),
        ),
        (
            format!(r#"{{{id},"stream":true,"app":"nope"}}"#),
            format!(r#"{{"schema":2,"type":"error",{id},"seq":1,"ok":false,"cached":false,"error":"unknown app `nope` (see jsceres analyze-all)"}}"#),
        ),
        (
            format!(r#"{{{id},"source":"var x;","inject":"meteor"}}"#),
            format!(r#"{{"schema":1,{id},"ok":false,"cached":false,"error":"unknown inject kind `meteor` (want panic|hang|error|crash)"}}"#),
        ),
    ]
    .into_iter()
    .map(|(request, want)| {
        let got = exchange(addr, &request).remove(0);
        pin(request, got, want)
    })
    .collect();
    let bye = exchange(addr, r#"{"op":"shutdown","id":"b"}"#).remove(0);
    pins.push(pin(
        "shutdown",
        bye,
        r#"{"schema":1,"id":"b","ok":true,"cached":false,"op":"shutdown","draining":true}"#,
    ));
    server.join();
    check(&pins);
}
