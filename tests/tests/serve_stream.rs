//! Integration tests for the schema-2 streaming wire protocol: the
//! golden-pinned frame sequence for a deterministic job (every `phase`
//! frame from the run that produces the result), stream and one-shot
//! payloads sharing bytes on success and on failure, a many-client soak
//! (frame ordering, no cross-client leakage), proof that a cheap job
//! finishes on one worker while an expensive job runs on another, the
//! spill-time `notice` frame, and a worker crash ending the stream in a
//! terminal `error`.
//!
//! Regenerate the stream golden with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test serve_stream`
//! only when an intentional protocol or analysis change lands (and say
//! so in the commit).

use ceres_core::supervisor::WorkerSpec;
use ceres_core::{serve, ServeConfig, ServerHandle};
use ceres_integration_tests::{start_gated, wait_until, Latch};
use ceres_workloads::registry_resolver;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const STREAM_GOLDEN: &str = include_str!("../golden/serve_stream.json");

fn start(config: ServeConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let policy = config.policy.clone();
    serve(listener, config, registry_resolver(policy))
}

/// The production worker loop, as a spawnable test binary (see
/// `tests/bin/serve_worker_harness.rs`).
fn harness_spec() -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_serve-worker-harness")),
        args: Vec::new(),
    }
}

/// One received frame: raw line, parsed JSON, and arrival time (for
/// cross-client interleaving assertions).
struct FrameRec {
    line: String,
    v: serde_json::Value,
    at: Instant,
}

impl FrameRec {
    fn ty(&self) -> &str {
        self.v
            .get("type")
            .and_then(|t| t.as_str())
            .expect("frame has a type")
    }
    fn field(&self, name: &str) -> Option<&serde_json::Value> {
        self.v.get(name)
    }
    fn is_terminal(&self) -> bool {
        matches!(self.ty(), "result" | "error")
    }
}

/// Send one streaming request and collect frames until the terminal.
fn stream_job(addr: SocketAddr, line: &str) -> Vec<FrameRec> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    loop {
        let mut l = String::new();
        let n = reader.read_line(&mut l).expect("read frame line");
        assert!(n > 0, "connection closed before a terminal frame");
        let trimmed = l.trim_end().to_string();
        let v: serde_json::Value = serde_json::from_str(&trimmed).expect("frame is JSON");
        let frame = FrameRec {
            line: trimmed,
            v,
            at: Instant::now(),
        };
        frames.push(frame);
        if frames.last().expect("just pushed").is_terminal() {
            return frames;
        }
    }
}

/// The per-client protocol contract: every frame stamped schema 2 and
/// this client's id (no cross-client leakage), `seq` gapless from 1,
/// exactly one terminal frame and it is last, and phases in pipeline
/// order.
fn assert_stream_hygiene(frames: &[FrameRec], id: &str) {
    assert!(!frames.is_empty(), "{id}: empty stream");
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(
            f.field("schema").and_then(|x| x.as_u64()),
            Some(2),
            "{id}: {}",
            f.line
        );
        assert_eq!(
            f.field("id").and_then(|x| x.as_str()),
            Some(id),
            "cross-client frame leakage: {}",
            f.line
        );
        assert_eq!(
            f.field("seq").and_then(|x| x.as_u64()),
            Some(i as u64 + 1),
            "{id}: seq must be gapless and monotonic: {}",
            f.line
        );
    }
    let (last, init) = frames.split_last().expect("non-empty");
    assert!(last.is_terminal(), "{id}: last frame must be terminal");
    for f in init {
        assert!(
            !f.is_terminal(),
            "{id}: frame after the terminal: {}",
            f.line
        );
    }
    // Phases must appear in pipeline order (a supervised retry restarts
    // the sequence at `parse`, but these jobs take none).
    let order = ["parse", "rewrite", "interp", "analyze", "report"];
    let mut last_idx = 0usize;
    for f in init.iter().filter(|f| f.ty() == "phase") {
        let name = f
            .field("phase")
            .and_then(|x| x.as_str())
            .expect("phase name");
        let idx = order
            .iter()
            .position(|p| p == &name)
            .unwrap_or_else(|| panic!("{id}: unknown phase `{name}`"));
        assert!(
            idx >= last_idx,
            "{id}: phase `{name}` out of pipeline order"
        );
        last_idx = idx;
    }
}

// ---------------------------------------------------------------------
// Golden frame sequence

/// The exact schema-2 frame sequence for a fixed inline-source request,
/// pinned byte-for-byte — the streaming counterpart of the schema-1
/// `serve_envelope.json` golden (same program, same options). Frames
/// carry only virtual-clock data, so the whole stream is deterministic.
/// Both transports must emit it: in-process and worker processes.
#[test]
fn serve_stream_golden_is_byte_identical() {
    for worker_spec in [None, Some(harness_spec())] {
        check_stream_golden(ServeConfig {
            worker_spec,
            ..ServeConfig::default()
        });
    }
}

fn check_stream_golden(config: ServeConfig) {
    let backend = config.backend();
    let server = start(config);
    let addr = server.local_addr();
    let req = r#"{"id":"golden-stream","stream":true,"source":"var t = 0; for (var i = 0; i < 6; i++) { t += i; }","mode":"dep","seed":2015}"#;
    let frames = stream_job(addr, req);
    server.shutdown();

    assert_stream_hygiene(&frames, "golden-stream");
    let got = frames
        .iter()
        .map(|f| f.line.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/serve_stream.json");
        std::fs::write(path, format!("{got}\n")).expect("regen golden");
        return;
    }
    let types: Vec<&str> = frames.iter().map(|f| f.ty()).collect();
    assert_eq!(
        types,
        ["accepted", "phase", "phase", "phase", "partial", "phase", "result"],
        "{backend}: frame shape drifted"
    );
    assert_eq!(
        got,
        STREAM_GOLDEN.trim_end(),
        "{backend}: frame stream drifted from tests/golden/serve_stream.json"
    );
}

/// The streaming terminal frame carries the same payload fragment as the
/// one-shot envelope for the same request — only the envelope around it
/// differs between schemas. For a job that succeeds the one-shot is a
/// warm hit, so the cached fragment *is* the cold streamed one; a job
/// whose source does not parse is never cached, so both requests run it
/// and must fail with the same bytes.
#[test]
fn stream_result_fragment_matches_oneshot_envelope() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    for (src, cached) in [
        (
            "var q = 0; for (var i = 0; i < 9; i++) { q += i * 2; }",
            true,
        ),
        ("var = 1;", false),
    ] {
        let streamed = stream_job(
            addr,
            &format!(r#"{{"id":"s","stream":true,"source":"{src}","mode":"dep"}}"#),
        );
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("{{\"id\":\"o\",\"source\":\"{src}\",\"mode\":\"dep\"}}\n").as_bytes(),
            )
            .expect("send");
        let mut oneshot = String::new();
        BufReader::new(stream)
            .read_line(&mut oneshot)
            .expect("response");

        assert_stream_hygiene(&streamed, "s");
        let tail = |s: &str| s[s.find("\"key\":").expect("key field")..].to_string();
        let terminal = &streamed.last().expect("terminal").line;
        assert_eq!(
            tail(terminal),
            tail(oneshot.trim_end()),
            "{src}: stream terminal and one-shot envelope must share payload bytes"
        );
        assert!(
            oneshot.contains(&format!("\"cached\":{cached}")),
            "{oneshot}"
        );
    }
    server.shutdown();
}

/// Each field of a stream's `partial` row equals the terminal report's
/// field of that name, digit for digit: the row is the report's timing,
/// sent early.
#[test]
fn partial_row_matches_the_terminal_report() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    for src in [
        "var t = 0; for (var i = 0; i < 6; i++) { t += i; }",
        "var t = 0; for (var i = 0; i < 7; i++) { t += i; }",
        "var s = 1; for (var i = 0; i < 300; i++) { s = s * 3 % 7; }",
        "var z = 0;",
    ] {
        let frames = stream_job(
            addr,
            &format!(r#"{{"id":"p","stream":true,"source":"{src}"}}"#),
        );
        let partial = frames.iter().find(|f| f.ty() == "partial");
        let report = frames.last().and_then(|f| f.field("report"));
        let (Some(partial), Some(report)) = (partial, report) else {
            panic!("{src}: no partial row or no report");
        };
        // The row's fields follow the envelope's `schema`, `type`, `id`
        // and `seq`.
        let row = &partial.v.as_map().expect("a frame is an object")[4..];
        assert!(!row.is_empty(), "{src}: an empty row: {}", partial.line);
        for (name, value) in row {
            assert_eq!(
                Some(value.to_string()),
                report.get(name).map(ToString::to_string),
                "{src}: `{name}` of the partial row and of the report"
            );
        }
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Cross-job overlap

/// With two interp slots, a cheap job submitted while an expensive job
/// is mid-interp finishes first — jobs pipeline across the pool instead
/// of head-of-line blocking (the acceptance drill: a cheap `result`
/// lands while the expensive job is still running). The expensive job
/// holds its slot on a latch until the cheap client has its result.
#[test]
fn cheap_result_lands_before_a_running_expensive_job() {
    let heavy_src = "var h = 0; for (var i = 0; i < 2000; i++) { h += i % 7; }";
    let latch = Latch::default();
    let server = start_gated(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        heavy_src,
        &latch,
    );
    let addr = server.local_addr();

    let expensive = std::thread::spawn(move || {
        stream_job(
            addr,
            &format!(r#"{{"id":"heavy","stream":true,"source":"{heavy_src}","mode":"dep"}}"#),
        )
    });
    latch.wait_started();
    let light = stream_job(
        addr,
        r#"{"id":"light","stream":true,"source":"var l = 2 + 3;","mode":"dep"}"#,
    );
    latch.release();
    let heavy = expensive.join().expect("heavy client");
    server.shutdown();
    assert_stream_hygiene(&heavy, "heavy");
    assert_stream_hygiene(&light, "light");
    assert!(
        light.last().expect("terminal").at < heavy.last().expect("terminal").at,
        "cheap job must finish while the expensive job is still mid-interp"
    );
}

// ---------------------------------------------------------------------
// Many-client soak

/// N concurrent streaming clients with mixed cheap/expensive jobs:
/// every client sees only its own id, gapless `seq`, ordered phases,
/// and a successful terminal — under real cross-job interleaving.
#[test]
fn streaming_soak_keeps_every_client_stream_clean() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let n = 8usize;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            // Alternate cheap parses and heavier interps; distinct
            // sources so the cache never short-circuits the pipeline.
            let iters = if i % 2 == 0 { 5 + i } else { 4000 + i };
            let req = format!(
                r#"{{"id":"soak-{i}","stream":true,"source":"var s{i} = 0; for (var i = 0; i < {iters}; i++) {{ s{i} += i; }}","mode":"dep"}}"#,
            );
            std::thread::spawn(move || stream_job(addr, &req))
        })
        .collect();
    let streams: Vec<Vec<FrameRec>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let counters = {
        let c = server.counters();
        server.shutdown();
        c
    };

    for (i, frames) in streams.iter().enumerate() {
        let id = format!("soak-{i}");
        assert_stream_hygiene(frames, &id);
        let terminal = frames.last().expect("terminal");
        assert_eq!(terminal.ty(), "result", "{id}: {}", terminal.line);
        assert_eq!(
            terminal.field("ok").and_then(|x| x.as_bool()),
            Some(true),
            "{id}"
        );
        assert_eq!(frames.first().expect("first").ty(), "accepted", "{id}");
        assert!(
            frames.iter().any(|f| f.ty() == "partial"),
            "{id}: missing early partial frame"
        );
    }
    assert_eq!(counters.streams, n as u64);
    assert!(
        counters.frames_streamed >= (n * 5) as u64,
        "each stream carries accepted+parse+rewrite+interp+partial+analyze \
         before its terminal: {counters:?}"
    );
}

// ---------------------------------------------------------------------
// Spill-time notice

/// When admission overflows to disk, a *streaming* client is told right
/// away via a `notice` frame (the drain path is no longer the only
/// reporter) — and the spilled job still replays on a worker to a
/// successful terminal.
#[test]
fn spilled_streaming_jobs_get_an_immediate_notice_and_still_finish() {
    let source = |i: usize| {
        format!(
            "var b{i} = 0; for (var i = 0; i < {}; i++) {{ b{i} += i; }}",
            300 + i
        )
    };
    let latch = Latch::default();
    let server = start_gated(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        &source(0),
        &latch,
    );
    let addr = server.local_addr();
    let n = 8usize;
    let send = |i: usize| {
        let req = format!(
            r#"{{"id":"burst-{i}","stream":true,"source":"{}","mode":"dep"}}"#,
            source(i)
        );
        std::thread::spawn(move || stream_job(addr, &req))
    };
    // burst-0 pins the single interp slot on a latch…
    let mut handles = vec![send(0)];
    latch.wait_started();
    // …then the rest arrive at once. While the slot is held, only one
    // can be absorbed (the ring) — at least four must spill.
    handles.extend((1..n).map(send));
    wait_until("4 jobs spilled", || server.counters().jobs_spilled >= 4);
    latch.release();
    let streams: Vec<Vec<FrameRec>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let counters = {
        let c = server.counters();
        server.shutdown();
        c
    };

    let mut noticed = 0u64;
    for (i, frames) in streams.iter().enumerate() {
        let id = format!("burst-{i}");
        assert_stream_hygiene(frames, &id);
        let terminal = frames.last().expect("terminal");
        assert_eq!(
            terminal.field("ok").and_then(|x| x.as_bool()),
            Some(true),
            "{id}: spilled jobs must still complete: {}",
            terminal.line
        );
        if frames.iter().any(|f| f.ty() == "notice") {
            noticed += 1;
        }
    }
    assert!(
        counters.jobs_spilled > 0,
        "a burst of {n} into a 1-slot ring must spill: {counters:?}"
    );
    assert!(noticed > 0, "spilled streaming clients must see a notice");
    assert_eq!(
        counters.spill_notices, noticed,
        "one spill notice per spilled streaming client: {counters:?}"
    );
}

// ---------------------------------------------------------------------
// Worker crash

/// Process backend: a worker that dies while running a streaming job
/// leaves the client with a clean terminal `error` — never a hung or
/// desynced stream. An `inject:"crash"` worker aborts before its
/// pipeline emits anything, so the stream is exactly `accepted` then
/// `error`; `scripts/serve_smoke.sh` kills a worker mid-interp.
#[test]
fn worker_crash_mid_stream_ends_in_a_terminal_error() {
    let mut config = ServeConfig {
        workers: 1,
        worker_spec: Some(harness_spec()),
        ..ServeConfig::default()
    };
    config.policy.backoff = Duration::from_millis(1);
    let server = start(config);
    let addr = server.local_addr();

    let frames = stream_job(
        addr,
        r#"{"id":"doomed","stream":true,"source":"var d = 0; for (var i = 0; i < 50; i++) { d += i; }","mode":"dep","inject":"crash"}"#,
    );
    let counters = {
        let c = server.counters();
        server.shutdown();
        c
    };

    assert_stream_hygiene(&frames, "doomed");
    let types: Vec<&str> = frames.iter().map(|f| f.ty()).collect();
    assert_eq!(types, ["accepted", "error"], "{types:?}");
    let terminal = frames.last().expect("terminal");
    assert!(
        terminal
            .line
            .contains("\"status\":\"worker-crashed\",\"attempts\":2"),
        "{}",
        terminal.line
    );
    assert!(
        counters.worker_restarts > 0,
        "the crashed worker must have been restarted: {counters:?}"
    );
}
