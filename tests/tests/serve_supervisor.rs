//! Integration tests for the multi-process serving architecture: worker
//! crash isolation (a dying worker process costs one job, never the
//! daemon), spill-queue admission under overflow, and the
//! drain-flush → restart-replay lifecycle. The operator-facing story
//! these tests pin down is in `docs/OPERATIONS.md`.

use ceres_core::supervisor::WorkerSpec;
use ceres_core::{serve, ServeConfig, ServerHandle};
use ceres_integration_tests::{start_gated, wait_until, Latch};
use ceres_workloads::registry_resolver;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A fresh scratch directory (std-only; no tempfile crate).
fn tmpdir(label: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ceres-supervisor-test-{label}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// The production worker loop, as a spawnable test binary.
fn harness_spec() -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_serve-worker-harness")),
        args: Vec::new(),
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let policy = config.policy.clone();
    serve(listener, config, registry_resolver(policy))
}

fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    response.trim_end().to_string()
}

fn payload_tail(response: &str) -> &str {
    let at = response.find("\"key\":").expect("key field in response");
    &response[at..]
}

// ---------------------------------------------------------------------
// Crash isolation

/// `inject:"crash"` aborts the worker *process* mid-job. The job must
/// fail cleanly (status `worker-crashed`), the supervisor must report
/// the restart, and the daemon must keep serving — including on the very
/// slot that crashed — with byte-identical results afterwards.
#[test]
fn worker_crash_during_job_fails_cleanly_and_daemon_keeps_serving() {
    let server = start(ServeConfig {
        workers: 2,
        worker_spec: Some(harness_spec()),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A clean job before the crash, for the byte-identity comparison.
    let before = roundtrip(
        addr,
        r#"{"id":"b","source":"var k = 0; for (var i = 0; i < 9; i++) { k += i; }","mode":"dependence"}"#,
    );
    assert!(before.contains("\"ok\":true"), "{before}");

    // Kill a worker mid-job.
    let crash = roundtrip(addr, r#"{"id":"x","source":"var q = 1;","inject":"crash"}"#);
    assert!(crash.contains("\"ok\":false"), "{crash}");
    assert!(
        crash.contains("\"status\":\"worker-crashed\""),
        "crash must be attributed to the worker process: {crash}"
    );

    // The daemon is still serving, and a fresh worker answers with the
    // exact bytes the pre-crash worker produced (cached — but also
    // re-runnable: a different source gives a cold run on the respawned
    // worker).
    let warm = roundtrip(
        addr,
        r#"{"id":"b2","source":"var k = 0; for (var i = 0; i < 9; i++) { k += i; }","mode":"dependence"}"#,
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(payload_tail(&before), payload_tail(&warm));
    let cold2 = roundtrip(
        addr,
        r#"{"id":"c","source":"var z = 0; for (var i = 0; i < 7; i++) { z += i * i; }","mode":"dependence"}"#,
    );
    assert!(
        cold2.contains("\"ok\":true"),
        "respawned worker must run new jobs: {cold2}"
    );

    let counters = server.counters();
    assert!(
        counters.worker_restarts >= 1,
        "the crash must be counted as a restart: {counters:?}"
    );
    assert_eq!(counters.jobs_failed, 1, "{counters:?}");
    server.shutdown();
}

/// In-flight jobs on *other* workers survive a crash on one worker: fire
/// a crash and real work concurrently; every non-crash client gets its
/// answer.
#[test]
fn crash_on_one_worker_does_not_disturb_jobs_on_others() {
    let server = start(ServeConfig {
        workers: 3,
        worker_spec: Some(harness_spec()),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..4 {
        let req = format!(
            r#"{{"id":"job-{i}","source":"var v{i} = 0; for (var i = 0; i < {n}; i++) {{ v{i} += i; }}","mode":"dependence"}}"#,
            n = 40 + i
        );
        handles.push(std::thread::spawn(move || roundtrip(addr, &req)));
    }
    let crash = std::thread::spawn(move || {
        roundtrip(
            addr,
            r#"{"id":"boom","source":"var c = 1;","inject":"crash"}"#,
        )
    });

    for h in handles {
        let r = h.join().unwrap();
        assert!(
            r.contains("\"ok\":true"),
            "non-crash job must complete despite a concurrent worker crash: {r}"
        );
    }
    let c = crash.join().unwrap();
    assert!(c.contains("\"worker-crashed\""), "{c}");
    assert_eq!(server.counters().jobs_ok, 4);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Spill queue under overflow

/// A burst far past the in-memory ring must spill to disk, keep FIFO
/// admission order, route every reply to the right client, and reject
/// nobody. `burst-0` holds the only worker slot on a latch while the
/// other 9 arrive: only 2 of them fit in the ring, so at least 4 must
/// spill before it is let go.
#[test]
fn overflow_spills_fifo_and_replies_route_to_the_right_clients() {
    let source = |i: usize| {
        format!(
            "var w{i} = 0; for (var i = 0; i < {n}; i++) {{ w{i} += i; }}",
            n = 30 + i
        )
    };
    let latch = Latch::default();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let server = start_gated(config, &source(0), &latch);
    let addr = server.local_addr();

    let send = |i: usize| {
        let req = format!(
            r#"{{"id":"burst-{i}","source":"{}","mode":"dependence"}}"#,
            source(i)
        );
        std::thread::spawn(move || (i, roundtrip(addr, &req)))
    };
    let mut handles = vec![send(0)];
    latch.wait_started();
    handles.extend((1..10).map(send));
    wait_until("4 jobs spilled", || server.counters().jobs_spilled >= 4);
    latch.release();

    let mut fingerprints = std::collections::HashSet::new();
    for h in handles {
        let (i, r) = h.join().unwrap();
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(
            r.contains(&format!("\"id\":\"burst-{i}\"")),
            "reply must route back to its own client: {r}"
        );
        // Distinct sources ⇒ distinct cache keys; a crossed reply would
        // collapse two ids onto one fingerprint.
        let tail = payload_tail(&r);
        let fp = tail["\"key\":\"".len()..]
            .split('"')
            .next()
            .unwrap()
            .to_string();
        assert!(
            fingerprints.insert(fp),
            "two clients saw the same payload: {r}"
        );
    }
    let counters = server.counters();
    assert!(
        counters.jobs_spilled > 0,
        "a burst of 10 into a ring of 2 with one worker must spill: {counters:?}"
    );
    assert!(counters.spill_peak_depth > 0, "{counters:?}");
    assert_eq!(counters.rejected_queue_full, 0, "{counters:?}");
    assert_eq!(counters.jobs_ok, 10, "{counters:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Drain flush → restart replay

/// Send a streaming request from its own thread, which reports on
/// `admitted` once the daemon's `accepted` frame arrives and then
/// returns the terminal frame.
fn stream_client(addr: SocketAddr, line: String, admitted: mpsc::Sender<()>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reader = BufReader::new(stream);
        let mut frame = String::new();
        loop {
            frame.clear();
            let n = reader.read_line(&mut frame).expect("frame");
            assert!(n > 0, "connection closed before the terminal frame");
            let parsed: Value = serde_json::from_str(&frame).expect("frame is JSON");
            match parsed.get("type").and_then(Value::as_str) {
                Some("accepted") => admitted.send(()).expect("test is listening"),
                Some("result" | "error") => return frame.trim_end().to_string(),
                _ => {}
            }
        }
    })
}

/// Graceful drain must not silently drop accepted jobs: with a
/// persistent spill directory, the queued tail is flushed to disk and
/// its clients told explicitly; a restarted daemon replays the backlog
/// into its cache so a retry is a warm hit.
#[test]
fn drain_flushes_the_tail_and_restart_replays_it_into_the_cache() {
    let spill_dir = tmpdir("drain-replay");
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        spill_dir: Some(spill_dir.clone()),
        ..ServeConfig::default()
    };
    let source = |i: usize| {
        format!(
            "var d{i} = 0; for (var i = 0; i < {n}; i++) {{ d{i} += i; }}",
            n = 200 + i
        )
    };
    let request = |i: usize, stream: bool| {
        format!(
            r#"{{"id":"d-{i}","source":"{}","mode":"dependence","stream":{stream}}}"#,
            source(i)
        )
    };

    // Phase 1: d-0 holds the only worker slot on the latch while the
    // other five are admitted: one waits in the ring (capacity 1) and
    // four in the spill file. A drain lets d-0 finish and flushes the
    // five that never reached a worker.
    let latch = Latch::default();
    let server = start_gated(config.clone(), &source(0), &latch);
    let addr = server.local_addr();
    let (admitted_tx, admitted) = mpsc::channel();
    let mut clients = vec![stream_client(addr, request(0, true), admitted_tx.clone())];
    latch.wait_started();
    clients.extend((1..6).map(|i| stream_client(addr, request(i, true), admitted_tx.clone())));
    for _ in 0..6 {
        admitted.recv().expect("every request is admitted");
    }
    wait_until(
        "one job waits in the ring and four in the spill file",
        || {
            let stats: Value = serde_json::from_str(&roundtrip(addr, r#"{"op":"stats"}"#)).unwrap();
            let depth = |v: Option<&Value>| v.and_then(Value::as_u64).expect("a depth");
            let spill = stats.get("spill").expect("a spill queue");
            depth(stats.get("queue_depth")) == 1 && depth(spill.get("depth")) == 4
        },
    );
    server.request_drain();
    latch.release();
    let responses: Vec<String> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    server.join();
    let flushed: Vec<bool> = responses
        .iter()
        .map(|r| r.contains("flushed to the spill queue"))
        .collect();
    let ok = responses
        .iter()
        .filter(|r| r.contains("\"ok\":true"))
        .count();
    assert_eq!(ok, 1, "{responses:#?}");
    assert_eq!(flushed.iter().filter(|&&f| f).count(), 5, "{responses:#?}");

    // Phase 2: a fresh daemon on the same spill dir replays the five
    // flushed jobs into its cache. Retried, they are warm hits; d-0,
    // which finished before the drain, runs cold.
    let server2 = start(config);
    let addr2 = server2.local_addr();
    assert_eq!(server2.counters().spill_replayed, 5);
    wait_until("the replayed jobs ran", || server2.counters().jobs_ok == 5);
    for (i, was_flushed) in flushed.into_iter().enumerate() {
        let r = roundtrip(addr2, &request(i, false));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert_eq!(r.contains("\"cached\":true"), was_flushed, "d-{i}: {r}");
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&spill_dir);
}
