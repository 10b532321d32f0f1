//! Integration tests for the `jsceresd` serving surface: the versioned
//! wire envelope (golden-pinned), content-addressed cache-key hygiene
//! across the registry, warm-hit byte-identity through the real
//! workload resolver, and cross-instance determinism of canonical
//! payloads.
//!
//! Regenerate the envelope golden with
//! `CERES_REGEN_GOLDENS=1 cargo test -p ceres-integration-tests --test serve_cache`
//! only when an intentional protocol or analysis change lands (and say
//! so in the commit).

use ceres_core::fleet::{FleetOutcome, API_SCHEMA_VERSION};
use ceres_core::serve::ONESHOT_SCHEMA_VERSION;
use ceres_core::supervisor::WorkerSpec;
use ceres_core::{serve, AnalyzeOptions, CacheKey, Mode, ServeConfig, ServeCounters, ServerHandle};
use ceres_workloads::{registry_resolver, workload_html};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

const ENVELOPE_GOLDEN: &str = include_str!("../golden/serve_envelope.json");

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

/// Everything after the request-specific prefix (`id`/`cached` differ
/// between cold and warm by design; the result payload must not).
fn payload_tail(response: &str) -> &str {
    let at = response.find("\"key\":").expect("key field in response");
    &response[at..]
}

// ---------------------------------------------------------------------
// Versioned envelope

/// The exact response line for a fixed inline-source request, pinned
/// byte-for-byte. Any change to the envelope shape, the schema stamp,
/// the cache-key derivation, or the canonical report/metrics payload
/// shows up as a diff here rather than as silent wire drift. Both
/// transports must answer it: in-process and worker processes (the
/// production worker loop, as a spawnable test binary).
#[test]
fn serve_envelope_is_byte_identical_to_golden() {
    let harness = WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_serve-worker-harness")),
        args: Vec::new(),
    };
    for worker_spec in [None, Some(harness)] {
        check_envelope_golden(ServeConfig {
            worker_spec,
            ..ServeConfig::default()
        });
    }
}

fn check_envelope_golden(config: ServeConfig) {
    let backend = config.backend();
    let server = start(config);
    let addr = server.local_addr();
    let req = r#"{"id":"golden","source":"var t = 0; for (var i = 0; i < 6; i++) { t += i; }","mode":"dep","seed":2015}"#;
    let got = roundtrip(addr, req);
    server.shutdown();

    if std::env::var("CERES_REGEN_GOLDENS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/serve_envelope.json");
        std::fs::write(path, format!("{got}\n")).expect("regen golden");
        return;
    }
    assert!(
        got.starts_with(&format!("{{\"schema\":{ONESHOT_SCHEMA_VERSION},")),
        "{backend}: one-shot envelope must lead with the legacy schema version: {got}"
    );
    assert_eq!(
        got,
        ENVELOPE_GOLDEN.trim_end(),
        "{backend}: wire envelope drifted from tests/golden/serve_envelope.json"
    );
}

/// The fleet `--json` artifact leads with the same stamped version.
#[test]
fn fleet_outcome_json_is_versioned() {
    let outcome = FleetOutcome::new("Dependence".to_string(), 1, 1, Vec::new());
    let json = outcome.to_json();
    let want = format!("{{\n  \"api_schema_version\": {API_SCHEMA_VERSION},");
    assert!(
        json.starts_with(&want),
        "fleet JSON must lead with api_schema_version: {json}"
    );
    assert_eq!(outcome.canonical().api_schema_version, API_SCHEMA_VERSION);
}

// ---------------------------------------------------------------------
// Cache-key hygiene

/// Distinct `(source, mode, seed, focus, scale)` tuples must never share
/// a fingerprint — across every registry workload and across every
/// option axis for a fixed source.
#[test]
fn cache_keys_never_collide_across_workloads_and_options() {
    let mut seen: HashSet<String> = HashSet::new();
    let mut keys = 0usize;
    let mut claim = |key: CacheKey| {
        keys += 1;
        assert!(
            seen.insert(key.fingerprint()),
            "fingerprint collision for {}",
            key.canonical()
        );
    };

    // Every registry app at two scales.
    for w in ceres_workloads::all() {
        for scale in [1u32, 2] {
            let source = workload_html(&w, scale);
            let opts = AnalyzeOptions {
                mode: Mode::Dependence,
                seed: 2015,
                ..AnalyzeOptions::default()
            };
            claim(CacheKey::of(&source, &opts, scale));
        }
    }

    // One fixed source across the option axes.
    let source = "var x = 1;";
    for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
        for seed in [2015u64, 7] {
            for focus in [None, Some(1u32), Some(2)] {
                let opts = AnalyzeOptions {
                    mode,
                    seed,
                    focus: focus.map(ceres_ast::LoopId),
                    ..AnalyzeOptions::default()
                };
                claim(CacheKey::of(source, &opts, 1));
            }
        }
    }
    assert_eq!(seen.len(), keys, "every tuple must be distinct");

    // Wall-clock budgets are scheduling policy, not content: they must
    // NOT split the cache.
    let a = AnalyzeOptions {
        mode: Mode::Dependence,
        ..AnalyzeOptions::default()
    };
    let b = AnalyzeOptions {
        wall_budget: Some(std::time::Duration::from_secs(5)),
        ..a.clone()
    };
    assert_eq!(
        CacheKey::of(source, &a, 1).fingerprint(),
        CacheKey::of(source, &b, 1).fingerprint(),
        "wall budget must not be part of the content address"
    );
}

// ---------------------------------------------------------------------
// Warm hits through the registry resolver

/// A repeated `{"app":...}` request is served from the cache
/// byte-identically without re-entering the interpreter.
#[test]
fn registry_app_warm_hit_is_byte_identical_with_zero_new_ticks() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let req = r#"{"id":"a1","app":"haar","mode":"light"}"#;

    let cold = roundtrip(addr, req);
    assert!(cold.contains("\"ok\":true"), "{cold}");
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(cold.contains("\"slug\":\"haar\""), "{cold}");
    let ticks_after_cold = server.counters().interp_ticks;
    assert!(ticks_after_cold > 0, "cold run must interpret");

    let warm = roundtrip(addr, r#"{"id":"a2","app":"haar","mode":"light"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(
        payload_tail(&cold),
        payload_tail(&warm),
        "warm payload must be byte-identical"
    );
    assert_eq!(
        server.counters().interp_ticks,
        ticks_after_cold,
        "warm hit must not re-enter the interpreter"
    );
    assert_eq!(server.counters().cache_hits, 1);
    server.shutdown();
}

/// An inline copy of a registry page is not the app: the app's run adds
/// its interaction script and names the app. So a registry request after
/// the inline one misses and runs the app.
#[test]
fn inline_copy_of_a_registry_page_does_not_answer_for_the_app() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let camanjs = ceres_workloads::by_slug("camanjs").expect("camanjs is registered");
    let page = serde_json::to_string(&workload_html(&camanjs, 1)).expect("a string serializes");
    let copy = roundtrip(
        addr,
        &format!(r#"{{"id":"i1","source":{page},"mode":"light"}}"#),
    );
    assert!(copy.contains("\"ok\":true"), "{copy}");
    assert!(copy.contains("\"app\":\"inline\""), "{copy}");

    let app = roundtrip(addr, r#"{"id":"a1","app":"camanjs","mode":"light"}"#);
    assert!(app.contains("\"ok\":true"), "{app}");
    assert!(app.contains("\"cached\":false"), "{app}");
    assert!(app.contains("\"app\":\"CamanJS\""), "{app}");
    server.shutdown();
}

/// A focus on no loop of the program fails the job, so no clean report
/// is stored under its key and a repeat is refused again.
#[test]
fn focus_on_no_loop_is_refused_and_not_cached() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let req = r#"{"source":"for (var i = 0; i < 3; i++) { }","mode":"dep","focus":2}"#;
    for _ in 0..2 {
        let r = roundtrip(addr, req);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("\"cached\":false"), "{r}");
        assert!(r.contains("focus loop 2 is not a loop of"), "{r}");
    }
    assert_eq!(server.counters().cache_hits, 0);
    server.shutdown();
}

/// A focus outside dependence mode changes nothing the run computes, so
/// it is refused before anything runs or is keyed; the same focus in
/// dependence mode is served.
#[test]
fn focus_outside_dependence_mode_is_refused_before_running() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let source = "for (var i = 0; i < 3; i++) { }";
    for mode in ["light", "loop"] {
        let r = roundtrip(
            addr,
            &format!(r#"{{"source":"{source}","mode":"{mode}","focus":1}}"#),
        );
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("`focus` needs mode `dependence`, not `"), "{r}");
    }
    assert_nothing_ran(addr);
    let dep = roundtrip(
        addr,
        &format!(r#"{{"source":"{source}","mode":"dep","focus":1}}"#),
    );
    assert!(dep.contains("\"ok\":true"), "{dep}");
    assert_eq!(server.counters().jobs_ok, 1);
    server.shutdown();
}

/// `scale` sizes a registry app's page. On an inline source it changes
/// nothing the run computes, yet would key a separate analysis per
/// value; a scale of 0 makes a degenerate page, which the fleet commands
/// refuse too. Both are refused before anything runs or is keyed.
#[test]
fn scale_without_app_or_of_zero_is_refused_before_running() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let source = "for (var i = 0; i < 3; i++) { }";
    for (request, want) in [
        (
            format!(r#"{{"source":"{source}","scale":1}}"#),
            "`scale` needs `app`",
        ),
        (
            format!(r#"{{"source":"{source}","scale":7}}"#),
            "`scale` needs `app`",
        ),
        (
            r#"{"app":"haar","mode":"light","scale":0}"#.to_string(),
            "`scale` needs a positive integer (got `0`)",
        ),
    ] {
        let r = roundtrip(addr, &request);
        assert!(r.contains("\"ok\":false"), "{request}: {r}");
        assert!(r.contains(want), "{request}: {r}");
    }
    assert_nothing_ran(addr);
    server.shutdown();
}

/// The server's `stats` show no cache miss, no job and no tick.
fn assert_nothing_ran(addr: SocketAddr) {
    let stats = roundtrip(addr, r#"{"op":"stats","id":"s"}"#);
    for name in ["cache_misses", "jobs_ok", "jobs_failed", "interp_ticks"] {
        assert_eq!(counter(&stats, name), 0, "{name}: {stats}");
    }
}

/// The counter `name` of a `stats` line.
fn counter(stats: &str, name: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(stats).expect("stats parses");
    v.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("missing {name}: {stats}"))
}

/// `ServerHandle::counters()` and `join()` read the cache's traffic as
/// `stats` reports it: on a one-entry cache, where `b` evicts `a` and
/// then hits, all three agree on hits, misses and evictions.
#[test]
fn counters_and_join_repeat_the_cache_traffic_of_stats() {
    let server = start(ServeConfig {
        cache_capacity: 1,
        cache_shards: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    for source in ["var a = 1;", "var b = 2;", "var b = 2;"] {
        let r = roundtrip(addr, &format!(r#"{{"source":"{source}"}}"#));
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    let reported = ["cache_hits", "cache_misses", "cache_evictions"].map(|c| counter(&stats, c));
    assert_eq!(reported, [1, 2, 1], "{stats}");
    let traffic = |c: ServeCounters| [c.cache_hits, c.cache_misses, c.cache_evictions];
    assert_eq!(traffic(server.counters()), reported, "counters()");
    server.request_drain();
    assert_eq!(traffic(server.join()), reported, "join()");
}

// ---------------------------------------------------------------------
// Sharding and persistence

/// A fresh scratch directory (std-only; no tempfile crate).
fn tmpdir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ceres-serve-cache-test-{label}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Distinct requests route across the cache shards, and the per-shard
/// accounting in the `stats` op sums to the totals.
#[test]
fn distinct_requests_spread_across_cache_shards() {
    let server = start(ServeConfig {
        cache_shards: 4,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    for i in 0..12 {
        let r = roundtrip(
            addr,
            &format!(r#"{{"source":"var s{i} = {i};","mode":"light"}}"#),
        );
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let stats = roundtrip(addr, r#"{"op":"stats","id":"s"}"#);
    let v: serde_json::Value = serde_json::from_str(&stats).expect("stats parses");
    let cache = v.get("cache").expect("cache object");
    let field = |obj: &serde_json::Value, name: &str| -> u64 {
        obj.get(name)
            .and_then(|x| x.as_u64())
            .unwrap_or_else(|| panic!("missing {name}: {stats}"))
    };
    assert_eq!(field(cache, "shards"), 4, "{stats}");
    assert_eq!(field(cache, "len"), 12, "{stats}");
    let shards = cache
        .get("per_shard")
        .and_then(|x| x.as_array())
        .expect("per_shard array");
    assert_eq!(shards.len(), 4);
    let len_sum: u64 = shards.iter().map(|s| field(s, "len")).sum();
    assert_eq!(len_sum, 12, "shard lens must sum to the total: {stats}");
    let populated = shards.iter().filter(|s| field(s, "len") > 0).count();
    assert!(
        populated >= 2,
        "12 distinct keys must not all hash to one of 4 shards: {stats}"
    );
    server.shutdown();
}

/// Cache persistence across daemon restarts: a payload produced before a
/// restart is served after it byte-identically, from disk, with zero new
/// interpreter ticks — the warm-start acceptance criterion.
#[test]
fn persisted_cache_survives_restart_byte_identically_with_zero_ticks() {
    let cache_dir = tmpdir("persist-reload");
    let config = ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    };
    let req = r#"{"id":"p1","app":"haar","mode":"light"}"#;

    // First life: one cold run, written through to the shard files.
    let server = start(config.clone());
    let cold = roundtrip(server.local_addr(), req);
    assert!(cold.contains("\"ok\":true"), "{cold}");
    assert!(cold.contains("\"cached\":false"), "{cold}");
    server.shutdown();

    // Second life: the entry must come back from disk — cached, byte-
    // identical, and without a single new interpreter tick.
    let server2 = start(config);
    let warm = roundtrip(
        server2.local_addr(),
        r#"{"id":"p2","app":"haar","mode":"light"}"#,
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(
        payload_tail(&cold),
        payload_tail(&warm),
        "persisted payload must be byte-identical across restarts"
    );
    let counters = server2.counters();
    assert_eq!(
        counters.interp_ticks, 0,
        "a warm-start hit must not enter the interpreter: {counters:?}"
    );
    assert_eq!(counters.cache_hits, 1, "{counters:?}");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Corruption in one persisted shard line must not poison the daemon:
/// damaged entries are skipped on load and simply re-run cold.
#[test]
fn corrupt_persisted_shard_lines_are_skipped_not_served() {
    let cache_dir = tmpdir("corrupt-shard");
    let config = ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    };
    let req = r#"{"id":"k1","app":"haar","mode":"light"}"#;
    let server = start(config.clone());
    let cold = roundtrip(server.local_addr(), req);
    assert!(cold.contains("\"ok\":true"), "{cold}");
    server.shutdown();

    // Flip bytes in every persisted payload.
    for entry in std::fs::read_dir(&cache_dir).expect("read cache dir") {
        let path = entry.expect("entry").path();
        let data = std::fs::read_to_string(&path).expect("read shard");
        if !data.is_empty() {
            // Every stored fragment starts with `"key":...` — damaging it
            // breaks the per-line checksum.
            std::fs::write(&path, data.replace("\"key\"", "\"kXy\"")).expect("corrupt shard");
        }
    }

    let server2 = start(config);
    let after = roundtrip(server2.local_addr(), req);
    assert!(
        after.contains("\"cached\":false"),
        "a corrupt entry must be dropped, not served: {after}"
    );
    assert!(after.contains("\"ok\":true"), "{after}");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------
// Cross-instance determinism

/// Canonical payloads are a function of the request alone: concurrent
/// clients against two *separate* daemon instances (separate caches,
/// separate worker pools) converge on one payload.
#[test]
fn concurrent_clients_and_instances_agree_on_canonical_payloads() {
    let a = start(ServeConfig::default());
    let b = start(ServeConfig::default());
    let req = r#"{"source":"var s = 0; for (var i = 0; i < 12; i++) { s += i * i; }","mode":"dependence","seed":2015}"#;

    let mut handles = Vec::new();
    for addr in [a.local_addr(), b.local_addr()] {
        for _ in 0..3 {
            let req = req.to_string();
            handles.push(std::thread::spawn(move || roundtrip(addr, &req)));
        }
    }
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let tails: HashSet<&str> = responses.iter().map(|r| payload_tail(r)).collect();
    assert_eq!(
        tails.len(),
        1,
        "all clients on all instances must see one canonical payload"
    );
    for r in &responses {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    a.shutdown();
    b.shutdown();
}
