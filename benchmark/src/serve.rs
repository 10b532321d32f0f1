//! `serve-cold` and `serve-warm`: two closed-loop clients, one keep-alive
//! connection each, driving a `jsceresd` daemon with default flags — and
//! the serving-layer probe every traced run makes.

use crate::analysis::ms_since;
use crate::host::{self, Speed, Time};
use crate::stats::{median, zipf, Mix, Rng};
use crate::trace::{span, Tracer};
use crate::{metric, peak_rss_mb, Args, Metric, Ran, Window, SETUP_REPEATS};
use ceres_core::cache::CacheKey;
use ceres_core::fleet::{supervise, FleetJob};
use ceres_core::serve::{request_options, result_fragment, AnalysisRequest, ServeConfig};
use ceres_core::{mode_wire_name, Mode};
use ceres_workloads::registry::{self, by_slug, Workload};
use ceres_workloads::registry_resolver;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Load comes from one process: two client threads, one connection each.
const CLIENTS: usize = 2;

/// A reply slower than this counts as a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Pings per kind in the serving probe.
const PINGS: usize = 40;

/// Pings that measure the reply floor in set-up.
const FLOOR_PINGS: usize = 9;

const PING: &str = r#"{"op":"ping"}"#;

/// serve-cold's app mix. fluidsim is the slowest app to serve (median
/// 138 ms over ten 20-second runs on a 2-vCPU machine, then haar at
/// 105 ms; the other ten sit at the 44 ms response floor). With fluidsim
/// at 20% the p90 falls inside its share, not on the edge of a 10% share,
/// and with raytracing at 50% the median falls inside raytracing's, so
/// neither jumps between apps from run to run. The other ten apps share
/// the rest evenly. Each run prints the median by app to check this.
fn cold_mix() -> Mix<&'static str> {
    Mix::new(
        registry::all()
            .iter()
            .map(|w| match w.slug {
                "raytracing" => (w.slug, 0.5),
                "fluidsim" => (w.slug, 0.2),
                _ => (w.slug, 0.3 / 10.0),
            })
            .collect(),
    )
}

/// The generator of each client's requests in a run, keyed by the run's
/// seed, the client and the request's index.
fn request_rng(run_seed: u64, client: usize, k: u64) -> Rng {
    Rng::new(run_seed ^ ((client as u64 + 1) << 32) ^ k)
}

/// The `k`-th serve-cold request of client `client`.
#[derive(Debug, PartialEq)]
struct ColdRequest {
    app: &'static str,
    /// A seeded base plus the request's place in the run, so every
    /// request of the run is new to the cache.
    seed: u64,
    /// Whether the request is in the sample re-run in process afterwards.
    sampled: bool,
}

impl ColdRequest {
    fn new(mix: &Mix<&'static str>, run_seed: u64, client: usize, k: u64) -> ColdRequest {
        let base = Rng::new(run_seed).next_u64() >> 24;
        let mut rng = request_rng(run_seed, client, k);
        ColdRequest {
            app: mix.draw(&mut rng),
            seed: base + k * CLIENTS as u64 + client as u64,
            sampled: rng.below(16) == 0,
        }
    }
}

/// A `jsceresd` child process with its scratch directory (its `TMPDIR`,
/// so the ephemeral spill queue stays inside the checkout).
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later stdout lines find a reader.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    scratch: PathBuf,
}

impl Daemon {
    pub fn start(exe: &Path, scratch: PathBuf, in_process: bool) -> Result<Daemon, String> {
        if !exe.is_file() {
            return Err(format!(
                "jsceresd not found at {}; build it with `cargo build --release --bin jsceresd`",
                exe.display()
            ));
        }
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if in_process {
            cmd.arg("--in-process");
        }
        let mut child = cmd
            .env("TMPDIR", &scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            scratch,
        };
        match addr {
            Some(_) => Ok(daemon),
            None => Err(format!(
                "jsceresd did not report its address: `{}`",
                line.trim()
            )),
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Sum of the peak resident set of the daemon and its workers.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let me = self.child.id();
        let mut total = peak_rss_mb(me)?;
        for pid in children_of(me) {
            total += peak_rss_mb(pid)?;
        }
        Ok(total)
    }

    /// Ask for a graceful drain and wait for the daemon (which reaps its
    /// workers) to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.drain()
    }

    fn drain(&mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.request(r#"{"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("jsceresd did not drain within 20 s".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error is drained too, so it reaps its
    /// workers; killing it is the last resort (its workers then exit on
    /// the end of their input).
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) && self.drain().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Processes whose parent is `pid` (the daemon's worker processes).
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&child| {
            std::fs::read_to_string(format!("/proc/{child}/stat"))
                .ok()
                .and_then(|stat| {
                    // The command name may hold spaces; fields resume after ')'.
                    let rest = &stat[stat.rfind(')')? + 2..];
                    rest.split(' ').nth(1)?.parse::<u32>().ok()
                })
                == Some(pid)
        })
        .collect()
}

/// One keep-alive client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, request: &str) -> std::io::Result<()> {
        let mut line = Vec::with_capacity(request.len() + 1);
        line.extend_from_slice(request.as_bytes());
        line.push(b'\n');
        self.writer.write_all(&line)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// A one-shot request: one line out, one line back.
    fn request(&mut self, request: &str) -> Result<String, String> {
        self.send(request).map_err(|e| format!("send: {e}"))?;
        self.line()
    }

    /// A streamed request, with the client-side arrival time of each
    /// frame the serving stages emit.
    fn stream(&mut self, request: &str) -> Result<Streamed, String> {
        let start = Instant::now();
        self.send(request).map_err(|e| format!("send: {e}"))?;
        let mut s = Streamed::default();
        loop {
            let line = self.line()?;
            let at = Some(ms_since(start));
            match field(&line, "type").unwrap_or("error") {
                "accepted" => s.accepted_ms = at,
                "phase" => match field(&line, "phase") {
                    Some("rewrite") => s.rewrite_ms = at,
                    Some("interp") => s.interp_ms = at,
                    _ => {}
                },
                "partial" => s.partial_ms = at,
                kind => {
                    s.latency_ms = ms_since(start);
                    s.ok = kind == "result" && fragment(&line).is_some();
                    s.terminal = line;
                    return Ok(s);
                }
            }
        }
    }

    fn stats(&mut self) -> Result<Stats, String> {
        let line = self.request(r#"{"op":"stats"}"#)?;
        let doc = serde_json::parse(&line).map_err(|e| format!("stats: {e}"))?;
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("stats: no counter `{name}`"))
        };
        Ok(Stats {
            requests: counter("requests")?,
            cache_hits: counter("cache_hits")?,
            cache_misses: counter("cache_misses")?,
            queue_peak_depth: counter("queue_peak_depth")?,
            frames_streamed: counter("frames_streamed")?,
            jobs_spilled: counter("jobs_spilled")?,
            worker_restarts: counter("worker_restarts")?,
        })
    }
}

/// The value of a top-level string field in a frame line the daemon
/// rendered (`"name":"value"`), without parsing the whole report.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let start = line.find(&key)? + key.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The result fragment of a successful response line: everything after
/// the `cached` flag, without the closing brace. Only `id`, `seq` and
/// `cached` precede it, and they describe the request, not the result.
fn fragment(line: &str) -> Option<&str> {
    const OK: &str = ",\"ok\":true,\"cached\":";
    let rest = &line[line.find(OK)? + OK.len()..];
    let rest = rest
        .strip_prefix("true,")
        .or_else(|| rest.strip_prefix("false,"))?;
    rest.strip_suffix('}')
}

#[derive(Default)]
struct Streamed {
    latency_ms: f64,
    accepted_ms: Option<f64>,
    rewrite_ms: Option<f64>,
    interp_ms: Option<f64>,
    partial_ms: Option<f64>,
    ok: bool,
    terminal: String,
}

/// Serving counters from the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    queue_peak_depth: u64,
    frames_streamed: u64,
    jobs_spilled: u64,
    worker_restarts: u64,
}

impl Stats {
    /// Counters accrued between `self` and a later snapshot; the peak
    /// queue depth is a high-water mark, so it is taken as is.
    fn since(self, before: Stats) -> Stats {
        Stats {
            requests: self.requests - before.requests,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            queue_peak_depth: self.queue_peak_depth,
            frames_streamed: self.frames_streamed - before.frames_streamed,
            jobs_spilled: self.jobs_spilled - before.jobs_spilled,
            worker_restarts: self.worker_restarts - before.worker_restarts,
        }
    }

    /// Spills and worker restarts must not happen at this load.
    fn check(&self, win: &mut Window) {
        for _ in 0..self.jobs_spilled {
            win.fail("a job spilled to disk");
        }
        for _ in 0..self.worker_restarts {
            win.fail("a worker process restarted");
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let lookups = self.cache_hits + self.cache_misses;
        vec![
            metric(
                "serve.cache_hit_ratio",
                "ratio",
                (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64),
            ),
            metric(
                "serve.queue_peak_depth",
                "count",
                Some(self.queue_peak_depth as f64),
            ),
            metric(
                "serve.frames_per_request",
                "count",
                (self.requests > 0).then(|| self.frames_streamed as f64 / self.requests as f64),
            ),
        ]
    }
}

fn scratch(args: &Args, tag: &str) -> PathBuf {
    args.out.join(format!(
        "tmp-{}-{}-{tag}",
        args.workload,
        std::process::id()
    ))
}

/// Set the daemon up `SETUP_REPEATS` times — start, wait for `listening`,
/// then `prepare` (connect, then warm or prime with `round_trips` requests
/// in a row per client) — timing each, and keep the last one running.
/// Returns it with its reply floor in milliseconds.
fn set_up<S>(
    args: &Args,
    win: &mut Window,
    round_trips: usize,
    mut prepare: impl FnMut(&Daemon) -> Result<S, String>,
) -> Result<(Daemon, S, f64), String> {
    let mut kept: Option<(Daemon, S)> = None;
    let mut measured = Vec::new();
    for i in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = kept.take() {
            daemon.shutdown()?;
        }
        let probe = host::settled(1);
        let t = Instant::now();
        let daemon = Daemon::start(&args.daemon, scratch(args, &format!("setup{i}")), false)?;
        let state = prepare(&daemon)?;
        measured.push((t.elapsed().as_secs_f64(), probe));
        kept = Some((daemon, state));
    }
    let (daemon, state) = kept.expect("at least one set-up");
    let floor_ms = reply_floor_ms(&daemon)?;
    let floor_s = round_trips as f64 * floor_ms / 1e3;
    for (s, probe) in measured {
        win.setup.push(Time::new(s, floor_s, probe));
    }
    win.notes.push(format!(
        "{}: keep-alive reply floor {floor_ms:.3} ms",
        args.workload
    ));
    Ok((daemon, state, floor_ms))
}

/// What a reply that does no work takes on a kept-alive connection: the
/// timer wait every such reply carries (the first reply of a connection
/// does not, so it is left out).
fn reply_floor_ms(daemon: &Daemon) -> Result<f64, String> {
    let mut conn = daemon.connect()?;
    conn.request(PING)?;
    let mut pings = Vec::new();
    for _ in 0..FLOOR_PINGS {
        let t = Instant::now();
        conn.request(PING)?;
        pings.push(ms_since(t));
    }
    Ok(median(&pings).expect("at least one ping"))
}

fn connect_clients(daemon: &Daemon) -> Result<Vec<Conn>, String> {
    (0..CLIENTS).map(|_| daemon.connect()).collect()
}

/// Run `work` for each item, the items dealt round-robin over the
/// clients, all clients at once.
fn on_each_client<T: Sync, R: Send>(
    conns: &mut [Conn],
    items: &[T],
    work: impl Fn(&mut Conn, &T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let n = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let work = &work;
                s.spawn(move || {
                    items
                        .iter()
                        .skip(c)
                        .step_by(n)
                        .map(|item| work(conn, item))
                        .collect::<Result<Vec<R>, String>>()
                })
            })
            .collect();
        let mut out = Vec::new();
        for h in handles {
            out.extend(h.join().expect("client thread panicked")?);
        }
        Ok(out)
    })
}

fn stream_request(id: &str, app: &str, mode: Mode, seed: u64) -> String {
    format!(
        r#"{{"id":"{id}","app":"{app}","mode":"{}","seed":{seed},"stream":true}}"#,
        mode_wire_name(mode)
    )
}

/// What one client thread saw in the timed window.
#[derive(Default)]
struct ClientOut {
    units: Vec<Time>,
    traced: Vec<Time>,
    busy: Time,
    probes: Vec<f64>,
    ok: u64,
    attempted: u64,
    failures: Vec<String>,
    /// serve-cold: `(app, seed, terminal line)` of the sampled requests.
    sampled: Vec<(&'static str, u64, String)>,
    /// serve-cold: `(app, latency)` of each untraced request.
    by_app: Vec<(&'static str, f64)>,
    tracer: Option<Tracer>,
}

impl ClientOut {
    fn record(&mut self, traced: bool, time: Time) {
        self.busy += time;
        if traced {
            self.traced.push(time);
        } else {
            self.units.push(time);
        }
    }
}

/// Run the clients until the deadline; `step` sends one request, given
/// the client's probe time (see `host.rs`), and returns whether it
/// succeeded (`Err` ends that client: its connection is unusable).
fn window(
    conns: Vec<Conn>,
    deadline: Instant,
    tracer: &Option<&mut Tracer>,
    step: impl Fn(usize, u64, f64, &mut Conn, &mut ClientOut) -> Result<(), String> + Sync,
) -> Vec<ClientOut> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let mut out = ClientOut {
                    tracer: tracer.as_ref().map(|t| t.sibling(c as u32 + 1)),
                    ..ClientOut::default()
                };
                let step = &step;
                s.spawn(move || {
                    let mut speed = Speed::new(1);
                    for k in 0u64.. {
                        if Instant::now() >= deadline {
                            break;
                        }
                        out.attempted += 1;
                        let probe = speed.next();
                        if let Err(e) = step(c, k, probe, &mut conn, &mut out) {
                            out.failures.push(e);
                            break;
                        }
                    }
                    out.probes = speed.probes;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Fold the clients' outcomes into the window.
fn merge(win: &mut Window, outs: &mut [ClientOut], tracer: &mut Option<&mut Tracer>) {
    for out in outs.iter_mut() {
        win.attempted += out.attempted;
        win.ok_ops += out.ok;
        win.busy += out.busy;
        win.units.append(&mut out.units);
        win.traced_units.append(&mut out.traced);
        win.probes.append(&mut out.probes);
        for f in out.failures.drain(..) {
            win.fail(f);
        }
        if let (Some(main), Some(t)) = (tracer.as_deref_mut(), out.tracer.take()) {
            main.absorb(t);
        }
    }
    win.ops = win.units.clone();
}

/// serve-cold: every request is a streamed loop-profile analysis with a
/// seed never used before, so each one misses the cache and inserts.
pub fn run_cold(args: &Args, mut tr: Option<&mut Tracer>) -> Result<Ran, String> {
    let mix = cold_mix();
    let mut win = Window::new(CLIENTS);
    // Set-up warms both worker processes with one request per app.
    let apps: Vec<&str> = registry::all().iter().map(|w| w.slug).collect();
    let round_trips = apps.len().div_ceil(CLIENTS);
    let (daemon, conns, floor_ms) = set_up(args, &mut win, round_trips, |daemon| {
        let mut conns = connect_clients(daemon)?;
        on_each_client(&mut conns, &apps, |conn, app| {
            let s = conn.stream(&stream_request("warm", app, Mode::LoopProfile, 1))?;
            s.ok.then_some(())
                .ok_or_else(|| format!("warm-up {app}: {}", s.terminal))
        })?;
        Ok(conns)
    })?;

    let mut stats_conn = daemon.connect()?;
    let before = stats_conn.stats()?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut outs = window(conns, deadline, &tr, |c, k, probe, conn, out| {
        let ColdRequest { app, seed, sampled } = ColdRequest::new(&mix, args.seed, c, k);
        let traced = out.tracer.is_some() && k % 2 == 1;
        let mut t = if traced { out.tracer.as_mut() } else { None };
        let request = stream_request(&format!("c{c}-{k}"), app, Mode::LoopProfile, seed);
        let (s, _) = span(&mut t, "serve.request", k, || conn.stream(&request));
        let s = s?;
        out.record(traced, Time::new(s.latency_ms, floor_ms, probe));
        if !traced {
            out.by_app.push((app, s.latency_ms));
        }
        if s.ok {
            out.ok += 1;
        } else {
            out.failures
                .push(format!("{app} seed {seed}: {}", s.terminal));
        }
        if sampled {
            out.sampled.push((app, seed, s.terminal));
        }
        Ok(())
    });
    let stats = stats_conn.stats()?.since(before);
    stats.check(&mut win);
    win.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(stats_conn);
    daemon.shutdown()?;
    merge(&mut win, &mut outs, &mut tr);

    // A seeded one-in-sixteen sample, re-run in process after the window
    // through the daemon's own resolver and fragment builder, must match
    // what the daemon sent byte for byte.
    let mut checked = 0;
    for out in &outs {
        for (app, seed, line) in &out.sampled {
            checked += 1;
            let expected = expected_fragment(app, Mode::LoopProfile, *seed)?;
            if fragment(line) != Some(expected.as_str()) {
                win.fail(format!(
                    "{app} seed {seed}: the daemon's result differs from an in-process run"
                ));
            }
        }
    }
    win.notes.push(format!(
        "serve-cold: {checked} sampled responses re-run in process and compared"
    ));
    // The mix relies on which apps are slowest; print it so it can be
    // checked on any machine.
    let mut per_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(app, ms) in outs.iter().flat_map(|o| &o.by_app) {
        per_app.entry(app).or_default().push(ms);
    }
    let mut slowest: Vec<(&str, f64)> = per_app
        .iter()
        .filter_map(|(app, ms)| Some((*app, median(ms)?)))
        .collect();
    slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
    let slowest: Vec<String> = slowest
        .iter()
        .map(|(app, ms)| format!("{app} {ms:.1}"))
        .collect();
    win.notes.push(format!(
        "serve-cold: median ms by app as measured, slowest first: {}",
        slowest.join(", ")
    ));
    let inputs = registry::all()
        .into_iter()
        .map(|w| (w, Mode::LoopProfile))
        .collect();
    Ok((win, inputs, Some(stats)))
}

/// The result fragment the daemon should send for a cold request, built
/// in process by the same resolver, supervisor and fragment builder.
fn expected_fragment(app: &str, mode: Mode, seed: u64) -> Result<String, String> {
    let request = AnalysisRequest {
        app: Some(app.to_string()),
        mode: Some(mode_wire_name(mode).to_string()),
        seed: Some(seed),
        stream: Some(true),
        ..AnalysisRequest::default()
    };
    let config = ServeConfig::default();
    let opts = request_options(&request, &config)?;
    let resolved = registry_resolver(config.policy.clone())(&request, &opts)?;
    let key = CacheKey::of(&resolved.source, &opts, 1);
    let job = FleetJob {
        app: resolved.app,
        slug: resolved.slug,
        work: resolved.work,
    };
    let (ok, fragment) = result_fragment(&key, &supervise(&job, 0, &config.policy));
    ok.then_some(fragment)
        .ok_or_else(|| format!("{app} seed {seed}: the in-process run failed"))
}

/// serve-warm: 24 keys primed in set-up, then one-shot requests drawn
/// Zipf(s = 1) over them — all cache hits, no interpretation at all.
pub fn run_warm(args: &Args, mut tr: Option<&mut Tracer>) -> Result<Ran, String> {
    let mut keys: Vec<(&'static str, Mode)> = registry::all()
        .iter()
        .flat_map(|w| [(w.slug, Mode::Lightweight), (w.slug, Mode::LoopProfile)])
        .collect();
    let one_shot = |id: &str, (app, mode): (&str, Mode)| {
        format!(
            r#"{{"id":"{id}","app":"{app}","mode":"{}","seed":2015}}"#,
            mode_wire_name(mode)
        )
    };
    let mut win = Window::new(CLIENTS);
    let round_trips = keys.len().div_ceil(CLIENTS);
    let (daemon, (conns, primed), floor_ms) = set_up(args, &mut win, round_trips, |daemon| {
        let mut conns = connect_clients(daemon)?;
        let indexed: Vec<usize> = (0..keys.len()).collect();
        let lines = on_each_client(&mut conns, &indexed, |conn, &i| {
            let line = conn.request(&one_shot("prime", keys[i]))?;
            let frag = fragment(&line)
                .ok_or_else(|| format!("priming {:?}: {line}", keys[i]))?
                .to_string();
            Ok((i, frag))
        })?;
        let mut primed = vec![String::new(); keys.len()];
        for (i, frag) in lines {
            primed[i] = frag;
        }
        Ok((conns, primed))
    })?;

    // Zipf over the keys in a seeded order: the seed decides which keys
    // are hot.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    let mut rng = Rng::new(args.seed);
    rng.shuffle(&mut order);
    let popularity = zipf(&order);
    let mut stats_conn = daemon.connect()?;
    let before = stats_conn.stats()?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let keys_ref = &keys;
    let primed_ref = &primed;
    let mut outs = window(conns, deadline, &tr, |c, k, probe, conn, out| {
        let key = popularity.draw(&mut request_rng(args.seed, c, k));
        let traced = out.tracer.is_some() && k % 2 == 1;
        let mut t = if traced { out.tracer.as_mut() } else { None };
        let request = one_shot(&format!("c{c}-{k}"), keys_ref[key]);
        let start = Instant::now();
        let (line, _) = span(&mut t, "serve.request", k, || conn.request(&request));
        let line = line?;
        out.record(traced, Time::new(ms_since(start), floor_ms, probe));
        let cached = line.contains(",\"ok\":true,\"cached\":true,");
        if cached && fragment(&line) == Some(primed_ref[key].as_str()) {
            out.ok += 1;
        } else {
            out.failures.push(format!(
                "{:?}: not the primed cache hit: {}",
                keys_ref[key],
                &line[..line.len().min(160)]
            ));
        }
        Ok(())
    });
    let stats = stats_conn.stats()?.since(before);
    stats.check(&mut win);
    win.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(stats_conn);
    daemon.shutdown()?;
    merge(&mut win, &mut outs, &mut tr);
    let inputs = keys
        .drain(..)
        .filter_map(|(slug, mode)| Some((by_slug(slug)?, mode)))
        .collect();
    Ok((win, inputs, Some(stats)))
}

/// The serving-layer probe of a traced run, unloaded and sequential on
/// fresh daemons: keep-alive and fresh-connection pings, then one cold
/// streamed request per workload input on the process backend (frame
/// arrival times per stage) and the same requests on `--in-process`.
pub struct ServeProbe {
    pub metrics: Vec<Metric>,
    pub ping_ms: f64,
    pub ping_fresh_ms: f64,
}

pub fn probe(
    args: &Args,
    inputs: &[(Workload, Mode)],
    served: Option<Stats>,
    win: &mut Window,
) -> Result<ServeProbe, String> {
    // Seeds no workload request uses, so every probe request is cold.
    let seed = |i: usize| 900_000_000 + i as u64;
    let requests: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(i, (w, mode))| stream_request(&format!("probe-{i}"), w.slug, *mode, seed(i)))
        .collect();

    let daemon = Daemon::start(&args.daemon, scratch(args, "probe"), false)?;
    let mut conn = daemon.connect()?;
    // Spawn both worker processes before timing anything.
    for i in 0..CLIENTS {
        conn.stream(&stream_request(
            "warm",
            "ace",
            Mode::Lightweight,
            i as u64 + 1,
        ))?;
    }
    let mut ping = Vec::new();
    let mut ping_fresh = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.request(PING)?;
        ping.push(ms_since(t));
        let t = Instant::now();
        daemon.connect()?.request(PING)?;
        ping_fresh.push(ms_since(t));
    }
    let before = conn.stats()?;
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut process_ms = Vec::new();
    for request in &requests {
        win.attempted += 1;
        let s = conn.stream(request)?;
        if !s.ok {
            win.fail(format!("probe: {}", s.terminal));
            continue;
        }
        process_ms.push(s.latency_ms);
        let arrivals = [
            s.accepted_ms,
            s.rewrite_ms,
            s.interp_ms,
            s.partial_ms,
            Some(s.latency_ms),
        ];
        for (stage, at) in stages.iter_mut().zip(arrivals) {
            match at {
                Some(ms) => stage.push(ms),
                None => win.fail(format!("probe: a frame is missing in {request}")),
            }
        }
    }
    let probe_stats = conn.stats()?.since(before);
    probe_stats.check(win);
    drop(conn);
    daemon.shutdown()?;

    let daemon = Daemon::start(&args.daemon, scratch(args, "probe-inproc"), true)?;
    let mut conn = daemon.connect()?;
    conn.stream(&stream_request("warm", "ace", Mode::Lightweight, 1))?;
    let mut in_process_ms = Vec::new();
    for request in &requests {
        win.attempted += 1;
        let s = conn.stream(request)?;
        if s.ok {
            in_process_ms.push(s.latency_ms);
        } else {
            win.fail(format!("probe --in-process: {}", s.terminal));
        }
    }
    drop(conn);
    daemon.shutdown()?;

    let [admit, parse, exec, partial, finish] = stages.map(|s| median(&s));
    let ping_ms = median(&ping).unwrap_or(0.0);
    let ping_fresh_ms = median(&ping_fresh).unwrap_or(0.0);
    let mut metrics = vec![
        metric("serve.admit_ms_p50", "ms", admit),
        metric("serve.parse_stage_ms_p50", "ms", parse),
        metric("serve.exec_ms_p50", "ms", exec),
        metric("serve.partial_ms_p50", "ms", partial),
        metric("serve.finish_ms_p50", "ms", finish),
        metric("serve.ping_ms_p50", "ms", Some(ping_ms)),
        metric("serve.ping_fresh_ms_p50", "ms", Some(ping_fresh_ms)),
        metric(
            "supervisor.ipc_ms_p50",
            "ms",
            median(&process_ms)
                .zip(median(&in_process_ms))
                .map(|(p, i)| p - i),
        ),
    ];
    // The serve workloads' own window is the better sample of the cache
    // and queue; the in-process workloads only have the probe.
    metrics.extend(served.unwrap_or(probe_stats).metrics());
    Ok(ServeProbe {
        metrics,
        ping_ms,
        ping_fresh_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_run(seed: u64) -> Vec<ColdRequest> {
        let mix = cold_mix();
        (0..200)
            .flat_map(|k| (0..CLIENTS).map(move |c| (c, k)))
            .map(|(c, k)| ColdRequest::new(&mix, seed, c, k))
            .collect()
    }

    #[test]
    fn cold_requests_follow_the_seed_and_never_repeat_a_key() {
        assert_eq!(cold_run(7), cold_run(7));
        assert_ne!(cold_run(7), cold_run(8));
        let mut seeds: Vec<u64> = cold_run(7).iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 200 * CLIENTS, "every request seed is new");
        let sampled = cold_run(7).iter().filter(|r| r.sampled).count();
        assert!((10..=50).contains(&sampled), "about 1 in 16: {sampled}");
    }

    #[test]
    fn cold_mix_covers_every_app_and_sums_to_one() {
        let mix = cold_mix();
        let w = mix.weights();
        assert_eq!(w.len(), registry::all().len());
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let share = |slug: &str| {
            let i = registry::all().iter().position(|a| a.slug == slug).unwrap();
            w[i]
        };
        assert!((share("raytracing") - 0.5).abs() < 1e-12);
        assert!((share("fluidsim") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fragment_drops_only_what_describes_the_request() {
        let line = r#"{"id":"c0-1","seq":3,"ok":true,"cached":true,"app":"x","report":{"a":1}}"#;
        assert_eq!(fragment(line), Some(r#""app":"x","report":{"a":1}"#));
        let miss = line.replace("\"cached\":true", "\"cached\":false");
        assert_eq!(fragment(&miss), fragment(line));
        assert_eq!(fragment(r#"{"id":"x","ok":false,"error":"boom"}"#), None);
        assert_eq!(field(line, "id"), Some("c0-1"));
    }
}
