//! Worker *process* supervision for `jsceresd`.
//!
//! `catch_unwind` contains a Rust panic, but a segfault-class failure
//! (stack overflow in native code, an `abort`, an OOM kill) on a thread
//! of the daemon takes the whole daemon — and its queue, cache, and
//! every connected client — down with it. The Servo experience report
//! (arXiv:1505.07383) names the fix: make the **process** the isolation
//! boundary. This module implements it:
//!
//! * [`run_job`] is the one code path that supervises a served job: it
//!   takes a job already resolved by [`crate::serve::resolve`], runs it
//!   under [`crate::fleet::supervise`] (so retry, tick watchdog, and
//!   panic containment still apply), streams its progress frames to a
//!   sink, and builds the result fragment. Both transports call it — a
//!   worker process with its stdout as the sink, the in-process backend
//!   on its worker thread with the client's channel as the sink. Each
//!   process resolves a job once: the daemon at admission, and a worker
//!   process again for its job line, because a resolved job (a closure)
//!   cannot cross the pipe.
//! * [`WorkerSpec`] describes how to start one analysis worker — in
//!   production, `jsceresd --worker …`, the daemon re-executing itself.
//! * [`worker_serve_stdio`] is the worker side: a loop that reads one
//!   line-JSON job per line on stdin, resolves it, runs it through
//!   [`run_job`], and writes one [`WorkerResponse`] line on stdout.
//! * [`WorkerSlot`] is the supervisor side: each serve worker thread
//!   owns one slot, which owns (at most) one child process. A child
//!   that dies mid-job costs exactly that job: the slot reaps it,
//!   respawns with bounded exponential backoff, retries the job once on
//!   the fresh child, and otherwise fails the job cleanly while the
//!   daemon keeps serving.
//!
//! The worker protocol deliberately reuses the public wire vocabulary:
//! the job line is a normal [`crate::serve::AnalysisRequest`] (with the
//! options already resolved to explicit values by the supervisor, so a
//! worker's own defaults can never skew the cache key), and every pipe
//! line back is the serde form of a public type. For a `stream:true` job
//! the pipe carries zero or more [`Frame`] lines
//! (`{"Phase":{…}}` / `{"Partial":{…}}`) followed by exactly one
//! terminal [`WorkerResponse`] line (`{"ok":…,"ticks":…,"fragment":…}`).
//! The supervisor multiplexes the frame lines back to the right client
//! connection ([`WorkerSlot::run`]'s `on_frame` callback); a worker
//! that crashes mid-stream hits the ordinary crash path — the job is
//! retried once on a fresh child (which re-emits its frames) or failed
//! cleanly. Inside [`run_job`], a per-job gate closes before the
//! terminal response is built, so a runner thread abandoned by the wall
//! watchdog can never deliver a stray frame after it — on the pipe, into
//! the next job's stream.

#![deny(missing_docs)]

use crate::cache::CacheKey;
use crate::fleet::{supervise, FleetJob, FleetPolicy};
use crate::obs::install_frame_sink;
use crate::serve::{
    failure_fragment, request_options, resolve, result_fragment, write_line, AnalysisRequest,
    Frame, ResolvedJob, Resolver, ServeConfig,
};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How a worker process is started.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Executable to spawn (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments — normally `--worker` plus the supervision policy
    /// (wall-clock cap, tick budget). Each job line spells out its own
    /// options, so a child's defaults never reach a job or its key.
    pub args: Vec<String>,
}

/// A finished job, as [`run_job`] returns it and as the terminal line of
/// the worker pipe carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerResponse {
    /// Whether the job produced a report.
    pub ok: bool,
    /// Interpreter ticks this job spent (0 for failures without reports).
    pub ticks: u64,
    /// The response payload fragment, which the supervisor caches and
    /// forwards unchanged.
    pub fragment: String,
}

impl WorkerResponse {
    /// A job that ended without a report or ticks.
    pub fn failed(fragment: String) -> WorkerResponse {
        WorkerResponse {
            ok: false,
            ticks: 0,
            fragment,
        }
    }
}

/// Where [`run_job`] delivers a streaming job's `phase`/`partial` frames,
/// and what it installs on the runner thread for the pipeline to call
/// ([`crate::obs::install_frame_sink`]). It is called on the supervised
/// runner thread, hence `Send`.
pub type FrameSink = Box<dyn FnMut(Frame) + Send>;

/// Base respawn backoff after a worker crash; doubles per consecutive
/// crash up to [`MAX_BACKOFF`], and resets after a successful job.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
/// Backoff ceiling — a crash-looping worker never locks the slot out for
/// more than this per respawn.
const MAX_BACKOFF: Duration = Duration::from_secs(2);
/// Spawn attempts per job before declaring the slot unavailable.
const SPAWN_TRIES: u32 = 3;
/// Job attempts across worker crashes: the job is retried once on a
/// fresh worker, then failed cleanly.
const JOB_TRIES: u32 = 2;

/// A live child process with its pipe pair. `stdin` is `None` only while
/// dropping: closing it is what tells the worker loop to exit.
struct WorkerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl WorkerChild {
    fn spawn(spec: &WorkerSpec) -> std::io::Result<WorkerChild> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // stderr inherits: worker panics and watchdog chatter land in
            // the daemon's stderr where the operator can see them.
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(WorkerChild {
            child,
            stdin,
            stdout,
        })
    }

    /// Send one job line and block for the terminal response line,
    /// forwarding any interleaved frame lines to `on_frame` as they
    /// arrive: a line that parses as a [`WorkerResponse`] is the
    /// terminal, any other must be a non-terminal [`Frame`]. Any I/O or
    /// protocol error (including EOF — the child died) is a crash signal
    /// to the slot.
    fn send(
        &mut self,
        wire: &str,
        on_frame: &mut dyn FnMut(Frame),
    ) -> std::io::Result<WorkerResponse> {
        let stdin = self.stdin.as_mut().expect("stdin is open until drop");
        write_line(stdin, wire.to_owned())?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "worker process closed stdout mid-job",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match serde_json::from_str::<WorkerResponse>(trimmed) {
                Ok(resp) => return Ok(resp),
                Err(e) => match serde_json::from_str::<Frame>(trimmed) {
                    Ok(frame) if !frame.is_terminal() => on_frame(frame),
                    _ => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad worker response: {e}"),
                        ))
                    }
                },
            }
        }
    }

    /// OS pid (for logs and the ops manual's kill-a-worker drills).
    fn id(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for WorkerChild {
    fn drop(&mut self) {
        // Closing stdin asks the worker loop to exit; give it a moment,
        // then make sure it is gone and reaped either way.
        drop(self.stdin.take());
        for _ in 0..20 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The result of asking a slot to run one job.
#[derive(Debug)]
pub enum SlotOutcome {
    /// The worker answered.
    Done(WorkerResponse),
    /// The worker process died on every attempt; the job failed but the
    /// daemon (and the slot, after respawn) keep going.
    Crashed {
        /// Job attempts consumed (each on a fresh worker).
        attempts: u32,
    },
    /// The worker binary cannot be spawned at all (missing binary, fork
    /// failure). The job fails; admission stays up.
    Unavailable(String),
}

/// Supervisor-side handle owned by one serve worker thread: at most one
/// child process, plus the restart bookkeeping.
pub struct WorkerSlot {
    spec: WorkerSpec,
    child: Option<WorkerChild>,
    consecutive_crashes: u32,
    restarts: u64,
}

impl WorkerSlot {
    /// A slot for `spec`; the child is spawned lazily on the first job.
    pub fn new(spec: WorkerSpec) -> WorkerSlot {
        WorkerSlot {
            spec,
            child: None,
            consecutive_crashes: 0,
            restarts: 0,
        }
    }

    /// Total worker respawns this slot has performed.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Current child pid, if one is running.
    pub fn child_id(&self) -> Option<u32> {
        self.child.as_ref().map(WorkerChild::id)
    }

    fn backoff(&self) -> Duration {
        let shift = self.consecutive_crashes.saturating_sub(1).min(6);
        MAX_BACKOFF.min(BASE_BACKOFF * (1u32 << shift))
    }

    fn ensure_child(&mut self) -> Result<(), String> {
        if self.child.is_some() {
            return Ok(());
        }
        let mut last_err = String::new();
        for attempt in 0..SPAWN_TRIES {
            match WorkerChild::spawn(&self.spec) {
                Ok(c) => {
                    self.child = Some(c);
                    return Ok(());
                }
                Err(e) => {
                    last_err = e.to_string();
                    if attempt + 1 < SPAWN_TRIES {
                        std::thread::sleep(BASE_BACKOFF * (attempt + 1));
                    }
                }
            }
        }
        Err(format!(
            "cannot spawn worker `{}`: {last_err}",
            self.spec.program.display()
        ))
    }

    /// Run one job (a wire-format request line). Frame lines the worker
    /// streams mid-job (only `stream:true` jobs stream) are handed to
    /// `on_frame` as they arrive; the terminal response is the return
    /// value. A job retried on a fresh worker after a crash re-emits
    /// its frames — clients see duplicate phases, never a lost
    /// terminal. Returns the outcome plus the number of worker restarts
    /// this call performed — the caller feeds that into the
    /// `worker_restarts` counter.
    pub fn run(&mut self, wire: &str, on_frame: &mut dyn FnMut(Frame)) -> (SlotOutcome, u64) {
        let mut restarts_this_call = 0u64;
        for attempt in 1..=JOB_TRIES {
            if let Err(e) = self.ensure_child() {
                return (SlotOutcome::Unavailable(e), restarts_this_call);
            }
            let child = self.child.as_mut().expect("ensured child");
            match child.send(wire, on_frame) {
                Ok(resp) => {
                    self.consecutive_crashes = 0;
                    return (SlotOutcome::Done(resp), restarts_this_call);
                }
                Err(_) => {
                    // The child died (or broke protocol) mid-job: reap
                    // it, back off boundedly, and either retry the job on
                    // a fresh worker or fail it cleanly.
                    self.child = None;
                    self.consecutive_crashes += 1;
                    self.restarts += 1;
                    restarts_this_call += 1;
                    if attempt < JOB_TRIES {
                        std::thread::sleep(self.backoff());
                    }
                }
            }
        }
        (
            SlotOutcome::Crashed {
                attempts: JOB_TRIES,
            },
            restarts_this_call,
        )
    }

    /// Drop the child (graceful: stdin EOF, then kill as a last resort).
    pub fn shutdown(&mut self) {
        self.child = None;
    }
}

/// The worker side of the protocol: serve jobs from stdin to stdout
/// until EOF. This is what `jsceresd --worker` runs. Each job line is an
/// [`AnalysisRequest`] with options already made explicit by the
/// supervisor; each is resolved once and runs through [`run_job`], with
/// stdout as its frame sink for a streaming job, and ends with one
/// [`WorkerResponse`] line.
///
/// The *process* boundary is reserved for the failures [`run_job`]'s
/// supervision cannot contain. `inject:"crash"` aborts the worker process
/// on purpose (the supervised-crash drill used by tests and
/// `scripts/serve_smoke.sh`).
pub fn worker_serve_stdio(config: &ServeConfig, resolver: &Resolver) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdin.lock().read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // supervisor closed our stdin: clean exit
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = serde_json::from_str::<AnalysisRequest>(trimmed)
            .map_err(|e| format!("bad worker job line: {e}"))
            .and_then(|req| {
                if req.inject.as_deref() == Some("crash") {
                    // The one fault `supervise` cannot contain, on
                    // purpose: die the way a segfaulting worker would, so
                    // the supervisor's restart path gets exercised by
                    // something real.
                    eprintln!(
                        "worker: injected crash — aborting (pid {})",
                        std::process::id()
                    );
                    std::process::abort();
                }
                let (job, key) = resolve(&req, &request_options(&req, config)?, resolver)?;
                let sink = (req.stream == Some(true)).then(|| {
                    Box::new(|frame: Frame| {
                        let _ = write_pipe_line(&frame);
                    }) as FrameSink
                });
                Ok(run_job(job, &key, &config.policy, sink))
            })
            // A line that does not resolve fails with an empty key, app
            // and slug.
            .unwrap_or_else(|e| {
                WorkerResponse::failed(failure_fragment("", "", "", "failed", 0, &e))
            });
        write_pipe_line(&response)?;
    }
}

/// Write one value as one line of the worker pipe.
fn write_pipe_line<T: Serialize>(value: &T) -> std::io::Result<()> {
    let line = serde_json::to_string(value).expect("pipe lines serialize");
    write_line(&mut std::io::stdout().lock(), line)
}

/// Run one served job, already resolved to `job` and its `key`: supervise
/// it under `policy` and build its [`WorkerResponse`]. This is the only
/// place a served job is supervised, whichever transport carries it; it
/// resolves nothing. With a `sink` (a streaming client), the job delivers
/// a `phase` frame per pipeline phase and its `partial` timing row to it
/// as the pipeline records them.
///
/// Frames reach `sink` only while the per-job gate holds it, and only
/// under the gate's lock. Closing the gate (taking the sink out, before
/// the response is built) both waits for any in-flight frame and
/// silences stragglers — a runner thread abandoned by the wall watchdog
/// must not deliver a frame after the terminal one.
pub fn run_job(
    job: ResolvedJob,
    key: &CacheKey,
    policy: &FleetPolicy,
    sink: Option<FrameSink>,
) -> WorkerResponse {
    let mut work = job.work;
    let stream = sink.is_some();
    let gate = Arc::new(Mutex::new(sink));
    if stream {
        // The sink is installed on the supervised runner thread, where
        // the pipeline's recording points fire; the guard uninstalls it
        // even when the attempt panics. A retried attempt re-emits its
        // frames from `parse` on.
        let (inner, gate) = (work, Arc::clone(&gate));
        work = Arc::new(move |worker, attempt| {
            let gate = Arc::clone(&gate);
            let _guard = install_frame_sink(Box::new(move |frame| {
                let mut open = gate.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(sink) = open.as_mut() {
                    sink(frame);
                }
            }));
            inner(worker, attempt)
        });
    }
    let job = FleetJob {
        app: job.app,
        slug: job.slug,
        work,
    };
    let outcome = supervise(&job, 0, policy);
    gate.lock().unwrap_or_else(PoisonError::into_inner).take();
    let ticks = outcome
        .report
        .as_ref()
        .map(|r| r.obs.counters.interp_ticks)
        .unwrap_or(0);
    let (ok, fragment) = result_fragment(key, &outcome);
    WorkerResponse {
        ok,
        ticks,
        fragment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_failure_is_reported_not_fatal() {
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/nonexistent/jsceresd-worker-binary"),
            args: vec!["--worker".to_string()],
        });
        let (outcome, restarts) = slot.run("{}", &mut |_| {});
        match outcome {
            SlotOutcome::Unavailable(e) => assert!(e.contains("cannot spawn"), "{e}"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(restarts, 0, "spawn failures are not restarts");
    }

    #[test]
    fn crashing_command_burns_job_attempts_and_counts_restarts() {
        // `false` exits immediately: every send sees EOF ⇒ crash path.
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/false"),
            args: vec![],
        });
        let (outcome, restarts) = slot.run("{\"op\":\"analyze\"}", &mut |_| {});
        match outcome {
            SlotOutcome::Crashed { attempts } => assert_eq!(attempts, JOB_TRIES),
            other => panic!("expected Crashed, got {other:?}"),
        }
        assert_eq!(restarts, JOB_TRIES as u64);
        assert_eq!(slot.restarts(), JOB_TRIES as u64);
        // The slot recovers for the next job (fresh spawn attempt).
        let (outcome2, _) = slot.run("{}", &mut |_| {});
        assert!(matches!(outcome2, SlotOutcome::Crashed { .. }));
    }

    #[test]
    fn shutdown_closes_stdin_so_the_worker_exits_on_its_own() {
        // A worker that answers every job line and, once its stdin
        // closes, leaves a marker and exits. The marker exists only if
        // the worker saw EOF and finished by itself instead of being
        // killed.
        let marker = std::env::temp_dir().join(format!("ceres-worker-eof-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let script =
            r#"while read l; do echo '{"ok":true,"ticks":0,"fragment":""}'; done; : > "$0""#;
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), script.into(), marker.display().to_string()],
        });
        let (outcome, _) = slot.run("{}", &mut |_| {});
        assert!(
            matches!(&outcome, SlotOutcome::Done(r) if r.ok),
            "{outcome:?}"
        );
        slot.shutdown();
        assert!(marker.exists(), "the worker never saw its stdin close");
        std::fs::remove_file(&marker).unwrap();
    }

    #[test]
    fn echo_protocol_roundtrip_through_a_real_child() {
        // `cat` speaks the protocol trivially: echoes the job line back.
        // A WorkerResponse-shaped job line therefore parses as the
        // response — proving the pipe plumbing end to end.
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/cat"),
            args: vec![],
        });
        let wire = r#"{"ok":true,"ticks":7,"fragment":"echoed"}"#;
        let (outcome, restarts) = slot.run(wire, &mut |_| {});
        match outcome {
            SlotOutcome::Done(resp) => {
                assert!(resp.ok);
                assert_eq!(resp.ticks, 7);
                assert_eq!(resp.fragment, "echoed");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(restarts, 0);
        assert!(slot.child_id().is_some());
        slot.shutdown();
        assert!(slot.child_id().is_none());
    }

    #[test]
    fn backoff_is_bounded() {
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/false"),
            args: vec![],
        });
        slot.consecutive_crashes = 40;
        assert_eq!(slot.backoff(), MAX_BACKOFF);
        slot.consecutive_crashes = 1;
        assert_eq!(slot.backoff(), BASE_BACKOFF);
    }
}
