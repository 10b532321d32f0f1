//! Cross-crate integration tests live in tests/tests. This library holds
//! the serving-test gate they share.

use ceres_core::serve::{serve, Resolver, ServeConfig, ServerHandle};
use ceres_workloads::registry_resolver;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A test-owned gate that holds one job inside its interp slot, so a
/// test can fill the queues behind it without racing the server's
/// stages. The marker job reports that it started, then waits until the
/// test releases it. The state is `(started, released)`.
#[derive(Clone, Default)]
pub struct Latch(Arc<(Mutex<(bool, bool)>, Condvar)>);

impl Latch {
    /// Run by the marker job: report started, then block until released.
    fn hold(&self) {
        let (state, cv) = &*self.0;
        let mut s = state.lock().unwrap();
        s.0 = true;
        cv.notify_all();
        drop(cv.wait_while(s, |s| !s.1).unwrap());
    }

    /// Block until the marker job holds its slot (panics after 60 s).
    pub fn wait_started(&self) {
        let (state, cv) = &*self.0;
        let s = state.lock().unwrap();
        let (s, wait) = cv
            .wait_timeout_while(s, Duration::from_secs(60), |s| !s.0)
            .unwrap();
        drop(s);
        assert!(!wait.timed_out(), "the marker job never started");
    }

    /// Let the marker job run.
    pub fn release(&self) {
        let (state, cv) = &*self.0;
        state.lock().unwrap().1 = true;
        cv.notify_all();
    }
}

/// Start a loopback server with the workload-registry resolver, in which
/// the work of the job whose `source` is `marker` first holds `latch`.
pub fn start_gated(config: ServeConfig, marker: &str, latch: &Latch) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let inner = registry_resolver(config.policy.clone());
    let (marker, latch) = (marker.to_string(), latch.clone());
    let resolver: Resolver = Arc::new(move |req, opts| {
        let mut job = inner(req, opts)?;
        if req.source.as_deref() == Some(marker.as_str()) {
            let (work, latch) = (job.work, latch.clone());
            job.work = Arc::new(move |worker, attempt| {
                latch.hold();
                work(worker, attempt)
            });
        }
        Ok(job)
    });
    serve(listener, config, resolver)
}

/// Spin until `done` holds, panicking with `what` after 60 s.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}
