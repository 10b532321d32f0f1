//! Host-speed normalization of the end-to-end timings.
//!
//! The machines this benchmark runs on are small virtual machines that
//! share their cores and caches with other tenants. Their speed drifts by
//! tens of percent within minutes: over ten 20-second runs of one workload
//! the raw median latency varied by up to 0.44 of itself between the
//! first and third quartile, whatever statistic a run reported.
//!
//! So every caller probes the host right before each of its operations:
//! it runs a fixed piece of work shaped like the interpreter's (string
//! formatting, hashing and small allocations), on as many threads as the
//! operation keeps busy. A single probe is short and often misses a slow
//! spell or lands in one, so the caller's speed is the mean of its last
//! `TRAIL` probes, about one to two seconds of operations. When that mean
//! is `p` ms the host runs such work at `1/p` of the speed of a reference
//! host, on which the probe takes exactly 1 ms. An operation's time is
//! divided by `p`, except a fixed `floor`: time spent waiting on a timer,
//! such as the TCP delayed-ACK stall every keep-alive `jsceresd` reply
//! carries, which the host's speed does not change. A set-up is divided by
//! the mean of `TRAIL` probes made just before it.
//!
//! The probe is the benchmark's own code, so a change to the repository
//! moves the operations and not the probe. The raw wall times are printed
//! next to the normalized ones in every run.

use crate::analysis::ms_since;
use std::collections::{HashMap, VecDeque};
use std::ops::{Add, AddAssign};
use std::time::Instant;

/// The probe's time on the reference host, by definition.
const REFERENCE_MS: f64 = 1.0;

/// How many of a caller's latest probes its speed is the mean of. A
/// trailing mean of 16 followed the host best among the estimators tried
/// (a single probe, the best or mean of three, trailing means of 8 to 16).
const TRAIL: usize = 16;

/// The probe's work: the same on every call and every machine.
fn kernel() -> u64 {
    let mut map = HashMap::new();
    for k in 0..3000u64 {
        let key = format!("k{}", k.wrapping_mul(2_654_435_761) % 10_007);
        map.insert(key, vec![k; 3]);
    }
    (0..3000u64)
        .filter_map(|k| map.get(&format!("k{}", k.wrapping_mul(40_503) % 10_007)))
        .map(|v| v[0])
        .sum()
}

fn timed_kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    ms_since(t)
}

/// Run the probe once on `threads` threads at once and return the slowest
/// one's time, in milliseconds.
fn probe(threads: usize) -> f64 {
    if threads <= 1 {
        return timed_kernel();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed_kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the probe does not panic"))
            .fold(0.0, f64::max)
    })
}

/// The mean of `TRAIL` probes in a row, for a set-up about to start.
pub fn settled(threads: usize) -> f64 {
    (0..TRAIL).map(|_| probe(threads)).sum::<f64>() / TRAIL as f64
}

/// One caller's view of the host's speed: the mean of its latest `TRAIL`
/// probes.
pub struct Speed {
    threads: usize,
    latest: VecDeque<f64>,
    /// Every probe this caller ran, ms.
    pub probes: Vec<f64>,
}

impl Speed {
    /// Probes on `threads` threads: as many as the caller's operations
    /// keep busy.
    pub fn new(threads: usize) -> Speed {
        Speed {
            threads,
            latest: VecDeque::with_capacity(TRAIL),
            probes: Vec::new(),
        }
    }

    /// Probe once more, then return the probe time (ms) to normalize the
    /// next operation by.
    pub fn next(&mut self) -> f64 {
        let ms = probe(self.threads);
        self.probes.push(ms);
        if self.latest.len() == TRAIL {
            self.latest.pop_front();
        }
        self.latest.push_back(ms);
        self.latest.iter().sum::<f64>() / self.latest.len() as f64
    }
}

/// A duration as measured (`raw`) and in reference-host units (`norm`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Time {
    pub raw: f64,
    pub norm: f64,
}

impl Time {
    /// `raw` measured while the host's probe took `probe_ms`; the first
    /// `floor` of it (in `raw`'s unit) is a timer wait and stays as it is.
    pub fn new(raw: f64, floor: f64, probe_ms: f64) -> Time {
        let fixed = raw.min(floor);
        Time {
            raw,
            norm: fixed + (raw - fixed) * REFERENCE_MS / probe_ms,
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, other: Time) -> Time {
        Time {
            raw: self.raw + other.raw,
            norm: self.norm + other.norm,
        }
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, other: Time) {
        *self = *self + other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_work_but_not_the_floor() {
        let t = Time::new(144.0, 44.0, 2.0);
        assert_eq!(t.raw, 144.0);
        assert!((t.norm - (44.0 + 50.0)).abs() < 1e-12, "{t:?}");
        let below_floor = Time::new(40.0, 44.0, 2.0);
        assert_eq!(below_floor.norm, 40.0);
        let in_process = Time::new(10.0, 0.0, 0.5);
        assert!((in_process.norm - 20.0).abs() < 1e-12);
        let sum = t + in_process;
        assert_eq!(sum.raw, 154.0);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        let mut speed = Speed::new(1);
        let first = speed.next();
        let second = speed.next();
        assert_eq!(speed.probes.len(), 2);
        assert!((second - (speed.probes[0] + speed.probes[1]) / 2.0).abs() < 1e-12);
        assert_eq!(first, speed.probes[0]);
        assert!(settled(2) > 0.0);
    }
}
