//! The per-layer metrics of a traced run. A traced run's result carries
//! every per-layer metric as a number, whatever its workload, so every
//! traced run measures every layer, on its own workload's inputs where the
//! layer serves them:
//!
//! - the analysis layers (parser, instrument, interp, engine, classify,
//!   report) replay each distinct `(app, mode)` input of the workload;
//! - the cache, fleet and frame-render layers are timed in process on the
//!   reports those replays produce;
//! - the serving layers come from a sequential probe of fresh daemons with
//!   the same inputs (stats from the workload's own daemon when it has one);
//! - the parallel layer replays the fixed fork-join targets.

use crate::analysis::{self, ms_since, Replay};
use crate::host::Time;
use crate::serve::{self, Stats};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{forkjoin, metric, Args, Metric, Window};
use ceres_core::cache::{CacheKey, ShardedCache};
use ceres_core::fleet::{supervise, AppOutcome, AppStatus, FleetJob, FleetPolicy};
use ceres_core::serve::{
    render_frame, request_options, result_fragment, AnalysisRequest, Frame, ServeConfig,
    ONESHOT_SCHEMA_VERSION,
};
use ceres_core::{mode_wire_name, Mode};
use ceres_workloads::registry::{workload_html, Workload};
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics every traced run reports, with units, in order.
/// Keep in step with `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("host.probe_ms", "ms"),
    ("parser.parse_us", "us"),
    ("instrument.rewrite_us", "us"),
    ("instrument.codegen_us", "us"),
    ("instrument.growth", "ratio"),
    ("interp.run_us", "us"),
    ("interp.compile_us", "us"),
    ("interp.ticks", "count"),
    ("interp.ns_per_tick", "ns"),
    ("engine.hook_calls", "count"),
    ("engine.hook_us", "us"),
    ("engine.ns_per_hook", "ns"),
    ("engine.warnings", "count"),
    ("classify.nests_us", "us"),
    ("report.render_us", "us"),
    ("fleet.supervise_us", "us"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("serve.render_frame_us", "us"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.parse_stage_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.partial_ms_p50", "ms"),
    ("serve.finish_ms_p50", "ms"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.ping_fresh_ms_p50", "ms"),
    ("serve.write_stall_share", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_peak_depth", "count"),
    ("serve.frames_per_request", "count"),
    ("supervisor.ipc_ms_p50", "ms"),
    ("parallel.ungated_ms", "ms"),
    ("parallel.gated1_ms", "ms"),
    ("parallel.par2_ms", "ms"),
    ("parallel.gate_overhead", "ratio"),
    ("parallel.virtual_speedup", "x"),
    ("parallel.wall_speedup", "x"),
    ("parallel.merged_ops", "count"),
    ("parallel.rounds", "count"),
    ("parallel.equivalence_us", "us"),
    ("parallel.wall_speedup.haar", "x"),
    ("parallel.virtual_speedup.haar", "x"),
    ("parallel.wall_speedup.cloth", "x"),
    ("parallel.virtual_speedup.cloth", "x"),
    ("parallel.wall_speedup.camanjs", "x"),
    ("parallel.virtual_speedup.camanjs", "x"),
    ("parallel.wall_speedup.fluidsim", "x"),
    ("parallel.virtual_speedup.fluidsim", "x"),
    ("parallel.wall_speedup.raytracing", "x"),
    ("parallel.virtual_speedup.raytracing", "x"),
    ("parallel.wall_speedup.normalmap", "x"),
    ("parallel.virtual_speedup.normalmap", "x"),
    ("parallel.wall_speedup.processingjs", "x"),
    ("parallel.virtual_speedup.processingjs", "x"),
];

/// Repetitions of each in-process cache, fleet and render timing.
const REPS: u64 = 20;

/// Replays of each input; a layer's time for the input is the median.
const REPLAY_ROUNDS: usize = 3;

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

pub fn measure(
    args: &Args,
    win: &mut Window,
    inputs: &[(Workload, Mode)],
    served: Option<Stats>,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let p50 = |times: &[Time], pick: fn(&Time) -> f64| {
        median(&times.iter().map(pick).collect::<Vec<_>>())
    };
    let mut metrics = vec![
        metric(
            "trace.overhead",
            "ratio",
            p50(&win.traced_units, |t| t.norm)
                .zip(p50(&win.units, |t| t.norm))
                .and_then(|(t, u)| ratio(t, u)),
        ),
        metric("host.probe_ms", "ms", median(&win.probes)),
    ];

    // Rounds go over all inputs in turn, so a slow spell on the machine
    // lands in one round of many inputs rather than in one input.
    let mut rounds: Vec<Vec<Replay>> = inputs.iter().map(|_| Vec::new()).collect();
    for round in 0..REPLAY_ROUNDS {
        for (i, (w, mode)) in inputs.iter().enumerate() {
            win.attempted += 1;
            match analysis::replay(w, *mode, (round * inputs.len() + i) as u64, tr) {
                Ok(r) => rounds[i].push(r),
                Err(e) => win.fail(e),
            }
        }
    }
    metrics.extend(analysis_layers(&rounds));
    let replays: Vec<_> = inputs
        .iter()
        .zip(&rounds)
        .filter_map(|((w, mode), rs)| Some((w, *mode, rs.first()?)))
        .collect();
    metrics.extend(in_process_layers(&replays, tr));
    let probe = serve::probe(args, inputs, served, win)?;
    metrics.extend(probe.metrics);
    metrics.push(metric(
        "serve.write_stall_share",
        "ratio",
        p50(&win.traced_units, |t| t.raw)
            .and_then(|p50| ratio(probe.ping_ms - probe.ping_fresh_ms, p50)),
    ));
    win.notes.push(format!(
        "serve: keep-alive ping {:.3} ms, fresh-connection ping {:.3} ms",
        probe.ping_ms, probe.ping_fresh_ms
    ));
    metrics.extend(forkjoin::probe(win, tr)?);

    // Report in catalogue order, and refuse a catalogue entry this run
    // did not produce.
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .position(|m| m.name == name)
                .map(|i| metrics.swap_remove(i))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            debug_assert_eq!(m.unit, unit, "{name}");
            Ok(m)
        })
        .collect()
}

/// Means over inputs of each input's median over rounds, and the share of
/// the operation's wall time the separately timed layers account for.
fn analysis_layers(rounds: &[Vec<Replay>]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Replay) -> f64| {
        rounds
            .iter()
            .filter_map(|rs| median(&rs.iter().map(f).collect::<Vec<_>>()))
            .collect::<Vec<_>>()
    };
    let avg = |f: &dyn Fn(&Replay) -> f64| mean(&each(f));
    let sum = |f: &dyn Fn(&Replay) -> f64| each(f).iter().sum::<f64>();
    let hook_us = |r: &Replay| r.engine_us - r.interp_us;
    // Self times: parse + rewrite + codegen + interp + hooks + nests +
    // render, against the operation (`run_workload` + render).
    let layers = sum(&|r| r.parse_us + r.rewrite_us + r.codegen_us + r.engine_us + r.render_us);
    let op = sum(&|r| r.analyze_us + r.render_us);
    vec![
        metric("trace.layer_coverage", "ratio", ratio(layers, op)),
        metric("parser.parse_us", "us", avg(&|r| r.parse_us)),
        metric("instrument.rewrite_us", "us", avg(&|r| r.rewrite_us)),
        metric("instrument.codegen_us", "us", avg(&|r| r.codegen_us)),
        metric(
            "instrument.growth",
            "ratio",
            ratio(
                sum(&|r| r.instrumented_bytes as f64),
                sum(&|r| r.source_bytes as f64),
            ),
        ),
        metric("interp.run_us", "us", avg(&|r| r.interp_us)),
        metric("interp.compile_us", "us", avg(&|r| r.compile_us)),
        metric("interp.ticks", "count", avg(&|r| r.plain_ticks as f64)),
        metric(
            "interp.ns_per_tick",
            "ns",
            ratio(sum(&|r| r.interp_us * 1e3), sum(&|r| r.plain_ticks as f64)),
        ),
        metric(
            "engine.hook_calls",
            "count",
            avg(&|r| r.counts.hook_calls as f64),
        ),
        metric("engine.hook_us", "us", avg(&hook_us)),
        metric(
            "engine.ns_per_hook",
            "ns",
            ratio(
                sum(&|r| hook_us(r) * 1e3),
                sum(&|r| r.counts.hook_calls as f64),
            ),
        ),
        metric(
            "engine.warnings",
            "count",
            avg(&|r| r.counts.warnings as f64),
        ),
        metric("classify.nests_us", "us", avg(&|r| r.nests_us)),
        metric("report.render_us", "us", avg(&|r| r.render_us - r.nests_us)),
    ]
}

/// Mean microseconds of `f` over `REPS` calls.
fn per_call(mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..REPS {
        f(i);
    }
    ms_since(t) * 1e3 / REPS as f64
}

/// The cache, fleet-supervisor and frame-render layers, timed in process
/// on the fragment the daemon would store for each replayed input.
fn in_process_layers(replays: &[(&Workload, Mode, &Replay)], tr: &mut Tracer) -> Vec<Metric> {
    let config = ServeConfig::default();
    let mut key_us = Vec::new();
    let mut insert_us = Vec::new();
    let mut lookup_us = Vec::new();
    let mut render_us = Vec::new();
    let mut supervise_us = Vec::new();
    for (i, (w, mode, r)) in replays.iter().enumerate() {
        let op = i as u64;
        let request = AnalysisRequest {
            app: Some(w.slug.to_string()),
            mode: Some(mode_wire_name(*mode).to_string()),
            ..AnalysisRequest::default()
        };
        let opts = request_options(&request, &config).expect("a registry app and a known mode");
        let page = workload_html(w, 1);
        let (us, _) = tr.time("cache.key", op, || {
            per_call(|_| {
                std::hint::black_box(CacheKey::of(&page, &opts, 1));
            })
        });
        key_us.push(us);
        let key = CacheKey::of(&page, &opts, 1);
        let outcome = AppOutcome {
            app: w.name.to_string(),
            slug: w.slug.to_string(),
            status: AppStatus::Ok,
            attempts: 1,
            report: Some(r.report.clone()),
        };
        let (_, fragment) = result_fragment(&key, &outcome);
        // Distinct keys (by seed), so every insert is a fresh one and every
        // lookup a hit.
        let keys: Vec<CacheKey> = (0..REPS)
            .map(|seed| CacheKey {
                seed,
                ..key.clone()
            })
            .collect();
        let cache = ShardedCache::open(config.cache_capacity, config.cache_shards, None)
            .expect("a memory-only cache opens");
        let mut payloads: Vec<String> = (0..REPS).map(|_| fragment.clone()).collect();
        let (us, _) = tr.time("cache.insert", op, || {
            per_call(|k| {
                let payload = payloads.pop().expect("one payload per call");
                std::hint::black_box(cache.insert_or_get(&keys[k as usize], payload));
            })
        });
        insert_us.push(us);
        let (us, _) = tr.time("cache.lookup", op, || {
            per_call(|k| {
                std::hint::black_box(cache.lookup(&keys[k as usize]));
            })
        });
        lookup_us.push(us);
        let frame = Frame::Result {
            ok: true,
            cached: true,
            fragment,
        };
        let (us, _) = tr.time("serve.render_frame", op, || {
            per_call(|seq| {
                std::hint::black_box(render_frame(ONESHOT_SCHEMA_VERSION, "id", seq, &frame));
            })
        });
        render_us.push(us);
        let (us, _) = tr.time("fleet.supervise", op, || {
            supervise_overhead_us(w, &r.report)
        });
        supervise_us.push(us);
    }
    vec![
        metric("cache.key_us", "us", mean(&key_us)),
        metric("cache.insert_us", "us", mean(&insert_us)),
        metric("cache.lookup_us", "us", mean(&lookup_us)),
        metric("serve.render_frame_us", "us", mean(&render_us)),
        metric("fleet.supervise_us", "us", mean(&supervise_us)),
    ]
}

/// What `fleet::supervise` adds around a job: the same work (handing back
/// a finished report) supervised, minus called directly.
fn supervise_overhead_us(w: &Workload, report: &ceres_core::AppReport) -> f64 {
    let report = report.clone();
    let job = FleetJob {
        app: w.name.to_string(),
        slug: w.slug.to_string(),
        work: Arc::new(move |_, _| Ok(report.clone())),
    };
    let policy = FleetPolicy::default();
    let supervised = per_call(|_| {
        std::hint::black_box(supervise(&job, 0, &policy));
    });
    let direct = per_call(|_| {
        let _ = std::hint::black_box((job.work)(0, 1));
    });
    supervised - direct
}
