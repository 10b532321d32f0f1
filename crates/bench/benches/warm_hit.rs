//! One `jsceresd` warm hit in process, over the 12 registry apps: the
//! request line parsed, `request_options`, `resolve` through the
//! registry resolver, `ShardedCache::lookup` and `render_frame`, as the
//! connection handler runs them for a one-shot request whose key is
//! stored. No socket: each line is the server's CPU per hit, first the
//! whole hit, then each stage alone on the same inputs.
//!
//! `cargo bench -p ceres-bench --bench warm_hit`

use ceres_core::cache::{CacheKey, ShardedCache};
use ceres_core::fleet::{supervise, FleetJob};
use ceres_core::serve::{
    render_frame, request_options, resolve, result_fragment, AnalysisRequest, Frame, ServeConfig,
    ONESHOT_SCHEMA_VERSION,
};
use ceres_core::AnalyzeOptions;
use ceres_workloads::registry_resolver;
use criterion::{criterion_group, criterion_main, Criterion};

/// One app's hit: its request line and what each stage makes of it.
struct Hit {
    line: String,
    req: AnalysisRequest,
    opts: AnalyzeOptions,
    key: CacheKey,
    frame: Frame,
}

fn bench_warm_hit(c: &mut Criterion) {
    let config = ServeConfig::default();
    let resolver = registry_resolver(config.policy.clone());
    let cache = ShardedCache::open(config.cache_capacity, config.cache_shards, None)
        .expect("a memory-only cache opens");
    // Prime the cache the way the daemon would: run each app once and
    // store its result fragment under its key.
    let hits: Vec<Hit> = ceres_workloads::all()
        .iter()
        .map(|w| {
            let line = format!(
                r#"{{"id":"hit","app":"{}","mode":"light","seed":2015}}"#,
                w.slug
            );
            let req: AnalysisRequest = serde_json::from_str(&line).expect("a request line");
            let opts = request_options(&req, &config).expect("a known mode");
            let (job, key) = resolve(&req, &opts, &resolver).expect("a registry app");
            let job = FleetJob {
                app: job.app,
                slug: job.slug,
                work: job.work,
            };
            let (ok, fragment) = result_fragment(&key, &supervise(&job, 0, &config.policy));
            assert!(ok, "{}: the priming run failed", w.slug);
            let frame = Frame::Result {
                ok: true,
                cached: true,
                fragment: cache.insert_or_get(&key, fragment),
            };
            Hit {
                line,
                req,
                opts,
                key,
                frame,
            }
        })
        .collect();
    let mut i = 0;
    let mut next = || {
        i = (i + 1) % hits.len();
        &hits[i]
    };

    let mut group = c.benchmark_group("warm_hit");
    group.sample_size(1_000_000);
    group.bench_function("hit", |b| {
        b.iter(|| {
            let req: AnalysisRequest = serde_json::from_str(&next().line).expect("a request line");
            let opts = request_options(&req, &config).expect("a known mode");
            let (_job, key) = resolve(&req, &opts, &resolver).expect("a registry app");
            let fragment = cache.lookup(&key).expect("a primed key");
            let frame = Frame::Result {
                ok: true,
                cached: true,
                fragment,
            };
            render_frame(ONESHOT_SCHEMA_VERSION, "hit", 1, &frame)
        })
    });
    group.bench_function("parse", |b| {
        b.iter(|| serde_json::from_str::<AnalysisRequest>(&next().line).expect("a request line"))
    });
    group.bench_function("request_options", |b| {
        b.iter(|| request_options(&next().req, &config).expect("a known mode"))
    });
    group.bench_function("resolve", |b| {
        b.iter(|| {
            let hit = next();
            resolve(&hit.req, &hit.opts, &resolver).expect("a registry app")
        })
    });
    group.bench_function("lookup", |b| {
        b.iter(|| cache.lookup(&next().key).expect("a primed key"))
    });
    group.bench_function("render_frame", |b| {
        b.iter(|| render_frame(ONESHOT_SCHEMA_VERSION, "hit", 1, &next().frame))
    });
    group.finish();
}

criterion_group!(benches, bench_warm_hit);
criterion_main!(benches);
