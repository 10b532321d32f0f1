//! The workload-aware request resolver for `jsceresd`.
//!
//! `ceres_core::serve` is registry-agnostic (the dependency points
//! workloads → core), so the daemon's ability to serve `{"app":"haar"}`
//! requests lives here: a [`Resolver`] that maps registry slugs to their
//! generated pages and interaction scripts and hands inline `source` to
//! the core's resolver. Both end in [`ResolvedJob::for_page`], which
//! applies per-request fault injection. Shared by the `jsceresd` binary
//! and the integration tests so both exercise the same resolution logic.

use crate::registry::{by_slug, workload_html};
use ceres_core::fleet::FleetPolicy;
use ceres_core::serve::{source_resolver, AnalysisRequest, ResolvedJob, Resolver};
use ceres_core::AnalyzeOptions;
use std::sync::Arc;

/// Build the daemon resolver: registry workloads by `app` slug, with the
/// request's optional `inject` fault; every other request goes to
/// [`source_resolver`]. The canonical source of a registry app is its
/// full generated page ([`workload_html`], scale baked in), so the cache
/// key tracks exactly the text the interpreter would run.
pub fn registry_resolver(policy: FleetPolicy) -> Resolver {
    let inline = source_resolver(policy.clone());
    Arc::new(move |req: &AnalysisRequest, opts: &AnalyzeOptions| {
        let Some(slug) = &req.app else {
            return inline(req, opts);
        };
        if req.source.is_some() {
            return Err("request must name `app` or `source`, not both".to_string());
        }
        let w = by_slug(slug)
            .ok_or_else(|| format!("unknown app `{slug}` (see jsceres analyze-all)"))?;
        let page = workload_html(&w, req.scale.unwrap_or(1));
        ResolvedJob::for_page(req, opts, &policy, w.name, w.slug, page, w.interaction)
    })
}
