//! The workload-aware request resolver for `jsceresd`.
//!
//! `ceres_core::serve` is registry-agnostic (the dependency points
//! workloads → core), so the daemon's ability to serve `{"app":"haar"}`
//! requests lives here: a [`Resolver`] that maps registry slugs to their
//! generated pages and interaction scripts and hands inline `source` to
//! the core's resolver. Both end in [`ResolvedJob::for_page`], which
//! applies per-request fault injection. Shared by the `jsceresd` binary
//! and the integration tests so both exercise the same resolution logic.

use crate::registry::{by_slug, workload_html, Workload};
use ceres_core::cache::Digested;
use ceres_core::fleet::FleetPolicy;
use ceres_core::serve::{source_resolver, AnalysisRequest, ResolvedJob, Resolver};
use ceres_core::AnalyzeOptions;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Build the daemon resolver: registry workloads by `app` slug, with the
/// request's optional `inject` fault; every other request goes to
/// [`source_resolver`]. The canonical source of a registry app is its
/// full generated page ([`workload_html`], scale baked in), so the cache
/// key tracks exactly the text the interpreter would run. The resolver
/// keeps the page it last made for each app, with its digest, so a
/// repeated request neither regenerates nor rehashes it.
pub fn registry_resolver(policy: FleetPolicy) -> Resolver {
    let inline = source_resolver(policy.clone());
    let pages = Pages::default();
    Arc::new(move |req: &AnalysisRequest, opts: &AnalyzeOptions| {
        let Some(slug) = &req.app else {
            return inline(req, opts);
        };
        if req.source.is_some() {
            return Err("request must name `app` or `source`, not both".to_string());
        }
        let w = by_slug(slug)
            .ok_or_else(|| format!("unknown app `{slug}` (see jsceres analyze-all)"))?;
        let page = pages.page(&w, req.scale.unwrap_or(1));
        ResolvedJob::for_page(req, opts, &policy, w.name, w.slug, page, w.interaction)
    })
}

/// The last page made for each registry app, at its scale: at most one
/// page per app, so a request for another scale replaces it.
#[derive(Default)]
struct Pages(Mutex<HashMap<&'static str, (u32, Digested)>>);

impl Pages {
    /// `w`'s page at `scale`, made and hashed only when the last one
    /// made for `w` was at another scale, or none was.
    fn page(&self, w: &Workload, scale: u32) -> Digested {
        let mut pages = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match pages.get(w.slug) {
            Some((at, page)) if *at == scale => page.clone(),
            _ => {
                let page = Digested::new(workload_html(w, scale));
                pages.insert(w.slug, (scale, page.clone()));
                page
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_core::serve::resolve;
    use ceres_core::CacheKey;

    /// Every key the resolver builds is the key of a freshly generated
    /// page, whatever scales came before; two resolutions of one app and
    /// scale in a row share one digest, and another app does not evict it.
    #[test]
    fn registry_pages_are_hashed_once_per_app_and_scale() {
        let resolver = registry_resolver(FleetPolicy::default());
        let opts = AnalyzeOptions::default();
        let resolve_at = |slug: &str, scale: u32| {
            let req = AnalysisRequest {
                app: Some(slug.to_string()),
                scale: Some(scale),
                ..AnalysisRequest::default()
            };
            let (job, key) = resolve(&req, &opts, &resolver).expect("a registry app resolves");
            let w = by_slug(slug).expect("a registry app");
            assert_eq!(
                key,
                CacheKey::of(&workload_html(&w, scale), &opts, scale),
                "{slug} at scale {scale}"
            );
            job.source_sha256
        };
        let a1 = resolve_at("haar", 1);
        assert!(Arc::ptr_eq(&a1, &resolve_at("haar", 1)), "a hit rehashed");
        let a2 = resolve_at("haar", 2);
        assert_ne!(a1, a2);
        let a1 = resolve_at("haar", 1);
        resolve_at("cloth", 1);
        assert!(
            Arc::ptr_eq(&a1, &resolve_at("haar", 1)),
            "another app evicted haar's page"
        );
    }
}
