//! Parallel batch planning over a `std::thread::scope` worker pool.
//!
//! Planning is embarrassingly parallel: each request is a pure function of
//! its [`crate::PlanKey`] tuple, so a pool of workers can pull *chunks*
//! of requests off an atomic cursor and plan them independently (one
//! `fetch_add` per chunk, not per request). Results come back
//! **in input order**, and every plan is byte-identical to what a
//! sequential [`crate::StreamingEngine::plan`] call would have produced —
//! threads only change wall-clock time, never output.
//!
//! The pool defaults to [`std::thread::available_parallelism`] workers and
//! is overridable per batch via [`BatchOptions::with_jobs`] (the CLI's
//! `--jobs N`). An optional shared [`PlanCache`] deduplicates identical
//! requests within and across batches.

use crate::{EngineConfig, EngineError, PlanCache, StreamPlan, StreamingEngine};
use dmf_ratio::TargetRatio;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One planning request: a target, a demand and the engine configuration
/// to plan under. Batches may freely mix configurations.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The engine configuration for this request.
    pub config: EngineConfig,
    /// The target ratio.
    pub target: TargetRatio,
    /// The demand `D`.
    pub demand: u64,
}

impl PlanRequest {
    /// A request for `demand` droplets of `target` under the default
    /// configuration.
    pub fn new(target: TargetRatio, demand: u64) -> Self {
        PlanRequest { config: EngineConfig::default(), target, demand }
    }

    /// This request under another configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// This request planned with the named mixing algorithm, resolved
    /// against [`dmf_mixalgo::ALGORITHMS`] (keys, labels and aliases,
    /// case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownAlgorithm`] (listing the registered
    /// keys) when `name` does not resolve.
    pub fn with_algorithm(mut self, name: &str) -> Result<Self, EngineError> {
        self.config.algorithm = dmf_mixalgo::ALGORITHMS.resolve(name)?;
        Ok(self)
    }
}

/// Worker-pool and cache settings for [`plan_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    jobs: Option<NonZeroUsize>,
    cache: Option<Arc<PlanCache>>,
}

impl BatchOptions {
    /// Default options: `available_parallelism` workers, no cache.
    #[must_use]
    pub fn new() -> Self {
        BatchOptions::default()
    }

    /// Overrides the worker count (`--jobs N`). Zero is unrepresentable:
    /// the CLI rejects it before this type is ever constructed.
    #[must_use]
    pub fn with_jobs(mut self, jobs: NonZeroUsize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Plans through (and warms) `cache`.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configured cache, if any.
    pub fn cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// The worker count a batch of `requests` requests would use.
    pub fn effective_jobs(&self, requests: usize) -> usize {
        let configured = self
            .jobs
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get);
        configured.min(requests).max(1)
    }
}

fn plan_one(
    req: &PlanRequest,
    cache: Option<&Arc<PlanCache>>,
) -> Result<Arc<StreamPlan>, EngineError> {
    let mut engine = StreamingEngine::new(req.config);
    if let Some(cache) = cache {
        engine = engine.with_cache(Arc::clone(cache));
    }
    engine.plan_shared(&req.target, req.demand)
}

/// Plans every request, in parallel, returning results **in input order**.
///
/// Workers claim chunks of requests off an atomic cursor (sized for ~4
/// chunks per worker, capped at 64), so load balances across
/// heterogeneous request costs without paying per-request cursor
/// traffic; determinism is unaffected because each plan only depends on
/// its own request. Per-batch `batch.requests` /
/// `batch.jobs` gauges are published when the global recorder is enabled,
/// and each worker adopts the caller's [`dmf_obs::TraceContext`], so
/// per-request `engine_plan` spans parent under the `plan_batch` span
/// instead of becoming anonymous per-thread roots.
///
/// Errors are per-request: one failing request yields an `Err` in its
/// slot without disturbing its neighbors. A request the mixability
/// pre-pass rejects is answered by its worker from that gate alone (see
/// [`StreamingEngine::plan_shared`]), before any planning work.
pub fn plan_batch(
    requests: &[PlanRequest],
    options: &BatchOptions,
) -> Vec<Result<Arc<StreamPlan>, EngineError>> {
    let _span = dmf_obs::span!("plan_batch");
    let jobs = options.effective_jobs(requests.len());
    let obs = dmf_obs::global();
    if obs.is_enabled() {
        obs.gauge_set("batch.requests", requests.len() as u64);
        obs.gauge_set("batch.jobs", jobs as u64);
    }
    if jobs <= 1 {
        return requests.iter().map(|r| plan_one(r, options.cache())).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<Arc<StreamPlan>, EngineError>>> = Vec::new();
    slots.resize_with(requests.len(), || None);
    // Workers claim *chunks* of the requests, not single requests: one
    // fetch_add per chunk amortizes the cursor's cache-line traffic
    // across up to 64 plans. Aim for ~4 chunks per worker so the tail
    // still load-balances across heterogeneous request costs.
    let chunk = (requests.len() / (jobs * 4)).clamp(1, 64);
    // Capture the batch span's position so each worker thread can adopt
    // it: per-request `engine_plan` spans then parent under `plan_batch`
    // instead of floating as anonymous roots.
    let ctx = dmf_obs::TraceContext::current();
    let ctx_ref = &ctx;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let _adopted = ctx_ref.enter();
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= requests.len() {
                            break;
                        }
                        let end = (start + chunk).min(requests.len());
                        for (i, req) in (start..end).zip(&requests[start..end]) {
                            local.push((i, plan_one(req, options.cache())));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // A worker can only fail to join if it panicked; the affected
            // slots surface as typed Internal errors below instead of
            // tearing down the caller.
            if let Ok(local) = handle.join() {
                for (i, result) in local {
                    slots[i] = Some(result);
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(EngineError::Internal { what: "batch worker abandoned its request".into() })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    #[test]
    fn batch_matches_sequential_for_mixed_demands() {
        let requests: Vec<PlanRequest> =
            (1..=6).map(|d| PlanRequest::new(pcr_d4(), d * 4)).collect();
        let jobs = NonZeroUsize::new(3)
            .map_or_else(BatchOptions::new, |j| BatchOptions::new().with_jobs(j));
        let parallel = plan_batch(&requests, &jobs);
        for (req, result) in requests.iter().zip(&parallel) {
            let sequential =
                StreamingEngine::new(req.config).plan(&req.target, req.demand).unwrap();
            let got = result.as_ref().unwrap();
            assert_eq!(got.total_cycles, sequential.total_cycles);
            assert_eq!(got.total_inputs, sequential.total_inputs);
            assert_eq!(got.demand, sequential.demand);
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let infeasible = PlanRequest::new(pcr_d4(), 0);
        let requests =
            vec![PlanRequest::new(pcr_d4(), 4), infeasible, PlanRequest::new(pcr_d4(), 8)];
        let results = plan_batch(&requests, &BatchOptions::new());
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EngineError::ZeroDemand)));
        assert!(results[2].is_ok());
    }

    #[test]
    fn infeasible_requests_stay_in_their_slot() {
        // A single pure fluid is unmixable: the pre-pass answers the slot
        // without planning, and neighbors are untouched.
        let pure = TargetRatio::new(vec![16]).unwrap();
        let requests = vec![
            PlanRequest::new(pcr_d4(), 4),
            PlanRequest::new(pure, 4),
            PlanRequest::new(pcr_d4(), 8),
        ];
        let jobs = NonZeroUsize::new(2)
            .map_or_else(BatchOptions::new, |j| BatchOptions::new().with_jobs(j));
        let results = plan_batch(&requests, &jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::Infeasible { rule: dmf_check::RuleCode::Feas002, .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn shared_cache_dedupes_identical_requests() {
        let cache = PlanCache::shared();
        let requests = vec![PlanRequest::new(pcr_d4(), 20); 4];
        let options = BatchOptions::new().with_cache(Arc::clone(&cache));
        let results = plan_batch(&requests, &options);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(cache.len(), 1, "four identical requests, one cached plan");
    }

    #[test]
    fn effective_jobs_clamps_to_request_count() {
        let options = NonZeroUsize::new(16)
            .map_or_else(BatchOptions::new, |j| BatchOptions::new().with_jobs(j));
        assert_eq!(options.effective_jobs(3), 3);
        assert_eq!(options.effective_jobs(0), 1);
    }
}
