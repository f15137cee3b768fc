//! `plan_multipass`: storage-constrained planning only. Every request has
//! a storage budget q' below its unconstrained peak, so it splits into
//! several passes (paper §6, Table 4); one unit of work is one
//! `plan_batch` over all requests with a fresh plan cache.

use crate::gate;
use crate::gen::multipass_candidates;
use crate::stats::{elapsed_ns, Layers, Probe};
use crate::workload::{Model, Phase, Workload};
use dmfstream::engine::{
    plan_batch, BatchOptions, CacheStats, EngineConfig, PlanCache, PlanRequest, StreamPlan,
    StreamingEngine,
};
use dmfstream::obs;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Seeded corpus ratios beside the five Table 2 ratios.
const CORPUS: usize = 640;

/// Spans the traced phase retains per batch; one batch records ~10^5.
const TRACED_SPAN_CAPACITY: usize = 1 << 19;

struct Prepared {
    request: PlanRequest,
    /// The budget q'.
    limit: usize,
    /// The exact counts of the set-up plan; every batch must repeat them.
    reference: Model,
}

pub struct PlanMultipass {
    prepared: Vec<Prepared>,
    requests: Vec<PlanRequest>,
    jobs: NonZeroUsize,
    /// Cache counters summed over the traced phase's batches.
    cache: CacheStats,
}

fn model_of(plan: &StreamPlan) -> Model {
    Model {
        mix_cycles: plan.total_cycles,
        electrode_actuations: 0,
        waste_droplets: plan.total_waste,
        input_droplets: plan.total_inputs,
        passes: plan.passes.len() as u64,
    }
}

fn droplets_of(plan: &StreamPlan) -> u64 {
    plan.passes.iter().map(|p| 2 * p.forest.tree_count() as u64).sum()
}

impl Workload for PlanMultipass {
    /// One sample per batch, ~270–290 batches in a 30 s run: p95.
    const TAIL_PCT: u32 = 95;

    fn setup(seed: u64) -> Result<Self, String> {
        let free = StreamingEngine::new(EngineConfig::default());
        let mut prepared = Vec::new();
        for (ratio, demand) in multipass_candidates(seed, CORPUS) {
            let what = |e: &dyn std::fmt::Display| format!("{:?} D={demand}: {e}", ratio.parts());
            let peak = free.plan(&ratio, demand).map_err(|e| what(&e))?.storage_peak;
            // The smallest budget any split can meet: a demand-2 pass.
            let floor = free.plan(&ratio, 2).map_err(|e| what(&e))?.storage_peak;
            if floor >= peak {
                continue; // no budget below the peak is feasible
            }
            let limit = floor + (peak - 1 - floor) / 2;
            let config = EngineConfig::default().with_storage_limit(limit);
            let plan = StreamingEngine::new(config).plan(&ratio, demand).map_err(|e| what(&e))?;
            if plan.passes.len() < 2 {
                continue; // storage is not monotone in D; this one fits in one pass
            }
            gate::multipass_fit(&plan, limit, demand).map_err(|e| what(&e))?;
            prepared.push(Prepared {
                request: PlanRequest::new(ratio, demand).with_config(config),
                limit,
                reference: model_of(&plan),
            });
        }
        if prepared.is_empty() {
            return Err("no candidate splits into several passes".into());
        }
        let jobs = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        let requests = prepared.iter().map(|p| p.request.clone()).collect();
        Ok(PlanMultipass { prepared, requests, jobs, cache: CacheStats::default() })
    }

    fn run(&mut self, budget: Duration, probe: &mut Probe) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut cache_total = CacheStats::default();
        let recorder = obs::global();
        if probe.is_on() {
            // The stages run inside plan_batch's workers; read the spans
            // the program already emits for them.
            recorder.set_span_capacity(TRACED_SPAN_CAPACITY);
            recorder.reset();
            recorder.set_enabled(true);
        }
        let start = Instant::now();
        loop {
            let cache = PlanCache::shared();
            let options = BatchOptions::new().with_jobs(self.jobs).with_cache(cache.clone());
            let t0 = Instant::now();
            let results = probe.time("plan_batch", || plan_batch(&self.requests, &options));
            let ns = elapsed_ns(t0);
            let mut ok = true;
            for (prepared, result) in self.prepared.iter().zip(&results) {
                phase.attempted += 1;
                let req = &prepared.request;
                let checked = result.as_ref().map_err(ToString::to_string).and_then(|plan| {
                    gate::multipass_fit(plan, prepared.limit, req.demand)?;
                    let model = model_of(plan);
                    if model != prepared.reference {
                        return Err(format!(
                            "model counts {model:?} differ from the set-up's {:?}",
                            prepared.reference
                        ));
                    }
                    Ok(droplets_of(plan))
                });
                match checked {
                    Ok(droplets) => {
                        phase.plans += 1;
                        phase.droplets += droplets;
                    }
                    Err(e) => {
                        ok = false;
                        phase.fail(format!("{:?} D={}: {e}", req.target.parts(), req.demand));
                    }
                }
            }
            if ok {
                phase.latencies.push(ns);
            }
            let stats = cache.stats();
            cache_total.hits += stats.hits;
            cache_total.misses += stats.misses;
            cache_total.evictions += stats.evictions;
            if probe.is_on() {
                let snapshot = recorder.snapshot();
                if snapshot.spans_dropped > 0 {
                    eprintln!("warning: {} spans dropped in one batch", snapshot.spans_dropped);
                }
                for span in snapshot.spans.iter().filter(|s| s.name.starts_with("stage_")) {
                    probe.record(span.name, span.dur_ns);
                }
                recorder.reset();
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        phase.wall = start.elapsed();
        if probe.is_on() {
            recorder.set_enabled(false);
            recorder.set_span_capacity(obs::DEFAULT_SPAN_CAPACITY);
            recorder.reset();
            self.cache = cache_total;
        }
        Ok(phase)
    }

    fn model(&self) -> Model {
        let mut total = Model::default();
        for p in &self.prepared {
            total.add(&p.reference);
        }
        total
    }

    fn extras(&mut self, _layers: &Layers, _traced: &Phase) -> BTreeMap<&'static str, f64> {
        let lookups = (self.cache.hits + self.cache.misses).max(1);
        BTreeMap::from([
            ("plan_cache.hit_ratio", self.cache.hits as f64 / lookups as f64),
            ("plan_cache.evictions", self.cache.evictions as f64),
        ])
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
