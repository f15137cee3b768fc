//! The planner: [`StreamingEngine`] and the plans it emits.
//!
//! A request passes the feasibility gate and the cache in
//! [`StreamingEngine::plan_shared`]; a miss runs four plain steps — build
//! the base tree, split the demand into passes, and per pass build the
//! mixing forest and schedule it — each under its own `stage_*` span and
//! counter, then folds the passes into a [`StreamPlan`].

use crate::cache::PlanKey;
use crate::{EngineConfig, EngineError, MixerBudget, PlanCache};
use dmf_mixalgo::{MinMix, MixingAlgorithm, Template};
use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_sched::{mixer_lower_bound, Schedule, StorageProfile};
use std::fmt;
use std::sync::Arc;

/// One pass of the streaming engine: a mixing forest plus its schedule and
/// storage profile.
#[derive(Debug, Clone)]
pub struct PassPlan {
    /// Target droplets this pass emits toward the demand.
    pub demand: u64,
    /// The pass's mixing forest.
    pub forest: MixGraph,
    /// The pass's mixer/time assignment.
    pub schedule: Schedule,
    /// Storage occupancy of the schedule (`q` is `storage.peak`).
    pub storage: StorageProfile,
}

impl PassPlan {
    /// Completion time of this pass in time-cycles.
    pub fn cycles(&self) -> u32 {
        self.schedule.makespan()
    }

    /// Storage units this pass needs.
    pub fn storage_units(&self) -> usize {
        self.storage.peak
    }
}

/// A complete streaming plan: every pass needed to meet the demand, plus
/// droplet-exact aggregates.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// The planned target ratio.
    pub target: TargetRatio,
    /// The requested demand `D`.
    pub demand: u64,
    /// Mixers used (`Mc`).
    pub mixers: usize,
    /// The passes, in execution order.
    pub passes: Vec<PassPlan>,
    /// Total completion time over all passes, `Tc`.
    pub total_cycles: u64,
    /// Total mix-split operations, `Tms`.
    pub total_mix_splits: u64,
    /// Total waste droplets, `W`.
    pub total_waste: u64,
    /// Total input droplets, `I`.
    pub total_inputs: u64,
    /// Per-fluid input droplets, `I[]`.
    pub inputs: Vec<u64>,
    /// Peak storage over all passes, `q`.
    pub storage_peak: usize,
}

impl StreamPlan {
    /// Number of passes.
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Runs the independent static verifier over this plan (see
    /// [`crate::static_check`]).
    pub fn static_check(&self) -> dmf_check::CheckReport {
        crate::static_check(self)
    }
}

impl fmt::Display for StreamPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "D={} passes={} Tc={} Tms={} W={} I={} q={} (Mc={})",
            self.demand,
            self.passes.len(),
            self.total_cycles,
            self.total_mix_splits,
            self.total_waste,
            self.total_inputs,
            self.storage_peak,
            self.mixers
        )
    }
}

/// The demand-driven mixture-preparation engine (see crate docs).
///
/// Planning runs four fixed steps — base tree, then per pass a mixing
/// forest and its schedule, inside the multi-pass split — each under its
/// own `stage_*` span and run counter; an optional
/// content-addressed [`PlanCache`] (see [`StreamingEngine::with_cache`])
/// short-circuits repeat requests.
#[derive(Debug, Clone, Default)]
pub struct StreamingEngine {
    config: EngineConfig,
    cache: Option<Arc<PlanCache>>,
}

impl StreamingEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        StreamingEngine { config, cache: None }
    }

    /// Attaches a shared content-addressed plan cache: repeat
    /// `(target, demand)` requests under the same configuration are served
    /// from the cache (counted as `cache.hits`) instead of replanned.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The attached plan cache, if any.
    pub fn cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// Resolves the mixer budget for a target (the `Mlb` of its MinMix
    /// tree under [`crate::MixerBudget::MmLowerBound`]).
    ///
    /// # Errors
    ///
    /// Propagates base-tree construction and scheduling failures.
    pub fn mixer_count(&self, target: &TargetRatio) -> Result<usize, EngineError> {
        resolve_mixers(&self.config, target)
    }

    /// Plans the production of `demand` droplets of `target`.
    ///
    /// With a storage budget configured, the demand is split into the
    /// fewest passes whose schedules each fit the budget; otherwise a
    /// single pass covers the whole demand. With a cache attached (see
    /// [`StreamingEngine::with_cache`]) repeat requests return a copy of
    /// the cached plan — byte-identical, since a plan is a pure function
    /// of the [`PlanKey`] tuple.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroDemand`] for `demand == 0`,
    /// [`EngineError::Infeasible`] when the mixability pre-pass
    /// ([`dmf_check::check_feasibility`]) rejects the request,
    /// [`EngineError::StorageInfeasible`] when even a demand-2 pass exceeds
    /// the storage budget, and propagates construction/scheduling failures.
    pub fn plan(&self, target: &TargetRatio, demand: u64) -> Result<StreamPlan, EngineError> {
        self.plan_shared(target, demand).map(Arc::unwrap_or_clone)
    }

    /// Like [`StreamingEngine::plan`], but hands out the plan behind an
    /// [`Arc`]: on a cache hit this is a pointer clone of the stored plan
    /// (observable via [`Arc::ptr_eq`]), and without a cache the freshly
    /// planned result is wrapped without copying.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEngine::plan`].
    pub fn plan_shared(
        &self,
        target: &TargetRatio,
        demand: u64,
    ) -> Result<Arc<StreamPlan>, EngineError> {
        // The feasibility gate every request passes before any planning
        // work: zero demand keeps its historical typed error, then the
        // dmf-check mixability pre-pass rejects CF vectors unreachable
        // under the (1:1)-mix algebra. Infeasible requests never reach the
        // planner — or the plan cache.
        if demand == 0 {
            return Err(EngineError::ZeroDemand);
        }
        dmf_check::assert_feasible(target.parts(), demand)
            .map_err(|e| EngineError::Infeasible { rule: e.rule, what: e.message })?;
        let Some(cache) = &self.cache else {
            return plan_uncached(&self.config, target, demand).map(Arc::new);
        };
        let key = PlanKey::new(&self.config, target, demand);
        let hit = {
            let _lookup = dmf_obs::span!("plan_cache_lookup");
            cache.lookup(&key)
        };
        if let Some(hit) = hit {
            // A zero-work marker span: the trace shows the request was
            // answered from the cache (a miss shows `engine_plan` instead).
            let _hit = dmf_obs::span!("plan_cache_hit");
            return Ok(hit);
        }
        let plan = Arc::new(plan_uncached(&self.config, target, demand)?);
        cache.store(key, Arc::clone(&plan));
        Ok(plan)
    }
}

/// Resolves the mixer budget for `target` under `config` (the `Mlb` of its
/// MinMix tree for [`MixerBudget::MmLowerBound`]).
fn resolve_mixers(config: &EngineConfig, target: &TargetRatio) -> Result<usize, EngineError> {
    match config.mixers {
        MixerBudget::Fixed(m) => Ok(m),
        MixerBudget::MmLowerBound => {
            let mm = MinMix.build_graph(target)?;
            Ok(mixer_lower_bound(&mm)?)
        }
    }
}

/// Runs `f` as the planner step `name`: one `dmf-obs` span, parented
/// under the caller's current span, and one run of the counter of the
/// same name.
fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = dmf_obs::span!(name);
    let obs = dmf_obs::global();
    if obs.is_enabled() {
        obs.count(name, 1);
    }
    f()
}

/// Plans a request the feasibility gate admitted, bypassing any cache.
fn plan_uncached(
    config: &EngineConfig,
    target: &TargetRatio,
    demand: u64,
) -> Result<StreamPlan, EngineError> {
    let _span = dmf_obs::span!("engine_plan");
    let (template, mixers) = stage("stage_build_tree", || {
        let template = {
            let _span = dmf_obs::span!("mixalgo_build");
            config.algorithm.build_template(target)?
        };
        Ok::<_, EngineError>((template, resolve_mixers(config, target)?))
    })?;
    let build = |pass_demand| build_pass(config, target, &template, mixers, pass_demand);
    let passes = stage("stage_split_passes", || {
        let mut passes = Vec::new();
        let mut remaining = demand;
        while remaining > 0 {
            let pass_demand = match config.storage_limit {
                None => remaining,
                Some(limit) => max_pass_demand(build, remaining, limit)?,
            };
            passes.push(build(pass_demand)?);
            remaining = remaining.saturating_sub(pass_demand);
        }
        Ok::<_, EngineError>(passes)
    })?;

    let total_cycles = passes.iter().map(|p| u64::from(p.cycles())).sum();
    let mut inputs = vec![0u64; target.fluid_count()];
    let mut total_waste = 0u64;
    let mut total_mix_splits = 0u64;
    for pass in &passes {
        let stats = pass.forest.stats();
        total_waste += stats.waste as u64;
        total_mix_splits += stats.mix_splits as u64;
        for (acc, v) in inputs.iter_mut().zip(&stats.inputs) {
            *acc += v;
        }
    }
    let plan = StreamPlan {
        target: target.clone(),
        demand,
        mixers,
        total_cycles,
        total_mix_splits,
        total_waste,
        total_inputs: inputs.iter().sum(),
        inputs,
        storage_peak: passes.iter().map(PassPlan::storage_units).max().unwrap_or(0),
        passes,
    };
    let obs = dmf_obs::global();
    if obs.is_enabled() {
        obs.gauge_set("plan.demand", plan.demand);
        obs.gauge_set("plan.passes", plan.passes.len() as u64);
        obs.gauge_set("plan.cycles", plan.total_cycles);
        obs.gauge_set("plan.mix_splits", plan.total_mix_splits);
        obs.gauge_set("plan.waste", plan.total_waste);
        obs.gauge_set("plan.inputs", plan.total_inputs);
        obs.gauge_set("plan.storage_peak", plan.storage_peak as u64);
    }
    // Translation validation: in debug builds every emitted plan must
    // satisfy the independent checker's invariants.
    #[cfg(debug_assertions)]
    {
        let report = crate::static_check(&plan);
        debug_assert!(report.is_clean(), "engine emitted an unsound plan:\n{report}");
    }
    Ok(plan)
}

/// One pass for `demand` droplets: the template expanded into a mixing
/// forest under the engine's reuse policy, then scheduled onto `mixers`
/// with its storage profile.
fn build_pass(
    config: &EngineConfig,
    target: &TargetRatio,
    template: &Template,
    mixers: usize,
    demand: u64,
) -> Result<PassPlan, EngineError> {
    let forest = stage("stage_build_forest", || {
        // Subgraph-sharing base algorithms (MTCS, RSM) reuse droplets even
        // within one tree; their forests must too, or the engine would lose
        // the sharing the repeated baseline enjoys.
        let reuse = if config.algorithm.shares_subgraphs() {
            dmf_forest::ReusePolicy::Eager
        } else {
            config.reuse
        };
        dmf_forest::build_forest(template, target, demand, reuse)
    })?;
    stage("stage_schedule", || {
        let schedule = config.scheduler.schedule(&forest, mixers)?;
        let storage = schedule.storage(&forest);
        Ok(PassPlan { demand, forest, schedule, storage })
    })
}

/// The paper's `D'`: the largest demand (up to `remaining`) whose
/// single-pass schedule fits the storage budget.
fn max_pass_demand(
    build: impl Fn(u64) -> Result<PassPlan, EngineError>,
    remaining: u64,
    limit: usize,
) -> Result<u64, EngineError> {
    let first = build(remaining.min(2))?;
    if first.storage_units() > limit {
        return Err(EngineError::StorageInfeasible { limit, needed: first.storage_units() });
    }
    // SRS storage is not strictly monotone in the demand (see the
    // Fig. 7 jitter), so keep scanning past the first infeasible
    // demand for a short window before giving up.
    let mut best = remaining.min(2);
    let mut candidate = best + 2;
    let mut misses = 0u32;
    while candidate <= remaining && misses < 4 {
        if build(candidate)?.storage_units() > limit {
            misses += 1;
        } else {
            best = candidate;
            misses = 0;
        }
        candidate += 2;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_sched::MMS;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    #[test]
    fn unconstrained_plan_is_single_pass_matching_fig3() {
        let engine = StreamingEngine::new(EngineConfig::default());
        let plan = engine.plan(&pcr_d4(), 20).unwrap();
        assert_eq!(plan.pass_count(), 1);
        assert_eq!(plan.mixers, 3);
        assert_eq!(plan.total_cycles, 11); // Fig. 3
        assert_eq!(plan.storage_peak, 5); // Fig. 3
        assert_eq!(plan.total_inputs, 25); // Fig. 2
        assert_eq!(plan.total_waste, 5);
        assert_eq!(plan.total_mix_splits, 27);
    }

    #[test]
    fn storage_budget_splits_into_passes() {
        let engine = StreamingEngine::new(EngineConfig::default().with_storage_limit(3));
        let plan = engine.plan(&pcr_d4(), 20).unwrap();
        assert!(plan.pass_count() > 1, "q' = 3 cannot fit D = 20 in one pass");
        assert!(plan.passes.iter().all(|p| p.storage_units() <= 3));
        // Passes cover the demand.
        let covered: u64 = plan.passes.iter().map(|p| p.demand).sum();
        assert_eq!(covered, 20);
        // Multi-pass costs more reactant than single-pass.
        let unconstrained =
            StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), 20).unwrap();
        assert!(plan.total_inputs >= unconstrained.total_inputs);
    }

    #[test]
    fn generous_budget_is_single_pass() {
        let engine = StreamingEngine::new(EngineConfig::default().with_storage_limit(64));
        let plan = engine.plan(&pcr_d4(), 32).unwrap();
        assert_eq!(plan.pass_count(), 1);
    }

    #[test]
    fn zero_demand_rejected() {
        let engine = StreamingEngine::new(EngineConfig::default());
        assert!(matches!(engine.plan(&pcr_d4(), 0), Err(EngineError::ZeroDemand)));
    }

    #[test]
    fn infeasible_request_rejected_before_planning() {
        // A single pure fluid has no mixing tree; the pre-pass converts
        // what used to be a deep mixalgo failure into a typed rejection,
        // and an infeasible request must never warm the cache.
        let pure = TargetRatio::new(vec![16]).expect("pure ratio constructs");
        let engine = StreamingEngine::new(EngineConfig::default()).with_cache(PlanCache::shared());
        for _ in 0..2 {
            match engine.plan(&pure, 4) {
                Err(EngineError::Infeasible { rule, what }) => {
                    assert_eq!(rule, dmf_check::RuleCode::Feas002);
                    assert!(what.contains("pure fluid"), "{what}");
                }
                other => panic!("expected Infeasible, got {other:?}"),
            }
        }
        assert_eq!(engine.cache().map(|c| c.len()), Some(0), "infeasible request never cached");
    }

    #[test]
    fn mms_is_no_slower_than_srs() {
        let target = pcr_d4();
        let srs = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
        let mms = StreamingEngine::new(EngineConfig::default().with_scheduler(MMS))
            .plan(&target, 32)
            .unwrap();
        assert!(mms.total_cycles <= srs.total_cycles);
        assert!(srs.storage_peak <= mms.storage_peak);
    }

    #[test]
    fn mixer_budget_is_mlb_by_default() {
        let engine = StreamingEngine::new(EngineConfig::default());
        assert_eq!(engine.mixer_count(&pcr_d4()).unwrap(), 3);
        let fixed = StreamingEngine::new(EngineConfig::default().with_mixers(7));
        assert_eq!(fixed.mixer_count(&pcr_d4()).unwrap(), 7);
    }

    #[test]
    fn cached_plan_is_byte_identical_and_pointer_shared() {
        let cache = PlanCache::shared();
        let engine = StreamingEngine::new(EngineConfig::default()).with_cache(Arc::clone(&cache));
        let cold = engine.plan_shared(&pcr_d4(), 20).unwrap();
        let warm = engine.plan_shared(&pcr_d4(), 20).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "warm hit must be the stored Arc");
        let uncached = StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), 20).unwrap();
        assert_eq!(format!("{warm}"), format!("{uncached}"));
        // Different demand misses: a separate entry appears.
        let _ = engine.plan_shared(&pcr_d4(), 22).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn config_perturbations_do_not_alias_in_the_cache() {
        let cache = PlanCache::shared();
        let srs = StreamingEngine::new(EngineConfig::default()).with_cache(Arc::clone(&cache));
        let mms = StreamingEngine::new(EngineConfig::default().with_scheduler(MMS))
            .with_cache(Arc::clone(&cache));
        let a = srs.plan_shared(&pcr_d4(), 32).unwrap();
        let b = mms.plan_shared(&pcr_d4(), 32).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }
}
