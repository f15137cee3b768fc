use crate::cache::PlanKey;
use crate::pipeline::PlanContext;
use crate::{EngineConfig, EngineError, PlanCache};
use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_sched::{Schedule, StorageProfile};
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
/// `plan` is a thin facade over the staged pipeline in [`crate::pipeline`]
/// (`BuildTree → BuildForest → Schedule → SplitPasses`); an optional
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
        crate::pipeline::resolve_mixers(&self.config, target)
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
        match &self.cache {
            None => self.plan_uncached(target, demand),
            Some(_) => self.plan_shared(target, demand).map(|plan| (*plan).clone()),
        }
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
        preflight(target, demand)?;
        let Some(cache) = &self.cache else {
            return self.plan_uncached(target, demand).map(Arc::new);
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
        let plan = Arc::new(self.plan_uncached(target, demand)?);
        cache.store(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Runs the mixability pre-pass for a request without planning it.
    ///
    /// This is the same gate every `plan*` entry point runs; exposed so
    /// batch front ends can triage requests before spawning workers.
    ///
    /// # Errors
    ///
    /// [`EngineError::ZeroDemand`] or [`EngineError::Infeasible`].
    pub fn preflight(target: &TargetRatio, demand: u64) -> Result<(), EngineError> {
        preflight(target, demand)
    }

    /// Runs the staged pipeline end to end, bypassing any cache.
    fn plan_uncached(&self, target: &TargetRatio, demand: u64) -> Result<StreamPlan, EngineError> {
        preflight(target, demand)?;
        let _span = dmf_obs::span!("engine_plan");
        let mut ctx = PlanContext::new(self.config, target, demand)?;
        crate::Pipeline::standard().run(&mut ctx)?;
        ctx.into_plan()
    }
}

/// The feasibility gate run before any planning work: zero demand keeps
/// its historical typed error, then the dmf-check mixability pre-pass
/// rejects CF vectors unreachable under the (1:1)-mix algebra. Infeasible
/// requests never reach the pipeline — or the plan cache.
fn preflight(target: &TargetRatio, demand: u64) -> Result<(), EngineError> {
    if demand == 0 {
        return Err(EngineError::ZeroDemand);
    }
    dmf_check::assert_feasible(target.parts(), demand)
        .map_err(|e| EngineError::Infeasible { rule: e.rule, what: e.message })
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
