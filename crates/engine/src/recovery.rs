//! Error recovery: re-synthesizing the lost part of a demand after a
//! detected fault.
//!
//! Recovery in this engine is *demand-level*: when a fault-injected run
//! loses droplets, the controller counts how many targets went unmet,
//! credits the salvaged survivors whose content already equals the
//! target mixture, and plans a fresh partial forest for only the
//! shortfall via [`StreamingEngine::plan`] — which is exactly the
//! forest crate's rebuild-with-pool machinery, now aimed at the lost
//! subtargets alone. Sub-target intermediates among the survivors are
//! flushed rather than re-entered: a free droplet cannot be grafted
//! into a volume-validated mix graph (see `DESIGN.md` §10).

use crate::{EngineError, StreamPlan, StreamingEngine};
use dmf_ratio::TargetRatio;

/// Retry/backoff policy for the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum re-synthesis attempts before the runner aborts the queued
    /// passes once and restarts planning for the remaining demand from
    /// scratch (after that single restart it gives up).
    pub max_replans: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_replans: 8 }
    }
}

impl RecoveryPolicy {
    /// Sets the re-synthesis budget.
    #[must_use]
    pub fn with_max_replans(mut self, max_replans: u32) -> Self {
        self.max_replans = max_replans;
        self
    }
}

/// The outcome of one recovery planning round.
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// Target droplets that went unmet before salvage.
    pub lost: u64,
    /// Survivors credited against the shortfall (content already equals
    /// the target mixture).
    pub salvaged: u64,
    /// The re-synthesized partial plan for the remaining shortfall
    /// (`None` when salvage covered everything).
    pub plan: Option<StreamPlan>,
}

impl RecoveryPlan {
    /// Droplets the re-synthesized plan must still produce.
    pub fn need(&self) -> u64 {
        self.plan.as_ref().map(|p| p.demand).unwrap_or(0)
    }
}

impl StreamingEngine {
    /// Plans recovery from a detected fault: credits `salvaged`
    /// target-grade survivors against `lost` unmet targets and
    /// re-synthesizes a partial forest for the rest.
    ///
    /// Counts `recovery.replans` and runs under the `recovery_plan` span
    /// when the global recorder is enabled. With span trees, the replan's
    /// `engine_plan` (and its pipeline stages) nests under `recovery_plan`,
    /// so profile reports attribute recovery overhead separately from
    /// first-attempt planning instead of folding both into one bucket.
    ///
    /// # Errors
    ///
    /// Propagates planning failures from [`StreamingEngine::plan`];
    /// `lost == 0` is not an error and yields an empty plan.
    pub fn plan_recovery(
        &self,
        target: &TargetRatio,
        lost: u64,
        salvaged: u64,
    ) -> Result<RecoveryPlan, EngineError> {
        let _span = dmf_obs::span!("recovery_plan");
        dmf_obs::global().count("recovery.replans", 1);
        let credited = salvaged.min(lost);
        let need = lost - credited;
        let plan = if need == 0 { None } else { Some(self.plan(target, need)?) };
        Ok(RecoveryPlan { lost, salvaged: credited, plan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    #[test]
    fn salvage_covers_everything() {
        let engine = StreamingEngine::new(EngineConfig::default());
        let r = engine.plan_recovery(&pcr_d4(), 3, 5).unwrap();
        assert_eq!(r.lost, 3);
        assert_eq!(r.salvaged, 3);
        assert!(r.plan.is_none());
        assert_eq!(r.need(), 0);
    }

    #[test]
    fn shortfall_is_replanned() {
        let engine = StreamingEngine::new(EngineConfig::default());
        let r = engine.plan_recovery(&pcr_d4(), 4, 1).unwrap();
        assert_eq!(r.salvaged, 1);
        assert_eq!(r.need(), 3);
        let plan = r.plan.expect("shortfall needs a plan");
        assert_eq!(plan.demand, 3);
        // The partial plan emits at least the shortfall (forests come in
        // pairs of targets per tree).
        let emitted: u64 = plan.passes.iter().map(|p| p.demand.div_ceil(2) * 2).sum();
        assert!(emitted >= 3);
    }

    #[test]
    fn nothing_lost_plans_nothing() {
        let engine = StreamingEngine::new(EngineConfig::default());
        let r = engine.plan_recovery(&pcr_d4(), 0, 0).unwrap();
        assert!(r.plan.is_none());
    }
}
