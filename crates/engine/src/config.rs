use dmf_forest::ReusePolicy;
use dmf_mixalgo::AlgorithmId;
use dmf_sched::SchedulerId;

/// How many on-chip mixers the engine may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MixerBudget {
    /// The paper's convention: the `Mlb` of the target's MinMix tree — the
    /// fewest mixers that let the MM base tree finish in critical-path time.
    #[default]
    MmLowerBound,
    /// A fixed mixer count.
    Fixed(usize),
}

/// Configuration of a [`crate::StreamingEngine`].
///
/// The default reproduces the paper's headline configuration: MinMix base
/// trees, SRS scheduling, `Mlb` mixers, paper-faithful across-tree droplet
/// reuse and no storage budget.
///
/// Algorithm and scheduler are registry ids
/// ([`dmf_mixalgo::AlgorithmId`] / [`dmf_sched::SchedulerId`]), so any
/// algorithm or scheduler registered in [`dmf_mixalgo::ALGORITHMS`] /
/// [`dmf_sched::SCHEDULERS`] can drive the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Base mixing-tree algorithm seeding the forest.
    pub algorithm: AlgorithmId,
    /// Forest scheduler (MMS for latency, SRS for storage).
    pub scheduler: SchedulerId,
    /// Mixer budget.
    pub mixers: MixerBudget,
    /// On-chip storage budget `q'`; `None` means unconstrained
    /// (single-pass).
    pub storage_limit: Option<usize>,
    /// Waste-droplet reuse policy for forest construction.
    pub reuse: ReusePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: dmf_mixalgo::MINMIX,
            scheduler: dmf_sched::SRS,
            mixers: MixerBudget::MmLowerBound,
            storage_limit: None,
            reuse: ReusePolicy::AcrossTrees,
        }
    }
}

impl EngineConfig {
    /// Shorthand: this config with a fixed mixer count.
    pub fn with_mixers(mut self, mixers: usize) -> Self {
        self.mixers = MixerBudget::Fixed(mixers);
        self
    }

    /// Shorthand: this config with a storage budget.
    pub fn with_storage_limit(mut self, limit: usize) -> Self {
        self.storage_limit = Some(limit);
        self
    }

    /// Shorthand: this config with another base algorithm.
    pub fn with_algorithm(mut self, algorithm: AlgorithmId) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Shorthand: this config with another scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerId) -> Self {
        self.scheduler = scheduler;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixalgo::{MINMIX, MTCS, RMA};
    use dmf_sched::{MMS, SRS};

    #[test]
    fn default_matches_paper_headline() {
        let c = EngineConfig::default();
        assert_eq!(c.algorithm, MINMIX);
        assert_eq!(c.scheduler, SRS);
        assert_eq!(c.mixers, MixerBudget::MmLowerBound);
        assert_eq!(c.storage_limit, None);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default()
            .with_mixers(5)
            .with_storage_limit(3)
            .with_algorithm(RMA)
            .with_scheduler(MMS);
        assert_eq!(c.mixers, MixerBudget::Fixed(5));
        assert_eq!(c.storage_limit, Some(3));
        assert_eq!(c.algorithm, RMA);
        assert_eq!(c.scheduler, MMS);
    }

    #[test]
    fn registry_ids_slot_in_directly() {
        let c = EngineConfig::default().with_algorithm(MTCS);
        assert_eq!(c.algorithm, MTCS);
        assert_eq!(c.algorithm.key(), "mtcs");
    }
}
