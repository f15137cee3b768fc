//! The resilient campaign runner: plan → realize → fault-injected run →
//! detect → recover, looping until the demand is met.

use crate::lineage::droplet_mixtures;
use crate::{FaultConfig, FaultModel, WearTracker};
use dmf_chip::presets::streaming_chip;
use dmf_chip::{ChipError, ChipSpec, Coord};
use dmf_engine::{
    realize_pass, EngineConfig, EngineError, PlanCache, RecoveryPolicy, StreamingEngine,
};
use dmf_pins::{BackendKind, PinError};
use dmf_ratio::TargetRatio;
use dmf_sim::{FaultKind, SimError, Simulator, Trace};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors of a resilient campaign.
#[derive(Debug)]
#[non_exhaustive]
pub enum FaultError {
    /// Planning or realization failed.
    Engine(EngineError),
    /// The simulator rejected a program for a non-fault reason.
    Sim(SimError),
    /// Chip construction failed.
    Chip(ChipError),
    /// The campaign's pin backend could not assign the chip.
    Pins(PinError),
    /// The recovery budget ran out (including the restart fallback, when
    /// enabled) with the demand still unmet.
    RecoveryExhausted {
        /// Re-synthesis attempts spent.
        replans: u32,
        /// Target droplets delivered (emitted + salvaged).
        delivered: u64,
        /// The original demand.
        demand: u64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Engine(e) => write!(f, "engine error: {e}"),
            FaultError::Sim(e) => write!(f, "simulation error: {e}"),
            FaultError::Chip(e) => write!(f, "chip error: {e}"),
            FaultError::Pins(e) => write!(f, "pin backend error: {e}"),
            FaultError::RecoveryExhausted { replans, delivered, demand } => write!(
                f,
                "recovery exhausted after {replans} replans: delivered {delivered}/{demand}"
            ),
        }
    }
}

impl Error for FaultError {}

impl From<EngineError> for FaultError {
    fn from(e: EngineError) -> Self {
        FaultError::Engine(e)
    }
}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> Self {
        FaultError::Sim(e)
    }
}

impl From<ChipError> for FaultError {
    fn from(e: ChipError) -> Self {
        FaultError::Chip(e)
    }
}

impl From<PinError> for FaultError {
    fn from(e: PinError) -> Self {
        FaultError::Pins(e)
    }
}

/// Everything a fault campaign needs beyond the target and demand: the
/// planning configuration, fault model knobs, recovery policy, the pin
/// backend the chip is wired with, and (optionally) a pre-built chip.
///
/// [`Campaign::default`] is the plain campaign: default engine, fault
/// model and recovery policy, direct addressing, auto-built chip.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Streaming-engine planning configuration.
    pub engine: EngineConfig,
    /// Fault model knobs (rate, weights, seed, wear degradation).
    pub faults: FaultConfig,
    /// Recovery budget: re-synthesis rounds before the one restart.
    pub policy: RecoveryPolicy,
    /// Pin backend the chip is wired with. A stuck electrode takes its
    /// whole pin group out of service (the shared pin can no longer be
    /// driven safely), and execution runs under the pinned simulator.
    pub backend: BackendKind,
    /// Run on this chip instead of the auto-built streaming preset —
    /// e.g. a wear-aware placement from [`dmf_chip::Placer::place_with`].
    /// The chip must satisfy `validate_for_engine` for the target's
    /// fluid count.
    pub chip: Option<ChipSpec>,
}

/// The result of a resilient streaming campaign.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The demanded target-droplet count.
    pub demand: u64,
    /// Droplets emitted at output ports across all runs.
    pub emitted: u64,
    /// Target-grade survivors credited by the recovery planner.
    pub salvaged: u64,
    /// Faults injected across all runs.
    pub injected: u64,
    /// Fault records detected by sensor checkpoints.
    pub detected: u64,
    /// Re-synthesis rounds spent.
    pub replans: u32,
    /// Abort-and-restart fallbacks taken (0 or 1).
    pub restarts: u32,
    /// Simulator runs executed (one per pass, including recovery passes).
    pub runs: u32,
    /// Completion time of the fault-free baseline plan, in cycles.
    pub baseline_cycles: u64,
    /// Cycles actually spent across all runs.
    pub total_cycles: u64,
    /// Electrodes diagnosed dead (and routed around) during the campaign.
    pub dead_cells: Vec<Coord>,
    /// One trace per simulator run, in execution order.
    pub traces: Vec<Trace>,
}

impl ResilientOutcome {
    /// Target droplets delivered: emitted plus salvaged survivors.
    pub fn delivered(&self) -> u64 {
        self.emitted + self.salvaged
    }

    /// Whether the campaign met the demand.
    pub fn demand_met(&self) -> bool {
        self.delivered() >= self.demand
    }

    /// Cycle overhead over the fault-free baseline.
    pub fn extra_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.baseline_cycles)
    }
}

impl fmt::Display for ResilientOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivered={}/{} (emitted={} salvaged={}) faults={}/{} replans={} restarts={} \
             runs={} cycles={} (+{} over baseline) dead={}",
            self.delivered(),
            self.demand,
            self.emitted,
            self.salvaged,
            self.detected,
            self.injected,
            self.replans,
            self.restarts,
            self.runs,
            self.total_cycles,
            self.extra_cycles(),
            self.dead_cells.len()
        )
    }
}

/// Runs a whole streaming campaign under fault injection, recovering
/// until `demand` target droplets are delivered or the recovery policy
/// gives up.
///
/// The loop per pass: realize it on the current chip (routing around
/// every electrode diagnosed dead so far), sample a fault plan from the
/// seeded model (wear-aware: the chip's accumulated actuation counts
/// raise per-electrode failure odds), execute under
/// [`Simulator::run_faulty`], diagnose stuck electrodes from the fault
/// records, credit target-grade survivors via trace lineage, and — when
/// targets went unmet — ask [`StreamingEngine::plan_recovery`] for a
/// partial re-synthesis that is appended to the pass queue.
///
/// The baseline plan and every replan go through `cache`, so a
/// Monte-Carlo sweep that hands the same `Arc` to every trial plans each
/// distinct `(config, target, demand)` once: trial 2's baseline and any
/// replan for an already-seen residual demand are cache hits.
///
/// `wear` is read by the fault model's degradation term and updated with
/// every run's actuations — *including ghost actuations under a shared-pin
/// backend* — so a sweep that threads one tracker through consecutive
/// trials ages the chip realistically across the whole sweep instead of
/// starting each trial on pristine electrodes (pass a fresh
/// [`WearTracker::new`] per trial for independent trials).
///
/// Under a pin-constrained backend a diagnosed stuck electrode retires
/// its entire pin group: a pin wired to a dead electrode can never be
/// driven safely again, so every group mate is marked dead and routed
/// around. Under direct addressing groups are singletons and this
/// reduces to the classic per-cell diagnosis.
///
/// Counts `recovery.extra_cycles` (and, through the simulator and the
/// planner, `fault.injected` / `fault.detected` / `recovery.replans`)
/// when the global recorder is enabled.
///
/// A `campaign.faults.fault_rate` of 0 makes every run byte-identical to
/// the fault-free baseline: same chip, same programs, same traces.
///
/// # Errors
///
/// Propagates planning/realization/chip errors, returns
/// [`FaultError::Pins`] when the backend cannot assign the chip, and
/// [`FaultError::RecoveryExhausted`] when the replan budget (and the
/// restart fallback, if enabled) runs out with the demand unmet.
pub fn run_campaign(
    target: &TargetRatio,
    demand: u64,
    campaign: &Campaign,
    cache: Arc<PlanCache>,
    wear: &mut WearTracker,
) -> Result<ResilientOutcome, FaultError> {
    let _span = dmf_obs::span!("run_campaign");
    let engine_config = campaign.engine;
    let fault_config = &campaign.faults;
    let policy = campaign.policy;
    let engine = StreamingEngine::new(engine_config).with_cache(Arc::clone(&cache));
    let plan = engine.plan(target, demand)?;
    let baseline_cycles = plan.total_cycles;
    let mut chip = match &campaign.chip {
        Some(prebuilt) => prebuilt.clone(),
        None => streaming_chip(target.fluid_count(), plan.mixers, plan.storage_peak.max(1))?,
    };
    let pins = campaign.backend.assign(&chip)?;
    // Recovery passes must fit the already-built chip, whatever storage
    // budget the baseline plan enjoyed.
    let chip_storage = chip.storage_cells().count();
    let recovery_limit = engine_config.storage_limit.map_or(chip_storage, |l| l.min(chip_storage));
    let recovery_engine =
        StreamingEngine::new(engine_config.with_storage_limit(recovery_limit)).with_cache(cache);

    let mut model = FaultModel::new(*fault_config);
    let target_mixture = target.to_mixture();
    let mut queue: VecDeque<_> = plan.passes.into_iter().collect();

    let mut emitted = 0u64;
    let mut salvaged = 0u64;
    let mut injected = 0u64;
    let mut detected = 0u64;
    let mut replans = 0u32;
    let mut restarts = 0u32;
    let mut runs = 0u32;
    let mut total_cycles = 0u64;
    let mut traces = Vec::new();

    while emitted + salvaged < demand {
        let Some(pass) = queue.pop_front() else {
            // Queue drained with the demand unmet: a replan round was
            // denied by the budget, or salvage credit fell short.
            if restarts == 0 {
                restarts += 1;
                replans = 0;
                let r = recovery_engine.plan_recovery(target, demand - (emitted + salvaged), 0)?;
                if let Some(p) = r.plan {
                    queue.extend(p.passes);
                }
                continue;
            }
            return Err(FaultError::RecoveryExhausted {
                replans,
                delivered: emitted + salvaged,
                demand,
            });
        };

        runs += 1;
        let expected = pass.demand.div_ceil(2) * 2;
        let margin = pass.forest.split_error_margin(fault_config.split_tolerance);
        let (pass_emitted, salvage_pool) = match realize_pass(&pass, &chip) {
            Ok(program) => {
                let faults = model.sample(&chip, &program, wear, margin);
                let outcome =
                    Simulator::new(&chip).with_pins(&pins).run_faulty(&program, &faults)?;
                wear.absorb(&outcome.report);
                for rec in &outcome.faults {
                    if let FaultKind::StuckElectrode { cell } = rec.kind {
                        // A stuck electrode poisons its whole pin group:
                        // driving the shared pin would actuate the dead
                        // cell too, so every group mate goes out of
                        // service. Singleton groups under direct
                        // addressing reduce to the classic diagnosis.
                        for &g in pins.group_of(cell) {
                            chip.mark_dead(g);
                        }
                    }
                }
                injected += outcome.report.faults_injected;
                detected += outcome.report.faults_detected;
                total_cycles += u64::from(outcome.report.cycles);
                let contents = droplet_mixtures(&outcome.trace, &chip, target.fluid_count());
                let pool = outcome
                    .survivors
                    .iter()
                    .filter(|d| contents.get(d) == Some(&target_mixture))
                    .count() as u64;
                let e = outcome.report.emitted;
                traces.push(outcome.trace);
                (e, pool)
            }
            // A recovery pass can fail to realize when too many
            // electrodes died under its planned routes; treat it as a
            // fully lost pass and let the replan budget decide.
            Err(EngineError::Chip(_)) | Err(EngineError::StorageExhausted { .. }) => (0, 0),
            Err(e) => return Err(e.into()),
        };

        emitted += pass_emitted;
        let lost = expected.saturating_sub(pass_emitted);
        if lost > 0 && emitted + salvaged < demand {
            if replans >= policy.max_replans {
                // Deny the replan; the drain branch above decides between
                // the restart fallback and giving up.
                queue.clear();
                continue;
            }
            replans += 1;
            let r = recovery_engine.plan_recovery(target, lost, salvage_pool)?;
            salvaged += r.salvaged;
            if let Some(p) = r.plan {
                queue.extend(p.passes);
            }
        }
    }

    let obs = dmf_obs::global();
    if obs.is_enabled() {
        obs.count("recovery.extra_cycles", total_cycles.saturating_sub(baseline_cycles));
    }
    Ok(ResilientOutcome {
        demand,
        emitted,
        salvaged,
        injected,
        detected,
        replans,
        restarts,
        runs,
        baseline_cycles,
        total_cycles,
        dead_cells: chip.dead_cells().collect(),
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    /// A fresh-cache, fresh-wear campaign over the PCR mix at D = 20.
    fn run_pcr(campaign: &Campaign) -> Result<ResilientOutcome, FaultError> {
        run_campaign(&pcr_d4(), 20, campaign, PlanCache::shared(), &mut WearTracker::new())
    }

    #[test]
    fn zero_rate_campaign_matches_baseline() {
        let out = run_pcr(&Campaign::default()).unwrap();
        assert!(out.demand_met());
        assert_eq!(out.emitted, 20);
        assert_eq!(out.salvaged, 0);
        assert_eq!(out.injected, 0);
        assert_eq!(out.replans, 0);
        assert_eq!(out.runs, 1);
        assert_eq!(out.total_cycles, out.baseline_cycles);
        assert_eq!(out.extra_cycles(), 0);
        assert!(out.dead_cells.is_empty());
    }

    #[test]
    fn a_shared_cache_and_tracker_leave_the_outcome_unchanged() {
        let campaign = Campaign {
            faults: FaultConfig::default().with_seed(42).with_fault_rate(0.05),
            policy: RecoveryPolicy::default().with_max_replans(32),
            ..Campaign::default()
        };
        let fresh = run_pcr(&campaign).unwrap();
        let cache = PlanCache::shared();
        run_campaign(&pcr_d4(), 20, &campaign, Arc::clone(&cache), &mut WearTracker::new())
            .unwrap();
        let mut wear = WearTracker::new();
        let out = run_campaign(&pcr_d4(), 20, &campaign, cache, &mut wear).unwrap();
        assert_eq!(out.emitted, fresh.emitted);
        assert_eq!(out.injected, fresh.injected);
        assert_eq!(out.runs, fresh.runs);
        assert_eq!(out.total_cycles, fresh.total_cycles);
        assert_eq!(out.dead_cells, fresh.dead_cells);
        assert!(wear.total() > 0, "the caller's tracker absorbs the campaign's wear");
    }

    #[test]
    fn pinned_campaign_meets_demand_and_retires_pin_groups() {
        let cfg = FaultConfig::default().with_seed(42).with_fault_rate(0.05);
        let campaign = Campaign {
            faults: cfg,
            policy: RecoveryPolicy::default().with_max_replans(32),
            backend: BackendKind::RowColumn,
            chip: Some(streaming_chip(7, 3, 5).unwrap()),
            ..Campaign::default()
        };
        let mut wear = WearTracker::new();
        let out = run_campaign(&pcr_d4(), 20, &campaign, PlanCache::shared(), &mut wear).unwrap();
        assert!(out.demand_met(), "pinned recovery must meet the demand: {out}");
        // Shared pins ghost-fire group mates; that wear is real and
        // lands in the caller's tracker.
        assert!(out.traces.len() as u32 == out.runs);
        if !out.dead_cells.is_empty() {
            // Diagnosed electrodes retire whole groups, so dead cells
            // come in group-sized batches.
            let chip = streaming_chip(7, 3, 5).unwrap();
            let pins = BackendKind::RowColumn.assign(&chip).unwrap();
            for &cell in &out.dead_cells {
                for &g in pins.group_of(cell) {
                    assert!(out.dead_cells.contains(&g), "{cell} dead but group mate {g} alive");
                }
            }
        }
    }

    #[test]
    fn wear_threads_across_campaign_trials() {
        let campaign = Campaign::default();
        let cache = PlanCache::shared();
        let mut wear = WearTracker::new();
        run_campaign(&pcr_d4(), 20, &campaign, Arc::clone(&cache), &mut wear).unwrap();
        let after_one = wear.total();
        run_campaign(&pcr_d4(), 20, &campaign, cache, &mut wear).unwrap();
        assert!(after_one > 0);
        assert_eq!(wear.total(), 2 * after_one, "identical trials double the wear");
    }

    #[test]
    fn seeded_faulty_campaign_still_meets_demand() {
        let campaign = Campaign {
            faults: FaultConfig::default().with_seed(42).with_fault_rate(0.05),
            policy: RecoveryPolicy::default().with_max_replans(32),
            ..Campaign::default()
        };
        let out = run_pcr(&campaign).unwrap();
        assert!(out.demand_met(), "recovery must meet the demand: {out}");
        assert!(out.injected >= out.detected);
    }
}
