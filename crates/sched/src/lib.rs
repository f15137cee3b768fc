//! Schedulers for mixing trees and mixing forests on DMF biochips.
//!
//! Maps every mix-split vertex of a [`dmf_mixgraph::MixGraph`] to a
//! `(time-cycle, mixer)` pair subject to precedence (operands first) and
//! mixer capacity (`Mc` concurrent mix-splits), and accounts for the on-chip
//! storage the schedule needs. Implements the three scheduling procedures of
//! the DAC 2014 paper:
//!
//! * [`oms_schedule`] — optimal scheduling of a *base mixing tree*. The
//!   paper uses OMS (Luo–Akella, IEEE TASE 2011); for unit-time tasks with
//!   in-forest precedence on identical machines, Hu's highest-level-first
//!   rule is makespan-optimal, so this is implemented as HLF list scheduling
//!   (see `DESIGN.md` §5 for the substitution argument). [`mixer_lower_bound`]
//!   computes `Mlb`, the fewest mixers achieving the critical-path makespan.
//! * [`mms_schedule`] — `M_Mixers_Schedule` (Algorithm 1): level-synchronous
//!   FIFO scheduling of a mixing forest, latency-oriented.
//! * [`srs_schedule`] — `Storage_Reduced_Scheduling` (Algorithm 2):
//!   two-queue priority scheduling that defers reservoir-fed mixes
//!   (Type-C) in favour of mixes consuming stored droplets (Type-A/B),
//!   trading a slightly longer completion time for fewer storage units.
//!
//! Storage accounting generalises `Counting_Storage_Units` (Algorithm 3) to
//! forest DAGs: every produced droplet occupies one storage unit from the
//! cycle after it is produced until the cycle before it is consumed; waste
//! droplets leave for the waste reservoir and targets are emitted, costing
//! nothing.
//!
//! Beyond the paper's two schedulers, the crate provides the alternatives
//! its related-work section points at, for ablation studies:
//!
//! * [`path_schedule`] — storage-lean depth-first path scheduling
//!   (Grissom–Brisk, DAC 2012);
//! * [`ga_schedule`] — genetic-algorithm search over priority permutations
//!   (after Su–Chakrabarty, ACM JETC 2008), tunable between latency and
//!   storage via [`GaConfig::storage_weight`];
//! * [`optimal_makespan`] — an exact subset-DP optimum for small graphs,
//!   used to certify the heuristics' gaps.
//!
//! # Examples
//!
//! ```
//! use dmf_forest::{build_forest, ReusePolicy};
//! use dmf_mixalgo::{MinMix, MixingAlgorithm};
//! use dmf_ratio::TargetRatio;
//! use dmf_sched::srs_schedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let template = MinMix.build_template(&target)?;
//! let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees)?;
//! let schedule = srs_schedule(&forest, 3)?;
//! schedule.validate(&forest)?;
//! println!("Tc = {}, q = {}", schedule.makespan(), schedule.storage(&forest).peak);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod error;
mod ga;
mod gantt;
mod hu;
mod mms;
mod optimal;
mod path;
mod schedule;
mod srs;
mod storage;
mod svg;

pub use baseline::{repeated_baseline, RepeatedBaseline};
pub use error::SchedError;
pub use ga::{ga_schedule, GaConfig};
pub use hu::{critical_path, mixer_lower_bound, oms_schedule};
pub use mms::mms_schedule;
pub use optimal::{optimal_makespan, OPTIMAL_LIMIT};
pub use path::path_schedule;
pub use schedule::{MixerId, Schedule};
pub use srs::srs_schedule;
pub use storage::StorageProfile;

use dmf_mixgraph::MixGraph;
use dmf_registry::{Entry, Id, Registry};

/// A forest scheduler as a trait object: maps a mixing forest onto a mixer
/// budget.
///
/// [`MmsScheduler`] and [`SrsScheduler`] wrap the paper's two procedures;
/// new schedulers implement this trait and join [`SCHEDULERS`].
pub trait Scheduler {
    /// Short identifier used in reports ("MMS", "SRS", …).
    fn name(&self) -> &'static str;

    /// Schedules `graph` onto `mixers` concurrent mixers.
    ///
    /// # Errors
    ///
    /// Implementation-specific; the provided schedulers fail on graphs
    /// with cyclic precedence or a zero mixer budget.
    fn schedule(&self, graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError>;
}

/// [`mms_schedule`] (Algorithm 1) as a [`Scheduler`] object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmsScheduler;

impl Scheduler for MmsScheduler {
    fn name(&self) -> &'static str {
        "MMS"
    }

    fn schedule(&self, graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
        mms_schedule(graph, mixers)
    }
}

/// [`srs_schedule`] (Algorithm 2) as a [`Scheduler`] object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrsScheduler;

impl Scheduler for SrsScheduler {
    fn name(&self) -> &'static str {
        "SRS"
    }

    fn schedule(&self, graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
        srs_schedule(graph, mixers)
    }
}

/// A registered scheduler (see [`SCHEDULERS`]).
pub type SchedulerId = Id<dyn Scheduler + Send + Sync>;

/// One row of [`SCHEDULERS`].
pub type SchedulerEntry = Entry<dyn Scheduler + Send + Sync>;

/// MMS (`"mms"`) — latency-oriented.
pub const MMS: SchedulerId = Id::new("mms", "MMS", &MmsScheduler);
/// SRS (`"srs"`) — storage-oriented.
pub const SRS: SchedulerId = Id::new("srs", "SRS", &SrsScheduler);

/// The process-wide scheduler registry, seeded with MMS and SRS in the
/// paper's order.
pub static SCHEDULERS: Registry<dyn Scheduler + Send + Sync> = Registry::new(
    "scheduler",
    &[
        Entry {
            id: MMS,
            description: "M_Mixers_Schedule (Algorithm 1): level-synchronous FIFO \
                          forest scheduling, latency-oriented",
            aliases: &[],
        },
        Entry {
            id: SRS,
            description: "Storage_Reduced_Scheduling (Algorithm 2): defers \
                          reservoir-fed mixes to cut on-chip storage",
            aliases: &[],
        },
    ],
);

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    #[test]
    fn both_paper_schedulers_resolve_in_order() {
        assert_eq!(SCHEDULERS.resolve("mms").unwrap(), MMS);
        assert_eq!(SCHEDULERS.resolve("SRS").unwrap(), SRS);
        for entry in SCHEDULERS.seeded() {
            assert_eq!(entry.id.label(), entry.id.name());
        }
        let err = SCHEDULERS.resolve("hlf").unwrap_err();
        assert_eq!(err.to_string(), "unknown scheduler \"hlf\" (registered: mms, srs)");
    }

    #[test]
    fn id_dispatch_equals_direct_function_calls() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let graph = MinMix.build_graph(&target).unwrap();
        let direct = srs_schedule(&graph, 3).unwrap();
        let via_id = SRS.schedule(&graph, 3).unwrap();
        assert_eq!(direct.makespan(), via_id.makespan());
        assert_eq!(direct.storage(&graph).peak, via_id.storage(&graph).peak);
    }
}
