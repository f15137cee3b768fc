//! Fault injection and error recovery for the droplet-streaming engine.
//!
//! Digital microfluidic chips fail in the field: electrodes degrade with
//! actuation and get stuck, reservoirs misfire, splits come out uneven.
//! This crate closes the loop the DAC 2014 streaming engine leaves open —
//! it *injects* such faults deterministically, lets the simulator's
//! sensor checkpoints *detect* them, and drives the engine's
//! demand-level *recovery* until the demanded target droplets are
//! actually delivered.
//!
//! The pieces:
//!
//! * [`FaultConfig`] — the seeded fault model's knobs (master rate,
//!   per-mechanism weights, wear degradation, sensor period);
//! * [`WearTracker`] — cumulative per-electrode actuation counts,
//!   feeding the degradation term;
//! * [`FaultModel`] — samples a concrete [`dmf_sim::InjectedFaults`]
//!   plan for one run (same seed, same history → same plan);
//! * [`lineage`] — reconstructs droplet contents from a trace, the
//!   ground truth for salvage crediting and CF verification;
//! * [`run_campaign`] — the campaign loop: realize, run under faults,
//!   diagnose dead electrodes (rerouted around next run), salvage,
//!   re-plan the shortfall, until the demand is met; a [`Campaign`]
//!   carries its planning, fault, recovery and pin-backend settings.
//!
//! # Examples
//!
//! ```
//! use dmf_engine::{PlanCache, RecoveryPolicy};
//! use dmf_fault::{run_campaign, Campaign, FaultConfig, WearTracker};
//! use dmf_ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let campaign = Campaign {
//!     faults: FaultConfig::default().with_seed(42).with_fault_rate(0.05),
//!     policy: RecoveryPolicy::default().with_max_replans(32),
//!     ..Campaign::default()
//! };
//! let out = run_campaign(&target, 20, &campaign, PlanCache::shared(), &mut WearTracker::new())?;
//! assert!(out.demand_met());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod lineage;
mod model;
mod runner;
mod wear;

pub use config::FaultConfig;
pub use model::FaultModel;
pub use runner::{run_campaign, Campaign, FaultError, ResilientOutcome};
pub use wear::WearTracker;
