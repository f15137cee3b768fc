//! Cycle-level digital-microfluidic biochip simulator.
//!
//! Executes a [`ChipProgram`] — the fully placed and routed realisation of a
//! mixing-forest schedule — against a [`dmf_chip::ChipSpec`], enforcing the
//! physical rules of an electrowetting chip and accounting for every
//! electrode actuation:
//!
//! * droplets exist only where they were dispensed or produced, and move
//!   one adjacent electrode per hop along explicitly routed paths;
//! * a moving droplet never enters the 8-neighborhood of a parked droplet
//!   (transport phases are serialized, see `DESIGN.md` §5 — the paper's
//!   `Tc` is measured in mix-split cycles, while transport is accounted in
//!   electrode actuations exactly as Fig. 5 does);
//! * storage cells hold at most one droplet; mixers mix exactly two;
//! * every hop onto an electrode actuates it once — the reliability metric
//!   the paper uses to compare its engine (386 actuations) against
//!   repeated mixture preparation (980 actuations).
//!
//! The simulator is deliberately strict: any rule violation aborts with a
//! descriptive [`SimError`] rather than producing silently wrong statistics.
//! [`Simulator::run_traced`] additionally records a full event log
//! ([`Trace`]) — droplet life cycles, storage hops and mix events with
//! cycle attribution — for debugging compiled programs.
//!
//! There is one executor. [`Simulator::run`], [`Simulator::run_traced`]
//! and [`Simulator::run_faulty`] drive the same instruction dispatcher,
//! whose fault hooks (failed dispenses, stuck electrodes, split errors,
//! sensors) read an [`InjectedFaults`] plan; the first two pass an empty
//! plan, so a plain run is simply a fault run with nothing to inject.
//!
//! # Examples
//!
//! ```
//! use dmf_chip::presets::pcr_chip;
//! use dmf_sim::{ChipProgram, DropletId, Instruction, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chip = pcr_chip();
//! let r1 = chip.reservoir_for(0).expect("preset has R1").id();
//! let w1 = chip.waste_reservoirs().next().expect("preset has W1").id();
//! let d = DropletId(0);
//! let mut program = ChipProgram::new();
//! program.push(Instruction::Dispense { reservoir: r1, droplet: d });
//! program.push(Instruction::TransportTo { droplet: d, module: w1 });
//! program.push(Instruction::Discard { droplet: d, waste: w1 });
//! let report = Simulator::new(&chip).run(&program)?;
//! assert_eq!(report.discarded, 1);
//! assert!(report.transport_actuations > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
mod error;
mod fault;
mod program;
mod report;
mod simulator;
mod trace;

pub use error::SimError;
pub use fault::{FaultKind, FaultRecord, FaultyOutcome, InjectedFaults};
pub use program::{ChipProgram, DropletId, Instruction};
pub use report::SimReport;
pub use simulator::Simulator;
pub use trace::{TimedEvent, Trace, TraceEvent};
