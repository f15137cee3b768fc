//! What every workload measures and reports.

use crate::stats::{Layers, Probe};
use std::collections::BTreeMap;
use std::time::Duration;

/// Failure reasons a phase keeps for stderr.
const MAX_REASONS: usize = 5;

/// One closed-loop phase of a workload: how long it ran, the latency of
/// each unit of work, and what it completed or failed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the phase.
    pub wall: Duration,
    /// Host nanoseconds per unit of work, one sample per unit.
    pub latencies: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or failed the gate.
    pub failed: u64,
    /// `StreamPlan`s completed.
    pub plans: u64,
    /// Target droplets delivered.
    pub droplets: u64,
    /// The first few failure reasons, for stderr.
    pub errors: Vec<String>,
}

impl Phase {
    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.errors.len() < MAX_REASONS {
            self.errors.push(reason);
        }
    }

    /// Folds `other` into this phase (its wall time aside).
    pub fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.plans += other.plans;
        self.droplets += other.droplets;
        let room = MAX_REASONS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// Exact counts of the modelled chip, summed over one sweep of the
/// workload's inputs. They repeat bit-for-bit for a given seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Model {
    /// Σ Tc (mix cycles).
    pub mix_cycles: u64,
    /// Σ transport electrode actuations (simulated workloads only).
    pub electrode_actuations: u64,
    /// Σ W (waste droplets).
    pub waste_droplets: u64,
    /// Σ I (input droplets).
    pub input_droplets: u64,
    /// Σ pass count.
    pub passes: u64,
}

impl Model {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Model) {
        self.mix_cycles += other.mix_cycles;
        self.electrode_actuations += other.electrode_actuations;
        self.waste_droplets += other.waste_droplets;
        self.input_droplets += other.input_droplets;
        self.passes += other.passes;
    }
}

/// A workload: seeded set-up, closed-loop phases, exact model counts.
pub trait Workload: Sized {
    /// The percentile `latency_tail_ms` reports: the highest of p99, p95
    /// and p90 with at least [`crate::stats::TAIL_MIN_BEYOND`] samples
    /// beyond it in a run of `run_seconds` (`BENCHMARK.json`). It is
    /// fixed, so a slower run with fewer samples is not read at a lower
    /// percentile.
    const TAIL_PCT: u32;

    /// Builds the inputs (and any server) for `seed`, warmed up.
    /// An `Err` is fatal.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs units of work until `budget` has elapsed, always finishing at
    /// least one full sweep of the inputs. An `Err` is fatal (a paper
    /// oracle mismatch); ordinary failures are counted in the phase.
    fn run(&mut self, budget: Duration, probe: &mut Probe) -> Result<Phase, String>;

    /// The exact model counts of one sweep.
    fn model(&self) -> Model;

    /// Workload-specific per-layer metrics of a traced phase, by name;
    /// names must appear in [`crate::PER_LAYER_EXTRAS`].
    fn extras(&mut self, layers: &Layers, traced: &Phase) -> BTreeMap<&'static str, f64>;

    /// Stops everything `setup` started and waits for it.
    fn teardown(self) -> Result<(), String>;
}
