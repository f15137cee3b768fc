//! `stream_chip`: one thread, one target at a time, from real-valued
//! composition to verified droplets — the path of `dmfstream simulate`
//! plus `check --deep`.

use crate::gate;
use crate::gen::{stream_targets, StreamTarget, FIXED_TARGETS};
use crate::stats::{elapsed_ns, Layers, Probe};
use crate::workload::{Model, Phase, Workload};
use dmfstream::check::{check_program_flow, check_routes, recount_forest, FlowExpectation};
use dmfstream::chip::presets::streaming_chip;
use dmfstream::chip::ChipSpec;
use dmfstream::engine::{realize_pass, EngineConfig, StreamingEngine};
use dmfstream::ratio::TargetRatio;
use dmfstream::route::{route_concurrent, Grid, RouteRequest};
use dmfstream::sim::{ChipProgram, SimReport, Simulator};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Seeded compositions beside the fixed protocol targets: 3000 targets
/// in all, about two sweeps in a 30 s run. A run's `peak_rss_mb` is set by
/// its largest chip. About one composition in 1200 has a storage peak of
/// 126 cells and needs ~2 MB more to route its dispense wave; at this
/// size 37 of seeds 1–40 contain one, so the peak seldom jumps with the
/// seed. With a third as many, about half the seeds lack one and the
/// peak moves by 30%.
const COMPOSITIONS: usize = 2982;

/// Why one target's chain stopped.
enum Failure {
    /// The paper oracle did not hold: the run fails.
    Fatal(String),
    /// An operation failed or an output failed the gate: counted.
    Op(String),
}

fn op(e: impl std::fmt::Display) -> Failure {
    Failure::Op(e.to_string())
}

/// What one target delivered: its model counts and, per pass, the
/// realized chip program and the simulator's report.
#[derive(Debug, Default)]
struct Outcome {
    model: Model,
    droplets: u64,
    passes: Vec<(ChipProgram, SimReport)>,
}

/// A fixed-size digest of an [`Outcome`]: what later sweeps are checked
/// against, so the benchmark holds no copy of the programs it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    model: Model,
    droplets: u64,
    instructions: usize,
    /// Hash of every chip program and simulator report, in pass order.
    hash: u64,
}

/// Feeds formatted text into a hasher.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

impl Outcome {
    fn digest(&self) -> Digest {
        let mut hasher = DefaultHasher::new();
        for (program, report) in &self.passes {
            // Instructions have no `Hash`; their `Debug` text is
            // deterministic and names every field.
            let _ = write!(HashWriter(&mut hasher), "{program:?}");
            let SimReport {
                transport_actuations,
                dispensed,
                mix_splits,
                emitted,
                discarded,
                storage_peak,
                cycles,
                electrode_actuations,
                ghost_actuations,
                faults_injected,
                faults_detected,
                droplets_lost,
            } = report;
            (transport_actuations, dispensed, mix_splits, emitted, discarded, storage_peak, cycles)
                .hash(&mut hasher);
            (ghost_actuations, faults_injected, faults_detected, droplets_lost).hash(&mut hasher);
            let mut wear: Vec<_> = electrode_actuations.iter().collect();
            wear.sort_unstable();
            wear.hash(&mut hasher);
        }
        Digest {
            model: self.model,
            droplets: self.droplets,
            instructions: self.passes.iter().map(|(program, _)| program.len()).sum(),
            hash: hasher.finish(),
        }
    }
}

struct Prepared {
    target: StreamTarget,
    /// The first sweep's digest; every later sweep must reproduce it
    /// exactly, program for program and report for report.
    reference: Option<Digest>,
}

pub struct StreamChip {
    engine: StreamingEngine,
    targets: Vec<Prepared>,
    /// Simulated electrode actuations of the traced phase.
    actuations: u64,
}

/// One target from composition to verified droplets.
fn chain(
    engine: &StreamingEngine,
    target: &StreamTarget,
    probe: &mut Probe,
) -> Result<Outcome, Failure> {
    let ratio = probe
        .time("ratio_approx", || TargetRatio::approximate(&target.weights, target.accuracy))
        .map_err(op)?;
    let plan = probe.time("engine_plan", || engine.plan(&ratio, target.demand)).map_err(op)?;
    if target.is_paper_oracle() {
        gate::paper_oracle(&plan).map_err(Failure::Fatal)?;
    }
    let report = probe.time("static_check", || plan.static_check());
    gate::clean("static_check", &report).map_err(Failure::Op)?;
    let chip =
        streaming_chip(ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1)).map_err(op)?;
    probe.time("route_dispense", || dispense_wave(&chip)).map_err(Failure::Op)?;
    let mut out = Outcome::default();
    out.model.passes = plan.passes.len() as u64;
    out.passes.reserve(plan.passes.len());
    for pass in &plan.passes {
        let program = probe.time("engine_realize", || realize_pass(pass, &chip)).map_err(op)?;
        let report =
            probe.time("sim_execute", || Simulator::new(&chip).run(&program)).map_err(op)?;
        gate::pass_ledger(pass, &report).map_err(Failure::Op)?;
        let flow = probe.time("check_flow", || {
            // As `check --deep`: the expected ledger is re-derived from
            // the pass's raw forest, not from engine totals.
            let counts = recount_forest(&pass.forest);
            let expect = FlowExpectation {
                dispensed: counts.input_total,
                emitted: 2 * counts.trees as u64,
                discarded: counts.waste,
            };
            check_program_flow(&chip, &program, Some(&expect))
        });
        gate::clean("check_program_flow", &flow).map_err(Failure::Op)?;
        out.model.mix_cycles += u64::from(report.cycles);
        out.model.electrode_actuations += report.transport_actuations;
        out.model.waste_droplets += report.discarded;
        out.model.input_droplets += report.dispensed;
        out.droplets += report.emitted;
        out.passes.push((program, report));
    }
    Ok(out)
}

/// The `check` dispense wave: one droplet per reservoir / storage-cell
/// pair, routed concurrently across the mixer band, then checked.
fn dispense_wave(chip: &ChipSpec) -> Result<(), String> {
    let open: Vec<_> = chip.reservoirs().chain(chip.storage_cells()).map(|m| m.id()).collect();
    let grid = Grid::from_spec(chip, &open);
    let requests: Vec<RouteRequest> = chip
        .reservoirs()
        .zip(chip.storage_cells())
        .map(|(r, s)| RouteRequest { from: r.port(), to: s.port() })
        .collect();
    if requests.is_empty() {
        return Ok(());
    }
    let paths =
        route_concurrent(&grid, &requests).map_err(|e| format!("dispense wave unroutable: {e}"))?;
    gate::clean("check_routes", &check_routes(&grid, &requests, &paths))
}

impl Workload for StreamChip {
    /// One sample per target and sweep: a sweep alone leaves 30 samples
    /// beyond p99.
    const TAIL_PCT: u32 = 99;

    fn setup(seed: u64) -> Result<Self, String> {
        let engine = StreamingEngine::new(EngineConfig::default());
        let targets = stream_targets(seed, COMPOSITIONS);
        // Warm-up: the fixed protocol targets once, paper oracle included.
        for target in &targets[..FIXED_TARGETS] {
            if let Err(Failure::Fatal(e)) = chain(&engine, target, &mut Probe::off()) {
                return Err(e);
            }
        }
        Ok(StreamChip {
            engine,
            targets: targets
                .into_iter()
                .map(|target| Prepared { target, reference: None })
                .collect(),
            actuations: 0,
        })
    }

    fn run(&mut self, budget: Duration, probe: &mut Probe) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut actuations = 0;
        let start = Instant::now();
        // Whole sweeps only, so every target is measured equally often.
        while phase.attempted == 0 || start.elapsed() < budget {
            for prepared in &mut self.targets {
                phase.attempted += 1;
                let t0 = Instant::now();
                let result = chain(&self.engine, &prepared.target, probe);
                let ns = elapsed_ns(t0);
                match result.map(|out| out.digest()) {
                    Ok(digest) if prepared.reference.is_none_or(|r| r == digest) => {
                        phase.latencies.push(ns);
                        phase.plans += 1;
                        phase.droplets += digest.droplets;
                        actuations += digest.model.electrode_actuations;
                        prepared.reference.get_or_insert(digest);
                    }
                    Ok(_) => phase.fail(format!(
                        "{} D={}: chip programs or simulator reports differ from the first sweep",
                        prepared.target.label, prepared.target.demand
                    )),
                    Err(Failure::Op(e)) => phase.fail(format!(
                        "{} D={}: {e}",
                        prepared.target.label, prepared.target.demand
                    )),
                    Err(Failure::Fatal(e)) => return Err(e),
                }
            }
        }
        phase.wall = start.elapsed();
        if probe.is_on() {
            self.actuations = actuations;
        }
        Ok(phase)
    }

    fn model(&self) -> Model {
        let mut total = Model::default();
        for reference in self.targets.iter().filter_map(|p| p.reference.as_ref()) {
            total.add(&reference.model);
        }
        total
    }

    fn extras(&mut self, layers: &Layers, _traced: &Phase) -> BTreeMap<&'static str, f64> {
        let sim_ns = layers.busy_ns("sim_execute") as f64;
        let instructions: usize =
            self.targets.iter().filter_map(|p| p.reference).map(|r| r.instructions).sum();
        BTreeMap::from([
            ("engine_realize.instructions", instructions as f64),
            ("sim_execute.ns_per_actuation", sim_ns / self.actuations.max(1) as f64),
        ])
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfstream::chip::Coord;
    use dmfstream::sim::Instruction;

    fn outcome(program: &ChipProgram, report: &SimReport) -> Outcome {
        Outcome {
            model: Model::default(),
            droplets: report.emitted,
            passes: vec![(program.clone(), report.clone())],
        }
    }

    #[test]
    fn the_digest_sees_a_changed_program_or_report() {
        let mut program = ChipProgram::new();
        program.push(Instruction::CycleMarker { cycle: 1 });
        let report = SimReport { emitted: 2, ..SimReport::default() };
        let reference = outcome(&program, &report).digest();
        assert_eq!(outcome(&program, &report).digest(), reference);
        assert_eq!(reference.instructions, 1);

        let mut longer = program.clone();
        longer.push(Instruction::CycleMarker { cycle: 2 });
        assert_ne!(outcome(&longer, &report).digest(), reference);
        let mut worn = report.clone();
        worn.electrode_actuations.insert(Coord { x: 1, y: 1 }, 1);
        assert_ne!(outcome(&program, &worn).digest(), reference);
        let leaky = SimReport { droplets_lost: 1, ..report };
        assert_ne!(outcome(&program, &leaky).digest(), reference);
    }
}
