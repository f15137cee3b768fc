use crate::{
    ChipProgram, DropletId, FaultKind, FaultRecord, FaultyOutcome, InjectedFaults, Instruction,
    SimError, SimReport, TimedEvent, Trace, TraceEvent,
};
use dmf_chip::{ChipSpec, Coord, ModuleId, ModuleKind};
use dmf_pins::PinAssignment;
use dmf_route::{shortest_path, Grid};
use std::collections::{HashMap, HashSet};

/// Executes [`ChipProgram`]s against a chip, enforcing physical rules and
/// counting electrode actuations.
///
/// See the crate documentation for the execution model. A `Simulator`
/// borrows the chip and can run any number of programs; each run starts
/// from an empty chip.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    chip: &'a ChipSpec,
    /// Whether a program may finish with droplets still on chip.
    allow_leftovers: bool,
    /// Pin-constrained backend to execute under, if any. `None` (or a
    /// direct assignment) means every electrode is individually
    /// addressable and no ghost actuations occur.
    pins: Option<&'a PinAssignment>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `chip`.
    pub fn new(chip: &'a ChipSpec) -> Self {
        Simulator { chip, allow_leftovers: false, pins: None }
    }

    /// Permits programs that leave droplets on the chip (useful for
    /// inspecting partial runs).
    pub fn allow_leftovers(mut self) -> Self {
        self.allow_leftovers = true;
        self
    }

    /// Executes under a pin-constrained backend: every intentional
    /// actuation also fires its ghost electrodes (counted into the wear
    /// heatmap and [`SimReport::ghost_actuations`]), a ghost firing
    /// inside a parked droplet's exclusion zone aborts with
    /// [`SimError::PinConflict`], and ad-hoc `TransportTo` routing steers
    /// around cells whose ghosts would endanger parked droplets.
    ///
    /// A direct (one pin per electrode) assignment is dropped here so
    /// runs stay byte-identical to the unconstrained simulator.
    pub fn with_pins(mut self, pins: &'a PinAssignment) -> Self {
        self.pins = Some(pins).filter(|p| !p.is_direct());
        self
    }

    /// Runs a program from an empty chip.
    ///
    /// # Errors
    ///
    /// Returns the first physical-rule violation as a [`SimError`]; the
    /// statistics gathered up to that point are discarded.
    pub fn run(&self, program: &ChipProgram) -> Result<SimReport, SimError> {
        Ok(self.execute_program(program, &InjectedFaults::default(), Mode::Plain)?.report)
    }

    /// Runs a program and records the full event log alongside the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_traced(&self, program: &ChipProgram) -> Result<(SimReport, Trace), SimError> {
        let no_faults = InjectedFaults::default();
        let state = self.execute_program(program, &no_faults, Mode::Traced)?;
        Ok((state.report, state.trace))
    }

    /// Runs a program under a fault plan, always traced and tolerant of
    /// leftover droplets (survivors are the point).
    ///
    /// With an empty [`InjectedFaults`] the run is byte-identical to
    /// [`Simulator::run_traced`]: same trace, same report (the fault
    /// counters stay zero). With faults, lost droplets cascade — every
    /// instruction referencing a lost droplet is skipped, a mix with a
    /// lost operand is skipped and quarantines the surviving operand —
    /// and sensor checkpoints (every [`InjectedFaults::sensor_period`]
    /// cycles, plus one at the end of the run) detect missing droplets
    /// and reject erroneous ones to waste, so the program completes with
    /// a truthful account of what survived. An unroutable `TransportTo`
    /// strands its droplet instead of failing with [`SimError::NoRoute`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] only for violations the fault model cannot
    /// explain (malformed programs); fluid loss is not an error here.
    pub fn run_faulty(
        &self,
        program: &ChipProgram,
        faults: &InjectedFaults,
    ) -> Result<FaultyOutcome, SimError> {
        let state = self.execute_program(program, faults, Mode::Faulty)?;
        let mut survivors: Vec<DropletId> = state.droplets.keys().copied().collect();
        survivors.extend(state.fault.quarantined.iter().copied());
        survivors.sort_unstable();
        Ok(FaultyOutcome {
            report: state.report,
            trace: state.trace,
            faults: state.fault.records,
            survivors,
        })
    }

    /// The one run loop behind [`Simulator::run`], [`Simulator::run_traced`]
    /// and [`Simulator::run_faulty`]: executes every instruction from an
    /// empty chip, then ends the run the way `mode` asks.
    fn execute_program<'s>(
        &'s self,
        program: &ChipProgram,
        faults: &'s InjectedFaults,
        mode: Mode,
    ) -> Result<SimState<'s>, SimError> {
        let _span = dmf_obs::span!("sim_execute");
        let mut state = SimState::new(self.chip, self.pins, faults, mode);
        for (step, instruction) in program.instructions().iter().enumerate() {
            state.step = step;
            state.execute(instruction)?;
        }
        if mode == Mode::Faulty {
            // End-of-run checkpoint: everything still latent becomes
            // detected and no erroneous droplet survives.
            state.sensor_checkpoint()?;
        } else if !self.allow_leftovers && !state.droplets.is_empty() {
            return Err(SimError::LeftoverDroplets { count: state.droplets.len() });
        }
        crate::bridge::record_report(dmf_obs::global(), &state.report);
        Ok(state)
    }
}

/// What a run records and tolerates; dispatch, fault hooks and
/// accounting are the same code path in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Report only.
    Plain,
    /// Report and trace.
    Traced,
    /// Traced under a fault plan: an unroutable `TransportTo` strands its
    /// droplet, leftovers are allowed and a final sensor checkpoint runs.
    Faulty,
}

/// Fault bookkeeping: the cascade state (which droplets are lost or
/// carrying a volume error, and which record each traces back to) and
/// the ordinals the plan is keyed by. Stays empty under an empty plan.
#[derive(Default)]
struct FaultCtx {
    /// Lost droplet → index of the originating record in `records`.
    lost: HashMap<DropletId, usize>,
    /// Erroneous droplet → index of the originating record.
    tainted: HashMap<DropletId, usize>,
    records: Vec<FaultRecord>,
    /// Fault-free droplets pulled aside by the controller when their mix
    /// partner was lost (kept off the chip so they cannot contaminate
    /// later rendezvous at the same mixer port).
    quarantined: Vec<DropletId>,
    dispense_seq: u64,
    mix_seq: u64,
}

struct SimState<'a> {
    chip: &'a ChipSpec,
    pins: Option<&'a PinAssignment>,
    /// The fault plan being injected (empty outside fault mode).
    faults: &'a InjectedFaults,
    mode: Mode,
    /// Row-major per-cell table: the module whose footprint covers the
    /// cell and whether that module is a mixer.
    footprints: Vec<Option<(ModuleId, bool)>>,
    /// Routing grid with the chip's diagnosed-dead electrodes blocked.
    grid: Grid,
    droplets: HashMap<DropletId, Coord>,
    storage: HashMap<ModuleId, DropletId>,
    report: SimReport,
    trace: Trace,
    step: usize,
    fault: FaultCtx,
}

impl<'a> SimState<'a> {
    fn new(
        chip: &'a ChipSpec,
        pins: Option<&'a PinAssignment>,
        faults: &'a InjectedFaults,
        mode: Mode,
    ) -> Self {
        let width = chip.width();
        let mut footprints = vec![None; (width * chip.height()) as usize];
        for m in chip.modules() {
            let r = m.rect();
            for y in r.y..r.y + r.h {
                for x in r.x..r.x + r.w {
                    footprints[(y * width + x) as usize] = Some((m.id(), m.is_mixer()));
                }
            }
        }
        let mut grid = Grid::new(width, chip.height());
        for cell in chip.dead_cells() {
            grid.block(cell);
        }
        SimState {
            chip,
            pins,
            faults,
            mode,
            footprints,
            grid,
            droplets: HashMap::new(),
            storage: HashMap::new(),
            report: SimReport::default(),
            trace: Trace::default(),
            step: 0,
            fault: FaultCtx::default(),
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if self.mode != Mode::Plain {
            let (step, cycle) = (self.step, self.report.cycles);
            self.trace.events.push(TimedEvent { step, cycle, event });
        }
    }

    /// The instruction dispatcher. Each arm carries its fault hook
    /// inline; under an empty fault plan every hook is inert, so a plain
    /// run and a zero-fault run take the same path.
    fn execute(&mut self, instruction: &Instruction) -> Result<(), SimError> {
        match instruction {
            // Cascaded loss: an instruction naming a lost droplet is skipped.
            Instruction::Transport { droplet, .. }
            | Instruction::TransportTo { droplet, .. }
            | Instruction::Store { droplet, .. }
            | Instruction::Fetch { droplet, .. }
            | Instruction::Discard { droplet, .. }
            | Instruction::Emit { droplet, .. }
                if self.fault.lost.contains_key(droplet) =>
            {
                Ok(())
            }
            Instruction::Dispense { reservoir, droplet } => {
                let ordinal = self.fault.dispense_seq;
                self.fault.dispense_seq += 1;
                if self.faults.failed_dispenses.contains(&ordinal) {
                    self.lose(FaultKind::DispenseFailed { reservoir: *reservoir }, *droplet);
                    return Ok(());
                }
                let module = self.expect_kind(*reservoir, "a fluid reservoir", |k| {
                    matches!(k, ModuleKind::Reservoir { .. })
                })?;
                if self.droplets.contains_key(droplet) {
                    return Err(SimError::DuplicateDroplet { droplet: *droplet });
                }
                let port = module.port();
                if let Some((parked, at)) = self.droplets.iter().find(|(_, &pos)| pos.touches(port))
                {
                    return Err(SimError::FluidicViolation {
                        moving: *droplet,
                        parked: *parked,
                        at: *at,
                    });
                }
                self.check_pin_hazard(*droplet, port)?;
                self.droplets.insert(*droplet, port);
                self.report.dispensed += 1;
                *self.report.electrode_actuations.entry(port).or_insert(0) += 1;
                self.ghost_actuate(port);
                self.record(TraceEvent::Dispensed {
                    droplet: *droplet,
                    reservoir: *reservoir,
                    at: port,
                });
                Ok(())
            }
            Instruction::Transport { droplet, path } => self.transport(*droplet, path),
            Instruction::TransportTo { droplet, module } => {
                let target = self.expect_kind(*module, "present", |_| true)?;
                let from = self.position(*droplet)?;
                if from == target.port() {
                    return Ok(());
                }
                match self.route(from, target.port(), *droplet) {
                    Some(path) => self.transport(*droplet, &path),
                    // Boxed in (dead electrodes closed every corridor): the
                    // fault-mode controller abandons the droplet rather
                    // than aborting the whole run.
                    None if self.mode == Mode::Faulty => {
                        self.droplets.remove(droplet);
                        self.lose(FaultKind::Stranded { at: from }, *droplet);
                        Ok(())
                    }
                    None => Err(SimError::NoRoute { droplet: *droplet, module: *module }),
                }
            }
            Instruction::MixSplit { mixer, a, b, out_a, out_b } => {
                let ordinal = self.fault.mix_seq;
                self.fault.mix_seq += 1;
                let lost = |d: &DropletId| self.fault.lost.get(d).copied();
                if let Some(idx) = lost(a).or_else(|| lost(b)) {
                    // The mix cannot fire. Quarantine a surviving operand so
                    // it cannot contaminate later rendezvous at this port,
                    // and propagate the loss to both outputs.
                    for operand in [*a, *b] {
                        if !self.fault.lost.contains_key(&operand)
                            && self.droplets.remove(&operand).is_some()
                        {
                            self.fault.quarantined.push(operand);
                        }
                    }
                    self.fault.lost.insert(*out_a, idx);
                    self.fault.lost.insert(*out_b, idx);
                    return Ok(());
                }
                let module =
                    self.expect_kind(*mixer, "a mixer", |k| matches!(k, ModuleKind::Mixer))?;
                let port = module.port();
                self.expect_at(*a, port)?;
                self.expect_at(*b, port)?;
                // A mix merges two distinct droplets into two distinct halves.
                for (x, y) in [(a, b), (out_a, out_b)] {
                    if x == y {
                        return Err(SimError::DuplicateDroplet { droplet: *x });
                    }
                }
                for out in [out_a, out_b] {
                    if self.droplets.contains_key(out) && out != a && out != b {
                        return Err(SimError::DuplicateDroplet { droplet: *out });
                    }
                }
                self.droplets.remove(a);
                self.droplets.remove(b);
                self.droplets.insert(*out_a, port);
                self.droplets.insert(*out_b, port);
                self.report.mix_splits += 1;
                self.record(TraceEvent::Mixed {
                    mixer: *mixer,
                    inputs: [*a, *b],
                    outputs: [*out_a, *out_b],
                });
                // Split-error taint: injected at a bad split ordinal,
                // inherited from either operand otherwise.
                let tainted = |d: &DropletId| self.fault.tainted.get(d).copied();
                let inherited = tainted(a).or_else(|| tainted(b));
                let idx = if self.faults.bad_splits.contains(&ordinal) {
                    Some(self.inject(FaultKind::SplitError { mixer: *mixer }, *out_a))
                } else {
                    inherited
                };
                if let Some(idx) = idx {
                    self.fault.tainted.insert(*out_a, idx);
                    self.fault.tainted.insert(*out_b, idx);
                }
                Ok(())
            }
            Instruction::Store { droplet, cell } => {
                let module = self
                    .expect_kind(*cell, "a storage cell", |k| matches!(k, ModuleKind::Storage))?;
                self.expect_at(*droplet, module.port())?;
                if self.storage.contains_key(cell) {
                    return Err(SimError::StorageBusy { cell: *cell });
                }
                self.storage.insert(*cell, *droplet);
                self.report.storage_peak = self.report.storage_peak.max(self.storage.len());
                self.record(TraceEvent::Stored { droplet: *droplet, cell: *cell });
                Ok(())
            }
            Instruction::Fetch { droplet, cell } => match self.storage.get(cell) {
                Some(d) if d == droplet => {
                    self.storage.remove(cell);
                    self.record(TraceEvent::Fetched { droplet: *droplet, cell: *cell });
                    Ok(())
                }
                _ => Err(SimError::StorageBusy { cell: *cell }),
            },
            Instruction::Discard { droplet, waste } => {
                let module = self
                    .expect_kind(*waste, "a waste reservoir", |k| matches!(k, ModuleKind::Waste))?;
                self.expect_at(*droplet, module.port())?;
                self.droplets.remove(droplet);
                self.report.discarded += 1;
                self.record(TraceEvent::Discarded { droplet: *droplet });
                Ok(())
            }
            Instruction::Emit { droplet, output } => {
                if let Some(&idx) = self.fault.tainted.get(droplet) {
                    // Output-port sensor: the droplet's CF is outside the
                    // tolerated margin — reject it to waste, never emit.
                    return self.reject(*droplet, idx);
                }
                let module = self
                    .expect_kind(*output, "an output port", |k| matches!(k, ModuleKind::Output))?;
                self.expect_at(*droplet, module.port())?;
                self.droplets.remove(droplet);
                self.report.emitted += 1;
                self.record(TraceEvent::Emitted { droplet: *droplet });
                Ok(())
            }
            Instruction::CycleMarker { cycle } => {
                self.report.cycles = self.report.cycles.max(*cycle);
                let period = self.faults.sensor_period;
                if period > 0 && cycle % period == 0 {
                    self.sensor_checkpoint()?;
                }
                Ok(())
            }
        }
    }

    /// Where `droplet` sits, for an instruction that acts on it. A stored
    /// droplet leaves its cell only through `Fetch`, so naming it anywhere
    /// else is a conflict on the cell that holds it.
    fn position(&self, droplet: DropletId) -> Result<Coord, SimError> {
        if let Some((&cell, _)) = self.storage.iter().find(|(_, &d)| d == droplet) {
            return Err(SimError::StorageBusy { cell });
        }
        self.droplets.get(&droplet).copied().ok_or(SimError::UnknownDroplet { droplet })
    }

    fn expect_at(&self, droplet: DropletId, expected: Coord) -> Result<(), SimError> {
        let actual = self.position(droplet)?;
        if actual != expected {
            return Err(SimError::Misplaced { droplet, expected, actual });
        }
        Ok(())
    }

    fn expect_kind(
        &self,
        module: ModuleId,
        expected: &'static str,
        pred: impl Fn(ModuleKind) -> bool,
    ) -> Result<&'a dmf_chip::Module, SimError> {
        let m = self
            .chip
            .modules()
            .get(module.0)
            .ok_or(SimError::WrongModuleKind { module, expected })?;
        if !pred(m.kind()) {
            return Err(SimError::WrongModuleKind { module, expected });
        }
        Ok(m)
    }

    /// The module covering `c` and whether it is a mixer; `None` on open
    /// cells and off the chip.
    fn module_at(&self, c: Coord) -> Option<(ModuleId, bool)> {
        if !self.chip.in_bounds(c) {
            return None;
        }
        self.footprints[(c.y * self.chip.width() + c.x) as usize]
    }

    fn in_module(&self, c: Coord) -> bool {
        self.module_at(c).is_some()
    }

    fn in_mixer(&self, c: Coord) -> bool {
        matches!(self.module_at(c), Some((_, true)))
    }

    /// Every droplet on chip other than `moving`, with its position.
    fn parked(&self, moving: DropletId) -> impl Iterator<Item = (DropletId, Coord)> + '_ {
        self.droplets.iter().filter(move |(&id, _)| id != moving).map(|(&id, &at)| (id, at))
    }

    /// Pin-safety gate for an intentional actuation of `actuated` by
    /// `moving`: under a shared-pin backend a ghost firing inside a
    /// parked droplet's exclusion zone could drag or split it. Droplets
    /// inside module footprints are shielded by the module geometry,
    /// mirroring the fluidic rule.
    fn check_pin_hazard(&self, moving: DropletId, actuated: Coord) -> Result<(), SimError> {
        let Some(pins) = self.pins else {
            return Ok(());
        };
        for (other, at) in self.parked(moving) {
            if !self.in_module(at) && pins.co_activation_conflict(actuated, at) {
                return Err(SimError::PinConflict { moving, parked: other, actuated, at });
            }
        }
        Ok(())
    }

    /// Accounts the ghost side of an intentional actuation: every other
    /// member of the driven pin's group fires too and wears its electrode.
    fn ghost_actuate(&mut self, actuated: Coord) {
        let Some(pins) = self.pins else {
            return;
        };
        for g in pins.ghosts(actuated) {
            self.report.ghost_actuations += 1;
            *self.report.electrode_actuations.entry(g).or_insert(0) += 1;
        }
    }

    /// Moves `droplet` along `path`, one actuation per hop. A latent dead
    /// electrode of the fault plan on the path strands the droplet: it
    /// moves up to the dead cell, sticks, and is lost.
    fn transport(&mut self, droplet: DropletId, path: &[Coord]) -> Result<(), SimError> {
        let dead = path.iter().skip(1).position(|c| self.faults.dead_cells.contains(c));
        let path = dead.map_or(path, |i| &path[..=i + 1]);
        let from = self.position(droplet)?;
        let Some((&first, rest)) = path.split_first() else {
            return Err(SimError::BadPath { droplet, reason: "empty path".into() });
        };
        if first != from {
            return Err(SimError::BadPath {
                droplet,
                reason: format!("path starts at {first}, droplet is at {from}"),
            });
        }
        let mut pos = from;
        for &next in rest {
            if !self.chip.in_bounds(next) {
                return Err(SimError::BadPath { droplet, reason: format!("{next} off grid") });
            }
            if pos.manhattan(next) > 1 {
                return Err(SimError::BadPath {
                    droplet,
                    reason: format!("non-adjacent hop {pos} -> {next}"),
                });
            }
            for (other, at) in self.parked(droplet) {
                if !next.touches(at) {
                    continue;
                }
                // Droplets shielded inside a module footprint only conflict
                // when we land on their very cell; meeting inside a mixer is
                // the intended merge.
                let shielded = self.in_module(at) && at != next;
                let same_mixer = self.in_mixer(at) && self.module_at(at) == self.module_at(next);
                if !shielded && !same_mixer {
                    return Err(SimError::FluidicViolation { moving: droplet, parked: other, at });
                }
            }
            if pos != next {
                self.check_pin_hazard(droplet, next)?;
                self.report.transport_actuations += 1;
                *self.report.electrode_actuations.entry(next).or_insert(0) += 1;
                self.ghost_actuate(next);
            }
            pos = next;
        }
        let hops = path.windows(2).filter(|w| w[0] != w[1]).count() as u32;
        self.droplets.insert(droplet, pos);
        self.record(TraceEvent::Moved { droplet, from, to: pos, hops });
        if dead.is_some() {
            self.droplets.remove(&droplet);
            self.lose(FaultKind::StuckElectrode { cell: pos }, droplet);
        }
        Ok(())
    }

    /// Records an injected fault and its trace event, returning the
    /// record's index.
    fn inject(&mut self, kind: FaultKind, droplet: DropletId) -> usize {
        self.report.faults_injected += 1;
        self.record(TraceEvent::FaultInjected { droplet, kind });
        self.fault.records.push(FaultRecord {
            kind,
            droplet,
            injected_cycle: self.report.cycles,
            detected_cycle: None,
        });
        self.fault.records.len() - 1
    }

    /// Injects a fault that costs `droplet`: it counts as lost and every
    /// later instruction naming it is skipped.
    fn lose(&mut self, kind: FaultKind, droplet: DropletId) {
        self.report.droplets_lost += 1;
        let idx = self.inject(kind, droplet);
        self.fault.lost.insert(droplet, idx);
    }

    /// Marks record `idx` detected at the current cycle (idempotent).
    fn detect(&mut self, idx: usize) -> Result<(), SimError> {
        let record = self
            .fault
            .records
            .get_mut(idx)
            .ok_or(SimError::Internal { invariant: "fault record index in range" })?;
        if record.detected_cycle.is_none() {
            record.detected_cycle = Some(self.report.cycles);
            self.report.faults_detected += 1;
        }
        Ok(())
    }

    /// A sensor rejects an erroneous droplet to waste: it is removed from
    /// the chip (and storage), discarded, and its record marked detected.
    fn reject(&mut self, droplet: DropletId, idx: usize) -> Result<(), SimError> {
        self.droplets.remove(&droplet);
        self.storage.retain(|_, d| *d != droplet);
        self.record(TraceEvent::FaultDetected { droplet });
        self.record(TraceEvent::Discarded { droplet });
        self.report.discarded += 1;
        self.fault.lost.insert(droplet, idx);
        self.detect(idx)
    }

    /// A checkpoint "sensor" cycle: compares observed droplet state with
    /// the plan. Erroneous droplets still on chip are rejected to waste
    /// (in id order, for determinism) and every still-latent fault record
    /// — a droplet the plan expects but the chip no longer carries — is
    /// marked detected.
    fn sensor_checkpoint(&mut self) -> Result<(), SimError> {
        let tainted = &self.fault.tainted;
        let mut bad: Vec<(DropletId, usize)> =
            self.droplets.keys().filter_map(|d| tainted.get(d).map(|&idx| (*d, idx))).collect();
        bad.sort_unstable_by_key(|(d, _)| d.0);
        for (droplet, idx) in bad {
            self.reject(droplet, idx)?;
        }
        let latent: Vec<(usize, DropletId)> = self
            .fault
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.detected_cycle.is_none())
            .map(|(idx, r)| (idx, r.droplet))
            .collect();
        for (idx, droplet) in latent {
            self.record(TraceEvent::FaultDetected { droplet });
            self.detect(idx)?;
        }
        Ok(())
    }

    fn route(&self, from: Coord, to: Coord, moving: DropletId) -> Option<Vec<Coord>> {
        // Open grid except other droplets' guard bands; module footprints
        // stay passable because ports live inside them and droplets travel
        // between ports. (Module interiors are shielded, so crossing a
        // footprint corner is harmless in this abstraction.) Electrodes
        // diagnosed dead on the chip are never routed across.
        let mut avoid: HashSet<Coord> = HashSet::new();
        for (_, at) in self.parked(moving) {
            if at == to && !self.in_mixer(to) {
                // The destination cell is taken and it is not a mixer
                // rendezvous: unroutable.
                return None;
            }
            if self.in_module(at) {
                // Only the occupied cell itself is off-limits (and a mixer
                // rendezvous cell not even that).
                if !(self.in_mixer(at) && at == to) {
                    avoid.insert(at);
                }
            } else {
                avoid.insert(at);
                avoid.extend(at.all_neighbors());
            }
        }
        if let Some(pins) = self.pins {
            // Under a shared-pin backend a cell whose ghosts would fire
            // inside an unshielded parked droplet's exclusion zone is as
            // good as blocked: steer ad-hoc routes around it so the
            // transport's pin-hazard gate never trips on our own paths.
            let guarded: Vec<Coord> =
                self.parked(moving).map(|(_, at)| at).filter(|&at| !self.in_module(at)).collect();
            if !guarded.is_empty() {
                for y in 0..self.chip.height() {
                    for x in 0..self.chip.width() {
                        let c = Coord::new(x, y);
                        if guarded.iter().any(|&at| pins.co_activation_conflict(c, at)) {
                            avoid.insert(c);
                        }
                    }
                }
            }
        }
        shortest_path(&self.grid, from, to, &avoid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_chip::presets::pcr_chip;
    use dmf_chip::Rect;

    fn ids(chip: &ChipSpec) -> (ModuleId, ModuleId, ModuleId, ModuleId, ModuleId) {
        let r1 = chip.reservoir_for(0).unwrap().id();
        let r7 = chip.reservoir_for(6).unwrap().id();
        let m1 = chip.mixers().next().unwrap().id();
        let w1 = chip.waste_reservoirs().next().unwrap().id();
        let o1 = chip.outputs().next().unwrap().id();
        (r1, r7, m1, w1, o1)
    }

    #[test]
    fn dispense_mix_emit_happy_path() {
        let chip = pcr_chip();
        let (r1, r7, m1, w1, o1) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::CycleMarker { cycle: 1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let report = Simulator::new(&chip).run(&p).unwrap();
        assert_eq!(report.dispensed, 2);
        assert_eq!(report.mix_splits, 1);
        assert_eq!(report.emitted, 1);
        assert_eq!(report.discarded, 1);
        assert!(report.transport_actuations > 0);
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn storage_cells_hold_one_droplet() {
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let q1 = chip.storage_cells().next().unwrap().id();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: q1 });
        p.push(Instruction::Store { droplet: DropletId(0), cell: q1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: q1 });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        // The second droplet cannot even approach: the first one is parked
        // on the storage cell it targets.
        assert!(matches!(err, SimError::NoRoute { .. } | SimError::StorageBusy { .. }));

        // Store/fetch round-trip works and the peak is recorded.
        let mut p2 = ChipProgram::new();
        p2.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p2.push(Instruction::TransportTo { droplet: DropletId(0), module: q1 });
        p2.push(Instruction::Store { droplet: DropletId(0), cell: q1 });
        p2.push(Instruction::Fetch { droplet: DropletId(0), cell: q1 });
        p2.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p2.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let report = Simulator::new(&chip).run(&p2).unwrap();
        assert_eq!(report.storage_peak, 1);
    }

    #[test]
    fn misplaced_droplets_are_rejected() {
        let chip = pcr_chip();
        let (r1, _, m1, _, _) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(1) });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::FluidicViolation { .. }));
        let mut p2 = ChipProgram::new();
        p2.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p2.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(0),
            out_a: DropletId(1),
            out_b: DropletId(2),
        });
        let err2 = Simulator::new(&chip).allow_leftovers().run(&p2).unwrap_err();
        assert!(matches!(err2, SimError::Misplaced { .. }));
    }

    #[test]
    fn mix_split_rejects_aliased_ids() {
        let chip = pcr_chip();
        let (r1, r7, m1, w1, o1) = ids(&chip);
        let mix = |a, b, out_a, out_b| Instruction::MixSplit {
            mixer: m1,
            a: DropletId(a),
            b: DropletId(b),
            out_a: DropletId(out_a),
            out_b: DropletId(out_b),
        };
        // One droplet cannot feed both inputs...
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(mix(0, 0, 1, 2));
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(1), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(2), waste: w1 });
        let err = Simulator::new(&chip).run(&p).unwrap_err();
        assert_eq!(err, SimError::DuplicateDroplet { droplet: DropletId(0) });
        // ...and the two halves cannot share an id.
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(mix(0, 1, 2, 2));
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        let err = Simulator::new(&chip).run(&p).unwrap_err();
        assert_eq!(err, SimError::DuplicateDroplet { droplet: DropletId(2) });
    }

    #[test]
    fn stored_droplet_leaves_only_through_fetch() {
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let q1 = chip.storage_cells().next().unwrap().id();
        let port = chip.module(q1).port();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: q1 });
        p.push(Instruction::Store { droplet: DropletId(0), cell: q1 });
        let mut routed = p.clone();
        routed.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        routed.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let err = Simulator::new(&chip).run(&routed).unwrap_err();
        assert_eq!(err, SimError::StorageBusy { cell: q1 });
        // An explicit path is refused the same way, at the move itself.
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: vec![port, Coord::new(port.x, port.y + 1)],
        });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert_eq!(err, SimError::StorageBusy { cell: q1 });
    }

    #[test]
    fn leftover_droplets_are_flagged() {
        let chip = pcr_chip();
        let (r1, ..) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        assert!(matches!(
            Simulator::new(&chip).run(&p),
            Err(SimError::LeftoverDroplets { count: 1 })
        ));
        assert!(Simulator::new(&chip).allow_leftovers().run(&p).is_ok());
    }

    #[test]
    fn electrode_heatmap_tracks_wear() {
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let report = Simulator::new(&chip).run(&p).unwrap();
        // One actuation per hop plus the dispense; sums must agree.
        let total: u32 = report.electrode_actuations.values().sum();
        assert_eq!(u64::from(total), report.transport_actuations + report.dispensed);
        assert!(report.max_electrode_actuations() >= 1);
        assert!(report.actuated_electrodes() as u64 >= report.transport_actuations);
        assert!(report.hottest_electrode().is_some());
    }

    #[test]
    fn manual_paths_are_validated() {
        let chip = pcr_chip();
        let (r1, ..) = ids(&chip);
        let start = chip.module(r1).port();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: vec![start, Coord::new(start.x + 3, start.y)],
        });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::BadPath { .. }));
    }

    #[test]
    fn pinned_run_counts_ghost_wear() {
        use dmf_pins::{ChipBackend, RowColumn};
        let chip = pcr_chip();
        let (r1, _, _, w1, _) = ids(&chip);
        let pins = RowColumn::default().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(0), waste: w1 });
        let plain = Simulator::new(&chip).run(&p).unwrap();
        assert_eq!(plain.ghost_actuations, 0);
        let pinned = Simulator::new(&chip).with_pins(&pins).run(&p).unwrap();
        // A lone droplet can never pin-conflict, but every actuation now
        // drags its group mates: the heatmap grows by exactly the ghosts.
        assert!(pinned.ghost_actuations > 0);
        let plain_total: u64 = plain.electrode_actuations.values().map(|&n| u64::from(n)).sum();
        let pinned_total: u64 = pinned.electrode_actuations.values().map(|&n| u64::from(n)).sum();
        assert_eq!(pinned_total, plain_total + pinned.ghost_actuations);
        assert_eq!(pinned.transport_actuations, plain.transport_actuations);
    }

    #[test]
    fn direct_backend_is_byte_identical() {
        use dmf_pins::BackendKind;
        let chip = pcr_chip();
        let (r1, r7, m1, w1, o1) = ids(&chip);
        let direct = BackendKind::DirectAddress.backend().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let plain = Simulator::new(&chip).run(&p).unwrap();
        let pinned = Simulator::new(&chip).with_pins(&direct).run(&p).unwrap();
        assert_eq!(plain, pinned);
        assert_eq!(pinned.ghost_actuations, 0);
    }

    #[test]
    fn ghost_into_parked_droplet_is_a_pin_conflict() {
        // A bare 13x3 chip, pitch-5 row sharing: columns {1,6,11} share a
        // pin per row, so marching a droplet rightward from x=0 ghost-
        // fires (11,1) on its first hop — adjacent to the droplet parked
        // at (12,2). Co-activation hazard despite full fluidic legality.
        use dmf_pins::{ChipBackend, RowColumn};
        let mut chip = ChipSpec::new(13, 3).unwrap();
        let ra = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 1, 1, 1))
            .unwrap();
        let rb = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(12, 1, 1, 1))
            .unwrap();
        let pins = RowColumn::new(5).unwrap().assign_chip(&chip).unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: rb, droplet: DropletId(1) });
        p.push(Instruction::Transport {
            droplet: DropletId(1),
            path: vec![Coord::new(12, 1), Coord::new(12, 2)],
        });
        p.push(Instruction::Dispense { reservoir: ra, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: (0..=6).map(|x| Coord::new(x, 1)).collect(),
        });
        // Fluidically legal: the droplets stay 6 columns apart. The
        // unconstrained simulator accepts the program...
        assert!(Simulator::new(&chip).allow_leftovers().run(&p).is_ok());
        // ...but under shared pins the hop onto (6,1) ghost-fires (11,1)
        // next to the droplet parked at (12,2).
        let err = Simulator::new(&chip).with_pins(&pins).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::PinConflict { .. }), "got {err:?}");
    }

    #[test]
    fn fluidic_violation_detected_on_open_cells() {
        // Two droplets on a bare chip: moving one straight through the
        // other's guard band must fail.
        let mut chip = ChipSpec::new(9, 3).unwrap();
        let ra = chip
            .add_module("R1", ModuleKind::Reservoir { fluid: 0 }, Rect::new(0, 1, 1, 1))
            .unwrap();
        let rb = chip
            .add_module("R2", ModuleKind::Reservoir { fluid: 1 }, Rect::new(8, 1, 1, 1))
            .unwrap();
        let mut p = ChipProgram::new();
        p.push(Instruction::Dispense { reservoir: ra, droplet: DropletId(0) });
        p.push(Instruction::Transport {
            droplet: DropletId(0),
            path: (0..=4).map(|x| Coord::new(x, 1)).collect(),
        });
        p.push(Instruction::Dispense { reservoir: rb, droplet: DropletId(1) });
        p.push(Instruction::Transport {
            droplet: DropletId(1),
            path: (4..=8).rev().map(|x| Coord::new(x, 1)).collect(),
        });
        let err = Simulator::new(&chip).allow_leftovers().run(&p).unwrap_err();
        assert!(matches!(err, SimError::FluidicViolation { .. }));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::TraceEvent;
    use dmf_chip::presets::pcr_chip;

    #[test]
    fn traced_run_logs_every_droplet_lifecycle() {
        let chip = pcr_chip();
        let r1 = chip.reservoir_for(0).unwrap().id();
        let r7 = chip.reservoir_for(6).unwrap().id();
        let m1 = chip.mixers().next().unwrap().id();
        let w1 = chip.waste_reservoirs().next().unwrap().id();
        let o1 = chip.outputs().next().unwrap().id();
        let mut p = ChipProgram::new();
        p.push(Instruction::CycleMarker { cycle: 1 });
        p.push(Instruction::Dispense { reservoir: r1, droplet: DropletId(0) });
        p.push(Instruction::TransportTo { droplet: DropletId(0), module: m1 });
        p.push(Instruction::Dispense { reservoir: r7, droplet: DropletId(1) });
        p.push(Instruction::TransportTo { droplet: DropletId(1), module: m1 });
        p.push(Instruction::MixSplit {
            mixer: m1,
            a: DropletId(0),
            b: DropletId(1),
            out_a: DropletId(2),
            out_b: DropletId(3),
        });
        p.push(Instruction::TransportTo { droplet: DropletId(2), module: o1 });
        p.push(Instruction::Emit { droplet: DropletId(2), output: o1 });
        p.push(Instruction::TransportTo { droplet: DropletId(3), module: w1 });
        p.push(Instruction::Discard { droplet: DropletId(3), waste: w1 });
        let (report, trace) = Simulator::new(&chip).run_traced(&p).unwrap();
        // Untraced run agrees.
        assert_eq!(report, Simulator::new(&chip).run(&p).unwrap());
        // Droplet 0: dispensed, moved, mixed.
        let history = trace.droplet_history(DropletId(0));
        assert!(matches!(history[0].event, TraceEvent::Dispensed { .. }));
        assert!(matches!(history.last().unwrap().event, TraceEvent::Mixed { .. }));
        // Droplet 2: born in the mix, moved, emitted.
        let out = trace.droplet_history(DropletId(2));
        assert!(matches!(out.last().unwrap().event, TraceEvent::Emitted { .. }));
        // Cycle attribution and rendering.
        assert!(trace.events().iter().all(|e| e.cycle == 1));
        assert_eq!(trace.cycle_events(1).len(), trace.len());
        let text = trace.render();
        assert!(text.contains("mixed at"));
        assert!(text.contains("emitted as target"));
        // Moved hops agree with the actuation count.
        let moved_hops: u32 = trace
            .events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Moved { hops, .. } => Some(hops),
                _ => None,
            })
            .sum();
        assert_eq!(u64::from(moved_hops), report.transport_actuations);
    }
}
