//! Fault-injection and recovery oracles.
//!
//! Two invariants anchor the subsystem:
//!
//! * a zero-fault-rate run is *byte-identical* to the fault-free
//!   baseline — same trace, same report;
//! * after any single injected fault (each dispense ordinal, each split
//!   ordinal, latent dead electrodes), the recovered campaign still
//!   delivers the full demand and every emitted droplet carries exactly
//!   the demanded CF vector (verified by trace lineage, never trusted
//!   from the simulator).

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::chip::presets::streaming_chip;
use dmfstream::chip::{ChipSpec, Coord};
use dmfstream::engine::{
    realize_pass, EngineConfig, EngineError, PlanCache, RecoveryPolicy, StreamingEngine,
};
use dmfstream::fault::lineage::{droplet_mixtures, emitted_droplets};
use dmfstream::fault::{
    run_campaign, Campaign, FaultConfig, FaultError, ResilientOutcome, WearTracker,
};
use dmfstream::pins::BackendKind;
use dmfstream::ratio::{Mixture, TargetRatio};
use dmfstream::sim::{ChipProgram, InjectedFaults, Simulator, Trace};
use dmfstream::workloads::protocols;

fn pcr_d4() -> TargetRatio {
    TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).expect("paper ratio")
}

/// A default-configured D = 20 campaign on a fresh cache and pristine chip.
fn campaign(
    target: &TargetRatio,
    faults: FaultConfig,
    policy: RecoveryPolicy,
) -> Result<ResilientOutcome, FaultError> {
    let campaign = Campaign { faults, policy, ..Campaign::default() };
    run_campaign(target, 20, &campaign, PlanCache::shared(), &mut WearTracker::new())
}

/// Every droplet emitted in `trace` must hold exactly `expected`.
fn assert_emissions_on_target(trace: &Trace, chip: &ChipSpec, expected: &Mixture) {
    let contents = droplet_mixtures(trace, chip, expected.fluid_count());
    for droplet in emitted_droplets(trace) {
        assert_eq!(
            contents.get(&droplet),
            Some(expected),
            "emitted droplet {droplet:?} is off-target"
        );
    }
}

/// Injects `faults` into the PCR D = 20 baseline pass, recovers through
/// the engine, and checks the demand is met with on-target emissions
/// only. Returns how many targets the faulty first run emitted.
fn recover_from(faults: InjectedFaults) -> u64 {
    let target = pcr_d4();
    let engine = StreamingEngine::new(EngineConfig::default());
    let plan = engine.plan(&target, 20).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    let program = realize_pass(&plan.passes[0], &chip).unwrap();
    let outcome = Simulator::new(&chip).run_faulty(&program, &faults).unwrap();

    let expected = target.to_mixture();
    let contents = droplet_mixtures(&outcome.trace, &chip, 7);
    let salvage =
        outcome.survivors.iter().filter(|d| contents.get(d) == Some(&expected)).count() as u64;
    let first_emitted = outcome.report.emitted;
    let mut traces = vec![outcome.trace];
    let mut delivered = first_emitted;

    let lost = 20u64.saturating_sub(first_emitted);
    if lost > 0 {
        let recovery = StreamingEngine::new(
            EngineConfig::default().with_storage_limit(chip.storage_cells().count()),
        );
        let r = recovery.plan_recovery(&target, lost, salvage).unwrap();
        delivered += r.salvaged;
        if let Some(partial) = r.plan {
            for pass in &partial.passes {
                let prog = realize_pass(pass, &chip).unwrap();
                let (report, trace) = Simulator::new(&chip).run_traced(&prog).unwrap();
                delivered += report.emitted;
                traces.push(trace);
            }
        }
    }
    assert!(delivered >= 20, "recovery delivered only {delivered}/20");
    for trace in &traces {
        assert_emissions_on_target(trace, &chip, &expected);
    }
    first_emitted
}

/// `run_faulty` under an empty plan (even with sensor checkpoints armed)
/// must equal `run_traced`: same report, same trace, nothing lost.
fn assert_zero_fault_identity(sim: &Simulator, program: &ChipProgram, case: &str) {
    let (baseline_report, baseline_trace) = sim.run_traced(program).unwrap();
    for sensor_period in [0, 2] {
        let faults = InjectedFaults { sensor_period, ..Default::default() };
        let outcome = sim.run_faulty(program, &faults).unwrap();
        assert_eq!(outcome.trace, baseline_trace, "{case}: zero-fault trace diverged");
        assert_eq!(outcome.report, baseline_report, "{case}: zero-fault report diverged");
        assert!(outcome.faults.is_empty(), "{case}: phantom fault records");
        assert!(outcome.survivors.is_empty(), "{case}: phantom survivors");
    }
}

#[test]
fn zero_fault_run_is_byte_identical_to_baseline() {
    // Every pass of every Table 2 protocol, single- and multi-pass.
    // Ex.1 and Ex.3–Ex.5 cannot fit even a demand-2 pass into 3 storage
    // cells, so they run multi-pass at the tightest budget accepted.
    let plan_with = |ratio: &TargetRatio, demand: u64, storage: Option<usize>| {
        let config = |q: Option<usize>| {
            q.map_or(EngineConfig::default(), |q| EngineConfig::default().with_storage_limit(q))
        };
        match StreamingEngine::new(config(storage)).plan(ratio, demand) {
            Err(EngineError::StorageInfeasible { needed, .. }) => {
                StreamingEngine::new(config(Some(needed))).plan(ratio, demand).unwrap()
            }
            plan => plan.unwrap(),
        }
    };
    for protocol in protocols::table2_examples() {
        for demand in [20, 64] {
            for storage in [None, Some(3)] {
                let plan = plan_with(&protocol.ratio, demand, storage);
                let fluids = protocol.ratio.fluid_count();
                let chip = streaming_chip(fluids, plan.mixers, plan.storage_peak.max(1)).unwrap();
                for (i, pass) in plan.passes.iter().enumerate() {
                    let program = realize_pass(pass, &chip).unwrap();
                    let case = format!("{} D={demand} q'={storage:?} pass {i}", protocol.id);
                    assert_zero_fault_identity(&Simulator::new(&chip), &program, &case);
                }
            }
        }
    }
    // And once under a shared-pin backend.
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), 20).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    let pins = BackendKind::RowColumn.assign(&chip).unwrap();
    let program = realize_pass(&plan.passes[0], &chip).unwrap();
    assert_zero_fault_identity(&Simulator::new(&chip).with_pins(&pins), &program, "row-column");
}

#[test]
fn zero_rate_campaign_reproduces_the_paper_oracles() {
    let out = campaign(&pcr_d4(), FaultConfig::default().with_seed(42), RecoveryPolicy::default())
        .unwrap();
    assert_eq!(out.runs, 1);
    assert_eq!(out.replans, 0);
    assert_eq!((out.emitted, out.injected, out.detected), (20, 0, 0));
    assert_eq!(out.baseline_cycles, 11, "paper Fig. 3 Tc");
    assert_eq!(out.total_cycles, 11);
    assert_eq!(out.traces.len(), 1);
    // The campaign trace equals a by-hand fault-free realization.
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), 20).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    let program = realize_pass(&plan.passes[0], &chip).unwrap();
    let (_, trace) = Simulator::new(&chip).run_traced(&program).unwrap();
    assert_eq!(out.traces[0], trace);
}

#[test]
fn every_single_dispense_failure_is_recovered() {
    // The D = 20 pass dispenses 25 droplets (the paper's I); fail each
    // one in turn.
    let mut any_loss = false;
    for ordinal in 0..25u64 {
        let mut faults = InjectedFaults { sensor_period: 2, ..Default::default() };
        faults.failed_dispenses.insert(ordinal);
        any_loss |= recover_from(faults) < 20;
    }
    assert!(any_loss, "failed dispenses must cost targets somewhere");
}

#[test]
fn every_single_split_error_is_recovered() {
    // The D = 20 pass fires 27 mix-splits (the paper's Tms); perturb
    // each one in turn. The output-port sensor must reject every
    // erroneous target, so all emissions stay on-target.
    let mut any_loss = false;
    for ordinal in 0..27u64 {
        let mut faults = InjectedFaults { sensor_period: 2, ..Default::default() };
        faults.bad_splits.insert(ordinal);
        any_loss |= recover_from(faults) < 20;
    }
    assert!(any_loss, "split errors must cost targets somewhere");
}

#[test]
fn single_latent_dead_electrodes_are_recovered() {
    // Kill open transit cells one at a time; droplets crossing one get
    // stuck there mid-transport.
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), 20).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    let mut hit = 0u32;
    for y in [2, 6] {
        for x in 0..chip.width() {
            let cell = Coord::new(x, y);
            if chip.modules().iter().any(|m| m.rect().contains(cell)) {
                continue;
            }
            let mut faults = InjectedFaults { sensor_period: 2, ..Default::default() };
            faults.dead_cells.insert(cell);
            if recover_from(faults) < 20 {
                hit += 1;
            }
        }
    }
    assert!(hit > 0, "some transit cell must lie on a droplet route");
}

#[test]
fn seeded_random_campaigns_meet_demand_with_correct_cf() {
    let target = pcr_d4();
    let expected = target.to_mixture();
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    for seed in 1..=6u64 {
        let cfg = FaultConfig::default().with_seed(seed).with_fault_rate(0.05);
        let out = campaign(&target, cfg, RecoveryPolicy::default().with_max_replans(64)).unwrap();
        assert!(out.demand_met(), "seed {seed}: {out}");
        assert!(out.detected <= out.injected, "seed {seed}");
        for trace in &out.traces {
            assert_emissions_on_target(trace, &chip, &expected);
        }
    }
}

#[test]
fn campaigns_reroute_around_diagnosed_electrodes() {
    // Find a seed whose campaign diagnoses dead electrodes, then check
    // the recovery runs' traces never step onto them.
    let target = pcr_d4();
    let mut diagnosed_any = false;
    for seed in 1..=20u64 {
        let cfg = FaultConfig::default().with_seed(seed).with_fault_rate(0.08);
        let Ok(out) = campaign(&target, cfg, RecoveryPolicy::default().with_max_replans(64)) else {
            continue;
        };
        if out.dead_cells.is_empty() {
            continue;
        }
        diagnosed_any = true;
        // A cell is diagnosed when the run it struck in completes; every
        // *later* run routes around it, so a cell that stuck droplets in
        // run i never appears again in run j > i (within one run, several
        // droplets may pile onto the same still-latent cell).
        let mut diagnosed = std::collections::HashSet::new();
        for trace in &out.traces {
            let mut this_run = std::collections::HashSet::new();
            for line in trace.render().lines() {
                if let Some(rest) = line.split("stuck on dead electrode ").nth(1) {
                    let cell = rest.trim().to_owned();
                    assert!(!diagnosed.contains(&cell), "seed {seed}: {cell} hit after diagnosis");
                    this_run.insert(cell);
                }
            }
            diagnosed.extend(this_run);
        }
    }
    assert!(diagnosed_any, "no campaign diagnosed a dead electrode");
}
