//! Pin-backend comparison exhibit: what electrode sharing costs and buys.
//!
//! ```bash
//! bench_backends                          # writes results/BENCH_backends.json
//! bench_backends out.json --demand 12 --seed 42
//! ```
//!
//! Three sections, written as JSON:
//!
//! 1. **Execution** — every [`dmf_pins::BackendKind`] runs the five Table 2
//!    protocols fault-free under the pinned simulator: pin count versus
//!    direct electrode count, cycles, total and ghost actuations, droplets
//!    emitted, plus the dispense-wave route makespan (concurrent where the
//!    backend permits it — `null` when pin sharing makes the concurrent
//!    wave unroutable — and serialized, one droplet at a time, which every
//!    backend supports).
//! 2. **Fault sweep** — seeded campaigns per backend at one fault rate;
//!    a stuck electrode under a shared-pin backend retires its whole pin
//!    group, so yield can only suffer. Gate: direct addressing's yield is
//!    at least every pin-constrained backend's yield under the same seeds.
//! 3. **Wear loop** — rounds of fault campaigns where the *aware* arm
//!    re-places its chip each round from the accumulated
//!    [`dmf_fault::WearTracker`] (via [`dmf_chip::WearMap`]) while the
//!    *blind* arm keeps the round-1 placement. Gate: the aware arm's peak
//!    per-electrode actuation count is strictly below the blind arm's.
//!
//! Every figure is a seeded count, so a default-parameter run must also
//! reproduce the committed `results/BENCH_backends.json` value for value;
//! it reads that file before writing anything. Exits non-zero when any
//! protocol misses its demand, a gate fails or a figure differs from the
//! committed one.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_chip::presets::streaming_chip;
use dmf_chip::{
    ChipSpec, FlowMatrix, ModuleKind, PlacementConfig, PlacementContext, PlacementRequest, Placer,
    WearMap,
};
use dmf_engine::{realize_pass, EngineConfig, PlanCache, RecoveryPolicy, StreamingEngine};
use dmf_fault::{run_campaign, Campaign, FaultConfig, WearTracker};
use dmf_obs::json::{self, Json, Object};
use dmf_obs::json_object;
use dmf_obs::Table;
use dmf_pins::{BackendKind, PinAssignment};
use dmf_route::{route_concurrent, route_concurrent_pinned, Grid, RouteRequest};
use dmf_sim::Simulator;
use dmf_workloads::protocols;
use std::process::ExitCode;
use std::sync::Arc;

/// The committed exhibit a default-parameter run must reproduce.
const BASELINE: &str = "results/BENCH_backends.json";

struct Args {
    out_path: String,
    demand: u64,
    seed: u64,
    rate: f64,
    trials: u64,
    rounds: u64,
}

/// The path and values of the first member that differs between a fresh
/// and a committed exhibit, e.g. `.backends[1].fault_sweep.met: 14 vs 15`.
fn first_difference(fresh: &Json, committed: &Json, path: &str) -> Option<String> {
    match (fresh, committed) {
        (Json::Obj(a), Json::Obj(b)) => a.keys().chain(b.keys()).find_map(|k| {
            let path = format!("{path}.{k}");
            match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) => first_difference(x, y, &path),
                _ => Some(format!("{path}: present on one side only")),
            }
        }),
        (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]"))),
        _ => (fresh != committed).then(|| {
            format!("{path}: fresh {} vs committed {}", json::write(fresh), json::write(committed))
        }),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { out_path: BASELINE.into(), demand: 12, seed: 42, rate: 0.05, trials: 3, rounds: 4 };
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.out_path = argv.next().unwrap();
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--demand" => args.demand = value.parse().map_err(|e| format!("bad demand: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--fault-rate" => args.rate = value.parse().map_err(|e| format!("bad rate: {e}"))?,
            "--trials" => args.trials = value.parse().map_err(|e| format!("bad trials: {e}"))?,
            "--rounds" => args.rounds = value.parse().map_err(|e| format!("bad rounds: {e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Fault-free execution of one protocol under one backend.
struct ExecRow {
    id: String,
    pins: usize,
    electrodes: usize,
    cycles: u64,
    actuations: u64,
    ghosts: u64,
    emitted: u64,
    demand_met: bool,
    concurrent_makespan: Option<usize>,
    serialized_makespan: usize,
}

/// The dispense wave `dmfstream check` routes: one droplet per
/// reservoir / storage-cell pair.
fn dispense_wave(chip: &ChipSpec) -> (Grid, Vec<RouteRequest>) {
    let open: Vec<_> = chip.reservoirs().chain(chip.storage_cells()).map(|m| m.id()).collect();
    let grid = Grid::from_spec(chip, &open);
    let requests: Vec<RouteRequest> = chip
        .reservoirs()
        .zip(chip.storage_cells())
        .map(|(r, s)| RouteRequest { from: r.port(), to: s.port() })
        .collect();
    (grid, requests)
}

fn route_makespans(chip: &ChipSpec, pins: &PinAssignment) -> (Option<usize>, usize) {
    let (grid, requests) = dispense_wave(chip);
    let concurrent = if pins.is_direct() {
        route_concurrent(&grid, &requests).ok()
    } else {
        route_concurrent_pinned(&grid, &requests, pins).ok()
    }
    .map(|paths| paths.iter().map(|p| p.duration()).max().unwrap_or(0));
    // Serialized: one droplet at a time (the transport discipline the
    // simulator actually uses), so the makespan is the sum of hops.
    let serialized = requests
        .iter()
        .map(|req| {
            let one = std::slice::from_ref(req);
            let routed = if pins.is_direct() {
                route_concurrent(&grid, one)
            } else {
                route_concurrent_pinned(&grid, one, pins)
            };
            routed.expect("a lone droplet always routes")[0].duration()
        })
        .sum();
    (concurrent, serialized)
}

fn run_exec(
    backend: BackendKind,
    demand: u64,
    cache: &Arc<PlanCache>,
) -> Result<Vec<ExecRow>, String> {
    let engine = StreamingEngine::new(EngineConfig::default()).with_cache(Arc::clone(cache));
    let mut rows = Vec::new();
    for protocol in protocols::table2_examples() {
        let fail = |what: String| format!("{} under {backend}: {what}", protocol.id);
        let plan = engine.plan(&protocol.ratio, demand).map_err(|e| fail(e.to_string()))?;
        let chip =
            streaming_chip(protocol.ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1))
                .map_err(|e| fail(e.to_string()))?;
        let pins = backend.assign(&chip).map_err(|e| fail(e.to_string()))?;
        let (mut cycles, mut actuations, mut ghosts, mut emitted) = (0u64, 0u64, 0u64, 0u64);
        for (i, pass) in plan.passes.iter().enumerate() {
            let program =
                realize_pass(pass, &chip).map_err(|e| fail(format!("pass {}: {e}", i + 1)))?;
            let report = Simulator::new(&chip)
                .with_pins(&pins)
                .run(&program)
                .map_err(|e| fail(format!("pass {}: {e}", i + 1)))?;
            cycles += u64::from(report.cycles);
            actuations += report.electrode_actuations.values().map(|&n| u64::from(n)).sum::<u64>();
            ghosts += report.ghost_actuations;
            emitted += report.emitted;
        }
        let (concurrent_makespan, serialized_makespan) = route_makespans(&chip, &pins);
        rows.push(ExecRow {
            id: protocol.id.to_string(),
            pins: pins.pin_count(),
            electrodes: pins.electrode_count(),
            cycles,
            actuations,
            ghosts,
            emitted,
            demand_met: emitted >= demand,
            concurrent_makespan,
            serialized_makespan,
        });
    }
    Ok(rows)
}

/// Seeded fault sweep for one backend: identical per-cell seeds across
/// backends, so yields are comparable droplet for droplet.
struct SweepRow {
    trials: u64,
    met: u64,
    dead: u64,
}

fn run_sweep(backend: BackendKind, args: &Args, cache: &Arc<PlanCache>) -> SweepRow {
    let mut met = 0u64;
    let mut dead = 0u64;
    let mut trials = 0u64;
    for (p, protocol) in protocols::table2_examples().iter().enumerate() {
        for trial in 0..args.trials {
            trials += 1;
            let seed = args
                .seed
                .wrapping_add(1_000_003 * p as u64)
                .wrapping_add(1_009 * trial)
                .wrapping_add((args.rate * 1e6) as u64);
            let campaign = Campaign {
                faults: FaultConfig::default().with_seed(seed).with_fault_rate(args.rate),
                policy: RecoveryPolicy::default().with_max_replans(64),
                backend,
                ..Campaign::default()
            };
            // A fresh tracker per trial: each campaign starts on a
            // pristine chip, like the fault_sweep exhibit.
            let mut wear = WearTracker::new();
            match run_campaign(
                &protocol.ratio,
                args.demand,
                &campaign,
                Arc::clone(cache),
                &mut wear,
            ) {
                Ok(out) => {
                    if out.demand_met() {
                        met += 1;
                    }
                    dead += out.dead_cells.len() as u64;
                }
                Err(e) => {
                    eprintln!("note: {} {backend} trial {trial}: {e}", protocol.id);
                }
            }
        }
    }
    SweepRow { trials, met, dead }
}

/// Places the PCR inventory (7 reservoirs, 3 mixers, 5 storage, waste,
/// output) on a roomy grid, optionally steering off worn electrodes.
fn place_pcr_chip(seed: u64, ctx: &PlacementContext) -> Result<ChipSpec, String> {
    let mut requests = Vec::new();
    for f in 0..7usize {
        requests.push(PlacementRequest::conventional(
            format!("R{}", f + 1),
            ModuleKind::Reservoir { fluid: f },
        ));
    }
    for m in 0..3 {
        requests.push(PlacementRequest::conventional(format!("M{}", m + 1), ModuleKind::Mixer));
    }
    for s in 0..5 {
        requests.push(PlacementRequest::conventional(format!("q{}", s + 1), ModuleKind::Storage));
    }
    requests.push(PlacementRequest::conventional("W1", ModuleKind::Waste));
    requests.push(PlacementRequest::conventional("W2", ModuleKind::Waste));
    requests.push(PlacementRequest::conventional("O1", ModuleKind::Output));
    // Flows mirror the streaming traffic: every reservoir feeds every
    // mixer, every mixer drains to storage and output.
    let mut flows = FlowMatrix::new();
    for f in 0..7 {
        for m in 7..10 {
            flows.add(f, m, 2.0);
        }
    }
    for m in 7..10 {
        for s in 10..15 {
            flows.add(m, s, 1.0);
        }
        flows.add(m, 17, 1.0);
    }
    let config = PlacementConfig { width: 24, height: 14, seed, ..PlacementConfig::default() };
    let chip = Placer::new(config).place_with(&requests, &flows, ctx).map_err(|e| e.to_string())?;
    chip.validate_for_engine(7).map_err(|e| e.to_string())?;
    Ok(chip)
}

struct WearLoop {
    rounds: u64,
    blind_peak: u64,
    aware_peak: u64,
    blind_total: u64,
    aware_total: u64,
}

/// Rounds of seeded campaigns on placed chips. The blind arm keeps its
/// round-1 placement forever; the aware arm re-places each round with the
/// accumulated wear as a placement cost, rotating hot spots away.
fn run_wear_loop(args: &Args, cache: &Arc<PlanCache>) -> Result<WearLoop, String> {
    let target = &protocols::table2_examples()[0].ratio; // Ex.1, PCR
    let engine = EngineConfig::default().with_storage_limit(5);
    let policy = RecoveryPolicy::default().with_max_replans(64);
    let blind_chip = place_pcr_chip(args.seed, &PlacementContext::default())?;
    let mut blind_wear = WearTracker::new();
    let mut aware_wear = WearTracker::new();
    for round in 0..args.rounds {
        let faults = FaultConfig::default()
            .with_seed(args.seed.wrapping_add(7_919 * round))
            .with_fault_rate(args.rate);
        let campaign = |chip: ChipSpec| Campaign {
            engine,
            faults,
            policy,
            backend: BackendKind::DirectAddress,
            chip: Some(chip),
        };
        run_campaign(
            target,
            args.demand,
            &campaign(blind_chip.clone()),
            Arc::clone(cache),
            &mut blind_wear,
        )
        .map_err(|e| format!("blind round {round}: {e}"))?;
        let ctx = if aware_wear.total() == 0 {
            PlacementContext::default()
        } else {
            let map: WearMap = aware_wear.iter().map(|(c, n)| (c, n as f64)).collect();
            PlacementContext::with_wear(map, 5.0)
        };
        let aware_chip = place_pcr_chip(args.seed, &ctx)?;
        run_campaign(
            target,
            args.demand,
            &campaign(aware_chip),
            Arc::clone(cache),
            &mut aware_wear,
        )
        .map_err(|e| format!("aware round {round}: {e}"))?;
    }
    let peak = |w: &WearTracker| w.iter().map(|(_, n)| n).max().unwrap_or(0);
    Ok(WearLoop {
        rounds: args.rounds,
        blind_peak: peak(&blind_wear),
        aware_peak: peak(&aware_wear),
        blind_total: blind_wear.total(),
        aware_total: aware_wear.total(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_backends [OUT.json] [--demand D] [--seed S] [--fault-rate R] \
                 [--trials N] [--rounds N]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "Pin-backend comparison: D = {} per protocol, {} fault trial(s) per cell at rate {}, \
         {} wear rounds, base seed {}\n",
        args.demand, args.trials, args.rate, args.rounds, args.seed
    );
    // Read the baseline first: the default output path overwrites it. A
    // missing one fails the run only after the fresh exhibit is written.
    let default_run = !std::env::args().any(|a| a.starts_with("--"));
    let baseline = default_run.then(|| dmf_bench::read_baseline(BASELINE));
    let cache = PlanCache::shared();
    let mut failed = false;

    let mut exec_table = Table::new([
        "backend",
        "protocol",
        "pins",
        "cycles",
        "actuations",
        "ghosts",
        "emitted",
        "wave",
        "serial",
    ]);
    let mut sweep_table = Table::new(["backend", "yield", "dead"]);
    let mut backend_sections = Vec::new();
    let mut direct_met: Option<u64> = None;
    for backend in BackendKind::ALL {
        let rows = match run_exec(backend, args.demand, &cache) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for row in &rows {
            if !row.demand_met {
                eprintln!(
                    "error: {} under {backend}: emitted {} < demand {}",
                    row.id, row.emitted, args.demand
                );
                failed = true;
            }
            exec_table.row([
                backend.to_string(),
                row.id.clone(),
                format!("{}/{}", row.pins, row.electrodes),
                row.cycles.to_string(),
                row.actuations.to_string(),
                row.ghosts.to_string(),
                row.emitted.to_string(),
                row.concurrent_makespan.map_or("-".into(), |m| m.to_string()),
                row.serialized_makespan.to_string(),
            ]);
        }
        let sweep = run_sweep(backend, &args, &cache);
        sweep_table.row([
            backend.to_string(),
            format!("{}/{}", sweep.met, sweep.trials),
            sweep.dead.to_string(),
        ]);
        match direct_met {
            None => direct_met = Some(sweep.met),
            Some(direct) if sweep.met > direct => {
                eprintln!(
                    "error: {backend} yield {}/{} beats direct addressing's {direct}/{} under \
                     the same seeds",
                    sweep.met, sweep.trials, sweep.trials
                );
                failed = true;
            }
            Some(_) => {}
        }
        let protocols_json: Vec<Object> = rows
            .iter()
            .map(|r| {
                json_object!("id": &r.id, "pins": r.pins, "electrodes": r.electrodes,
                    "cycles": r.cycles, "actuations": r.actuations, "ghost_actuations": r.ghosts,
                    "emitted": r.emitted, "demand_met": r.demand_met,
                    "route_makespan_concurrent": r.concurrent_makespan,
                    "route_makespan_serialized": r.serialized_makespan)
            })
            .collect();
        let fault_sweep = json_object!("rate": args.rate, "trials": sweep.trials,
            "met": sweep.met, "dead_cells": sweep.dead);
        backend_sections.push(json_object!("backend": backend.to_string(),
            "protocols": protocols_json, "fault_sweep": fault_sweep));
    }
    println!("{exec_table}");
    println!("\nFault sweep at rate {} ({} campaigns per backend):", args.rate, args.trials * 5);
    println!("{sweep_table}");

    let wear = match run_wear_loop(&args, &cache) {
        Ok(wear) => wear,
        Err(e) => {
            eprintln!("error: wear loop: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\nWear loop over {} rounds: blind peak {} (total {}), aware peak {} (total {})",
        wear.rounds, wear.blind_peak, wear.blind_total, wear.aware_peak, wear.aware_total
    );
    if wear.aware_peak >= wear.blind_peak {
        eprintln!(
            "error: wear-aware placement peak {} is not below wear-blind peak {}",
            wear.aware_peak, wear.blind_peak
        );
        failed = true;
    }

    let wear_loop = json_object!("rounds": wear.rounds, "blind_peak": wear.blind_peak,
        "aware_peak": wear.aware_peak, "blind_total": wear.blind_total,
        "aware_total": wear.aware_total);
    let exhibit = json_object!("suite": "backends", "demand": args.demand, "seed": args.seed,
        "backends": backend_sections, "wear_loop": wear_loop);
    match &baseline {
        Some(Ok(committed)) => {
            let fresh = json::parse(&json::write(&exhibit)).expect("the writer emits valid JSON");
            if let Some(difference) = first_difference(&fresh, committed, "") {
                eprintln!(
                    "error: the fresh run differs from the committed {BASELINE} at {difference}"
                );
                failed = true;
            }
        }
        Some(Err(e)) => {
            eprintln!("error: {e}");
            failed = true;
        }
        None => println!("parameter flags given: not compared with the committed {BASELINE}"),
    }
    if let Err(e) = dmf_bench::write_exhibit(&args.out_path, exhibit) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!("\nerror: at least one backend gate failed");
        ExitCode::FAILURE
    } else {
        println!("\nall backends met their demand; direct addressing's yield is an upper bound");
        ExitCode::SUCCESS
    }
}
