//! Monte-Carlo fault-injection exhibit: yield and cycle overhead of the
//! recovering streaming engine versus fault rate, over the paper's five
//! Table 2 protocols.
//!
//! ```bash
//! fault_sweep --seed 42 --fault-rate 0.05          # one rate, all protocols
//! fault_sweep --seed 7 --trials 10                 # default rate ladder
//! fault_sweep --seed 42 --fault-rate 0.05 --demand 8 --trials 1
//! ```
//!
//! Each trial runs a whole resilient campaign
//! ([`dmf_fault::run_campaign`]): seeded fault injection, sensor-cycle
//! detection, demand-level re-synthesis and rerouting around diagnosed
//! dead electrodes. Yield is the fraction of trials that delivered the
//! full demand; overhead is the extra completion time over the
//! fault-free baseline. The injected/detected/replanned totals at the
//! bottom are read back from the global `dmf-obs` recorder, not from the
//! outcomes. Exits non-zero if any trial misses its demand.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::{export_obs, obs_from_env};
use dmf_engine::{PlanCache, RecoveryPolicy};
use dmf_fault::{run_campaign, Campaign, FaultConfig, WearTracker};
use dmf_obs::{MetricsReport, Table};
use dmf_workloads::protocols;
use std::process::ExitCode;

struct SweepArgs {
    seed: u64,
    rates: Vec<f64>,
    trials: u64,
    demand: u64,
}

fn parse_args() -> Result<SweepArgs, String> {
    let mut args =
        SweepArgs { seed: 42, rates: vec![0.0, 0.01, 0.02, 0.05, 0.1], trials: 3, demand: 12 };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--fault-rate" => {
                args.rates = vec![value.parse().map_err(|e| format!("bad fault rate: {e}"))?]
            }
            "--trials" => args.trials = value.parse().map_err(|e| format!("bad trials: {e}"))?,
            "--demand" => args.demand = value.parse().map_err(|e| format!("bad demand: {e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let obs_path = obs_from_env("fault_sweep");
    // The closing counter summary is read back from dmf-obs, so the
    // recorder is on regardless of DMF_OBS.
    dmf_obs::global().set_enabled(true);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: fault_sweep [--seed S] [--fault-rate R] [--trials N] [--demand D]");
            return ExitCode::from(2);
        }
    };
    println!(
        "Fault-injection sweep: D = {} per campaign, {} trial(s) per cell, base seed {}\n",
        args.demand, args.trials, args.seed
    );
    let mut table = Table::new([
        "protocol", "rate", "yield", "inj", "det", "replans", "restarts", "dead", "overhead",
    ]);
    let mut all_met = true;
    // One plan cache for the whole sweep: every trial's baseline plan and
    // every replan for an already-seen residual demand is a cache hit.
    let cache = PlanCache::shared();
    for (p, protocol) in protocols::table2_examples().iter().enumerate() {
        for &rate in &args.rates {
            let mut met = 0u64;
            let (mut inj, mut det, mut replans, mut restarts, mut dead) = (0, 0, 0, 0, 0);
            let (mut base_cycles, mut extra_cycles) = (0u64, 0u64);
            for trial in 0..args.trials {
                // One seed per (protocol, rate, trial) cell, derived from
                // the base seed so the whole sweep is reproducible.
                let seed = args
                    .seed
                    .wrapping_add(1_000_003 * p as u64)
                    .wrapping_add(1_009 * trial)
                    .wrapping_add((rate * 1e6) as u64);
                let campaign = Campaign {
                    faults: FaultConfig::default().with_seed(seed).with_fault_rate(rate),
                    policy: RecoveryPolicy::default().with_max_replans(64),
                    ..Campaign::default()
                };
                // Independent trials: each starts on a pristine chip.
                match run_campaign(
                    &protocol.ratio,
                    args.demand,
                    &campaign,
                    std::sync::Arc::clone(&cache),
                    &mut WearTracker::new(),
                ) {
                    Ok(out) => {
                        if out.demand_met() {
                            met += 1;
                        } else {
                            all_met = false;
                        }
                        inj += out.injected;
                        det += out.detected;
                        replans += u64::from(out.replans);
                        restarts += u64::from(out.restarts);
                        dead += out.dead_cells.len() as u64;
                        base_cycles += out.baseline_cycles;
                        extra_cycles += out.extra_cycles();
                    }
                    Err(e) => {
                        all_met = false;
                        eprintln!("{} rate {rate}: campaign failed: {e}", protocol.id);
                    }
                }
            }
            let overhead = if base_cycles > 0 {
                100.0 * extra_cycles as f64 / base_cycles as f64
            } else {
                0.0
            };
            table.row([
                format!("{} {}", protocol.id, protocol.name),
                format!("{rate:.2}"),
                format!("{}/{}", met, args.trials),
                inj.to_string(),
                det.to_string(),
                replans.to_string(),
                restarts.to_string(),
                dead.to_string(),
                format!("{overhead:.1}%"),
            ]);
        }
    }
    println!("{table}");
    let report = MetricsReport::from_recorder(dmf_obs::global());
    println!(
        "\ndmf-obs totals: fault.injected={} fault.detected={} recovery.replans={} \
         recovery.extra_cycles={}",
        report.value("fault.injected").unwrap_or(0),
        report.value("fault.detected").unwrap_or(0),
        report.value("recovery.replans").unwrap_or(0),
        report.value("recovery.extra_cycles").unwrap_or(0),
    );
    if let Some(path) = obs_path {
        export_obs(&path);
    }
    if all_met {
        println!("\nall campaigns met their demand");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nerror: at least one campaign missed its demand");
        ExitCode::FAILURE
    }
}
