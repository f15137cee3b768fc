//! Micro-benchmarks: MMS, SRS and OMS scheduling plus storage accounting
//! on forests of growing size.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::micro::MicroBench;
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm};
use dmf_ratio::TargetRatio;
use dmf_sched::{mms_schedule, oms_schedule, srs_schedule};

fn forests() -> Vec<(u64, dmf_mixgraph::MixGraph)> {
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let template = MinMix.build_template(&target).unwrap();
    [32u64, 128, 512]
        .into_iter()
        .map(|d| (d, build_forest(&template, &target, d, ReusePolicy::AcrossTrees).unwrap()))
        .collect()
}

fn main() {
    let mut suite = MicroBench::new("scheduling");
    let forests = forests();
    for (demand, forest) in &forests {
        suite.bench(format!("schedulers/MMS/{demand}"), || mms_schedule(forest, 3).unwrap());
        suite.bench(format!("schedulers/SRS/{demand}"), || srs_schedule(forest, 3).unwrap());
        suite.bench(format!("schedulers/OMS-HLF/{demand}"), || oms_schedule(forest, 3).unwrap());
    }
    for (demand, forest) in &forests {
        let schedule = srs_schedule(forest, 3).unwrap();
        suite.bench(format!("storage_accounting/{demand}"), || schedule.storage(forest).peak);
    }
    suite.finish();
}
