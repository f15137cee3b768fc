//! Micro-benchmarks: base-tree algorithms and mixing-forest construction.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::micro::MicroBench;
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm, ALGORITHMS};
use dmf_ratio::TargetRatio;
use dmf_workloads::protocols;

fn main() {
    let mut suite = MicroBench::new("construction");
    for protocol in protocols::table2_examples() {
        for entry in ALGORITHMS.seeded() {
            let (algorithm, ratio) = (entry.id, protocol.ratio.clone());
            suite.bench(format!("base_tree/{}/{}", algorithm.label(), protocol.id), move || {
                algorithm.build_graph(&ratio).unwrap()
            });
        }
    }
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let template = MinMix.build_template(&target).unwrap();
    for demand in [16u64, 64, 256, 1024] {
        suite.bench(format!("forest_build/{demand}"), || {
            build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap()
        });
    }
    suite.finish();
}
