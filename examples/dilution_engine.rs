//! The dilution engine: droplet streaming for the two-fluid special case
//! (Roy et al., IET-CDT 2013 — the only prior MDST-capable system, per the
//! paper's Table 1), plus a multi-target dilution gradient. Dilution is
//! just a ratio: the one streaming engine and the multi-target forest
//! handle it with the dilution-only base algorithms `BITSCAN` and `DMRW`.
//!
//! ```bash
//! cargo run --example dilution_engine
//! ```

use dmfstream::engine::{repeated, EngineConfig, StreamingEngine};
use dmfstream::forest::{build_multi_target_forest, ReusePolicy};
use dmfstream::mixalgo::{dilution_ratio, MinMix, MixingAlgorithm, BITSCAN, DMRW, MINMIX};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stream 16 droplets of a 5/16 sample dilution with each algorithm.
    let target = dilution_ratio(5, 4)?;
    println!("streaming 16 droplets of CF 5/16 on 2 mixers:\n");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "algo", "Tms", "I", "W", "Tc", "I(repeat)", "Tc(repeat)"
    );
    for (name, algorithm) in [("BitScan", BITSCAN), ("Dmrw", DMRW), ("MinMix", MINMIX)] {
        let config = EngineConfig::default().with_algorithm(algorithm).with_mixers(2);
        let plan = StreamingEngine::new(config).plan(&target, 16)?;
        let baseline = repeated(algorithm, &target, 16, 2)?;
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
            name,
            plan.total_mix_splits,
            plan.total_inputs,
            plan.total_waste,
            plan.total_cycles,
            baseline.total_inputs,
            baseline.total_cycles
        );
    }

    // A dilution gradient: one droplet pair per CF, waste shared across
    // targets (the SDMT objective) — a multi-target forest over dilutions.
    let cfs = [2u64, 4, 6, 8, 10, 12, 14];
    let mut pairs = Vec::with_capacity(cfs.len());
    for k in cfs {
        let target = dilution_ratio(k, 4)?;
        pairs.push((MinMix.build_template(&target)?, target));
    }
    let separate_inputs: u64 = pairs.iter().flat_map(|(t, _)| t.leaf_counts()).sum();
    let graph = build_multi_target_forest(&pairs, ReusePolicy::Eager)?;
    let stats = graph.stats();
    println!(
        "\ngradient over CFs {:?}/16: Tms={} I={} W={} (separate preparation: I={})",
        cfs, stats.mix_splits, stats.input_total, stats.waste, separate_inputs
    );
    println!("gradient graph has {} component trees", graph.tree_count());
    Ok(())
}
