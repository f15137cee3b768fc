use crate::{EngineError, StreamPlan};
use dmf_mixalgo::AlgorithmId;
use dmf_ratio::TargetRatio;
use dmf_sched::{repeated_baseline, RepeatedBaseline};
use std::fmt;

/// Convenience wrapper for the paper's repeated baselines (`RMM`, `RRMA`,
/// `RMTCS`): `⌈D/2⌉` OMS-scheduled passes of `algorithm`'s base tree with
/// `mixers` on-chip mixers.
///
/// # Errors
///
/// Propagates base-tree construction and scheduling failures.
///
/// # Examples
///
/// ```
/// use dmf_engine::repeated;
/// use dmf_mixalgo::MINMIX;
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let rmm = repeated(MINMIX, &target, 20, 3)?;
/// assert_eq!(rmm.passes, 10);
/// # Ok(())
/// # }
/// ```
pub fn repeated(
    algorithm: AlgorithmId,
    target: &TargetRatio,
    demand: u64,
    mixers: usize,
) -> Result<RepeatedBaseline, EngineError> {
    let tree = algorithm.build_graph(target)?;
    Ok(repeated_baseline(&tree, demand, mixers)?)
}

/// Relative gains of a streaming plan over a repeated baseline — the
/// quantities behind the paper's Table 3 ("MMS‖R", "SRS‖R").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Improvement {
    /// Completion-time reduction in percent (`(Tr - Tc) / Tr * 100`).
    pub time_pct: f64,
    /// Input-reactant reduction in percent (`(Ir - I) / Ir * 100`).
    pub input_pct: f64,
    /// Waste-droplet reduction in percent.
    pub waste_pct: f64,
    /// Additional storage units the streaming plan needs (`q - qr`).
    pub storage_delta: i64,
}

/// Computes the improvement of `plan` over `baseline`.
pub fn improvement_over_baseline(plan: &StreamPlan, baseline: &RepeatedBaseline) -> Improvement {
    let pct = |new: f64, old: f64| if old > 0.0 { (old - new) / old * 100.0 } else { 0.0 };
    Improvement {
        time_pct: pct(plan.total_cycles as f64, baseline.total_cycles as f64),
        input_pct: pct(plan.total_inputs as f64, baseline.total_inputs as f64),
        waste_pct: pct(plan.total_waste as f64, baseline.total_waste as f64),
        storage_delta: plan.storage_peak as i64 - baseline.storage as i64,
    }
}

impl fmt::Display for Improvement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ΔTc={:.1}% ΔI={:.1}% ΔW={:.1}% Δq={:+}",
            self.time_pct, self.input_pct, self.waste_pct, self.storage_delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, StreamingEngine};
    use dmf_mixalgo::{dilution_ratio, BITSCAN, DMRW, MINMIX, RMA};

    #[test]
    fn streaming_beats_repeated_mm_on_pcr() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
        let baseline = repeated(MINMIX, &target, 32, plan.mixers).unwrap();
        let imp = improvement_over_baseline(&plan, &baseline);
        // The paper reports ~72% time and ~75% reactant savings on average;
        // on the PCR mix the shape must clearly hold.
        assert!(imp.time_pct > 50.0, "ΔTc = {:.1}%", imp.time_pct);
        assert!(imp.input_pct > 50.0, "ΔI = {:.1}%", imp.input_pct);
        assert!(imp.waste_pct > 90.0, "ΔW = {:.1}%", imp.waste_pct);
        // The price is extra storage.
        assert!(imp.storage_delta >= 0);
    }

    #[test]
    fn repeated_baselines_rank_by_tree_waste() {
        // Ex.4 forces RMA's halving to fragment components, so RRMA spends
        // strictly more reactant than RMM (on the d=4 PCR mix they tie).
        let target = TargetRatio::new(vec![9, 17, 26, 9, 195]).unwrap();
        let rmm = repeated(MINMIX, &target, 32, 3).unwrap();
        let rrma = repeated(RMA, &target, 32, 3).unwrap();
        assert!(rrma.total_inputs > rmm.total_inputs);
    }

    #[test]
    fn dilution_streams_through_the_one_engine() {
        // The dilution engine (Roy et al., IET-CDT 2013) is MDST with N = 2:
        // 16 droplets of CF 5/16 on 2 mixers, per dilution algorithm.
        let target = dilution_ratio(5, 4).unwrap();
        let engine = |algorithm, mixers| {
            StreamingEngine::new(
                EngineConfig::default().with_algorithm(algorithm).with_mixers(mixers),
            )
        };
        for (algorithm, row) in [
            (BITSCAN, [15, 16, 0, 8, 40, 32]),
            (DMRW, [23, 16, 0, 13, 24, 32]),
            (MINMIX, [15, 16, 0, 8, 40, 32]),
        ] {
            let plan = engine(algorithm, 2).plan(&target, 16).unwrap();
            let base = repeated(algorithm, &target, 16, 2).unwrap();
            let got = [
                plan.total_mix_splits,
                plan.total_inputs,
                plan.total_waste,
                plan.total_cycles,
                base.total_inputs,
                base.total_cycles,
            ];
            assert_eq!(got, row, "{algorithm}: Tms/I/W/Tc/I_rep/Tc_rep");
            assert!(plan.total_inputs <= base.total_inputs, "{algorithm}");
            assert!(plan.total_cycles <= base.total_cycles, "{algorithm}");
        }

        // Droplet conservation for the subgraph-sharing DMRW: I = targets + W.
        let plan = engine(DMRW, 3).plan(&dilution_ratio(7, 5).unwrap(), 20).unwrap();
        let targets: u64 = plan.passes.iter().map(|p| p.forest.stats().targets() as u64).sum();
        assert!(targets >= 20);
        assert_eq!(plan.total_inputs, targets + plan.total_waste);

        // Pure buffer, pure sample and an out-of-range CF are not mixable.
        for k in [0, 16, 17] {
            let planned =
                dilution_ratio(k, 4).ok().and_then(|t| engine(BITSCAN, 1).plan(&t, 8).ok());
            assert!(planned.is_none(), "k={k}");
        }
    }
}
