//! The correctness gate. Each check returns `Err(reason)`; a workload
//! counts a failed check as a failed operation, except the paper oracle,
//! whose mismatch fails the whole run.

use dmfstream::check::CheckReport;
use dmfstream::engine::{PassPlan, StreamPlan};
use dmfstream::sim::SimReport;

/// PCR-d4 (`2:1:1:1:1:1:9`) at D = 20, paper Figs. 2–4:
/// `(Tc, Tms, W, I, q)`.
pub const PAPER_ORACLE: (u64, u64, u64, u64, usize) = (11, 27, 5, 25, 5);

/// The paper oracle: the PCR-d4 D = 20 plan has exactly the published
/// cycle, mix-split, waste, input and storage counts.
pub fn paper_oracle(plan: &StreamPlan) -> Result<(), String> {
    let got = (
        plan.total_cycles,
        plan.total_mix_splits,
        plan.total_waste,
        plan.total_inputs,
        plan.storage_peak,
    );
    if got == PAPER_ORACLE {
        Ok(())
    } else {
        Err(format!(
            "paper oracle PCR-d4 D=20: (Tc, Tms, W, I, q) = {got:?}, want {PAPER_ORACLE:?}"
        ))
    }
}

/// A checker report with no error-severity finding.
pub fn clean(what: &str, report: &CheckReport) -> Result<(), String> {
    if report.error_count() == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {} error(s)\n{}", report.error_count(), report.table()))
    }
}

/// The simulated pass matches the plan's ledger for it: storage peak,
/// waste, mix-splits, dispensed inputs and emitted targets.
pub fn pass_ledger(pass: &PassPlan, report: &SimReport) -> Result<(), String> {
    let stats = pass.forest.stats();
    let want = [
        ("storage_peak", pass.storage_units() as u64),
        ("waste", stats.waste as u64),
        ("mix_splits", stats.mix_splits as u64),
        ("dispensed", stats.input_total),
        ("emitted", 2 * stats.trees as u64),
    ];
    let got = [
        report.storage_peak as u64,
        report.discarded,
        report.mix_splits,
        report.dispensed,
        report.emitted,
    ];
    for ((name, want), got) in want.into_iter().zip(got) {
        if want != got {
            return Err(format!("simulated {name} = {got}, plan ledger says {want}"));
        }
    }
    Ok(())
}

/// A storage-constrained plan keeps every pass within the budget `limit`
/// (q') and its passes together deliver at least the demand.
pub fn multipass_fit(plan: &StreamPlan, limit: usize, demand: u64) -> Result<(), String> {
    if let Some((i, pass)) = plan.passes.iter().enumerate().find(|(_, p)| p.storage_units() > limit)
    {
        return Err(format!("pass {} needs q={} > budget {limit}", i + 1, pass.storage_units()));
    }
    let delivered: u64 = plan.passes.iter().map(|p| p.demand).sum();
    if delivered < demand {
        return Err(format!("passes deliver {delivered} < D={demand}"));
    }
    Ok(())
}

/// A served line is byte-equal to the locally computed response.
pub fn response(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("served {got:?}, local plan_response is {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfstream::chip::presets::streaming_chip;
    use dmfstream::engine::{realize_pass, EngineConfig, StreamingEngine};
    use dmfstream::ratio::TargetRatio;
    use dmfstream::serve::protocol::plan_response;
    use dmfstream::sim::Simulator;

    fn pcr_d20() -> StreamPlan {
        let ratio = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        StreamingEngine::new(EngineConfig::default()).plan(&ratio, 20).unwrap()
    }

    #[test]
    fn paper_oracle_holds_and_trips() {
        let mut plan = pcr_d20();
        paper_oracle(&plan).unwrap();
        plan.total_waste += 1;
        assert!(paper_oracle(&plan).is_err());
    }

    #[test]
    fn a_corrupted_sim_report_trips_the_ledger_check() {
        let plan = pcr_d20();
        let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
        let pass = &plan.passes[0];
        let program = realize_pass(pass, &chip).unwrap();
        let report = Simulator::new(&chip).run(&program).unwrap();
        pass_ledger(pass, &report).unwrap();
        let corruptions: [fn(&mut SimReport); 5] = [
            |r| r.storage_peak += 1,
            |r| r.discarded -= 1,
            |r| r.mix_splits += 1,
            |r| r.dispensed += 2,
            |r| r.emitted -= 2,
        ];
        for corrupt in corruptions {
            let mut bad = report.clone();
            corrupt(&mut bad);
            assert!(pass_ledger(pass, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_corrupted_response_line_trips_the_response_check() {
        let plan = pcr_d20();
        let line = plan_response(&plan, 0x1234);
        response(&line, &line).unwrap();
        let flipped = line.replacen("\"waste\":5", "\"waste\":6", 1);
        assert_ne!(flipped, line);
        assert!(response(&flipped, &line).is_err());
        assert!(response(&line[..line.len() - 1], &line).is_err());
    }

    #[test]
    fn multipass_fit_checks_budget_and_demand() {
        let ratio = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let engine = StreamingEngine::new(EngineConfig::default().with_storage_limit(3));
        let plan = engine.plan(&ratio, 32).unwrap();
        assert!(plan.passes.len() > 1);
        multipass_fit(&plan, 3, 32).unwrap();
        assert!(multipass_fit(&plan, 2, 32).is_err());
        assert!(multipass_fit(&plan, 3, 1000).is_err());
    }
}
