//! Shared harness for regenerating every table and figure of the DAC 2014
//! paper.
//!
//! Each `src/bin/*.rs` binary reproduces one exhibit:
//!
//! | binary | exhibit |
//! |--------|---------|
//! | `table1_scope` | Table 1 — capability taxonomy |
//! | `table2_examples` | Table 2 — Tc/q/I for Ex.1–Ex.5 across nine schemes |
//! | `table3_improvements` | Table 3 — average % improvements over the corpus |
//! | `table4_passes` | Table 4 — multi-pass PCR engine under storage budgets |
//! | `fig1_fig2` | Figs. 1–2 — forest construction stats |
//! | `fig3_fig4` | Figs. 3–4 — SRS schedule + Gantt chart |
//! | `fig5_layout` | Fig. 5 — layout, cost matrix, electrode actuations |
//! | `fig6_sweep` | Fig. 6 — avg Tc and I versus demand |
//! | `fig7_mixers` | Fig. 7 — Tc and q versus mixer count |
//!
//! The `benches/` directory carries micro-benchmarks for the construction,
//! scheduling, placement, routing and simulation layers, built on the
//! std-only [`micro`] harness (the build environment is offline, so no
//! external benchmarking framework is used).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// TODO(lint-wall): crate-wide exemption from the workspace
// `unwrap_used`/`expect_used`/`panic` deny wall. Offenders here predate the
// wall (documented-panic convenience constructors and provably-safe
// `expect`s); burn them down and drop this allow.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod micro;

use dmf_chip::CostMatrix;
use dmf_engine::{EngineConfig, MixerBudget, PassPlan, StreamPlan, StreamingEngine};
use dmf_mixalgo::{AlgorithmId, Capabilities, MinMix, MixingAlgorithm, ALGORITHMS};
use dmf_mixgraph::{NodeId, Operand};
use dmf_obs::json::{self, Json, Object};
use dmf_ratio::TargetRatio;
use dmf_sched::{mixer_lower_bound, SchedulerId, SCHEDULERS};

/// The nine evaluation schemes of Table 2, in column order A–I.
///
/// Schemes carry registry ids ([`AlgorithmId`] / [`SchedulerId`]), so any
/// registered algorithm can drive an exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Repeated base-tree passes (the paper's RMM / RRMA / RMTCS).
    Repeated(AlgorithmId),
    /// Streaming engine: forest seeded by the algorithm, scheduled by MMS
    /// or SRS.
    Streaming(AlgorithmId, SchedulerId),
}

/// The algorithms a Table 2 / Table 3 comparison sweeps: every registered
/// algorithm with the paper's SDST-only capability row — the MM/RMA/MTCS
/// baselines plus anything registered later with the same row. RSM (whose
/// capability row differs) and streaming-native algorithms stay out, as in
/// the paper.
pub fn sdst_baselines() -> Vec<AlgorithmId> {
    ALGORITHMS
        .entries()
        .into_iter()
        .filter(|e| e.id.capabilities() == Capabilities::SDST_ONLY)
        .map(|e| e.id)
        .collect()
}

impl Scheme {
    /// Table 2's column order: A=RMM, B=MM+MMS, C=MM+SRS, D=RRMA,
    /// E=RMA+MMS, F=RMA+SRS, G=RMTCS, H=MTCS+MMS, I=MTCS+SRS — built by
    /// sweeping [`sdst_baselines`] against every registered scheduler, so
    /// registering a new SDST algorithm (or scheduler) grows the table.
    pub fn table2_columns() -> Vec<Scheme> {
        let schedulers: Vec<SchedulerId> = SCHEDULERS.entries().into_iter().map(|e| e.id).collect();
        let mut columns = Vec::new();
        for algorithm in sdst_baselines() {
            columns.push(Scheme::Repeated(algorithm));
            for &scheduler in &schedulers {
                columns.push(Scheme::Streaming(algorithm, scheduler));
            }
        }
        columns
    }

    /// Short name ("RMM", "MM+MMS", …).
    pub fn name(&self) -> String {
        match self {
            Scheme::Repeated(a) => format!("R{}", a.label()),
            Scheme::Streaming(a, s) => format!("{}+{}", a.label(), s.label()),
        }
    }
}

/// The three figures of merit the paper tabulates per scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeResult {
    /// Completion time in cycles.
    pub cycles: u64,
    /// Storage units.
    pub storage: usize,
    /// Input reactant droplets.
    pub inputs: u64,
    /// Waste droplets.
    pub waste: u64,
}

/// Evaluates one scheme on one target, following the paper's protocol:
/// every scheme runs with the `Mlb` of the target's MinMix tree.
///
/// # Errors
///
/// Propagates engine failures (pure targets, scheduling errors).
pub fn run_scheme(
    scheme: Scheme,
    target: &TargetRatio,
    demand: u64,
) -> Result<SchemeResult, dmf_engine::EngineError> {
    let _span = dmf_obs::span!("bench_scheme");
    let mixers = minmix_mlb(target)?;
    match scheme {
        Scheme::Repeated(algorithm) => {
            let baseline = dmf_engine::repeated(algorithm, target, demand, mixers)?;
            Ok(SchemeResult {
                cycles: baseline.total_cycles,
                storage: baseline.storage,
                inputs: baseline.total_inputs,
                waste: baseline.total_waste,
            })
        }
        Scheme::Streaming(algorithm, scheduler) => {
            let config = EngineConfig {
                algorithm,
                scheduler,
                mixers: MixerBudget::Fixed(mixers),
                ..EngineConfig::default()
            };
            let plan = StreamingEngine::new(config).plan(target, demand)?;
            Ok(SchemeResult {
                cycles: plan.total_cycles,
                storage: plan.storage_peak,
                inputs: plan.total_inputs,
                waste: plan.total_waste,
            })
        }
    }
}

/// Evaluates many `(scheme, target, demand)` requests at once.
///
/// Streaming schemes are planned by [`dmf_engine::plan_batch`] — parallel
/// workers plus the supplied content-addressed plan cache, so duplicate
/// requests (the same target under the same scheme at the same demand)
/// are planned exactly once. Repeated baselines are closed-form and
/// evaluated inline. The `Mlb` mixer budget of each target's MinMix tree
/// is computed once per distinct target rather than once per request.
///
/// Results come back in input order, one slot per request, and are
/// byte-identical to calling [`run_scheme`] on each request in sequence.
pub fn run_schemes_batch(
    work: &[(Scheme, TargetRatio, u64)],
    jobs: Option<std::num::NonZeroUsize>,
    cache: &std::sync::Arc<dmf_engine::PlanCache>,
) -> Vec<Result<SchemeResult, dmf_engine::EngineError>> {
    use dmf_engine::{plan_batch, BatchOptions, PlanRequest};

    let _span = dmf_obs::span!("bench_scheme_batch");
    let mut mlb: std::collections::HashMap<(u32, Vec<u64>), usize> =
        std::collections::HashMap::new();
    let mut slots: Vec<Option<Result<SchemeResult, dmf_engine::EngineError>>> = Vec::new();
    slots.resize_with(work.len(), || None);
    let mut requests: Vec<PlanRequest> = Vec::new();
    let mut request_slots: Vec<usize> = Vec::new();
    for (i, (scheme, target, demand)) in work.iter().enumerate() {
        let key = (target.accuracy(), target.parts().to_vec());
        let mixers = match mlb.get(&key) {
            Some(&m) => m,
            None => match minmix_mlb(target) {
                Ok(m) => {
                    mlb.insert(key, m);
                    m
                }
                Err(e) => {
                    slots[i] = Some(Err(e));
                    continue;
                }
            },
        };
        match *scheme {
            Scheme::Repeated(algorithm) => {
                slots[i] = Some(dmf_engine::repeated(algorithm, target, *demand, mixers).map(
                    |baseline| SchemeResult {
                        cycles: baseline.total_cycles,
                        storage: baseline.storage,
                        inputs: baseline.total_inputs,
                        waste: baseline.total_waste,
                    },
                ));
            }
            Scheme::Streaming(algorithm, scheduler) => {
                let config = EngineConfig {
                    algorithm,
                    scheduler,
                    mixers: MixerBudget::Fixed(mixers),
                    ..EngineConfig::default()
                };
                requests.push(PlanRequest::new(target.clone(), *demand).with_config(config));
                request_slots.push(i);
            }
        }
    }
    let mut options = BatchOptions::new().with_cache(std::sync::Arc::clone(cache));
    if let Some(jobs) = jobs {
        options = options.with_jobs(jobs);
    }
    for (slot, outcome) in request_slots.into_iter().zip(plan_batch(&requests, &options)) {
        slots[slot] = Some(outcome.map(|plan| SchemeResult {
            cycles: plan.total_cycles,
            storage: plan.storage_peak,
            inputs: plan.total_inputs,
            waste: plan.total_waste,
        }));
    }
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                Err(dmf_engine::EngineError::Internal { what: "batch slot unfilled".into() })
            })
        })
        .collect()
}

/// `Mlb` of the target's MinMix tree — the mixer budget every Table 2
/// scheme runs with.
fn minmix_mlb(target: &TargetRatio) -> Result<usize, dmf_engine::EngineError> {
    let mm = MinMix.build_graph(target)?;
    Ok(mixer_lower_bound(&mm)?)
}

/// Enables the global [`dmf_obs`] recorder when the `DMF_OBS` environment
/// variable is set (to anything but `0`) and returns the JSONL export path
/// for the calling exhibit binary, `results/obs/<exhibit>.jsonl`.
///
/// Exhibit binaries call this at startup and pass the path to
/// [`export_obs`] before exiting.
pub fn obs_from_env(exhibit: &str) -> Option<std::path::PathBuf> {
    if std::env::var_os("DMF_OBS").is_some_and(|v| v != "0") {
        dmf_obs::global().set_enabled(true);
        Some(std::path::PathBuf::from(format!("results/obs/{exhibit}.jsonl")))
    } else {
        None
    }
}

/// Dumps the global recorder as JSON lines to `path` and prints the
/// human-readable [`dmf_obs::MetricsReport`] summary.
pub fn export_obs(path: &std::path::Path) {
    match dmf_obs::global().export_jsonl_path(path) {
        Ok(()) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("error: cannot write metrics to {}: {e}", path.display()),
    }
    println!("\n{}", dmf_obs::MetricsReport::from_recorder(dmf_obs::global()));
}

/// Writes a `BENCH_*.json` exhibit to `path` as one JSON line, creating
/// its directory, and prints `wrote <path>`.
///
/// # Errors
///
/// The write failure, naming the path.
pub fn write_exhibit(path: &str, exhibit: Object) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, exhibit.finish() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Reads and parses the committed baseline exhibit at `path`, which a
/// gate compares its fresh figures against.
///
/// # Errors
///
/// A missing, unreadable or malformed baseline, naming the path.
pub fn read_baseline(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read the committed baseline {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("committed baseline {path}: {e}"))
}

/// Builds the default streaming plan (used by several exhibits).
///
/// # Errors
///
/// Propagates engine failures.
pub fn default_plan(
    target: &TargetRatio,
    demand: u64,
) -> Result<StreamPlan, dmf_engine::EngineError> {
    StreamingEngine::new(EngineConfig::default()).plan(target, demand)
}

/// Module-level droplet-transport cost of a scheduled pass against a named
/// [`CostMatrix`] (such as the paper's Fig. 5 matrix): dispenses, direct
/// hand-offs, storage round-trips and waste disposal are charged at the
/// matrix's electrode counts. Target emission carries no matrix column and
/// is charged zero, as in the paper.
///
/// Mirrors the storage-allocation policy of the physical realizer
/// (nearest free cell), so the estimate is consistent with simulation.
pub fn matrix_transport_cost(pass: &PassPlan, matrix: &CostMatrix) -> u64 {
    let mixer_names: Vec<String> = matrix.mixers().to_vec();
    let storage_names: Vec<String> =
        matrix.rows().iter().filter(|r| r.starts_with('q')).cloned().collect();
    let waste_names: Vec<String> =
        matrix.rows().iter().filter(|r| r.starts_with('W')).cloned().collect();
    let mixer_of = |n: NodeId| mixer_names[pass.schedule.mixer_of(n).0 % mixer_names.len()].clone();
    let mut total = 0u64;
    let mut storage_free: Vec<bool> = vec![true; storage_names.len()];
    // Where each produced droplet currently sits: (producer, droplet slot).
    let mut stored_at: std::collections::HashMap<(NodeId, usize), usize> =
        std::collections::HashMap::new();
    let cost = |a: &str, b: &str| matrix.cost_between(a, b).unwrap_or(0) as u64;

    // Consumers ordered by consumption cycle, as in the realizer.
    let ordered_consumers = |n: NodeId| {
        let mut consumers = pass.forest.consumers(n).to_vec();
        consumers.sort_by_key(|&c| (pass.schedule.cycle_of(c), c));
        consumers
    };

    for t in 1..=pass.schedule.makespan() {
        for (_, node) in pass.schedule.cycle_contents(t) {
            let mixer = mixer_of(node);
            // Gather operands.
            for op in pass.forest.node(node).operands() {
                match op {
                    Operand::Input(f) => {
                        total += cost(&format!("R{}", f.0 + 1), &mixer);
                    }
                    Operand::Droplet(src) => {
                        // Which slot of src feeds us?
                        let consumers = ordered_consumers(src);
                        let slot = consumers
                            .iter()
                            .position(|&c| c == node)
                            .expect("operand edge implies consumption");
                        if let Some(cell) = stored_at.remove(&(src, slot)) {
                            total += cost(&storage_names[cell], &mixer);
                            storage_free[cell] = true;
                        } else {
                            // Direct hand-off from the producer's mixer.
                            total += cost(&mixer_of(src), &mixer);
                        }
                    }
                }
            }
            // Dispatch outputs.
            let consumers = ordered_consumers(node);
            for slot in 0..2usize {
                match consumers.get(slot) {
                    Some(&c) => {
                        if pass.schedule.cycle_of(c) > t + 1 && !storage_names.is_empty() {
                            // Park in the nearest free storage cell.
                            let mut best: Option<(u64, usize)> = None;
                            for (i, free) in storage_free.iter().enumerate() {
                                if !free {
                                    continue;
                                }
                                let d = cost(&mixer, &storage_names[i]);
                                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                                    best = Some((d, i));
                                }
                            }
                            if let Some((d, i)) = best {
                                total += d;
                                storage_free[i] = false;
                                stored_at.insert((node, slot), i);
                            }
                            // No free cell: the droplet notionally waits at
                            // its producer mixer and is charged as a direct
                            // hand-off at consumption — a benign
                            // under-estimate that only triggers when the
                            // schedule's q exceeds the matrix's cells.
                        }
                        // Direct hand-offs are charged at consumption time.
                    }
                    None => {
                        if !pass.forest.is_root(node) {
                            // Nearest waste reservoir.
                            total += waste_names.iter().map(|w| cost(&mixer, w)).min().unwrap_or(0);
                        }
                        // Targets leave at the mixer-adjacent output (no
                        // matrix column; charged zero like the paper).
                    }
                }
            }
        }
    }
    total
}

/// Formats a row of right-aligned cells under `width` columns.
pub fn row(cells: &[String], width: usize) -> String {
    cells.iter().map(|c| format!("{c:>width$}")).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_workloads::protocols;

    #[test]
    fn table2_has_nine_columns() {
        let columns = Scheme::table2_columns();
        assert_eq!(columns.len(), 9);
        assert_eq!(columns[0].name(), "RMM");
        assert_eq!(columns[4].name(), "RMA+MMS");
        assert_eq!(columns[8].name(), "MTCS+SRS");
    }

    #[test]
    fn repeated_mm_matches_paper_tr_128() {
        // Table 2 column A: every L = 256 example costs 16 passes x 8
        // cycles = 128 under RMM.
        for protocol in protocols::table2_examples() {
            let r = run_scheme(Scheme::Repeated(dmf_mixalgo::MINMIX), &protocol.ratio, 32).unwrap();
            assert_eq!(r.cycles, 128, "{}", protocol.id);
        }
    }

    #[test]
    fn streaming_never_worse_than_repeated_same_algorithm() {
        for protocol in protocols::table2_examples() {
            for algorithm in sdst_baselines() {
                let repeated =
                    run_scheme(Scheme::Repeated(algorithm), &protocol.ratio, 32).unwrap();
                for scheduler in [dmf_sched::MMS, dmf_sched::SRS] {
                    let streaming =
                        run_scheme(Scheme::Streaming(algorithm, scheduler), &protocol.ratio, 32)
                            .unwrap();
                    assert!(streaming.cycles <= repeated.cycles, "{}", protocol.id);
                    assert!(streaming.inputs <= repeated.inputs, "{}", protocol.id);
                }
            }
        }
    }

    #[test]
    fn fig5_matrix_cost_is_positive_and_smaller_than_repeated() {
        let target = dmf_ratio::TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let matrix = CostMatrix::fig5_pcr();
        let plan = default_plan(&target, 20).unwrap();
        let streaming_cost = matrix_transport_cost(&plan.passes[0], &matrix);
        assert!(streaming_cost > 0);
        // Repeated MM as ten demand-2 passes.
        let single = default_plan(&target, 2).unwrap();
        let repeated_cost = 10 * matrix_transport_cost(&single.passes[0], &matrix);
        assert!(
            streaming_cost < repeated_cost,
            "streaming {streaming_cost} vs repeated {repeated_cost}"
        );
    }
}
