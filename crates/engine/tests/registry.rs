//! Registry-dispatch and span-shape guarantees of the planner:
//!
//! * every seeded (algorithm, scheduler) pair plans the paper's five
//!   Table 2 protocols byte-identically whichever of its registered names
//!   (key, label, alias) the config was resolved from;
//! * each planner step emits exactly one span per run under its legacy
//!   name, correctly parented (every `stage_build_forest` and
//!   `stage_schedule` nests under the one `stage_split_passes`, for a
//!   single pass and for a multi-pass storage-limited plan), and bumps
//!   its counter once per span;
//! * a brand-new algorithm registered from the outside — no edits to
//!   `dmf-mixalgo` or the engine — reaches `PlanRequest::with_algorithm`
//!   and `plan_batch`.
//!
//! Every test here plans through the engine, and planning bumps the
//! process-global `dmf_obs` stage counters and spans that two of the tests
//! read back exactly, so the tests take [`PLANNING`] to run one at a time.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_engine::{plan_batch, BatchOptions, EngineConfig, PlanRequest, StreamingEngine};
use dmf_mixalgo::{
    AlgorithmEntry, AlgorithmId, Capabilities, MinMix, MixAlgoError, MixingAlgorithm, Template,
    ALGORITHMS,
};
use dmf_ratio::TargetRatio;
use dmf_sched::SCHEDULERS;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests of this binary that plan (see the module docs).
static PLANNING: Mutex<()> = Mutex::new(());

fn planning() -> MutexGuard<'static, ()> {
    PLANNING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The five Table 2 bioprotocol ratios (Ex.1–Ex.5, all `L = 256`).
fn table2_ratios() -> Vec<TargetRatio> {
    [
        vec![26, 21, 2, 2, 3, 3, 199],
        vec![128, 123, 5],
        vec![25, 5, 5, 5, 5, 13, 13, 25, 1, 159],
        vec![9, 17, 26, 9, 195],
        vec![57, 28, 6, 6, 6, 3, 150],
    ]
    .into_iter()
    .map(|parts| TargetRatio::new(parts).unwrap())
    .collect()
}

/// A plan's full observable surface: summary line, inputs, and per-pass
/// forest/schedule figures.
fn render(plan: &dmf_engine::StreamPlan) -> String {
    let mut out = format!("{plan}\nI[] = {:?}\n", plan.inputs);
    for pass in &plan.passes {
        out.push_str(&format!(
            "pass: D'={} Tc={} q={} nodes={}\n",
            pass.demand,
            pass.cycles(),
            pass.storage_units(),
            pass.forest.node_count()
        ));
    }
    out
}

#[test]
fn every_registered_name_plans_byte_identically() {
    let _planning = planning();
    for algorithm in ALGORITHMS.seeded() {
        for scheduler in SCHEDULERS.seeded() {
            let config =
                EngineConfig::default().with_algorithm(algorithm.id).with_scheduler(scheduler.id);
            let plans: Vec<String> = table2_ratios()
                .iter()
                .map(|ratio| render(&StreamingEngine::new(config).plan(ratio, 32).unwrap()))
                .collect();
            let aliases = algorithm.aliases.iter().copied();
            for algo_name in [algorithm.id.key(), algorithm.id.label()].into_iter().chain(aliases) {
                let resolved = EngineConfig::default()
                    .with_algorithm(ALGORITHMS.resolve(algo_name).unwrap())
                    .with_scheduler(SCHEDULERS.resolve(scheduler.id.label()).unwrap());
                assert_eq!(resolved, config);
                for (ratio, plan) in table2_ratios().iter().zip(&plans) {
                    let resolved_plan = StreamingEngine::new(resolved).plan(ratio, 32).unwrap();
                    assert_eq!(
                        &render(&resolved_plan),
                        plan,
                        "{algo_name}+{} diverged on {:?}",
                        scheduler.id,
                        ratio.parts()
                    );
                }
            }
        }
    }
}

#[test]
fn every_stage_emits_one_span_under_its_legacy_name() {
    let _planning = planning();
    dmf_obs::global().set_enabled(true);
    // Single pass: each stage runs once.
    assert_stage_span_tree(EngineConfig::default(), 1);
    // Multi-pass under q' = 3: the D' probes of both passes and the two
    // passes themselves build and schedule 16 forests, all of them inside
    // the one `stage_split_passes` span.
    assert_stage_span_tree(EngineConfig::default().with_storage_limit(3), 16);
}

/// Plans PCR D=20 under `config` inside a test root span and checks the
/// stage span tree: one `engine_plan`, `stage_build_tree` and
/// `stage_split_passes` each, `per_pass` forest and schedule spans all
/// parented under the split, and every `stage_*` counter advanced by its
/// span count.
fn assert_stage_span_tree(config: EngineConfig, per_pass: usize) {
    const STAGES: [&str; 4] =
        ["stage_build_tree", "stage_build_forest", "stage_schedule", "stage_split_passes"];
    let recorder = dmf_obs::global();
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let before = STAGES.map(|stage| recorder.counter(stage));
    let root = recorder.span("test_root");
    let (trace_id, root_id) = root.ids().unwrap();
    StreamingEngine::new(config).plan(&target, 20).unwrap();
    drop(root);
    let spans = recorder.trace_spans(trace_id);

    let find = |name: &str| -> Vec<&dmf_obs::SpanRecord> {
        spans.iter().filter(|s| s.name == name).collect()
    };
    let engine_plan = find("engine_plan");
    assert_eq!(engine_plan.len(), 1, "{spans:#?}");
    for (stage, expected) in STAGES.into_iter().zip([1, per_pass, per_pass, 1]) {
        assert_eq!(find(stage).len(), expected, "{stage} span count\n{spans:#?}");
    }
    for (stage, before) in STAGES.into_iter().zip(before) {
        let runs = find(stage).len() as u64;
        assert_eq!(recorder.counter(stage) - before, runs, "{stage} counter delta");
    }
    // Parenting: engine_plan under the root; build_tree and split_passes
    // under engine_plan; every per-pass forest/schedule stage under the
    // single split_passes span.
    assert_eq!(engine_plan[0].parent_id, root_id);
    let engine_id = engine_plan[0].span_id;
    assert_eq!(find("stage_build_tree")[0].parent_id, engine_id);
    let split = find("stage_split_passes")[0];
    assert_eq!(split.parent_id, engine_id);
    for stage in ["stage_build_forest", "stage_schedule"] {
        assert!(find(stage).iter().all(|s| s.parent_id == split.span_id), "{stage} parent");
    }
    // The base-tree construction span stays nested inside its stage.
    assert_eq!(
        find("mixalgo_build").first().map(|s| s.parent_id),
        Some(find("stage_build_tree")[0].span_id)
    );
}

#[test]
fn per_stage_counters_track_runs() {
    let _planning = planning();
    let recorder = dmf_obs::global();
    recorder.set_enabled(true);
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let before = recorder.counter("stage_build_tree");
    StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap();
    assert_eq!(recorder.counter("stage_build_tree"), before + 1);
}

/// A test-only algorithm that wraps MinMix under a new name — the
/// "register an algorithm without touching the engine" walkthrough of
/// DESIGN.md §17, exercised end to end.
struct MirrorMix;

impl MixingAlgorithm for MirrorMix {
    fn name(&self) -> &'static str {
        "MIRROR"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SDST_ONLY
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        MinMix.build_template(target)
    }
}

#[test]
fn an_outside_algorithm_reaches_the_engine_through_the_registry() {
    let _planning = planning();
    static MIRROR: MirrorMix = MirrorMix;
    ALGORITHMS
        .register(AlgorithmEntry {
            id: AlgorithmId::new("mirror", "MIRROR", &MIRROR),
            description: "test-only MinMix mirror",
            aliases: &["looking-glass"],
        })
        .unwrap();

    // Resolvable by key and alias; listed alongside the seeded baselines.
    let id = ALGORITHMS.resolve("looking-glass").unwrap();
    assert_eq!(id.key(), "mirror");
    assert!(ALGORITHMS.entries().iter().any(|e| e.id.key() == "mirror"));

    // Reaches plan_batch through PlanRequest::with_algorithm, and plans
    // byte-identically to the MinMix it mirrors.
    let target = TargetRatio::new(vec![26, 21, 2, 2, 3, 3, 199]).unwrap();
    let request = PlanRequest::new(target.clone(), 32).with_algorithm("mirror").unwrap();
    assert_eq!(request.config.algorithm.key(), "mirror");
    let plans = plan_batch(&[request], &BatchOptions::new());
    let mirrored = plans.into_iter().next().unwrap().unwrap();
    let minmix = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
    assert_eq!(render(&mirrored), render(&minmix));

    // Unknown names keep failing typed, now listing the newcomer too.
    let err = PlanRequest::new(target, 32).with_algorithm("nonesuch").unwrap_err();
    match err {
        dmf_engine::EngineError::UnknownAlgorithm(e) => {
            assert_eq!(e.name, "nonesuch");
            assert!(e.known.contains(&"mirror") && e.known.contains(&"mm"));
        }
        other => panic!("expected UnknownAlgorithm, got {other:?}"),
    }
}
