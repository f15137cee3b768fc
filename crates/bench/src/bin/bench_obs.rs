//! Tracing-overhead exhibit: the same cold-planning sweep with the span
//! recorder disabled versus enabled.
//!
//! The disabled recorder must cost next to nothing (one relaxed atomic
//! load per `span!` site) and the enabled recorder must stay cheap enough
//! to leave on in production serving. Prints both wall times and writes
//! the figures as JSON to `results/BENCH_obs.json` (override the path
//! with the first argument). Exits non-zero if enabling tracing
//! slows the sweep by more than the gate.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_engine::{EngineConfig, StreamingEngine};
use dmf_obs::json::Fixed;
use dmf_obs::json_object;
use dmf_ratio::TargetRatio;
use dmf_workloads::protocols;
use std::process::ExitCode;
use std::time::Instant;

/// Maximum tolerated slowdown of the enabled-tracer sweep, percent.
const MAX_OVERHEAD_PCT: f64 = 10.0;

/// Interleaved rounds; each request keeps its fastest time on each side,
/// so a scheduler interruption costs one sample of one request instead of
/// poisoning a whole sweep — on a shared single-core box, whole-sweep
/// walls swing far more than the per-span cost being measured.
const ROUNDS: usize = 15;

fn plan_ns(engine: &StreamingEngine, target: &TargetRatio, demand: u64) -> u64 {
    let t = Instant::now();
    std::hint::black_box(engine.plan(target, demand).unwrap());
    t.elapsed().as_nanos() as u64
}

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "results/BENCH_obs.json".into());
    let targets: Vec<(TargetRatio, u64)> = protocols::table2_examples()
        .into_iter()
        .flat_map(|p| [16u64, 32].map(|d| (p.ratio.clone(), d)))
        .collect();
    let recorder = dmf_obs::global();
    let engine = StreamingEngine::new(EngineConfig::default());

    // Warm up allocators and code paths once on each side.
    recorder.set_enabled(false);
    for (target, demand) in &targets {
        plan_ns(&engine, target, *demand);
    }
    recorder.set_enabled(true);
    for (target, demand) in &targets {
        plan_ns(&engine, target, *demand);
    }

    let mut disabled_min = vec![u64::MAX; targets.len()];
    let mut enabled_min = vec![u64::MAX; targets.len()];
    let mut spans_per_sweep = 0u64;
    for _ in 0..ROUNDS {
        recorder.set_enabled(false);
        for (i, (target, demand)) in targets.iter().enumerate() {
            disabled_min[i] = disabled_min[i].min(plan_ns(&engine, target, *demand));
        }
        // A fresh window per round so eviction never skews the timing.
        recorder.reset();
        recorder.set_enabled(true);
        for (i, (target, demand)) in targets.iter().enumerate() {
            enabled_min[i] = enabled_min[i].min(plan_ns(&engine, target, *demand));
        }
        spans_per_sweep = recorder.snapshot().spans.len() as u64;
    }
    recorder.set_enabled(false);
    let disabled_ns: u64 = disabled_min.iter().sum();
    let enabled_ns: u64 = enabled_min.iter().sum();

    let overhead_pct = (enabled_ns as f64 - disabled_ns as f64) * 100.0 / disabled_ns.max(1) as f64;
    println!(
        "cold-plan sweep over {} requests: tracing off {disabled_ns} ns, \
         tracing on {enabled_ns} ns ({overhead_pct:+.2}% overhead, {spans_per_sweep} spans/sweep)",
        targets.len(),
    );

    let exhibit = json_object!("suite": "obs", "requests": targets.len(), "rounds": ROUNDS,
        "tracing_off_wall_ns": disabled_ns, "tracing_on_wall_ns": enabled_ns,
        "overhead_pct": Fixed(overhead_pct, 2), "spans_per_sweep": spans_per_sweep,
        "gate_max_overhead_pct": Fixed(MAX_OVERHEAD_PCT, 1));
    if let Err(e) = dmf_bench::write_exhibit(&out_path, exhibit) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("tracing overhead: {overhead_pct:.2}% (gate: <= {MAX_OVERHEAD_PCT:.0}%)");
    if overhead_pct > MAX_OVERHEAD_PCT {
        eprintln!("error: enabled tracing costs {overhead_pct:.2}%, over the gate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
