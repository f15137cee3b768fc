//! Planner micro-benchmark exhibit: cold planning versus warm-cache
//! lookups, and a batch wall-time curve at 1/2/4/8 workers against the
//! sharded plan cache.
//!
//! Prints a [`dmf_bench::micro`] summary table and writes the figures as
//! JSON to `results/BENCH_plan.json` (override the path with the first
//! argument). Before writing, it reads the committed
//! `results/BENCH_plan.json`, which must carry a `jobs_curve`. Every gate
//! failure exits non-zero:
//!
//! - a warm-cache plan must be at least 10x faster than a cold plan —
//!   the gate the cache exists to win;
//! - the warm-cache speedup must reach at least half of the committed
//!   one (machine-noise tolerance);
//! - the batch behind the jobs curve must hold at least 500 requests;
//! - the jobs curve must show parallel planning paying off, scaled to the
//!   machine: with >= 4 hardware threads, `--jobs 4` must halve the
//!   `--jobs 1` wall time; on narrower machines (where a 2x parallel
//!   speedup is physically impossible) `--jobs 4` must at least not lose
//!   to `--jobs 1` beyond scheduler noise — the original regression this
//!   curve guards against was jobs=4 running 16% *slower* than serial on
//!   one core because every request serialized on a single cache mutex.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_bench::micro::{MicroBench, MicroStats};
use dmf_engine::{plan_batch, BatchOptions, EngineConfig, PlanCache, PlanRequest, StreamingEngine};
use dmf_obs::json::{Fixed, Json, Object};
use dmf_obs::json_object;
use dmf_ratio::TargetRatio;
use dmf_workloads::protocols;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

/// The committed exhibit the fresh run is gated against.
const BASELINE: &str = "results/BENCH_plan.json";

/// The minimum cold/warm latency ratio the cache must deliver.
const REQUIRED_SPEEDUP: f64 = 10.0;

/// The share of the committed warm-cache speedup a fresh run must reach.
const REQUIRED_SHARE_OF_BASELINE: f64 = 0.5;

/// The fewest batch requests that make the jobs curve meaningful.
const REQUIRED_BATCH_REQUESTS: usize = 500;

/// The worker counts the batch curve records.
const JOBS_CURVE: [usize; 4] = [1, 2, 4, 8];

/// With at least this many hardware threads, `--jobs 4` must beat
/// `--jobs 1` by [`REQUIRED_PARALLEL_SPEEDUP`].
const PARALLEL_GATE_THREADS: usize = 4;

/// The jobs=1 / jobs=4 wall-time ratio required on wide machines.
const REQUIRED_PARALLEL_SPEEDUP: f64 = 2.0;

/// On narrow machines, how much slower than serial `--jobs 4` may run
/// before it counts as a regression. Four workers timeslicing one core
/// measure 1.06-1.09x of serial on a quiet box; the mutex-serialized
/// regression this gate exists to catch measured 1.16x.
const SERIAL_NOISE_TOLERANCE: f64 = 1.15;

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| BASELINE.into());
    // Read the baseline first: the default output path overwrites it.
    let baseline = match dmf_bench::read_baseline(BASELINE) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(baseline_speedup) = baseline.get("warm_speedup").and_then(Json::as_f64) else {
        eprintln!("error: committed {BASELINE} has no numeric warm_speedup");
        return ExitCode::FAILURE;
    };
    if !matches!(baseline.get("batch").and_then(|b| b.get("jobs_curve")), Some(Json::Arr(_))) {
        eprintln!("error: committed {BASELINE} is missing the jobs_curve");
        return ExitCode::FAILURE;
    }
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let demand = 20u64;
    let mut bench = MicroBench::new("plan: cold vs warm cache");

    // Cold: a full pipeline run (tree, forest, schedule, pass split).
    let cold_engine = StreamingEngine::new(EngineConfig::default());
    let cold =
        bench.bench("plan_cold (PCR d4, D=20)", || cold_engine.plan(&target, demand).unwrap());

    // Warm: the same request against a warmed cache — one lookup plus an
    // `Arc` clone.
    let warm_engine = StreamingEngine::new(EngineConfig::default()).with_cache(PlanCache::shared());
    warm_engine.plan_shared(&target, demand).unwrap();
    let warm =
        bench.bench("plan_warm (cache hit)", || warm_engine.plan_shared(&target, demand).unwrap());
    bench.finish();

    // Batch wall time over the five Table 2 protocols plus a synthetic
    // corpus sample. Every key is distinct, so a fresh sharded cache per
    // measurement means every worker does real planning work (miss +
    // store through the sharded write path) with no cross-round warmth.
    let requests: Vec<PlanRequest> = protocols::table2_examples()
        .into_iter()
        .map(|p| p.ratio)
        .chain(dmf_workloads::synthetic::sampled_corpus(250, 2014))
        .flat_map(|ratio| [16u64, 32].map(|d| PlanRequest::new(ratio.clone(), d)))
        .collect();
    let wall_ns = |jobs: usize| {
        let options = BatchOptions::new()
            .with_jobs(NonZeroUsize::new(jobs).unwrap())
            .with_cache(PlanCache::shared());
        let t = Instant::now();
        // Corpus ratios that cannot plan (pure targets) count as work too;
        // the comparison only needs every jobs value to do the same work.
        std::hint::black_box(plan_batch(&requests, &options));
        t.elapsed().as_nanos() as u64
    };
    // Interleave a few rounds and keep the fastest of each, so scheduler
    // noise cannot favour any point on the curve.
    let mut curve = [u64::MAX; JOBS_CURVE.len()];
    for _ in 0..5 {
        for (slot, &jobs) in curve.iter_mut().zip(JOBS_CURVE.iter()) {
            *slot = (*slot).min(wall_ns(jobs));
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let jobs1_ns = curve[0];
    let jobs4_ns = curve[2];
    println!("\nplan_batch over {} requests ({parallelism} hardware threads):", requests.len());
    for (&jobs, &ns) in JOBS_CURVE.iter().zip(curve.iter()) {
        println!("  jobs={jobs} {ns} ns ({:.2}x vs jobs=1)", jobs1_ns as f64 / ns.max(1) as f64);
    }

    let speedup = cold.mean_ns as f64 / warm.mean_ns.max(1) as f64;
    let curve_json: Vec<Object> = JOBS_CURVE
        .iter()
        .zip(curve.iter())
        .map(|(&jobs, &ns)| json_object!("jobs": jobs, "wall_ns": ns))
        .collect();
    let ns_stats =
        |m: &MicroStats| json_object!("min": m.min_ns, "mean": m.mean_ns, "max": m.max_ns);
    let batch = json_object!("requests": requests.len(), "parallelism": parallelism,
        "jobs1_wall_ns": jobs1_ns, "jobs4_wall_ns": jobs4_ns, "jobs_curve": curve_json);
    let exhibit = json_object!("suite": "plan", "target": "2:1:1:1:1:1:9", "demand": demand,
        "cold_plan_ns": ns_stats(&cold), "warm_cache_plan_ns": ns_stats(&warm),
        "warm_speedup": Fixed(speedup, 1), "batch": batch);
    if let Err(e) = dmf_bench::write_exhibit(&out_path, exhibit) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Parallel gate, scaled to the machine: a 2x speedup at jobs=4 needs
    // four hardware threads; on narrower machines, where it is physically
    // impossible, jobs=4 must instead not lose to serial beyond noise.
    let parallel_speedup = jobs1_ns as f64 / jobs4_ns.max(1) as f64;
    let required_parallel = if parallelism >= PARALLEL_GATE_THREADS {
        REQUIRED_PARALLEL_SPEEDUP
    } else {
        1.0 / SERIAL_NOISE_TOLERANCE
    };
    let gates = [
        (
            speedup >= REQUIRED_SPEEDUP,
            format!("warm-cache speedup {speedup:.1}x (required: >= {REQUIRED_SPEEDUP:.0}x)"),
        ),
        (
            speedup >= baseline_speedup * REQUIRED_SHARE_OF_BASELINE,
            format!(
                "warm-cache speedup {speedup:.1}x vs the committed {baseline_speedup:.1}x \
                 (required: >= {REQUIRED_SHARE_OF_BASELINE} of it)"
            ),
        ),
        (
            requests.len() >= REQUIRED_BATCH_REQUESTS,
            format!("{} batch requests (required: >= {REQUIRED_BATCH_REQUESTS})", requests.len()),
        ),
        (
            parallel_speedup >= required_parallel,
            format!(
                "parallel speedup (jobs=4 vs jobs=1) {parallel_speedup:.2}x on {parallelism} \
                 hardware threads (required: >= {required_parallel:.2}x)"
            ),
        ),
    ];
    let mut code = ExitCode::SUCCESS;
    for (passed, gate) in gates {
        if passed {
            println!("ok: {gate}");
        } else {
            eprintln!("error: {gate}");
            code = ExitCode::FAILURE;
        }
    }
    code
}
