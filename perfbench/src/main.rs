//! End-to-end and per-layer benchmark of dmfstream.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_chip|plan_multipass|serve_zipf> --seed <n> \
//!     --seconds <s> --trace <0|1> [--holdout-seed <n>]
//! ```
//!
//! `--workload all` runs every workload, each in a child process of its own
//! with `--trace 0` and then `--trace 1`, and prints one row per workload.
//!
//! `--trace 0` measures the end-to-end metrics with no per-layer timing.
//! `--trace 1` runs the workload untraced for half the time and traced
//! for the other half, and reports the per-layer metrics of the traced
//! half plus the tracing overhead between the two. Either way a table is
//! printed first and the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod gate;
mod gen;
mod plan_multipass;
mod serve_zipf;
mod stats;
mod stream_chip;
mod workload;

use dmfstream::obs::{json, Table};
use stats::{elapsed_ns, median, percentile, tail, Probe, TAIL_MIN_BEYOND};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Model, Phase, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Layers timed from outside, each reported as `<layer>.calls`,
/// `.busy_ms`, `.p50_ns` and `.busy_share`. Names follow the program's
/// own span names.
const LAYERS: [&str; 14] = [
    "ratio_approx",
    "engine_plan",
    "static_check",
    "route_dispense",
    "engine_realize",
    "sim_execute",
    "check_flow",
    "stage_build_tree",
    "stage_build_forest",
    "stage_schedule",
    "stage_split_passes",
    "plan_batch",
    "serve_decode",
    "serve_encode",
];

/// Workload-specific per-layer metrics; a workload that has no such
/// layer reports 0.
pub const PER_LAYER_EXTRAS: [(&str, &str); 8] = [
    ("engine_realize.instructions", "count"),
    ("sim_execute.ns_per_actuation", "ns"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.evictions", "count"),
    ("serve.server_p50_ns", "ns"),
    ("serve.wire_p50_ns", "ns"),
    ("serve.queue_depth_peak", "count"),
    ("serve.busy", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    holdout_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut holdout_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--holdout-seed" => holdout_seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
        holdout_seed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <stream_chip|plan_multipass|serve_zipf|all> \
                 --seed <n> --seconds <s> [--trace <0|1>] [--holdout-seed <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "stream_chip" => execute::<stream_chip::StreamChip>(&args),
        "plan_multipass" => execute::<plan_multipass::PlanMultipass>(&args),
        "serve_zipf" => execute::<serve_zipf::ServeZipf>(&args),
        "all" => run_all(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["stream_chip", "plan_multipass", "serve_zipf"];

/// Runs each workload untraced and traced in child processes (so each
/// has its own peak RSS) and prints the end-to-end metrics one row per
/// workload, then the per-layer metrics each workload exercised.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let mut e2e: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    let mut layers = Table::new(["workload", "metric", "value", "unit"]);
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let doc = json::parse(last).map_err(|e| {
                format!("{workload} --trace {trace} printed no result ({e}):\n{}", {
                    String::from_utf8_lossy(&out.stderr)
                })
            })?;
            correct &= out.status.success() && doc.get("correct") == Some(&json::Json::Bool(true));
            let Some(json::Json::Obj(metrics)) = doc.get("metrics") else {
                return Err(format!("{workload}: result has no metrics"));
            };
            if trace == "0" {
                let mut row = vec![workload.to_owned()];
                row.extend(metrics.values().map(|m| format!("{:.4}", metric_value(m))));
                e2e.push((
                    metrics.iter().map(|(k, m)| format!("{k} ({})", metric_unit(m))).collect(),
                    row,
                ));
            } else {
                // Only the layers this workload exercised.
                for (name, m) in metrics.iter().filter(|(_, m)| metric_value(m) != 0.0) {
                    layers.row([
                        workload.into(),
                        name.clone(),
                        metric_value(m).to_string(),
                        metric_unit(m).into(),
                    ]);
                }
            }
        }
    }
    let Some((header, _)) = e2e.first() else { return Err("no workload ran".into()) };
    let mut table =
        Table::new(std::iter::once("workload".to_owned()).chain(header.iter().cloned()));
    for (_, row) in &e2e {
        table.row(row.clone());
    }
    println!("{table}\n\n{layers}");
    Ok(correct)
}

fn metric_value(metric: &json::Json) -> f64 {
    match metric.get("value") {
        Some(json::Json::Num(v)) => *v,
        Some(json::Json::Int(v)) => *v as f64,
        _ => f64::NAN,
    }
}

fn metric_unit(metric: &json::Json) -> &str {
    metric.get("unit").and_then(json::Json::as_str).unwrap_or("")
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Sets the workload up, runs it, prints the table and the JSON line.
/// Returns whether every output was correct.
fn execute<W: Workload>(args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = bench.take() {
            previous.teardown()?;
        }
        let start = Instant::now();
        bench = Some(W::setup(args.seed)?);
        setups.push(elapsed_ns(start));
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    let budget = Duration::from_secs_f64(args.seconds);
    let mut notes = Vec::new();
    let (mut totals, metrics) = if args.trace {
        let base = bench.run(budget / 2, &mut Probe::off())?;
        let mut probe = Probe::on();
        let traced = bench.run(budget / 2, &mut probe)?;
        let layers = probe.into_layers();
        let model = bench.model();
        let mut metrics: Vec<Metric> = Vec::new();
        for layer in LAYERS {
            metrics.extend(layers.metrics(layer, traced.wall));
        }
        let extras = bench.extras(&layers, &traced);
        for (name, unit) in PER_LAYER_EXTRAS {
            metrics.push((name.to_owned(), extras.get(name).copied().unwrap_or(0.0), unit));
        }
        metrics.push(("electrode_actuations".into(), model.electrode_actuations as f64, "count"));
        let (p50_base, p50_traced) =
            (median(&base.latencies) as f64, median(&traced.latencies) as f64);
        metrics.push(("tracing_overhead".into(), p50_traced / p50_base.max(1.0) - 1.0, "ratio"));
        notes.push(format!(
            "tracing_overhead: traced p50 {:.4} ms over untraced p50 {:.4} ms",
            p50_traced / 1e6,
            p50_base / 1e6
        ));
        let mut totals = base;
        totals.merge(traced);
        let error_rate = totals.failed as f64 / totals.attempted.max(1) as f64;
        metrics.push(("error_rate".into(), error_rate, "ratio"));
        (totals, metrics)
    } else {
        let mut phase = bench.run(budget, &mut Probe::off())?;
        let model = bench.model();
        phase.latencies.sort_unstable();
        let t = tail(&phase.latencies, W::TAIL_PCT);
        notes.push(format!(
            "latency_p50_ms over {} samples; latency_tail_ms is p{} with {} samples beyond it",
            phase.latencies.len(),
            t.pct,
            t.beyond
        ));
        if t.beyond < TAIL_MIN_BEYOND {
            notes.push(format!(
                "warning: latency_tail_ms rests on {} samples beyond p{}, fewer than {TAIL_MIN_BEYOND}",
                t.beyond, t.pct
            ));
        }
        let secs = phase.wall.as_secs_f64().max(1e-9);
        let metrics: Vec<Metric> = vec![
            ("setup_s".into(), median(&setups) as f64 / 1e9, "s"),
            ("latency_p50_ms".into(), percentile(&phase.latencies, 50) as f64 / 1e6, "ms"),
            ("latency_tail_ms".into(), t.value as f64 / 1e6, "ms"),
            ("plans_per_s".into(), phase.plans as f64 / secs, "1/s"),
            ("droplets_per_s".into(), phase.droplets as f64 / secs, "1/s"),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
            ("mix_cycles".into(), model.mix_cycles as f64, "count"),
            ("waste_droplets".into(), model.waste_droplets as f64, "count"),
            ("input_droplets".into(), model.input_droplets as f64, "count"),
            ("passes".into(), model.passes as f64, "count"),
        ];
        (phase, metrics)
    };
    check_model_repeats(&args.workload, args.seed, &bench.model())?;
    if let Some(holdout) = args.holdout_seed {
        let mut held = W::setup(holdout)?;
        let phase = held.run(Duration::ZERO, &mut Probe::off())?;
        held.teardown()?;
        notes.push(format!(
            "held-out seed {holdout}: {} of {} operations failed the gate",
            phase.failed, phase.attempted
        ));
        totals.merge(phase);
    }
    bench.teardown()?;

    for e in &totals.errors {
        eprintln!("failed: {e}");
    }
    let correct = totals.failed == 0;
    let mut table = Table::new(["workload", "seed", "metric", "value", "unit"]);
    for (name, value, unit) in &metrics {
        table.row([
            args.workload.clone(),
            args.seed.to_string(),
            name.clone(),
            format!("{value}"),
            (*unit).to_owned(),
        ]);
    }
    println!("{table}");
    for note in notes {
        println!("{note}");
    }
    println!("gate: {} of {} operations failed", totals.failed, totals.attempted);
    println!("{}", result_json(correct, &totals, &metrics));
    Ok(correct)
}

/// The result line the benchmark contract asks for.
fn result_json(correct: bool, totals: &Phase, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        totals.attempted,
        totals.failed,
        body.join(",")
    )
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Compares this run's model counts with any earlier run of the same
/// binary, workload and seed: they must repeat exactly. Records are kept
/// beside the executable (inside the build directory).
fn check_model_repeats(workload: &str, seed: u64, model: &Model) -> Result<(), String> {
    let Ok(exe) = std::env::current_exe() else { return Ok(()) };
    let (Some(dir), Ok(meta)) = (exe.parent(), std::fs::metadata(&exe)) else { return Ok(()) };
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = dir.join("perfbench-model");
    let path = dir.join(format!("{built:x}-{}-{workload}-{seed}", meta.len()));
    let line = format!("{model:?}");
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == line => Ok(()),
        Ok(previous) => Err(format!(
            "model counts differ from an earlier run of this build and seed:\n  \
             before {previous}\n  now    {line}"
        )),
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, line))
            {
                eprintln!("warning: cannot record model counts at {}: {e}", path.display());
            }
            Ok(())
        }
    }
}
