//! Exact order statistics and per-layer timing.
//!
//! Every percentile here is read off the full sorted sample set
//! (nearest-rank), never from a bucketed histogram.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `pct` (1..=100) of an ascending-sorted slice:
/// the smallest sample with at least `pct`% of the samples at or below it.
/// Integer arithmetic, so `p99` of 1000 samples is exactly the 990th.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank median (p50) of unsorted samples, 0 for none.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50)
}

/// A latency tail: a fixed percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// The percentile.
    pub pct: u32,
    /// Its value.
    pub value: u64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Samples that should lie beyond a tail percentile for it to rest on
/// more than a handful of outliers; a run with fewer is flagged.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile `pct` of an ascending-sorted slice with the number of
/// samples ranked above it.
pub fn tail(sorted: &[u64], pct: u32) -> Tail {
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n.max(1));
    Tail { pct, value: percentile(sorted, pct), beyond: n.saturating_sub(rank) }
}

/// Host-time samples of the calls into each layer, keyed by layer name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Layers {
    /// Adds one call of `ns` nanoseconds to `layer`.
    pub fn record(&mut self, layer: &'static str, ns: u64) {
        self.samples.entry(layer).or_default().push(ns);
    }

    /// The four standard metrics of `layer` over a phase of `wall`:
    /// `calls`, `busy_ms`, `p50_ns` and `busy_share` (busy time over
    /// wall time). A layer the workload never called reports zeros.
    pub fn metrics(&self, layer: &str, wall: Duration) -> [(String, f64, &'static str); 4] {
        let mut sorted = self.samples.get(layer).cloned().unwrap_or_default();
        sorted.sort_unstable();
        let busy: u64 = sorted.iter().sum();
        let wall_ns = wall.as_nanos().max(1) as f64;
        [
            (format!("{layer}.calls"), sorted.len() as f64, "count"),
            (format!("{layer}.busy_ms"), busy as f64 / 1e6, "ms"),
            (format!("{layer}.p50_ns"), percentile(&sorted, 50) as f64, "ns"),
            (format!("{layer}.busy_share"), busy as f64 / wall_ns, "ratio"),
        ]
    }

    /// Total busy nanoseconds recorded for `layer` so far.
    pub fn busy_ns(&self, layer: &str) -> u64 {
        self.samples.get(layer).map_or(0, |s| s.iter().sum())
    }
}

/// Times calls into layers when tracing, and stays out of the way when
/// not: an untraced probe calls straight through.
#[derive(Debug, Default)]
pub struct Probe {
    layers: Option<Layers>,
}

impl Probe {
    /// A probe that times nothing (the end-to-end run).
    pub fn off() -> Self {
        Probe { layers: None }
    }

    /// A probe that records a sample per call (the traced run).
    pub fn on() -> Self {
        Probe { layers: Some(Layers::default()) }
    }

    /// Whether calls are being timed.
    pub fn is_on(&self) -> bool {
        self.layers.is_some()
    }

    /// Runs `f`, charging its host time to `layer` when tracing.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.layers {
            None => f(),
            Some(layers) => {
                let start = Instant::now();
                let out = f();
                layers.record(layer, elapsed_ns(start));
                out
            }
        }
    }

    /// Charges an externally measured duration to `layer` when tracing.
    pub fn record(&mut self, layer: &'static str, ns: u64) {
        if let Some(layers) = &mut self.layers {
            layers.record(layer, ns);
        }
    }

    /// The recorded samples (empty when not tracing).
    pub fn into_layers(self) -> Layers {
        self.layers.unwrap_or_default()
    }
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_rng::{SeedableRng, StdRng};

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50), 500);
        assert_eq!(percentile(&sorted, 90), 900);
        assert_eq!(percentile(&sorted, 95), 950);
        assert_eq!(percentile(&sorted, 99), 990);
        assert_eq!(percentile(&sorted, 100), 1000);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
        // Odd sizes round the rank up: p50 of 1..=5 is 3.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50), 3);
    }

    #[test]
    fn percentiles_match_a_brute_force_count_on_seeded_samples() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 9, 10, 99, 100, 101, 999, 1000, 4321] {
            let mut sorted: Vec<u64> = (0..n).map(|_| rng.next_u64() % 10_000).collect();
            sorted.sort_unstable();
            for pct in [50u32, 90, 95, 99] {
                let v = percentile(&sorted, pct);
                // At least pct% of samples are <= v, and fewer than pct%
                // are strictly below it.
                let at_or_below = sorted.iter().filter(|&&s| s <= v).count();
                let below = sorted.iter().filter(|&&s| s < v).count();
                assert!(at_or_below * 100 >= pct as usize * n, "n={n} p{pct}");
                assert!(below * 100 < pct as usize * n, "n={n} p{pct}");
            }
        }
    }

    #[test]
    fn median_is_the_nearest_rank_p50() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median(&[9, 1, 5, 7]), 5);
        assert_eq!(median(&[u64::MAX, u64::MAX]), u64::MAX);
    }

    #[test]
    fn tail_reports_its_percentile_and_the_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&sorted, 99), Tail { pct: 99, value: 990, beyond: 10 });
        assert_eq!(tail(&sorted, 95), Tail { pct: 95, value: 950, beyond: 50 });
        let sorted: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&sorted, 99), Tail { pct: 99, value: 990, beyond: 9 });
        assert_eq!(tail(&[4, 8], 95), Tail { pct: 95, value: 8, beyond: 0 });
        assert_eq!(tail(&[], 95).value, 0);
    }

    #[test]
    fn layer_metrics_sum_and_share() {
        let mut layers = Layers::default();
        for ns in [300, 100, 200] {
            layers.record("sim_execute", ns);
        }
        let m = layers.metrics("sim_execute", Duration::from_nanos(1200));
        assert_eq!(m[0], ("sim_execute.calls".to_owned(), 3.0, "count"));
        assert_eq!(m[1].1, 600.0 / 1e6);
        assert_eq!(m[2].1, 200.0);
        assert_eq!(m[3].1, 0.5);
        let idle = layers.metrics("check_flow", Duration::from_nanos(1200));
        assert!(idle.iter().all(|(_, v, _)| *v == 0.0));
    }
}
