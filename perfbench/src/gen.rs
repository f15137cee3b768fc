//! Seeded input generation. The same seed gives the same inputs; the
//! program under test only ever sees the generated ratios and demands.

use dmf_rng::{Rng, SeedableRng, StdRng};
use dmfstream::check::check_feasibility;
use dmfstream::ratio::TargetRatio;
use dmfstream::workloads::protocols;
use dmfstream::workloads::synthetic::sampled_corpus;

/// Demands every workload draws from.
pub const DEMANDS: [u64; 3] = [20, 64, 256];

/// An independent, reproducible generator for sub-stream `lane` of
/// `seed` (one per client thread and phase).
pub fn lane_rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (lane << 32))
}

/// One `stream_chip` target: a real-valued composition, the accuracy it
/// is approximated at, and the droplet demand.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTarget {
    /// Where the target comes from (`Ex.3`, `PCR-d4`, `mix7`, …).
    pub label: String,
    /// Volume weights handed to `TargetRatio::approximate`.
    pub weights: Vec<f64>,
    /// Accuracy `d` (ratio sum `2^d`).
    pub accuracy: u32,
    /// Target droplets `D`.
    pub demand: u64,
}

impl StreamTarget {
    /// Whether this is the paper's PCR-d4 at D = 20 oracle target.
    pub fn is_paper_oracle(&self) -> bool {
        self.label == "PCR-d4" && self.demand == 20
    }
}

/// Targets at the head of [`stream_targets`] that no seed changes: the
/// five Table 2 protocols and PCR-d4, each at every demand.
pub const FIXED_TARGETS: usize = 6 * DEMANDS.len();

/// The `stream_chip` inputs: the [`FIXED_TARGETS`] protocol targets, then
/// `compositions` seeded real-valued mixtures.
/// Accuracy, demand and fluid count of the seeded ones follow their index,
/// so the seed moves only the composition itself.
pub fn stream_targets(seed: u64, compositions: usize) -> Vec<StreamTarget> {
    let mut fixed = protocols::table2_examples();
    fixed.push(protocols::pcr_master_mix_d4());
    let mut out = Vec::new();
    for protocol in &fixed {
        let parts = protocol.ratio.parts();
        let sum: u64 = parts.iter().sum();
        for demand in DEMANDS {
            out.push(StreamTarget {
                label: protocol.id.to_owned(),
                weights: parts.iter().map(|&p| p as f64).collect(),
                accuracy: sum.trailing_zeros(),
                demand,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..compositions {
        let accuracy = 4 + (i % 5) as u32;
        let demand = DEMANDS[i % 3];
        let fluids = 3 + i % 4;
        let weights = loop {
            let weights: Vec<f64> = (0..fluids).map(|_| 0.05 + rng.gen::<f64>()).collect();
            if approximates_cleanly(&weights, accuracy, demand) {
                break weights;
            }
        };
        out.push(StreamTarget { label: format!("mix{i}"), weights, accuracy, demand });
    }
    out
}

/// The input domain of a composition: every fluid keeps at least one part
/// at accuracy `d`, and the mixability pre-pass accepts the result.
fn approximates_cleanly(weights: &[f64], accuracy: u32, demand: u64) -> bool {
    TargetRatio::approximate(weights, accuracy).is_ok_and(|ratio| {
        ratio.parts().iter().all(|&p| p > 0) && check_feasibility(ratio.parts(), demand).is_empty()
    })
}

/// Candidate `plan_multipass` requests: `corpus` seeded ratios from the
/// paper's L = 32 corpus plus the five Table 2 ratios, with demands
/// alternating over the lower two of [`DEMANDS`].
pub fn multipass_candidates(seed: u64, corpus: usize) -> Vec<(TargetRatio, u64)> {
    let ratios = sampled_corpus(corpus, seed)
        .into_iter()
        .chain(protocols::table2_examples().into_iter().map(|p| p.ratio));
    ratios.enumerate().map(|(i, ratio)| (ratio, DEMANDS[i % 2])).collect()
}

/// The `serve_zipf` key universe: `size` distinct seeded corpus ratios in
/// popularity order (rank 0 is the hottest key). Demands follow the rank,
/// so every seed requests the same mix of demands.
pub fn serve_universe(seed: u64, size: usize) -> Vec<(TargetRatio, u64)> {
    sampled_corpus(size, seed)
        .into_iter()
        .enumerate()
        .map(|(rank, ratio)| (ratio, DEMANDS[rank % DEMANDS.len()]))
        .collect()
}

/// A Zipf(`s`) sampler over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative weights of `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let u = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        assert_eq!(stream_targets(7, 12), stream_targets(7, 12));
        assert_ne!(stream_targets(7, 12), stream_targets(8, 12));
        assert_eq!(multipass_candidates(7, 20), multipass_candidates(7, 20));
        assert_ne!(multipass_candidates(7, 20), multipass_candidates(8, 20));
        assert_eq!(serve_universe(7, 300), serve_universe(7, 300));
        assert_ne!(serve_universe(7, 300), serve_universe(8, 300));
        let zipf = Zipf::new(100, 1.0);
        let draw = |seed| {
            let mut rng = lane_rng(seed, 3);
            (0..50).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn the_seed_moves_only_the_compositions() {
        let (a, b) = (stream_targets(1, 10), stream_targets(2, 10));
        assert_eq!(a.len(), FIXED_TARGETS + 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.label, x.accuracy, x.demand), (&y.label, y.accuracy, y.demand));
        }
        assert_eq!(a[..FIXED_TARGETS], b[..FIXED_TARGETS]);
        assert_eq!(a.iter().filter(|t| t.is_paper_oracle()).count(), 1);
    }

    #[test]
    fn compositions_approximate_into_the_input_domain() {
        for t in stream_targets(3, 20) {
            let ratio = TargetRatio::approximate(&t.weights, t.accuracy).unwrap();
            assert_eq!(ratio.parts().iter().sum::<u64>(), 1 << t.accuracy, "{}", t.label);
            assert!(ratio.parts().iter().all(|&p| p > 0));
        }
    }

    #[test]
    fn universe_has_distinct_keys_and_zipf_prefers_low_ranks() {
        let keys = serve_universe(4, 600);
        assert_eq!(keys.len(), 600);
        let mut sorted: Vec<String> =
            keys.iter().map(|(r, d)| format!("{:?}/{d}", r.parts())).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 600);
        let zipf = Zipf::new(600, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 600));
        let head = draws.iter().filter(|&&r| r < 60).count();
        assert!(head > 5_000, "top 10% of ranks drew {head} of 10000");
    }
}
