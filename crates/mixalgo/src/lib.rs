//! Base mixing-tree construction algorithms for DMF sample preparation.
//!
//! The DAC 2014 streaming engine is algorithm-agnostic: any procedure that
//! turns a [`TargetRatio`] into a *base mixing tree* can seed its mixing
//! forest. This crate provides the four algorithms the paper builds on:
//!
//! * [`MinMix`] (`MM`, Thies et al. 2008) — binary-expansion tree; each set
//!   bit `2^j` of component `a_i` becomes a leaf at depth `d - j`, merged
//!   deepest-first. Guaranteed depth `d` and `#leaves - 1` mix-splits.
//! * [`Rma`] (Roy et al. VLSID 2011) — top-down balanced halving of the
//!   ratio vector. Produces bushier trees with more waste droplets, which is
//!   precisely the property that makes it the best forest seed (paper §4).
//! * [`Mtcs`] (Kumar et al. DDECS 2013) — MinMix followed by common-subtree
//!   sharing: content-identical subtrees are built once and their spare
//!   droplet feeds the second parent, turning the tree into a DAG.
//! * [`Rsm`] (Hsieh et al. TCAD 2012) — reagent-saving mixing: common-
//!   subgraph sharing applied to the top-down partition tree.
//!
//! For two-fluid dilution, [`dilution_ratio`] turns a concentration factor
//! into a plain target, and two dilution-only constructions are provided
//! as ids outside the [`ALGORITHMS`] seed: [`BITSCAN`] (the binary-scan
//! chain) and [`DMRW`] (interval bisection with shared boundaries).
//!
//! `RMA`, `MTCS` and `RSM` have no public reference implementations; they are
//! reimplemented here from their published descriptions (see `DESIGN.md` §5
//! for the fidelity argument). All four satisfy the contract checked by
//! [`MixGraph::validate`]: leaves are pure reagents, the root realises the
//! target, droplets are conserved.
//!
//! The crate also exposes the two building blocks shared with the
//! mixing-forest constructor:
//!
//! * [`Template`] — a plain binary mix tree with precomputed mixtures;
//! * [`WastePool`] — a multiset of spare droplets keyed by canonical
//!   mixture, with tree-boundary commit semantics;
//! * [`materialize`] / [`rebuild_tree`] — template-to-graph lowering with
//!   optional droplet reuse.
//!
//! # Examples
//!
//! ```
//! use dmf_mixalgo::{MinMix, MixingAlgorithm};
//! use dmf_ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The PCR master mix at accuracy d = 4 (paper Fig. 1).
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let tree = MinMix.build_graph(&target)?;
//! let stats = tree.stats();
//! assert_eq!(stats.mix_splits, 7);
//! assert_eq!(stats.input_total, 8);
//! assert_eq!(stats.waste, 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capabilities;
mod dilution;
mod error;
mod minmix;
mod mtcs;
mod pool;
mod rebuild;
mod rma;
mod rsm;
mod template;

pub use capabilities::Capabilities;
pub use dilution::{dilution_ratio, BitScan, Dmrw, DMRW_MAX_ACCURACY};
pub use error::MixAlgoError;
pub use minmix::MinMix;
pub use mtcs::Mtcs;
pub use pool::WastePool;
pub use rebuild::{materialize, rebuild_tree};
pub use rma::Rma;
pub use rsm::Rsm;
pub use template::Template;

use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_registry::{Entry, Id, Registry};

/// A base mixing-tree construction algorithm.
///
/// Implementations build a [`Template`] realising the target ratio;
/// [`MixingAlgorithm::build_graph`] lowers it to a validated single-tree
/// [`MixGraph`] (for [`Mtcs`]/[`Rsm`] a DAG with shared subgraphs).
pub trait MixingAlgorithm {
    /// Short identifier used in reports ("MM", "RMA", …).
    fn name(&self) -> &'static str;

    /// Capability flags matching the paper's Table 1 taxonomy.
    fn capabilities(&self) -> Capabilities;

    /// Builds the base mixing tree as a [`Template`].
    ///
    /// # Errors
    ///
    /// Returns [`MixAlgoError::PureTarget`] when the target is a single pure
    /// fluid (no mixing required) and propagates ratio arithmetic failures.
    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError>;

    /// Whether [`MixingAlgorithm::build_graph`] shares content-identical
    /// subgraphs (droplet reuse *within* the base graph).
    fn shares_subgraphs(&self) -> bool {
        false
    }

    /// Builds and validates the base mixing graph.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MixingAlgorithm::build_template`], plus
    /// structural validation failures (which would indicate an algorithm
    /// bug).
    fn build_graph(&self, target: &TargetRatio) -> Result<MixGraph, MixAlgoError> {
        let _span = dmf_obs::span!("mixalgo_build");
        let template = self.build_template(target)?;
        materialize(&template, target, self.shares_subgraphs())
    }
}

/// A registered mixing algorithm (see [`ALGORITHMS`]).
pub type AlgorithmId = Id<dyn MixingAlgorithm + Send + Sync>;

/// One row of [`ALGORITHMS`].
pub type AlgorithmEntry = Entry<dyn MixingAlgorithm + Send + Sync>;

/// MinMix (`"mm"`).
pub const MINMIX: AlgorithmId = Id::new("mm", "MM", &MinMix);
/// RMA (`"rma"`).
pub const RMA: AlgorithmId = Id::new("rma", "RMA", &Rma);
/// MTCS (`"mtcs"`).
pub const MTCS: AlgorithmId = Id::new("mtcs", "MTCS", &Mtcs);
/// RSM (`"rsm"`).
pub const RSM: AlgorithmId = Id::new("rsm", "RSM", &Rsm);
/// BitScan (`"bs"`), dilution only; not in the [`ALGORITHMS`] seed.
pub const BITSCAN: AlgorithmId = Id::new("bs", "BS", &BitScan);
/// DMRW (`"dmrw"`), dilution only; not in the [`ALGORITHMS`] seed.
pub const DMRW: AlgorithmId = Id::new("dmrw", "DMRW", &Dmrw);

/// The process-wide mixing-algorithm registry, seeded with the paper's
/// four baselines in citation order. New planners join with
/// [`Registry::register`] and reach every consumer that resolves by name
/// (CLI, serve protocol, batch planner, exhibits) without touching the
/// engine.
pub static ALGORITHMS: Registry<dyn MixingAlgorithm + Send + Sync> = Registry::new(
    "mixing algorithm",
    &[
        Entry {
            id: MINMIX,
            description: "MinMix (Thies et al. 2008): binary-expansion tree, \
                          minimal depth and mix count",
            aliases: &["minmix"],
        },
        Entry {
            id: RMA,
            description: "RMA (Roy et al. VLSID 2011): ratio-halving tree; extra \
                          waste droplets seed the mixing forest",
            aliases: &[],
        },
        Entry {
            id: MTCS,
            description: "MTCS (Kumar et al. DDECS 2013): MinMix with \
                          common-subtree sharing",
            aliases: &[],
        },
        Entry {
            id: RSM,
            description: "RSM (Hsieh et al. TCAD 2012): reagent-saving balanced \
                          partition with subgraph sharing",
            aliases: &[],
        },
    ],
);

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn baselines_resolve_by_key_label_and_alias() {
        for (name, expected) in [
            ("mm", MINMIX),
            ("MM", MINMIX),
            ("minmix", MINMIX),
            ("rma", RMA),
            ("MTCS", MTCS),
            ("rsm", RSM),
        ] {
            assert_eq!(ALGORITHMS.resolve(name).unwrap(), expected, "{name}");
        }
    }

    #[test]
    fn seeds_are_the_four_paper_baselines_in_order() {
        let keys: Vec<&str> = ALGORITHMS.seeded().iter().map(|e| e.id.key()).collect();
        assert_eq!(keys, ["mm", "rma", "mtcs", "rsm"]);
        for entry in ALGORITHMS.seeded() {
            assert_eq!(entry.id.label(), entry.id.name());
            assert!(!entry.description.is_empty());
        }
        let err = ALGORITHMS.resolve("nope").unwrap_err();
        assert!(err.to_string().starts_with("unknown mixing algorithm \"nope\""));
    }
}
