use crate::{ForestError, ReusePolicy};
use dmf_mixalgo::{rebuild_tree, Template, WastePool};
use dmf_mixgraph::{GraphBuilder, MixGraph};
use dmf_ratio::TargetRatio;

/// Builds a *multi-target* forest: one component tree (two droplets) per
/// entry of `targets`, with waste droplets shared across all of them.
///
/// This extends the paper's MDST engine toward the SDMT objective (one
/// droplet per target over multiple targets, Table 1): targets over the
/// same fluid set frequently share intermediate mixtures — most of a PCR
/// dilution series, for example — and the shared pool turns those overlaps
/// into reuse edges exactly like the single-target forest does.
///
/// Targets are processed in the given order. With
/// [`ReusePolicy::AcrossTrees`] a tree only consumes earlier trees' waste
/// (paper-faithful); [`ReusePolicy::Eager`] also shares within a tree.
///
/// # Errors
///
/// Returns [`ForestError::ZeroDemand`] for an empty target list,
/// [`ForestError::PureTarget`] if any template is a bare leaf, and
/// propagates structural failures.
///
/// # Examples
///
/// ```
/// use dmf_forest::{build_multi_target_forest, ReusePolicy};
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two related 3-fluid targets.
/// let a = TargetRatio::new(vec![2, 1, 1])?;
/// let b = TargetRatio::new(vec![1, 2, 1])?;
/// let pairs = vec![
///     (MinMix.build_template(&a)?, a),
///     (MinMix.build_template(&b)?, b),
/// ];
/// let forest = build_multi_target_forest(&pairs, ReusePolicy::AcrossTrees)?;
/// assert_eq!(forest.tree_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn build_multi_target_forest(
    targets: &[(Template, TargetRatio)],
    policy: ReusePolicy,
) -> Result<MixGraph, ForestError> {
    let Some((first, _)) = targets.first() else {
        return Err(ForestError::ZeroDemand);
    };
    let eager = policy == ReusePolicy::Eager;
    let mut builder = GraphBuilder::new(first.fluid_count());
    let mut pool = WastePool::new();
    for (template, _) in targets {
        if template.is_leaf() {
            return Err(ForestError::PureTarget);
        }
        let root = rebuild_tree(template, &mut builder, &mut pool, eager)?;
        builder.finish_tree(root);
        if !eager {
            pool.commit();
        }
    }
    let mixtures = targets.iter().map(|(_, t)| t.to_mixture()).collect();
    builder.finish_with_targets(mixtures).map_err(ForestError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixalgo::{dilution_ratio, MinMix, MixingAlgorithm};

    fn pair(parts: Vec<u64>) -> (Template, TargetRatio) {
        let target = TargetRatio::new(parts).unwrap();
        (MinMix.build_template(&target).unwrap(), target)
    }

    /// A dilution series: sample at CF `k / 2^d` in buffer, for each `k`.
    fn dilutions(ks: &[u64], d: u32) -> Vec<(Template, TargetRatio)> {
        ks.iter()
            .map(|&k| {
                let target = dilution_ratio(k, d).unwrap();
                (MinMix.build_template(&target).unwrap(), target)
            })
            .collect()
    }

    #[test]
    fn shares_waste_across_related_targets() {
        // A PCR-like series: all targets share the x1/x2 backbone. A
        // dilution gradient (the SDMT objective for N = 2) shares too, and
        // strictly saves reactant under eager reuse.
        let pcr = vec![pair(vec![2, 1, 1, 4]), pair(vec![1, 2, 1, 4]), pair(vec![1, 1, 2, 4])];
        let gradient = dilutions(&[3, 5, 7, 9, 11, 13], 4);
        for (pairs, policy) in [(pcr, ReusePolicy::AcrossTrees), (gradient, ReusePolicy::Eager)] {
            let forest = build_multi_target_forest(&pairs, policy).unwrap();
            forest.validate().unwrap();
            let shared = forest.stats();
            let separate: u64 =
                pairs.iter().map(|(t, _)| t.leaf_counts().iter().sum::<u64>()).sum();
            assert!(shared.input_total <= separate);
            if policy == ReusePolicy::Eager {
                assert!(shared.input_total < separate, "{} vs {separate}", shared.input_total);
            }
            shared.assert_conservation();
            assert_eq!(shared.input_total, 2 * pairs.len() as u64 + shared.waste as u64);
            assert_eq!(forest.tree_count(), pairs.len());
            assert_eq!(forest.targets().len(), pairs.len());
        }
    }

    #[test]
    fn identical_targets_degenerate_to_mdst() {
        // n copies of one target = MDST with D = 2n, for the PCR mix and
        // for a 5/16 dilution; one copy is the plain base tree, and a
        // second copy rebuilds mostly from the first one's waste.
        for (parts, policy) in [
            (vec![2, 1, 1, 1, 1, 1, 9], ReusePolicy::AcrossTrees),
            (vec![5, 11], ReusePolicy::Eager),
        ] {
            let (template, target) = pair(parts);
            let inputs: Vec<u64> = (1..=3)
                .map(|copies| {
                    let pairs = vec![(template.clone(), target.clone()); copies];
                    let multi = build_multi_target_forest(&pairs, policy).unwrap();
                    let demand = 2 * copies as u64;
                    let mdst = crate::build_forest(&template, &target, demand, policy).unwrap();
                    assert_eq!(multi.stats().mix_splits, mdst.stats().mix_splits);
                    assert_eq!(multi.stats().input_total, mdst.stats().input_total);
                    multi.stats().input_total
                })
                .collect();
            assert_eq!(inputs[0], template.leaf_counts().iter().sum::<u64>());
            assert!(inputs[1] < 2 * inputs[0]);
        }
    }

    #[test]
    fn empty_target_list_is_rejected() {
        assert!(matches!(
            build_multi_target_forest(&[], ReusePolicy::AcrossTrees),
            Err(ForestError::ZeroDemand)
        ));
    }

    #[test]
    fn each_root_realises_its_own_target() {
        let mut pairs = vec![pair(vec![3, 1]), pair(vec![1, 3]), pair(vec![1, 1])];
        pairs.extend(dilutions(&[1, 6, 10, 15], 4));
        let forest = build_multi_target_forest(&pairs, ReusePolicy::Eager).unwrap();
        for (i, (_, target)) in pairs.iter().enumerate() {
            let root = forest.roots()[i];
            assert_eq!(forest.node(root).mixture(), &target.to_mixture());
        }
    }
}
