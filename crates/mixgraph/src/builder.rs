use crate::{GraphError, MixGraph, MixNode, NodeId, Operand};
use dmf_ratio::{Mixture, TargetRatio};
use std::borrow::Cow;

/// Incremental constructor for [`MixGraph`].
///
/// Vertices must be added operands-first, which makes the resulting graph
/// acyclic by construction. Component trees are declared by calling
/// [`GraphBuilder::finish_tree`] with each tree's root, in emission order.
///
/// # Examples
///
/// ```
/// use dmf_mixgraph::{GraphBuilder, Operand};
/// use dmf_ratio::{FluidId, TargetRatio};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 3:1 dilution of fluid 0 in fluid 1 (d = 2).
/// let target = TargetRatio::new(vec![3, 1])?;
/// let mut b = GraphBuilder::new(2);
/// let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1)))?;
/// let root = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half))?;
/// b.finish_tree(root);
/// let graph = b.finish(&target)?;
/// assert_eq!(graph.stats().mix_splits, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    fluid_count: usize,
    nodes: Vec<MixNode>,
    consumed: Vec<u8>,
    roots: Vec<NodeId>,
    current_tree: u32,
}

impl GraphBuilder {
    /// Starts a builder over a fluid set of `fluid_count` reagents.
    pub fn new(fluid_count: usize) -> Self {
        GraphBuilder {
            fluid_count,
            nodes: Vec::new(),
            consumed: Vec::new(),
            roots: Vec::new(),
            current_tree: 0,
        }
    }

    /// Number of vertices added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many of vertex `id`'s two droplets are already consumed.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn consumed(&self, id: NodeId) -> u8 {
        self.consumed[id.index()]
    }

    /// The mixture a vertex produces.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn mixture(&self, id: NodeId) -> &Mixture {
        &self.nodes[id.index()].mixture
    }

    /// Adds a (1:1) mix-split vertex over two operands and returns its id.
    ///
    /// The new vertex belongs to the component tree currently under
    /// construction. Consuming a droplet operand uses up one of the
    /// producer's two output droplets.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for an operand id that was not
    /// produced by this builder, [`GraphError::OverconsumedDroplet`] when a
    /// producer's two droplets are already spoken for, and
    /// [`GraphError::Ratio`] for fluid-set mismatches.
    pub fn mix(&mut self, left: Operand, right: Operand) -> Result<NodeId, GraphError> {
        let (left_mix, left_level) = self.operand_info(left)?;
        let (right_mix, right_level) = self.operand_info(right)?;
        // Check capacity before consuming anything so errors are atomic.
        for op in [left, right] {
            if let Operand::Droplet(id) = op {
                let budget = if left == right { 2 } else { 1 };
                if self.consumed[id.index()] + budget > 2 {
                    return Err(GraphError::OverconsumedDroplet { node: id });
                }
            }
        }
        let mixture = left_mix.mix(right_mix.as_ref()).map_err(GraphError::Ratio)?;
        for op in [left, right] {
            if let Operand::Droplet(id) = op {
                self.consumed[id.index()] += 1;
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(MixNode {
            left,
            right,
            mixture,
            level: left_level.max(right_level) + 1,
            tree: self.current_tree,
        });
        self.consumed.push(0);
        Ok(id)
    }

    /// Declares `root` as the root of the component tree currently under
    /// construction and starts the next tree.
    ///
    /// # Panics
    ///
    /// Panics if `root` was not produced by this builder.
    pub fn finish_tree(&mut self, root: NodeId) {
        assert!(root.index() < self.nodes.len(), "root must exist");
        self.roots.push(root);
        self.current_tree += 1;
    }

    /// Finalises the graph, validating droplet conservation and that every
    /// root realises `target`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NoTrees`] when no tree was finished,
    /// [`GraphError::RootConsumed`] / [`GraphError::DanglingNode`] /
    /// [`GraphError::WrongTarget`] for conservation violations.
    pub fn finish(self, target: &TargetRatio) -> Result<MixGraph, GraphError> {
        let targets = vec![target.to_mixture(); self.roots.len().max(1)];
        self.finish_with_targets(targets)
    }

    /// Finalises a graph whose component tree `i` must realise
    /// `targets[i]` — the core of [`GraphBuilder::finish`], and the
    /// finalizer of multi-target forests (one target per tree).
    ///
    /// # Errors
    ///
    /// As [`GraphBuilder::finish`]; additionally [`GraphError::NoTrees`]
    /// when `targets.len()` differs from the number of finished trees.
    pub fn finish_with_targets(self, targets: Vec<Mixture>) -> Result<MixGraph, GraphError> {
        if self.roots.is_empty() || targets.len() != self.roots.len() {
            return Err(GraphError::NoTrees);
        }
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for op in node.operands() {
                if let Operand::Droplet(src) = op {
                    consumers[src.index()].push(NodeId(i as u32));
                }
            }
        }
        let graph = MixGraph {
            fluid_count: self.fluid_count,
            nodes: self.nodes,
            roots: self.roots,
            consumers,
            targets,
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Mixture and level of an operand: borrowed from the arena for
    /// droplet operands, constructed only for reservoir inputs.
    fn operand_info(&self, op: Operand) -> Result<(Cow<'_, Mixture>, u32), GraphError> {
        match op {
            Operand::Input(f) => {
                let m = Mixture::try_pure(f.0, self.fluid_count).map_err(GraphError::Ratio)?;
                Ok((Cow::Owned(m), 0))
            }
            Operand::Droplet(id) => {
                if id.index() >= self.nodes.len() {
                    return Err(GraphError::UnknownNode { node: id });
                }
                let node = &self.nodes[id.index()];
                Ok((Cow::Borrowed(&node.mixture), node.level))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_ratio::FluidId;

    #[test]
    fn rejects_unknown_operand() {
        let mut b = GraphBuilder::new(2);
        let err = b.mix(Operand::Droplet(NodeId(7)), Operand::Input(FluidId(0))).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode { node: NodeId(7) });
    }

    #[test]
    fn rejects_third_consumption() {
        let mut b = GraphBuilder::new(2);
        let a = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.mix(Operand::Droplet(a), Operand::Input(FluidId(0))).unwrap();
        b.mix(Operand::Droplet(a), Operand::Input(FluidId(1))).unwrap();
        let err = b.mix(Operand::Droplet(a), Operand::Input(FluidId(0))).unwrap_err();
        assert_eq!(err, GraphError::OverconsumedDroplet { node: a });
    }

    #[test]
    fn self_mix_consumes_both_droplets() {
        // Mixing a node's two droplets with each other is physically valid
        // (it reproduces the same mixture) and must consume both outputs.
        let mut b = GraphBuilder::new(2);
        let a = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let s = b.mix(Operand::Droplet(a), Operand::Droplet(a)).unwrap();
        assert_eq!(b.consumed(a), 2);
        assert_eq!(b.mixture(s), b.mixture(a));
    }

    #[test]
    fn finish_rejects_dangling_nodes() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let orphan = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        let err = b.finish(&target).unwrap_err();
        assert_eq!(err, GraphError::DanglingNode { node: orphan });
    }

    #[test]
    fn finish_rejects_wrong_target() {
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        let err = b.finish(&target).unwrap_err();
        assert_eq!(err, GraphError::WrongTarget { node: root });
    }

    #[test]
    fn finish_requires_a_tree() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let b = GraphBuilder::new(2);
        assert_eq!(b.finish(&target).unwrap_err(), GraphError::NoTrees);
    }
}
