//! CommonGraph-style deletion-free views (paper §VI-F / §VII).
//!
//! CommonGraph (ASPLOS'23) observes that edge *deletions* are far more
//! expensive than additions and converts them away by anchoring every
//! snapshot to the **common core** — the intersection of all snapshots —
//! reachable from each snapshot by additions only. The I-DGNN paper notes
//! its method "can be integrated with this evolving computing paradigm":
//! with a [`CommonCoreView`], the DIU derives each snapshot's dissimilarity
//! against the fixed core instead of the previous snapshot, making every
//! `ΔA` addition-only (no CSR row compaction, Fig. 16's costly case).

use std::collections::HashSet;

use crate::dynamic::DynamicGraph;
use crate::error::Result;
use crate::snapshot::{adjacency_from_edges, GraphSnapshot};

/// A deletion-free decomposition of a snapshot stream: the common core plus
/// per-snapshot addition sets.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonCoreView {
    core: GraphSnapshot,
    additions: Vec<Vec<(usize, usize)>>,
}

impl CommonCoreView {
    /// Builds the view from a dynamic graph.
    ///
    /// The core's feature matrix is taken from the *initial* snapshot
    /// (features are orthogonal to the structural decomposition).
    ///
    /// # Errors
    ///
    /// Propagates materialization errors from conflicting deltas.
    // lint: order-insensitive -- hash sets serve intersection/difference membership only; core_list and extras are sorted before use
    pub fn new(dg: &DynamicGraph) -> Result<Self> {
        let snaps = dg.materialize()?;
        let edge_sets: Vec<HashSet<(usize, usize)>> = snaps
            .iter()
            .map(|s| {
                s.adjacency()
                    .iter()
                    .filter(|(u, v, _)| u < v)
                    .map(|(u, v, _)| (u, v))
                    .collect()
            })
            .collect();
        let mut core_edges = edge_sets[0].clone();
        for set in &edge_sets[1..] {
            core_edges.retain(|e| set.contains(e));
        }
        let mut core_list: Vec<(usize, usize)> = core_edges.iter().copied().collect();
        core_list.sort_unstable();
        let core = GraphSnapshot::new_unchecked_symmetry(
            adjacency_from_edges(snaps[0].num_vertices(), &core_list)?,
            snaps[0].features().clone(),
        )?;
        let additions = edge_sets
            .iter()
            .map(|set| {
                let mut extra: Vec<(usize, usize)> =
                    set.difference(&core_edges).copied().collect();
                extra.sort_unstable();
                extra
            })
            .collect();
        Ok(Self { core, additions })
    }

    /// The common core (intersection of every snapshot's edges).
    pub fn core(&self) -> &GraphSnapshot {
        &self.core
    }

    /// Number of snapshots in the decomposed stream.
    pub fn num_snapshots(&self) -> usize {
        self.additions.len()
    }

    /// The addition-only edge set taking the core to snapshot `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_snapshots()`.
    pub fn additions(&self, t: usize) -> &[(usize, usize)] {
        &self.additions[t]
    }

    /// Reconstructs snapshot `t`'s adjacency from `core + additions(t)` —
    /// provably deletion-free.
    ///
    /// # Errors
    ///
    /// Propagates sparse construction errors (unreachable for a valid view).
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_snapshots()`.
    pub fn reconstruct(&self, t: usize) -> Result<GraphSnapshot> {
        let mut edges: Vec<(usize, usize)> = self
            .core
            .adjacency()
            .iter()
            .filter(|(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
            .collect();
        edges.extend_from_slice(&self.additions[t]);
        GraphSnapshot::new_unchecked_symmetry(
            adjacency_from_edges(self.core.num_vertices(), &edges)?,
            self.core.features().clone(),
        )
    }

    /// Total addition-set size across the stream — the work proxy
    /// CommonGraph optimizes. Smaller is better.
    pub fn total_additions(&self) -> usize {
        self.additions.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::GraphDelta;
    use crate::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_sparse::DenseMatrix;

    fn stream() -> DynamicGraph {
        generate_dynamic_graph(
            &GraphConfig::power_law(50, 150, 2),
            &StreamConfig {
                deltas: 3,
                dissimilarity: 0.1,
                addition_fraction: 0.5,
                feature_update_fraction: 0.0,
            },
            17,
        )
        .unwrap()
    }

    #[test]
    fn core_is_subgraph_of_every_snapshot() {
        let dg = stream();
        let view = CommonCoreView::new(&dg).unwrap();
        let snaps = dg.materialize().unwrap();
        for snap in &snaps {
            for (u, v, _) in view.core().adjacency().iter() {
                assert_ne!(snap.adjacency().get(u, v), 0.0, "core edge ({u},{v}) missing");
            }
        }
    }

    #[test]
    fn reconstruction_is_exact_and_addition_only() {
        let dg = stream();
        let view = CommonCoreView::new(&dg).unwrap();
        let snaps = dg.materialize().unwrap();
        assert_eq!(view.num_snapshots(), snaps.len());
        for (t, snap) in snaps.iter().enumerate() {
            let rebuilt = view.reconstruct(t).unwrap();
            assert_eq!(rebuilt.adjacency(), snap.adjacency(), "snapshot {t}");
            // Addition-only: every listed edge is absent from the core.
            for &(u, v) in view.additions(t) {
                assert_eq!(view.core().adjacency().get(u, v), 0.0);
            }
        }
    }

    #[test]
    fn static_stream_has_empty_additions() {
        let g0 = GraphSnapshot::new(
            adjacency_from_edges(4, &[(0, 1), (1, 2)]).unwrap(),
            DenseMatrix::zeros(4, 1),
        )
        .unwrap();
        let dg = DynamicGraph::new(g0)
            .with_delta(GraphDelta::empty())
            .with_delta(GraphDelta::empty());
        let view = CommonCoreView::new(&dg).unwrap();
        assert_eq!(view.total_additions(), 0);
        assert_eq!(view.core().num_edges(), 2);
    }

    #[test]
    fn deletion_heavy_stream_shrinks_the_core() {
        let g0 = GraphSnapshot::new(
            adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
            DenseMatrix::zeros(5, 1),
        )
        .unwrap();
        let dg = DynamicGraph::new(g0)
            .with_delta(GraphDelta::builder().remove_edge(0, 1).add_edge(0, 2).build());
        let view = CommonCoreView::new(&dg).unwrap();
        // Core = edges present in both snapshots: (1,2),(2,3),(3,4).
        assert_eq!(view.core().num_edges(), 3);
        assert_eq!(view.additions(0), &[(0, 1)]);
        assert_eq!(view.additions(1), &[(0, 2)]);
    }
}
