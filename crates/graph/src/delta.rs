//! Inter-snapshot graph deltas (`ΔA`, `ΔX_0`).
//!
//! The Dissimilarity Identification Unit of the paper's accelerator (§V-A)
//! produces exactly these two artifacts between consecutive snapshots:
//! the **graph dissimilarity matrix** `ΔA = A^{t+1} − A^t` and the
//! **updated input feature matrix** `ΔX_0^{t+1} = X_0^{t+1} − X_0^t`
//! (Eqs. 11–12). [`GraphDelta`] is the semantic record (edge additions,
//! edge deletions, feature updates) from which both matrices derive.

use std::collections::HashSet;

use idgnn_sparse::{CooMatrix, CsrMatrix, DenseMatrix};

use crate::error::{GraphError, Result};
use crate::snapshot::GraphSnapshot;

/// A per-vertex replacement of the input feature row, borrowed from the
/// [`GraphDelta`] that stores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureUpdate<'a> {
    /// Vertex whose feature row changes.
    pub vertex: usize,
    /// The new feature row (must match the snapshot's feature width).
    pub values: &'a [f32],
}

/// The set of changes transforming snapshot `t` into snapshot `t+1`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use idgnn_graph::{adjacency_from_edges, GraphDelta, GraphSnapshot};
/// use idgnn_sparse::DenseMatrix;
///
/// let base = GraphSnapshot::new(
///     adjacency_from_edges(4, &[(0, 1), (1, 2)])?,
///     DenseMatrix::zeros(4, 2),
/// )?;
/// let delta = GraphDelta::builder()
///     .add_edge(2, 3)
///     .remove_edge(0, 1)
///     .build();
/// let next = delta.apply(&base)?;
/// assert_eq!(next.num_edges(), 2);
/// assert_eq!(next.adjacency().get(2, 3), 1.0);
/// assert_eq!(next.adjacency().get(0, 1), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphDelta {
    added_edges: Vec<(usize, usize)>,
    removed_edges: Vec<(usize, usize)>,
    features: FeatureRows,
}

/// Feature-row replacements stored end to end in one buffer. A
/// [`DynamicGraph`](crate::DynamicGraph) keeps every delta of its stream,
/// and one allocation per replaced row cost more than the row itself.
#[derive(Debug, Clone, PartialEq, Default)]
struct FeatureRows {
    /// Each replacement's vertex and the end of its row in `values`, in
    /// insertion order.
    rows: Vec<(usize, usize)>,
    /// The new rows, concatenated.
    values: Vec<f32>,
}

impl FeatureRows {
    fn push(&mut self, vertex: usize, values: &[f32]) {
        self.values.extend_from_slice(values);
        self.rows.push((vertex, self.values.len()));
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = FeatureUpdate<'_>> + '_ {
        (0..self.rows.len()).map(move |i| {
            let start = i.checked_sub(1).map_or(0, |p| self.rows[p].1);
            let (vertex, end) = self.rows[i];
            FeatureUpdate { vertex, values: &self.values[start..end] }
        })
    }
}

impl GraphDelta {
    /// Starts building a delta.
    pub fn builder() -> GraphDeltaBuilder {
        GraphDeltaBuilder::default()
    }

    /// The identity delta (no changes).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta contains no changes at all.
    pub fn is_empty(&self) -> bool {
        self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.features.rows.is_empty()
    }

    /// Edges added by this delta (canonicalized `u <= v`).
    pub fn added_edges(&self) -> &[(usize, usize)] {
        &self.added_edges
    }

    /// Edges removed by this delta (canonicalized `u <= v`).
    pub fn removed_edges(&self) -> &[(usize, usize)] {
        &self.removed_edges
    }

    /// Feature-row replacements in this delta, in insertion order.
    pub fn feature_updates(&self) -> impl ExactSizeIterator<Item = FeatureUpdate<'_>> + '_ {
        self.features.iter()
    }

    /// Bytes the delta's change lists hold, counted by stored length: its
    /// edge pairs, its feature rows and their `(vertex, end)` index. A
    /// [`DynamicGraph`](crate::DynamicGraph) keeps every delta of its
    /// stream, so this is how much a stream's input grows per snapshot.
    pub fn stored_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(usize, usize)>();
        (self.added_edges.len() + self.removed_edges.len() + self.features.rows.len()) * pair
            + self.features.values.len() * std::mem::size_of::<f32>()
    }

    /// Number of changed (added + removed) edges.
    pub fn num_changed_edges(&self) -> usize {
        self.added_edges.len() + self.removed_edges.len()
    }

    /// Fraction of edge changes that are additions (`1.0` if no changes).
    pub fn addition_fraction(&self) -> f64 {
        if self.num_changed_edges() == 0 {
            1.0
        } else {
            self.added_edges.len() as f64 / self.num_changed_edges() as f64
        }
    }

    /// Dissimilarity proportion relative to `base`: changed edges over base
    /// edges (the quantity swept 0–15 % in the paper's Fig. 15).
    pub fn dissimilarity_ratio(&self, base: &GraphSnapshot) -> f64 {
        let e = base.num_edges();
        if e == 0 {
            if self.num_changed_edges() == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.num_changed_edges() as f64 / e as f64
        }
    }

    /// The graph dissimilarity matrix `ΔA = A^{t+1} − A^t` (Eq. 12's ΔA):
    /// `+1` at added edges, `−w` at removed edges, symmetric.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] for endpoints outside `base`;
    /// * [`GraphError::EdgeConflict`] when adding an existing edge or
    ///   removing a missing one.
    pub fn delta_matrix(&self, base: &GraphSnapshot) -> Result<CsrMatrix> {
        let n = base.num_vertices();
        let a = base.adjacency();
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in &self.added_edges {
            self.check_vertex(u, n)?;
            self.check_vertex(v, n)?;
            if a.get(u, v) != 0.0 {
                return Err(GraphError::EdgeConflict { edge: (u, v), reason: "edge already present" });
            }
            coo.push_symmetric(u, v, 1.0)?;
        }
        for &(u, v) in &self.removed_edges {
            self.check_vertex(u, n)?;
            self.check_vertex(v, n)?;
            let w = a.get(u, v);
            if w == 0.0 {
                return Err(GraphError::EdgeConflict { edge: (u, v), reason: "edge not present" });
            }
            coo.push_symmetric(u, v, -w)?;
        }
        Ok(coo.to_csr())
    }

    /// The updated input-feature matrix `ΔX_0^{t+1} = X_0^{t+1} − X_0^t`
    /// (Eq. 11): zero everywhere except the rows of updated vertices.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] for an update outside `base`;
    /// * [`GraphError::FeatureWidthMismatch`] for a row of the wrong width.
    pub fn feature_delta(&self, base: &GraphSnapshot) -> Result<DenseMatrix> {
        let n = base.num_vertices();
        let k = base.feature_dim();
        let mut out = DenseMatrix::zeros(n, k);
        for up in self.feature_updates() {
            self.check_vertex(up.vertex, n)?;
            if up.values.len() != k {
                return Err(GraphError::FeatureWidthMismatch { expected: k, got: up.values.len() });
            }
            let old = base.features().row(up.vertex);
            for (c, (&new, &prev)) in up.values.iter().zip(old).enumerate() {
                out.set(up.vertex, c, new - prev);
            }
        }
        Ok(out)
    }

    /// Applies the delta, producing snapshot `t+1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphDelta::delta_matrix`] and
    /// [`GraphDelta::feature_delta`].
    pub fn apply(&self, base: &GraphSnapshot) -> Result<GraphSnapshot> {
        let da = self.delta_matrix(base)?;
        // The merge fills kernel-pool buffers, whose capacity can far exceed
        // the result. The snapshot outlives the kernels, so it keeps an
        // exact copy: holding the pooled buffers raised peak memory.
        let merged = idgnn_sparse::ops::sp_add_pruned(base.adjacency(), &da)?;
        let next_a = merged.clone();
        drop(merged);
        let mut feats = base.features().clone();
        let k = base.feature_dim();
        for up in self.feature_updates() {
            self.check_vertex(up.vertex, base.num_vertices())?;
            if up.values.len() != k {
                return Err(GraphError::FeatureWidthMismatch { expected: k, got: up.values.len() });
            }
            for (c, &v) in up.values.iter().enumerate() {
                feats.set(up.vertex, c, v);
            }
        }
        GraphSnapshot::new_unchecked_symmetry(next_a, feats)
    }

    /// Vertices touched by any change (edge endpoints and feature updates).
    // lint: order-insensitive -- returns a membership set; callers probe it, never iterate it into ordered output
    pub fn touched_vertices(&self) -> HashSet<usize> {
        let mut set = HashSet::new();
        for &(u, v) in self.added_edges.iter().chain(&self.removed_edges) {
            set.insert(u);
            set.insert(v);
        }
        for up in self.feature_updates() {
            set.insert(up.vertex);
        }
        set
    }

    fn check_vertex(&self, v: usize, n: usize) -> Result<()> {
        if v >= n {
            Err(GraphError::VertexOutOfRange { vertex: v, vertices: n })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for GraphDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GraphDelta(+{} edges, -{} edges, {} feature updates)",
            self.added_edges.len(),
            self.removed_edges.len(),
            self.features.rows.len()
        )
    }
}

/// Builder for [`GraphDelta`]. Edges are canonicalized to `u <= v` and
/// de-duplicated; an edge both added and removed in the same delta is
/// rejected at [`build`](GraphDeltaBuilder::build) time by keeping the first
/// operation and ignoring the contradictory one.
#[derive(Debug, Clone, Default)]
pub struct GraphDeltaBuilder {
    added: Vec<(usize, usize)>,
    removed: Vec<(usize, usize)>,
    features: FeatureRows,
}

impl GraphDeltaBuilder {
    /// Records an edge addition.
    pub fn add_edge(mut self, u: usize, v: usize) -> Self {
        self.added.push((u.min(v), u.max(v)));
        self
    }

    /// Records an edge removal.
    pub fn remove_edge(mut self, u: usize, v: usize) -> Self {
        self.removed.push((u.min(v), u.max(v)));
        self
    }

    /// Records a feature-row replacement for `vertex`.
    pub fn update_feature(mut self, vertex: usize, values: Vec<f32>) -> Self {
        self.features.push(vertex, &values);
        self
    }

    /// Finalizes the delta, de-duplicating edges (first occurrence wins
    /// across both the add and remove lists). A [`DynamicGraph`] keeps
    /// every delta for the whole stream, so the lists are stored at their
    /// exact length, not at the capacity the builder grew them to.
    ///
    /// [`DynamicGraph`]: crate::DynamicGraph
    // lint: order-insensitive -- the `seen` set is a dedup membership probe; output keeps caller insertion order
    pub fn build(self) -> GraphDelta {
        let mut seen = HashSet::new();
        let mut added = Vec::with_capacity(self.added.len());
        for e in self.added {
            if seen.insert(e) {
                added.push(e);
            }
        }
        let mut removed = Vec::with_capacity(self.removed.len());
        for e in self.removed {
            if seen.insert(e) {
                removed.push(e);
            }
        }
        added.shrink_to_fit();
        removed.shrink_to_fit();
        let mut features = self.features;
        features.rows.shrink_to_fit();
        features.values.shrink_to_fit();
        GraphDelta { added_edges: added, removed_edges: removed, features }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::adjacency_from_edges;

    fn base() -> GraphSnapshot {
        GraphSnapshot::new(
            adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
            DenseMatrix::filled(5, 3, 1.0),
        )
        .unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let d = GraphDelta::empty();
        assert!(d.is_empty());
        let next = d.apply(&base()).unwrap();
        assert_eq!(next, base());
    }

    #[test]
    fn apply_add_and_remove() {
        let d = GraphDelta::builder().add_edge(0, 4).remove_edge(1, 2).build();
        let next = d.apply(&base()).unwrap();
        assert_eq!(next.num_edges(), 4);
        assert_eq!(next.adjacency().get(0, 4), 1.0);
        assert_eq!(next.adjacency().get(4, 0), 1.0);
        assert_eq!(next.adjacency().get(1, 2), 0.0);
        // Removed entries must be structurally pruned, not stored zeros.
        assert_eq!(next.adjacency().nnz(), 8);
    }

    #[test]
    fn apply_is_bitwise_the_add_then_prune_composition() {
        use crate::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
        use idgnn_sparse::ops;
        let bits = |m: &CsrMatrix| {
            let values: Vec<u32> = m.values().iter().map(|v| v.to_bits()).collect();
            (m.indptr().to_vec(), m.indices().to_vec(), values)
        };
        // Row 1 gains (1, 3) and loses (1, 2) in one delta, and the removal
        // cancels to an exact zero that must not be stored.
        let mut cases =
            vec![(base(), GraphDelta::builder().add_edge(1, 3).remove_edge(1, 2).build())];
        // A generated stream's deltas, applied to its snapshots.
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(400, 1600, 4),
            &StreamConfig { deltas: 3, dissimilarity: 0.1, ..Default::default() },
            9,
        )
        .unwrap();
        let snaps = dg.materialize().unwrap();
        cases.extend(snaps.into_iter().zip(dg.deltas().iter().cloned()));
        for (i, (base, delta)) in cases.iter().enumerate() {
            let expected = ops::sp_add(base.adjacency(), &delta.delta_matrix(base).unwrap())
                .unwrap()
                .pruned(0.0);
            let next = delta.apply(base).unwrap();
            assert_eq!(bits(next.adjacency()), bits(&expected), "case {i}");
        }
        let next = cases[0].1.apply(&cases[0].0).unwrap();
        assert_eq!(next.adjacency().row_indices(1), [0, 3]);
        assert_eq!(next.adjacency().nnz(), 8);
    }

    #[test]
    fn delta_matrix_is_symmetric_difference() {
        let b = base();
        let d = GraphDelta::builder().add_edge(0, 3).remove_edge(3, 4).build();
        let da = d.delta_matrix(&b).unwrap();
        assert!(da.is_symmetric(0.0));
        assert_eq!(da.get(0, 3), 1.0);
        assert_eq!(da.get(4, 3), -1.0);
        // A^{t+1} = A^t + ΔA holds exactly.
        let next = d.apply(&b).unwrap();
        let recomposed = idgnn_sparse::ops::sp_add(b.adjacency(), &da).unwrap().pruned(0.0);
        assert_eq!(&recomposed, next.adjacency());
    }

    #[test]
    fn add_existing_edge_rejected() {
        let d = GraphDelta::builder().add_edge(0, 1).build();
        assert!(matches!(
            d.delta_matrix(&base()),
            Err(GraphError::EdgeConflict { reason: "edge already present", .. })
        ));
    }

    #[test]
    fn remove_missing_edge_rejected() {
        let d = GraphDelta::builder().remove_edge(0, 4).build();
        assert!(matches!(
            d.delta_matrix(&base()),
            Err(GraphError::EdgeConflict { reason: "edge not present", .. })
        ));
    }

    #[test]
    fn vertex_out_of_range_rejected() {
        let d = GraphDelta::builder().add_edge(0, 9).build();
        assert!(matches!(d.delta_matrix(&base()), Err(GraphError::VertexOutOfRange { .. })));
    }

    #[test]
    fn feature_delta_is_sparse_rows() {
        let b = base();
        let d = GraphDelta::builder().update_feature(2, vec![4.0, 1.0, 1.0]).build();
        let dx = d.feature_delta(&b).unwrap();
        assert_eq!(dx.get(2, 0), 3.0); // 4.0 - 1.0
        assert_eq!(dx.get(2, 1), 0.0);
        assert_eq!(dx.get(0, 0), 0.0);
        let next = d.apply(&b).unwrap();
        // X^{t+1} = X^t + ΔX holds exactly.
        assert!(next.features().approx_eq(&b.features().add(&dx).unwrap(), 1e-6));
    }

    #[test]
    fn feature_updates_come_back_in_order_at_their_own_widths() {
        let d = GraphDelta::builder()
            .update_feature(3, vec![1.0, 2.0, 3.0])
            .update_feature(0, vec![4.0])
            .update_feature(4, Vec::new())
            .build();
        let ups: Vec<_> = d.feature_updates().map(|u| (u.vertex, u.values.to_vec())).collect();
        assert_eq!(ups, [(3, vec![1.0, 2.0, 3.0]), (0, vec![4.0]), (4, vec![])]);
        assert_eq!(d.feature_updates().len(), 3);
        assert!(!d.is_empty());
        // A delta equals another exactly when its updates do, row by row.
        let same = GraphDelta::builder()
            .update_feature(3, vec![1.0, 2.0, 3.0])
            .update_feature(0, vec![4.0])
            .update_feature(4, Vec::new())
            .build();
        assert_eq!(d, same);
        let regrouped = GraphDelta::builder()
            .update_feature(3, vec![1.0, 2.0])
            .update_feature(0, vec![3.0, 4.0])
            .update_feature(4, Vec::new())
            .build();
        assert_ne!(d, regrouped);
    }

    #[test]
    fn feature_width_mismatch_rejected() {
        let d = GraphDelta::builder().update_feature(0, vec![1.0]).build();
        assert!(matches!(d.apply(&base()), Err(GraphError::FeatureWidthMismatch { .. })));
        assert!(matches!(
            d.feature_delta(&base()),
            Err(GraphError::FeatureWidthMismatch { .. })
        ));
    }

    #[test]
    fn ratios() {
        let d = GraphDelta::builder().add_edge(0, 4).add_edge(0, 3).remove_edge(1, 2).build();
        assert_eq!(d.num_changed_edges(), 3);
        assert!((d.addition_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.dissimilarity_ratio(&base()) - 0.75).abs() < 1e-12);
        assert_eq!(GraphDelta::empty().addition_fraction(), 1.0);
    }

    #[test]
    fn stored_bytes_count_every_list_by_its_length() {
        let pair = std::mem::size_of::<(usize, usize)>();
        assert_eq!(GraphDelta::empty().stored_bytes(), 0);
        // A duplicate edge is dropped before it is stored.
        let d = GraphDelta::builder()
            .add_edge(0, 4)
            .add_edge(4, 0)
            .remove_edge(1, 2)
            .update_feature(3, vec![1.0, 2.0, 3.0])
            .update_feature(0, Vec::new())
            .build();
        assert_eq!(d.stored_bytes(), (2 + 2) * pair + 3 * std::mem::size_of::<f32>());
    }

    #[test]
    fn builder_dedups_and_canonicalizes() {
        let d = GraphDelta::builder()
            .add_edge(4, 0)
            .add_edge(0, 4)
            .remove_edge(0, 4) // contradicts the add → dropped
            .build();
        assert_eq!(d.added_edges(), &[(0, 4)]);
        assert!(d.removed_edges().is_empty());
    }

    #[test]
    fn touched_vertices_unions_all_sources() {
        let d = GraphDelta::builder()
            .add_edge(0, 1)
            .remove_edge(2, 3)
            .update_feature(4, vec![0.0; 3])
            .build();
        let t = d.touched_vertices();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn display_counts() {
        let d = GraphDelta::builder().add_edge(0, 1).build();
        assert_eq!(d.to_string(), "GraphDelta(+1 edges, -0 edges, 0 feature updates)");
    }
}
