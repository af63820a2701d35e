//! The Dissimilarity Identification Unit (paper §V-A).
//!
//! The DIU sits between the request dispatcher and the PE array: given the
//! resident previous snapshot and the incoming one, it emits the **graph
//! dissimilarity matrix** `ΔA` and the **updated input feature matrix**
//! `ΔX_0` (Eqs. 11–12), together with the byte/op accounting the scheduler
//! needs.

use idgnn_graph::{GraphSnapshot, Normalization};
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix};

use crate::error::{CoreError, Result};

/// Output of one DIU invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiuOutput {
    /// Operator delta `ΔÂ = Â^{t+1} − Â^t` (symmetric, pruned).
    pub delta_operator: CsrMatrix,
    /// Input-feature delta `ΔX_0` (zero rows except updated vertices).
    pub delta_features: DenseMatrix,
    /// Vertices whose feature row changed.
    pub changed_feature_rows: Vec<usize>,
    /// Comparison operations performed (one per scanned entry).
    pub comparisons: u64,
    /// Bytes of the delta structures produced.
    pub output_bytes: u64,
}

impl DiuOutput {
    /// Whether the snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.delta_operator.nnz() == 0 && self.changed_feature_rows.is_empty()
    }
}

/// The Dissimilarity Identification Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Diu {
    normalization: Normalization,
}

impl Diu {
    /// Builds a DIU producing deltas of the given normalized operator.
    pub fn new(normalization: Normalization) -> Self {
        Self { normalization }
    }

    /// The operator normalization applied before differencing.
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// Identifies the dissimilarity between consecutive snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SnapshotMismatch`] when the vertex counts or
    /// feature widths differ (this reproduction models a fixed vertex set).
    pub fn identify(&self, prev: &GraphSnapshot, next: &GraphSnapshot) -> Result<DiuOutput> {
        if prev.num_vertices() != next.num_vertices()
            || prev.feature_dim() != next.feature_dim()
        {
            return Err(CoreError::SnapshotMismatch {
                prev: (prev.num_vertices(), prev.feature_dim()),
                next: (next.num_vertices(), next.feature_dim()),
            });
        }
        let a_prev = self.normalization.apply(prev.adjacency());
        let a_next = self.normalization.apply(next.adjacency());
        let delta_operator = ops::sp_sub_pruned(&a_next, &a_prev)?;

        let delta_features = next.features().sub(prev.features())?;
        let changed_feature_rows: Vec<usize> = (0..next.num_vertices())
            .filter(|&r| delta_features.row(r).iter().any(|&x| x != 0.0))
            .collect();

        let comparisons = (a_prev.nnz() + a_next.nnz()) as u64
            + (prev.num_vertices() * prev.feature_dim()) as u64;
        let output_bytes = delta_operator.csr_bytes()
            + 4 * (changed_feature_rows.len() * next.feature_dim()) as u64;

        Ok(DiuOutput {
            delta_operator,
            delta_features,
            changed_feature_rows,
            comparisons,
            output_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::{adjacency_from_edges, GraphDelta};

    fn base() -> GraphSnapshot {
        GraphSnapshot::new(
            adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            DenseMatrix::filled(5, 3, 1.0),
        )
        .unwrap()
    }

    #[test]
    fn identity_snapshots_give_empty_delta() {
        let diu = Diu::new(Normalization::SelfLoops);
        let out = diu.identify(&base(), &base()).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.delta_operator.nnz(), 0);
        assert!(out.comparisons > 0);
    }

    #[test]
    fn structural_change_appears_in_delta() {
        let diu = Diu::new(Normalization::SelfLoops);
        let next = GraphDelta::builder().add_edge(3, 4).build().apply(&base()).unwrap();
        let out = diu.identify(&base(), &next).unwrap();
        assert_eq!(out.delta_operator.get(3, 4), 1.0);
        assert_eq!(out.delta_operator.get(4, 3), 1.0);
        assert_eq!(out.delta_operator.nnz(), 2);
        assert!(out.delta_operator.is_symmetric(0.0));
    }

    #[test]
    fn feature_change_is_row_sparse() {
        let diu = Diu::new(Normalization::SelfLoops);
        let next = GraphDelta::builder()
            .update_feature(2, vec![0.0, 0.0, 5.0])
            .build()
            .apply(&base())
            .unwrap();
        let out = diu.identify(&base(), &next).unwrap();
        assert_eq!(out.changed_feature_rows, vec![2]);
        assert_eq!(out.delta_features.get(2, 2), 4.0);
        assert_eq!(out.delta_features.get(0, 0), 0.0);
    }

    #[test]
    fn symmetric_normalization_widens_support() {
        // Under D^{-1/2}(A+I)D^{-1/2} a degree change renormalizes the whole
        // touched row — ΔÂ has more entries than the raw edge change.
        let raw = Diu::new(Normalization::SelfLoops);
        let sym = Diu::new(Normalization::Symmetric);
        let next = GraphDelta::builder().add_edge(0, 3).build().apply(&base()).unwrap();
        let d_raw = raw.identify(&base(), &next).unwrap();
        let d_sym = sym.identify(&base(), &next).unwrap();
        assert!(d_sym.delta_operator.nnz() > d_raw.delta_operator.nnz());
    }

    #[test]
    fn mismatched_snapshots_rejected() {
        let diu = Diu::new(Normalization::SelfLoops);
        let other = GraphSnapshot::new(
            adjacency_from_edges(6, &[(0, 1)]).unwrap(),
            DenseMatrix::zeros(6, 3),
        )
        .unwrap();
        assert!(matches!(
            diu.identify(&base(), &other),
            Err(CoreError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn recomposition_identity() {
        // Â^t + ΔÂ == Â^{t+1} exactly.
        let diu = Diu::new(Normalization::Symmetric);
        let next = GraphDelta::builder()
            .add_edge(0, 4)
            .remove_edge(1, 2)
            .build()
            .apply(&base())
            .unwrap();
        let out = diu.identify(&base(), &next).unwrap();
        let a_prev = Normalization::Symmetric.apply(base().adjacency());
        let a_next = Normalization::Symmetric.apply(next.adjacency());
        let recomposed = ops::sp_add(&a_prev, &out.delta_operator).unwrap();
        assert!(recomposed.approx_eq(&a_next, 1e-6));
    }
}
