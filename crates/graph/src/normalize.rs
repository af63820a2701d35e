//! Adjacency-matrix normalization for GCN propagation.
//!
//! GCNs operate on a normalized operator derived from the raw adjacency
//! matrix (the paper's Eq. 3 calls it "the normalized Laplacian matrix over
//! the adjacency matrix"). The standard Kipf–Welling choice is the symmetric
//! renormalization `Â = D̃^{-1/2} (A + I) D̃^{-1/2}`, which preserves symmetry
//! — the property the paper's Eq. 14–15 transpose optimization relies on.

use idgnn_sparse::CsrMatrix;

/// How to turn a raw adjacency matrix into the GNN propagation operator.
///
/// The paper (§II-B) notes that GNN variants such as GraphSAGE and GIN can
/// be "abstracted in the form of adjacency matrices" — these variants are
/// the corresponding operators:
///
/// * GCN → [`Normalization::Symmetric`];
/// * GIN (ε = 0) → [`Normalization::SelfLoops`] (`A + I`);
/// * GraphSAGE-mean → [`Normalization::RowStochastic`] (`D̃^{-1}(A + I)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Normalization {
    /// Use the raw adjacency matrix as-is.
    Raw,
    /// Add self-loops only: `A + I` (the GIN operator at ε = 0).
    SelfLoops,
    /// Kipf–Welling symmetric renormalization `D̃^{-1/2}(A+I)D̃^{-1/2}`
    /// (the default, and what the evaluation uses).
    #[default]
    Symmetric,
    /// Random-walk (row-stochastic) normalization `D̃^{-1}(A+I)` — the
    /// GraphSAGE-mean aggregator. **Not symmetric**: the one-pass kernel
    /// automatically falls back to the general `ΔA_C` expansion (the
    /// Eq. 15 transpose trick requires symmetric operands).
    RowStochastic,
}

impl Normalization {
    /// Applies the normalization to a square symmetric adjacency matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square (callers obtain `a` from a validated
    /// [`GraphSnapshot`](crate::GraphSnapshot), which guarantees squareness).
    pub fn apply(self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(a.rows(), a.cols(), "normalization requires a square matrix");
        match self {
            Normalization::Raw => a.clone(),
            Normalization::SelfLoops => with_self_loops(a),
            Normalization::Symmetric => {
                let tilde = with_self_loops(a);
                let n = tilde.rows();
                let mut dinv_sqrt = vec![0.0f32; n];
                for (i, d) in dinv_sqrt.iter_mut().enumerate() {
                    let deg: f32 = tilde.row_values(i).iter().sum();
                    *d = if deg > 0.0 { 1.0 / deg.sqrt() } else { 0.0 };
                }
                scale_rows_cols(&tilde, &dinv_sqrt)
            }
            Normalization::RowStochastic => {
                let tilde = with_self_loops(a);
                let n = tilde.rows();
                let mut dinv = vec![0.0f32; n];
                for (i, d) in dinv.iter_mut().enumerate() {
                    let deg: f32 = tilde.row_values(i).iter().sum();
                    *d = if deg > 0.0 { 1.0 / deg } else { 0.0 };
                }
                scale_rows(&tilde, &dinv)
            }
        }
    }

    /// Whether the resulting operator is symmetric for an undirected graph
    /// (enables the Eq. 15 transpose optimization).
    pub fn symmetric_operator(self) -> bool {
        !matches!(self, Normalization::RowStochastic)
    }
}

fn with_self_loops(a: &CsrMatrix) -> CsrMatrix {
    idgnn_sparse::ops::sp_add(a, &CsrMatrix::identity(a.rows()))
        // lint: allow(panic-surface) -- identity shape equals the square input
        .expect("identity matches the square input shape")
}

/// Computes `diag(s) * A` for a vector `s`.
fn scale_rows(a: &CsrMatrix, s: &[f32]) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(a.rows() + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for (r, &scale) in s.iter().enumerate().take(a.rows()) {
        for (c, v) in a.row_iter(r) {
            indices.push(c);
            values.push(scale * v);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(a.rows(), a.cols(), indptr, indices, values)
        // lint: allow(panic-surface) -- structure copied row-by-row from a valid CSR
        .expect("row scaling preserves CSR structure")
}

/// Computes `diag(s) * A * diag(s)` for a vector `s`.
fn scale_rows_cols(a: &CsrMatrix, s: &[f32]) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(a.rows() + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for (r, &scale) in s.iter().enumerate().take(a.rows()) {
        for (c, v) in a.row_iter(r) {
            indices.push(c);
            values.push(scale * v * s[c]);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(a.rows(), a.cols(), indptr, indices, values)
        // lint: allow(panic-surface) -- structure copied row-by-row from a valid CSR
        .expect("row/col scaling preserves CSR structure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::adjacency_from_edges;

    fn path4() -> CsrMatrix {
        adjacency_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn raw_is_identity_transform() {
        let a = path4();
        assert_eq!(Normalization::Raw.apply(&a), a);
    }

    #[test]
    fn self_loops_adds_diagonal() {
        let a = Normalization::SelfLoops.apply(&path4());
        for i in 0..4 {
            assert_eq!(a.get(i, i), 1.0);
        }
        assert_eq!(a.nnz(), 6 + 4);
    }

    #[test]
    fn symmetric_normalization_stays_symmetric() {
        let a = Normalization::Symmetric.apply(&path4());
        assert!(a.is_symmetric(1e-6));
    }

    #[test]
    fn symmetric_rows_of_regular_graph_sum_to_one() {
        // On a ring (2-regular), every D̃ entry is 3, so each row of Â sums to 1.
        let ring = adjacency_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
            .unwrap();
        let a = Normalization::Symmetric.apply(&ring);
        for r in 0..6 {
            let sum: f32 = a.row_values(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn symmetric_known_values_on_path() {
        let a = Normalization::Symmetric.apply(&path4());
        // Vertex 0 has degree 1 → d̃ = 2; vertex 1 has degree 2 → d̃ = 3.
        assert!((a.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((a.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn isolated_vertices_stay_finite() {
        let a = CsrMatrix::zeros(3, 3);
        let n = Normalization::Symmetric.apply(&a);
        // Isolated vertices get self-loops with degree 1 → Â_ii = 1.
        for i in 0..3 {
            assert!((n.get(i, i) - 1.0).abs() < 1e-6);
            assert!(n.get(i, i).is_finite());
        }
    }

    #[test]
    fn default_is_symmetric() {
        assert_eq!(Normalization::default(), Normalization::Symmetric);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rectangular_panics() {
        Normalization::Symmetric.apply(&CsrMatrix::zeros(2, 3));
    }

    #[test]
    fn row_stochastic_rows_sum_to_one() {
        let a = Normalization::RowStochastic.apply(&path4());
        for r in 0..4 {
            let sum: f32 = a.row_values(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn row_stochastic_is_asymmetric_on_irregular_graphs() {
        let a = Normalization::RowStochastic.apply(&path4());
        // Vertex 0 (degree 1) and vertex 1 (degree 2) normalize differently.
        assert!(!a.is_symmetric(1e-6));
        assert!(!Normalization::RowStochastic.symmetric_operator());
        assert!(Normalization::Symmetric.symmetric_operator());
        assert!(Normalization::SelfLoops.symmetric_operator());
        assert!(Normalization::Raw.symmetric_operator());
    }

    #[test]
    fn row_stochastic_isolated_vertices_stay_finite() {
        let n = Normalization::RowStochastic.apply(&CsrMatrix::zeros(3, 3));
        for i in 0..3 {
            assert!((n.get(i, i) - 1.0).abs() < 1e-6);
        }
    }
}
