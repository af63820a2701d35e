//! The one-pass dissimilarity computation kernel (paper §IV-B/C,
//! Eqs. 10–15) — the paper's central theoretical contribution.
//!
//! Given the previous operator `A = Â^t` and its change `ΔA = Â^{t+1} − Â^t`
//! (both symmetric), the **fused graph dissimilarity matrix** is
//!
//! ```text
//! ΔA_C = (A + ΔA)^L − A^L = Σ_{i=0}^{L-1} A^i · ΔA · (A + ΔA)^{L-1-i}   (Eq. 13)
//! ```
//!
//! For `L = 3` the seven expanded chained products (Eq. 14) are rewritten —
//! using `(M N)ᵀ = Nᵀ Mᵀ` and the symmetry of `A`, `ΔA` — so that every
//! product has the sparse `ΔA` as an operand: seven products (one shared
//! `P = ΔA·A`), two of whose results are reused via a transpose performed by
//! the PE's post-processing unit (Eq. 15). [`DissimilarityStrategy`] selects
//! between the naive expansion and the transpose-optimized form; the
//! ablation bench (`ablation_transpose`) quantifies the savings.
//!
//! Every path adds its terms with one [`ops::sp_sum_pruned`] pass. The sum
//! is bit-identical to a left-to-right `sp_add` fold followed by
//! `pruned(0.0)`, and the reported adds are derived from the unpruned
//! prefix-sum sizes it returns, so [`Dissimilarity::ops`] counts exactly the
//! merges such a fold performs.
//!
//! ## Cross-snapshot power caching
//!
//! The general path builds the powers `A^1..A^{L−1}` and `(A+ΔA)^1..` every
//! snapshot, yet the next snapshot's `A` is exactly this snapshot's `A+ΔA`:
//! the powers flow across snapshots. [`PowerCache`] retains the
//! `(A+ΔA)`-side powers keyed by the operator they belong to, and
//! [`fused_dissimilarity_cached`] reuses them as the `A`-side powers of the
//! following call when the operator matches *bit-for-bit* (the invalidation
//! rule — any mismatch, including a depth change, recomputes from scratch).
//! On a hit the recorded per-product [`OpStats`] are replayed into the
//! result, so reported operation counts (and every figure derived from them)
//! are identical to a cold evaluation; the actually-avoided work is
//! accounted separately in [`Dissimilarity::saved`].
//!
//! A hit needs the caller to advance its operator exactly as the kernel
//! does (`A ← sp_add(A, ΔA)`). The one-pass executor advances to the
//! re-normalised `Â^{t+1}` instead, which never matches that key bit for
//! bit (DESIGN.md §8), so it calls the uncached [`fused_dissimilarity`].
//! The hit path serves callers that maintain the operator additively, such
//! as the `kernels` bench's warm power chain.

use idgnn_sparse::{ops, workspace, CsrMatrix, DenseMatrix, OpStats};

use crate::error::{ModelError, Result};

/// How to evaluate the `ΔA_C` chained-product sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum DissimilarityStrategy {
    /// Direct evaluation of Eq. 13: precompute powers of `A` and `A+ΔA`,
    /// then form each `A^i · ΔA · (A+ΔA)^{L-1-i}` term.
    General,
    /// Eq. 15: shared sub-products anchored on the sparse `ΔA`, with
    /// transposes substituting for mirror-image chains (requires symmetric
    /// inputs; exact for `L ≤ 3`, falls back to [`Self::General`] above).
    #[default]
    TransposeOptimized,
}

/// Result of a `ΔA_C` evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Dissimilarity {
    /// The fused graph dissimilarity matrix `ΔA_C`.
    pub delta_ac: CsrMatrix,
    /// Exact multiply/add counts of the evaluation. Work avoided by reuse
    /// (cache hits, transpose substitution) is still *included* here at its
    /// recorded cost so figures stay comparable across configurations; the
    /// avoided share is reported in [`Self::saved`].
    pub ops: OpStats,
    /// Number of SpGEMM products performed.
    pub products: u32,
    /// Number of whole-matrix transposes performed (PPU index swaps —
    /// essentially free on the accelerator, counted separately).
    pub transposes: u32,
    /// Work avoided by reuse: power products served from a [`PowerCache`]
    /// hit (replayed into [`Self::ops`] but not executed), and the mirror
    /// products the Eq. 15 transposes substitute for (never entered `ops`;
    /// costed at their twin's recorded cost, exact by operand symmetry).
    pub saved: OpStats,
}

/// Cross-snapshot cache of operator powers `[I, A, …, A^{L−1}]` for the
/// [`DissimilarityStrategy::General`] path.
///
/// Each [`fused_dissimilarity_cached`] call installs the `(A+ΔA)`-side
/// powers it just built, keyed by the `A+ΔA` operator itself; the next call
/// whose `A` is bit-identical to that key (the steady state of a delta-fed
/// stream whose resident operator evolves as `A ← A+ΔA`) reuses them as its
/// `A`-side powers. Invalidation is by exact mismatch: different structure,
/// different value bits, or a different power depth all miss and recompute —
/// there is no tolerance and therefore no way for a stale power to survive.
#[derive(Debug, Default)]
pub struct PowerCache {
    base: Option<CsrMatrix>,
    powers: Vec<CsrMatrix>,
    /// `stats[i]` is the recorded cost of the product that built
    /// `powers[i + 1]`, replayed into `ops` on a hit.
    stats: Vec<OpStats>,
    hits: u64,
    misses: u64,
}

impl PowerCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Always `0`: a hit rebuilds the `(A+ΔA)` powers in full. Kept for
    /// callers that still report a patch counter.
    pub fn patches(&self) -> u64 {
        0
    }

    /// Moves the cached powers out if they belong to `a` at depth `l`
    /// (`powers.len() == l`, i.e. `[I, a, …, a^{l−1}]`).
    fn take(&mut self, a: &CsrMatrix, l: usize) -> Option<(Vec<CsrMatrix>, Vec<OpStats>)> {
        let hit = self.powers.len() == l
            && self.base.as_ref().is_some_and(|base| same_matrix(base, a));
        if hit {
            self.hits += 1;
            self.base = None;
            Some((std::mem::take(&mut self.powers), std::mem::take(&mut self.stats)))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Replaces the cache contents with the powers of `base`, recycling any
    /// stale entries into the workspace buffer pool.
    fn install(&mut self, base: CsrMatrix, powers: Vec<CsrMatrix>, stats: Vec<OpStats>) {
        if let Some(old) = self.base.take() {
            workspace::recycle(old);
        }
        for p in self.powers.drain(..) {
            workspace::recycle(p);
        }
        self.base = Some(base);
        self.powers = powers;
        self.stats = stats;
    }
}

/// Structural plus bitwise-value equality — stricter than `PartialEq`
/// (which would accept `-0.0 == 0.0` and reject `NaN == NaN`); this is the
/// cache invalidation predicate, so it must guarantee bit-identical reuse.
fn same_matrix(x: &CsrMatrix, y: &CsrMatrix) -> bool {
    x.shape() == y.shape()
        && x.indptr() == y.indptr()
        && x.indices() == y.indices()
        && x.values().iter().zip(y.values()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Computes `ΔA_C = (A + ΔA)^L − A^L`.
///
/// # Errors
///
/// * [`ModelError::Sparse`] if the matrices are not square/same-shaped;
/// * the `TransposeOptimized` strategy additionally requires symmetric
///   inputs, which holds for all operators produced by
///   [`Normalization`](idgnn_graph::Normalization) on undirected graphs
///   (debug-asserted, not re-checked in release builds).
pub fn fused_dissimilarity(
    a: &CsrMatrix,
    da: &CsrMatrix,
    num_layers: u32,
    strategy: DissimilarityStrategy,
) -> Result<Dissimilarity> {
    dissimilarity_impl(a, da, num_layers, strategy, None)
}

/// [`fused_dissimilarity`] with a cross-snapshot [`PowerCache`].
///
/// Bit-identical to the uncached call in every field (a hit replays the
/// recorded stats, a miss computes them) except [`Dissimilarity::saved`],
/// which reports the work a hit avoided. Only the
/// [`DissimilarityStrategy::General`] power chain consults the cache; the
/// `TransposeOptimized` `L ≤ 3` forms never materialize reusable powers.
///
/// # Errors
///
/// Same conditions as [`fused_dissimilarity`].
pub fn fused_dissimilarity_cached(
    a: &CsrMatrix,
    da: &CsrMatrix,
    num_layers: u32,
    strategy: DissimilarityStrategy,
    cache: &mut PowerCache,
) -> Result<Dissimilarity> {
    dissimilarity_impl(a, da, num_layers, strategy, Some(cache))
}

fn dissimilarity_impl(
    a: &CsrMatrix,
    da: &CsrMatrix,
    num_layers: u32,
    strategy: DissimilarityStrategy,
    cache: Option<&mut PowerCache>,
) -> Result<Dissimilarity> {
    if a.shape() != da.shape() {
        return Err(ModelError::Sparse(idgnn_sparse::SparseError::DimensionMismatch {
            op: "fused_dissimilarity",
            lhs: a.shape(),
            rhs: da.shape(),
        }));
    }
    match (strategy, num_layers) {
        (_, 0) => Ok(Dissimilarity {
            delta_ac: CsrMatrix::zeros(a.rows(), a.cols()),
            ops: OpStats::default(),
            products: 0,
            transposes: 0,
            saved: OpStats::default(),
        }),
        (_, 1) => Ok(Dissimilarity {
            delta_ac: da.clone(),
            ops: OpStats::default(),
            products: 0,
            transposes: 0,
            saved: OpStats::default(),
        }),
        (DissimilarityStrategy::TransposeOptimized, 2) => optimized_l2(a, da),
        (DissimilarityStrategy::TransposeOptimized, 3) => optimized_l3(a, da),
        _ => general(a, da, num_layers, cache),
    }
}

/// Eq. 13 evaluated directly for arbitrary `L`, optionally consulting a
/// [`PowerCache`] for the `A`-side powers and installing the freshly built
/// `(A+ΔA)`-side powers for the next snapshot.
fn general(
    a: &CsrMatrix,
    da: &CsrMatrix,
    l: u32,
    mut cache: Option<&mut PowerCache>,
) -> Result<Dissimilarity> {
    let l_us = l as usize;
    let mut ops = OpStats::default();
    let mut products = 0u32;
    let mut saved = OpStats::default();
    let a_next = ops::sp_add(a, da)?;
    ops.adds += da.nnz() as u64;

    // Powers A^0..A^{L-1}: from the cache when it holds exactly these
    // (bit-identical base, same depth), else computed fresh.
    let pow_a = match cache.as_mut().and_then(|c| c.take(a, l_us)) {
        Some((powers, stats)) => {
            // Warm hit: replay the recorded per-product stats so `ops` and
            // `products` match a cold evaluation exactly; the replayed share
            // is the work actually avoided.
            for &s in &stats {
                ops += s;
                saved += s;
                products += 1;
            }
            powers
        }
        None => {
            let mut powers = vec![CsrMatrix::identity(a.rows())];
            for i in 1..l_us {
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                let (pa, sa) = ops::spgemm_with_stats(&powers[i - 1], a)?;
                ops += sa;
                products += 1;
                powers.push(pa);
            }
            powers
        }
    };

    // Powers (A+ΔA)^0..(A+ΔA)^{L-1} — they key the next snapshot's cache
    // hit, so their per-product stats are recorded.
    let mut pow_n = vec![CsrMatrix::identity(a.rows())];
    let mut pn_stats = Vec::with_capacity(l_us.saturating_sub(1));
    for i in 1..l_us {
        // lint: allow(panic-surface) -- in-bounds: `pow_n` holds `i` powers when iteration `i` reads `pow_n[i - 1]`
        let (pn, sn) = ops::spgemm_with_stats(&pow_n[i - 1], &a_next)?;
        ops += sn;
        products += 1;
        pow_n.push(pn);
        pn_stats.push(sn);
    }

    let mut terms = Vec::with_capacity(l_us);
    for i in 0..l_us {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let (left, s1) = ops::spgemm_with_stats(&pow_a[i], da)?;
        ops += s1;
        products += 1;
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let (term, s2) = ops::spgemm_with_stats(&left, &pow_n[l_us - 1 - i])?;
        workspace::recycle(left);
        ops += s2;
        products += 1;
        terms.push(term);
    }
    for p in pow_a {
        workspace::recycle(p);
    }
    let mut prefix = vec![0usize; l_us];
    let delta_ac = ops::sp_sum_pruned(&terms.iter().collect::<Vec<_>>(), &mut prefix)?;
    // Reported adds follow a left-to-right merge: term i joins the unpruned
    // sum of terms 0..i at min(term nnz, sum nnz) adds; term 0 costs none.
    for (term, &acc_nnz) in terms.iter().skip(1).zip(&prefix) {
        ops.adds += term.nnz().min(acc_nnz) as u64;
    }
    for term in terms {
        workspace::recycle(term);
    }
    match cache {
        Some(c) => c.install(a_next, pow_n, pn_stats),
        None => {
            workspace::recycle(a_next);
            for p in pow_n {
                workspace::recycle(p);
            }
        }
    }
    Ok(Dissimilarity { delta_ac, ops, products, transposes: 0, saved })
}

/// `L = 2`: `ΔA·A + (ΔA·A)ᵀ + ΔA·ΔA` — two products and one transpose
/// instead of three products.
fn optimized_l2(a: &CsrMatrix, da: &CsrMatrix) -> Result<Dissimilarity> {
    debug_assert!(a.is_symmetric(1e-5) && da.is_symmetric(1e-5));
    let mut ops = OpStats::default();
    let (p, s1) = ops::spgemm_with_stats(da, a)?; // ΔA·A
    ops += s1;
    let pt = p.transpose(); // = A·ΔA by symmetry
    let (dd, s2) = ops::spgemm_with_stats(da, da)?; // ΔA²
    ops += s2;
    let delta_ac = ops::sp_sum_pruned(&[&p, &pt, &dd], &mut [0; 3])?;
    ops.adds += (p.nnz() + dd.nnz()) as u64;
    for m in [p, pt, dd] {
        workspace::recycle(m);
    }
    // The transpose substitutes for the mirror product A·ΔA, costed at its
    // twin's recorded cost (exact by symmetry of the operands).
    Ok(Dissimilarity { delta_ac, ops, products: 2, transposes: 1, saved: s1 })
}

/// `L = 3`, the paper's worked example (Eqs. 14–15):
///
/// ```text
/// ΔA_C = A(ΔA·A) + ΔA·A·ΔA + (ΔA·ΔA·A)(1 + T) + (ΔA·A·A)(1 + T) + ΔA³
/// ```
///
/// Every product has the hyper-sparse `ΔA` as one operand (directly or
/// through `P = ΔA·A`), so the chains never touch the dense-ish
/// `(A + ΔA)²` that the general path must build.
fn optimized_l3(a: &CsrMatrix, da: &CsrMatrix) -> Result<Dissimilarity> {
    debug_assert!(a.is_symmetric(1e-5) && da.is_symmetric(1e-5));
    let mut ops = OpStats::default();
    let mut products = 0u32;
    let mut mm = |x: &CsrMatrix, y: &CsrMatrix| -> Result<(CsrMatrix, OpStats)> {
        let (m, s) = ops::spgemm_with_stats(x, y)?;
        ops += s;
        products += 1;
        Ok((m, s))
    };

    let (p, _) = mm(da, a)?; // P = ΔA·A (shared)
    let (ada_a, _) = mm(&p.transpose(), a)?; // A·ΔA·A   (palindrome, self-transpose)
    let (da_a_da, _) = mm(&p, da)?; // ΔA·A·ΔA (palindrome)
    let (dd, _) = mm(da, da)?; // ΔA²
    let (dda, s_dda) = mm(&dd, a)?; // ΔA·ΔA·A  → its T gives A·ΔA·ΔA
    let (daa, s_daa) = mm(&p, a)?; // ΔA·A·A   → its T gives A·A·ΔA
    let (ddd, _) = mm(&dd, da)?; // ΔA³

    let (dda_t, daa_t) = (dda.transpose(), daa.transpose());
    let terms = [&ada_a, &da_a_da, &dda, &dda_t, &daa, &daa_t, &ddd];
    let mut prefix = [0usize; 7];
    let delta_ac = ops::sp_sum_pruned(&terms, &mut prefix)?;
    // Reported adds follow a left-to-right merge: the first two terms
    // combine uncounted, then each later term joins the unpruned sum of
    // the terms before it at min(term nnz, max(sum nnz, 1)) adds.
    for (term, &acc_nnz) in terms.iter().skip(2).zip(prefix.iter().skip(1)) {
        ops.adds += term.nnz().min(acc_nnz.max(1)) as u64;
    }
    for m in [p, ada_a, da_a_da, dd, dda, dda_t, daa, daa_t, ddd] {
        workspace::recycle(m);
    }
    // The two transposes substitute for the mirror products A·ΔA·ΔA and
    // A·A·ΔA, costed at their twins' recorded cost (exact by symmetry).
    Ok(Dissimilarity { delta_ac, ops, products, transposes: 2, saved: s_dda + s_daa })
}

/// The aggregation half of Eq. 10:
/// `ΔAgg = ΔA_C · X_0^{t+1} + A_C^t · ΔX_0^{t+1}`.
///
/// The second product exploits the row sparsity of `ΔX_0` (only updated
/// vertices have non-zero rows) and the symmetry of `A_C^t`: only the columns
/// of `A_C^t` matching updated rows contribute, accessed as rows via
/// symmetry.
///
/// # Errors
///
/// Returns a dimension error if shapes are inconsistent.
pub fn delta_aggregation(
    delta_ac: &CsrMatrix,
    x0_next: &DenseMatrix,
    ac_prev: &CsrMatrix,
    dx0: &DenseMatrix,
) -> Result<(DenseMatrix, OpStats)> {
    let (mut agg, mut ops) = ops::spmm_with_stats(delta_ac, x0_next)?;
    if agg.shape() != dx0.shape() {
        return Err(ModelError::Sparse(idgnn_sparse::SparseError::DimensionMismatch {
            op: "delta_aggregation",
            lhs: agg.shape(),
            rhs: dx0.shape(),
        }));
    }
    let k = dx0.cols();
    for v in 0..dx0.rows() {
        let row = dx0.row(v);
        if row.iter().all(|&x| x == 0.0) {
            continue;
        }
        // A_C^t is symmetric: column v equals row v.
        for (r, w) in ac_prev.row_iter(v) {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            let out = &mut agg.as_mut_slice()[r * k..(r + 1) * k];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += w * x;
            }
            ops.mults += k as u64;
            ops.adds += k as u64;
        }
    }
    Ok((agg, ops))
}

/// Rows of `m` containing at least one entry with `|x| > tol` — the
/// "involved vertices" whose features/outputs the one-pass kernel touches.
pub fn nonzero_rows(m: &DenseMatrix, tol: f32) -> Vec<usize> {
    (0..m.rows())
        .filter(|&r| m.row(r).iter().any(|&x| x.abs() > tol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::{adjacency_from_edges, GraphDelta, GraphSnapshot, Normalization};
    use idgnn_sparse::DenseMatrix;

    fn setup(norm: Normalization) -> (CsrMatrix, CsrMatrix, CsrMatrix) {
        let base = GraphSnapshot::new(
            adjacency_from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 5)])
                .unwrap(),
            DenseMatrix::zeros(8, 1),
        )
        .unwrap();
        let delta = GraphDelta::builder().add_edge(0, 4).remove_edge(1, 5).build();
        let next = delta.apply(&base).unwrap();
        let a_prev = norm.apply(base.adjacency());
        let a_next = norm.apply(next.adjacency());
        let d = ops::sp_sub(&a_next, &a_prev).unwrap().pruned(0.0);
        (a_prev, a_next, d)
    }

    fn reference_delta_ac(a_prev: &CsrMatrix, a_next: &CsrMatrix, l: u32) -> CsrMatrix {
        let pow = |m: &CsrMatrix| ops::sp_pow_with_stats(m, l).unwrap().0;
        ops::sp_sub(&pow(a_next), &pow(a_prev)).unwrap().pruned(0.0)
    }

    #[test]
    fn general_matches_reference_l3() {
        let (a, an, d) = setup(Normalization::Symmetric);
        let got = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).unwrap();
        let want = reference_delta_ac(&a, &an, 3);
        assert!(got.delta_ac.approx_eq(&want, 1e-4));
        assert_eq!(got.transposes, 0);
    }

    #[test]
    fn optimized_matches_reference_l2_and_l3() {
        let (a, an, d) = setup(Normalization::Symmetric);
        for l in [2u32, 3] {
            let got =
                fused_dissimilarity(&a, &d, l, DissimilarityStrategy::TransposeOptimized).unwrap();
            let want = reference_delta_ac(&a, &an, l);
            assert!(
                got.delta_ac.approx_eq(&want, 1e-4),
                "L={l}: max diff {}",
                ops::sp_sub(&got.delta_ac, &want).unwrap().max_abs()
            );
            assert!(got.transposes > 0, "L={l} should use transposes");
        }
    }

    #[test]
    fn optimized_matches_general_raw_adjacency() {
        let (a, _an, d) = setup(Normalization::Raw);
        let g = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).unwrap();
        let o = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::TransposeOptimized).unwrap();
        assert!(g.delta_ac.approx_eq(&o.delta_ac, 1e-4));
    }

    #[test]
    fn trivial_layer_counts() {
        let (a, _, d) = setup(Normalization::Raw);
        let r0 = fused_dissimilarity(&a, &d, 0, DissimilarityStrategy::default()).unwrap();
        assert_eq!(r0.delta_ac.nnz(), 0);
        let r1 = fused_dissimilarity(&a, &d, 1, DissimilarityStrategy::default()).unwrap();
        assert_eq!(r1.delta_ac, d);
        assert_eq!(r1.products, 0);
    }

    #[test]
    fn optimized_is_cheaper_than_general_on_sparse_deltas() {
        // The optimization exists to avoid multiplying by the dense-ish
        // (A+ΔA)² — on a sparse delta the optimized path must do fewer mults.
        let (a, _, d) = setup(Normalization::Symmetric);
        let g = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).unwrap();
        let o = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::TransposeOptimized).unwrap();
        assert!(
            o.ops.mults < g.ops.mults,
            "optimized {} vs general {}",
            o.ops.mults,
            g.ops.mults
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = CsrMatrix::identity(4);
        let d = CsrMatrix::identity(5);
        assert!(fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).is_err());
    }

    #[test]
    fn delta_aggregation_matches_dense_reference() {
        let (a, an, d) = setup(Normalization::Symmetric);
        let dac = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::default()).unwrap();
        let ac_prev = ops::sp_pow_with_stats(&a, 3).unwrap().0;
        let ac_next = ops::sp_pow_with_stats(&an, 3).unwrap().0;

        let x_prev = DenseMatrix::from_vec(8, 3, (0..24).map(|i| (i as f32).cos()).collect()).unwrap();
        let mut x_next = x_prev.clone();
        for c in 0..3 {
            x_next.set(2, c, 5.0 + c as f32); // vertex 2's features change
        }
        let dx0 = x_next.sub(&x_prev).unwrap();

        let (got, ops_cnt) = delta_aggregation(&dac.delta_ac, &x_next, &ac_prev, &dx0).unwrap();
        // Reference: A_C^{t+1}·X^{t+1} − A_C^t·X^t.
        let want = ops::spmm_with_stats(&ac_next, &x_next)
            .unwrap()
            .0
            .sub(&ops::spmm_with_stats(&ac_prev, &x_prev).unwrap().0)
            .unwrap();
        assert!(got.approx_eq(&want, 1e-3), "max diff {}", got.max_abs_diff(&want).unwrap());
        assert!(ops_cnt.mults > 0);
    }

    #[test]
    fn nonzero_rows_finds_involved_vertices() {
        let mut m = DenseMatrix::zeros(4, 2);
        m.set(1, 0, 0.5);
        m.set(3, 1, -2.0);
        assert_eq!(nonzero_rows(&m, 0.0), vec![1, 3]);
        assert_eq!(nonzero_rows(&m, 1.0), vec![3]);
    }

    /// Bitwise CSR equality (indptr, indices, value bits).
    fn assert_identical(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.indptr(), b.indptr());
        assert_eq!(a.indices(), b.indices());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn power_cache_miss_then_hit_is_bit_identical_to_cold() {
        let (a, _, d) = setup(Normalization::Symmetric);
        let mut cache = PowerCache::new();

        // First call: cold in both worlds.
        let cold = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).unwrap();
        let warm = fused_dissimilarity_cached(&a, &d, 3, DissimilarityStrategy::General, &mut cache)
            .unwrap();
        assert_identical(&cold.delta_ac, &warm.delta_ac);
        assert_eq!(cold.ops, warm.ops);
        assert_eq!(cold.products, warm.products);
        assert_eq!(warm.saved, OpStats::default());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);

        // Next snapshot: the resident operator advances by ΔA (exactly the
        // matrix the cache keyed its install on), the delta shrinks to a
        // sub-delta — the lookup must hit and stay bit-identical.
        let a2 = ops::sp_add(&a, &d).unwrap();
        let d2 = d.scale(0.5);
        let cold2 = fused_dissimilarity(&a2, &d2, 3, DissimilarityStrategy::General).unwrap();
        let warm2 =
            fused_dissimilarity_cached(&a2, &d2, 3, DissimilarityStrategy::General, &mut cache)
                .unwrap();
        assert_identical(&cold2.delta_ac, &warm2.delta_ac);
        assert_eq!(cold2.ops, warm2.ops);
        assert_eq!(cold2.products, warm2.products);
        assert_eq!(cache.hits(), 1);
        assert!(warm2.saved.mults > 0, "a hit must report avoided work");
        assert_eq!(cold2.saved, OpStats::default());
    }

    #[test]
    fn power_cache_invalidates_on_operator_or_depth_change() {
        // Each call installs powers of its *advanced* operator A+ΔA, so a
        // follow-up call hits only when passed exactly that matrix.
        let (a, _, d) = setup(Normalization::Symmetric);
        let mut cache = PowerCache::new();
        let cached = |a: &CsrMatrix, l: u32, cache: &mut PowerCache| {
            fused_dissimilarity_cached(a, &d, l, DissimilarityStrategy::General, cache).unwrap()
        };

        let _ = cached(&a, 3, &mut cache); // cold: miss
        let a2 = ops::sp_add(&a, &d).unwrap();
        let r = cached(&a2, 4, &mut cache); // depth changed 3 → 4: miss
        assert_eq!(cache.hits(), 0);
        assert_eq!(r.saved, OpStats::default());

        let a3 = ops::sp_add(&a2, &d).unwrap();
        let _ = cached(&a3, 4, &mut cache); // matching operator and depth: hit
        assert_eq!(cache.hits(), 1);

        // Perturbed operator (same structure, different value bits): miss.
        let perturbed = ops::sp_add(&a3, &d).unwrap().scale(2.0);
        let _ = cached(&perturbed, 4, &mut cache);
        assert_eq!(cache.hits(), 1);
    }

    /// A long ring graph with a one-edge delta, normalized symmetrically.
    fn ring_setup(n: usize) -> (CsrMatrix, CsrMatrix) {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let base = GraphSnapshot::new(
            adjacency_from_edges(n, &edges).unwrap(),
            DenseMatrix::zeros(n, 1),
        )
        .unwrap();
        let delta = GraphDelta::builder().add_edge(0, 2).build();
        let next = delta.apply(&base).unwrap();
        let a_prev = Normalization::Symmetric.apply(base.adjacency());
        let a_next = Normalization::Symmetric.apply(next.adjacency());
        let d = ops::sp_sub_pruned(&a_next, &a_prev).unwrap();
        (a_prev, d)
    }

    #[test]
    fn transpose_substitution_reports_saved_ops() {
        let (a, _, d) = setup(Normalization::Symmetric);
        let l2 = fused_dissimilarity(&a, &d, 2, DissimilarityStrategy::TransposeOptimized).unwrap();
        assert!(l2.saved.mults > 0);
        let l3 = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::TransposeOptimized).unwrap();
        assert!(l3.saved.mults > 0);
        // The general path performs every product itself.
        let g = fused_dissimilarity(&a, &d, 3, DissimilarityStrategy::General).unwrap();
        assert_eq!(g.saved, OpStats::default());
    }

    #[test]
    fn empty_delta_produces_empty_dissimilarity() {
        let (a, _, _) = setup(Normalization::Symmetric);
        let zero = CsrMatrix::zeros(8, 8);
        for strat in [DissimilarityStrategy::General, DissimilarityStrategy::TransposeOptimized] {
            let r = fused_dissimilarity(&a, &zero, 3, strat).unwrap();
            assert_eq!(r.delta_ac.nnz(), 0, "{strat:?}");
        }
    }

    fn power(m: &CsrMatrix, i: usize) -> CsrMatrix {
        if i == 0 { CsrMatrix::identity(m.rows()) } else { ops::sp_pow_with_stats(m, i as u32).unwrap().0 }
    }

    /// The pairwise-fold evaluation the one-pass term sum replaced: each
    /// strategy's terms folded left to right with `sp_add`, adds accounted
    /// from the live accumulator, then `pruned(0.0)`. The General path
    /// accounts both power chains cold; `hit` marks a transition the
    /// kernel's cache serves, whose `A`-side chain is reported as saved.
    fn pairwise_fold_oracle(
        a: &CsrMatrix,
        da: &CsrMatrix,
        l: u32,
        strategy: DissimilarityStrategy,
        hit: bool,
    ) -> Dissimilarity {
        let mut ops_acc = OpStats::default();
        let mm = |x: &CsrMatrix, y: &CsrMatrix, ops_acc: &mut OpStats| {
            let (m, st) = ops::spgemm_with_stats(x, y).unwrap();
            *ops_acc += st;
            (m, st)
        };
        let add = |x: &CsrMatrix, y: &CsrMatrix| ops::sp_add(x, y).unwrap();
        match (strategy, l) {
            (DissimilarityStrategy::TransposeOptimized, 2) => {
                let (p, s1) = mm(da, a, &mut ops_acc);
                let (dd, _) = mm(da, da, &mut ops_acc);
                let sum = add(&add(&p, &p.transpose()), &dd);
                ops_acc.adds += (p.nnz() + dd.nnz()) as u64;
                Dissimilarity {
                    delta_ac: sum.pruned(0.0),
                    ops: ops_acc,
                    products: 2,
                    transposes: 1,
                    saved: s1,
                }
            }
            (DissimilarityStrategy::TransposeOptimized, 3) => {
                let (p, _) = mm(da, a, &mut ops_acc);
                let (ada_a, _) = mm(&p.transpose(), a, &mut ops_acc);
                let (da_a_da, _) = mm(&p, da, &mut ops_acc);
                let (dd, _) = mm(da, da, &mut ops_acc);
                let (dda, s_dda) = mm(&dd, a, &mut ops_acc);
                let (daa, s_daa) = mm(&p, a, &mut ops_acc);
                let (ddd, _) = mm(&dd, da, &mut ops_acc);
                let mut acc = add(&ada_a, &da_a_da);
                for term in [&dda, &dda.transpose(), &daa, &daa.transpose(), &ddd] {
                    ops_acc.adds += term.nnz().min(acc.nnz().max(1)) as u64;
                    acc = add(&acc, term);
                }
                Dissimilarity {
                    delta_ac: acc.pruned(0.0),
                    ops: ops_acc,
                    products: 7,
                    transposes: 2,
                    saved: s_dda + s_daa,
                }
            }
            _ => {
                let l_us = l as usize;
                let an = add(a, da);
                let mut acc = CsrMatrix::zeros(a.rows(), a.cols());
                for i in 0..l_us {
                    let (left, _) = mm(&power(a, i), da, &mut ops_acc);
                    let (term, _) = mm(&left, &power(&an, l_us - 1 - i), &mut ops_acc);
                    ops_acc.adds += term.nnz().min(acc.nnz()) as u64;
                    acc = add(&acc, &term);
                }
                // Both power chains, each `L − 1` products from `I`, plus
                // the `A + ΔA` merge.
                let chain = |m: &CsrMatrix| {
                    let mut pow = CsrMatrix::identity(m.rows());
                    let mut st = OpStats::default();
                    for _ in 1..l_us {
                        let (next, s) = ops::spgemm_with_stats(&pow, m).unwrap();
                        st += s;
                        pow = next;
                    }
                    st
                };
                let (chain_a, chain_n) = (chain(a), chain(&an));
                Dissimilarity {
                    delta_ac: acc.pruned(0.0),
                    ops: ops_acc + chain_a + chain_n + OpStats::counted(0, da.nnz() as u64),
                    products: 2 * l + 2 * (l - 1),
                    transposes: 0,
                    saved: if hit { chain_a } else { OpStats::default() },
                }
            }
        }
    }

    /// A path `0–1–2–3` whose delta adds a clique on `3..8`: the delta
    /// barely touches `A`, so the `A`-anchored terms are small and later
    /// `ΔA`-only terms outgrow the sum before them.
    fn burst_setup() -> (CsrMatrix, CsrMatrix) {
        let base = GraphSnapshot::new(
            adjacency_from_edges(8, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            DenseMatrix::zeros(8, 1),
        )
        .unwrap();
        let mut delta = GraphDelta::builder();
        for u in 3..8 {
            for v in u + 1..8 {
                delta = delta.add_edge(u, v);
            }
        }
        let next = delta.build().apply(&base).unwrap();
        let a_prev = Normalization::Raw.apply(base.adjacency());
        let d = ops::sp_sub_pruned(&Normalization::Raw.apply(next.adjacency()), &a_prev).unwrap();
        (a_prev, d)
    }

    /// Runs three transitions (`A ← A + ΔA`, `ΔA ← ΔA / 2`) through the
    /// kernel and the oracle and requires every reported field to match.
    fn assert_matches_oracle(
        case: &(CsrMatrix, CsrMatrix),
        l: u32,
        strategy: DissimilarityStrategy,
        cached: bool,
    ) {
        let (mut a, mut d) = case.clone();
        let mut cache = PowerCache::new();
        for step in 0..3 {
            let (got, want) = if cached {
                (
                    fused_dissimilarity_cached(&a, &d, l, strategy, &mut cache).unwrap(),
                    pairwise_fold_oracle(&a, &d, l, strategy, step > 0),
                )
            } else {
                (
                    fused_dissimilarity(&a, &d, l, strategy).unwrap(),
                    pairwise_fold_oracle(&a, &d, l, strategy, false),
                )
            };
            let ctx = format!("L={l} {strategy:?} cached={cached} step={step}");
            assert!(got.delta_ac.nnz() > 0, "{ctx}: an empty ΔA_C pins nothing");
            assert_identical(&want.delta_ac, &got.delta_ac);
            assert_eq!(got.ops, want.ops, "{ctx}");
            assert_eq!(got.products, want.products, "{ctx}");
            assert_eq!(got.transposes, want.transposes, "{ctx}");
            assert_eq!(got.saved, want.saved, "{ctx}");
            a = ops::sp_add(&a, &d).unwrap();
            d = d.scale(0.5);
        }
        if cached && (strategy == DissimilarityStrategy::General || l == 4) {
            assert_eq!(cache.hits(), 2, "L={l} {strategy:?}: later transitions must hit");
        }
    }

    #[test]
    fn one_pass_term_sum_matches_pairwise_fold_oracle() {
        // Pins ΔA_C bits and the prefix-derived `adds` (via `ops`), plus
        // `products` and `saved`, at L = 2, 3, 4 for both strategies, with
        // and without a PowerCache (cached runs hit from the second
        // transition on). On the ring every prefix sum is larger than the
        // next term; on the burst some terms are larger, so the
        // `min(term, accumulator)` accounting is pinned on both sides.
        let strategies = [DissimilarityStrategy::TransposeOptimized, DissimilarityStrategy::General];
        for case in [ring_setup(40), burst_setup()] {
            for l in [2u32, 3, 4] {
                for strategy in strategies {
                    for cached in [false, true] {
                        assert_matches_oracle(&case, l, strategy, cached);
                    }
                }
            }
        }
    }
}
