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
//! Every path adds its terms with one [`ops::sp_sum_pruned_rows`] pass. The
//! sum is bit-identical to a left-to-right `sp_add` fold followed by
//! `pruned(0.0)`, and the reported adds are derived from the unpruned
//! prefix-sum sizes it returns, so [`Dissimilarity::ops`] counts exactly the
//! merges such a fold performs.
//!
//! ## `ΔA_C` is a row stream
//!
//! Every path — `L ≤ 1`, Eq. 15 at `L = 2, 3`, and the general path with or
//! without a [`PowerCache`] — ends by handing `ΔA_C` row by row to a
//! [`RowSink`] ([`ops::sp_sum_pruned_rows`], or [`ops::sp_rows`] for
//! `L ≤ 1`, whose `ΔA_C` is `0` or `ΔA`). Eq. 15 at `L = 3` and the general
//! path never form their first term either: `A·ΔA·A = Pᵀ·A` and
//! `ΔA·(A+ΔA)^{L−1}` are the sum's lead product
//! ([`ops::sp_sum_pruned_rows_led`]), whose Gustavson segments are added
//! straight into the sum's accumulator, bit-identical to forming the
//! product and summing it, with the product's exact [`OpStats`]. The
//! paper's AComb feeds AG the
//! same way (§V): [`fused_dissimilarity_rows`] lets the one-pass executor
//! aggregate each row as it arrives and never store the matrix, while
//! [`fused_dissimilarity`] and [`fused_dissimilarity_cached`] collect the
//! rows into a [`CsrMatrix`] for tests, benches and the walkthrough.
//!
//! ## The general path builds only what `ΔA` reads
//!
//! [`DissimilarityStrategy::General`] (any `L ≥ 4`, and the fallback for
//! asymmetric operators) evaluates Eq. 13 term by term. Of the two top
//! powers, `A^{L−1}` is read only by `A^{L−1}·ΔA`, which touches only its
//! columns `S_r` (rows of `ΔA` with a stored entry), and `(A+ΔA)^{L−1}` only
//! by `ΔA·(A+ΔA)^{L−1}`, which touches only its rows `S_c` (columns of `ΔA`
//! with a stored entry; `S_r ≠ S_c` for asymmetric operators). So each
//! chain stops at `L − 2` and only those slices are formed:
//! `A^{L−2}·A[:, S_r]` and `(A+ΔA)^{L−2}[S_c, :]·(A+ΔA)`. Every kept entry
//! receives the same products in the same ascending-`k` order as in the
//! full power, so `ΔA_C` is bit-identical. The two full products still
//! enter [`Dissimilarity::ops`] and [`Dissimilarity::products`] at exactly
//! the cost [`ops::spgemm_with_stats`] reports for them, counted from the
//! stored patterns (both operands are powers of one pattern, so the
//! product's row counts are unions of row bitmaps). Products by the
//! identity are not executed but counted at the kernel's cost for them.
//!
//! ## Cross-snapshot power caching
//!
//! The general path builds the powers `A^1..A^{L−2}` and `(A+ΔA)^1..` every
//! snapshot, yet the next snapshot's `A` is exactly this snapshot's `A+ΔA`:
//! the powers flow across snapshots. [`PowerCache`] retains the
//! `(A+ΔA)`-side powers keyed by the operator they belong to, and
//! [`fused_dissimilarity_cached`] reuses them as the `A`-side powers of the
//! following call when the operator matches *bit-for-bit* (the invalidation
//! rule — any mismatch, including a depth change, recomputes from scratch).
//! On a hit the recorded per-product [`OpStats`] — all `L − 1`, the
//! counted top product included — are replayed into the result, so reported
//! operation counts (and every figure derived from them) are identical to a
//! cold evaluation; the actually-avoided work is accounted separately in
//! [`Dissimilarity::saved`]. The `A`-side slice is then built from the
//! cached `A^{L−2}`.
//!
//! A hit needs the caller to advance its operator exactly as the kernel
//! does (`A ← sp_add(A, ΔA)`). The one-pass executor advances to the
//! re-normalised `Â^{t+1}` instead, which never matches that key bit for
//! bit (DESIGN.md §8), so it calls the uncached [`fused_dissimilarity_rows`].
//! The hit path serves callers that maintain the operator additively, such
//! as the `kernels` bench's warm power chain.

use idgnn_sparse::ops::{CsrRows, RowSink};
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
pub struct Dissimilarity<D = CsrMatrix> {
    /// The fused graph dissimilarity matrix `ΔA_C`. Only the collecting
    /// entries ([`fused_dissimilarity`], [`fused_dissimilarity_cached`])
    /// build it, as a [`CsrMatrix`], for tests, benches and the
    /// walkthrough; the one-pass executor never does. From
    /// [`fused_dissimilarity_rows`] it is the row sink `ΔA_C` streamed
    /// into.
    pub delta_ac: D,
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

impl<D> Dissimilarity<D> {
    /// An evaluation that performed no product: `ΔA_C` is `0` or `ΔA`.
    fn uncounted(delta_ac: D) -> Self {
        Self {
            delta_ac,
            ops: OpStats::default(),
            products: 0,
            transposes: 0,
            saved: OpStats::default(),
        }
    }
}

impl Dissimilarity<CsrRows> {
    /// Assembles the streamed rows of `ΔA_C` into a matrix.
    fn into_matrix(self) -> Dissimilarity {
        let Self { delta_ac, ops, products, transposes, saved } = self;
        Dissimilarity { delta_ac: delta_ac.into_matrix(), ops, products, transposes, saved }
    }
}

/// Cross-snapshot cache of operator powers `[I, A, …, A^{L−2}]`, plus the
/// recorded costs of all `L − 1` chain products up to `A^{L−1}`, for the
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
    /// `stats[i]` is the recorded cost of the product `A^i·A`, replayed
    /// into `ops` on a hit; the last one, `A^{L−2}·A`, was counted rather
    /// than formed.
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
    /// (`stats.len() == l − 1`, i.e. powers `[I, a, …, a^{l−2}]`).
    fn take(&mut self, a: &CsrMatrix, l: usize) -> Option<(Vec<CsrMatrix>, Vec<OpStats>)> {
        let hit = self.stats.len() + 1 == l
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

    /// Replaces the cache contents with the powers of `base`.
    fn install(&mut self, base: CsrMatrix, powers: Vec<CsrMatrix>, stats: Vec<OpStats>) {
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

/// Computes `ΔA_C = (A + ΔA)^L − A^L`, collected into a [`CsrMatrix`]:
/// [`fused_dissimilarity_rows`] with the sink that assembles the rows.
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
    let sink = CsrRows::new(a.rows(), a.cols());
    Ok(dissimilarity_impl(a, da, num_layers, strategy, None, sink)?.into_matrix())
}

/// Computes `ΔA_C = (A + ΔA)^L − A^L` and streams its rows into `sink`
/// instead of storing it: the sink receives every row of `ΔA_C` once, in
/// ascending order (empty ones included), and comes back as
/// [`Dissimilarity::delta_ac`].
///
/// The rows are those [`fused_dissimilarity`] collects, bit for bit, and
/// every other field is the same.
///
/// # Errors
///
/// Same conditions as [`fused_dissimilarity`].
pub fn fused_dissimilarity_rows<S: RowSink>(
    a: &CsrMatrix,
    da: &CsrMatrix,
    num_layers: u32,
    strategy: DissimilarityStrategy,
    sink: S,
) -> Result<Dissimilarity<S>> {
    dissimilarity_impl(a, da, num_layers, strategy, None, sink)
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
    let sink = CsrRows::new(a.rows(), a.cols());
    Ok(dissimilarity_impl(a, da, num_layers, strategy, Some(cache), sink)?.into_matrix())
}

fn dissimilarity_impl<S: RowSink>(
    a: &CsrMatrix,
    da: &CsrMatrix,
    num_layers: u32,
    strategy: DissimilarityStrategy,
    cache: Option<&mut PowerCache>,
    sink: S,
) -> Result<Dissimilarity<S>> {
    if a.shape() != da.shape() {
        return Err(ModelError::Sparse(idgnn_sparse::SparseError::DimensionMismatch {
            op: "fused_dissimilarity",
            lhs: a.shape(),
            rhs: da.shape(),
        }));
    }
    match (strategy, num_layers) {
        (_, 0) => {
            let zeros = CsrMatrix::zeros(a.rows(), a.cols());
            Ok(Dissimilarity::uncounted(ops::sp_rows(&zeros, sink)))
        }
        (_, 1) => Ok(Dissimilarity::uncounted(ops::sp_rows(da, sink))),
        (DissimilarityStrategy::TransposeOptimized, 2) => optimized_l2(a, da, sink),
        (DissimilarityStrategy::TransposeOptimized, 3) => optimized_l3(a, da, sink),
        _ => general(a, da, num_layers, cache, sink),
    }
}

/// Eq. 13 evaluated directly for arbitrary `L`, optionally consulting a
/// [`PowerCache`] for the `A`-side powers and installing the freshly built
/// `(A+ΔA)`-side powers for the next snapshot.
///
/// Each chain stops at `L − 2`: the two top powers are each read by one
/// product with the sparse `ΔA`, so only the slice that product reads is
/// formed — `A^{L-1}[:, S_r]` for `A^{L-1}·ΔA` (`S_r`: rows of `ΔA` with a
/// stored entry) and `(A+ΔA)^{L-1}[S_c, :]` for `ΔA·(A+ΔA)^{L-1}` (`S_c`:
/// columns of `ΔA` with a stored entry). Every kept entry receives the same
/// products in the same ascending-`k` order as in the full power, so
/// `ΔA_C` is bit-identical; the two skipped full products still enter `ops`
/// and `products` at the exact cost [`spgemm_with_stats`] would report
/// ([`pattern_product_stats`]). The products by the identity in the chains
/// and terms — `I·A`, `I·(A+ΔA)`, `I·ΔA` and `(A^{L-1}·ΔA)·I` — are not
/// executed: the first two are clones, the last two skipped, and each is
/// counted at the kernel's cost for it ([`identity_stats`]). Term 0,
/// `ΔA·(A+ΔA)^{L-1}`, is the term sum's lead product `(ΔA, slice)`
/// ([`ops::sp_sum_pruned_rows_led`]): it is accumulated into the sum, never
/// formed, and enters `ops` at the product's own cost.
///
/// [`spgemm_with_stats`]: ops::spgemm_with_stats
fn general<S: RowSink>(
    a: &CsrMatrix,
    da: &CsrMatrix,
    l: u32,
    mut cache: Option<&mut PowerCache>,
    sink: S,
) -> Result<Dissimilarity<S>> {
    let l_us = l as usize;
    let top = l_us - 1;
    let mut ops = OpStats::default();
    let mut products = 0u32;
    let mut saved = OpStats::default();
    let a_next = ops::sp_add(a, da)?;
    ops.adds += da.nnz() as u64;

    // Powers A^0..A^{L-2}: from the cache when it holds exactly these
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
            let (powers, stats) = power_chain(a, l_us)?;
            for s in stats {
                ops += s;
                products += 1;
            }
            powers
        }
    };
    // Powers (A+ΔA)^0..(A+ΔA)^{L-2} — they key the next snapshot's cache
    // hit, so their per-product stats are recorded.
    let (pow_n, pn_stats) = power_chain(&a_next, l_us)?;
    for &s in &pn_stats {
        ops += s;
        products += 1;
    }

    let in_s_r: Vec<bool> = (0..da.rows()).map(|r| da.row_nnz(r) > 0).collect();
    let mut in_s_c = vec![false; da.cols()];
    for &c in da.indices() {
        if let Some(keep) = in_s_c.get_mut(c) {
            *keep = true;
        }
    }
    // The slices of the top powers ΔA reads: A^{L-2}·A[:, S_r] and
    // (A+ΔA)^{L-2}[S_c, :]·(A+ΔA). Their own products are not counted: the
    // full products they stand for already are.
    let (a_last, n_last) = (&pow_a[top - 1], &pow_n[top - 1]);
    let a_cols = filter_entries(a, |_, c| in_s_r.get(c) == Some(&true));
    let n_rows = filter_entries(n_last, |r, _| in_s_c.get(r) == Some(&true));
    let a_top = ops::spgemm_with_stats(a_last, &a_cols)?.0;
    let n_top = ops::spgemm_with_stats(&n_rows, &a_next)?.0;
    drop((a_cols, n_rows));

    // Term i is A^i·ΔA·(A+ΔA)^{L-1-i}. The identity factors of terms 0 and
    // L − 1 are skipped and counted at the kernel's cost for them. Term 0,
    // ΔA·(A+ΔA)^{L-1}, is the sum's lead product (below): it is never
    // formed.
    let mut terms = Vec::with_capacity(top);
    for i in 1..l_us {
        let (term, s1, s2) = if i == top {
            let (term, s1) = ops::spgemm_with_stats(&a_top, da)?;
            let s2 = identity_stats(&term);
            (term, s1, s2)
        } else {
            let (a_pow, n_pow) = (&pow_a[i], &pow_n[top - i]);
            let (left, s1) = ops::spgemm_with_stats(a_pow, da)?;
            let (term, s2) = ops::spgemm_with_stats(&left, n_pow)?;
            workspace::recycle(left);
            (term, s1, s2)
        };
        ops += s1 + s2;
        products += 2;
        terms.push(term);
    }
    // The chains and slices go back to the allocator, not to the buffer
    // pool: the pool hands buffers out last in, first out whatever their
    // size, and pooling these odd-sized ones let later large outputs grow
    // each of them (perfbench `powerchain-l4` peak RSS about 2× higher).
    drop((pow_a, a_top));
    let mut prefix = vec![0usize; l_us];
    let term_refs: Vec<&CsrMatrix> = terms.iter().collect();
    let (delta_ac, s_lead) = ops::sp_sum_pruned_rows_led((da, &n_top), &term_refs, &mut prefix, sink)?;
    drop(term_refs);
    ops += identity_stats(da) + s_lead;
    products += 2;
    // Reported adds follow a left-to-right merge: term i joins the unpruned
    // sum of terms 0..i at min(term nnz, sum nnz) adds; term 0 costs none.
    for (term, &acc_nnz) in terms.iter().zip(&prefix) {
        ops.adds += term.nnz().min(acc_nnz) as u64;
    }
    // The terms go back to the allocator too, for the reason above: pooled,
    // they ran perfbench `powerchain-l4` about 15 % faster but took its peak
    // RSS from about 30 MB to 44-48 MB.
    drop((terms, n_top));
    if let Some(c) = cache {
        c.install(a_next, pow_n, pn_stats);
    }
    Ok(Dissimilarity { delta_ac, ops, products, transposes: 0, saved })
}

/// `[I, m, …, m^{L-2}]` and the costs of the `L − 1` products `I·m, …,
/// m^{L-2}·m` that build `m^1..m^{L-1}`. `I·m` is a clone; the top product
/// is counted from the pattern ([`pattern_product_stats`]), not formed.
fn power_chain(m: &CsrMatrix, l: usize) -> Result<(Vec<CsrMatrix>, Vec<OpStats>)> {
    let mut powers = vec![CsrMatrix::identity(m.rows())];
    let mut stats = Vec::with_capacity(l - 1);
    for i in 1..l - 1 {
        let next = match powers.last() {
            Some(last) if i > 1 => ops::spgemm_with_stats(last, m)?,
            // I·m is m.
            _ => (m.clone(), identity_stats(m)),
        };
        powers.push(next.0);
        stats.push(next.1);
    }
    if let Some(last) = powers.last() {
        stats.push(pattern_product_stats(last, m, last.csr_bytes()));
    }
    Ok((powers, stats))
}

/// What [`ops::spgemm_with_stats`] reports for `I·m` or `m·I`: one multiply
/// per stored entry and no add (each output slot receives one product).
fn identity_stats(m: &CsrMatrix) -> OpStats {
    OpStats::counted(m.nnz() as u64, 0)
}

/// The stored entries `(r, c)` of `m` for which `keep(r, c)` holds, in
/// their original order.
fn filter_entries(m: &CsrMatrix, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(m.rows() + 1);
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    indptr.push(0);
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            if keep(r, c) {
                indices.push(c);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(m.rows(), m.cols(), indptr, indices, values)
        // lint: allow(panic-surface) -- a subset of a valid CSR's entries in their original order is valid
        .expect("filtered CSR is valid")
}

/// The [`OpStats`] [`ops::spgemm_with_stats`] reports for `x · b`, counted
/// from the stored patterns alone: `mults = Σ_{(i,j) ∈ x} nnz(b_j)` and
/// `adds = mults − nnz(x · b)`, with `nnz` structural (stored zeros
/// included, as the kernel never prunes).
///
/// `x` and `b` must be powers of one stored pattern `P` (`x` may be `I`):
/// then `pattern(x · b) = P^{p+1} = pattern(b · x)`, and row `r` of `b · x`
/// holds `popcount(OR of x's row bitmaps over j ∈ b_r)` entries. That count
/// needs one bitmap per row of `x`; when those exceed `bitmap_budget`
/// bytes, each row of `x · b` is counted by scattering its columns into a
/// single row bitmap instead.
fn pattern_product_stats(x: &CsrMatrix, b: &CsrMatrix, bitmap_budget: u64) -> OpStats {
    let mults: u64 = x.indices().iter().map(|&j| b.row_nnz(j) as u64).sum();
    let words = b.cols().div_ceil(64).max(1);
    let set = |bits: &mut [u64], c: usize| {
        if let Some(w) = bits.get_mut(c / 64) {
            *w |= 1 << (c % 64);
        }
    };
    let mut row = vec![0u64; words];
    let mut nnz = 0u64;
    if (x.rows() * words * 8) as u64 <= bitmap_budget {
        let mut x_bits = vec![0u64; x.rows() * words];
        for (i, bits) in x_bits.chunks_exact_mut(words).enumerate() {
            for &c in x.row_indices(i) {
                set(bits, c);
            }
        }
        for r in 0..b.rows() {
            row.fill(0);
            for &j in b.row_indices(r) {
                for (w, &xw) in row.iter_mut().zip(&x_bits[j * words..(j + 1) * words]) {
                    *w |= xw;
                }
            }
            nnz += row.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
    } else {
        for i in 0..x.rows() {
            for &j in x.row_indices(i) {
                for &c in b.row_indices(j) {
                    set(&mut row, c);
                }
            }
            nnz += row.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            row.fill(0);
        }
    }
    OpStats::counted(mults, mults - nnz)
}

/// `L = 2`: `ΔA·A + (ΔA·A)ᵀ + ΔA·ΔA` — two products and one transpose
/// instead of three products.
fn optimized_l2<S: RowSink>(a: &CsrMatrix, da: &CsrMatrix, sink: S) -> Result<Dissimilarity<S>> {
    debug_assert!(a.is_symmetric(1e-5) && da.is_symmetric(1e-5));
    let mut ops = OpStats::default();
    let (p, s1) = ops::spgemm_with_stats(da, a)?; // ΔA·A
    ops += s1;
    let pt = p.transpose(); // = A·ΔA by symmetry
    let (dd, s2) = ops::spgemm_with_stats(da, da)?; // ΔA²
    ops += s2;
    let delta_ac = ops::sp_sum_pruned_rows(&[&p, &pt, &dd], &mut [0; 3], sink)?;
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
/// `(A + ΔA)²` that the general path must build. The largest of the seven,
/// `A·ΔA·A = Pᵀ·A`, is never formed: it leads the term sum
/// ([`ops::sp_sum_pruned_rows_led`]), which adds its rows straight into the
/// sum's accumulator and reports its exact cost for `ops`.
fn optimized_l3<S: RowSink>(a: &CsrMatrix, da: &CsrMatrix, sink: S) -> Result<Dissimilarity<S>> {
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
    let pt = p.transpose(); // = A·ΔA by symmetry; Pᵀ·A = A·ΔA·A is the sum's lead
    let (da_a_da, _) = mm(&p, da)?; // ΔA·A·ΔA (palindrome)
    let (dd, _) = mm(da, da)?; // ΔA²
    let (dda, s_dda) = mm(&dd, a)?; // ΔA·ΔA·A  → its T gives A·ΔA·ΔA
    let (daa, s_daa) = mm(&p, a)?; // ΔA·A·A   → its T gives A·A·ΔA
    let (ddd, _) = mm(&dd, da)?; // ΔA³

    let (dda_t, daa_t) = (dda.transpose(), daa.transpose());
    // A·ΔA·A (palindrome, self-transpose) leads the sum as the product
    // Pᵀ·A, accumulated into the sum's SPA instead of formed.
    let terms = [&da_a_da, &dda, &dda_t, &daa, &daa_t, &ddd];
    let mut prefix = [0usize; 7];
    let (delta_ac, s_lead) = ops::sp_sum_pruned_rows_led((&pt, a), &terms, &mut prefix, sink)?;
    ops += s_lead;
    products += 1;
    // Reported adds follow a left-to-right merge: the first two terms
    // combine uncounted, then each later term joins the unpruned sum of
    // the terms before it at min(term nnz, max(sum nnz, 1)) adds.
    for (term, &acc_nnz) in terms.iter().skip(1).zip(prefix.iter().skip(1)) {
        ops.adds += term.nnz().min(acc_nnz.max(1)) as u64;
    }
    for m in [p, da_a_da, dd, dda, dda_t, daa, daa_t, ddd] {
        workspace::recycle(m);
    }
    // The two transposes substitute for the mirror products A·ΔA·ΔA and
    // A·A·ΔA, costed at their twins' recorded cost (exact by symmetry).
    Ok(Dissimilarity { delta_ac, ops, products, transposes: 2, saved: s_dda + s_daa })
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
        // `A + I` (GIN) is symmetric but unnormalized, so its entries and
        // ΔA_C's grow with L instead of staying below 1.
        for norm in [Normalization::Symmetric, Normalization::SelfLoops] {
            let (a, an, d) = setup(norm);
            for l in [2u32, 3] {
                let got = fused_dissimilarity(&a, &d, l, DissimilarityStrategy::TransposeOptimized)
                    .unwrap();
                let want = reference_delta_ac(&a, &an, l);
                assert!(
                    got.delta_ac.approx_eq(&want, 1e-4),
                    "{norm:?} L={l}: max diff {}",
                    ops::sp_sub(&got.delta_ac, &want).unwrap().max_abs()
                );
                assert!(got.transposes > 0, "{norm:?} L={l} should use transposes");
            }
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
        if cached && (strategy == DissimilarityStrategy::General || l >= 4) {
            assert_eq!(cache.hits(), 2, "L={l} {strategy:?}: later transitions must hit");
        }
    }

    /// A ring with a chord added under `D̃⁻¹(A + I)`: the delta rescales
    /// whole rows, so `ΔA`'s stored columns `S_c` strictly contain its
    /// stored rows `S_r`.
    fn row_stochastic_setup() -> (CsrMatrix, CsrMatrix) {
        let edges: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
        let adjacency = adjacency_from_edges(12, &edges).unwrap();
        let base = GraphSnapshot::new(adjacency, DenseMatrix::zeros(12, 1)).unwrap();
        let next = GraphDelta::builder().add_edge(0, 5).build().apply(&base).unwrap();
        let a_prev = Normalization::RowStochastic.apply(base.adjacency());
        let a_next = Normalization::RowStochastic.apply(next.adjacency());
        let d = ops::sp_sub_pruned(&a_next, &a_prev).unwrap();
        let rows: Vec<usize> = (0..12).filter(|&r| d.row_nnz(r) > 0).collect();
        let mut cols = d.indices().to_vec();
        cols.sort_unstable();
        cols.dedup();
        assert_ne!(rows, cols, "the case must have S_r ≠ S_c");
        (a_prev, d)
    }

    /// [`ring_setup`] with a `ΔA` that also stores `+0.0`, `−0.0` and a
    /// subnormal, so the identity products the general path replaces with
    /// clones must carry those entries bit for bit.
    fn signed_zero_setup() -> (CsrMatrix, CsrMatrix) {
        let (a, d) = ring_setup(16);
        let mut entries: Vec<(usize, usize, f32)> = d.iter().collect();
        entries.extend([(5, 6, 0.0f32), (6, 5, -0.0), (9, 10, 1.0e-40), (10, 9, -1.0e-40)]);
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; 17];
        for &(r, _, _) in &entries {
            indptr[r + 1] += 1;
        }
        for r in 0..16 {
            indptr[r + 1] += indptr[r];
        }
        let indices = entries.iter().map(|e| e.1).collect();
        let values = entries.iter().map(|e| e.2).collect();
        (a, CsrMatrix::from_raw_parts(16, 16, indptr, indices, values).unwrap())
    }

    #[test]
    fn one_pass_term_sum_matches_pairwise_fold_oracle() {
        // Pins ΔA_C bits and the prefix-derived `adds` (via `ops`), plus
        // `products`, `transposes` and `saved`, at L = 2..5 for both
        // strategies, with and without a PowerCache (cached runs hit from
        // the second transition on), against an oracle that builds both
        // power chains in full. On the ring every prefix sum is larger than
        // the next term; on the burst some terms are larger, so the
        // `min(term, accumulator)` accounting is pinned on both sides.
        let strategies = [DissimilarityStrategy::TransposeOptimized, DissimilarityStrategy::General];
        for case in [ring_setup(40), burst_setup()] {
            for l in [2u32, 3, 4, 5] {
                for strategy in strategies {
                    for cached in [false, true] {
                        assert_matches_oracle(&case, l, strategy, cached);
                    }
                }
            }
        }
        // The general path's row slice of (A+ΔA)^{L-1} and column slice of
        // A^{L-1} differ when the operator is asymmetric; stored ±0 and
        // subnormal entries pass through the identity products unchanged.
        for case in [row_stochastic_setup(), signed_zero_setup()] {
            for l in [2u32, 3, 4, 5] {
                for cached in [false, true] {
                    assert_matches_oracle(&case, l, DissimilarityStrategy::General, cached);
                }
            }
        }
    }

    /// A row sink recording the rows it receives, with their value bits.
    struct Recorded(Vec<(usize, Vec<usize>, Vec<u32>)>);

    impl RowSink for Recorded {
        fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]) {
            self.0.push((r, cols.to_vec(), vals.iter().map(|v| v.to_bits()).collect()));
        }
    }

    /// A 200-vertex ring with two chords added under `D̃⁻¹(A + I)`: a
    /// larger asymmetric operator.
    fn large_row_stochastic_setup() -> (CsrMatrix, CsrMatrix) {
        let edges: Vec<(usize, usize)> = (0..200).map(|i| (i, (i + 1) % 200)).collect();
        let base = GraphSnapshot::new(adjacency_from_edges(200, &edges).unwrap(), DenseMatrix::zeros(200, 1))
            .unwrap();
        let delta = GraphDelta::builder().add_edge(0, 50).add_edge(120, 160).build();
        let next = delta.apply(&base).unwrap();
        let a_prev = Normalization::RowStochastic.apply(base.adjacency());
        let d = ops::sp_sub_pruned(&Normalization::RowStochastic.apply(next.adjacency()), &a_prev)
            .unwrap();
        (a_prev, d)
    }

    #[test]
    fn streamed_rows_equal_the_collected_dissimilarity() {
        // Every arm the sink serves: L = 0 and 1 (no sum), Eq. 15 at L = 2
        // and 3 (symmetric operators only), and the general path at every L.
        let both = [DissimilarityStrategy::TransposeOptimized, DissimilarityStrategy::General];
        let general = [DissimilarityStrategy::General];
        for (name, (a, d), strategies) in [
            ("ring", ring_setup(200), &both[..]),
            ("row-stochastic", large_row_stochastic_setup(), &general[..]),
            ("burst", burst_setup(), &both[..]),
            ("signed zeros", signed_zero_setup(), &general[..]),
        ] {
            for l in 0..=5u32 {
                for &strategy in strategies {
                    let want = fused_dissimilarity(&a, &d, l, strategy).unwrap();
                    if l > 0 && name != "signed zeros" {
                        assert!(want.delta_ac.nnz() > 0, "{name} L={l}: an empty ΔA_C pins nothing");
                    }
                    let ctx = format!("{name} L={l} {strategy:?}");
                    let got = fused_dissimilarity_rows(&a, &d, l, strategy, Recorded(Vec::new())).unwrap();
                    let rows = &got.delta_ac.0;
                    assert_eq!(rows.len(), a.rows(), "{ctx}: every row, once");
                    for (i, (r, cols, vals)) in rows.iter().enumerate() {
                        assert_eq!(*r, i, "{ctx}: rows ascend");
                        assert_eq!(cols.as_slice(), want.delta_ac.row_indices(i), "{ctx} row {i}");
                        let bits: Vec<u32> =
                            want.delta_ac.row_values(i).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(vals, &bits, "{ctx} row {i}");
                    }
                    assert_eq!(got.ops, want.ops, "{ctx}");
                    assert_eq!(got.products, want.products, "{ctx}");
                    assert_eq!(got.transposes, want.transposes, "{ctx}");
                    assert_eq!(got.saved, want.saved, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn identity_products_are_clones_at_the_kernels_cost() {
        let (_, d) = signed_zero_setup();
        let eye = CsrMatrix::identity(d.rows());
        for (product, stats) in [
            ops::spgemm_with_stats(&eye, &d).unwrap(),
            ops::spgemm_with_stats(&d, &eye).unwrap(),
        ] {
            assert_identical(&product, &d);
            assert_eq!(stats, identity_stats(&d));
        }
    }

    /// An asymmetric 6×6 pattern with explicit stored zeros and two empty
    /// rows (1 and 4).
    fn zeros_and_empty_rows() -> CsrMatrix {
        let indptr = vec![0, 3, 3, 5, 7, 7, 9];
        let indices = vec![0, 2, 5, 1, 3, 0, 4, 2, 5];
        let values = vec![1.0, 0.0, -2.0, 0.0, 3.0, -0.0, 0.5, 4.0, 0.0];
        CsrMatrix::from_raw_parts(6, 6, indptr, indices, values).unwrap()
    }

    #[test]
    fn pattern_count_matches_spgemm_stats() {
        let (ring, _) = ring_setup(40);
        let (stochastic, _) = row_stochastic_setup();
        for m in [zeros_and_empty_rows(), ring, stochastic, CsrMatrix::zeros(5, 5)] {
            let mut x = CsrMatrix::identity(m.rows());
            for p in 0..4 {
                let want = ops::spgemm_with_stats(&x, &m).unwrap().1;
                // Budget 0 forces the per-row scatter; an unbounded budget
                // the row-bitmap union.
                for budget in [0, u64::MAX] {
                    let got = pattern_product_stats(&x, &m, budget);
                    assert_eq!(got, want, "m^{p}·m, budget {budget}");
                }
                x = ops::spgemm_with_stats(&x, &m).unwrap().0;
            }
        }
    }
}
