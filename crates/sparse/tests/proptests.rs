//! Property-based tests for the sparse kernels.
//!
//! These check the algebraic identities the I-DGNN derivation leans on
//! (distributivity, transpose-of-product, power expansion) on randomly
//! generated sparse matrices, with the dense implementation as the oracle.

use idgnn_sparse::ops::reference;
use idgnn_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix, OpStats};
use proptest::prelude::*;

/// Strategy: random sparse n×n matrix with up to `max_nnz` entries.
fn sparse_square(n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec(
        (0..n, 0..n, -4i8..=4i8).prop_map(|(r, c, v)| (r, c, v as f32 * 0.5)),
        0..=max_nnz,
    )
    .prop_map(move |entries| {
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    })
}

/// Strategy: random *symmetric* sparse n×n matrix (adjacency-like).
fn symmetric_square(n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..n, 0..n, 1u8..=3u8), 0..=max_nnz).prop_map(move |entries| {
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in entries {
            coo.push_symmetric(r, c, v as f32).unwrap();
        }
        coo.to_csr()
    })
}

fn dense_of(m: &CsrMatrix) -> DenseMatrix {
    m.to_dense()
}

/// `a · b`, dropping the op counts.
fn mm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    ops::spgemm_with_stats(a, b).unwrap().0
}

/// `a^l`, dropping the op counts.
fn pow(a: &CsrMatrix, l: u32) -> CsrMatrix {
    ops::sp_pow_with_stats(a, l).unwrap().0
}

/// `a · x`, dropping the op counts.
fn agg(a: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    ops::spmm_with_stats(a, x).unwrap().0
}

fn value_bits(m: &CsrMatrix) -> Vec<u32> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Bitwise CSR equality: structure and every value bit.
fn assert_bit_identical(want: &CsrMatrix, got: &CsrMatrix) {
    assert_eq!(want.shape(), got.shape());
    assert_eq!(want.indptr(), got.indptr());
    assert_eq!(want.indices(), got.indices());
    assert_eq!(value_bits(want), value_bits(got));
}

/// Values a `ΔA_C` term sum must handle bit-exactly: signed zeros (stored
/// explicitly), exact cancellation partners, NaN and an infinity.
const SUM_PALETTE: [f32; 9] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, f32::NAN, f32::INFINITY];

/// [`SUM_PALETTE`] plus subnormals, whose products underflow to `±0.0`: the
/// values a SpGEMM must multiply and accumulate bit-exactly.
const SPGEMM_PALETTE: [f32; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    2.0,
    f32::NAN,
    f32::INFINITY,
    f32::MIN_POSITIVE / 4.0,
    -f32::MIN_POSITIVE / 2.0,
    f32::from_bits(1),
];

/// Strategy: a `rows`×`cols` CSR matrix whose stored values come from
/// `palette`. Each cell is absent with probability ≈ `1/2`, and the
/// whole matrix is empty when `empty` draws 0 — explicit zeros are stored
/// as-is (no `CooMatrix` summing).
fn palette_matrix(
    palette: &'static [f32],
    rows: usize,
    cols: usize,
) -> impl Strategy<Value = CsrMatrix> {
    (prop::collection::vec(0usize..2 * palette.len(), rows * cols), 0u8..6).prop_map(
        move |(codes, empty)| {
            let mut indptr = vec![0usize];
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    let code = codes[r * cols + c];
                    if empty > 0 && code < palette.len() {
                        indices.push(c);
                        values.push(palette[code]);
                    }
                }
                indptr.push(indices.len());
            }
            CsrMatrix::from_raw_parts(rows, cols, indptr, indices, values).unwrap()
        },
    )
}

/// Deterministic LCG for building wide-row operands from one seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

/// Row widths below, at and past one and two full 64-column words.
const ROW_WIDTHS: [usize; 11] = [0, 1, 7, 31, 32, 33, 63, 64, 65, 96, 129];

/// A `rows`×`cols` matrix whose row `r` stores `min(width_r, cols)` distinct
/// columns drawn in shuffled order, with values in `[-2, 2)`.
fn wide_rows(rows: usize, cols: usize, rng: &mut Lcg) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        let width = ROW_WIDTHS[rng.next(ROW_WIDTHS.len())].min(cols);
        let mut pool: Vec<usize> = (0..cols).collect();
        for i in 0..width {
            let j = i + rng.next(cols - i);
            pool.swap(i, j);
            coo.push(r, pool[i], rng.next(16) as f32 * 0.25 - 2.0).unwrap();
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_to_csr_preserves_sums(entries in prop::collection::vec((0usize..6, 0usize..6, -3i8..=3i8), 0..30)) {
        let mut coo = CooMatrix::new(6, 6);
        let mut dense = DenseMatrix::zeros(6, 6);
        for (r, c, v) in entries {
            coo.push(r, c, v as f32).unwrap();
            dense.set(r, c, dense.get(r, c) + v as f32);
        }
        let csr = coo.to_csr();
        prop_assert!(csr.to_dense().approx_eq(&dense, 1e-5));
    }

    #[test]
    fn spgemm_agrees_with_dense(a in sparse_square(7, 20), b in sparse_square(7, 20)) {
        let s = mm(&a, &b);
        let d = dense_of(&a).matmul(&dense_of(&b)).unwrap();
        prop_assert!(s.to_dense().approx_eq(&d, 1e-4));
    }

    #[test]
    fn sp_add_agrees_with_dense(a in sparse_square(8, 24), b in sparse_square(8, 24)) {
        let s = ops::sp_add(&a, &b).unwrap();
        let d = dense_of(&a).add(&dense_of(&b)).unwrap();
        prop_assert!(s.to_dense().approx_eq(&d, 1e-5));
    }

    #[test]
    fn transpose_is_involutive(a in sparse_square(9, 30)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_of_product(a in sparse_square(6, 18), b in sparse_square(6, 18)) {
        // (AB)ᵀ = BᵀAᵀ — the identity enabling the paper's Eq. 15 optimization.
        let lhs = mm(&a, &b).transpose();
        let rhs = mm(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn symmetric_matrices_stay_symmetric_under_power(a in symmetric_square(6, 12)) {
        let a2 = pow(&a, 2);
        prop_assert!(a2.is_symmetric(1e-3));
    }

    #[test]
    fn binomial_like_expansion(a in symmetric_square(5, 8), d in symmetric_square(5, 6)) {
        // (A+Δ)² − A² = ΔA + AΔ + Δ² — the L=2 case of the paper's Eq. 13.
        let apd = ops::sp_add(&a, &d).unwrap();
        let lhs = ops::sp_sub(&pow(&apd, 2), &pow(&a, 2)).unwrap();
        let da = mm(&d, &a);
        let ad = mm(&a, &d);
        let dd = mm(&d, &d);
        let rhs = ops::sp_add(&ops::sp_add(&da, &ad).unwrap(), &dd).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn spmm_distributes_over_sparse_add(
        a in sparse_square(6, 15),
        b in sparse_square(6, 15),
        xs in prop::collection::vec(-2.0f32..2.0, 6 * 3),
    ) {
        // (A + B)·X = A·X + B·X — justifies splitting aggregation into
        // dissimilarity and reuse components (Eq. 10).
        let x = DenseMatrix::from_vec(6, 3, xs).unwrap();
        let lhs = agg(&ops::sp_add(&a, &b).unwrap(), &x);
        let rhs = agg(&a, &x).add(&agg(&b, &x)).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn sp_add_is_commutative(a in sparse_square(8, 24), b in sparse_square(8, 24)) {
        let ab = ops::sp_add(&a, &b).unwrap();
        let ba = ops::sp_add(&b, &a).unwrap();
        prop_assert!(ab.approx_eq(&ba, 1e-5));
    }

    #[test]
    fn spgemm_is_associative(
        a in sparse_square(6, 15),
        b in sparse_square(6, 15),
        c in sparse_square(6, 15),
    ) {
        // A·(B·C) = (A·B)·C within tolerance — justifies reassociating the
        // receptive-field product chain when fusing layers.
        let lhs = mm(&a, &mm(&b, &c));
        let rhs = mm(&mm(&a, &b), &c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn fused_dissimilarity_l3_matches_five_product_kernel(
        a in symmetric_square(6, 10),
        d in symmetric_square(6, 6),
    ) {
        // ΔA_C = (A+ΔA)³ − A³ (Eq. 13 for L=3) equals the five-product
        // transpose-reuse evaluation (Eq. 15): with B = A+ΔA and symmetric
        // A, ΔA,  ΔA_C = ΔA·B² + A·(ΔA·B) + (ΔA·A²)ᵀ — five SpGEMMs and one
        // transpose instead of the naive seven-product expansion.
        let b = ops::sp_add(&a, &d).unwrap();
        let lhs = ops::sp_sub(&pow(&b, 3), &pow(&a, 3)).unwrap();
        let db = mm(&d, &b);     // product 1: ΔA·B
        let dbb = mm(&db, &b);   // product 2: ΔA·B²
        let adb = mm(&a, &db);   // product 3: A·ΔA·B
        let da = mm(&d, &a);     // product 4: ΔA·A
        let daa = mm(&da, &a);   // product 5: ΔA·A²
        let rhs = ops::sp_add(&ops::sp_add(&dbb, &adb).unwrap(), &daa.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn pruned_never_increases_nnz(a in sparse_square(8, 30), tol in 0.0f32..2.0) {
        let p = a.pruned(tol);
        prop_assert!(p.nnz() <= a.nnz());
        prop_assert!(p.max_abs() <= a.max_abs());
    }

    #[test]
    fn spgemm_stats_mults_match_structural_count(a in sparse_square(6, 15), b in sparse_square(6, 15)) {
        let (_, st) = ops::spgemm_with_stats(&a, &b).unwrap();
        let bt_nnz_per_row: Vec<u64> = (0..6).map(|k| b.row_nnz(k) as u64).collect();
        let expected: u64 = a.iter().map(|(_, k, _)| bt_nnz_per_row[k]).sum();
        prop_assert_eq!(st.mults, expected);
    }

    #[test]
    fn sp_pow_matches_chained_spgemm_with_identical_stats(
        a in sparse_square(7, 22),
        l in 1u32..5,
    ) {
        // pow(a, l) is defined as the left-to-right chain starting at A
        // itself: l − 1 SpGEMMs, bit-identical values AND identical op
        // counts to spelling the chain out by hand.
        let (pow, pow_st) = ops::sp_pow_with_stats(&a, l).unwrap();
        let mut acc = a.clone();
        let mut chain_st = OpStats::default();
        for _ in 1..l {
            let (next, s) = ops::spgemm_with_stats(&acc, &a).unwrap();
            acc = next;
            chain_st += s;
        }
        prop_assert_eq!(pow.indptr(), acc.indptr());
        prop_assert_eq!(pow.indices(), acc.indices());
        let pv: Vec<u32> = pow.values().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = acc.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pv, cv);
        prop_assert_eq!(pow_st, chain_st);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation(
        shapes in prop::collection::vec(
            (
                1usize..12,
                1usize..40,
                (0usize..6).prop_map(|i| [1usize, 31, 64, 65, 129, 700][i]),
                0u64..1_000_000,
            ),
            2..8,
        ),
    ) {
        // Back-to-back products of different shapes through the pooled
        // entry point: each call checks out a workspace the previous calls
        // left behind, sized for another width. The
        // result — structure, value bits, and stats — must equal the scalar
        // two-phase oracle, which sorts each row instead of reading the
        // column bitmap.
        for &(m, k, n, seed) in &shapes {
            let mut rng = Lcg(seed);
            let a = wide_rows(m, k, &mut rng);
            let b = wide_rows(k, n, &mut rng);
            let (pooled, pooled_st) = ops::spgemm_with_stats(&a, &b).unwrap();
            let (want, want_st) = reference::spgemm_scalar(&a, &b).unwrap();
            assert_bit_identical(&want, &pooled);
            prop_assert_eq!(pooled_st, want_st);
        }
    }

    #[test]
    fn sp_sub_pruned_equals_sub_then_prune(a in sparse_square(8, 24), b in sparse_square(8, 24)) {
        // The fused kernel must match the two-step spelling bit-for-bit and
        // never store an explicit zero (the DIU depends on its output
        // support being exactly the changed entries).
        let fused = ops::sp_sub_pruned(&a, &b).unwrap();
        let two_step = ops::sp_sub(&a, &b).unwrap().pruned(0.0);
        prop_assert_eq!(fused.indptr(), two_step.indptr());
        prop_assert_eq!(fused.indices(), two_step.indices());
        let fv: Vec<u32> = fused.values().iter().map(|v| v.to_bits()).collect();
        let tv: Vec<u32> = two_step.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fv, tv);
        prop_assert!(fused.values().iter().all(|&v| v != 0.0), "explicit zero stored");
    }

    #[test]
    fn kernel_outputs_satisfy_structural_invariants(
        a in sparse_square(8, 24),
        b in sparse_square(8, 24),
    ) {
        // Every kernel output must pass the same checks the
        // `strict-invariants` feature re-asserts at construction sites:
        // monotone indptr, sorted+deduped in-bounds columns, and (for the
        // pruned kernels) no explicit zeros.
        prop_assert!(mm(&a, &b).validate().is_ok());
        prop_assert!(ops::sp_add(&a, &b).unwrap().validate().is_ok());
        prop_assert!(a.transpose().validate().is_ok());
        prop_assert!(ops::sp_sub_pruned(&a, &b).unwrap().validate_pruned().is_ok());
        prop_assert!(a.pruned(0.5).validate_pruned().is_ok());
    }

    #[test]
    fn fused_chunked_spgemm_matches_scalar_reference(
        a in sparse_square(14, 80),
        b in sparse_square(14, 80),
    ) {
        // The default path (fused single-visit, LANES-chunked inner loops)
        // against the blocked two-phase scalar reference: one property pins
        // fusion, chunking, and cache blocking to bit-identical values AND
        // identical OpStats.
        let (s, s_st) = reference::spgemm_scalar(&a, &b).unwrap();
        let (c, c_st) = ops::spgemm_with_stats(&a, &b).unwrap();
        prop_assert_eq!(s.indptr(), c.indptr());
        prop_assert_eq!(s.indices(), c.indices());
        let sv: Vec<u32> = s.values().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = c.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, cv);
        prop_assert_eq!(s_st, c_st);
    }

    #[test]
    fn fused_spgemm_matches_scalar_oracle_on_special_values(
        a in palette_matrix(&SPGEMM_PALETTE, 6, 9),
        b in palette_matrix(&SPGEMM_PALETTE, 9, 70),
    ) {
        // Signed zeros, exact cancellation, NaN, ∞ (and ∞ − ∞, 0 · ∞) and
        // subnormal products that underflow to ±0.0, over a 70-column B that
        // crosses a bitmap word: the branchless SPA resting at -0.0 must
        // emit the bits and OpStats of the oracle's first-touch store.
        let (want, want_st) = reference::spgemm_scalar(&a, &b).unwrap();
        let (got, got_st) = ops::spgemm_with_stats(&a, &b).unwrap();
        assert_bit_identical(&want, &got);
        prop_assert_eq!(got_st, want_st);
    }

    #[test]
    fn chunked_spmm_matches_scalar_reference(
        a in sparse_square(10, 40),
        xs in prop::collection::vec(-2.0f32..2.0, 10 * 9),
    ) {
        // Nine feature columns: one full LANES chunk plus a ragged tail, so
        // both the chunked body and the remainder loop are exercised.
        let x = DenseMatrix::from_vec(10, 9, xs).unwrap();
        let (s, s_st) = reference::spmm_scalar(&a, &x).unwrap();
        let (c, c_st) = ops::spmm_with_stats(&a, &x).unwrap();
        prop_assert_eq!(s_st, c_st);
        let sv: Vec<u32> = s.into_vec().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = c.into_vec().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, cv);
    }

    #[test]
    fn dense_matmul_associative(
        xs in prop::collection::vec(-2.0f32..2.0, 4 * 4),
        ys in prop::collection::vec(-2.0f32..2.0, 4 * 4),
        zs in prop::collection::vec(-2.0f32..2.0, 4 * 4),
    ) {
        // (XY)Z = X(YZ) within tolerance — underpins weight-matrix fusion (Eq. 8).
        let x = DenseMatrix::from_vec(4, 4, xs).unwrap();
        let y = DenseMatrix::from_vec(4, 4, ys).unwrap();
        let z = DenseMatrix::from_vec(4, 4, zs).unwrap();
        let lhs = x.matmul(&y).unwrap().matmul(&z).unwrap();
        let rhs = x.matmul(&y.matmul(&z).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn sp_sum_pruned_matches_pairwise_fold_then_prune(
        terms in prop::collection::vec(palette_matrix(&SUM_PALETTE, 5, 7), 1..6),
    ) {
        // The one-pass ΔA_C sum against the fold it replaces: left-to-right
        // `sp_add`, then `pruned(0.0)`. Bit for bit, including which
        // entries ±0.0 cancellation and NaN drop, and the unpruned prefix
        // nnz the fold's accumulator had after each term.
        let mut acc = terms[0].clone();
        let mut want_prefix = vec![acc.nnz()];
        for t in &terms[1..] {
            acc = ops::sp_add(&acc, t).unwrap();
            want_prefix.push(acc.nnz());
        }
        let want = acc.pruned(0.0);
        let refs: Vec<&CsrMatrix> = terms.iter().collect();
        let mut prefix = vec![usize::MAX; terms.len()];
        let got = ops::sp_sum_pruned(&refs, &mut prefix).unwrap();
        assert_bit_identical(&want, &got);
        prop_assert_eq!(prefix, want_prefix);
        prop_assert!(got.validate_pruned().is_ok());
    }

    #[test]
    fn lead_product_sum_matches_the_materialised_product_then_the_sum(
        x in palette_matrix(&SUM_PALETTE, 5, 4),
        b in palette_matrix(&SUM_PALETTE, 4, 7),
        terms in prop::collection::vec(palette_matrix(&SUM_PALETTE, 5, 7), 0..4),
    ) {
        // `x · b` accumulated straight into the sum against SpGEMM's product
        // passed to the sum as its first term: rows, bits, prefix counts and
        // the product's OpStats, with ±0.0, NaN and ∞ in every operand.
        let (t0, want_st) = ops::spgemm_with_stats(&x, &b).unwrap();
        let mut refs: Vec<&CsrMatrix> = vec![&t0];
        refs.extend(terms.iter());
        let mut want_prefix = vec![0usize; refs.len()];
        let want = ops::sp_sum_pruned(&refs, &mut want_prefix).unwrap();
        let rest: Vec<&CsrMatrix> = terms.iter().collect();
        let mut prefix = vec![usize::MAX; refs.len()];
        let (sink, st) = ops::sp_sum_pruned_rows_led(
            (&x, &b),
            &rest,
            &mut prefix,
            ops::CsrRows::new(5, 7),
        )
        .unwrap();
        assert_bit_identical(&want, &sink.into_matrix());
        prop_assert_eq!(prefix, want_prefix);
        prop_assert_eq!(st, want_st);
    }

    #[test]
    fn bitmap_emission_matches_sorted_emission_on_every_spgemm_path(
        seed in 0u64..1_000_000,
        cols in (0usize..7).prop_map(|i| [31usize, 63, 64, 65, 128, 129, 700][i]),
    ) {
        // Output rows discover 0..=cols columns in scrambled order, on both
        // sides of a 64-column word; at 700 columns short rows span many
        // bitmap words. The fused path must equal the scalar two-phase
        // reference, which always sorts.
        let mut rng = Lcg(seed);
        let a = wide_rows(10, 12, &mut rng);
        let b = wide_rows(12, cols, &mut rng);
        let (want, want_st) = reference::spgemm_scalar(&a, &b).unwrap();
        let (got, st) = ops::spgemm_with_stats(&a, &b).unwrap();
        assert_bit_identical(&want, &got);
        prop_assert_eq!(st, want_st);

        // The term sum shares the emission: summing wide rows must still
        // match the pairwise fold.
        let c = wide_rows(10, cols, &mut rng);
        let mut prefix = [0usize; 2];
        let sum = ops::sp_sum_pruned(&[&want, &c], &mut prefix).unwrap();
        let folded = ops::sp_add(&want, &c).unwrap();
        assert_bit_identical(&folded.pruned(0.0), &sum);
        prop_assert_eq!(prefix, [want.nnz(), folded.nnz()]);
    }
}
