//! Property-based tests for the sparse kernels.
//!
//! These check the algebraic identities the I-DGNN derivation leans on
//! (distributivity, transpose-of-product, power expansion) on randomly
//! generated sparse matrices, with the dense implementation as the oracle.

use idgnn_sparse::{frontier, ops, CooMatrix, CsrMatrix, DenseMatrix, OpStats, Workspace};
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
        let s = ops::spgemm(&a, &b).unwrap();
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
        let lhs = ops::spgemm(&a, &b).unwrap().transpose();
        let rhs = ops::spgemm(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn symmetric_matrices_stay_symmetric_under_power(a in symmetric_square(6, 12)) {
        let a2 = ops::sp_pow(&a, 2).unwrap();
        prop_assert!(a2.is_symmetric(1e-3));
    }

    #[test]
    fn binomial_like_expansion(a in symmetric_square(5, 8), d in symmetric_square(5, 6)) {
        // (A+Δ)² − A² = ΔA + AΔ + Δ² — the L=2 case of the paper's Eq. 13.
        let apd = ops::sp_add(&a, &d).unwrap();
        let lhs = ops::sp_sub(&ops::sp_pow(&apd, 2).unwrap(), &ops::sp_pow(&a, 2).unwrap()).unwrap();
        let da = ops::spgemm(&d, &a).unwrap();
        let ad = ops::spgemm(&a, &d).unwrap();
        let dd = ops::spgemm(&d, &d).unwrap();
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
        let lhs = ops::spmm(&ops::sp_add(&a, &b).unwrap(), &x).unwrap();
        let rhs = ops::spmm(&a, &x).unwrap().add(&ops::spmm(&b, &x).unwrap()).unwrap();
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
        let lhs = ops::spgemm(&a, &ops::spgemm(&b, &c).unwrap()).unwrap();
        let rhs = ops::spgemm(&ops::spgemm(&a, &b).unwrap(), &c).unwrap();
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
        let lhs = ops::sp_sub(&ops::sp_pow(&b, 3).unwrap(), &ops::sp_pow(&a, 3).unwrap()).unwrap();
        let db = ops::spgemm(&d, &b).unwrap();     // product 1: ΔA·B
        let dbb = ops::spgemm(&db, &b).unwrap();   // product 2: ΔA·B²
        let adb = ops::spgemm(&a, &db).unwrap();   // product 3: A·ΔA·B
        let da = ops::spgemm(&d, &a).unwrap();     // product 4: ΔA·A
        let daa = ops::spgemm(&da, &a).unwrap();   // product 5: ΔA·A²
        let rhs = ops::sp_add(&ops::sp_add(&dbb, &adb).unwrap(), &daa.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn parallel_kernels_match_serial_on_random_inputs(
        a in sparse_square(10, 40),
        b in sparse_square(10, 40),
        threads in 2usize..6,
    ) {
        let par = idgnn_sparse::Parallelism::new(threads);
        let (s, s_st) = ops::spgemm_serial_with_stats(&a, &b).unwrap();
        let (p, p_st) = ops::spgemm_par_with_stats(&a, &b, par).unwrap();
        prop_assert_eq!(s.indptr(), p.indptr());
        prop_assert_eq!(s.indices(), p.indices());
        let sv: Vec<u32> = s.values().iter().map(|v| v.to_bits()).collect();
        let pv: Vec<u32> = p.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, pv);
        prop_assert_eq!(s_st, p_st);
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
        pairs in prop::collection::vec((sparse_square(7, 20), sparse_square(7, 20)), 1..5),
    ) {
        // One arena recycled across an arbitrary call sequence must produce
        // exactly what a fresh arena per call (and the pooled dispatch path)
        // produces — structure, value bits, and stats — regardless of what
        // the arena held before.
        let mut shared = Workspace::new();
        for (a, b) in &pairs {
            let (reused, reused_st) = ops::spgemm_with_workspace(a, b, &mut shared).unwrap();
            let mut fresh_ws = Workspace::new();
            let (fresh, fresh_st) = ops::spgemm_with_workspace(a, b, &mut fresh_ws).unwrap();
            let (pooled, pooled_st) = ops::spgemm_with_stats(a, b).unwrap();
            for other in [&fresh, &pooled] {
                prop_assert_eq!(reused.indptr(), other.indptr());
                prop_assert_eq!(reused.indices(), other.indices());
                let rv: Vec<u32> = reused.values().iter().map(|v| v.to_bits()).collect();
                let ov: Vec<u32> = other.values().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(rv, ov);
            }
            prop_assert_eq!(reused_st, fresh_st);
            prop_assert_eq!(reused_st, pooled_st);
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
    fn splice_rows_with_empty_dirty_set_is_bit_identical(a in sparse_square(8, 24)) {
        let spliced = a.splice_rows(&[], &CsrMatrix::zeros(0, a.cols())).unwrap();
        prop_assert_eq!(spliced.indptr(), a.indptr());
        prop_assert_eq!(spliced.indices(), a.indices());
        let sv: Vec<u32> = spliced.values().iter().map(|v| v.to_bits()).collect();
        let av: Vec<u32> = a.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, av);
    }

    #[test]
    fn dirty_row_patched_power_chain_matches_cold_rebuild(
        a in symmetric_square(8, 16),
        d in symmetric_square(8, 6),
        l in 2usize..5,
    ) {
        // The sparse-level pin behind the PowerCache patch (DESIGN.md §9):
        // splicing the (i−1)-hop dirty rows of the masked product into the
        // cached `A^i` reproduces the cold identity-chain build of
        // `(A+ΔA)^i` bit-for-bit, for every power in the chain.
        let b = ops::sp_add(&a, &d).unwrap();
        let seeds: Vec<usize> = (0..a.rows()).filter(|&r| d.row_nnz(r) > 0).collect();
        let levels = frontier::dirty_frontier_levels(&a, &b, &seeds, l - 2).unwrap();
        let mut cold = vec![CsrMatrix::identity(a.rows())];
        let mut pow_a = vec![CsrMatrix::identity(a.rows())];
        for i in 1..l {
            cold.push(ops::spgemm(&cold[i - 1], &b).unwrap());
            pow_a.push(ops::spgemm(&pow_a[i - 1], &a).unwrap());
        }
        let mut ws = Workspace::new();
        let mut patched = vec![CsrMatrix::identity(a.rows())];
        for i in 1..l {
            let dirty = &levels[i - 1];
            let (repl, _) =
                ops::row_masked_spgemm_with_workspace(&patched[i - 1], &b, dirty, &mut ws)
                    .unwrap();
            patched.push(pow_a[i].splice_rows(dirty, &repl).unwrap());
        }
        for i in 1..l {
            prop_assert_eq!(patched[i].indptr(), cold[i].indptr());
            prop_assert_eq!(patched[i].indices(), cold[i].indices());
            let pv: Vec<u32> = patched[i].values().iter().map(|v| v.to_bits()).collect();
            let cv: Vec<u32> = cold[i].values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(pv, cv);
        }
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
        prop_assert!(ops::spgemm(&a, &b).unwrap().validate().is_ok());
        prop_assert!(ops::sp_add(&a, &b).unwrap().validate().is_ok());
        prop_assert!(a.transpose().validate().is_ok());
        prop_assert!(ops::sp_sub_pruned(&a, &b).unwrap().validate_pruned().is_ok());
        prop_assert!(a.pruned(0.5).validate_pruned().is_ok());
    }

    #[test]
    fn fused_chunked_spgemm_matches_scalar_reference(
        a in sparse_square(14, 80),
        b in sparse_square(14, 80),
        threads in (0u8..2).prop_map(|i| if i == 0 { 1usize } else { 4 }),
    ) {
        // The default path (fused single-visit, LANES-chunked inner loops)
        // against the blocked two-phase scalar reference, at serial and
        // 4-way parallelism: one property pins fusion, chunking, and cache
        // blocking to bit-identical values AND identical OpStats.
        let par = idgnn_sparse::Parallelism::new(threads);
        let (s, s_st) = ops::spgemm_scalar_with_stats(&a, &b, par).unwrap();
        let (c, c_st) = ops::spgemm_par_with_stats(&a, &b, par).unwrap();
        prop_assert_eq!(s.indptr(), c.indptr());
        prop_assert_eq!(s.indices(), c.indices());
        let sv: Vec<u32> = s.values().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = c.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, cv);
        prop_assert_eq!(s_st, c_st);
    }

    #[test]
    fn chunked_spmm_matches_scalar_reference(
        a in sparse_square(10, 40),
        xs in prop::collection::vec(-2.0f32..2.0, 10 * 9),
        threads in (0u8..2).prop_map(|i| if i == 0 { 1usize } else { 4 }),
    ) {
        // Nine feature columns: one full LANES chunk plus a ragged tail, so
        // both the chunked body and the remainder loop are exercised.
        let x = DenseMatrix::from_vec(10, 9, xs).unwrap();
        let par = idgnn_sparse::Parallelism::new(threads);
        let (s, s_st) = ops::spmm_scalar_with_stats(&a, &x, par).unwrap();
        let (c, c_st) = ops::spmm_par_with_stats(&a, &x, par).unwrap();
        prop_assert_eq!(s_st, c_st);
        let sv: Vec<u32> = s.into_vec().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = c.into_vec().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, cv);
    }

    #[test]
    fn fused_row_masked_product_matches_scalar_reference(
        a in sparse_square(12, 60),
        b in sparse_square(12, 60),
        mask in prop::collection::vec(0u8..2, 12),
        threads in (0u8..2).prop_map(|i| if i == 0 { 1usize } else { 4 }),
    ) {
        // The incremental dirty-row path: fused chunked vs two-phase scalar
        // on an arbitrary strictly-increasing row mask. The kernel itself is
        // per-row serial; the ambient parallelism scope must not leak into
        // its results either way.
        let rows: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(r, _)| r).collect();
        let _scope = idgnn_sparse::parallel::kernel_scope(idgnn_sparse::Parallelism::new(threads));
        let mut ws_s = Workspace::new();
        let mut ws_c = Workspace::new();
        let (s, s_st) = ops::row_masked_spgemm_scalar_with_workspace(&a, &b, &rows, &mut ws_s).unwrap();
        let (c, c_st) = ops::row_masked_spgemm_with_workspace(&a, &b, &rows, &mut ws_c).unwrap();
        prop_assert_eq!(s.indptr(), c.indptr());
        prop_assert_eq!(s.indices(), c.indices());
        let sv: Vec<u32> = s.values().iter().map(|v| v.to_bits()).collect();
        let cv: Vec<u32> = c.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sv, cv);
        prop_assert_eq!(s_st, c_st);
    }

    #[test]
    fn cost_partition_covers_disjointly_with_bounded_spread(
        raw in prop::collection::vec(0u64..40, 1..300),
        blocks in 1usize..9,
    ) {
        // Skew the raw draws into a long flat tail plus rare heavy hubs
        // (~1 in 10 items carries 16–64 units, the rest 0–3).
        let costs: Vec<u64> =
            raw.iter().map(|&v| if v >= 36 { 16 + v * 12 } else { v % 4 }).collect();
        // The nnz-weighted split must cover 0..items disjointly in order with
        // non-empty blocks, and the heaviest block may exceed the mean cost
        // by at most one item (heaviest ≤ total/blocks + max_item) — which
        // caps the spread at 2× the mean whenever no single row outweighs a
        // whole block's fair share.
        let items = costs.len();
        let ranges =
            idgnn_sparse::parallel::partition_by_cost(items, blocks, |i| costs[i]);
        let mut expect = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, expect);
            prop_assert!(!r.is_empty());
            expect = r.end;
        }
        prop_assert_eq!(expect, items);
        let total: u128 = costs.iter().map(|&c| u128::from(c)).sum();
        if total > 0 {
            let eff = ranges.len() as u128;
            let max_item = u128::from(*costs.iter().max().unwrap());
            let heaviest: u128 = ranges
                .iter()
                .map(|r| r.clone().map(|i| u128::from(costs[i])).sum())
                .max()
                .unwrap();
            prop_assert!(
                heaviest * eff <= total + max_item * eff,
                "heaviest {heaviest} × {eff} blocks vs total {total} + max {max_item}"
            );
            if max_item * eff <= total {
                prop_assert!(heaviest * eff <= 2 * total, "spread over 2× the mean");
            }
        }
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
}
