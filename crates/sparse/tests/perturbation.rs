//! Schedule-perturbation proptests: the runtime counterpart of the lint's
//! `block-merge-order` rule (DESIGN.md §15).
//!
//! Each property runs a parallel kernel at parallelism 4 under **eight
//! seeded adversarial worker schedules** — `parallel::perturb` holds every
//! forked block's completion at a turnstile until all blocks ranked earlier
//! by the seeded permutation have finished, and feeds `map_items` queues in
//! permuted order — and asserts the output is **bit-identical** (structure,
//! value bits, and `OpStats`) to the serial path. Any merge that depends on
//! thread completion order fails here deterministically instead of once a
//! month on a loaded CI machine.
//!
//! Compiled only with `--features schedule-perturbation` (see the sparse
//! crate manifest); `scripts/ci.sh` runs it with a small fixed case budget.
#![cfg(feature = "schedule-perturbation")]

use idgnn_sparse::parallel::{self, perturb};
use idgnn_sparse::{frontier, ops, CooMatrix, CsrMatrix, DenseMatrix, Parallelism, Workspace};
use proptest::prelude::*;

/// Adversarial schedules tried per kernel invocation (seeds `0..SEEDS`).
const SEEDS: u64 = 8;

/// Worker count under test: enough blocks for a nontrivial permutation.
const THREADS: usize = 4;

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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spgemm_is_bit_identical_under_adversarial_schedules(
        a in sparse_square(12, 60),
        b in sparse_square(12, 60),
    ) {
        let par = Parallelism::new(THREADS);
        let (s, s_st) = ops::spgemm_serial_with_stats(&a, &b).unwrap();
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let (p, p_st) = ops::spgemm_par_with_stats(&a, &b, par).unwrap();
            prop_assert_eq!(s.indptr(), p.indptr(), "seed {}", seed);
            prop_assert_eq!(s.indices(), p.indices(), "seed {}", seed);
            prop_assert_eq!(bits(s.values()), bits(p.values()), "seed {}", seed);
            prop_assert_eq!(s_st, p_st, "seed {}", seed);
        }
    }

    #[test]
    fn spmm_is_bit_identical_under_adversarial_schedules(
        a in sparse_square(12, 60),
        xs in prop::collection::vec(-2.0f32..2.0, 12 * 9),
    ) {
        let x = DenseMatrix::from_vec(12, 9, xs).unwrap();
        let par = Parallelism::new(THREADS);
        let (s, s_st) = ops::spmm_scalar_with_stats(&a, &x, Parallelism::serial()).unwrap();
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let (p, p_st) = ops::spmm_par_with_stats(&a, &x, par).unwrap();
            prop_assert_eq!(s_st, p_st, "seed {}", seed);
            prop_assert_eq!(bits(s.as_slice()), bits(p.as_slice()), "seed {}", seed);
        }
    }

    #[test]
    fn row_masked_spgemm_is_bit_identical_under_adversarial_schedules(
        a in sparse_square(12, 60),
        b in sparse_square(12, 60),
        mask in prop::collection::vec(0u8..2, 12),
    ) {
        // The row-masked kernel is per-row serial today; this property pins
        // that an ambient perturbation scope cannot leak into its results,
        // and starts failing loudly if the kernel ever grows a parallel path
        // whose merge depends on completion order.
        let rows: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &m)| m == 1).map(|(r, _)| r).collect();
        let mut ws_s = Workspace::new();
        let (s, s_st) = {
            let _serial = parallel::kernel_scope(Parallelism::serial());
            ops::row_masked_spgemm_with_workspace(&a, &b, &rows, &mut ws_s).unwrap()
        };
        let _par = parallel::kernel_scope(Parallelism::new(THREADS));
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let mut ws_p = Workspace::new();
            let (p, p_st) =
                ops::row_masked_spgemm_with_workspace(&a, &b, &rows, &mut ws_p).unwrap();
            prop_assert_eq!(s.indptr(), p.indptr(), "seed {}", seed);
            prop_assert_eq!(s.indices(), p.indices(), "seed {}", seed);
            prop_assert_eq!(bits(s.values()), bits(p.values()), "seed {}", seed);
            prop_assert_eq!(s_st, p_st, "seed {}", seed);
        }
    }

    #[test]
    fn churn_patched_power_chain_is_bit_identical_under_adversarial_schedules(
        a in symmetric_square(10, 24),
        d in symmetric_square(10, 8),
    ) {
        // The incremental churn path end to end: the cached-power chain is
        // rebuilt with the *explicit* parallel SpGEMM (which forks at any
        // size, so the turnstile engages), then the dirty rows are recomputed
        // through the row-masked kernel and spliced back in — under a
        // perturbed 4-way schedule the whole chain must still reproduce the
        // serial build bit for bit.
        let l = 3usize;
        let b = ops::sp_add(&a, &d).unwrap();
        let seeds: Vec<usize> = (0..a.rows()).filter(|&r| d.row_nnz(r) > 0).collect();
        let levels = frontier::dirty_frontier_levels(&a, &b, &seeds, l - 2).unwrap();
        let patch = |par: Parallelism, seed: Option<u64>| -> Vec<CsrMatrix> {
            let _scope = seed.map(perturb::scoped);
            let _kernels = parallel::kernel_scope(par);
            let mut pow_a = vec![CsrMatrix::identity(a.rows())];
            for i in 1..l {
                let (next, _) = ops::spgemm_par_with_stats(&pow_a[i - 1], &a, par).unwrap();
                pow_a.push(next);
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
            patched
        };
        let serial = patch(Parallelism::serial(), None);
        for seed in 0..SEEDS {
            let perturbed = patch(Parallelism::new(THREADS), Some(seed));
            for (s, p) in serial.iter().zip(&perturbed) {
                prop_assert_eq!(s.indptr(), p.indptr(), "seed {}", seed);
                prop_assert_eq!(s.indices(), p.indices(), "seed {}", seed);
                prop_assert_eq!(bits(s.values()), bits(p.values()), "seed {}", seed);
            }
        }
    }
}
