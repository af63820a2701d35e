//! Schedule-perturbation proptests: the runtime counterpart of the lint's
//! `block-merge-order` rule (DESIGN.md §15).
//!
//! Each property runs a parallel kernel (or the row-sink term sum) at
//! parallelism 4 under **eight seeded adversarial worker schedules** —
//! `parallel::perturb` holds every forked block's completion at a turnstile
//! until all blocks ranked earlier by the seeded permutation have finished,
//! and feeds `map_items` queues in permuted order — and asserts the output
//! is **bit-identical** (structure, value bits, and `OpStats`) to the
//! serial path. Any merge that depends on thread completion order fails
//! here deterministically instead of once a month on a loaded CI machine.
//!
//! Compiled only with `--features schedule-perturbation` (see the sparse
//! crate manifest); `scripts/ci.sh` runs it with a small fixed case budget.
#![cfg(feature = "schedule-perturbation")]

use idgnn_sparse::parallel::perturb;
use idgnn_sparse::ops::{reference, RowSink};
use idgnn_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Parallelism};
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
        let (s, s_st) = reference::spgemm_at(&a, &b, Parallelism::serial()).unwrap();
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let (p, p_st) = reference::spgemm_at(&a, &b, par).unwrap();
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
        let (s, s_st) = reference::spmm_scalar(&a, &x, Parallelism::serial()).unwrap();
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let (p, p_st) = reference::spmm_at(&a, &x, par).unwrap();
            prop_assert_eq!(s_st, p_st, "seed {}", seed);
            prop_assert_eq!(bits(s.as_slice()), bits(p.as_slice()), "seed {}", seed);
        }
    }
}

/// A row sink recording each row it receives, with its value bits.
struct Recorded(Vec<(usize, Vec<usize>, Vec<u32>)>);

impl RowSink for Recorded {
    fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]) {
        self.0.push((r, cols.to_vec(), bits(vals)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn row_sink_is_bit_identical_under_adversarial_schedules(
        a in sparse_square(12, 60),
        b in sparse_square(12, 60),
    ) {
        // `a + b − a`: entries cancel to ±0.0, and stored zeros of the
        // strategy's `0 × 0.5` values prune too.
        let neg = a.scale(-1.0);
        let terms = [&a, &b, &neg];
        let mut want_prefix = [0usize; 3];
        let want = reference::sp_sum_pruned_rows_at(
            &terms,
            &mut want_prefix,
            |_, _| Recorded(Vec::new()),
            Parallelism::serial(),
        )
        .unwrap();
        let want: Vec<_> = want.into_iter().flat_map(|s| s.0).collect();
        prop_assert_eq!(want.iter().map(|row| row.0).collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
        for seed in 0..SEEDS {
            let _scope = perturb::scoped(seed);
            let mut prefix = [0usize; 3];
            let got = reference::sp_sum_pruned_rows_at(
                &terms,
                &mut prefix,
                |_, _| Recorded(Vec::new()),
                Parallelism::new(THREADS),
            )
            .unwrap();
            prop_assert!(got.len() > 1, "seed {}", seed);
            let got: Vec<_> = got.into_iter().flat_map(|s| s.0).collect();
            prop_assert_eq!(&got, &want, "seed {}", seed);
            prop_assert_eq!(prefix, want_prefix, "seed {}", seed);
        }
    }
}
