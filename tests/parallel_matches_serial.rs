//! Whole-stack serial-equivalence tests: the parallel execution layer must
//! be a pure wall-clock knob. Kernels produce bit-identical matrices and
//! op-count stats, and a full figure run serializes to byte-identical JSON,
//! whether executed serially or across worker threads.

use idgnn::bench::cli::run_experiment;
use idgnn::bench::context::{Context, ExperimentScale};
use idgnn::sparse::ops::reference;
use idgnn::sparse::{CsrMatrix, DenseMatrix, Parallelism};

/// Deterministic LCG so the inputs are reproducible without external crates.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn value(&mut self) -> f32 {
        (self.next_u64() % 2000) as f32 / 100.0 - 10.0
    }
}

/// Builds a random `n × n` CSR matrix with roughly `nnz` entries.
fn random_sparse(n: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = Lcg(seed);
    let mut dense = DenseMatrix::zeros(n, n);
    for _ in 0..nnz {
        let (r, c) = (rng.index(n), rng.index(n));
        dense.as_mut_slice()[r * n + c] = rng.value();
    }
    CsrMatrix::from_dense(&dense)
}

/// Builds a random dense `rows × cols` matrix.
fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = Lcg(seed);
    let data = (0..rows * cols).map(|_| rng.value()).collect();
    DenseMatrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// Bit-exact equality for float slices (0.0 vs -0.0 and NaN payloads count).
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sparse_kernels_are_bit_identical_across_thread_counts() {
    // 300 rows clears the PARALLEL_MIN_ROWS=128 dispatch threshold.
    let a = random_sparse(300, 2_400, 1);
    let b = random_sparse(300, 2_400, 2);
    let x = random_dense(300, 24, 3);

    let serial = Parallelism::serial();
    let (c_ser, s_ser) = reference::spgemm_at(&a, &b, serial).expect("serial spgemm");
    let (y_ser, t_ser) = reference::spmm_at(&a, &x, serial).expect("serial spmm");
    let sum_ser = reference::sp_axpby_at(1.5, &a, -0.5, &b, serial).expect("serial axpby");

    for threads in [2usize, 3, 5, 8] {
        let par = Parallelism::new(threads);
        let (c_par, s_par) = reference::spgemm_at(&a, &b, par).expect("parallel spgemm");
        assert_eq!(c_ser.indptr(), c_par.indptr(), "spgemm indptr, {threads} threads");
        assert_eq!(c_ser.indices(), c_par.indices(), "spgemm indices, {threads} threads");
        assert_eq!(bits(c_ser.values()), bits(c_par.values()), "spgemm values, {threads} threads");
        assert_eq!(s_ser, s_par, "spgemm stats, {threads} threads");

        let (y_par, t_par) = reference::spmm_at(&a, &x, par).expect("parallel spmm");
        assert_eq!(bits(y_ser.as_slice()), bits(y_par.as_slice()), "spmm, {threads} threads");
        assert_eq!(t_ser, t_par, "spmm stats, {threads} threads");

        let sum_par = reference::sp_axpby_at(1.5, &a, -0.5, &b, par).expect("parallel axpby");
        assert_eq!(sum_ser.indptr(), sum_par.indptr(), "axpby indptr, {threads} threads");
        assert_eq!(
            bits(sum_ser.values()),
            bits(sum_par.values()),
            "axpby values, {threads} threads"
        );
    }
}

#[test]
fn dense_matmul_is_bit_identical_across_thread_counts() {
    let a = random_dense(260, 40, 4);
    let b = random_dense(40, 33, 5);
    let serial = a.matmul_serial(&b).expect("serial matmul");
    for threads in [2usize, 4, 7] {
        let par = a.matmul_par(&b, Parallelism::new(threads)).expect("parallel matmul");
        assert_eq!(bits(serial.as_slice()), bits(par.as_slice()), "{threads} threads");
    }
}

#[test]
fn full_figure_run_produces_identical_json_across_parallelism() {
    // The end-to-end guarantee: one complete figure experiment, serial vs
    // fanned-out, must serialize to the very same bytes.
    let run = |threads: usize| {
        let ctx = Context::new(ExperimentScale::Quick, 5)
            .expect("context")
            .with_parallelism(Parallelism::new(threads));
        run_experiment("fig12", &ctx).expect("fig12 runs")
    };
    let (text_serial, json_serial) = run(1);
    let (text_par, json_par) = run(4);
    assert_eq!(text_serial, text_par, "fig12 text report differs");
    assert_eq!(json_serial, json_par, "fig12 JSON differs");
}
