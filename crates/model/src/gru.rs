//! GRU cell — the alternate RNN kernel the paper calls out ("this work can
//! also be efficiently applied to other RNN variants, such as gated
//! recurrent units", §II-B), with the same RNN-A / RNN-B phase split as the
//! LSTM.
//!
//! Gates (no biases, matching the paper's LSTM formulation):
//!
//! ```text
//! r = σ(Z·W_r + H·U_r)          (reset)
//! u = σ(Z·W_u + H·U_u)          (update)
//! n = tanh(Z·W_n + r ∘ (H·U_n)) (candidate)
//! H' = (1 − u) ∘ n + u ∘ H
//! ```
//!
//! RNN-A precomputes the three `H·U_α` products (GNN-independent); RNN-B
//! consumes the GNN output `Z`.

use idgnn_sparse::{DenseMatrix, OpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{ModelError, Result};
use crate::lstm::LstmState;

/// A GRU cell with input weights `W_{r,u,n}` and hidden weights `U_{r,u,n}`.
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    w: [DenseMatrix; 3],
    u: [DenseMatrix; 3],
}

impl GruCell {
    /// Creates a cell from explicit weights (`w[g]: C × R`, `u[g]: R × R`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] on inconsistent shapes.
    pub fn new(w: [DenseMatrix; 3], u: [DenseMatrix; 3]) -> Result<Self> {
        let r = w[0].cols();
        let c = w[0].rows();
        for (i, m) in w.iter().enumerate() {
            if m.shape() != (c, r) {
                return Err(ModelError::LayerDimensionMismatch {
                    layer: i,
                    expected: r,
                    got: m.cols(),
                });
            }
        }
        for (i, m) in u.iter().enumerate() {
            if m.shape() != (r, r) {
                return Err(ModelError::LayerDimensionMismatch {
                    layer: i,
                    expected: r,
                    got: m.cols(),
                });
            }
        }
        Ok(Self { w, u })
    }

    /// Creates a cell with small random weights, deterministic in `seed`.
    pub fn random(input_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |rows: usize, cols: usize| {
            let scale = 1.0 / (rows.max(1) as f32).sqrt();
            let data = (0..rows * cols).map(|_| rng.gen_range(-scale..scale)).collect();
            // lint: allow(panic-surface) -- `data` holds exactly rows·cols values, the shape from_vec checks
            DenseMatrix::from_vec(rows, cols, data).expect("length matches")
        };
        let w = [mk(input_dim, hidden_dim), mk(input_dim, hidden_dim), mk(input_dim, hidden_dim)];
        let u = [mk(hidden_dim, hidden_dim), mk(hidden_dim, hidden_dim), mk(hidden_dim, hidden_dim)];
        Self { w, u }
    }

    /// Input dimensionality `C`.
    pub fn input_dim(&self) -> usize {
        self.w[0].rows()
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        self.w[0].cols()
    }

    /// **RNN-A**: the GNN-independent half — `H·U_α` for the three gates.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `h_prev` has the wrong width.
    pub fn rnn_a(&self, h_prev: &DenseMatrix) -> Result<(GruPrecomp, OpStats)> {
        let mut outs = Vec::with_capacity(3);
        for u in &self.u {
            outs.push(h_prev.matmul(u).map_err(ModelError::from)?);
        }
        // lint: allow(panic-surface) -- the loop above pushes exactly three gate products
        let [r, u, n] = <[DenseMatrix; 3]>::try_from(outs).expect("three gates");
        Ok((GruPrecomp { gates: [r, u, n] }, self.phase_ops(h_prev.rows()).0))
    }

    /// **RNN-B**: consumes the GNN output `z`, producing the next state.
    /// The returned state reuses [`LstmState`] with an all-zero cell vector
    /// (GRUs carry no cell state).
    ///
    /// # Errors
    ///
    /// Returns a shape error on any dimension mismatch.
    pub fn rnn_b(
        &self,
        z: &DenseMatrix,
        a: &GruPrecomp,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats)> {
        let mut pre = Vec::with_capacity(3);
        for w in &self.w {
            pre.push(z.matmul(w).map_err(ModelError::from)?);
        }

        let r = pre[0].add(&a.gates[0]).map_err(ModelError::from)?.sigmoid();
        let u = pre[1].add(&a.gates[1]).map_err(ModelError::from)?.sigmoid();
        let gated = r.hadamard(&a.gates[2]).map_err(ModelError::from)?;
        let n = pre[2].add(&gated).map_err(ModelError::from)?.tanh();
        // H' = (1 − u)∘n + u∘H.
        let one_minus_u = u.map(|x| 1.0 - x);
        let h = one_minus_u
            .hadamard(&n)
            .map_err(ModelError::from)?
            .add(&u.hadamard(&prev.h).map_err(ModelError::from)?)
            .map_err(ModelError::from)?;
        let ops = self.phase_ops(z.rows()).1;
        Ok((LstmState { h, c: DenseMatrix::zeros(prev.c.rows(), prev.c.cols()) }, ops))
    }

    /// Exact op counts of [`Self::rnn_a`] and [`Self::rnn_b`] over
    /// `vertices` rows, as `(RNN-A, RNN-B)`. They depend on the shapes only,
    /// so a run that reads no RNN state charges the RNN from here without
    /// evaluating it; the executed phases return the same counts.
    ///
    /// * RNN-A: the three `V × R` by `R × R` products `H·U_α`.
    /// * RNN-B: the three `V × C` by `C × R` products `Z·W_α`, then the
    ///   element-wise epilogue: three gate adds, `r∘(H·U_n)`, `1 − u`, two
    ///   products and one add, counted as 3 multiplies and 5 adds per
    ///   element.
    pub fn phase_ops(&self, vertices: usize) -> (OpStats, OpStats) {
        let (v, c, r) = (vertices as u64, self.input_dim() as u64, self.hidden_dim() as u64);
        let elems = v * r;
        let mut gates_a = OpStats::default();
        let mut gates_b = OpStats::default();
        for _ in 0..3 {
            gates_a += OpStats::gemm(v, r, r);
            gates_b += OpStats::gemm(v, r, c);
        }
        (gates_a, gates_b + OpStats::counted(3 * elems, 5 * elems))
    }

    /// Full step: RNN-A followed by RNN-B.
    ///
    /// # Errors
    ///
    /// Returns a shape error on any dimension mismatch.
    pub fn step(&self, z: &DenseMatrix, prev: &LstmState) -> Result<(LstmState, OpStats)> {
        let (a, oa) = self.rnn_a(&prev.h)?;
        let (s, ob) = self.rnn_b(z, &a, prev)?;
        Ok((s, oa + ob))
    }
}

/// RNN-A output of a GRU: `H·U_α` for (reset, update, candidate).
#[derive(Debug, Clone, PartialEq)]
pub struct GruPrecomp {
    gates: [DenseMatrix; 3],
}

impl GruPrecomp {
    /// The precomputed matrix for gate `g` (0 = reset, 1 = update,
    /// 2 = candidate).
    ///
    /// # Panics
    ///
    /// Panics if `g >= 3`.
    pub fn gate(&self, g: usize) -> &DenseMatrix {
        &self.gates[g]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_sparse::ops;

    fn cell() -> GruCell {
        GruCell::random(3, 2, 42)
    }

    #[test]
    fn dims_and_determinism() {
        let c = cell();
        assert_eq!(c.input_dim(), 3);
        assert_eq!(c.hidden_dim(), 2);
        assert_eq!(GruCell::random(3, 2, 42), cell());
        assert_ne!(GruCell::random(3, 2, 43), cell());
    }

    #[test]
    fn step_equals_split_phases() {
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 0.4);
        let prev = LstmState::zeros(4, 2);
        let (s1, o1) = c.step(&z, &prev).unwrap();
        let (a, oa) = c.rnn_a(&prev.h).unwrap();
        let (s2, ob) = c.rnn_b(&z, &a, &prev).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(o1, oa + ob);
    }

    #[test]
    fn hidden_state_is_bounded() {
        // H' is a convex combination of tanh(·) ∈ (−1,1) and the previous H,
        // so it stays in (−1, 1) starting from zero.
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 50.0);
        let mut state = LstmState::zeros(4, 2);
        for _ in 0..6 {
            state = c.step(&z, &state).unwrap().0;
        }
        // tanh saturates to exactly ±1.0 in f32 under extreme inputs.
        assert!(state.h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn zero_input_zero_state_stays_zero() {
        // r = u = σ(0) = ½; n = tanh(0) = 0; H' = ½·0 + ½·0 = 0.
        let c = cell();
        let (s, _) = c.step(&DenseMatrix::zeros(3, 3), &LstmState::zeros(3, 2)).unwrap();
        assert!(s.h.approx_eq(&DenseMatrix::zeros(3, 2), 1e-6));
    }

    #[test]
    fn gru_cell_has_no_cell_state() {
        let c = cell();
        let (s, _) = c.step(&DenseMatrix::filled(4, 3, 1.0), &LstmState::zeros(4, 2)).unwrap();
        assert!(s.c.approx_eq(&DenseMatrix::zeros(4, 2), 0.0));
    }

    #[test]
    fn update_gate_interpolates_toward_previous_state() {
        // With a saturated update gate (huge positive pre-activation via huge
        // H·U_u) the state barely moves. Construct weights to force u → 1.
        let w = [DenseMatrix::zeros(2, 2), DenseMatrix::zeros(2, 2), DenseMatrix::zeros(2, 2)];
        let big = DenseMatrix::from_rows(&[&[50.0, 0.0], &[0.0, 50.0]]).unwrap();
        let u = [DenseMatrix::zeros(2, 2), big, DenseMatrix::zeros(2, 2)];
        let c = GruCell::new(w, u).unwrap();
        let prev = LstmState {
            h: DenseMatrix::filled(3, 2, 0.8),
            c: DenseMatrix::zeros(3, 2),
        };
        let (s, _) = c.rnn_b(
            &DenseMatrix::filled(3, 2, 1.0),
            &c.rnn_a(&prev.h).unwrap().0,
            &prev,
        )
        .unwrap();
        assert!(s.h.approx_eq(&prev.h, 1e-6), "u≈1 should hold the state");
    }

    #[test]
    fn new_validates_shapes() {
        let good = DenseMatrix::zeros(3, 2);
        let u = DenseMatrix::zeros(2, 2);
        assert!(GruCell::new(
            [good.clone(), good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone()]
        )
        .is_ok());
        assert!(GruCell::new(
            [good.clone(), DenseMatrix::zeros(3, 5), good],
            [u.clone(), u.clone(), u]
        )
        .is_err());
    }

    #[test]
    fn phase_ops_are_the_executed_counts() {
        // C = 5 ≠ R = 3, so a count that swapped C and R would show.
        let (v, c_dim, r) = (7, 5, 3);
        let c = GruCell::random(c_dim, r, 11);
        let prev = LstmState { h: DenseMatrix::filled(v, r, 0.2), c: DenseMatrix::zeros(v, r) };
        let z = DenseMatrix::filled(v, c_dim, 0.3);
        let (a, ops_a) = c.rnn_a(&prev.h).unwrap();
        let (_, ops_b) = c.rnn_b(&z, &a, &prev).unwrap();
        assert_eq!(c.phase_ops(v), (ops_a, ops_b));

        // Rebuilt from the dense kernel's own counts: the three gate
        // products per phase and the epilogue's 3 multiplies + 5 adds per
        // element.
        let gemm = |x: &DenseMatrix, w: &DenseMatrix| ops::gemm_with_stats(x, w).unwrap().1;
        let elems = (v * r) as u64;
        let mut want_a = OpStats::default();
        let mut want_b = OpStats::counted(3 * elems, 5 * elems);
        for g in 0..3 {
            want_a += gemm(&prev.h, &c.u[g]);
            want_b += gemm(&z, &c.w[g]);
        }
        assert_eq!((ops_a, ops_b), (want_a, want_b));
    }

    #[test]
    fn rnn_ops_scale_with_vertices() {
        let c = cell();
        let (a4, _) = c.rnn_a(&DenseMatrix::zeros(4, 2)).unwrap();
        let (a8, _) = c.rnn_a(&DenseMatrix::zeros(8, 2)).unwrap();
        let (_, o4) = c.rnn_b(&DenseMatrix::zeros(4, 3), &a4, &LstmState::zeros(4, 2)).unwrap();
        let (_, o8) = c.rnn_b(&DenseMatrix::zeros(8, 3), &a8, &LstmState::zeros(8, 2)).unwrap();
        assert_eq!(o8.mults, 2 * o4.mults);
    }
}
