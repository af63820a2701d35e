//! LSTM cell — the RNN kernel of the DGNN (paper Eq. 4), with the RNN-A /
//! RNN-B phase split of §V-C (Eqs. 16–17).
//!
//! Row convention: a batch of `V` vertices is a `V × C` matrix `Z` (GNN
//! outputs) and a `V × R` matrix `H` (hidden state), so gates compute as
//! `Z·W_α + H·U_α` with `W_α : C × R` and `U_α : R × R`.

use idgnn_sparse::{DenseMatrix, OpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{ModelError, Result};

/// The four LSTM gates, in the paper's order (input, forget, output, cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Input gate `i`.
    Input,
    /// Forget gate `f`.
    Forget,
    /// Output gate `o`.
    Output,
    /// Cell candidate `c̃`.
    Cell,
}

/// All four gates in canonical order.
pub const GATES: [Gate; 4] = [Gate::Input, Gate::Forget, Gate::Output, Gate::Cell];

/// An LSTM cell with input weights `W_{i,f,o,c}` and hidden weights
/// `U_{i,f,o,c}` (no biases, matching the paper's Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    w: [DenseMatrix; 4],
    u: [DenseMatrix; 4],
}

impl LstmCell {
    /// Creates a cell from explicit weights (`w[g]: C × R`, `u[g]: R × R`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if any weight has an
    /// inconsistent shape.
    pub fn new(w: [DenseMatrix; 4], u: [DenseMatrix; 4]) -> Result<Self> {
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
        let w = [
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
        ];
        let u = [
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
        ];
        Self { w, u }
    }

    /// Input dimensionality `C` (GNN output width).
    pub fn input_dim(&self) -> usize {
        self.w[0].rows()
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        self.w[0].cols()
    }

    /// Input weight of `gate` (`C × R`).
    pub fn w(&self, gate: Gate) -> &DenseMatrix {
        &self.w[gate_index(gate)]
    }

    /// Hidden weight of `gate` (`R × R`).
    pub fn u(&self, gate: Gate) -> &DenseMatrix {
        &self.u[gate_index(gate)]
    }

    /// **RNN-A** (paper Eq. 16): the GNN-independent half,
    /// `A_α = H^{t-1} · U_α` for all four gates.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `h_prev` has the wrong width.
    pub fn rnn_a(&self, h_prev: &DenseMatrix) -> Result<(RnnAOutput, OpStats)> {
        let mut outs = Vec::with_capacity(4);
        for u in &self.u {
            outs.push(h_prev.matmul(u).map_err(ModelError::from)?);
        }
        // lint: allow(panic-surface) -- the loop above pushes exactly four gate products
        let [i, f, o, c] = <[DenseMatrix; 4]>::try_from(outs).expect("exactly four gates");
        Ok((RnnAOutput { gates: [i, f, o, c] }, self.phase_ops(h_prev.rows()).0))
    }

    /// **RNN-B** (paper Eq. 17): consumes the GNN output `z` and the RNN-A
    /// precomputation, producing the next state.
    ///
    /// # Errors
    ///
    /// Returns a shape error on any dimension mismatch.
    pub fn rnn_b(
        &self,
        z: &DenseMatrix,
        a: &RnnAOutput,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats)> {
        let mut pre = Vec::with_capacity(4);
        for (w, a_g) in self.w.iter().zip(&a.gates) {
            pre.push(z.matmul(w).map_err(ModelError::from)?.add(a_g).map_err(ModelError::from)?);
        }
        let i = pre[0].sigmoid();
        let f = pre[1].sigmoid();
        let o = pre[2].sigmoid();
        let c_cand = pre[3].tanh();

        let fc = f.hadamard(&prev.c).map_err(ModelError::from)?;
        let ic = i.hadamard(&c_cand).map_err(ModelError::from)?;
        let c = fc.add(&ic).map_err(ModelError::from)?;
        let h = o.hadamard(&c.tanh()).map_err(ModelError::from)?;
        Ok((LstmState { h, c }, self.phase_ops(z.rows()).1))
    }

    /// Exact op counts of [`Self::rnn_a`] and [`Self::rnn_b`] over
    /// `vertices` rows, as `(RNN-A, RNN-B)`. They depend on the shapes only,
    /// so a run that reads no RNN state charges the RNN from here without
    /// evaluating it; the executed phases return the same counts.
    ///
    /// * RNN-A: the four `V × R` by `R × R` products `H·U_α` (Eq. 22's
    ///   `4·V·R²` multiplies).
    /// * RNN-B: the four `V × C` by `C × R` products `Z·W_α`, one add per
    ///   element to join each with its RNN-A term, and Eq. 4's element-wise
    ///   epilogue `f∘c + i∘c̃` and `o∘tanh(c)`: 3 multiplies and 1 add per
    ///   element (Eq. 21's `V·R·(4C + 3)` multiplies).
    pub fn phase_ops(&self, vertices: usize) -> (OpStats, OpStats) {
        let (v, c, r) = (vertices as u64, self.input_dim() as u64, self.hidden_dim() as u64);
        let elems = v * r;
        let mut gates_a = OpStats::default();
        let mut gates_b = OpStats::default();
        for _ in 0..4 {
            gates_a += OpStats::gemm(v, r, r);
            gates_b += OpStats::gemm(v, r, c) + OpStats::counted(0, elems);
        }
        (gates_a, gates_b + OpStats::counted(3 * elems, elems))
    }

    /// Full step: RNN-A followed by RNN-B (convenience for reference paths).
    ///
    /// # Errors
    ///
    /// Returns a shape error on any dimension mismatch.
    pub fn step(&self, z: &DenseMatrix, prev: &LstmState) -> Result<(LstmState, OpStats)> {
        let (a, ops_a) = self.rnn_a(&prev.h)?;
        let (state, ops_b) = self.rnn_b(z, &a, prev)?;
        Ok((state, ops_a + ops_b))
    }
}

fn gate_index(g: Gate) -> usize {
    match g {
        Gate::Input => 0,
        Gate::Forget => 1,
        Gate::Output => 2,
        Gate::Cell => 3,
    }
}

/// Output of the RNN-A phase: `H^{t-1} · U_α` for each gate.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnAOutput {
    gates: [DenseMatrix; 4],
}

impl RnnAOutput {
    /// The precomputed matrix for `gate`.
    pub fn gate(&self, gate: Gate) -> &DenseMatrix {
        &self.gates[gate_index(gate)]
    }
}

/// Per-vertex LSTM state: hidden `H` and cell `c`, both `V × R`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `H^t`.
    pub h: DenseMatrix,
    /// Cell state `c^t`.
    pub c: DenseMatrix,
}

impl LstmState {
    /// The all-zero initial state for `vertices` rows of width `hidden_dim`.
    pub fn zeros(vertices: usize, hidden_dim: usize) -> Self {
        Self { h: DenseMatrix::zeros(vertices, hidden_dim), c: DenseMatrix::zeros(vertices, hidden_dim) }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.h.rows()
    }

    /// Hidden width `R`.
    pub fn hidden_dim(&self) -> usize {
        self.h.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_sparse::ops;

    fn cell() -> LstmCell {
        LstmCell::random(3, 2, 42)
    }

    #[test]
    fn dims() {
        let c = cell();
        assert_eq!(c.input_dim(), 3);
        assert_eq!(c.hidden_dim(), 2);
        assert_eq!(c.w(Gate::Input).shape(), (3, 2));
        assert_eq!(c.u(Gate::Cell).shape(), (2, 2));
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(LstmCell::random(3, 2, 7), LstmCell::random(3, 2, 7));
        assert_ne!(LstmCell::random(3, 2, 7), LstmCell::random(3, 2, 8));
    }

    #[test]
    fn step_equals_split_phases() {
        let c = cell();
        let z = DenseMatrix::filled(5, 3, 0.3);
        let prev = LstmState::zeros(5, 2);
        let (s1, ops1) = c.step(&z, &prev).unwrap();
        let (a, oa) = c.rnn_a(&prev.h).unwrap();
        let (s2, ob) = c.rnn_b(&z, &a, &prev).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(ops1, oa + ob);
    }

    #[test]
    fn zero_state_zero_input_gives_zero_hidden() {
        // With z = 0 and h = c = 0: all gate pre-activations are 0, so
        // c' = σ(0)·tanh(0) = 0 and h' = σ(0)·tanh(0) = 0.
        let c = cell();
        let z = DenseMatrix::zeros(4, 3);
        let (s, _) = c.step(&z, &LstmState::zeros(4, 2)).unwrap();
        assert!(s.h.approx_eq(&DenseMatrix::zeros(4, 2), 1e-6));
        assert!(s.c.approx_eq(&DenseMatrix::zeros(4, 2), 1e-6));
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = σ(·)·tanh(·) ∈ (-1, 1) always.
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 100.0);
        let mut state = LstmState::zeros(4, 2);
        for _ in 0..5 {
            let (next, _) = c.step(&z, &state).unwrap();
            state = next;
        }
        assert!(state.h.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn state_depends_on_history() {
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 0.5);
        let (s1, _) = c.step(&z, &LstmState::zeros(4, 2)).unwrap();
        let (s2, _) = c.step(&z, &s1).unwrap();
        assert!(!s1.h.approx_eq(&s2.h, 1e-6));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let c = cell();
        let z = DenseMatrix::zeros(4, 7); // wrong width
        assert!(c.step(&z, &LstmState::zeros(4, 2)).is_err());
    }

    #[test]
    fn new_validates_shapes() {
        let good = DenseMatrix::zeros(3, 2);
        let u = DenseMatrix::zeros(2, 2);
        assert!(LstmCell::new(
            [good.clone(), good.clone(), good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone(), u.clone()],
        )
        .is_ok());
        let bad = DenseMatrix::zeros(3, 9);
        assert!(LstmCell::new(
            [good.clone(), bad, good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone(), u],
        )
        .is_err());
    }

    #[test]
    fn rnn_ops_match_paper_scaling() {
        // RNN-B op count should scale with V·(4·C·R + elementwise) — double V,
        // double ops.
        let c = cell();
        let z1 = DenseMatrix::zeros(4, 3);
        let z2 = DenseMatrix::zeros(8, 3);
        let (a1, _) = c.rnn_a(&LstmState::zeros(4, 2).h).unwrap();
        let (a2, _) = c.rnn_a(&LstmState::zeros(8, 2).h).unwrap();
        let (_, o1) = c.rnn_b(&z1, &a1, &LstmState::zeros(4, 2)).unwrap();
        let (_, o2) = c.rnn_b(&z2, &a2, &LstmState::zeros(8, 2)).unwrap();
        assert_eq!(o2.mults, 2 * o1.mults);
    }

    #[test]
    fn phase_ops_are_the_executed_counts_and_eqs_21_22() {
        // C = 5 ≠ R = 3, so a count that swapped C and R would show.
        let (v, c_dim, r) = (7, 5, 3);
        let c = LstmCell::random(c_dim, r, 11);
        let prev =
            LstmState { h: DenseMatrix::filled(v, r, 0.2), c: DenseMatrix::filled(v, r, -0.1) };
        let z = DenseMatrix::filled(v, c_dim, 0.3);
        let (a, ops_a) = c.rnn_a(&prev.h).unwrap();
        let (_, ops_b) = c.rnn_b(&z, &a, &prev).unwrap();
        assert_eq!(c.phase_ops(v), (ops_a, ops_b));

        // Rebuilt from the dense kernel's own counts: the four gate
        // products per phase, one join add per gate element, and the
        // epilogue's 3 multiplies + 1 add per element.
        let gemm = |x: &DenseMatrix, w: &DenseMatrix| ops::gemm_with_stats(x, w).unwrap().1;
        let elems = (v * r) as u64;
        let mut want_a = OpStats::default();
        let mut want_b = OpStats::counted(3 * elems, elems);
        for g in GATES {
            want_a += gemm(&prev.h, c.u(g));
            want_b += gemm(&z, c.w(g)) + OpStats::counted(0, elems);
        }
        assert_eq!((ops_a, ops_b), (want_a, want_b));

        // Eq. 22 (RNN-A, 4·V·R²) and Eq. 21 (RNN-B, V·R·(4C + 3)).
        let (vf, cf, rf) = (v as f64, c_dim as f64, r as f64);
        assert_eq!(ops_a.mults as f64, crate::estimate::rnn_a_ops(vf, rf));
        assert_eq!(ops_b.mults as f64, crate::estimate::rnn_b_ops(vf, cf, rf));
    }

    #[test]
    fn lstm_state_accessors() {
        let s = LstmState::zeros(6, 3);
        assert_eq!(s.num_vertices(), 6);
        assert_eq!(s.hidden_dim(), 3);
    }
}
