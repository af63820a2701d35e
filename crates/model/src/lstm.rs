//! LSTM cell — the RNN kernel of the DGNN (paper Eq. 4), with the RNN-A /
//! RNN-B phase split of §V-C (Eqs. 16–17).
//!
//! Row convention: a batch of `V` vertices is a `V × C` matrix `Z` (GNN
//! outputs) and a `V × R` matrix `H` (hidden state), so gates compute as
//! `Z·W_α + H·U_α` with `W_α : C × R` and `U_α : R × R`.

use idgnn_sparse::{ops, DenseMatrix, OpStats};
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
        let mut ops = OpStats::default();
        let mut outs = Vec::with_capacity(4);
        for g in 0..4 {
            let (m, s) = ops::gemm_with_stats(h_prev, &self.u[g]).map_err(ModelError::from)?;
            ops += s;
            outs.push(m);
        }
        // lint: allow(panic-surface) -- the loop above pushes exactly four gate products
        let [i, f, o, c] = <[DenseMatrix; 4]>::try_from(outs).expect("exactly four gates");
        Ok((RnnAOutput { gates: [i, f, o, c] }, ops))
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
        let mut ops = OpStats::default();
        let mut pre = Vec::with_capacity(4);
        for g in 0..4 {
            let (m, s) = ops::gemm_with_stats(z, &self.w[g]).map_err(ModelError::from)?;
            ops += s;
            let summed = m.add(&a.gates[g]).map_err(ModelError::from)?;
            ops.adds += summed.as_slice().len() as u64;
            pre.push(summed);
        }
        let i = pre[0].sigmoid();
        let f = pre[1].sigmoid();
        let o = pre[2].sigmoid();
        let c_cand = pre[3].tanh();

        let fc = f.hadamard(&prev.c).map_err(ModelError::from)?;
        let ic = i.hadamard(&c_cand).map_err(ModelError::from)?;
        let c = fc.add(&ic).map_err(ModelError::from)?;
        let h = o.hadamard(&c.tanh()).map_err(ModelError::from)?;
        // Element-wise epilogue: 3 multiplies + 1 add per element (Eq. 4's
        // f∘c + i∘c̃ and o∘tanh(c)).
        let elems = h.as_slice().len() as u64;
        ops.mults += 3 * elems;
        ops.adds += elems;
        Ok((LstmState { h, c }, ops))
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
    fn lstm_state_accessors() {
        let s = LstmState::zeros(6, 3);
        assert_eq!(s.num_vertices(), 6);
        assert_eq!(s.hidden_dim(), 3);
    }
}
