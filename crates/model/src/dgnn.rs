//! The complete DGNN model: a GCN stack feeding an RNN kernel — LSTM by
//! default, GRU as the paper's named alternative (paper Fig. 2, Eq. 2,
//! §II-B).

use idgnn_graph::Normalization;
use idgnn_sparse::{DenseMatrix, OpStats};

use crate::error::{ModelError, Result};
use crate::gcn::GcnStack;
use crate::gru::{GruCell, GruPrecomp};
use crate::lstm::{LstmCell, LstmState, RnnAOutput};
use crate::Activation;

/// Which RNN kernel a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum RnnKernelKind {
    /// Long short-term memory (the paper's primary kernel, Eq. 4).
    #[default]
    Lstm,
    /// Gated recurrent unit (the paper's named variant).
    Gru,
}

/// A concrete RNN kernel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RnnKernel {
    /// An LSTM cell.
    Lstm(LstmCell),
    /// A GRU cell.
    Gru(GruCell),
}

impl RnnKernel {
    /// Input dimensionality `C`.
    pub fn input_dim(&self) -> usize {
        match self {
            RnnKernel::Lstm(c) => c.input_dim(),
            RnnKernel::Gru(c) => c.input_dim(),
        }
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        match self {
            RnnKernel::Lstm(c) => c.hidden_dim(),
            RnnKernel::Gru(c) => c.hidden_dim(),
        }
    }

    /// Number of `(input, hidden)` weight-matrix pairs (4 for LSTM, 3 for GRU).
    pub fn gate_count(&self) -> usize {
        match self {
            RnnKernel::Lstm(_) => 4,
            RnnKernel::Gru(_) => 3,
        }
    }

    /// The kernel family.
    pub(crate) fn kind(&self) -> RnnKernelKind {
        match self {
            RnnKernel::Lstm(_) => RnnKernelKind::Lstm,
            RnnKernel::Gru(_) => RnnKernelKind::Gru,
        }
    }
}

impl std::fmt::Display for RnnKernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RnnKernelKind::Lstm => "LSTM",
            RnnKernelKind::Gru => "GRU",
        })
    }
}

/// Kernel-specific RNN-A precomputation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RnnPrecomp {
    /// LSTM `H·U_α` products.
    Lstm(RnnAOutput),
    /// GRU `H·U_α` products.
    Gru(GruPrecomp),
}

impl RnnPrecomp {
    /// The kernel family that computed it.
    pub(crate) fn kind(&self) -> RnnKernelKind {
        match self {
            RnnPrecomp::Lstm(_) => RnnKernelKind::Lstm,
            RnnPrecomp::Gru(_) => RnnKernelKind::Gru,
        }
    }
}

/// Dimension summary of a DGNN model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDims {
    /// Input feature width `K`.
    pub input_dim: usize,
    /// GNN output width `C` (also the GCN hidden width here).
    pub gnn_out_dim: usize,
    /// Number of GCN layers `L`.
    pub gnn_layers: usize,
    /// LSTM hidden width `R`.
    pub rnn_hidden_dim: usize,
}

/// Configuration for building a random-weight DGNN model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Input feature width `K`.
    pub input_dim: usize,
    /// GCN hidden/output width `C`.
    pub gnn_hidden: usize,
    /// Number of GCN layers `L` (the paper evaluates `L = 3`).
    pub gnn_layers: usize,
    /// LSTM hidden width `R`.
    pub rnn_hidden: usize,
    /// GCN activation.
    pub activation: Activation,
    /// Adjacency normalization.
    pub normalization: Normalization,
    /// Weight-initialization seed.
    pub seed: u64,
    /// RNN kernel family.
    pub rnn_kernel: RnnKernelKind,
}

impl ModelConfig {
    /// The evaluation default: 3-layer GCN, ReLU, symmetric normalization.
    pub fn paper_default(input_dim: usize) -> Self {
        Self {
            input_dim,
            gnn_hidden: 32,
            gnn_layers: 3,
            rnn_hidden: 32,
            activation: Activation::Relu,
            normalization: Normalization::Symmetric,
            seed: 0xD61,
            rnn_kernel: RnnKernelKind::Lstm,
        }
    }

    /// Same configuration with the GRU kernel.
    pub fn with_gru(mut self) -> Self {
        self.rnn_kernel = RnnKernelKind::Gru;
        self
    }

    /// Same dimensions but with a linear GCN — the configuration under which
    /// all three algorithms are bit-for-bit equivalent.
    pub fn linear(mut self) -> Self {
        self.activation = Activation::Linear;
        self
    }
}

/// A typical discrete-time DGNN: `Z^t = GNN(G^t)`, `H^t = RNN(H^{t-1}, Z^t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DgnnModel {
    gcn: GcnStack,
    rnn: RnnKernel,
    normalization: Normalization,
}

impl DgnnModel {
    /// Assembles a model from a GCN stack and an LSTM cell (the common case).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if the GNN output width
    /// does not match the RNN input width.
    pub fn new(gcn: GcnStack, lstm: LstmCell, normalization: Normalization) -> Result<Self> {
        Self::with_rnn(gcn, RnnKernel::Lstm(lstm), normalization)
    }

    /// Assembles a model from a GCN stack and any RNN kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if the GNN output width
    /// does not match the RNN input width.
    pub fn with_rnn(gcn: GcnStack, rnn: RnnKernel, normalization: Normalization) -> Result<Self> {
        if gcn.out_dim() != rnn.input_dim() {
            return Err(ModelError::LayerDimensionMismatch {
                layer: gcn.num_layers(),
                expected: gcn.out_dim(),
                got: rnn.input_dim(),
            });
        }
        Ok(Self { gcn, rnn, normalization })
    }

    /// Builds a model with random weights from a [`ModelConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] if `gnn_layers == 0`.
    pub fn from_config(cfg: &ModelConfig) -> Result<Self> {
        let gcn =
            GcnStack::random(cfg.input_dim, cfg.gnn_hidden, cfg.gnn_layers, cfg.activation, cfg.seed)?;
        let rnn = match cfg.rnn_kernel {
            RnnKernelKind::Lstm => RnnKernel::Lstm(LstmCell::random(
                cfg.gnn_hidden,
                cfg.rnn_hidden,
                cfg.seed.wrapping_add(101),
            )),
            RnnKernelKind::Gru => RnnKernel::Gru(GruCell::random(
                cfg.gnn_hidden,
                cfg.rnn_hidden,
                cfg.seed.wrapping_add(101),
            )),
        };
        Self::with_rnn(gcn, rnn, cfg.normalization)
    }

    /// The GCN stack.
    pub fn gcn(&self) -> &GcnStack {
        &self.gcn
    }

    /// The RNN kernel.
    pub fn rnn(&self) -> &RnnKernel {
        &self.rnn
    }

    /// The LSTM cell, if this model uses one (the common case).
    pub fn lstm(&self) -> Option<&LstmCell> {
        match &self.rnn {
            RnnKernel::Lstm(c) => Some(c),
            _ => None,
        }
    }

    /// Runs the kernel-appropriate RNN-A phase (paper Eq. 16).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `h_prev` has the wrong width.
    pub fn rnn_a(&self, h_prev: &DenseMatrix) -> Result<(RnnPrecomp, OpStats)> {
        match &self.rnn {
            RnnKernel::Lstm(c) => {
                let (a, ops) = c.rnn_a(h_prev)?;
                Ok((RnnPrecomp::Lstm(a), ops))
            }
            RnnKernel::Gru(c) => {
                let (a, ops) = c.rnn_a(h_prev)?;
                Ok((RnnPrecomp::Gru(a), ops))
            }
        }
    }

    /// Runs the kernel-appropriate RNN-B phase (paper Eq. 17).
    ///
    /// # Errors
    ///
    /// Returns a shape error on any dimension mismatch, or
    /// [`ModelError::RnnKernelMismatch`] if the precomputation came from a
    /// different kernel family.
    pub fn rnn_b(
        &self,
        z: &DenseMatrix,
        pre: &RnnPrecomp,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats)> {
        match (&self.rnn, pre) {
            (RnnKernel::Lstm(c), RnnPrecomp::Lstm(a)) => c.rnn_b(z, a, prev),
            (RnnKernel::Gru(c), RnnPrecomp::Gru(a)) => c.rnn_b(z, a, prev),
            _ => Err(ModelError::RnnKernelMismatch {
                model: self.rnn.kind(),
                precomputed: pre.kind(),
            }),
        }
    }

    /// Exact op counts of [`Self::rnn_a`] and [`Self::rnn_b`] over
    /// `vertices` rows, as `(RNN-A, RNN-B)`: the kernel's own count
    /// ([`LstmCell::phase_ops`], [`GruCell::phase_ops`]), which the executed
    /// phases also return.
    pub fn rnn_phase_ops(&self, vertices: usize) -> (OpStats, OpStats) {
        match &self.rnn {
            RnnKernel::Lstm(c) => c.phase_ops(vertices),
            RnnKernel::Gru(c) => c.phase_ops(vertices),
        }
    }

    /// The adjacency normalization applied before GCN propagation.
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// The model's activation (taken from the first GCN layer; all layers
    /// built by [`DgnnModel::from_config`] share it).
    pub fn activation(&self) -> Activation {
        self.gcn.layers()[0].activation()
    }

    /// Dimension summary.
    pub fn dims(&self) -> ModelDims {
        ModelDims {
            input_dim: self.gcn.in_dim(),
            gnn_out_dim: self.gcn.out_dim(),
            gnn_layers: self.gcn.num_layers(),
            rnn_hidden_dim: self.rnn.hidden_dim(),
        }
    }

    /// Total bytes of all weight matrices (GCN layers + the RNN gate pairs:
    /// 8 matrices for an LSTM, 6 for a GRU) — the per-snapshot weight
    /// traffic of the recompute/incremental algorithms.
    pub fn weight_bytes(&self) -> u64 {
        let gcn: u64 = self
            .gcn
            .layers()
            .iter()
            .map(|l| 4 * (l.in_dim() as u64) * (l.out_dim() as u64))
            .sum();
        let gates = self.rnn.gate_count() as u64;
        let c = self.rnn.input_dim() as u64;
        let r = self.rnn.hidden_dim() as u64;
        gcn + 4 * gates * c * r + 4 * gates * r * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_config_builds_consistent_model() {
        let m = DgnnModel::from_config(&ModelConfig::paper_default(16)).unwrap();
        let d = m.dims();
        assert_eq!(d.input_dim, 16);
        assert_eq!(d.gnn_layers, 3);
        assert_eq!(d.gnn_out_dim, 32);
        assert_eq!(d.rnn_hidden_dim, 32);
        assert_eq!(m.activation(), Activation::Relu);
    }

    #[test]
    fn mismatched_lstm_rejected() {
        let gcn = GcnStack::random(4, 8, 2, Activation::Linear, 0).unwrap();
        let lstm = LstmCell::random(9, 4, 0); // expects GNN width 9, got 8
        assert!(matches!(
            DgnnModel::new(gcn, lstm, Normalization::Symmetric),
            Err(ModelError::LayerDimensionMismatch { .. })
        ));
    }

    #[test]
    fn linear_builder_flips_activation() {
        let cfg = ModelConfig::paper_default(8).linear();
        let m = DgnnModel::from_config(&cfg).unwrap();
        assert_eq!(m.activation(), Activation::Linear);
    }

    #[test]
    fn weight_bytes_counts_all_matrices() {
        let cfg = ModelConfig {
            input_dim: 4,
            gnn_hidden: 2,
            gnn_layers: 2,
            rnn_hidden: 3,
            activation: Activation::Linear,
            normalization: Normalization::Raw,
            seed: 1,
            rnn_kernel: Default::default(),
        };
        let m = DgnnModel::from_config(&cfg).unwrap();
        // GCN: 4×2 + 2×2 = 12 floats; LSTM: 4·(2×3) + 4·(3×3) = 60 floats.
        assert_eq!(m.weight_bytes(), 4 * (12 + 60));
    }

    #[test]
    fn crossing_the_rnn_kernels_is_a_typed_error() {
        let lstm = DgnnModel::from_config(&ModelConfig::paper_default(4)).unwrap();
        let gru = DgnnModel::from_config(&ModelConfig::paper_default(4).with_gru()).unwrap();
        let state = LstmState::zeros(3, 32);
        let z = DenseMatrix::zeros(3, 32);
        for (model, other, kinds) in [
            (&lstm, &gru, (RnnKernelKind::Lstm, RnnKernelKind::Gru)),
            (&gru, &lstm, (RnnKernelKind::Gru, RnnKernelKind::Lstm)),
        ] {
            let (pre, _) = other.rnn_a(&state.h).unwrap();
            let err = model.rnn_b(&z, &pre, &state).unwrap_err();
            assert_eq!(err, ModelError::RnnKernelMismatch { model: kinds.0, precomputed: kinds.1 });
            let msg = err.to_string();
            assert!(msg.contains(&format!("{} model", kinds.0)), "{msg}");
            assert!(msg.contains(&format!("{} RNN-A", kinds.1)), "{msg}");
            // The same precomputation is accepted by its own kernel.
            assert!(other.rnn_b(&z, &pre, &state).is_ok());
        }
    }

    #[test]
    fn config_is_deterministic() {
        let cfg = ModelConfig::paper_default(8);
        assert_eq!(DgnnModel::from_config(&cfg).unwrap(), DgnnModel::from_config(&cfg).unwrap());
    }
}
