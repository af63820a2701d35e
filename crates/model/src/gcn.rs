//! Graph Convolutional Network layers (paper Eq. 3 / Eq. 5).

use idgnn_sparse::{ops, CsrMatrix, DenseMatrix, OpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::activation::Activation;
use crate::error::{ModelError, Result};

/// One GCN layer: `X_l = σ(Â · X_{l-1} · W_l)`.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    weight: DenseMatrix,
    activation: Activation,
}

impl GcnLayer {
    /// Creates a layer from an explicit weight matrix.
    pub fn new(weight: DenseMatrix, activation: Activation) -> Self {
        Self { weight, activation }
    }

    /// Creates a layer with Xavier-ish random weights in
    /// `[-1/√in, 1/√in)`, deterministic in `seed`.
    pub fn random(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (in_dim.max(1) as f32).sqrt();
        let data = (0..in_dim * out_dim).map(|_| rng.gen_range(-scale..scale)).collect();
        Self {
            weight: DenseMatrix::from_vec(in_dim, out_dim, data)
                // lint: allow(panic-surface) -- `data` holds exactly in_dim·out_dim values, the shape from_vec checks
                .expect("length matches by construction"),
            activation,
        }
    }

    /// The layer weight `W_l` (`in_dim × out_dim`).
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The layer activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass `σ(Â · X · W)` with exact op counts for the aggregation
    /// (`Â·X`) and combination (`·W`) halves.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `Â`, `X`, `W` shapes are inconsistent.
    pub fn forward(
        &self,
        a_norm: &CsrMatrix,
        x: &DenseMatrix,
    ) -> Result<(DenseMatrix, OpStats, OpStats)> {
        let (agg, agg_ops) = ops::spmm_with_stats(a_norm, x).map_err(ModelError::from)?;
        let (comb, comb_ops) = ops::gemm_with_stats(&agg, &self.weight).map_err(ModelError::from)?;
        Ok((self.activation.apply(&comb), agg_ops, comb_ops))
    }
}

/// A stack of GCN layers forming the GNN kernel of the DGNN.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnStack {
    layers: Vec<GcnLayer>,
}

impl GcnStack {
    /// Creates a stack from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if consecutive layer
    /// dimensions do not chain, or [`ModelError::EmptyModel`] for zero layers.
    pub fn new(layers: Vec<GcnLayer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(ModelError::EmptyModel);
        }
        for (i, w) in layers.windows(2).enumerate() {
            if w[0].out_dim() != w[1].in_dim() {
                return Err(ModelError::LayerDimensionMismatch {
                    layer: i + 1,
                    expected: w[0].out_dim(),
                    got: w[1].in_dim(),
                });
            }
        }
        Ok(Self { layers })
    }

    /// Creates an `L`-layer stack `in_dim → hidden → … → hidden`, with
    /// random weights, deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] if `num_layers == 0`.
    pub fn random(
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self> {
        if num_layers == 0 {
            return Err(ModelError::EmptyModel);
        }
        let mut layers = Vec::with_capacity(num_layers);
        layers.push(GcnLayer::random(in_dim, hidden, activation, seed));
        for l in 1..num_layers {
            layers.push(GcnLayer::random(hidden, hidden, activation, seed.wrapping_add(l as u64)));
        }
        Self::new(layers)
    }

    /// The layers in order.
    pub fn layers(&self) -> &[GcnLayer] {
        &self.layers
    }

    /// Number of layers `L`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality `K`.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality `C` (the GNN output feature width fed to the RNN).
    pub fn out_dim(&self) -> usize {
        // lint: allow(panic-surface) -- GcnStack::new and GcnStack::random reject zero layers
        self.layers.last().expect("non-empty by invariant").out_dim()
    }

    /// Layer-by-layer forward pass returning the outputs of **every** layer
    /// (`X_1 … X_L`) plus per-layer aggregation/combination op counts.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    #[allow(clippy::type_complexity)]
    pub fn forward_all_layers(
        &self,
        a_norm: &CsrMatrix,
        x0: &DenseMatrix,
    ) -> Result<(Vec<DenseMatrix>, Vec<(OpStats, OpStats)>)> {
        let mut outs: Vec<DenseMatrix> = Vec::with_capacity(self.layers.len());
        let mut costs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, ag, cb) = layer.forward(a_norm, outs.last().unwrap_or(x0))?;
            costs.push((ag, cb));
            outs.push(next);
        }
        Ok((outs, costs))
    }

    /// The per-layer aggregation/combination op counts
    /// [`forward_all_layers`](Self::forward_all_layers) returns for the
    /// operator `a_norm`, without evaluating any layer: SpMM counts follow
    /// the row lengths of `a_norm` ([`ops::spmm_stats`]) and GEMM counts the
    /// shapes ([`OpStats::gemm`]), so they do not depend on the features.
    pub fn layer_ops(&self, a_norm: &CsrMatrix) -> Vec<(OpStats, OpStats)> {
        let v = a_norm.rows() as u64;
        self.layers
            .iter()
            .map(|layer| {
                let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
                (
                    ops::spmm_stats(a_norm, in_dim),
                    OpStats::gemm(v, out_dim as u64, in_dim as u64),
                )
            })
            .collect()
    }

    /// Full forward pass returning only `Z = X_L`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward(&self, a_norm: &CsrMatrix, x0: &DenseMatrix) -> Result<DenseMatrix> {
        Ok(self
            .forward_all_layers(a_norm, x0)?
            .0
            .pop()
            // lint: allow(panic-surface) -- forward_all_layers returns one output per layer, and a GcnStack has ≥ 1 layer
            .expect("non-empty by invariant"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::adjacency_from_edges;

    fn small_a() -> CsrMatrix {
        adjacency_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn layer_forward_linear_matches_manual() {
        let a = small_a();
        let x = DenseMatrix::filled(4, 2, 1.0);
        let w = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let layer = GcnLayer::new(w, Activation::Linear);
        let (y, ag, cb) = layer.forward(&a, &x).unwrap();
        let manual = a.to_dense().matmul(&x).unwrap();
        assert!(y.approx_eq(&manual, 1e-6));
        assert!(ag.mults > 0);
        assert!(cb.mults > 0);
    }

    #[test]
    fn relu_layer_clamps() {
        let a = small_a();
        let x = DenseMatrix::filled(4, 1, 1.0);
        let w = DenseMatrix::from_rows(&[&[-1.0]]).unwrap();
        let layer = GcnLayer::new(w, Activation::Relu);
        let (y, _, _) = layer.forward(&a, &x).unwrap();
        assert_eq!(y.count_above(0.0), 0);
    }

    #[test]
    fn random_layer_deterministic() {
        let a = GcnLayer::random(3, 4, Activation::Relu, 7);
        let b = GcnLayer::random(3, 4, Activation::Relu, 7);
        assert_eq!(a, b);
        assert_ne!(a, GcnLayer::random(3, 4, Activation::Relu, 8));
        assert_eq!(a.in_dim(), 3);
        assert_eq!(a.out_dim(), 4);
    }

    #[test]
    fn stack_validates_chaining() {
        let l1 = GcnLayer::random(3, 4, Activation::Linear, 0);
        let bad = GcnLayer::random(5, 2, Activation::Linear, 1);
        assert!(matches!(
            GcnStack::new(vec![l1.clone(), bad]),
            Err(ModelError::LayerDimensionMismatch { layer: 1, expected: 4, got: 5 })
        ));
        let good = GcnLayer::random(4, 2, Activation::Linear, 1);
        assert!(GcnStack::new(vec![l1, good]).is_ok());
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(matches!(GcnStack::new(vec![]), Err(ModelError::EmptyModel)));
        assert!(matches!(
            GcnStack::random(4, 4, 0, Activation::Linear, 0),
            Err(ModelError::EmptyModel)
        ));
    }

    #[test]
    fn stack_dims() {
        let s = GcnStack::random(8, 5, 3, Activation::Relu, 3).unwrap();
        assert_eq!(s.num_layers(), 3);
        assert_eq!(s.in_dim(), 8);
        assert_eq!(s.out_dim(), 5);
    }

    #[test]
    fn forward_all_layers_returns_every_intermediate() {
        let s = GcnStack::random(2, 3, 3, Activation::Linear, 1).unwrap();
        let a = small_a();
        let x = DenseMatrix::filled(4, 2, 0.5);
        let (outs, costs) = s.forward_all_layers(&a, &x).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(costs.len(), 3);
        assert_eq!(outs[0].shape(), (4, 3));
        assert_eq!(outs[2], s.forward(&a, &x).unwrap());
    }

    #[test]
    fn layer_ops_equal_the_executed_counts() {
        // Vertex 4 is isolated, so its row is empty under the raw operator.
        let a = adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        assert_eq!(a.row_nnz(4), 0);
        for activation in [Activation::Linear, Activation::Relu] {
            let s = GcnStack::random(3, 2, 3, activation, 4).unwrap();
            let x = DenseMatrix::from_vec(5, 3, (0..15).map(|i| (i as f32).sin()).collect())
                .unwrap();
            let (_, executed) = s.forward_all_layers(&a, &x).unwrap();
            assert_eq!(s.layer_ops(&a), executed, "{activation:?}");
        }
    }

    #[test]
    fn stack_forward_equals_composed_layers() {
        let s = GcnStack::random(2, 2, 2, Activation::Linear, 5).unwrap();
        let a = small_a();
        let x = DenseMatrix::filled(4, 2, 1.0);
        let z = s.forward(&a, &x).unwrap();
        let (y1, _, _) = s.layers()[0].forward(&a, &x).unwrap();
        let (y2, _, _) = s.layers()[1].forward(&a, &y1).unwrap();
        assert!(z.approx_eq(&y2, 1e-6));
    }
}
