//! DGNN layer fusion (paper §IV-A, Eqs. 5–9).
//!
//! An `L`-layer linear GCN collapses into a single kernel:
//!
//! ```text
//! X_C^t = σ( (Â^t)^L · X_0^t · W_C ),   W_C = Π_{l=1}^{L} W_l
//! ```
//!
//! The fused weight `W_C` is computed **once** (weights are shared across
//! snapshots) while the fused adjacency `A_C^t = (Â^t)^L` is never formed:
//! the one-pass kernel ([`crate::onepass`]) carries only its change `ΔA_C`.
//! Where a test needs `A_C` itself it calls
//! [`idgnn_sparse::ops::sp_pow_with_stats`].

use idgnn_sparse::{ops, workspace, CsrMatrix, DenseMatrix, OpStats};

use crate::error::Result;
use crate::gcn::GcnStack;

/// Fuses the stack's weights into `W_C = W_1 · W_2 · … · W_L` (Eq. 8).
///
/// Returns the fused `K × C` matrix and the exact op count of the chain —
/// this is the cost of the paper's **WComb** phase, paid only at the initial
/// snapshot.
///
/// # Errors
///
/// Propagates dimension errors (impossible for a validated [`GcnStack`]).
pub fn fuse_weights(stack: &GcnStack) -> Result<(DenseMatrix, OpStats)> {
    let mut ops = OpStats::default();
    let mut acc = stack.layers()[0].weight().clone();
    for layer in &stack.layers()[1..] {
        let (next, s) = ops::gemm_with_stats(&acc, layer.weight())?;
        ops += s;
        acc = next;
    }
    Ok((acc, ops))
}

/// Evaluates the fused model: `σ(A_C · X_0 · W_C)` (Eq. 9).
///
/// Returns the **pre-activation** `P = A_C·X_0·W_C` alongside the activated
/// output: the one-pass executor keeps `P` resident and updates it
/// additively, which makes the incremental path exact even under ReLU
/// (re-activation of the updated pre-activation).
///
/// # Errors
///
/// Returns a dimension error if shapes are inconsistent.
pub fn fused_forward(
    a_c: &CsrMatrix,
    x0: &DenseMatrix,
    w_c: &DenseMatrix,
    activation: crate::Activation,
) -> Result<(FusedOutput, OpStats, OpStats)> {
    let (agg, ag_ops) = ops::spmm_with_stats(a_c, x0)?;
    let (pre, cb_ops) = ops::gemm_with_stats(&agg, w_c)?;
    // The aggregation buffer came from the pool (spmm draws its value
    // storage there); hand it back so per-snapshot forwards stop allocating.
    workspace::recycle_dense(agg);
    let out = activation.apply(&pre);
    Ok((FusedOutput { pre_activation: pre, output: out }, ag_ops, cb_ops))
}

/// Output of a fused forward pass: pre-activation and activated output.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedOutput {
    /// `P = A_C · X_0 · W_C` before the activation.
    pub pre_activation: DenseMatrix,
    /// `X_C = σ(P)` — the GNN output fed to the RNN.
    pub output: DenseMatrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, GcnStack};
    use idgnn_graph::{adjacency_from_edges, Normalization};
    use idgnn_sparse::DenseMatrix;

    fn graph() -> CsrMatrix {
        adjacency_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .unwrap()
    }

    #[test]
    fn fused_weights_match_chain() {
        let stack = GcnStack::random(4, 3, 3, Activation::Linear, 11).unwrap();
        let (wc, ops) = fuse_weights(&stack).unwrap();
        assert_eq!(wc.shape(), (4, 3));
        assert!(ops.mults > 0);
        let manual = stack.layers()[0]
            .weight()
            .matmul(stack.layers()[1].weight())
            .unwrap()
            .matmul(stack.layers()[2].weight())
            .unwrap();
        assert!(wc.approx_eq(&manual, 1e-5));
    }

    #[test]
    fn single_layer_fusion_is_identity() {
        let stack = GcnStack::random(4, 3, 1, Activation::Linear, 2).unwrap();
        let (wc, ops) = fuse_weights(&stack).unwrap();
        assert_eq!(&wc, stack.layers()[0].weight());
        assert_eq!(ops.total(), 0);
    }

    #[test]
    fn fused_adjacency_is_the_dense_cube() {
        // Eq. 7: A_C = Â³, two SpGEMMs, symmetric for a symmetric Â.
        let a = Normalization::Symmetric.apply(&graph());
        let (ac, _) = ops::sp_pow_with_stats(&a, 3).unwrap();
        let d = a.to_dense();
        let expect = d.matmul(&d).unwrap().matmul(&d).unwrap();
        assert!(ac.to_dense().approx_eq(&expect, 1e-5));
        assert!(ac.is_symmetric(1e-4));
    }

    #[test]
    fn fused_equals_layered_for_linear_activation() {
        // Eq. 6: the heart of the fusion theory.
        let a = Normalization::Symmetric.apply(&graph());
        let stack = GcnStack::random(5, 4, 3, Activation::Linear, 21).unwrap();
        let x0 = DenseMatrix::from_vec(6, 5, (0..30).map(|i| (i as f32).sin()).collect()).unwrap();

        let layered = stack.forward(&a, &x0).unwrap();

        let (wc, _) = fuse_weights(&stack).unwrap();
        let (ac, _) = ops::sp_pow_with_stats(&a, 3).unwrap();
        let (fused, _, _) = fused_forward(&ac, &x0, &wc, Activation::Linear).unwrap();

        assert!(
            layered.approx_eq(&fused.output, 1e-3),
            "max diff {}",
            layered.max_abs_diff(&fused.output).unwrap()
        );
    }

    #[test]
    fn fused_equals_layered_for_relu_on_nonnegative_data() {
        // With non-negative weights, features, and operator, ReLU is the
        // identity on every pre-activation, so fusion stays exact.
        let a = Normalization::Symmetric.apply(&graph());
        let mk = |seed: u64, r, c| {
            let l = crate::GcnLayer::random(r, c, Activation::Relu, seed);
            crate::GcnLayer::new(l.weight().map(f32::abs), Activation::Relu)
        };
        let stack = GcnStack::new(vec![mk(1, 3, 4), mk(2, 4, 4)]).unwrap();
        let x0 = DenseMatrix::filled(6, 3, 0.7);

        let layered = stack.forward(&a, &x0).unwrap();
        let (wc, _) = fuse_weights(&stack).unwrap();
        let (ac, _) = ops::sp_pow_with_stats(&a, 2).unwrap();
        let (fused, _, _) = fused_forward(&ac, &x0, &wc, Activation::Relu).unwrap();
        assert!(layered.approx_eq(&fused.output, 1e-4));
    }

    #[test]
    fn pre_activation_relates_to_output() {
        let a = Normalization::Symmetric.apply(&graph());
        let stack = GcnStack::random(2, 2, 2, Activation::Relu, 5).unwrap();
        let (wc, _) = fuse_weights(&stack).unwrap();
        let (ac, _) = ops::sp_pow_with_stats(&a, 2).unwrap();
        let x0 = DenseMatrix::from_vec(6, 2, (0..12).map(|i| (i as f32) - 6.0).collect()).unwrap();
        let (out, _, _) = fused_forward(&ac, &x0, &wc, Activation::Relu).unwrap();
        assert_eq!(out.output, out.pre_activation.relu());
    }
}
