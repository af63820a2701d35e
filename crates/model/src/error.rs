//! Error types for DGNN model construction and execution.

use std::error::Error;
use std::fmt;

use idgnn_graph::GraphError;
use idgnn_sparse::SparseError;

use crate::RnnKernelKind;

/// Error raised by model construction or execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A model with zero layers was requested.
    EmptyModel,
    /// Consecutive GCN layer dimensions do not chain.
    LayerDimensionMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Output width of the previous layer.
        expected: usize,
        /// Input width of the offending layer.
        got: usize,
    },
    /// The input feature width does not match the model.
    InputDimensionMismatch {
        /// Model input width `K`.
        expected: usize,
        /// Provided feature width.
        got: usize,
    },
    /// An RNN-B phase was given an RNN-A precomputation of another kernel
    /// family (an LSTM's to a GRU model, or the reverse).
    RnnKernelMismatch {
        /// The model's kernel family.
        model: RnnKernelKind,
        /// The family that computed the precomputation.
        precomputed: RnnKernelKind,
    },
    /// An underlying sparse/dense kernel failed.
    Sparse(SparseError),
    /// An underlying graph operation failed.
    Graph(GraphError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyModel => f.write_str("model must have at least one GCN layer"),
            ModelError::LayerDimensionMismatch { layer, expected, got } => write!(
                f,
                "GCN layer {layer} expects input width {expected} but the previous layer outputs {got}"
            ),
            ModelError::InputDimensionMismatch { expected, got } => {
                write!(f, "input features have width {got}, model expects {expected}")
            }
            ModelError::RnnKernelMismatch { model, precomputed } => write!(
                f,
                "RNN-B of a {model} model was given a {precomputed} RNN-A precomputation"
            ),
            ModelError::Sparse(e) => write!(f, "kernel failure: {e}"),
            ModelError::Graph(e) => write!(f, "graph failure: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Sparse(e) => Some(e),
            ModelError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for ModelError {
    fn from(e: SparseError) -> Self {
        ModelError::Sparse(e)
    }
}

impl From<GraphError> for ModelError {
    fn from(e: GraphError) -> Self {
        ModelError::Graph(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ModelError::EmptyModel.to_string().contains("at least one"));
        let e = ModelError::LayerDimensionMismatch { layer: 2, expected: 8, got: 4 };
        assert!(e.to_string().contains("layer 2"));
        let e = ModelError::InputDimensionMismatch { expected: 3, got: 5 };
        assert!(e.to_string().contains("width 5"));
    }

    #[test]
    fn error_sources_chain() {
        let e: ModelError = SparseError::NotSquare { shape: (1, 2) }.into();
        assert!(e.source().is_some());
        let e: ModelError =
            GraphError::VertexOutOfRange { vertex: 1, vertices: 1 }.into();
        assert!(e.source().is_some());
        assert!(ModelError::EmptyModel.source().is_none());
    }
}
