//! The three DGNN execution algorithms and their common result types.
//!
//! * [`Algorithm::Recompute`] — every snapshot through the full pipeline
//!   (ReaDy / DGNN-Booster, paper Fig. 4a);
//! * [`Algorithm::Incremental`] — only affected vertices recomputed layer by
//!   layer, intermediates of both snapshots retained (RACE, Fig. 4b);
//! * [`Algorithm::OnePass`] — the I-DGNN one-pass kernel (Fig. 5): the
//!   multi-layer GNN collapses into the dissimilarity computation, and no
//!   intermediate features exist at all.
//!
//! All three produce the same hidden states under a linear GCN (asserted by
//! the integration tests); they differ in operation counts and DRAM traffic,
//! which is exactly what the paper's Figs. 10–13 measure.

mod incremental;
mod onepass;
mod recompute;

pub use onepass::{CombinationOrder, OnePassOptions};

use idgnn_graph::DynamicGraph;
use idgnn_sparse::DenseMatrix;

use crate::cost::{MemoryModel, SnapshotCost};
use crate::error::Result;
use crate::lstm::LstmState;
use crate::DgnnModel;

/// Which execution algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Full recomputation per snapshot (the ReaDy / DGNN-Booster paradigm).
    Recompute,
    /// Incremental computing over affected vertices (the RACE paradigm).
    Incremental,
    /// The proposed one-pass dissimilarity kernel (I-DGNN).
    OnePass,
}

/// All algorithms in the paper's comparison order.
pub const ALL_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::Recompute, Algorithm::Incremental, Algorithm::OnePass];

impl Algorithm {
    /// Label used in harness output (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Recompute => "Re-Algorithm",
            Algorithm::Incremental => "Inc-Algorithm",
            Algorithm::OnePass => "P-Algorithm",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Functional output for one snapshot: the GNN output features and the LSTM
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutput {
    /// GNN output `Z^t` (`X_C^t` for the fused path).
    pub z: DenseMatrix,
    /// LSTM state after consuming `Z^t`.
    pub state: LstmState,
}

/// Full execution record over a dynamic graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Per-snapshot functional outputs, in time order.
    pub outputs: Vec<SnapshotOutput>,
    /// Per-snapshot costs, in time order.
    pub costs: Vec<SnapshotCost>,
}

impl ExecutionResult {
    /// Total op count over all snapshots.
    pub fn total_ops(&self) -> idgnn_sparse::OpStats {
        self.costs.iter().fold(idgnn_sparse::OpStats::default(), |a, c| a + c.total_ops())
    }

    /// Total DRAM traffic over all snapshots.
    pub fn total_dram(&self) -> crate::cost::Traffic {
        self.costs.iter().fold(crate::cost::Traffic::none(), |a, c| a.merged(&c.total_dram()))
    }

    /// The final hidden state, if any snapshot was processed.
    pub fn final_state(&self) -> Option<&LstmState> {
        self.outputs.last().map(|o| &o.state)
    }
}

/// Runs `algorithm` over the whole dynamic graph.
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts.
pub fn run(
    algorithm: Algorithm,
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
) -> Result<ExecutionResult> {
    match algorithm {
        Algorithm::Recompute => recompute::run(model, dg, mem),
        Algorithm::Incremental => incremental::run(model, dg, mem),
        Algorithm::OnePass => onepass::run(model, dg, mem, &OnePassOptions::default()),
    }
}

/// Runs the one-pass algorithm with explicit options (strategy ablations).
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts.
pub fn run_onepass_with(
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    options: &OnePassOptions,
) -> Result<ExecutionResult> {
    onepass::run(model, dg, mem, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Recompute.label(), "Re-Algorithm");
        assert_eq!(Algorithm::Incremental.label(), "Inc-Algorithm");
        assert_eq!(Algorithm::OnePass.to_string(), "P-Algorithm");
        assert_eq!(ALL_ALGORITHMS.len(), 3);
    }
}
