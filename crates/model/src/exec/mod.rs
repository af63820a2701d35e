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

use std::cell::Cell;

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
    /// CSR bytes of each snapshot's normalised operator `Â^t`, in time
    /// order (one entry per cost). Every executor builds `Â^t` anyway and
    /// records its size, so the accelerator models that charge for
    /// streaming the operator never rebuild it.
    pub operator_bytes: Vec<u64>,
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

thread_local! {
    static RUNS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
}

/// Executions started on the calling thread so far, per algorithm in
/// [`ALL_ALGORITHMS`] order. A test probe: the figure grids assert with it
/// that they execute each (workload, algorithm) pair once.
#[doc(hidden)]
pub fn runs_on_this_thread() -> [u64; 3] {
    RUNS.with(Cell::get)
}

fn count_run(algorithm: Algorithm) {
    let i = match algorithm {
        Algorithm::Recompute => 0,
        Algorithm::Incremental => 1,
        Algorithm::OnePass => 2,
    };
    RUNS.with(|runs| {
        let mut n = runs.get();
        // lint: allow(panic-surface) -- `i` indexes a 3-slot array by a 3-variant match
        n[i] += 1;
        runs.set(n);
    });
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
    count_run(algorithm);
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
    count_run(Algorithm::OnePass);
    onepass::run(model, dg, mem, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::Normalization;

    #[test]
    fn every_executor_records_the_operator_bytes_of_each_snapshot() {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(40, 120, 6),
            &StreamConfig { deltas: 3, dissimilarity: 0.1, ..Default::default() },
            5,
        )
        .unwrap();
        let snaps = dg.materialize().unwrap();
        for normalization in [Normalization::Symmetric, Normalization::RowStochastic] {
            let model = DgnnModel::from_config(&ModelConfig {
                input_dim: 6,
                gnn_hidden: 5,
                gnn_layers: 3,
                rnn_hidden: 4,
                activation: crate::Activation::Relu,
                normalization,
                seed: 3,
                rnn_kernel: Default::default(),
            })
            .unwrap();
            let expected: Vec<u64> = snaps
                .iter()
                .map(|s| model.normalization().apply(s.adjacency()).csr_bytes())
                .collect();
            let mem = MemoryModel::default();
            let mut results: Vec<ExecutionResult> =
                ALL_ALGORITHMS.iter().map(|&a| run(a, &model, &dg, &mem).unwrap()).collect();
            // Both one-pass paths: the delta kernel and the adaptive refresh.
            for adaptive_refresh in [false, true] {
                let options = OnePassOptions { adaptive_refresh, ..Default::default() };
                results.push(run_onepass_with(&model, &dg, &mem, &options).unwrap());
            }
            for r in &results {
                assert_eq!(r.operator_bytes, expected, "{normalization:?}");
            }
        }
    }

    #[test]
    fn runs_are_counted_per_algorithm_on_the_calling_thread() {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(20, 40, 4),
            &StreamConfig { deltas: 1, ..Default::default() },
            2,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig::paper_default(4)).unwrap();
        let mem = MemoryModel::default();
        let before = runs_on_this_thread();
        run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        run_onepass_with(&model, &dg, &mem, &OnePassOptions::default()).unwrap();
        let after = runs_on_this_thread();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [2, 0, 1]);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Recompute.label(), "Re-Algorithm");
        assert_eq!(Algorithm::Incremental.label(), "Inc-Algorithm");
        assert_eq!(Algorithm::OnePass.to_string(), "P-Algorithm");
        assert_eq!(ALL_ALGORITHMS.len(), 3);
    }
}
