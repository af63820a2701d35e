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
//!
//! Every executor walks the snapshots once through
//! [`DynamicGraph::stream`] and lends each executed snapshot to a caller
//! sink as a [`Step`] ([`stream`]). The host holds the current snapshot and
//! the executor's resident state (for one-pass, what the accelerator holds
//! on chip: the operator, the dense cache and the RNN state), never the
//! whole stream. [`run`] and [`run_onepass_with`] collect every step into
//! an [`ExecutionResult`]; [`run_costs`] keeps only the costs.
//!
//! A sink that reads only costs ([`SinkReads::Costs`]) gets every value no
//! cost depends on charged from exact count functions instead of computed:
//! the RNN (its counts depend on shapes only, and its state never feeds
//! back into the GNN) and the GNN outputs (SpMM counts follow the
//! operator's row lengths, GEMM counts the shapes). What decides a count
//! is still computed: each executor's operator, the incremental
//! executor's affected-row traversal, and the one-pass `ΔÂ`, `ΔA_C`, `ΔP`
//! and resident `Y`. Every cost stays bit-identical (DESIGN.md §6).

mod incremental;
mod onepass;
mod recompute;

pub use onepass::{CombinationOrder, OnePassOptions};

use std::cell::Cell;

use idgnn_graph::DynamicGraph;
use idgnn_sparse::{CsrMatrix, DenseMatrix};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
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

/// What a [`stream`] sink reads of each [`Step`], which decides whether
/// the executor evaluates the GNN outputs and the RNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkReads {
    /// Costs, the operator `Â^t` and (one-pass transitions) `ΔÂ`, but
    /// neither `Z^t` nor the RNN state. GNN phases whose values no cost
    /// depends on are charged from their count functions
    /// ([`ops::spmm_stats`](idgnn_sparse::ops::spmm_stats),
    /// [`OpStats::gemm`](idgnn_sparse::OpStats::gemm),
    /// [`GcnStack::layer_ops`](crate::GcnStack::layer_ops)), RNN-A and
    /// RNN-B from [`DgnnModel::rnn_phase_ops`]; none of them is evaluated,
    /// and every [`Step::z`] and [`Step::state`] is `None`. The costs equal
    /// an executed run's bit for bit.
    Costs,
    /// Everything, `Z^t` and the RNN state included: the GNN and the RNN
    /// are executed.
    Outputs,
}

/// One executed snapshot, lent by [`stream`] to its sink.
///
/// Everything is borrowed from the executor's resident state and is
/// overwritten by the next snapshot; a sink that keeps something clones it.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// Time index `t` of the snapshot (`0` for `G^1`).
    pub t: usize,
    /// GNN output `Z^t` (`X_C^t` for the fused path); `None` on a
    /// [`SinkReads::Costs`] stream, which never computes it.
    pub z: Option<&'a DenseMatrix>,
    /// LSTM state after consuming `Z^t`; `None` on a [`SinkReads::Costs`]
    /// stream, which never computes it.
    pub state: Option<&'a LstmState>,
    /// Costs of the snapshot.
    pub cost: &'a SnapshotCost,
    /// The snapshot's normalised operator `Â^t`.
    pub operator: &'a CsrMatrix,
    /// The one-pass executor's DIU output `ΔÂ = Â^t − Â^{t−1}`, exact
    /// zeros dropped, on every transition (delta path and adaptive refresh
    /// alike). `None` for `t = 0` and for the other algorithms.
    pub delta: Option<&'a CsrMatrix>,
}

/// Functional output for one snapshot: the GNN output features and the LSTM
/// state, as [`run`] collects them from each [`Step`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutput {
    /// GNN output `Z^t` (`X_C^t` for the fused path).
    pub z: DenseMatrix,
    /// LSTM state after consuming `Z^t`.
    pub state: LstmState,
}

/// Execution record over a dynamic graph, collected from the [`Step`]s of
/// one [`stream`]. The costs are a few words per phase; the outputs are
/// three `V`-row matrices per snapshot, so a long stream should either use
/// [`run_costs`] or read them from [`stream`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Per-snapshot functional outputs, in time order. Empty when collected
    /// by [`run_costs`].
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

    /// The final hidden state, if any snapshot was processed and the
    /// outputs were kept.
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
        n[i] += 1;
        runs.set(n);
    });
}

/// Runs `algorithm` over the dynamic graph in one pass, handing each
/// executed snapshot to `sink` in time order. `onepass` configures the
/// one-pass executor and is ignored by the other algorithms; `reads` says
/// whether the sink reads `Z^t` and the RNN state, and so whether the GNN
/// outputs and the RNN are evaluated or only counted.
///
/// The executor holds the current snapshot of [`DynamicGraph::stream`] and
/// its own resident state; nothing per snapshot outlives the `sink` call
/// unless the sink copies it.
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts. Steps before
/// the failing snapshot have already reached the sink.
pub fn stream(
    algorithm: Algorithm,
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    onepass: &OnePassOptions,
    reads: SinkReads,
    mut sink: impl FnMut(Step<'_>),
) -> Result<()> {
    count_run(algorithm);
    let state = match reads {
        SinkReads::Outputs => {
            Some(LstmState::zeros(dg.initial().num_vertices(), model.dims().rnn_hidden_dim))
        }
        SinkReads::Costs => None,
    };
    match algorithm {
        Algorithm::Recompute => recompute::run(model, dg, mem, state, &mut sink),
        Algorithm::Incremental => incremental::run(model, dg, mem, state, &mut sink),
        Algorithm::OnePass => onepass::run(model, dg, mem, onepass, state, &mut sink),
    }
}

/// Charges RNN-A and RNN-B for consuming the `v × C` GNN output into
/// `cost`: the one RNN charge of every executor. With `executed` (the sink
/// reads outputs) the cell consumes `Z` and the state advances; without it
/// the cell's count function ([`DgnnModel::rnn_phase_ops`]) is charged and
/// nothing is evaluated. Both give the same counts, and the traffic depends
/// on shapes only: the state spills iff it does not fit on chip next to `Z`.
fn charge_rnn(
    model: &DgnnModel,
    v: usize,
    executed: Option<(&DenseMatrix, &mut LstmState)>,
    mem: &MemoryModel,
    cost: &mut SnapshotCost,
) -> Result<()> {
    let dims = model.dims();
    let (ops_a, ops_b) = match executed {
        Some((z, state)) => {
            let (pre, ops_a) = model.rnn_a(&state.h)?;
            let (next, ops_b) = model.rnn_b(z, &pre, state)?;
            *state = next;
            (ops_a, ops_b)
        }
        None => model.rnn_phase_ops(v),
    };
    // `H` and `c` are each `V × R`.
    let h_bytes = dense_bytes(v, dims.rnn_hidden_dim);
    let spilled = !mem.fits(2 * h_bytes + dense_bytes(v, dims.gnn_out_dim));
    let mut ta = Traffic::none();
    let mut tb = Traffic::none();
    if spilled {
        ta.read(DataClass::OutputFeature, h_bytes);
        tb.read(DataClass::OutputFeature, h_bytes);
        tb.write(DataClass::OutputFeature, 2 * h_bytes);
    }
    cost.push(Phase::RnnA, ops_a, ta);
    cost.push(Phase::RnnB, ops_b, tb);
    Ok(())
}

/// Collects the steps of one [`stream`], with their outputs iff the sink
/// reads them.
fn collect_steps(
    algorithm: Algorithm,
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    onepass: &OnePassOptions,
    reads: SinkReads,
) -> Result<ExecutionResult> {
    let n = dg.num_snapshots();
    let mut result = ExecutionResult {
        outputs: Vec::with_capacity(if reads == SinkReads::Outputs { n } else { 0 }),
        costs: Vec::with_capacity(n),
        operator_bytes: Vec::with_capacity(n),
    };
    stream(algorithm, model, dg, mem, onepass, reads, |step| {
        if let (Some(z), Some(state)) = (step.z, step.state) {
            result.outputs.push(SnapshotOutput { z: z.clone(), state: state.clone() });
        }
        result.costs.push(step.cost.clone());
        result.operator_bytes.push(step.operator.csr_bytes());
    })?;
    Ok(result)
}

/// Runs `algorithm` over the whole dynamic graph and collects every step,
/// outputs included.
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
    collect_steps(algorithm, model, dg, mem, &OnePassOptions::default(), SinkReads::Outputs)
}

/// As [`run`], but computes no outputs: the result holds only the costs
/// and operator sizes, and its `outputs` stay empty. The GNN outputs and
/// the RNN are charged from their counts and never evaluated
/// ([`SinkReads::Costs`]); the costs equal [`run`]'s bit for bit. For
/// callers that account ops and traffic, so that neither the host's time
/// nor its memory goes to values no one reads.
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts.
pub fn run_costs(
    algorithm: Algorithm,
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
) -> Result<ExecutionResult> {
    collect_steps(algorithm, model, dg, mem, &OnePassOptions::default(), SinkReads::Costs)
}

/// Runs the one-pass algorithm with explicit options (strategy ablations)
/// and collects every step, outputs included.
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
    collect_steps(Algorithm::OnePass, model, dg, mem, options, SinkReads::Outputs)
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

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn streamed_steps_equal_the_collected_run_bit_for_bit() {
        use idgnn_sparse::{parallel::kernel_scope, Parallelism};
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(40, 120, 6),
            &StreamConfig { deltas: 4, dissimilarity: 0.1, ..Default::default() },
            5,
        )
        .unwrap();
        let mem = MemoryModel::default();
        let refresh = |adaptive_refresh| OnePassOptions { adaptive_refresh, ..Default::default() };
        let cases = [
            (Algorithm::Recompute, OnePassOptions::default()),
            (Algorithm::Incremental, OnePassOptions::default()),
            (Algorithm::OnePass, refresh(false)),
            (Algorithm::OnePass, refresh(true)),
        ];
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
            for (algorithm, options) in cases {
                let reference = {
                    let _serial = kernel_scope(Parallelism::new(1));
                    match algorithm {
                        Algorithm::OnePass => run_onepass_with(&model, &dg, &mem, &options),
                        other => run(other, &model, &dg, &mem),
                    }
                    .unwrap()
                };
                if algorithm == Algorithm::OnePass {
                    // Refresh off takes the delta path on every transition;
                    // refresh on takes the refresh (no AComb work) on some.
                    let refreshed = reference.costs[1..]
                        .iter()
                        .filter(|c| c.ops_of(crate::Phase::AComb).total() == 0)
                        .count();
                    assert_eq!(refreshed > 0, options.adaptive_refresh, "{normalization:?}");
                }
                for threads in [1, 4] {
                    let _scope = kernel_scope(Parallelism::new(threads));
                    let mut seen = 0;
                    stream(algorithm, &model, &dg, &mem, &options, SinkReads::Outputs, |step| {
                        let case = format!("{algorithm} {normalization:?} {options:?} t={seen}");
                        assert_eq!(step.t, seen, "{case}");
                        let out = &reference.outputs[step.t];
                        let state = step.state.expect("an Outputs stream lends the state");
                        let z = step.z.expect("an Outputs stream lends Z");
                        assert_eq!(bits(z), bits(&out.z), "{case}");
                        assert_eq!(bits(&state.h), bits(&out.state.h), "{case}");
                        assert_eq!(bits(&state.c), bits(&out.state.c), "{case}");
                        assert_eq!(step.cost, &reference.costs[step.t], "{case}");
                        assert_eq!(
                            step.operator.csr_bytes(),
                            reference.operator_bytes[step.t],
                            "{case}"
                        );
                        assert_eq!(
                            step.delta.is_some(),
                            algorithm == Algorithm::OnePass && step.t > 0,
                            "{case}"
                        );
                        seen += 1;
                    })
                    .unwrap();
                    assert_eq!(seen, dg.num_snapshots());
                }
            }
        }
    }

    #[test]
    fn costs_only_runs_charge_exactly_what_executed_runs_do() {
        use idgnn_graph::GraphDelta;
        use idgnn_sparse::{parallel::kernel_scope, Parallelism};
        let mut dg = generate_dynamic_graph(
            &GraphConfig::power_law(40, 120, 6),
            &StreamConfig { deltas: 4, dissimilarity: 0.1, ..Default::default() },
            5,
        )
        .unwrap();
        // A last transition isolates the vertex of least degree, so the raw
        // operator has an empty row: SpMM charges it no multiplies and no
        // `(nnz − 1)⁺` adds.
        let last = dg.materialize().unwrap().pop().unwrap();
        let adj = last.adjacency();
        let isolated = (0..adj.rows()).min_by_key(|&r| adj.row_nnz(r)).unwrap();
        let delta = adj
            .row_indices(isolated)
            .iter()
            .fold(GraphDelta::builder(), |d, &c| d.remove_edge(isolated, c))
            .build();
        dg.push_delta(delta);
        let last = dg.materialize().unwrap().pop().unwrap();
        assert_eq!(Normalization::Raw.apply(last.adjacency()).row_nnz(isolated), 0);

        let onepass = |order, adaptive_refresh| OnePassOptions {
            order,
            adaptive_refresh,
            ..Default::default()
        };
        let mut cases = vec![
            (Algorithm::Recompute, OnePassOptions::default()),
            (Algorithm::Incremental, OnePassOptions::default()),
            (Algorithm::OnePass, OnePassOptions::default()),
        ];
        // K = 6 > C = 5 makes `Auto` combination-first, so both orders are
        // forced, each on the delta path and under adaptive refresh.
        for order in [CombinationOrder::AggregationFirst, CombinationOrder::CombinationFirst] {
            for adaptive_refresh in [false, true] {
                cases.push((Algorithm::OnePass, onepass(order, adaptive_refresh)));
            }
        }
        // Ample and zero on-chip memory: the RNN state stays resident or
        // spills, so both branches of the RNN traffic are compared.
        let memories = [MemoryModel::default(), MemoryModel { onchip_bytes: 0 }];
        let normalizations =
            [Normalization::Symmetric, Normalization::RowStochastic, Normalization::Raw];
        for activation in [crate::Activation::Relu, crate::Activation::Linear] {
            for rnn_kernel in [crate::RnnKernelKind::Lstm, crate::RnnKernelKind::Gru] {
                for normalization in normalizations {
                    // C = 5 ≠ R = 4, so a count that swapped them would show.
                    let model = DgnnModel::from_config(&ModelConfig {
                        input_dim: 6,
                        gnn_hidden: 5,
                        gnn_layers: 3,
                        rnn_hidden: 4,
                        activation,
                        normalization,
                        seed: 3,
                        rnn_kernel,
                    })
                    .unwrap();
                    for &(algorithm, options) in &cases {
                        for mem in &memories {
                            for threads in [1, 4] {
                                let _scope = kernel_scope(Parallelism::new(threads));
                                let case = format!(
                                    "{algorithm} {activation:?} {rnn_kernel:?} \
                                     {normalization:?} {options:?} {mem:?} threads={threads}"
                                );
                                let executed = collect_steps(
                                    algorithm,
                                    &model,
                                    &dg,
                                    mem,
                                    &options,
                                    SinkReads::Outputs,
                                )
                                .unwrap();
                                assert_eq!(executed.outputs.len(), dg.num_snapshots(), "{case}");
                                assert!(
                                    executed.costs.iter().all(|c| c.rnn_ops().total() > 0),
                                    "{case}"
                                );
                                let mut counted = ExecutionResult {
                                    outputs: Vec::new(),
                                    costs: Vec::new(),
                                    operator_bytes: Vec::new(),
                                };
                                let reads = SinkReads::Costs;
                                stream(algorithm, &model, &dg, mem, &options, reads, |step| {
                                    assert!(step.z.is_none(), "{case} t={}", step.t);
                                    assert!(step.state.is_none(), "{case} t={}", step.t);
                                    counted.costs.push(step.cost.clone());
                                    counted.operator_bytes.push(step.operator.csr_bytes());
                                })
                                .unwrap();
                                let expected = ExecutionResult { outputs: Vec::new(), ..executed };
                                assert_eq!(counted, expected, "{case}");
                                if options == OnePassOptions::default() {
                                    let costs = run_costs(algorithm, &model, &dg, mem).unwrap();
                                    assert_eq!(costs, expected, "{case}");
                                }
                            }
                        }
                    }
                }
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
        run_costs(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let options = OnePassOptions::default();
        stream(Algorithm::OnePass, &model, &dg, &mem, &options, SinkReads::Costs, |_| {}).unwrap();
        let after = runs_on_this_thread();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [2, 1, 2]);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Recompute.label(), "Re-Algorithm");
        assert_eq!(Algorithm::Incremental.label(), "Inc-Algorithm");
        assert_eq!(Algorithm::OnePass.to_string(), "P-Algorithm");
        assert_eq!(ALL_ALGORITHMS.len(), 3);
    }
}
