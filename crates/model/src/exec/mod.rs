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
//! One walk over the snapshots serves every execution that reads the same
//! stream ([`stream_lanes`]). The walk applies each delta once
//! ([`DynamicGraph::stream`]), normalises `Â^t` once and, when a lane reads
//! it, subtracts `ΔÂ = Â^t − Â^{t−1}` once; it lends them to its *lanes*
//! (an algorithm with its [`MemoryModel`] and [`OnePassOptions`], see
//! [`Lane`]), which advance in lockstep, one transition at a time. Each
//! lane keeps only its own resident state: Recompute its RNN state,
//! Incremental its layer outputs and RNN state, one-pass what the
//! accelerator holds on chip (the fused weight, the dense cache `Y`, the
//! pre-activation and the RNN state). Each lane lends each executed
//! snapshot to the caller's sink as a [`Step`]. While the lanes advance,
//! the host holds the current snapshot, both operators, `ΔÂ`, the one-pass
//! `ΔX_0` and the lanes' resident states, never the whole stream.
//! [`stream`] is the one-lane walk; [`run`] and [`run_onepass_with`]
//! collect its steps into an [`ExecutionResult`], and [`run_costs`] keeps
//! only the costs.
//!
//! A sink that reads only costs ([`SinkReads::Costs`]) gets every value no
//! cost depends on charged from exact count functions instead of computed:
//! the RNN (its counts depend on shapes only, and its state never feeds
//! back into the GNN) and the GNN outputs (SpMM counts follow the
//! operator's row lengths, GEMM counts the shapes). What decides a count
//! is still computed: the operator, `ΔÂ`, the incremental lane's
//! affected-row traversal, and the one-pass `ΔA_C`, `ΔP` and resident `Y`.
//! Every cost stays bit-identical (DESIGN.md §6).

mod incremental;
mod onepass;
mod recompute;

pub use onepass::{CombinationOrder, OnePassOptions};

use std::cell::{Cell, OnceCell};

use idgnn_graph::{DynamicGraph, GraphDelta, GraphSnapshot, Transition};
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix};

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
    /// ([`ops::spmm_stats`],
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

/// One executed snapshot, lent by [`stream`] or [`stream_lanes`] to its
/// sink.
///
/// Everything is borrowed from the walk (operators) or the lane's resident
/// state (costs and outputs) and is overwritten by the next snapshot; a sink
/// that keeps something clones it.
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
    /// The DIU output `ΔÂ = Â^t − Â^{t−1}`, exact zeros dropped, on every
    /// transition of a one-pass lane (delta path and adaptive refresh
    /// alike). The walk builds it once for all lanes that read it; only
    /// one-pass lanes lend it, so it is `None` for `t = 0` and on Recompute
    /// and Incremental lanes, even when the same walk built it.
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Appends one step: its costs and operator size, and its outputs when
    /// the step lends them (a [`SinkReads::Outputs`] walk).
    pub fn record(&mut self, step: &Step<'_>) {
        if let (Some(z), Some(state)) = (step.z, step.state) {
            self.outputs.push(SnapshotOutput { z: z.clone(), state: state.clone() });
        }
        self.costs.push(step.cost.clone());
        self.operator_bytes.push(step.operator.csr_bytes());
    }

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
    /// Executions per algorithm in [`ALL_ALGORITHMS`] order, then walks.
    static RUNS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
}

/// Executions started on the calling thread so far, per algorithm in
/// [`ALL_ALGORITHMS`] order; each lane of a walk is one execution. A test
/// probe: the figure grids assert with it that they execute each
/// (workload, algorithm) pair once.
#[doc(hidden)]
pub fn runs_on_this_thread() -> [u64; 3] {
    let [recompute, incremental, onepass, _] = RUNS.with(Cell::get);
    [recompute, incremental, onepass]
}

/// Snapshot walks ([`stream_lanes`], and so [`stream`]) started on the
/// calling thread so far, whatever their lane count. The test probe next to
/// [`runs_on_this_thread`]: the figure grids assert with it that they walk
/// each workload once.
#[doc(hidden)]
pub fn walks_on_this_thread() -> u64 {
    RUNS.with(Cell::get)[3]
}

fn count_on_this_thread(i: usize) {
    RUNS.with(|runs| {
        let mut n = runs.get();
        n[i] += 1;
        runs.set(n);
    });
}

fn count_run(algorithm: Algorithm) {
    count_on_this_thread(match algorithm {
        Algorithm::Recompute => 0,
        Algorithm::Incremental => 1,
        Algorithm::OnePass => 2,
    });
}

/// One execution of a shared walk ([`stream_lanes`]): which algorithm runs,
/// the on-chip memory its spill decisions assume, and the one-pass options
/// (ignored by the other algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// The execution algorithm.
    pub algorithm: Algorithm,
    /// The memory model the lane's traffic is charged under.
    pub mem: MemoryModel,
    /// One-pass executor options; only [`Algorithm::OnePass`] reads them.
    pub onepass: OnePassOptions,
}

impl Lane {
    /// A lane of `algorithm` under `mem` with the default one-pass options.
    pub fn new(algorithm: Algorithm, mem: MemoryModel) -> Self {
        Self { algorithm, mem, onepass: OnePassOptions::default() }
    }
}

/// One transition `G^{t−1} → G^t` of a walk: what the walk built once and
/// lends to every lane.
pub(crate) struct Frame<'a> {
    /// The new snapshot `G^t`.
    pub(crate) snapshot: &'a GraphSnapshot,
    /// The delta that turned `G^{t−1}` into `snapshot`.
    pub(crate) delta: &'a GraphDelta,
    /// The DIU's `ΔX_0 = X_0^t − X_0^{t−1}` (Eq. 11), built iff the walk
    /// has a one-pass lane, which alone reads it.
    pub(crate) feature_delta: Option<DenseMatrix>,
    /// The replaced snapshot's operator `Â^{t−1}`.
    pub(crate) prev_operator: &'a CsrMatrix,
    /// The new snapshot's operator `Â^t`.
    pub(crate) operator: &'a CsrMatrix,
    /// `ΔÂ`, built by the first lane that reads it.
    operator_delta: OnceCell<CsrMatrix>,
}

impl Frame<'_> {
    /// `ΔÂ = Â^t − Â^{t−1}`, exact zeros dropped: the walk's one
    /// subtraction per transition, made when a lane first reads it, so a
    /// walk whose lanes never read it never builds it.
    pub(crate) fn operator_delta(&self) -> Result<&CsrMatrix> {
        if let Some(d_op) = self.operator_delta.get() {
            return Ok(d_op);
        }
        let d_op = ops::sp_sub_pruned(self.operator, self.prev_operator)?;
        Ok(self.operator_delta.get_or_init(|| d_op))
    }
}

/// A lane's executor and resident state.
enum Executor {
    Recompute(recompute::Recompute),
    Incremental(incremental::Incremental),
    OnePass(Box<onepass::OnePass>),
}

impl Executor {
    /// Starts `lane` on snapshot 0, whose operator is `a0`.
    fn start(
        model: &DgnnModel,
        lane: &Lane,
        reads: SinkReads,
        snap: &GraphSnapshot,
        a0: &CsrMatrix,
    ) -> Result<Self> {
        count_run(lane.algorithm);
        let state = match reads {
            SinkReads::Outputs => {
                Some(LstmState::zeros(snap.num_vertices(), model.dims().rnn_hidden_dim))
            }
            SinkReads::Costs => None,
        };
        let mem = lane.mem;
        Ok(match lane.algorithm {
            Algorithm::Recompute => {
                Executor::Recompute(recompute::Recompute::start(model, mem, state, snap, a0)?)
            }
            Algorithm::Incremental => Executor::Incremental(incremental::Incremental::start(
                model, mem, state, snap, a0,
            )?),
            Algorithm::OnePass => Executor::OnePass(Box::new(onepass::OnePass::start(
                model,
                mem,
                lane.onepass,
                state,
                snap,
                a0,
            )?)),
        })
    }

    /// Advances the lane by the transition `frame`.
    fn advance(&mut self, model: &DgnnModel, frame: &Frame<'_>) -> Result<()> {
        match self {
            Executor::Recompute(lane) => lane.advance(model, frame.snapshot, frame.operator),
            Executor::Incremental(lane) => lane.advance(model, frame),
            Executor::OnePass(lane) => lane.advance(model, frame),
        }
    }

    /// The lane's last executed snapshot as a [`Step`]; `delta` is the
    /// walk's `ΔÂ`, lent only by one-pass lanes.
    fn step<'s>(
        &'s self,
        t: usize,
        operator: &'s CsrMatrix,
        delta: Option<&'s CsrMatrix>,
    ) -> Step<'s> {
        let ((z, state), cost, delta) = match self {
            Executor::Recompute(lane) => (lane.outputs(), &lane.cost, None),
            Executor::Incremental(lane) => (lane.outputs(), &lane.cost, None),
            Executor::OnePass(lane) => (lane.outputs(), &lane.cost, delta),
        };
        Step { t, z, state, cost, operator, delta }
    }
}

/// Runs every lane over one walk of the dynamic graph, handing each lane's
/// executed snapshots to `sink` as `(lane index, step)`: for each snapshot,
/// in time order, the lanes in `lanes` order. `reads` says whether the sink
/// reads `Z^t` and the RNN state, and so whether the lanes evaluate the GNN
/// outputs and the RNN or only count them.
///
/// The walk applies each delta, normalises each `Â^t` and, if a lane reads
/// them, subtracts each `ΔÂ` and builds each one-pass `ΔX_0` once for all
/// lanes. Every lane's steps equal a solo [`stream`] of that lane bit for
/// bit.
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts. A delta
/// conflict stops every lane at the same transition; the steps before it
/// have already reached the sink.
pub fn stream_lanes(
    model: &DgnnModel,
    dg: &DynamicGraph,
    lanes: &[Lane],
    reads: SinkReads,
    mut sink: impl FnMut(usize, Step<'_>),
) -> Result<()> {
    count_on_this_thread(3);
    let normalization = model.normalization();
    let reads_feature_delta = lanes.iter().any(|lane| lane.algorithm == Algorithm::OnePass);
    let mut snaps = dg.stream();
    let mut executors = Vec::with_capacity(lanes.len());
    // The transition into the current snapshot and the replaced snapshot's
    // operator; `None` at `t = 0`.
    let mut replaced: Option<(Transition<'_>, CsrMatrix)> = None;
    loop {
        let t = snaps.index();
        let operator = normalization.apply(snaps.current().adjacency());
        match replaced.take() {
            None => {
                for (i, lane) in lanes.iter().enumerate() {
                    let executor = Executor::start(model, lane, reads, snaps.current(), &operator)?;
                    sink(i, executor.step(t, &operator, None));
                    executors.push(executor);
                }
            }
            Some((Transition { previous, delta }, prev_operator)) => {
                // `ΔX_0` is all the lanes read of the replaced snapshot, so
                // it drops before they advance.
                let feature_delta =
                    if reads_feature_delta { Some(delta.feature_delta(&previous)?) } else { None };
                drop(previous);
                let frame = Frame {
                    snapshot: snaps.current(),
                    delta,
                    feature_delta,
                    prev_operator: &prev_operator,
                    operator: &operator,
                    operator_delta: OnceCell::new(),
                };
                for (i, executor) in executors.iter_mut().enumerate() {
                    executor.advance(model, &frame)?;
                    sink(i, executor.step(t, &operator, frame.operator_delta.get()));
                }
            }
        }
        // Only the current snapshot and its operator are read next; the
        // replaced ones have dropped before the next delta is applied.
        match snaps.next() {
            None => return Ok(()),
            Some(transition) => replaced = Some((transition?, operator)),
        }
    }
}

/// Runs `algorithm` over the dynamic graph in one pass, handing each
/// executed snapshot to `sink` in time order: the one-lane
/// [`stream_lanes`]. `onepass` configures the one-pass executor and is
/// ignored by the other algorithms; `reads` says whether the sink reads
/// `Z^t` and the RNN state, and so whether the GNN outputs and the RNN are
/// evaluated or only counted.
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
    let lane = Lane { algorithm, mem: *mem, onepass: *onepass };
    stream_lanes(model, dg, &[lane], reads, |_, step| sink(step))
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
    stream(algorithm, model, dg, mem, onepass, reads, |step| result.record(&step))?;
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
        // K = 6 > C = 5 makes `Auto` combination-first; the delta path also
        // runs aggregation-first.
        let agg_first = OnePassOptions {
            order: CombinationOrder::AggregationFirst,
            ..refresh(false)
        };
        let cases = [
            (Algorithm::Recompute, OnePassOptions::default()),
            (Algorithm::Incremental, OnePassOptions::default()),
            (Algorithm::OnePass, refresh(false)),
            (Algorithm::OnePass, agg_first),
            (Algorithm::OnePass, refresh(true)),
        ];
        // Every ΔA_C arm: L = 1 (ΔA itself), Eq. 15 at L = 2 and 3, and the
        // general expansion at L = 4 and for the asymmetric operator.
        let models = [1, 2, 3, 4].into_iter().flat_map(|gnn_layers| {
            [Normalization::Symmetric, Normalization::RowStochastic].map(|normalization| {
                DgnnModel::from_config(&ModelConfig {
                    input_dim: 6,
                    gnn_hidden: 5,
                    gnn_layers,
                    rnn_hidden: 4,
                    activation: crate::Activation::Relu,
                    normalization,
                    seed: 3,
                    rnn_kernel: Default::default(),
                })
                .unwrap()
            })
        });
        for model in models {
            let normalization = model.normalization();
            let layers = model.dims().gnn_layers;
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
                    // At L = 3, refresh off takes the delta path on every
                    // transition; refresh on takes the refresh (no AComb
                    // work) on some.
                    let refreshed = reference.costs[1..]
                        .iter()
                        .filter(|c| c.ops_of(crate::Phase::AComb).total() == 0)
                        .count();
                    if layers == 3 {
                        assert_eq!(refreshed > 0, options.adaptive_refresh, "{normalization:?}");
                    }
                }
                for threads in [1, 4] {
                    let _scope = kernel_scope(Parallelism::new(threads));
                    let mut seen = 0;
                    stream(algorithm, &model, &dg, &mem, &options, SinkReads::Outputs, |step| {
                        let case =
                            format!("{algorithm} {normalization:?} L={layers} {options:?} t={seen}");
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

    /// Bits of a CSR matrix: its structure and its values' bit patterns.
    type CsrBits = (Vec<usize>, Vec<usize>, Vec<u32>);

    fn csr_bits(m: &CsrMatrix) -> CsrBits {
        let values = m.values().iter().map(|v| v.to_bits()).collect();
        (m.indptr().to_vec(), m.indices().to_vec(), values)
    }

    /// Everything a [`Step`] lends, owned, with every float as its bits.
    #[derive(Debug, PartialEq)]
    struct OwnedStep {
        t: usize,
        cost: SnapshotCost,
        operator: CsrBits,
        operator_bytes: u64,
        delta: Option<CsrBits>,
        z: Option<Vec<u32>>,
        state: Option<(Vec<u32>, Vec<u32>)>,
    }

    impl OwnedStep {
        fn of(step: &Step<'_>) -> Self {
            Self {
                t: step.t,
                cost: step.cost.clone(),
                operator: csr_bits(step.operator),
                operator_bytes: step.operator.csr_bytes(),
                delta: step.delta.map(csr_bits),
                z: step.z.map(bits),
                state: step.state.map(|s| (bits(&s.h), bits(&s.c))),
            }
        }
    }

    /// The steps of a solo [`stream`] of `lane`, and its error if any.
    fn solo_steps(
        model: &DgnnModel,
        dg: &DynamicGraph,
        lane: &Lane,
        reads: SinkReads,
    ) -> (Vec<OwnedStep>, Option<String>) {
        let mut steps = Vec::new();
        let (algorithm, mem, onepass) = (lane.algorithm, lane.mem, lane.onepass);
        let outcome = stream(algorithm, model, dg, &mem, &onepass, reads, |step| {
            steps.push(OwnedStep::of(&step));
        });
        (steps, outcome.err().map(|e| format!("{e:?}")))
    }

    #[test]
    fn lockstep_lanes_equal_solo_streams_bit_for_bit() {
        use idgnn_graph::GraphDelta;
        use idgnn_sparse::{parallel::kernel_scope, Parallelism};
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(160, 480, 6),
            &StreamConfig { deltas: 4, dissimilarity: 0.1, ..Default::default() },
            5,
        )
        .unwrap();
        // The same stream with a delta after the third transition that
        // re-adds an edge `G^3` already has, and one more delta behind it
        // that no lane may reach.
        let mut conflicting = DynamicGraph::new(dg.initial().clone());
        for delta in &dg.deltas()[..3] {
            conflicting.push_delta(delta.clone());
        }
        let g3 = conflicting.materialize().unwrap().pop().unwrap();
        let u = (0..g3.num_vertices()).find(|&u| g3.adjacency().row_nnz(u) > 0).unwrap();
        let existing = g3.adjacency().row_indices(u)[0];
        conflicting.push_delta(GraphDelta::builder().add_edge(u, existing).build());
        conflicting.push_delta(dg.deltas()[3].clone());

        let mem = MemoryModel::default();
        let onepass = |order, adaptive_refresh| Lane {
            onepass: OnePassOptions { order, adaptive_refresh, ..Default::default() },
            ..Lane::new(Algorithm::OnePass, mem)
        };
        // All three algorithms, one-pass with the refresh on and off and in
        // both combination orders (K = 6 > C = 5 makes `Auto`
        // combination-first), and a lane whose caches spill, in one walk.
        let lanes = [
            Lane::new(Algorithm::Recompute, mem),
            Lane::new(Algorithm::Incremental, mem),
            onepass(CombinationOrder::Auto, true),
            onepass(CombinationOrder::Auto, false),
            onepass(CombinationOrder::AggregationFirst, false),
            Lane::new(Algorithm::Incremental, MemoryModel { onchip_bytes: 0 }),
        ];
        // Every ΔA_C arm the row sink serves: L = 1, Eq. 15 at L = 2 and 3,
        // the general expansion at L = 4 and for the asymmetric operator.
        let shapes = [
            (Normalization::Symmetric, 1),
            (Normalization::Symmetric, 2),
            (Normalization::Symmetric, 3),
            (Normalization::Symmetric, 4),
            (Normalization::RowStochastic, 3),
        ];
        for (normalization, layers) in shapes {
            let model = DgnnModel::from_config(&ModelConfig {
                input_dim: 6,
                gnn_hidden: 5,
                gnn_layers: layers,
                rnn_hidden: 4,
                activation: crate::Activation::Relu,
                normalization,
                seed: 3,
                rnn_kernel: Default::default(),
            })
            .unwrap();
            for (graph, snapshots) in [(&dg, 5), (&conflicting, 4)] {
                for reads in [SinkReads::Costs, SinkReads::Outputs] {
                    for threads in [1, 4] {
                        let _scope = kernel_scope(Parallelism::new(threads));
                        let case = format!(
                            "{:?} L={layers} {reads:?} threads={threads} snapshots={snapshots}",
                            model.normalization()
                        );
                        let mut shared: Vec<Vec<OwnedStep>> = lanes.iter().map(|_| Vec::new()).collect();
                        let (walks, runs) = (walks_on_this_thread(), runs_on_this_thread());
                        let outcome = stream_lanes(&model, graph, &lanes, reads, |lane, step| {
                            shared[lane].push(OwnedStep::of(&step));
                        });
                        assert_eq!(walks_on_this_thread() - walks, 1, "{case}");
                        let started: Vec<u64> =
                            runs_on_this_thread().iter().zip(runs).map(|(a, b)| a - b).collect();
                        assert_eq!(started, [1, 2, 3], "{case}");
                        let error = outcome.err().map(|e| format!("{e:?}"));
                        assert_eq!(error.is_some(), snapshots < graph.num_snapshots(), "{case}");
                        for (lane, steps) in lanes.iter().zip(&shared) {
                            let (solo, solo_error) = solo_steps(&model, graph, lane, reads);
                            assert_eq!(steps.len(), snapshots, "{case} {lane:?}");
                            assert_eq!(steps, &solo, "{case} {lane:?}");
                            assert_eq!(error, solo_error, "{case} {lane:?}");
                            // At L = 3, refresh on takes the refresh (no AComb
                            // work) on some transition; refresh off never does.
                            let refreshed = steps[1..]
                                .iter()
                                .any(|step| step.cost.ops_of(crate::Phase::AComb).total() == 0);
                            if lane.algorithm == Algorithm::OnePass && layers == 3 {
                                assert_eq!(refreshed, lane.onepass.adaptive_refresh, "{case}");
                            }
                            for step in steps {
                                let executed = reads == SinkReads::Outputs;
                                assert_eq!(step.z.is_some(), executed, "{case} {lane:?}");
                                assert_eq!(step.state.is_some(), executed, "{case} {lane:?}");
                                let one_pass = lane.algorithm == Algorithm::OnePass;
                                assert_eq!(step.delta.is_some(), one_pass && step.t > 0, "{case}");
                            }
                        }
                    }
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
        // Every ΔA_C arm the row sink serves: L = 1 (ΔA itself), Eq. 15 at
        // L = 2 and 3, the general expansion at L = 4 and, at every L, for
        // the asymmetric row-stochastic operator.
        let shapes: Vec<(Normalization, usize)> =
            [Normalization::Symmetric, Normalization::RowStochastic, Normalization::Raw]
                .into_iter()
                .flat_map(|normalization| [1, 2, 3, 4].map(|layers| (normalization, layers)))
                .collect();
        for activation in [crate::Activation::Relu, crate::Activation::Linear] {
            for rnn_kernel in [crate::RnnKernelKind::Lstm, crate::RnnKernelKind::Gru] {
                for &(normalization, gnn_layers) in &shapes {
                    // C = 5 ≠ R = 4, so a count that swapped them would show.
                    let model = DgnnModel::from_config(&ModelConfig {
                        input_dim: 6,
                        gnn_hidden: 5,
                        gnn_layers,
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
                                     {normalization:?} L={gnn_layers} {options:?} {mem:?} \
                                     threads={threads}"
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
        let (before, walks) = (runs_on_this_thread(), walks_on_this_thread());
        run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        run_onepass_with(&model, &dg, &mem, &OnePassOptions::default()).unwrap();
        run_costs(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let options = OnePassOptions::default();
        stream(Algorithm::OnePass, &model, &dg, &mem, &options, SinkReads::Costs, |_| {}).unwrap();
        let lanes = [Lane::new(Algorithm::OnePass, mem), Lane::new(Algorithm::Incremental, mem)];
        stream_lanes(&model, &dg, &lanes, SinkReads::Costs, |_, _| {}).unwrap();
        let after = runs_on_this_thread();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [2, 2, 3]);
        // Five single-lane walks and one two-lane walk.
        assert_eq!(walks_on_this_thread() - walks, 6);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Recompute.label(), "Re-Algorithm");
        assert_eq!(Algorithm::Incremental.label(), "Inc-Algorithm");
        assert_eq!(Algorithm::OnePass.to_string(), "P-Algorithm");
        assert_eq!(ALL_ALGORITHMS.len(), 3);
    }
}
