//! The I-DGNN one-pass execution algorithm (paper Fig. 5, §IV).
//!
//! After the initial snapshot establishes the fused state (`W_C`, the
//! resident operator `Â^0`, and the pre-activation `P^0 = Â^L X_0 W_C`
//! evaluated as a chain of aggregations), every subsequent snapshot is
//! processed by a single kernel:
//!
//! 1. **DIU** extracts `ΔA = Â^{t+1} − Â^t` and `ΔX_0`;
//! 2. **AComb** evaluates the fused dissimilarity `ΔA_C` (Eqs. 13–15) from
//!    the GSB-resident `Â^t` and `ΔA` — exactly the two matrices the paper's
//!    Graph Structure Buffer holds (§V-B) — and streams it into AG row by
//!    row ([`fused_dissimilarity_rows`]); `ΔA_C` is never stored;
//! 3. **AG** computes `ΔAgg = ΔA_C·X_0^{t+1} + A_C^t·ΔX_0` (Eq. 10). The
//!    second term never materializes `A_C^t = (Â^t)^L`: it is evaluated
//!    first, as `Â^t(Â^t(…(Â^t·ΔX_0)))`, L chained sparse-times-sparse-rows
//!    products, cheap because `ΔX_0` has few non-zero rows. Each streamed
//!    row of `ΔA_C` is charged as an SpMM row and joined with its chained
//!    row: when outputs are read the row of `ΔAgg` is formed; when only
//!    costs are read the row is only tested for involvement, column by
//!    column until one is nonzero ([`row_is_involved`]);
//! 4. **CB** computes `ΔP = ΔAgg·W_C` for the involved rows only, as each
//!    row arrives, and updates the resident pre-activation
//!    `P^{t+1} = P^t + ΔP` (only when outputs are read; otherwise it is
//!    charged from the involved-row count). Combination-first instead
//!    folds `ΔY = ΔX_0·W_C` into `Y = X_0·W_C` before AComb, and AG
//!    streams `ΔP = ΔA_C·Y^{t+1} + A_C^t·ΔY` directly;
//! 5. the RNN consumes `X_C^{t+1} = σ(P^{t+1})` in place.
//!
//! No layer-by-layer intermediate features exist, so the `Intermediate`
//! DRAM class is structurally zero — the paper's headline claim.

use idgnn_graph::GraphSnapshot;
use idgnn_sparse::ops::{self, RowSink};
use idgnn_sparse::{CsrMatrix, DenseMatrix, OpStats};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::exec::{charge_rnn, Frame};
use crate::fusion::fuse_weights;
use crate::lstm::LstmState;
use crate::onepass::{fused_dissimilarity_rows, Dissimilarity, DissimilarityStrategy};
use crate::DgnnModel;

/// Order of the aggregation and combination halves of the one-pass kernel.
///
/// By associativity, `(ΔA_C · X_0) · W_C = ΔA_C · (X_0 · W_C)`: applying the
/// fused weight *first* shrinks every aggregation from the input width `K`
/// to the output width `C`. With `C < K` (the paper's regime — large input
/// features, modest hidden width) combination-first does strictly fewer
/// scalar operations, especially once `ΔA_C` densifies on well-connected
/// graphs. The paper's Eqs. 19–20 correspond to aggregation-first; both are
/// implemented and exactly equivalent (ablated in `idgnn-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CombinationOrder {
    /// Pick combination-first iff `C < K`.
    #[default]
    Auto,
    /// `ΔAgg = ΔA_C·X_0 + A_C·ΔX_0`, then `ΔP = ΔAgg·W_C` (paper order).
    AggregationFirst,
    /// `Y = X_0·W_C` maintained incrementally, then `ΔP = ΔA_C·Y + A_C·ΔY`.
    CombinationFirst,
}

/// Tunables of the one-pass executor (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnePassOptions {
    /// How to evaluate the `ΔA_C` chained products.
    pub strategy: DissimilarityStrategy,
    /// Order of the aggregation/combination halves.
    pub order: CombinationOrder,
    /// Adaptive refresh: when the dispatcher's cost estimate says the delta
    /// path (`ΔA_C` products) would exceed a from-scratch chained refresh of
    /// the fused pre-activation, refresh instead. Either way no layer
    /// intermediates exist and weights stay resident — the one-pass paradigm
    /// is preserved; only the receptive-field algebra is skipped when the
    /// delta has saturated the graph (the regime the paper's §VI-F flags).
    pub adaptive_refresh: bool,
}

impl Default for OnePassOptions {
    fn default() -> Self {
        Self {
            strategy: DissimilarityStrategy::default(),
            order: CombinationOrder::default(),
            adaptive_refresh: true,
        }
    }
}

/// Saturating cost estimate of the delta path for one snapshot: the chained
/// `ΔA_C` products plus the `ΔA_C`-wide aggregation. Mirrors what the
/// paper's analytical scheduler estimates with Eqs. 18–19, but saturates the
/// receptive field at `V²` like a real graph.
fn delta_path_estimate(delta_nnz: f64, mean_degree: f64, v: f64, l: u32, width: f64) -> f64 {
    let cap = v * v;
    let mut cost = 0.0;
    let mut frontier = delta_nnz;
    for _ in 0..l {
        cost += (frontier * mean_degree).min(cap * mean_degree.min(v));
        frontier = (frontier * mean_degree).min(cap);
    }
    cost + frontier * width
}

/// `a · x` restricted to the rows of `x` that are non-zero, exploiting the
/// symmetry of `a` (column `v` accessed as row `v`). Returns the product and
/// exact op counts — the cost is proportional to the *delta*, not the graph.
fn chain_apply(a: &CsrMatrix, x: &DenseMatrix) -> (DenseMatrix, OpStats) {
    let k = x.cols();
    let mut out = DenseMatrix::zeros(x.rows(), k);
    let mut st = OpStats::default();
    for v in 0..x.rows() {
        let row = x.row(v);
        if row.iter().all(|&e| e == 0.0) {
            continue;
        }
        for (r, w) in a.row_iter(v) {
            let orow = &mut out.as_mut_slice()[r * k..(r + 1) * k];
            for (o, &e) in orow.iter_mut().zip(row) {
                *o += w * e;
            }
            st.mults += k as u64;
            st.adds += k as u64;
        }
    }
    (out, st)
}

/// `Â^L · x` as L chained SpMMs.
fn aggregate(a: &CsrMatrix, x: &DenseMatrix, l: u32) -> Result<DenseMatrix> {
    let mut agg: Option<DenseMatrix> = None;
    for _ in 0..l {
        agg = Some(ops::spmm_with_stats(a, agg.as_ref().unwrap_or(x))?.0);
    }
    Ok(agg.unwrap_or_else(|| x.clone()))
}

/// Op counts of [`aggregate`] over an `x` of width `width`: L SpMMs over
/// the same operator, each counted by [`ops::spmm_stats`].
fn aggregate_ops(a: &CsrMatrix, width: usize, l: u32) -> OpStats {
    let per_spmm = ops::spmm_stats(a, width);
    (0..l).fold(OpStats::default(), |total, _| total + per_spmm)
}

/// The fused pre-activation `P` and the GNN output `X_C = σ(P)`, resident
/// only when the sink reads outputs (no count depends on their values).
type FusedOutput = (DenseMatrix, DenseMatrix);

/// Charges the from-scratch fused pre-activation `P = Â^L·X_0·W_C` over
/// `a` into `cost` (snapshot 0 and every refresh), and evaluates it, with
/// `X_C = σ(P)`, iff `executing`. Combination-first aggregates the resident
/// `Y = X_0·W_C`, whose combination the caller has charged; aggregation-first
/// aggregates `x0` at width `K` and then combines. `t_ag` is the
/// aggregation's traffic.
#[allow(clippy::too_many_arguments)]
fn fresh_pre_activation(
    model: &DgnnModel,
    a: &CsrMatrix,
    x0: &DenseMatrix,
    y_cache: &DenseMatrix,
    w_c: &DenseMatrix,
    comb_first: bool,
    executing: bool,
    t_ag: Traffic,
    cost: &mut SnapshotCost,
) -> Result<Option<FusedOutput>> {
    let l = model.dims().gnn_layers as u32;
    let (k, c_out) = w_c.shape();
    if comb_first {
        cost.push(Phase::Aggregation, aggregate_ops(a, c_out, l), t_ag);
    } else {
        cost.push(Phase::Aggregation, aggregate_ops(a, k, l), t_ag);
        let v = a.rows() as u64;
        cost.push(Phase::Combination, OpStats::gemm(v, c_out as u64, k as u64), Traffic::none());
    }
    if !executing {
        return Ok(None);
    }
    let pre_act = if comb_first {
        aggregate(a, y_cache, l)?
    } else {
        aggregate(a, x0, l)?.matmul(w_c)?
    };
    let x_c = model.activation().apply(&pre_act);
    Ok(Some((pre_act, x_c)))
}

/// `ΔX_0·W_C` for each changed row `r`, folded into the resident `Y` and,
/// when `dy` is given, written to `dy`.
fn fold_combination(
    dx0: &DenseMatrix,
    changed_rows: &[usize],
    w_c: &DenseMatrix,
    y_cache: &mut DenseMatrix,
    mut dy: Option<&mut DenseMatrix>,
) -> OpStats {
    let (k, c_out) = w_c.shape();
    let mut cb_ops = OpStats::default();
    for &r in changed_rows {
        let row = dx0.row(r);
        for j in 0..c_out {
            let mut acc = 0.0f32;
            for (i, &x) in row.iter().enumerate() {
                acc += x * w_c.get(i, j);
            }
            if let Some(dy) = dy.as_deref_mut() {
                dy.set(r, j, acc);
            }
            y_cache.set(r, j, y_cache.get(r, j) + acc);
        }
        cb_ops.mults += (k * c_out) as u64;
        cb_ops.adds += (k * c_out) as u64;
    }
    cb_ops
}

/// What AG takes from the streamed `ΔA_C`.
#[derive(Default)]
struct AgSum {
    /// Op counts of `ΔA_C·x` ([`ops::spmm_row_stats`] per row).
    spmm: OpStats,
    /// Stored entries of `ΔA_C`.
    nnz: usize,
    /// Rows of `ΔA_C` with a stored entry: the rows of `x` AG reads.
    support: usize,
    /// The involved rows, ascending: those of `ΔA_C·x + chained` with an
    /// entry of `|v| > 0.0`, [`nonzero_rows`](crate::onepass::nonzero_rows)'
    /// test.
    involved: Vec<usize>,
    /// `ΔP` of each involved row, `C` values each, when outputs are read.
    d_p: Vec<f32>,
}

/// The [`RowSink`] AComb streams `ΔA_C` into: AG, one row at a time.
///
/// Each row `r` of `ΔA_C` is charged as a row of the SpMM `ΔA_C·x` and
/// joined with row `r` of the chained term. When outputs are read it forms
/// the row of `ΔA_C·x + chained` with [`ops::spmm_with_stats`]' own row
/// kernel ([`ops::spmm_row_into`] on `+0.0`s), then adds the chained value
/// as [`DenseMatrix::add`] does, and
/// keeps its `ΔP` if it is involved (after CB's `·W_C` on the
/// aggregation-first order). When only costs are read it only decides
/// whether the row is involved, with [`row_is_involved`].
struct AgRows<'a> {
    /// `X_0^{t+1}` (aggregation-first) or `Y^{t+1}` (combination-first).
    x: &'a DenseMatrix,
    /// `Â^L` applied to `ΔX_0` or `ΔY`, as wide as `x`.
    chained: &'a DenseMatrix,
    executing: bool,
    /// `W_C` when the rows are `ΔAgg` rows CB must combine into `ΔP`.
    combine: Option<&'a DenseMatrix>,
    /// The row of `ΔA_C·x + chained` being formed.
    row: Vec<f32>,
    sum: AgSum,
}

impl<'a> AgRows<'a> {
    fn new(
        x: &'a DenseMatrix,
        chained: &'a DenseMatrix,
        executing: bool,
        combine: Option<&'a DenseMatrix>,
    ) -> Self {
        Self { x, chained, executing, combine, row: Vec::new(), sum: AgSum::default() }
    }
}

impl RowSink for AgRows<'_> {
    fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]) {
        let width = self.x.cols();
        let sum = &mut self.sum;
        sum.spmm += ops::spmm_row_stats(cols.len(), width);
        sum.nnz += cols.len();
        sum.support += usize::from(!cols.is_empty());
        let chained = self.chained.row(r);
        if !self.executing {
            if row_is_involved(self.x, chained, cols, vals) {
                sum.involved.push(r);
            }
            return;
        }
        let row = &mut self.row;
        row.clear();
        row.resize(width, 0.0);
        ops::spmm_row_into(row, cols, vals, self.x);
        for (o, &ch) in row.iter_mut().zip(chained) {
            *o += ch;
        }
        if !row.iter().any(|v| v.abs() > 0.0) {
            return;
        }
        sum.involved.push(r);
        match self.combine {
            Some(w_c) => {
                for j in 0..w_c.cols() {
                    let mut acc = 0.0f32;
                    for (i, &a) in row.iter().enumerate() {
                        acc += a * w_c.get(i, j);
                    }
                    sum.d_p.push(acc);
                }
            }
            None => sum.d_p.extend_from_slice(row),
        }
    }
}

/// Whether the row `(cols, vals)` of `ΔA_C` makes its row of
/// `ΔA_C·x + chained` involved, without forming the row: column by column
/// it sums `acc = 0.0; acc += w·x[c, j]` in ascending `c`, adds
/// `chained[j]`, and stops at the first column with `|v| > 0.0`.
///
/// Bit for bit the test [`nonzero_rows`](crate::onepass::nonzero_rows)
/// makes on the materialised sum: each output of [`ops::spmm_with_stats`]
/// starts at `+0.0` and receives the same products in the same order (the
/// chunked AXPY never reorders a column, and Rust does not contract `a·b + c`
/// into an FMA), and [`DenseMatrix::add`] adds the chained value last. A
/// NaN fails `|v| > 0.0` here as there.
fn row_is_involved(x: &DenseMatrix, chained: &[f32], cols: &[usize], vals: &[f32]) -> bool {
    let (width, xs) = (x.cols(), x.as_slice());
    chained.iter().enumerate().any(|(j, &ch)| {
        let mut acc = 0.0f32;
        for (&c, &w) in cols.iter().zip(vals) {
            acc += w * xs[c * width + j];
        }
        (acc + ch).abs() > 0.0
    })
}

/// A one-pass lane's resident state — what the accelerator holds on chip
/// between snapshots: the fused weight `W_C`, the combination-first `Y`,
/// the pre-activation/output pair (only when the sink reads outputs), the
/// RNN state, and the last snapshot's cost. The operators `Â^t` and `ΔÂ`
/// are the walk's.
pub(crate) struct OnePass {
    mem: MemoryModel,
    options: OnePassOptions,
    comb_first: bool,
    symmetric: bool,
    strategy: DissimilarityStrategy,
    w_c: DenseMatrix,
    /// The combination-first resident `Y = X_0·W_C` (V×C), kept whether or
    /// not the sink reads outputs: the delta path's `ΔP`, and so its
    /// `involved` rows, read it. Aggregation-first reads X_0 from the
    /// current snapshot instead, and leaves it empty.
    y_cache: DenseMatrix,
    fused: Option<FusedOutput>,
    state: Option<LstmState>,
    pub(crate) cost: SnapshotCost,
}

impl OnePass {
    /// Snapshot 0: establishes the fused state over `a0`.
    pub(crate) fn start(
        model: &DgnnModel,
        mem: MemoryModel,
        options: OnePassOptions,
        mut state: Option<LstmState>,
        snap: &GraphSnapshot,
        a0: &CsrMatrix,
    ) -> Result<Self> {
        let dims = model.dims();
        let v = snap.num_vertices();
        let k = dims.input_dim;
        let c_out = dims.gnn_out_dim;
        let comb_first = match options.order {
            CombinationOrder::Auto => c_out < k,
            CombinationOrder::CombinationFirst => true,
            CombinationOrder::AggregationFirst => false,
        };
        // The Eq. 15 transpose trick requires a symmetric operator;
        // asymmetric operators (GraphSAGE-mean / row-stochastic) use the
        // general expansion.
        let symmetric = model.normalization().symmetric_operator();
        let strategy = if symmetric { options.strategy } else { DissimilarityStrategy::General };

        let mut cost0 = SnapshotCost::default();
        let (w_c, wcomb_ops) = fuse_weights(model.gcn())?;
        let mut t_w = Traffic::none();
        // The one and only weight load of the whole run (paper §VI-C).
        t_w.read(DataClass::Weight, model.weight_bytes());
        cost0.push(Phase::WComb, wcomb_ops, t_w);

        // A_C is never materialized: the initial pre-activation comes from a
        // chain of L full SpMMs (AComb cost is therefore zero from scratch).
        let mut t_g = Traffic::none();
        t_g.read(DataClass::Graph, a0.csr_bytes());
        cost0.push(Phase::AComb, OpStats::default(), t_g);

        let mut t_x = Traffic::none();
        t_x.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));

        let executing = state.is_some();
        let mut y_cache = DenseMatrix::zeros(0, 0);
        if comb_first {
            let (y, cb_ops) = ops::gemm_with_stats(snap.features(), &w_c)?;
            cost0.push(Phase::Combination, cb_ops, Traffic::none());
            y_cache = y;
        }
        let fused = fresh_pre_activation(
            model,
            a0,
            snap.features(),
            &y_cache,
            &w_c,
            comb_first,
            executing,
            t_x,
            &mut cost0,
        )?;

        let z = fused.as_ref().map(|(_, x_c)| x_c);
        charge_rnn(model, v, z.zip(state.as_mut()), &mem, &mut cost0)?;
        Ok(Self {
            mem,
            options,
            comb_first,
            symmetric,
            strategy,
            w_c,
            y_cache,
            fused,
            state,
            cost: cost0,
        })
    }

    /// `X_C^t` (on a [`SinkReads::Outputs`](crate::exec::SinkReads) walk)
    /// and the RNN state after consuming it.
    pub(crate) fn outputs(&self) -> (Option<&DenseMatrix>, Option<&LstmState>) {
        (self.fused.as_ref().map(|(_, x_c)| x_c), self.state.as_ref())
    }

    /// One transition `Â^{t−1} → Â^t`: the delta path or, when the
    /// dispatcher says it is cheaper, a from-scratch refresh.
    pub(crate) fn advance(&mut self, model: &DgnnModel, frame: &Frame<'_>) -> Result<()> {
        let Self {
            mem,
            options,
            comb_first,
            symmetric,
            strategy,
            w_c,
            y_cache,
            fused,
            state,
            cost: last_cost,
        } = self;
        let (comb_first, symmetric) = (*comb_first, *symmetric);
        let dims = model.dims();
        let v = frame.snapshot.num_vertices();
        let l = dims.gnn_layers as u32;
        let k = dims.input_dim;
        let c_out = dims.gnn_out_dim;
        let activation = model.activation();
        let executing = state.is_some();
        let delta_meta = frame.delta;
        let snap = frame.snapshot;
        let a_prev = frame.prev_operator;
        let a_next = frame.operator;
        let mut cost = SnapshotCost::default();

        // DIU: ΔA and ΔX_0 (zeros from unchanged entries dropped in-merge).
        let d_op = frame.operator_delta()?;
        let dx0 = frame
            .feature_delta
            .as_ref()
            // lint: allow(panic-surface) -- `stream_lanes` builds ΔX_0 on every transition of a walk with a one-pass lane
            .expect("a walk with a one-pass lane builds ΔX_0");
        let changed_rows: Vec<usize> = crate::onepass::nonzero_rows(dx0, 0.0);
        let mut t_diu = Traffic::none();
        t_diu.read(DataClass::Graph, d_op.csr_bytes());
        t_diu.read(DataClass::InputFeature, dense_bytes(changed_rows.len(), dims.input_dim));
        // DIU work: one comparison per delta entry, plus CSR maintenance.
        // Deleting an edge compacts *both* endpoint rows (≈ 2×mean-degree
        // word moves, read + write); adding appends a single entry — the
        // asymmetry behind the paper's Fig. 16 (deletion-heavy deltas run
        // slower).
        let mean_deg = (a_prev.nnz() as f64 / v.max(1) as f64).max(1.0);
        let csr_maintenance = (delta_meta.removed_edges().len() as f64 * 4.0 * mean_deg) as u64
            + delta_meta.added_edges().len() as u64;
        cost.push(
            Phase::Diu,
            OpStats::counted(0, d_op.nnz() as u64 + csr_maintenance),
            t_diu,
        );

        // Resident on-chip state: GSB holds Â^t and ΔA (§V-B); LB holds the
        // dense cache (Y or X_0), the pre-activation/output pair, and the
        // RNN state.
        let cache_width = if comb_first { c_out } else { k };
        let resident = a_prev.csr_bytes()
            + d_op.csr_bytes()
            + dense_bytes(v, cache_width)
            + 2 * dense_bytes(v, c_out)
            + 2 * dense_bytes(v, dims.rnn_hidden_dim);
        let spilled = !mem.fits(resident);

        // Adaptive dispatch: delta path vs from-scratch refresh.
        let width = cache_width as f64;
        let refresh = options.adaptive_refresh && {
            let delta_est =
                delta_path_estimate(d_op.nnz() as f64, mean_deg, v as f64, l, width);
            let fresh_est = l as f64 * a_next.nnz() as f64 * width
                + if comb_first { 0.0 } else { (v * k * c_out) as f64 };
            fresh_est < delta_est
        };
        if refresh {
            let mut t_ac = Traffic::none();
            if spilled {
                t_ac.read(DataClass::Graph, a_next.csr_bytes());
            }
            cost.push(Phase::AComb, OpStats::default(), t_ac);

            let mut t_ag = Traffic::none();
            if spilled {
                t_ag.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));
            }
            if comb_first {
                // Fold ΔY into the resident Y, then refresh P by chained
                // aggregation of the full Y at width C.
                let cb_ops = fold_combination(dx0, &changed_rows, w_c, y_cache, None);
                cost.push(Phase::Combination, cb_ops, Traffic::none());
            }
            *fused = fresh_pre_activation(
                model,
                a_next,
                snap.features(),
                y_cache,
                w_c,
                comb_first,
                executing,
                t_ag,
                &mut cost,
            )?;
            let z = fused.as_ref().map(|(_, x_c)| x_c);
            charge_rnn(model, v, z.zip(state.as_mut()), mem, &mut cost)?;
            *last_cost = cost;
            return Ok(());
        }

        // `chain_apply` accesses columns as rows, i.e. computes Âᵀ·x; pass
        // the transpose when the operator is asymmetric so the product is
        // the intended Â·x.
        let a_chain_t;
        let chain_op: &CsrMatrix = if symmetric {
            a_prev
        } else {
            a_chain_t = a_prev.transpose();
            &a_chain_t
        };

        // What AG reads besides ΔA_C, ready before AComb streams it.
        // Combination-first: CB forms ΔY = ΔX_0·W_C on the changed rows and
        // folds it into Y; AG aggregates Y^{t+1} at width C. Aggregation-
        // first: AG aggregates X_0^{t+1} at width K.
        let (cb_ops, dy) = if comb_first {
            let mut dy = DenseMatrix::zeros(v, c_out);
            let cb_ops = fold_combination(dx0, &changed_rows, w_c, y_cache, Some(&mut dy));
            (cb_ops, Some(dy))
        } else {
            (OpStats::default(), None)
        };
        let (x, width) = if comb_first { (&*y_cache, c_out) } else { (snap.features(), k) };
        // Â^t applied L times to ΔY or ΔX_0, and its merge into ΔA_C·x.
        let mut ag_ops = OpStats::default();
        let seed = dy.as_ref().unwrap_or(dx0);
        let mut chained: Option<DenseMatrix> = None;
        for _ in 0..l {
            let (next, st) = chain_apply(chain_op, chained.as_ref().unwrap_or(seed));
            chained = Some(next);
            ag_ops += st;
        }
        let chained = chained.as_ref().unwrap_or(seed);
        ag_ops.adds += (crate::onepass::nonzero_rows(chained, 0.0).len() * width) as u64;

        // AComb: fused dissimilarity ΔA_C from Â^t and ΔA, each row streamed
        // into AG as it is summed, never stored. Uncached: the re-normalised
        // Â^{t+1} this lane advances to never equals the `Â^t + ΔA` a
        // PowerCache keys on (DESIGN.md §8).
        let combine = (executing && !comb_first).then_some(&*w_c);
        let sink = AgRows::new(x, chained, executing, combine);
        let Dissimilarity { delta_ac: AgRows { sum: ag, .. }, ops: ac_ops, saved, .. } =
            fused_dissimilarity_rows(a_prev, d_op, l, *strategy, sink)?;
        cost.add_saved(saved);
        let mut t_ac = Traffic::none();
        if spilled {
            t_ac.read(DataClass::Graph, a_prev.csr_bytes());
            t_ac.write(DataClass::Graph, CsrMatrix::csr_bytes_of(a_prev.rows(), ag.nnz));
        }
        cost.push(Phase::AComb, ac_ops, t_ac);

        let mut t_ag = Traffic::none();
        if spilled {
            t_ag.read(DataClass::InputFeature, dense_bytes(ag.support, dims.input_dim));
        }
        ag_ops += ag.spmm;
        let involved = ag.involved;
        // P^{t+1} = P^t + ΔP on the involved rows, when outputs are read.
        if let Some((pre_act, x_c)) = fused.as_mut() {
            for (&r, d_p) in involved.iter().zip(ag.d_p.chunks_exact(c_out.max(1))) {
                for (j, &d) in d_p.iter().enumerate() {
                    let p = pre_act.get(r, j) + d;
                    pre_act.set(r, j, p);
                    x_c.set(r, j, if activation.is_linear() { p } else { p.max(0.0) });
                }
            }
        }
        if comb_first {
            cost.push(Phase::Combination, cb_ops, Traffic::none());
            // AG folds each involved row of ΔP into P with one add per output.
            ag_ops.adds += (involved.len() * c_out) as u64;
            if spilled {
                t_ag.read(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
                t_ag.write(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
            }
            cost.push(Phase::Aggregation, ag_ops, t_ag);
        } else {
            cost.push(Phase::Aggregation, ag_ops, t_ag);
            // CB: ΔP = ΔAgg·W_C for involved rows only, each folded into P
            // with one add per output.
            let mut cb_ops = OpStats::gemm(involved.len() as u64, c_out as u64, k as u64);
            cb_ops.adds += (involved.len() * c_out) as u64;
            let mut t_cb = Traffic::none();
            if spilled {
                t_cb.read(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
                t_cb.write(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
            }
            cost.push(Phase::Combination, cb_ops, t_cb);
        }

        // RNN consumes X_C in place.
        let z = fused.as_ref().map(|(_, x_c)| x_c);
        charge_rnn(model, v, z.zip(state.as_mut()), mem, &mut cost)?;
        *last_cost = cost;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fused_forward;
    use crate::{Algorithm, ExecutionResult, ModelConfig};
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::DynamicGraph;
    use idgnn_graph::Normalization;

    fn setup(activation: crate::Activation) -> (DgnnModel, DynamicGraph) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(40, 120, 6),
            &StreamConfig { deltas: 3, ..Default::default() },
            13,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 6,
            gnn_hidden: 5,
            gnn_layers: 3,
            rnn_hidden: 4,
            activation,
            normalization: Normalization::Symmetric,
            seed: 3,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        (model, dg)
    }

    #[test]
    fn matches_recompute_for_linear_gcn() {
        // The central correctness claim (Eq. 10): one-pass outputs equal the
        // full pipeline when fusion is exact.
        let (model, dg) = setup(crate::Activation::Linear);
        let mem = MemoryModel::default();
        let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for (t, (a, b)) in op.outputs.iter().zip(&rec.outputs).enumerate() {
            assert!(
                a.z.approx_eq(&b.z, 2e-3),
                "snapshot {t}: Z diff {}",
                a.z.max_abs_diff(&b.z).unwrap()
            );
            assert!(a.state.h.approx_eq(&b.state.h, 2e-3));
        }
    }

    #[test]
    fn matches_fused_model_under_relu() {
        // One-pass is exact w.r.t. the *fused* model for any activation,
        // because the pre-activation is maintained additively and
        // re-activated.
        let (model, dg) = setup(crate::Activation::Relu);
        let mem = MemoryModel::default();
        let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();

        let (w_c, _) = fuse_weights(model.gcn()).unwrap();
        let snaps = dg.materialize().unwrap();
        for (t, snap) in snaps.iter().enumerate() {
            let a = model.normalization().apply(snap.adjacency());
            let (a_c, _) = ops::sp_pow_with_stats(&a, 3).unwrap();
            let (fused, _, _) =
                fused_forward(&a_c, snap.features(), &w_c, crate::Activation::Relu).unwrap();
            assert!(
                op.outputs[t].z.approx_eq(&fused.output, 2e-3),
                "snapshot {t}: diff {}",
                op.outputs[t].z.max_abs_diff(&fused.output).unwrap()
            );
        }
    }

    #[test]
    fn both_strategies_agree() {
        let (model, dg) = setup(crate::Activation::Linear);
        let mem = MemoryModel::default();
        let a = crate::exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions { strategy: DissimilarityStrategy::General, ..Default::default() },
        )
        .unwrap();
        let b = crate::exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions { strategy: DissimilarityStrategy::TransposeOptimized, ..Default::default() },
        )
        .unwrap();
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert!(x.z.approx_eq(&y.z, 1e-3));
        }
    }

    #[test]
    fn both_orders_agree_functionally() {
        // (ΔA_C·X)·W == ΔA_C·(X·W): the two execution orders are exactly
        // equivalent (up to float reassociation).
        let (model, dg) = setup(crate::Activation::Relu);
        let mem = MemoryModel::default();
        let agg_first = crate::exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions { order: CombinationOrder::AggregationFirst, ..Default::default() },
        )
        .unwrap();
        let comb_first = crate::exec::run_onepass_with(
            &model,
            &dg,
            &mem,
            &OnePassOptions { order: CombinationOrder::CombinationFirst, ..Default::default() },
        )
        .unwrap();
        for (a, b) in agg_first.outputs.iter().zip(&comb_first.outputs) {
            assert!(
                a.z.approx_eq(&b.z, 2e-3),
                "orders diverge: {}",
                a.z.max_abs_diff(&b.z).unwrap()
            );
        }
    }

    #[test]
    fn combination_first_does_fewer_ops_when_c_below_k() {
        let (model, dg) = paper_regime(3);
        let mem = MemoryModel::default();
        let run_order = |order: CombinationOrder| {
            crate::exec::run_onepass_with(
                &model,
                &dg,
                &mem,
                &OnePassOptions { order, ..Default::default() },
            )
            .unwrap()
            .total_ops()
            .total()
        };
        let agg = run_order(CombinationOrder::AggregationFirst);
        let comb = run_order(CombinationOrder::CombinationFirst);
        assert!(comb < agg, "comb-first {comb} !< agg-first {agg}");
    }

    #[test]
    fn zero_intermediate_dram_traffic() {
        // The headline claim: one-pass never touches the Intermediate class.
        let (model, dg) = setup(crate::Activation::Relu);
        for mem in [MemoryModel::default(), MemoryModel { onchip_bytes: 0 }] {
            let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
            assert_eq!(op.total_dram().of(DataClass::Intermediate), 0);
        }
    }

    #[test]
    fn weights_read_only_once() {
        let (model, dg) = setup(crate::Activation::Relu);
        let op =
            crate::exec::run(Algorithm::OnePass, &model, &dg, &MemoryModel::default()).unwrap();
        assert_eq!(op.costs[0].total_dram().of(DataClass::Weight), model.weight_bytes());
        for c in &op.costs[1..] {
            assert_eq!(c.total_dram().of(DataClass::Weight), 0);
        }
    }

    /// The regime the paper targets: a sparse graph with a small
    /// dissimilarity proportion, so the receptive field of the evolved
    /// components covers a fraction of the graph (the paper's §VI-F notes
    /// the gains diminish as dissimilarity and layer count grow).
    fn paper_regime(layers: usize) -> (DgnnModel, DynamicGraph) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(400, 600, 24),
            &StreamConfig {
                deltas: 3,
                dissimilarity: 0.01,
                addition_fraction: 0.75,
                feature_update_fraction: 0.02,
            },
            29,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 24,
            gnn_hidden: 6,
            gnn_layers: layers,
            rnn_hidden: 6,
            activation: crate::Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: 3,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        (model, dg)
    }

    fn tail_ops(r: &ExecutionResult) -> u64 {
        r.costs[1..].iter().map(|c| c.total_ops().total()).sum()
    }

    #[test]
    fn fewer_ops_than_recompute_after_warmup() {
        let (model, dg) = paper_regime(2);
        let mem = MemoryModel::default();
        let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        assert!(
            tail_ops(&op) < tail_ops(&rec),
            "one-pass {} !< recompute {}",
            tail_ops(&op),
            tail_ops(&rec)
        );
    }

    #[test]
    fn fewer_ops_than_incremental_for_single_layer() {
        // For L = 1, ΔA_C = ΔA exactly and the one-pass kernel is the
        // provable minimum; incremental recomputation of affected rows
        // re-aggregates full neighborhoods and must do more.
        let (model, dg) = paper_regime(1);
        let mem = MemoryModel::default();
        let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        assert!(
            tail_ops(&op) < tail_ops(&inc),
            "one-pass {} !< incremental {}",
            tail_ops(&op),
            tail_ops(&inc)
        );
    }

    #[test]
    fn less_dram_than_baselines_in_steady_state() {
        let (model, dg) = paper_regime(3);
        let mem = MemoryModel::default();
        let op = crate::exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        let tail = |r: &ExecutionResult| -> u64 {
            r.costs[1..].iter().map(|c| c.total_dram().total()).sum()
        };
        assert!(tail(&op) < tail(&inc), "one-pass {} !< incremental {}", tail(&op), tail(&inc));
        assert!(tail(&op) < tail(&rec), "one-pass {} !< recompute {}", tail(&op), tail(&rec));
    }

    #[test]
    fn deletion_heavy_deltas_cost_more_diu_work() {
        // Fig. 16's mechanism: CSR row compaction makes deletions costlier.
        let base = GraphConfig::power_law(300, 900, 8);
        let stream_add = StreamConfig {
            deltas: 3,
            dissimilarity: 0.08,
            addition_fraction: 0.75,
            feature_update_fraction: 0.0,
        };
        let stream_del = StreamConfig { addition_fraction: 0.25, ..stream_add };
        let dg_add = generate_dynamic_graph(&base, &stream_add, 5).unwrap();
        let dg_del = generate_dynamic_graph(&base, &stream_del, 5).unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 8,
            gnn_hidden: 4,
            gnn_layers: 3,
            rnn_hidden: 4,
            activation: crate::Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: 1,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        let mem = MemoryModel::default();
        let a = crate::exec::run(Algorithm::OnePass, &model, &dg_add, &mem).unwrap();
        let d = crate::exec::run(Algorithm::OnePass, &model, &dg_del, &mem).unwrap();
        let diu = |r: &ExecutionResult| -> u64 {
            r.costs[1..].iter().map(|c| c.ops_of(crate::Phase::Diu).total()).sum()
        };
        assert!(diu(&d) > diu(&a), "deletion-heavy {} !> addition-heavy {}", diu(&d), diu(&a));
    }

    #[test]
    fn involved_rows_and_counts_equal_the_materialised_oracle() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        #[rustfmt::skip]
        let x = DenseMatrix::from_vec(7, 2, vec![
            0.0, -1.0,
            2.0, 0.0,
            nan, 0.0,
            inf, 0.0,
            -inf, 0.0,
            1.0, 1.0,
            0.5, 0.5,
        ])
        .unwrap();
        // Row 0 is non-empty but cancels exactly against the chained term;
        // rows 1 and 2 sum to NaN (a NaN feature, ∞ − ∞), which fails
        // `|v| > 0.0`; row 3 is ∞; row 4 is empty with a chained value in
        // its second column; row 5 is zero in its first column only and
        // stores a zero weight; row 6 is empty with chained ±0.0.
        let rows: [&[(usize, f32)]; 7] = [
            &[(1, 1.0)],
            &[(2, 1.0)],
            &[(3, 1.0), (4, 1.0)],
            &[(3, 1.0)],
            &[],
            &[(0, 1.0), (5, 0.0)],
            &[],
        ];
        let mut coo = idgnn_sparse::CooMatrix::new(7, 7);
        for (r, row) in rows.iter().enumerate() {
            for &(c, w) in row.iter() {
                coo.push(r, c, w).unwrap();
            }
        }
        let delta_ac = coo.to_csr();
        let mut chained = DenseMatrix::zeros(7, 2);
        chained.set(0, 0, -2.0);
        chained.set(4, 0, -0.0);
        chained.set(4, 1, 3.0);
        chained.set(6, 1, -0.0);
        let w_c = DenseMatrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 4.0, 0.25, -1.0]).unwrap();

        // The materialised path the row sink replaces.
        let (spmm, spmm_ops) = ops::spmm_with_stats(&delta_ac, &x).unwrap();
        let d_agg = spmm.add(&chained).unwrap();
        let want = crate::onepass::nonzero_rows(&d_agg, 0.0);
        assert_eq!(want, [3, 4, 5]);
        let support = (0..7).filter(|&r| delta_ac.row_nnz(r) > 0).count();
        for executing in [false, true] {
            for combine in [None, Some(&w_c)] {
                let ctx = format!("executing={executing} combine={}", combine.is_some());
                let sum = ops::sp_rows(&delta_ac, AgRows::new(&x, &chained, executing, combine)).sum;
                assert_eq!(sum.involved, want, "{ctx}");
                assert_eq!(sum.spmm, spmm_ops, "{ctx}");
                assert_eq!((sum.nnz, sum.support), (delta_ac.nnz(), support), "{ctx}");
                if !executing {
                    assert!(sum.d_p.is_empty(), "{ctx}");
                    continue;
                }
                let want_d_p: Vec<u32> = match combine {
                    None => want.iter().flat_map(|&r| d_agg.row(r).iter().map(|v| v.to_bits())).collect(),
                    Some(w_c) => {
                        let mut d_p = Vec::new();
                        for &r in &want {
                            for j in 0..w_c.cols() {
                                let mut acc = 0.0f32;
                                for (i, &a) in d_agg.row(r).iter().enumerate() {
                                    acc += a * w_c.get(i, j);
                                }
                                d_p.push(acc.to_bits());
                            }
                        }
                        d_p
                    }
                };
                let got: Vec<u32> = sum.d_p.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want_d_p, "{ctx}");
            }
        }
    }

    #[test]
    fn chain_apply_matches_spmm_on_sparse_rows() {
        let (model, dg) = setup(crate::Activation::Linear);
        let a = model.normalization().apply(dg.initial().adjacency());
        let mut x = DenseMatrix::zeros(40, 3);
        x.set(5, 0, 2.0);
        x.set(17, 2, -1.0);
        let (got, st) = chain_apply(&a, &x);
        let want = ops::spmm_with_stats(&a, &x).unwrap().0;
        assert!(got.approx_eq(&want, 1e-5));
        // Cost proportional to the two active rows only.
        let expected_mults = (a.row_nnz(5) + a.row_nnz(17)) as u64 * 3;
        assert_eq!(st.mults, expected_mults);
    }
}
