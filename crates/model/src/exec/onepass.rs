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
//!    Graph Structure Buffer holds (§V-B);
//! 3. **AG** computes `ΔAgg = ΔA_C·X_0^{t+1} + A_C^t·ΔX_0` (Eq. 10). The
//!    second term never materializes `A_C^t = (Â^t)^L`: it is evaluated as
//!    `Â^t(Â^t(…(Â^t·ΔX_0)))`, L chained sparse-times-sparse-rows products,
//!    cheap because `ΔX_0` has few non-zero rows;
//! 4. **CB** computes `ΔP = ΔAgg·W_C` for the involved rows only and updates
//!    the resident pre-activation `P^{t+1} = P^t + ΔP`;
//! 5. the RNN consumes `X_C^{t+1} = σ(P^{t+1})` in place.
//!
//! No layer-by-layer intermediate features exist, so the `Intermediate`
//! DRAM class is structurally zero — the paper's headline claim.

use idgnn_graph::DynamicGraph;
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix, OpStats};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::exec::{ExecutionResult, SnapshotOutput};
use crate::fusion::fuse_weights;
use crate::lstm::LstmState;
use crate::onepass::{fused_dissimilarity, DissimilarityStrategy};
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
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
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

/// Snapshot output from the resident `X_C` and RNN state.
fn emit_output(x_c: &DenseMatrix, state: &LstmState) -> SnapshotOutput {
    SnapshotOutput { z: x_c.clone(), state: state.clone() }
}

pub(crate) fn run(
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    options: &OnePassOptions,
) -> Result<ExecutionResult> {
    let snaps = dg.materialize()?;
    let dims = model.dims();
    let v = dg.initial().num_vertices();
    let l = dims.gnn_layers as u32;
    let k = dims.input_dim;
    let c_out = dims.gnn_out_dim;
    let activation = model.activation();
    let comb_first = match options.order {
        CombinationOrder::Auto => c_out < k,
        CombinationOrder::CombinationFirst => true,
        CombinationOrder::AggregationFirst => false,
    };
    // The Eq. 15 transpose trick requires a symmetric operator; asymmetric
    // operators (GraphSAGE-mean / row-stochastic) use the general expansion.
    let symmetric = model.normalization().symmetric_operator();
    let strategy = if symmetric { options.strategy } else { DissimilarityStrategy::General };

    let mut outputs = Vec::with_capacity(snaps.len());
    let mut costs = Vec::with_capacity(snaps.len());
    let mut state = LstmState::zeros(v, dims.rnn_hidden_dim);

    // ---- Snapshot 0: establish the fused state. ----
    let mut cost0 = SnapshotCost::default();
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let mut a_prev = model.normalization().apply(snaps[0].adjacency());
    let mut operator_bytes = Vec::with_capacity(snaps.len());
    operator_bytes.push(a_prev.csr_bytes());

    let (w_c, wcomb_ops) = fuse_weights(model.gcn())?;
    let mut t_w = Traffic::none();
    // The one and only weight load of the whole run (paper §VI-C).
    t_w.read(DataClass::Weight, model.weight_bytes());
    cost0.push(Phase::WComb, wcomb_ops, t_w);

    // A_C is never materialized: the initial pre-activation comes from a
    // chain of L full SpMMs (AComb cost is therefore zero from scratch).
    let mut t_g = Traffic::none();
    t_g.read(DataClass::Graph, a_prev.csr_bytes());
    cost0.push(Phase::AComb, OpStats::default(), t_g);

    let mut t_x = Traffic::none();
    t_x.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));

    // `y_cache` is the combination-first resident `Y = X_0·W_C` (V×C);
    // aggregation-first keeps the raw X_0 width instead.
    let mut pre_act;
    let mut y_cache = DenseMatrix::zeros(0, 0);
    if comb_first {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let (y, cb_ops) = ops::gemm_with_stats(snaps[0].features(), &w_c)?;
        cost0.push(Phase::Combination, cb_ops, Traffic::none());
        let mut agg = y.clone();
        let mut ag_ops = OpStats::default();
        for _ in 0..l {
            let (next, st) = ops::spmm_with_stats(&a_prev, &agg)?;
            agg = next;
            ag_ops += st;
        }
        cost0.push(Phase::Aggregation, ag_ops, t_x);
        pre_act = agg;
        y_cache = y;
    } else {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let mut agg = snaps[0].features().clone();
        let mut ag_ops = OpStats::default();
        for _ in 0..l {
            let (next, st) = ops::spmm_with_stats(&a_prev, &agg)?;
            agg = next;
            ag_ops += st;
        }
        cost0.push(Phase::Aggregation, ag_ops, t_x);
        let (p, cb_ops) = ops::gemm_with_stats(&agg, &w_c)?;
        cost0.push(Phase::Combination, cb_ops, Traffic::none());
        pre_act = p;
    }
    let mut x_c = activation.apply(&pre_act);
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let mut x0_prev = snaps[0].features().clone();

    push_rnn(model, &x_c, &mut state, v, dims.rnn_hidden_dim, mem, &mut cost0)?;
    outputs.push(emit_output(&x_c, &state));
    costs.push(cost0);

    for (t, snap) in snaps.iter().enumerate().skip(1) {
        let mut cost = SnapshotCost::default();
        let a_next = model.normalization().apply(snap.adjacency());
        operator_bytes.push(a_next.csr_bytes());

        // DIU: ΔA and ΔX_0 (zeros from unchanged entries dropped in-merge).
        let d_op = ops::sp_sub_pruned(&a_next, &a_prev)?;
        let dx0 = snap.features().sub(&x0_prev)?;
        let changed_rows: Vec<usize> = crate::onepass::nonzero_rows(&dx0, 0.0);
        let mut t_diu = Traffic::none();
        t_diu.read(DataClass::Graph, d_op.csr_bytes());
        t_diu.read(DataClass::InputFeature, dense_bytes(changed_rows.len(), dims.input_dim));
        // DIU work: one comparison per delta entry, plus CSR maintenance.
        // Deleting an edge compacts *both* endpoint rows (≈ 2×mean-degree
        // word moves, read + write); adding appends a single entry — the
        // asymmetry behind the paper's Fig. 16 (deletion-heavy deltas run
        // slower).
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let delta_meta = &dg.deltas()[t - 1];
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
                let mut cb_ops = OpStats::default();
                for &r in &changed_rows {
                    let row = dx0.row(r);
                    for j in 0..c_out {
                        let mut acc = 0.0f32;
                        for (i, &x) in row.iter().enumerate() {
                            acc += x * w_c.get(i, j);
                        }
                        y_cache.set(r, j, y_cache.get(r, j) + acc);
                    }
                    cb_ops.mults += (k * c_out) as u64;
                    cb_ops.adds += (k * c_out) as u64;
                }
                cost.push(Phase::Combination, cb_ops, Traffic::none());
                let mut agg = y_cache.clone();
                let mut ag_ops = OpStats::default();
                for _ in 0..l {
                    let (next, st) = ops::spmm_with_stats(&a_next, &agg)?;
                    agg = next;
                    ag_ops += st;
                }
                cost.push(Phase::Aggregation, ag_ops, t_ag);
                pre_act = agg;
            } else {
                let mut agg = snap.features().clone();
                let mut ag_ops = OpStats::default();
                for _ in 0..l {
                    let (next, st) = ops::spmm_with_stats(&a_next, &agg)?;
                    agg = next;
                    ag_ops += st;
                }
                cost.push(Phase::Aggregation, ag_ops, t_ag);
                let (p, cb_ops) = ops::gemm_with_stats(&agg, &w_c)?;
                cost.push(Phase::Combination, cb_ops, Traffic::none());
                pre_act = p;
            }
            x_c = activation.apply(&pre_act);
            push_rnn(model, &x_c, &mut state, v, dims.rnn_hidden_dim, mem, &mut cost)?;
            outputs.push(emit_output(&x_c, &state));
            costs.push(cost);
            a_prev = a_next;
            x0_prev = snap.features().clone();
            continue;
        }

        // AComb: fused dissimilarity ΔA_C from Â^t and ΔA. Uncached: the
        // re-normalised Â^{t+1} this loop advances to never equals the
        // `Â^t + ΔA` a PowerCache keys on (DESIGN.md §8).
        let dis = fused_dissimilarity(&a_prev, &d_op, l, strategy)?;
        cost.add_saved(dis.saved);
        let mut t_ac = Traffic::none();
        if spilled {
            t_ac.read(DataClass::Graph, a_prev.csr_bytes());
            t_ac.write(DataClass::Graph, dis.delta_ac.csr_bytes());
        }
        cost.push(Phase::AComb, dis.ops, t_ac);

        // `chain_apply` accesses columns as rows, i.e. computes Âᵀ·x; pass
        // the transpose when the operator is asymmetric so the product is
        // the intended Â·x.
        let a_chain_t;
        let chain_op: &CsrMatrix = if symmetric {
            &a_prev
        } else {
            a_chain_t = a_prev.transpose();
            &a_chain_t
        };

        let mut t_ag = Traffic::none();
        if spilled {
            let support: usize = (0..v).filter(|&r| dis.delta_ac.row_nnz(r) > 0).count();
            t_ag.read(DataClass::InputFeature, dense_bytes(support, dims.input_dim));
        }
        let mut t_cb = Traffic::none();

        let involved;
        if comb_first {
            // CB: ΔY = ΔX_0·W_C on the changed rows only; fold into Y.
            let mut cb_ops = OpStats::default();
            let mut dy = DenseMatrix::zeros(v, c_out);
            for &r in &changed_rows {
                let row = dx0.row(r);
                for j in 0..c_out {
                    let mut acc = 0.0f32;
                    for (i, &x) in row.iter().enumerate() {
                        acc += x * w_c.get(i, j);
                    }
                    dy.set(r, j, acc);
                    y_cache.set(r, j, y_cache.get(r, j) + acc);
                }
                cb_ops.mults += (k * c_out) as u64;
                cb_ops.adds += (k * c_out) as u64;
            }
            cost.push(Phase::Combination, cb_ops, t_cb);

            // AG: ΔP = ΔA_C·Y^{t+1} + Â^t applied L times to ΔY.
            let (mut d_p, mut ag_ops) = ops::spmm_with_stats(&dis.delta_ac, &y_cache)?;
            let mut chained = dy;
            for _ in 0..l {
                let (next, st) = chain_apply(chain_op, &chained);
                chained = next;
                ag_ops += st;
            }
            let merge_rows = crate::onepass::nonzero_rows(&chained, 0.0).len() as u64;
            d_p = d_p.add(&chained)?;
            ag_ops.adds += merge_rows * c_out as u64;

            involved = crate::onepass::nonzero_rows(&d_p, 0.0);
            for &r in &involved {
                for j in 0..c_out {
                    let p = pre_act.get(r, j) + d_p.get(r, j);
                    pre_act.set(r, j, p);
                    x_c.set(r, j, if activation.is_linear() { p } else { p.max(0.0) });
                }
            }
            ag_ops.adds += (involved.len() * c_out) as u64;
            if spilled {
                t_ag.read(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
                t_ag.write(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
            }
            cost.push(Phase::Aggregation, ag_ops, t_ag);
        } else {
            // AG: ΔAgg = ΔA_C·X_0^{t+1} + Â^t applied L times to ΔX_0.
            let (mut d_agg, mut ag_ops) = ops::spmm_with_stats(&dis.delta_ac, snap.features())?;
            let mut chained = dx0.clone();
            for _ in 0..l {
                let (next, st) = chain_apply(chain_op, &chained);
                chained = next;
                ag_ops += st;
            }
            let merge_rows = crate::onepass::nonzero_rows(&chained, 0.0).len() as u64;
            d_agg = d_agg.add(&chained)?;
            ag_ops.adds += merge_rows * k as u64;
            cost.push(Phase::Aggregation, ag_ops, t_ag);

            // CB: ΔP = ΔAgg·W_C for involved rows only.
            involved = crate::onepass::nonzero_rows(&d_agg, 0.0);
            let mut cb_ops = OpStats::default();
            for &r in &involved {
                let agg_row = d_agg.row(r);
                for j in 0..c_out {
                    let mut acc = 0.0f32;
                    for (i, &a) in agg_row.iter().enumerate() {
                        acc += a * w_c.get(i, j);
                    }
                    let p = pre_act.get(r, j) + acc;
                    pre_act.set(r, j, p);
                    x_c.set(r, j, if activation.is_linear() { p } else { p.max(0.0) });
                }
                cb_ops.mults += (k * c_out) as u64;
                cb_ops.adds += ((k.saturating_sub(1)) * c_out + c_out) as u64;
            }
            if spilled {
                t_cb.read(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
                t_cb.write(DataClass::OutputFeature, dense_bytes(involved.len(), c_out));
            }
            cost.push(Phase::Combination, cb_ops, t_cb);
        }

        // RNN consumes X_C in place.
        push_rnn(model, &x_c, &mut state, v, dims.rnn_hidden_dim, mem, &mut cost)?;
        outputs.push(emit_output(&x_c, &state));
        costs.push(cost);

        a_prev = a_next;
        x0_prev = snap.features().clone();
    }
    Ok(ExecutionResult { outputs, costs, operator_bytes })
}

fn push_rnn(
    model: &DgnnModel,
    z: &DenseMatrix,
    state: &mut LstmState,
    v: usize,
    r_dim: usize,
    mem: &MemoryModel,
    cost: &mut SnapshotCost,
) -> Result<()> {
    let (a_pre, ops_a) = model.rnn_a(&state.h)?;
    let state_bytes = 2 * dense_bytes(v, r_dim);
    let rnn_spilled = !mem.fits(state_bytes + dense_bytes(v, z.cols()));
    let mut ta = Traffic::none();
    if rnn_spilled {
        ta.read(DataClass::OutputFeature, dense_bytes(v, r_dim));
    }
    cost.push(Phase::RnnA, ops_a, ta);
    let (next, ops_b) = model.rnn_b(z, &a_pre, state)?;
    let mut tb = Traffic::none();
    if rnn_spilled {
        tb.read(DataClass::OutputFeature, dense_bytes(v, r_dim));
        tb.write(DataClass::OutputFeature, state_bytes);
    }
    cost.push(Phase::RnnB, ops_b, tb);
    *state = next;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fused_forward;
    use crate::{Algorithm, ModelConfig};
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
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
