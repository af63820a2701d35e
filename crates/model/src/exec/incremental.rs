//! The incremental execution algorithm (paper Fig. 4b, the RACE paradigm):
//! only vertices affected by the evolving graph are recomputed, layer by
//! layer, but every affected component still traverses the full pipeline and
//! the intermediate features of *both* snapshots must be retained.

use idgnn_graph::DynamicGraph;
use idgnn_sparse::{ops, DenseMatrix, OpStats};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::exec::{ExecutionResult, SnapshotOutput};
use crate::lstm::LstmState;
use crate::DgnnModel;

pub(crate) fn run(
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
) -> Result<ExecutionResult> {
    let snaps = dg.materialize()?;
    let dims = model.dims();
    let v = dg.initial().num_vertices();
    let l_count = dims.gnn_layers;

    let mut outputs = Vec::with_capacity(snaps.len());
    let mut costs = Vec::with_capacity(snaps.len());
    let mut state = LstmState::zeros(v, dims.rnn_hidden_dim);

    // ---- Snapshot 0: full pipeline, caching every layer's output. ----
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let mut a_prev = model.normalization().apply(snaps[0].adjacency());
    let mut operator_bytes = Vec::with_capacity(snaps.len());
    operator_bytes.push(a_prev.csr_bytes());
    let mut cost0 = SnapshotCost::default();
    let mut front = Traffic::none();
    front.read(DataClass::Weight, model.weight_bytes());
    front.read(DataClass::Graph, a_prev.csr_bytes());
    front.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));
    cost0.push(Phase::Diu, OpStats::default(), front);

    // The incremental paradigm stages the per-layer intermediates of *both*
    // the previous and the current snapshot through DRAM (§III-A-2, §VI-C) —
    // that duplication is the paper's core criticism of it. The reusable
    // dense caches (X_0, Z, RNN state) stay on-chip only if the whole set,
    // including the duplicated intermediates, fits.
    let cache_bytes = dense_bytes(v, dims.input_dim)
        + 2 * l_count as u64 * dense_bytes(v, dims.gnn_out_dim)
        + dense_bytes(v, dims.gnn_out_dim)
        + 2 * dense_bytes(v, dims.rnn_hidden_dim)
        + model.weight_bytes();
    let cache_spilled = !mem.fits(cache_bytes);

    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let (mut layer_outs, layer_ops) = model.gcn().forward_all_layers(&a_prev, snaps[0].features())?;
    for (l, (ag, cb)) in layer_ops.iter().enumerate() {
        cost0.push(Phase::Aggregation, *ag, Traffic::none());
        let mut t = Traffic::none();
        if l + 1 == l_count {
            if cache_spilled {
                t.write(DataClass::OutputFeature, dense_bytes(v, dims.gnn_out_dim));
            }
        } else {
            t.write(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
        }
        cost0.push(Phase::Combination, *cb, t);
    }
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let mut x0_cache = snaps[0].features().clone();
    // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
    let mut z = layer_outs.last().expect("non-empty").clone();

    push_rnn(model, &z, &mut state, v, dims.rnn_hidden_dim, mem, &mut cost0)?;
    outputs.push(SnapshotOutput { z: z.clone(), state: state.clone() });
    costs.push(cost0);

    // ---- Subsequent snapshots: affected-set propagation. ----
    for (t, snap) in snaps.iter().enumerate().skip(1) {
        let mut cost = SnapshotCost::default();
        let a_next = model.normalization().apply(snap.adjacency());
        operator_bytes.push(a_next.csr_bytes());
        let d_op = ops::sp_sub_pruned(&a_next, &a_prev)?;

        // DIU: read the structural delta, the changed input features, and
        // (every snapshot, per the paper) the weights.
        // lint: allow(panic-surface) -- snapshot `t ≥ 1` was built from delta `t − 1`
        let updates = dg.deltas()[t - 1].feature_updates();
        // `affected` marks the rows whose layer input changed; the first
        // layer's input is X_0, so it starts as the changed feature rows.
        let mut affected = vec![false; v];
        let mut affected_count = 0;
        for u in updates {
            // lint: allow(panic-surface) -- `materialize` validated every update's vertex against V
            if !std::mem::replace(&mut affected[u.vertex], true) {
                affected_count += 1;
            }
        }
        let mut front = Traffic::none();
        front.read(DataClass::Weight, model.weight_bytes());
        front.read(DataClass::Graph, d_op.csr_bytes());
        front.read(DataClass::InputFeature, dense_bytes(affected_count, dims.input_dim));
        cost.push(Phase::Diu, OpStats::default(), front);

        // Refresh the cached X_0 rows.
        for u in updates {
            for c in 0..dims.input_dim {
                x0_cache.set(u.vertex, c, snap.features().get(u.vertex, c));
            }
        }

        let structural: Vec<bool> = (0..v).map(|r| d_op.row_nnz(r) > 0).collect();
        // Rows of the previous layer that must be gathered this layer —
        // each is fetched once (the engine buffers rows within a layer).
        let mut needed = vec![false; v];

        for l in 0..l_count {
            let in_dim = if l == 0 { dims.input_dim } else { dims.gnn_out_dim };
            // Layer l reads layer l−1 (X_0 for the first) and overwrites its
            // own affected rows in place.
            let (done, rest) = layer_outs.split_at_mut(l);
            let prev_layer: &DenseMatrix = match done.last() {
                Some(prev) => prev,
                None => &x0_cache,
            };
            // lint: allow(panic-surface) -- `l < l_count == layer_outs.len()`
            let out_layer = &mut rest[0];

            // Frontier expansion: rows whose structure changed, plus rows
            // adjacent (in Â^{t+1}) to any vertex whose layer-(l) input
            // changed. `rows` lists them in ascending order.
            let mut next_affected = structural.clone();
            let mut rows = Vec::new();
            for (r, mark) in next_affected.iter_mut().enumerate() {
                // lint: allow(panic-surface) -- CSR column indices are < V by construction
                if *mark || a_next.row_indices(r).iter().any(|&c| affected[c]) {
                    *mark = true;
                    rows.push(r);
                }
            }

            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            let weight = model.gcn().layers()[l].weight();
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            let activation = model.gcn().layers()[l].activation();
            let mut ag_ops = OpStats::default();
            let mut cb_ops = OpStats::default();
            let mut ag_t = Traffic::none();
            let mut cb_t = Traffic::none();
            let mut agg = vec![0.0f32; in_dim];
            let mut out = vec![0.0f32; dims.gnn_out_dim];
            needed.fill(false);
            let mut needed_count = 0;

            for &r in &rows {
                let nnz = a_next.row_nnz(r) as u64;
                agg.fill(0.0);
                for (c, w) in a_next.row_iter(r) {
                    let src = prev_layer.row(c);
                    for (o, &x) in agg.iter_mut().zip(src) {
                        *o += w * x;
                    }
                    // lint: allow(panic-surface) -- CSR column indices are < V by construction
                    if !std::mem::replace(&mut needed[c], true) {
                        needed_count += 1;
                    }
                }
                ag_ops.mults += nnz * in_dim as u64;
                ag_ops.adds += nnz.saturating_sub(1) * in_dim as u64;
                if l == 0 && cache_spilled {
                    ag_t.read(DataClass::Graph, nnz * 8);
                }

                // `out = agg · W`, each output summed over ascending `i`
                // from 0.0, reading W row by row.
                out.fill(0.0);
                for (i, &a) in agg.iter().enumerate() {
                    for (o, &w) in out.iter_mut().zip(weight.row(i)) {
                        *o += a * w;
                    }
                }
                for (c, &acc) in out.iter().enumerate() {
                    out_layer.set(r, c, if activation.is_linear() { acc } else { acc.max(0.0) });
                }
                cb_ops.mults += (in_dim * dims.gnn_out_dim) as u64;
                cb_ops.adds += ((in_dim.saturating_sub(1)) * dims.gnn_out_dim) as u64;
                if l + 1 == l_count {
                    if cache_spilled {
                        cb_t.write(DataClass::OutputFeature, dims.gnn_out_dim as u64 * 4);
                    }
                } else {
                    cb_t.write(DataClass::Intermediate, dims.gnn_out_dim as u64 * 4);
                }
            }
            // The gathered source rows: input features come from the on-chip
            // cache unless it spilled; intermediate rows live in DRAM by
            // paradigm and are fetched once each.
            if l == 0 {
                if cache_spilled {
                    ag_t.read(
                        DataClass::InputFeature,
                        (needed_count * in_dim) as u64 * 4,
                    );
                }
            } else {
                ag_t.read(DataClass::Intermediate, (needed_count * in_dim) as u64 * 4);
            }
            cost.push(Phase::Aggregation, ag_ops, ag_t);
            cost.push(Phase::Combination, cb_ops, cb_t);
            affected = next_affected;
            affected_count = rows.len();
        }
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        z = layer_outs.last().expect("non-empty").clone();

        // RNN still consumes the *full* Z; unchanged rows come back from the
        // cached copy (DRAM if the caches spilled).
        if cache_spilled {
            let unchanged = v.saturating_sub(affected_count);
            let mut t_read = Traffic::none();
            t_read.read(DataClass::OutputFeature, dense_bytes(unchanged, dims.gnn_out_dim));
            cost.push(Phase::Diu, OpStats::default(), t_read);
        }
        push_rnn(model, &z, &mut state, v, dims.rnn_hidden_dim, mem, &mut cost)?;
        outputs.push(SnapshotOutput { z: z.clone(), state: state.clone() });
        costs.push(cost);
        a_prev = a_next;
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

/// Re-exported for tests: the structural rows of an operator delta.
#[cfg(test)]
pub(crate) fn structural_rows(d: &idgnn_sparse::CsrMatrix) -> Vec<usize> {
    (0..d.rows()).filter(|&r| d.row_nnz(r) > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn matches_recompute_exactly_with_relu() {
        // Incremental computing is exact for any activation: unaffected rows
        // are provably unchanged.
        let (model, dg) = setup(crate::Activation::Relu);
        let mem = MemoryModel::default();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for (a, b) in inc.outputs.iter().zip(&rec.outputs) {
            assert!(
                a.z.approx_eq(&b.z, 1e-4),
                "Z diverged: {}",
                a.z.max_abs_diff(&b.z).unwrap()
            );
            assert!(a.state.h.approx_eq(&b.state.h, 1e-4));
        }
    }

    #[test]
    fn matches_recompute_exactly_with_linear() {
        let (model, dg) = setup(crate::Activation::Linear);
        let mem = MemoryModel::default();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for (a, b) in inc.outputs.iter().zip(&rec.outputs) {
            assert!(a.z.approx_eq(&b.z, 1e-4));
        }
    }

    #[test]
    fn fewer_gnn_ops_than_recompute_after_first_snapshot() {
        let (model, dg) = setup(crate::Activation::Relu);
        let mem = MemoryModel::default();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for t in 1..inc.costs.len() {
            assert!(
                inc.costs[t].gnn_ops().total() < rec.costs[t].gnn_ops().total(),
                "snapshot {t}: inc {} !< rec {}",
                inc.costs[t].gnn_ops().total(),
                rec.costs[t].gnn_ops().total()
            );
        }
    }

    #[test]
    fn rnn_ops_match_recompute() {
        // The RNN workload is identical across algorithms.
        let (model, dg) = setup(crate::Activation::Relu);
        let mem = MemoryModel::default();
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let rec = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        for t in 0..inc.costs.len() {
            assert_eq!(inc.costs[t].rnn_ops(), rec.costs[t].rnn_ops());
        }
    }

    #[test]
    fn spilled_run_reads_intermediates_from_dram() {
        let (model, dg) = setup(crate::Activation::Relu);
        let tight = MemoryModel { onchip_bytes: 64 };
        let inc = crate::exec::run(Algorithm::Incremental, &model, &dg, &tight).unwrap();
        let t = inc.total_dram();
        assert!(t.of(DataClass::Intermediate) > 0);
        assert!(t.of(DataClass::OutputFeature) > 0);
    }

    #[test]
    fn structural_rows_helper() {
        let mut coo = idgnn_sparse::CooMatrix::new(4, 4);
        coo.push_symmetric(1, 3, 1.0).unwrap();
        assert_eq!(structural_rows(&coo.to_csr()), vec![1, 3]);
    }
}
