//! The incremental execution algorithm (paper Fig. 4b, the RACE paradigm):
//! only vertices affected by the evolving graph are recomputed, layer by
//! layer, but every affected component still traverses the full pipeline and
//! the intermediate features of *both* snapshots must be retained.

use idgnn_graph::GraphSnapshot;
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix, OpStats};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::exec::{charge_rnn, Frame};
use crate::gcn::GcnLayer;
use crate::lstm::LstmState;
use crate::DgnnModel;

/// An Incremental lane's resident state: the RNN state, every layer's
/// output (kept, and so computed, only when the sink reads `Z`), whether
/// the reusable caches spill, and the last snapshot's cost. Each transition
/// traverses the affected rows of the walk's `Â^t` from its `ΔÂ`.
pub(crate) struct Incremental {
    mem: MemoryModel,
    state: Option<LstmState>,
    layer_outs: Option<Vec<DenseMatrix>>,
    cache_spilled: bool,
    pub(crate) cost: SnapshotCost,
}

impl Incremental {
    /// Snapshot 0: the full pipeline over `a0`, caching every layer's
    /// output.
    pub(crate) fn start(
        model: &DgnnModel,
        mem: MemoryModel,
        mut state: Option<LstmState>,
        snap: &GraphSnapshot,
        a0: &CsrMatrix,
    ) -> Result<Self> {
        let dims = model.dims();
        let v = snap.num_vertices();
        let l_count = dims.gnn_layers;
        let mut cost0 = SnapshotCost::default();
        let mut front = Traffic::none();
        front.read(DataClass::Weight, model.weight_bytes());
        front.read(DataClass::Graph, a0.csr_bytes());
        front.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));
        cost0.push(Phase::Diu, OpStats::default(), front);

        // The incremental paradigm stages the per-layer intermediates of
        // *both* the previous and the current snapshot through DRAM
        // (§III-A-2, §VI-C) — that duplication is the paper's core criticism
        // of it. The reusable dense caches (X_0, Z, RNN state) stay on-chip
        // only if the whole set, including the duplicated intermediates,
        // fits.
        let cache_bytes = dense_bytes(v, dims.input_dim)
            + 2 * l_count as u64 * dense_bytes(v, dims.gnn_out_dim)
            + dense_bytes(v, dims.gnn_out_dim)
            + 2 * dense_bytes(v, dims.rnn_hidden_dim)
            + model.weight_bytes();
        let cache_spilled = !mem.fits(cache_bytes);

        // The counts follow `Â^0`'s row lengths and the layer shapes; the
        // layer outputs are kept (and so computed) only when the sink reads
        // `Z`, since no later count depends on their values.
        for (l, (ag, cb)) in model.gcn().layer_ops(a0).into_iter().enumerate() {
            cost0.push(Phase::Aggregation, ag, Traffic::none());
            let mut t = Traffic::none();
            if l + 1 == l_count {
                if cache_spilled {
                    t.write(DataClass::OutputFeature, dense_bytes(v, dims.gnn_out_dim));
                }
            } else {
                t.write(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
            }
            cost0.push(Phase::Combination, cb, t);
        }
        let layer_outs = match state {
            Some(_) => Some(model.gcn().forward_all_layers(a0, snap.features())?.0),
            None => None,
        };
        let z = layer_outs.as_ref().and_then(|outs| outs.last());
        charge_rnn(model, v, z.zip(state.as_mut()), &mem, &mut cost0)?;
        Ok(Self { mem, state, layer_outs, cache_spilled, cost: cost0 })
    }

    /// `Z^t` (on a [`SinkReads::Outputs`](crate::exec::SinkReads) walk) and
    /// the RNN state after consuming it.
    pub(crate) fn outputs(&self) -> (Option<&DenseMatrix>, Option<&LstmState>) {
        (self.layer_outs.as_ref().and_then(|outs| outs.last()), self.state.as_ref())
    }

    /// One transition: affected-set propagation over `Â^t` from `ΔÂ`.
    pub(crate) fn advance(&mut self, model: &DgnnModel, frame: &Frame<'_>) -> Result<()> {
        let Self { mem, state, layer_outs, cache_spilled, cost: last_cost } = self;
        let cache_spilled = *cache_spilled;
        let dims = model.dims();
        let l_count = dims.gnn_layers;
        // The cached X_0 is the current snapshot's own feature matrix, so
        // the replaced snapshot is not read.
        let updates = frame.delta.feature_updates();
        let x0 = frame.snapshot.features();
        let v = frame.snapshot.num_vertices();
        let mut cost = SnapshotCost::default();
        let a_next = frame.operator;
        let d_op = frame.operator_delta()?;

        // DIU: read the structural delta, the changed input features, and
        // (every snapshot, per the paper) the weights.
        // `affected` marks the rows whose layer input changed; the first
        // layer's input is X_0, so it starts as the changed feature rows.
        let mut affected = vec![false; v];
        let mut affected_count = 0;
        for u in updates {
            if !std::mem::replace(&mut affected[u.vertex], true) {
                affected_count += 1;
            }
        }
        let mut front = Traffic::none();
        front.read(DataClass::Weight, model.weight_bytes());
        front.read(DataClass::Graph, d_op.csr_bytes());
        front.read(DataClass::InputFeature, dense_bytes(affected_count, dims.input_dim));
        cost.push(Phase::Diu, OpStats::default(), front);

        let structural: Vec<bool> = (0..v).map(|r| d_op.row_nnz(r) > 0).collect();
        // Rows of the previous layer that must be gathered this layer —
        // each is fetched once (the engine buffers rows within a layer).
        let mut needed = vec![false; v];

        for l in 0..l_count {
            let in_dim = if l == 0 { dims.input_dim } else { dims.gnn_out_dim };
            // When executing, layer l reads layer l−1 (X_0 for the first)
            // and overwrites its own affected rows in place.
            let mut layer = layer_outs.as_mut().map(|outs| {
                let (done, rest) = outs.split_at_mut(l);
                (done.last().unwrap_or(x0), &mut rest[0])
            });

            // Frontier expansion: rows whose structure changed, plus rows
            // adjacent (in Â^{t+1}) to any vertex whose layer-(l) input
            // changed. `rows` lists them in ascending order. The row set,
            // the gathered rows and so every count are structural.
            let mut next_affected = structural.clone();
            let mut rows = Vec::new();
            for (r, mark) in next_affected.iter_mut().enumerate() {
                if *mark || a_next.row_indices(r).iter().any(|&c| affected[c]) {
                    *mark = true;
                    rows.push(r);
                }
            }

            let gcn_layer = &model.gcn().layers()[l];
            let mut ag_t = Traffic::none();
            let mut cb_t = Traffic::none();
            let mut agg = vec![0.0f32; in_dim];
            let mut out = vec![0.0f32; dims.gnn_out_dim];
            needed.fill(false);
            let mut needed_count = 0;

            for &r in &rows {
                for &c in a_next.row_indices(r) {
                    if !std::mem::replace(&mut needed[c], true) {
                        needed_count += 1;
                    }
                }
                if l == 0 && cache_spilled {
                    ag_t.read(DataClass::Graph, a_next.row_nnz(r) as u64 * 8);
                }
                if let Some((prev_layer, out_layer)) = layer.as_mut() {
                    recompute_row(a_next, r, prev_layer, gcn_layer, &mut agg, &mut out, out_layer);
                }
            }
            let ag_ops = ops::spmm_rows_stats(a_next, rows.iter().copied(), in_dim);
            let cb_ops =
                OpStats::gemm(rows.len() as u64, dims.gnn_out_dim as u64, in_dim as u64);
            let row_bytes = (rows.len() * dims.gnn_out_dim) as u64 * 4;
            if l + 1 == l_count {
                if cache_spilled {
                    cb_t.write(DataClass::OutputFeature, row_bytes);
                }
            } else {
                cb_t.write(DataClass::Intermediate, row_bytes);
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

        // RNN still consumes the *full* Z; unchanged rows come back from the
        // cached copy (DRAM if the caches spilled).
        if cache_spilled {
            let unchanged = v.saturating_sub(affected_count);
            let mut t_read = Traffic::none();
            t_read.read(DataClass::OutputFeature, dense_bytes(unchanged, dims.gnn_out_dim));
            cost.push(Phase::Diu, OpStats::default(), t_read);
        }
        let z = layer_outs.as_ref().and_then(|outs| outs.last());
        charge_rnn(model, v, z.zip(state.as_mut()), mem, &mut cost)?;
        *last_cost = cost;
        Ok(())
    }
}

/// Recomputes row `r` of one layer in place,
/// `out_layer[r] = σ((Â^{t+1}·prev)[r] · W)`: the aggregate sums the row's
/// entries in stored order, and each output sums over ascending `i` from
/// 0.0, reading `W` row by row. `agg` and `out` are scratch rows of the
/// layer's input and output width.
fn recompute_row(
    a_next: &CsrMatrix,
    r: usize,
    prev_layer: &DenseMatrix,
    layer: &GcnLayer,
    agg: &mut [f32],
    out: &mut [f32],
    out_layer: &mut DenseMatrix,
) {
    agg.fill(0.0);
    for (c, w) in a_next.row_iter(r) {
        for (o, &x) in agg.iter_mut().zip(prev_layer.row(c)) {
            *o += w * x;
        }
    }
    out.fill(0.0);
    for (i, &a) in agg.iter().enumerate() {
        for (o, &w) in out.iter_mut().zip(layer.weight().row(i)) {
            *o += a * w;
        }
    }
    let linear = layer.activation().is_linear();
    for (c, &acc) in out.iter().enumerate() {
        out_layer.set(r, c, if linear { acc } else { acc.max(0.0) });
    }
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
