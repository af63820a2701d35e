//! The recomputing execution algorithm (paper Fig. 4a): every snapshot runs
//! through the entire layer-by-layer DGNN pipeline.

use idgnn_graph::DynamicGraph;
use idgnn_sparse::OpStats;

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
    let mut state = LstmState::zeros(v, dims.rnn_hidden_dim);
    let mut outputs = Vec::with_capacity(snaps.len());
    let mut costs = Vec::with_capacity(snaps.len());
    let mut operator_bytes = Vec::with_capacity(snaps.len());

    for snap in &snaps {
        let mut cost = SnapshotCost::default();
        let a_norm = model.normalization().apply(snap.adjacency());
        operator_bytes.push(a_norm.csr_bytes());

        // Per-snapshot front-end traffic: the recompute paradigm re-reads
        // weights, the full graph, and all input features every snapshot.
        let mut front = Traffic::none();
        front.read(DataClass::Weight, model.weight_bytes());
        front.read(DataClass::Graph, a_norm.csr_bytes());
        front.read(DataClass::InputFeature, dense_bytes(v, dims.input_dim));
        cost.push(Phase::Diu, OpStats::default(), front);

        // GNN, layer by layer. The recompute paradigm stages each layer's
        // full output through DRAM (§VI-C: it "writes back the intermediate
        // features to the DRAM, and reads the intermediate features from the
        // DRAM for the execution of the following GNN layers") — this is a
        // property of the published dataflows, not of buffer capacity. Only
        // the *final* output features are "retained on-chip for the RNN
        // kernel execution" when they fit.
        let (layer_outs, layer_ops) = model.gcn().forward_all_layers(&a_norm, snap.features())?;
        let num_layers = layer_outs.len();
        let z_spilled = !mem.fits(
            dense_bytes(v, dims.gnn_out_dim) + 2 * dense_bytes(v, dims.rnn_hidden_dim),
        );
        for (l, (ag_ops, cb_ops)) in layer_ops.iter().enumerate() {
            let mut ag_traffic = Traffic::none();
            if l > 0 {
                // Re-read the previous layer's intermediate features.
                ag_traffic.read(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
            }
            cost.push(Phase::Aggregation, *ag_ops, ag_traffic);

            let mut cb_traffic = Traffic::none();
            if l + 1 == num_layers {
                if z_spilled {
                    cb_traffic.write(DataClass::OutputFeature, dense_bytes(v, dims.gnn_out_dim));
                }
            } else {
                cb_traffic.write(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
            }
            cost.push(Phase::Combination, *cb_ops, cb_traffic);
        }
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        let z = layer_outs.last().expect("stack is non-empty").clone();

        // RNN over all vertices. State spills if it does not fit alongside Z.
        let (a_pre, ops_a) = model.rnn_a(&state.h)?;
        let state_bytes = 2 * dense_bytes(v, dims.rnn_hidden_dim);
        let rnn_spilled = !mem.fits(state_bytes + dense_bytes(v, dims.gnn_out_dim));
        let mut rnn_a_traffic = Traffic::none();
        if rnn_spilled {
            rnn_a_traffic.read(DataClass::OutputFeature, dense_bytes(v, dims.rnn_hidden_dim));
        }
        cost.push(Phase::RnnA, ops_a, rnn_a_traffic);

        let (next_state, ops_b) = model.rnn_b(&z, &a_pre, &state)?;
        let mut rnn_b_traffic = Traffic::none();
        if rnn_spilled {
            rnn_b_traffic.read(DataClass::OutputFeature, dense_bytes(v, dims.rnn_hidden_dim));
            rnn_b_traffic.write(DataClass::OutputFeature, state_bytes);
        }
        cost.push(Phase::RnnB, ops_b, rnn_b_traffic);

        state = next_state;
        outputs.push(SnapshotOutput { z, state: state.clone() });
        costs.push(cost);
    }
    Ok(ExecutionResult { outputs, costs, operator_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DATA_CLASSES;
    use crate::{Algorithm, ModelConfig};
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};

    fn setup() -> (DgnnModel, DynamicGraph) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(30, 90, 6),
            &StreamConfig { deltas: 2, ..Default::default() },
            7,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 6,
            gnn_hidden: 5,
            gnn_layers: 3,
            rnn_hidden: 4,
            activation: crate::Activation::Relu,
            normalization: idgnn_graph::Normalization::Symmetric,
            seed: 3,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        (model, dg)
    }

    #[test]
    fn produces_one_output_per_snapshot() {
        let (model, dg) = setup();
        let r = crate::exec::run(Algorithm::Recompute, &model, &dg, &MemoryModel::default())
            .unwrap();
        assert_eq!(r.outputs.len(), 3);
        assert_eq!(r.costs.len(), 3);
        assert_eq!(r.outputs[0].z.shape(), (30, 5));
        assert_eq!(r.final_state().unwrap().hidden_dim(), 4);
    }

    #[test]
    fn weights_read_every_snapshot() {
        let (model, dg) = setup();
        let r = crate::exec::run(Algorithm::Recompute, &model, &dg, &MemoryModel::default())
            .unwrap();
        for c in &r.costs {
            assert_eq!(c.total_dram().reads_of(DataClass::Weight), model.weight_bytes());
        }
    }

    #[test]
    fn intermediates_round_trip_dram_by_paradigm() {
        // 3 layers → 2 intermediate boundaries, each written once and read
        // back once, per snapshot, regardless of on-chip capacity (§VI-C).
        let (model, dg) = setup();
        let per_layer = dense_bytes(30, 5);
        for mem in [MemoryModel::default(), MemoryModel { onchip_bytes: 16 }] {
            let r = crate::exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
            assert_eq!(r.total_dram().of(DataClass::Intermediate), 3 * (2 * 2 * per_layer));
        }
    }

    #[test]
    fn output_features_stay_onchip_when_they_fit() {
        let (model, dg) = setup();
        let r = crate::exec::run(Algorithm::Recompute, &model, &dg, &MemoryModel::default())
            .unwrap();
        assert_eq!(r.total_dram().of(DataClass::OutputFeature), 0);
    }

    #[test]
    fn costs_cover_every_class_under_pressure() {
        let (model, dg) = setup();
        let tight = MemoryModel { onchip_bytes: 0 };
        let r = crate::exec::run(Algorithm::Recompute, &model, &dg, &tight).unwrap();
        let t = r.total_dram();
        for c in DATA_CLASSES {
            assert!(t.of(c) > 0, "class {c} has no traffic");
        }
    }

    #[test]
    fn deterministic() {
        let (model, dg) = setup();
        let a = crate::exec::run(Algorithm::Recompute, &model, &dg, &MemoryModel::default())
            .unwrap();
        let b = crate::exec::run(Algorithm::Recompute, &model, &dg, &MemoryModel::default())
            .unwrap();
        assert_eq!(a, b);
    }
}
