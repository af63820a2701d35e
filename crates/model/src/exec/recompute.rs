//! The recomputing execution algorithm (paper Fig. 4a): every snapshot runs
//! through the entire layer-by-layer DGNN pipeline.

use idgnn_graph::GraphSnapshot;
use idgnn_sparse::{CsrMatrix, DenseMatrix, OpStats};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::exec::charge_rnn;
use crate::lstm::LstmState;
use crate::DgnnModel;

/// A Recompute lane's resident state: the RNN state and the last
/// snapshot's output and cost. Every snapshot, the first included, runs the
/// same full pipeline over the walk's `Â^t`.
pub(crate) struct Recompute {
    mem: MemoryModel,
    state: Option<LstmState>,
    z: Option<DenseMatrix>,
    pub(crate) cost: SnapshotCost,
}

impl Recompute {
    /// Runs snapshot 0, whose operator is `a_norm`.
    pub(crate) fn start(
        model: &DgnnModel,
        mem: MemoryModel,
        state: Option<LstmState>,
        snap: &GraphSnapshot,
        a_norm: &CsrMatrix,
    ) -> Result<Self> {
        let mut lane = Self { mem, state, z: None, cost: SnapshotCost::default() };
        lane.advance(model, snap, a_norm)?;
        Ok(lane)
    }

    /// `Z^t` (on a [`SinkReads::Outputs`](crate::exec::SinkReads) walk) and
    /// the RNN state after consuming it.
    pub(crate) fn outputs(&self) -> (Option<&DenseMatrix>, Option<&LstmState>) {
        (self.z.as_ref(), self.state.as_ref())
    }

    /// Runs the snapshot `snap`, whose operator is `a_norm`.
    pub(crate) fn advance(
        &mut self,
        model: &DgnnModel,
        snap: &GraphSnapshot,
        a_norm: &CsrMatrix,
    ) -> Result<()> {
        let dims = model.dims();
        let v = snap.num_vertices();
        let mut cost = SnapshotCost::default();

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
        // kernel execution" when they fit. The counts follow `Â^t`'s row
        // lengths and the layer shapes, so the layers run only when the
        // sink reads `Z`.
        let layer_ops = model.gcn().layer_ops(a_norm);
        let num_layers = layer_ops.len();
        let z_spilled = !self.mem.fits(
            dense_bytes(v, dims.gnn_out_dim) + 2 * dense_bytes(v, dims.rnn_hidden_dim),
        );
        for (l, (ag_ops, cb_ops)) in layer_ops.into_iter().enumerate() {
            let mut ag_traffic = Traffic::none();
            if l > 0 {
                // Re-read the previous layer's intermediate features.
                ag_traffic.read(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
            }
            cost.push(Phase::Aggregation, ag_ops, ag_traffic);

            let mut cb_traffic = Traffic::none();
            if l + 1 == num_layers {
                if z_spilled {
                    cb_traffic.write(DataClass::OutputFeature, dense_bytes(v, dims.gnn_out_dim));
                }
            } else {
                cb_traffic.write(DataClass::Intermediate, dense_bytes(v, dims.gnn_out_dim));
            }
            cost.push(Phase::Combination, cb_ops, cb_traffic);
        }
        // The last snapshot's `Z` is never read again: it drops before the
        // next one is computed.
        self.z = None;
        if self.state.is_some() {
            self.z = Some(model.gcn().forward(a_norm, snap.features())?);
        }

        // RNN over all vertices. State spills if it does not fit alongside Z.
        charge_rnn(model, v, self.z.as_ref().zip(self.state.as_mut()), &self.mem, &mut cost)?;
        self.cost = cost;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DATA_CLASSES;
    use crate::{Algorithm, ModelConfig};
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::DynamicGraph;

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
