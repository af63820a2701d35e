//! DGNN-Booster (FCCM'23): a generic FPGA DGNN inference framework using a
//! message-passing GNN kernel and the **recomputing** paradigm, with a
//! **snapshot-level pipeline**: while snapshot `t`'s RNN drains, snapshot
//! `t+1`'s GNN fills.
//!
//! Modelled per the paper's scaling rule (same multipliers / storage /
//! frequency / bandwidth). The message-passing dataflow broadcasts vertex
//! messages without the torus rotation's locality, and the two pipeline
//! stages each own half of the compute fabric.

use idgnn_core::{PipelineSchedule, SimReport};
use idgnn_graph::DynamicGraph;
use idgnn_hw::{overlap_cycles, AcceleratorConfig, Engine, Topology, TrafficPattern};
use idgnn_model::{exec, Algorithm, DgnnModel, ExecutionResult, Phase};

use crate::common::{assemble, memory, time_snapshots, PhasePolicy};
use crate::error::Result;

/// The DGNN-Booster baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Booster {
    engine: Engine,
}

impl Booster {
    /// Builds DGNN-Booster with the iso-resource scaling rule; the FPGA
    /// interconnect is modelled as a mesh of message-passing lanes.
    ///
    /// # Errors
    ///
    /// Returns a hardware error for a malformed configuration.
    pub fn new(reference: AcceleratorConfig) -> Result<Self> {
        let mut config = reference;
        config.topology = Topology::Mesh { rows: reference.pe_rows, cols: reference.pe_cols };
        Ok(Self { engine: Engine::new(config)? })
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        self.engine.config()
    }

    /// Simulates the workload.
    ///
    /// # Errors
    ///
    /// Propagates functional or hardware-model errors.
    pub fn simulate(&self, model: &DgnnModel, dg: &DynamicGraph) -> Result<SimReport> {
        let result = exec::run_costs(Algorithm::Recompute, model, dg, &memory(self.config()))?;
        Ok(self.time(model, dg, &result))
    }

    /// Times a Recompute execution of `model` over `dg` on DGNN-Booster. The
    /// execution must have run under this accelerator's memory model
    /// (its whole on-chip storage), as [`Booster::simulate`] runs it.
    pub fn time(
        &self,
        model: &DgnnModel,
        dg: &DynamicGraph,
        result: &ExecutionResult,
    ) -> SimReport {
        // Two pipeline stages, each with half the fabric.
        let schedule = PipelineSchedule::even();

        let (sims, util) = time_snapshots(
            &self.engine,
            model,
            dg,
            result,
            schedule,
            |phase, volume| match phase {
                Phase::AComb | Phase::Aggregation | Phase::Combination | Phase::WComb => {
                    PhasePolicy {
                        share: 0.5,
                        efficiency: 0.88,
                        noc_bytes: if phase == Phase::Aggregation { volume } else { 0 },
                        // Message passing: vertex messages broadcast to
                        // neighbour lanes.
                        noc_pattern: TrafficPattern::Broadcast,
                    }
                }
                Phase::RnnA | Phase::RnnB => PhasePolicy {
                    share: 0.5,
                    efficiency: 0.95,
                    noc_bytes: 0,
                    noc_pattern: TrafficPattern::GlobalBuffer,
                },
                _ => PhasePolicy {
                    share: 1.0,
                    efficiency: 1.0,
                    noc_bytes: 0,
                    noc_pattern: TrafficPattern::GlobalBuffer,
                },
            },
        );
        // Snapshot-level pipeline: GNN(t+1) overlaps the whole RNN(t).
        let stages: Vec<(f64, f64)> = sims
            .iter()
            .map(|s| (s.frontend_cycles + s.gnn_cycles, s.rnn_a_cycles + s.rnn_b_cycles))
            .collect();
        let total = overlap_cycles(&stages);
        assemble(sims, total, result.total_ops(), util)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{small_config, workload};

    #[test]
    fn snapshot_pipeline_beats_serial() {
        let (model, dg) = workload();
        let rep = Booster::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        assert!(rep.total_cycles <= rep.serial_cycles);
        assert!(rep.total_cycles > 0.0);
    }

    #[test]
    fn even_split_recorded() {
        let (model, dg) = workload();
        let rep = Booster::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        for s in &rep.snapshots {
            assert!((s.schedule.alpha - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn uses_mesh_topology() {
        let b = Booster::new(small_config()).unwrap();
        assert!(matches!(b.config().topology, Topology::Mesh { .. }));
    }
}
