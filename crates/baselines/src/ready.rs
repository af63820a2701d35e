//! ReaDy (TCAD'22): a DGNN accelerator with a hierarchical **mesh** PE array
//! shared by the GNN and RNN kernels, running the **recomputing** algorithm.
//!
//! Modelled per the paper's description (§VI-A): computation resources are
//! statically partitioned according to the kernel workload ratio measured on
//! the first snapshot; there is redundancy-free data scheduling inside one
//! snapshot, but every snapshot still traverses the whole pipeline and
//! inter-kernel (cross-snapshot) parallelism is not exploited, so snapshots
//! execute back-to-back. The paper models it in digital logic scaled to the
//! same multiplier count, storage, frequency, and bandwidth as I-DGNN.

use idgnn_core::{PipelineSchedule, SimReport};
use idgnn_graph::DynamicGraph;
use idgnn_hw::{AcceleratorConfig, Engine, Topology, TrafficPattern};
use idgnn_model::{exec, Algorithm, DgnnModel, ExecutionResult, Phase};

use crate::common::{assemble, memory, time_snapshots, PhasePolicy};
use crate::error::Result;

/// The ReaDy baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Ready {
    engine: Engine,
}

impl Ready {
    /// Builds ReaDy with the iso-resource scaling rule: same MACs, storage,
    /// frequency, and bandwidth; the interconnect becomes a mesh.
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

    /// Times a Recompute execution of `model` over `dg` on ReaDy. The
    /// execution must have run under this accelerator's memory model
    /// (its whole on-chip storage), as [`Ready::simulate`] runs it.
    pub fn time(
        &self,
        model: &DgnnModel,
        dg: &DynamicGraph,
        result: &ExecutionResult,
    ) -> SimReport {
        // Static workload-ratio partition from the first snapshot.
        let (g0, r0) = result.costs.first().map_or((1.0, 1.0), |c| {
            (c.gnn_ops().mults.max(1) as f64, c.rnn_ops().mults.max(1) as f64)
        });
        let schedule = PipelineSchedule::from_alpha(g0 / (g0 + r0));
        let (sims, util) = time_snapshots(
            &self.engine,
            model,
            dg,
            result,
            schedule,
            |phase, volume| match phase {
                Phase::AComb | Phase::Aggregation | Phase::Combination | Phase::WComb => {
                    PhasePolicy {
                        share: schedule.alpha,
                        efficiency: 0.85,
                        noc_bytes: if phase == Phase::Aggregation { volume } else { 0 },
                        // Vertex-group scheduling without ring locality:
                        // aggregation traffic crosses the mesh.
                        noc_pattern: TrafficPattern::AllToAll,
                    }
                }
                Phase::RnnA | Phase::RnnB => PhasePolicy {
                    share: schedule.beta,
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
        // No cross-snapshot overlap: snapshots run back-to-back.
        let total = sims.iter().map(|s| s.serial_cycles()).sum();
        assemble(sims, total, result.total_ops(), util)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{small_config, workload};

    #[test]
    fn builds_with_mesh_topology() {
        let r = Ready::new(small_config()).unwrap();
        assert!(matches!(r.config().topology, Topology::Mesh { .. }));
        assert_eq!(r.config().num_pes(), small_config().num_pes());
    }

    #[test]
    fn simulates_whole_stream() {
        let (model, dg) = workload();
        let rep = Ready::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        assert_eq!(rep.snapshots.len(), dg.num_snapshots());
        assert!(rep.total_cycles > 0.0);
        // No pipelining: total equals serial.
        assert!((rep.total_cycles - rep.serial_cycles).abs() < 1e-6);
    }

    #[test]
    fn recompute_reads_weights_every_snapshot() {
        let (model, dg) = workload();
        let rep = Ready::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        // DRAM bytes grow with every snapshot (front-end reload).
        assert!(rep.dram_bytes as f64 >= dg.num_snapshots() as f64 * model.weight_bytes() as f64);
    }
}
