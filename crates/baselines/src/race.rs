//! RACE (TACO'23): a redundancy-aware DGNN accelerator running the
//! **incremental** algorithm on a **heterogeneous** architecture: a GNN
//! engine and an RNN engine, each with half the PEs, connected internally by
//! a crossbar (paper §VI-A: "the computation resources are divided into two
//! groups with the same number of PEs for the two engines").
//!
//! The fixed 50/50 engine split is RACE's Achilles heel in the paper's
//! analysis: when the GNN and RNN workloads are imbalanced (PubMed's small
//! vertex-to-edge ratio), one engine idles. The incremental algorithm also
//! writes/reads the intermediate features of both snapshots through DRAM —
//! over 60 % of its DRAM volume (§VI-D).

use idgnn_core::{PipelineSchedule, SimReport};
use idgnn_graph::DynamicGraph;
use idgnn_hw::{overlap_cycles, AcceleratorConfig, Engine, Topology, TrafficPattern};
use idgnn_model::{exec, Algorithm, DgnnModel, ExecutionResult, Phase};

use crate::common::{assemble, memory, time_snapshots, PhasePolicy};
use crate::error::Result;

/// The RACE baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Race {
    engine: Engine,
}

impl Race {
    /// Builds RACE with the iso-resource scaling rule; each engine's PEs sit
    /// behind a crossbar.
    ///
    /// # Errors
    ///
    /// Returns a hardware error for a malformed configuration.
    pub fn new(reference: AcceleratorConfig) -> Result<Self> {
        let mut config = reference;
        config.topology = Topology::Crossbar { ports: reference.num_pes() };
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
        let result = exec::run_costs(Algorithm::Incremental, model, dg, &memory(self.config()))?;
        Ok(self.time(model, dg, &result))
    }

    /// Times an Incremental execution of `model` over `dg` on RACE. The
    /// execution must have run under this accelerator's memory model
    /// (its whole on-chip storage), as [`Race::simulate`] runs it.
    pub fn time(
        &self,
        model: &DgnnModel,
        dg: &DynamicGraph,
        result: &ExecutionResult,
    ) -> SimReport {
        // Hard engine split: half the chip each, regardless of workload.
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
                        efficiency: 0.85,
                        noc_bytes: if phase == Phase::Aggregation { volume } else { 0 },
                        noc_pattern: TrafficPattern::AllToAll,
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
        // Engine-level pipeline: the RNN engine processes snapshot t while
        // the GNN engine works on t+1.
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
    fn uses_crossbar_topology() {
        let r = Race::new(small_config()).unwrap();
        assert!(matches!(r.config().topology, Topology::Crossbar { .. }));
    }

    #[test]
    fn incremental_algorithm_does_fewer_ops_than_ready() {
        let (model, dg) = workload();
        let race = Race::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        let ready =
            crate::Ready::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        assert!(race.ops.total() < ready.ops.total());
    }

    #[test]
    fn engine_pipeline_beats_serial() {
        let (model, dg) = workload();
        let rep = Race::new(small_config()).unwrap().simulate(&model, &dg).unwrap();
        assert!(rep.total_cycles <= rep.serial_cycles);
    }
}
