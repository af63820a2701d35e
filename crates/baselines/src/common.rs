//! Shared machinery for the baseline accelerator models.
//!
//! Per the paper's methodology (§VI-A "Baselines"), every baseline is scaled
//! to the same number of multipliers, on-chip storage, frequency, and
//! off-chip bandwidth as the I-DGNN instance it is compared against; the
//! differences are the execution algorithm, the interconnect, the resource
//! partitioning, and the pipeline granularity.

use idgnn_core::{SimReport, SnapshotSim};
use idgnn_graph::DynamicGraph;
use idgnn_hw::utilization::PhaseUtilization;
use idgnn_hw::{
    AccessPattern, EnergyBreakdown, Engine, PhaseWork, TrafficPattern,
};
use idgnn_model::{DgnnModel, Phase, SnapshotCost};

use crate::error::Result;
use idgnn_core::PipelineSchedule;

/// Per-phase policy of a baseline: MAC share, efficiency, NoC load.
pub(crate) struct PhasePolicy {
    /// MAC share granted to the phase.
    pub share: f64,
    /// Load-balance efficiency.
    pub efficiency: f64,
    /// NoC bytes attributed to the phase.
    pub noc_bytes: u64,
    /// NoC pattern.
    pub noc_pattern: TrafficPattern,
}

/// Times every phase of one snapshot with a per-phase policy closure and
/// accumulates a [`SnapshotSim`].
pub(crate) fn time_snapshot(
    engine: &Engine,
    cost: &SnapshotCost,
    schedule: PipelineSchedule,
    mut policy: impl FnMut(Phase) -> PhasePolicy,
    util_phases: &mut Vec<PhaseUtilization>,
) -> SnapshotSim {
    let mut frontend = 0.0;
    let mut gnn = 0.0;
    let mut rnn_a = 0.0;
    let mut rnn_b = 0.0;
    let mut energy = EnergyBreakdown::default();
    let mut dram = 0u64;
    for pc in &cost.phases {
        let p = policy(pc.phase);
        let pattern = match pc.phase {
            Phase::Diu | Phase::AComb | Phase::WComb => AccessPattern::Scattered,
            _ => AccessPattern::Streaming,
        };
        let w = PhaseWork {
            phase: pc.phase,
            ops: pc.ops,
            dram_read_bytes: pc.dram.total_reads(),
            dram_write_bytes: pc.dram.total_writes(),
            dram_pattern: pattern,
            noc_bytes: p.noc_bytes,
            noc_pattern: p.noc_pattern,
            mac_share: p.share,
            parallel_efficiency: p.efficiency,
            reconfigure: false,
        };
        let timing = engine.phase_timing(&w);
        let cycles = timing.total_cycles();
        match pc.phase {
            Phase::AComb | Phase::Aggregation | Phase::Combination => gnn += cycles,
            Phase::RnnA => rnn_a += cycles,
            Phase::RnnB => rnn_b += cycles,
            _ => frontend += cycles,
        }
        energy = energy + engine.phase_energy(&w);
        dram += w.dram_bytes();
        util_phases.push(PhaseUtilization {
            timing,
            mac_utilization: p.share * p.efficiency,
            buffer_delta: (w.dram_bytes() as f64 / engine.config().glb_bytes as f64).min(0.35),
        });
    }
    SnapshotSim {
        frontend_cycles: frontend,
        gnn_cycles: gnn,
        rnn_a_cycles: rnn_a,
        rnn_b_cycles: rnn_b,
        energy,
        dram_bytes: dram,
        schedule,
    }
}

/// Assembles the final report given per-snapshot sims and the pipelined
/// total computed by the baseline's own overlap rule.
pub(crate) fn assemble(
    snapshots: Vec<SnapshotSim>,
    total_cycles: f64,
    ops: idgnn_sparse::OpStats,
    util_phases: Vec<PhaseUtilization>,
) -> SimReport {
    let serial_cycles = snapshots.iter().map(SnapshotSim::serial_cycles).sum();
    let energy = snapshots
        .iter()
        .fold(EnergyBreakdown::default(), |a, s| a + s.energy);
    let dram_bytes = snapshots.iter().map(|s| s.dram_bytes).sum();
    SimReport {
        snapshots,
        total_cycles,
        serial_cycles,
        energy,
        dram_bytes,
        ops,
        phases: util_phases,
    }
}

/// The aggregate data volume the GNN kernel moves on-chip for one snapshot:
/// the operator plus the full input features — baseline dataflows lack the
/// rotation locality, so this volume crosses the NoC with a non-local
/// pattern.
pub(crate) fn gnn_onchip_volume(model: &DgnnModel, dg: &DynamicGraph, t: usize) -> Result<u64> {
    let snaps = dg.materialize()?;
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let a = model.normalization().apply(snaps[t].adjacency());
    let dims = model.dims();
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    Ok(a.csr_bytes() + 4 * (snaps[t].num_vertices() * dims.input_dim) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_hw::AcceleratorConfig;
    use idgnn_model::{cost::Traffic, Phase};
    use idgnn_sparse::OpStats;

    #[test]
    fn time_snapshot_routes_phases_to_buckets() {
        let engine = Engine::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap();
        let mut cost = SnapshotCost::default();
        cost.push(Phase::Diu, OpStats { mults: 100, adds: 100 }, Traffic::none());
        cost.push(Phase::Aggregation, OpStats { mults: 1000, adds: 1000 }, Traffic::none());
        cost.push(Phase::RnnA, OpStats { mults: 500, adds: 500 }, Traffic::none());
        cost.push(Phase::RnnB, OpStats { mults: 700, adds: 700 }, Traffic::none());
        let mut util = Vec::new();
        let sim = time_snapshot(
            &engine,
            &cost,
            PipelineSchedule::even(),
            |_| PhasePolicy {
                share: 1.0,
                efficiency: 1.0,
                noc_bytes: 0,
                noc_pattern: TrafficPattern::Broadcast,
            },
            &mut util,
        );
        assert!(sim.frontend_cycles > 0.0);
        assert!(sim.gnn_cycles > 0.0);
        assert!(sim.rnn_a_cycles > 0.0);
        assert!(sim.rnn_b_cycles > 0.0);
        assert_eq!(util.len(), 4);
        assert!(sim.serial_cycles() > 0.0);
    }

    #[test]
    fn assemble_sums_components() {
        let engine = Engine::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap();
        let mut cost = SnapshotCost::default();
        cost.push(Phase::Aggregation, OpStats { mults: 100, adds: 100 }, Traffic::none());
        let mut util = Vec::new();
        let sim = time_snapshot(
            &engine,
            &cost,
            PipelineSchedule::even(),
            |_| PhasePolicy {
                share: 0.5,
                efficiency: 1.0,
                noc_bytes: 0,
                noc_pattern: TrafficPattern::Broadcast,
            },
            &mut util,
        );
        let report = assemble(vec![sim.clone(), sim], 123.0, OpStats::default(), util);
        assert_eq!(report.total_cycles, 123.0);
        assert_eq!(report.snapshots.len(), 2);
        assert!(report.serial_cycles > 0.0);
    }
}
