//! First-order analytical latency / energy / area costing of one candidate.
//!
//! The ranking stage of the staged search scores every budget-feasible
//! candidate on three objectives, each summed over the evaluation shapes:
//!
//! * **Latency** — per shape, `max(compute, DRAM)` cycles at the config's
//!   clock. Compute cycles are the longer Fig. 8 pipeline leg,
//!   `max(T_G(α), T_RA(β)+T_RB(β))`, under the candidate's
//!   [`SchedulePolicy`]; DRAM cycles are modelled traffic over the peak
//!   bandwidth.
//! * **Energy** — MAC energy from the Eqs. 18–22 operation counts, on-chip
//!   energy (PE buffers, GLB, NoC byte-hops at the topology's mean hop
//!   count), off-chip DRAM energy, the §VI control fraction, plus static
//!   leakage (`area × `[`LEAKAGE_W_PER_MM2`]` × latency`).
//! * **Area** — the Fig. 19-calibrated [`AreaModel`] chip total.
//!
//! Traffic uses a log-damped re-fetch model: a per-PE operand slice that
//! overflows its buffer by a factor `r` is re-streamed `1 + ln(1 + r)`
//! times (hierarchical tiling absorbs most of the naive `⌈r⌉` passes), and
//! the GLB serves re-streams at its residency ratio, spilling the rest to
//! DRAM. The model is intentionally first-order: its purpose is a
//! *monotone, deterministic* ranking surface — bigger buffers strictly cut
//! traffic but strictly cost area (and leakage), more PEs strictly cut
//! compute time but strictly cost area and NoC hops — not cycle-accurate
//! absolutes (those come from `idgnn-core`'s simulator for single configs).

use idgnn_hw::budget::WorkloadShape;
use idgnn_hw::{
    AreaModel, EnergyBreakdown, EnergyModel, PipelineSchedule, PipelineScheduler,
    PipelineWorkload, Result,
};
use idgnn_sparse::OpStats;

use crate::space::{Candidate, SchedulePolicy};

/// Static leakage density, W/mm² (45 nm-class logic+SRAM average).
pub const LEAKAGE_W_PER_MM2: f64 = 0.05;

/// Bytes per CSR index / f32 value.
const WORD: f64 = 4.0;

/// The three Pareto objectives of one candidate (lower is better in all).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Total latency over the evaluation shapes, seconds.
    pub latency_s: f64,
    /// Total energy over the evaluation shapes, joules.
    pub energy_j: f64,
    /// Chip area, mm².
    pub area_mm2: f64,
}

impl Objectives {
    /// True when every objective is a finite number.
    pub fn is_finite(&self) -> bool {
        self.latency_s.is_finite() && self.energy_j.is_finite() && self.area_mm2.is_finite()
    }
}

/// The analytical cost model (energy + area constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-event dynamic energy constants.
    pub energy: EnergyModel,
    /// Per-unit area constants.
    pub area: AreaModel,
    /// Static leakage density, W/mm².
    pub leakage_w_per_mm2: f64,
}

impl CostModel {
    /// The 45 nm-class defaults shared with the rest of the workspace.
    pub fn tsmc45() -> Self {
        Self {
            energy: EnergyModel::tsmc45(),
            area: AreaModel::tsmc45(),
            leakage_w_per_mm2: LEAKAGE_W_PER_MM2,
        }
    }

    /// Scores `candidate` over `shapes`.
    ///
    /// # Errors
    ///
    /// Returns [`idgnn_hw::HwError::InvalidConfig`] for degenerate configurations
    /// (no PEs / no MACs) — the engine prunes those before ranking.
    pub fn evaluate(&self, candidate: &Candidate, shapes: &[WorkloadShape]) -> Result<Objectives> {
        let cfg = &candidate.config;
        cfg.validate()?;
        let area_mm2 = self.area.chip_breakdown(cfg).total_mm2();

        let mut latency_s = 0.0;
        let mut compute_pj = 0.0;
        let mut onchip_pj = 0.0;
        let mut offchip_pj = 0.0;
        for shape in shapes {
            let s = self.evaluate_shape(candidate, shape)?;
            latency_s += s.latency_s;
            compute_pj += s.compute_pj;
            onchip_pj += s.onchip_pj;
            offchip_pj += s.offchip_pj;
        }

        let dynamic = EnergyBreakdown::new(&self.energy, compute_pj, onchip_pj, offchip_pj);
        let leakage_j = area_mm2 * self.leakage_w_per_mm2 * latency_s;
        let energy_j = dynamic.total_pj() * 1e-12 + leakage_j;
        Ok(Objectives { latency_s, energy_j, area_mm2 })
    }

    fn evaluate_shape(&self, candidate: &Candidate, shape: &WorkloadShape) -> Result<ShapeCost> {
        let cfg = &candidate.config;
        let w = PipelineWorkload::for_shape(
            cfg,
            shape.vertices,
            shape.edges,
            shape.features,
            shape.gnn_width,
            shape.rnn_width,
        );
        let sched = match candidate.policy {
            SchedulePolicy::Analytical => PipelineScheduler.optimize(&w)?,
            SchedulePolicy::Even => PipelineSchedule::even(),
        };
        let compute_cycles =
            w.comp_t_gnn(sched.alpha).max(w.comp_t_rnn_a(sched.beta) + w.comp_t_rnn_b(sched.beta));

        // Operation counts: phase latencies at unit share are work / (M·macs),
        // so total MAC operations = Σ latency(1.0) × M × macs. Each MAC is
        // one multiply plus one add.
        let unit_work = w.comp_t_gnn(1.0) + w.comp_t_rnn_a(1.0) + w.comp_t_rnn_b(1.0);
        let macs_total = unit_work * (cfg.num_pes() as f64) * (cfg.macs_per_pe as f64);
        let ops = OpStats::counted(saturating_u64(macs_total), saturating_u64(macs_total));

        // Operand footprints (CSR graph, dense features, resident weights).
        let v = shape.vertices as f64;
        let graph_bytes = (shape.edges as f64) * 2.0 * WORD + (v + 1.0) * WORD;
        let feature_bytes = v * (shape.features as f64) * WORD;
        let weight_bytes = ((shape.features * shape.gnn_width
            + 4 * (shape.gnn_width + shape.rnn_width) * shape.rnn_width)
            as f64)
            * WORD;
        let snapshot_bytes = graph_bytes + feature_bytes + weight_bytes;

        // Log-damped re-streaming: per-PE slice vs its staging buffer.
        let pes = (cfg.num_pes() as f64).max(1.0);
        let gsb_refetch = refetch_factor(graph_bytes / pes, cfg.gsb_bytes as f64);
        let lb_refetch = refetch_factor(feature_bytes / pes, cfg.lb_bytes as f64);
        let glb_demand =
            graph_bytes * gsb_refetch + feature_bytes * lb_refetch + weight_bytes;

        // GLB residency absorbs re-streams; the rest (and every compulsory
        // first touch) comes from DRAM.
        let resident = (cfg.glb_bytes as f64 / snapshot_bytes.max(1.0)).min(1.0);
        let dram_bytes = snapshot_bytes + (glb_demand - snapshot_bytes).max(0.0) * (1.0 - resident);
        let dram_cycles = dram_bytes / cfg.dram_bytes_per_cycle().max(f64::MIN_POSITIVE);

        let latency_s = compute_cycles.max(dram_cycles) / (cfg.frequency_hz as f64);

        // Every GLB→PE byte is staged through a PE buffer (write + read) and
        // traverses the NoC at the topology's mean hop count.
        let onchip_pj = self.energy.onchip_pj(
            2.0 * glb_demand,
            glb_demand,
            glb_demand * cfg.topology.mean_hops(),
        );
        Ok(ShapeCost {
            latency_s,
            compute_pj: self.energy.compute_pj(ops),
            onchip_pj,
            offchip_pj: dram_bytes * self.energy.dram_pj_per_byte,
        })
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::tsmc45()
    }
}

/// Per-shape cost terms (latency plus the dynamic-energy components).
struct ShapeCost {
    latency_s: f64,
    compute_pj: f64,
    onchip_pj: f64,
    offchip_pj: f64,
}

/// `1 + ln(1 + slice/capacity)`: strictly decreasing in capacity, ≥ 1, and
/// smooth — a slice that fits re-streams ~once; an overflowing slice pays
/// logarithmically for each doubling of the overflow ratio.
fn refetch_factor(slice_bytes: f64, capacity_bytes: f64) -> f64 {
    1.0 + (1.0 + slice_bytes / capacity_bytes.max(1.0)).ln()
}

/// Clamps a non-negative f64 into u64 without overflow UB on huge values.
fn saturating_u64(x: f64) -> u64 {
    if x >= u64::MAX as f64 {
        u64::MAX
    } else if x > 0.0 {
        x as u64
    } else {
        0
    }
}

/// Convenience: errors if the candidate is degenerate, otherwise the
/// default model's objectives.
///
/// # Errors
///
/// See [`CostModel::evaluate`].
pub fn evaluate_default(candidate: &Candidate, shapes: &[WorkloadShape]) -> Result<Objectives> {
    CostModel::tsmc45().evaluate(candidate, shapes)
}

// Re-exported so callers can speak the error type without importing hw.
pub use idgnn_hw::HwError as CostError;

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_hw::budget::fig12_shapes;
    use idgnn_hw::{AcceleratorConfig, HwError};

    fn baseline() -> Candidate {
        Candidate {
            config: AcceleratorConfig::paper_default(),
            policy: SchedulePolicy::Analytical,
        }
    }

    #[test]
    fn baseline_objectives_are_finite_and_positive() {
        let o = evaluate_default(&baseline(), &fig12_shapes()).unwrap();
        assert!(o.is_finite());
        assert!(o.latency_s > 0.0 && o.energy_j > 0.0 && o.area_mm2 > 0.0);
    }

    #[test]
    fn even_policy_is_never_faster_than_analytical() {
        let shapes = fig12_shapes();
        let a = evaluate_default(&baseline(), &shapes).unwrap();
        let mut even = baseline();
        even.policy = SchedulePolicy::Even;
        let e = evaluate_default(&even, &shapes).unwrap();
        assert!(e.latency_s >= a.latency_s - 1e-15);
    }

    #[test]
    fn bigger_buffers_cut_energy_but_cost_area() {
        let shapes = fig12_shapes();
        let base = evaluate_default(&baseline(), &shapes).unwrap();
        let mut c = baseline();
        c.config.gsb_bytes *= 2;
        c.config.lb_bytes *= 2;
        let big = evaluate_default(&c, &shapes).unwrap();
        assert!(big.area_mm2 > base.area_mm2);
        assert!(big.energy_j < base.energy_j, "{} !< {}", big.energy_j, base.energy_j);
    }

    #[test]
    fn more_pes_cut_latency_but_cost_area() {
        let shapes = fig12_shapes();
        let base = evaluate_default(&baseline(), &shapes).unwrap();
        let mut c = baseline();
        c.config = c.config.with_pe_grid(64, 64);
        let big = evaluate_default(&c, &shapes).unwrap();
        assert!(big.area_mm2 > base.area_mm2);
        assert!(big.latency_s < base.latency_s);
    }

    #[test]
    fn degenerate_config_is_an_error() {
        let mut c = baseline();
        c.config.pe_rows = 0;
        assert!(matches!(
            evaluate_default(&c, &fig12_shapes()),
            Err(HwError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn refetch_factor_monotone_in_capacity() {
        let slice = 1e6;
        assert!(refetch_factor(slice, 1e5) > refetch_factor(slice, 2e5));
        assert!(refetch_factor(0.0, 1e5) >= 1.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let shapes = fig12_shapes();
        let a = evaluate_default(&baseline(), &shapes).unwrap();
        let b = evaluate_default(&baseline(), &shapes).unwrap();
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.area_mm2.to_bits(), b.area_mm2.to_bits());
    }
}
