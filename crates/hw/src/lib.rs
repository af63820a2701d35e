//! # idgnn-hw
//!
//! Hardware substrate for the I-DGNN reproduction (HPCA 2025): accelerator
//! configuration, PE microarchitecture, NoC models (torus / mesh / crossbar),
//! a banked DRAM timing model (the DRAMSim2 stand-in), 45 nm energy and area
//! models calibrated to the paper's Figs. 14/19, a phase-level timing engine,
//! and MAC/buffer utilization tracing (Fig. 18).
//!
//! ## Example
//!
//! Time a memory-bound aggregation phase on the paper's configuration:
//!
//! ```
//! # fn main() -> Result<(), idgnn_hw::HwError> {
//! use idgnn_hw::{AcceleratorConfig, Engine, PhaseWork};
//! use idgnn_model::Phase;
//! use idgnn_sparse::OpStats;
//!
//! let engine = Engine::new(AcceleratorConfig::paper_default())?;
//! let mut w = PhaseWork::compute(Phase::Aggregation, OpStats { mults: 1 << 20, adds: 1 << 20 });
//! w.dram_read_bytes = 64 << 20; // 64 MiB of feature traffic
//! let t = engine.phase_timing(&w);
//! assert!(t.dram_cycles > t.compute_cycles); // memory-bound
//! # Ok(())
//! # }
//! ```

mod area;
pub mod budget;
mod config;
mod dram;
mod energy;
mod engine;
mod error;
// Test-only oracles: cycle-stepped simulations that check `pe::mac_cycles`
// and `Topology::transfer_cycles`.
#[cfg(test)]
mod microsim;
#[cfg(test)]
mod ringsim;
mod noc;
mod pe;
pub mod schedule;

pub mod utilization;

pub use area::{AreaModel, ChipArea, PeArea};
pub use budget::{
    feasibility, fig12_shapes, tile_footprint, verify_config, verify_scaling, verify_schedule,
    verify_workload, worst_case_margins, BudgetMargins, Feasibility, PruneReason, TileFootprint,
    WorkloadShape, GNN_WIDTH, MAX_SCALE, RNN_WIDTH,
};
pub use config::{nearest_square_side, AcceleratorConfig};
pub use dram::{AccessPattern, DramModel, BURST_BYTES, ROW_MISS_PENALTY_CYCLES};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::{overlap_cycles, Bound, Engine, EngineReport, PhaseTiming, PhaseWork};
pub use error::{HwError, Result};
pub use noc::{Topology, TrafficPattern, HOP_LATENCY_CYCLES, LINK_BYTES_PER_CYCLE};
pub use pe::{mac_cycles, transpose_cycles, DatapathMode, ReconfigurablePe, RECONFIG_CYCLES};
pub use schedule::{PipelineSchedule, PipelineScheduler, PipelineWorkload, MIN_SHARE};
