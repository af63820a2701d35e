//! # idgnn-core
//!
//! The I-DGNN accelerator (the paper's primary contribution on the
//! architecture side):
//!
//! * [`Diu`] — the Dissimilarity Identification Unit producing `ΔA` / `ΔX_0`
//!   between consecutive snapshots (§V-A);
//! * [`PipelineScheduler`] — the fine-grained analytical scheduler
//!   partitioning MAC units between the GNN and RNN kernels (Eqs. 16–22);
//! * [`TorusDataflow`] / [`RnnMapping`] — the partition-and-rotate dataflow
//!   with in-place inter-kernel consumption (Fig. 9);
//! * [`IdgnnAccelerator`] — the full-system simulation combining the exact
//!   functional costs from `idgnn-model` with the hardware models of
//!   `idgnn-hw`, including the Fig. 8 pipeline overlap.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use idgnn_core::{IdgnnAccelerator, SimOptions};
//! use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
//! use idgnn_hw::AcceleratorConfig;
//! use idgnn_model::{DgnnModel, ModelConfig};
//!
//! let dg = generate_dynamic_graph(
//!     &GraphConfig::power_law(200, 600, 16),
//!     &StreamConfig::default(),
//!     7,
//! )?;
//! let model = DgnnModel::from_config(&ModelConfig::paper_default(16))?;
//! let accel = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(64))?;
//! let report = accel.simulate(&model, &dg, &SimOptions::default())?;
//! assert!(report.total_cycles > 0.0);
//! # Ok(())
//! # }
//! ```

mod accelerator;
mod dataflow;
mod diu;
mod error;

pub use accelerator::{
    DataflowPolicy, IdgnnAccelerator, SchedulerPolicy, SimOptions, SimReport, SnapshotSim,
    StepTimer,
};
pub use dataflow::{RnnMapping, TorusDataflow};
pub use diu::{Diu, DiuOutput};
pub use error::{CoreError, Result};
// The Eqs. 16–22 scheduler moved to `idgnn-hw` in PR 6 so the budget
// verifier and `idgnn-dse` can use it without the full-system simulator;
// re-exported here for API compatibility.
pub use idgnn_hw::{PipelineSchedule, PipelineScheduler, PipelineWorkload, MIN_SHARE};
