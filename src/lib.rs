//! # idgnn
//!
//! A full reproduction of **"I-DGNN: A Graph Dissimilarity-based Framework
//! for Designing Scalable and Efficient DGNN Accelerators"** (HPCA 2025):
//! the one-pass dissimilarity computing model, the reconfigurable
//! accelerator architecture, the dataflow/mapping, the three baseline
//! accelerators it is evaluated against, and the complete experiment
//! harness.
//!
//! This crate is the facade: it re-exports every sub-crate under a short
//! module name and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! | module | contents |
//! |---|---|
//! | [`sparse`] | CSR/COO/dense matrices, SpGEMM/SpMM, exact op counting |
//! | [`graph`] | dynamic-graph snapshots, deltas, generators, Table-I registry |
//! | [`model`] | GCN + LSTM models, layer fusion, the one-pass kernel, the three execution algorithms |
//! | [`hw`] | NoC / DRAM / energy / area models, the phase timing engine |
//! | [`core`] | the I-DGNN accelerator: DIU, scheduler, dataflow, full simulation |
//! | [`baselines`] | ReaDy, DGNN-Booster, RACE |
//! | [`dse`] | design-space exploration: grid sweep, budget pruning, cost ranking, Pareto front |
//! | `bench` | per-figure experiment harness |
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use idgnn::core::{IdgnnAccelerator, SimOptions};
//! use idgnn::graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
//! use idgnn::hw::AcceleratorConfig;
//! use idgnn::model::{DgnnModel, ModelConfig};
//!
//! // 1. An evolving graph: 200 vertices, ~8 % of edges change per snapshot.
//! let dg = generate_dynamic_graph(
//!     &GraphConfig::power_law(200, 600, 16),
//!     &StreamConfig::default(),
//!     42,
//! )?;
//!
//! // 2. A 3-layer GCN + LSTM model.
//! let model = DgnnModel::from_config(&ModelConfig::paper_default(16))?;
//!
//! // 3. Simulate the I-DGNN accelerator.
//! let accel = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(64))?;
//! let report = accel.simulate(&model, &dg, &SimOptions::default())?;
//! println!("{} cycles, {}", report.total_cycles, report.energy);
//! # Ok(())
//! # }
//! ```

pub use idgnn_baselines as baselines;
pub use idgnn_bench as bench;
pub use idgnn_core as core;
pub use idgnn_dse as dse;
pub use idgnn_graph as graph;
pub use idgnn_hw as hw;
pub use idgnn_model as model;
pub use idgnn_sparse as sparse;
