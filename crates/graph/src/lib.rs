//! # idgnn-graph
//!
//! Discrete-time dynamic graphs for the I-DGNN reproduction (HPCA 2025):
//! validated snapshots, inter-snapshot deltas (`ΔA`, `ΔX_0`), snapshot
//! streams, GCN normalization, synthetic generators with controllable
//! dissimilarity, and the paper's Table-I dataset registry.
//!
//! ## Example
//!
//! Generate a scaled-down Wikipedia-like dynamic graph and inspect its
//! evolution:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use idgnn_graph::datasets::WIKIPEDIA;
//! use idgnn_graph::generate::StreamConfig;
//!
//! let dg = WIKIPEDIA.generate_scaled(1_000, &StreamConfig::default(), 42)?;
//! assert_eq!(dg.initial().num_edges(), 1_000);
//! let ratio = dg.mean_dissimilarity()?;
//! assert!(ratio > 0.04 && ratio < 0.14); // the paper's observed 4.1–13.3 % band
//! # Ok(())
//! # }
//! ```

mod common;
mod continuous;
mod delta;
mod dynamic;
mod error;
mod normalize;
mod snapshot;

pub mod datasets;
pub mod generate;

pub use common::CommonCoreView;
pub use continuous::{ContinuousGraph, UpdateEvent, UpdateOp};
pub use delta::{FeatureUpdate, GraphDelta, GraphDeltaBuilder};
pub use dynamic::DynamicGraph;
pub use error::{GraphError, Result};
pub use normalize::Normalization;
pub use snapshot::{adjacency_from_edges, GraphSnapshot};
