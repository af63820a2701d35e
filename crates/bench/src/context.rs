//! Shared experiment context: workloads, models, and accelerator instances.
//!
//! Every figure harness draws from the same deterministic context so results
//! are comparable across figures. Two scales are provided:
//!
//! * [`ExperimentScale::Quick`] — small scaled-down graphs (CI-friendly,
//!   seconds per figure);
//! * [`ExperimentScale::Standard`] — the default for EXPERIMENTS.md numbers.
//!
//! The accelerator is scaled down with the same factor as the datasets
//! (buffers, bandwidth, PE count), preserving the spill behaviour of the
//! full-size system — see DESIGN.md §2.

use idgnn_baselines::{baseline_lanes, time_baselines, Booster, Race, Ready};
use idgnn_core::{IdgnnAccelerator, SimOptions, SimReport};
use idgnn_graph::datasets::{DatasetSpec, ALL_DATASETS};
use idgnn_graph::generate::StreamConfig;
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_hw::AcceleratorConfig;
use idgnn_model::exec::{self, SinkReads};
use idgnn_model::{Activation, Algorithm, DgnnModel, ExecutionResult, MemoryModel, ModelConfig};
use idgnn_sparse::Parallelism;

/// Harness result alias.
pub type Result<T> = std::result::Result<T, idgnn_core::CoreError>;

/// How big the executed workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// ≈ 2 k edges per dataset — for CI and unit tests.
    Quick,
    /// ≈ 6 k edges per dataset — the EXPERIMENTS.md default.
    Standard,
}

impl ExperimentScale {
    /// Edge budget per scaled dataset.
    pub fn max_edges(self) -> usize {
        match self {
            ExperimentScale::Quick => 2_000,
            ExperimentScale::Standard => 6_000,
        }
    }
}

/// Model hyper-parameters used across the evaluation (one "typical DGCN":
/// 3-layer GCN + LSTM, §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalDims {
    /// GCN hidden/output width for executed (scaled) runs.
    pub gnn_hidden: usize,
    /// LSTM hidden width for executed runs.
    pub rnn_hidden: usize,
    /// GCN layers.
    pub gnn_layers: usize,
}

impl Default for EvalDims {
    fn default() -> Self {
        Self { gnn_hidden: 32, rnn_hidden: 32, gnn_layers: 3 }
    }
}

/// A fully-instantiated per-dataset workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The Table-I dataset this scales down.
    pub spec: DatasetSpec,
    /// The generated snapshot stream.
    pub graph: DynamicGraph,
    /// The DGNN model sized for the scaled features.
    pub model: DgnnModel,
    /// Scale factor applied (`full_edges / scaled_edges`).
    pub scale: u64,
}

/// The experiment context shared by all figures.
#[derive(Debug, Clone)]
pub struct Context {
    /// Per-dataset workloads, in Table-I order.
    pub workloads: Vec<Workload>,
    /// The I-DGNN accelerator configuration (scaled iso-resources).
    pub config: AcceleratorConfig,
    /// Evolution parameters used for the default streams.
    pub stream: StreamConfig,
    /// Executed-model dimensions.
    pub dims: EvalDims,
    /// Number of snapshots per stream.
    pub snapshots: usize,
    /// Worker threads for the experiment-grid fan-out ([`crate::driver`]).
    /// Defaults to the ambient [`idgnn_sparse::parallel::current`] selection
    /// (`IDGNN_PARALLELISM` / `--parallelism`); `1` runs the legacy serial
    /// driver. Results are byte-identical across settings.
    pub parallelism: Parallelism,
}

impl Context {
    /// Builds the default context at the given scale, deterministic in
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Propagates generation errors (practically unreachable).
    pub fn new(scale: ExperimentScale, seed: u64) -> Result<Self> {
        let dims = EvalDims::default();
        let stream = StreamConfig {
            deltas: 4,
            dissimilarity: 0.02,
            addition_fraction: 0.75,
            feature_update_fraction: 0.02,
        };
        let mut workloads = Vec::with_capacity(ALL_DATASETS.len());
        for (i, spec) in ALL_DATASETS.iter().enumerate() {
            let w = Self::build_workload(spec, scale, &stream, dims, seed.wrapping_add(i as u64))?;
            workloads.push(w);
        }
        // One accelerator for all datasets, scaled by the *smallest* dataset
        // factor: the I-DGNN resident state then fits on-chip for every
        // workload (as it does at full size by design, §VI-A), while the
        // baseline paradigms still stage their intermediates through DRAM.
        let min_scale = workloads.iter().map(|w| w.scale).min().unwrap_or(1).max(1);
        let config = AcceleratorConfig::paper_default().scaled_down(min_scale);
        Ok(Self {
            workloads,
            config,
            stream,
            dims,
            snapshots: stream.deltas + 1,
            parallelism: idgnn_sparse::parallel::current(),
        })
    }

    /// Same context with an explicit driver worker count (used by the
    /// serial-equivalence tests to pin both modes).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builds a single dataset workload with explicit stream parameters
    /// (used by the sensitivity sweeps).
    ///
    /// # Errors
    ///
    /// Propagates generation errors.
    pub fn build_workload(
        spec: &DatasetSpec,
        scale: ExperimentScale,
        stream: &StreamConfig,
        dims: EvalDims,
        seed: u64,
    ) -> Result<Workload> {
        let graph = spec.generate_scaled(scale.max_edges(), stream, seed)?;
        let input_dim = graph.initial().feature_dim();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim,
            gnn_hidden: dims.gnn_hidden,
            gnn_layers: dims.gnn_layers,
            rnn_hidden: dims.rnn_hidden,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: seed.wrapping_add(77),
            rnn_kernel: Default::default(),
        })?;
        let scale_factor = (spec.edges as u64 / scale.max_edges() as u64).max(1);
        Ok(Workload { spec: *spec, graph, model, scale: scale_factor })
    }

    /// The workload for a dataset short code.
    ///
    /// # Panics
    ///
    /// Panics if `short` is not one of the six Table-I codes.
    pub fn workload(&self, short: &str) -> &Workload {
        self.workloads
            .iter()
            .find(|w| w.spec.short.eq_ignore_ascii_case(short))
            // lint: allow(panic-surface) -- documented `# Panics`: callers pass one of the six Table-I codes
            .unwrap_or_else(|| panic!("unknown dataset {short}"))
    }

    /// The memory model matching the accelerator's on-chip capacity.
    pub fn memory(&self) -> MemoryModel {
        MemoryModel { onchip_bytes: self.config.total_onchip_bytes() }
    }

    /// Simulates the I-DGNN accelerator on one workload.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_idgnn(&self, w: &Workload, opts: &SimOptions) -> Result<SimReport> {
        IdgnnAccelerator::new(self.config)?.simulate(&w.model, &w.graph, opts)
    }

    /// Simulates all four accelerators on one workload, in [`ACCELERATORS`]
    /// order, from one walk of its stream with three lanes
    /// ([`exec::stream_lanes`]): OnePass for I-DGNN, timed step by step as
    /// the walk lends it ([`IdgnnAccelerator::timer`]); Recompute for both
    /// ReaDy and DGNN-Booster and Incremental for RACE
    /// ([`idgnn_baselines::baseline_lanes`]), whose costs are collected and
    /// then timed ([`idgnn_baselines::time_baselines`]). The walk applies
    /// each delta, normalises each `Â^t` and subtracts each `ΔÂ` once for
    /// all three. Each report equals [`Context::run_accelerator`]'s for the
    /// same name, field for field.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_accelerators(&self, w: &Workload) -> Result<[SimReport; 4]> {
        let idgnn = IdgnnAccelerator::new(self.config)?;
        let opts = SimOptions::default();
        let mut timer = idgnn.timer(&w.model, &w.graph, &opts);
        let [recompute_lane, incremental_lane] = baseline_lanes(self.config)?;
        let lanes = [idgnn.lane(&opts), recompute_lane, incremental_lane];
        // Lanes 1 and 2 keep their costs for the baselines' timing models.
        let mut runs = [ExecutionResult::default(), ExecutionResult::default()];
        exec::stream_lanes(&w.model, &w.graph, &lanes, SinkReads::Costs, |lane, step| {
            match lane {
                0 => timer.time(&step),
                _ => runs[lane - 1].record(&step),
            }
        })?;
        let [recompute, incremental] = &runs;
        let [ready, booster, race] =
            time_baselines(self.config, &w.model, &w.graph, recompute, incremental)?;
        Ok([timer.finish(), ready, booster, race])
    }

    /// Simulates one of the four accelerators by name
    /// (`"I-DGNN" | "ReaDy" | "DGNN-Booster" | "RACE"`). Each call walks
    /// the stream once; a grid that needs all four should call
    /// [`Context::run_accelerators`], which walks it once for all of them.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    ///
    /// # Panics
    ///
    /// Panics on an unknown accelerator name.
    pub fn run_accelerator(&self, name: &str, w: &Workload) -> Result<SimReport> {
        match name {
            "I-DGNN" => self.run_idgnn(w, &SimOptions::default()),
            "ReaDy" => Ready::new(self.config)?.simulate(&w.model, &w.graph),
            "DGNN-Booster" => Booster::new(self.config)?.simulate(&w.model, &w.graph),
            "RACE" => Race::new(self.config)?.simulate(&w.model, &w.graph),
            // lint: allow(panic-surface) -- documented `# Panics`: callers pass one of the four accelerator names
            other => panic!("unknown accelerator {other}"),
        }
    }

    /// Runs a bare execution algorithm (no hardware) for op/DRAM accounting.
    /// The result holds the costs only ([`idgnn_model::exec::run_costs`]):
    /// its `outputs` are empty.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn run_algorithm(
        &self,
        algorithm: Algorithm,
        w: &Workload,
    ) -> Result<idgnn_model::ExecutionResult> {
        Ok(idgnn_model::exec::run_costs(algorithm, &w.model, &w.graph, &self.memory())?)
    }
}

/// The four accelerators in the paper's comparison order.
pub const ACCELERATORS: [&str; 4] = ["I-DGNN", "ReaDy", "DGNN-Booster", "RACE"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_six_workloads() {
        let ctx = Context::new(ExperimentScale::Quick, 1).unwrap();
        assert_eq!(ctx.workloads.len(), 6);
        for w in &ctx.workloads {
            assert_eq!(w.graph.num_snapshots(), 5);
            assert!(w.scale >= 1);
        }
        assert!(ctx.config.validate().is_ok());
    }

    #[test]
    fn workload_lookup() {
        let ctx = Context::new(ExperimentScale::Quick, 1).unwrap();
        assert_eq!(ctx.workload("wd").spec.short, "WD");
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let ctx = Context::new(ExperimentScale::Quick, 1).unwrap();
        let _ = ctx.workload("xx");
    }

    #[test]
    fn context_is_deterministic() {
        let a = Context::new(ExperimentScale::Quick, 9).unwrap();
        let b = Context::new(ExperimentScale::Quick, 9).unwrap();
        assert_eq!(a.workloads[0].graph, b.workloads[0].graph);
    }

    #[test]
    fn run_accelerators_matches_each_run_accelerator() {
        for threads in [1, 4] {
            let ctx = Context::new(ExperimentScale::Quick, 2)
                .unwrap()
                .with_parallelism(Parallelism::new(threads));
            let _kernels = idgnn_sparse::parallel::kernel_scope(Parallelism::new(threads));
            let w = ctx.workload("PM");
            let shared = ctx.run_accelerators(w).unwrap();
            for (name, report) in ACCELERATORS.iter().zip(&shared) {
                // `SimReport` equality compares every field: cycles, energy,
                // DRAM bytes, ops, per-snapshot sims and utilization phases.
                assert_eq!(*report, ctx.run_accelerator(name, w).unwrap(), "{name} @ {threads}");
            }
        }
    }

    #[test]
    fn all_accelerators_run_on_smallest_workload() {
        let ctx = Context::new(ExperimentScale::Quick, 2).unwrap();
        let w = ctx.workload("PM");
        for name in ACCELERATORS {
            let r = ctx.run_accelerator(name, w).unwrap();
            assert!(r.total_cycles > 0.0, "{name}");
        }
    }
}
