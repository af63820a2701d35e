//! # idgnn-baselines
//!
//! Models of the three accelerators the I-DGNN paper compares against,
//! scaled to the same multipliers / on-chip storage / frequency / off-chip
//! bandwidth per the paper's §VI-A methodology:
//!
//! * [`Ready`] — ReaDy (TCAD'22): recompute algorithm, mesh PE array,
//!   static workload-ratio resource partition, no cross-snapshot pipeline;
//! * [`Booster`] — DGNN-Booster (FCCM'23): recompute algorithm,
//!   message-passing dataflow, snapshot-level two-stage pipeline;
//! * [`Race`] — RACE (TACO'23): incremental algorithm, heterogeneous
//!   GNN/RNN engines with a fixed 50/50 PE split behind crossbars.
//!
//! All three produce the same [`SimReport`] type as the I-DGNN accelerator,
//! so the bench harness compares them directly.
//!
//! Execution and timing are split: each baseline's `time` turns an
//! [`ExecutionResult`] into a report, and
//! `simulate` is `exec::run_costs` followed by `time`; that run charges the
//! GNN outputs and the RNN from their exact counts and never evaluates
//! them. [`simulate_baselines`] walks the stream once with a Recompute lane
//! for both ReaDy and DGNN-Booster and an Incremental lane for RACE.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use idgnn_baselines::{Booster, Race, Ready};
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
//! let config = AcceleratorConfig::paper_default().scaled_down(64);
//! let ready = Ready::new(config)?.simulate(&model, &dg)?;
//! let race = Race::new(config)?.simulate(&model, &dg)?;
//! assert!(ready.total_cycles > 0.0 && race.total_cycles > 0.0);
//! # Ok(())
//! # }
//! ```

mod booster;
mod common;
mod error;
mod race;
mod ready;

pub use booster::Booster;
pub use error::{BaselineError, Result};
pub use race::Race;
pub use ready::Ready;

use idgnn_core::SimReport;
use idgnn_graph::DynamicGraph;
use idgnn_hw::AcceleratorConfig;
use idgnn_model::exec::{Lane, SinkReads};
use idgnn_model::{exec, Algorithm, DgnnModel, ExecutionResult};

/// The two executions ReaDy, DGNN-Booster and RACE time, as lanes of one
/// walk ([`exec::stream_lanes`]): Recompute (ReaDy and DGNN-Booster), then
/// Incremental (RACE), both under the memory model the iso-resource rule
/// gives all three baselines.
///
/// # Errors
///
/// Returns a hardware error for a malformed configuration.
pub fn baseline_lanes(reference: AcceleratorConfig) -> Result<[Lane; 2]> {
    let mem = common::memory(Ready::new(reference)?.config());
    Ok([Lane::new(Algorithm::Recompute, mem), Lane::new(Algorithm::Incremental, mem)])
}

/// Times ReaDy, DGNN-Booster and RACE (in that order) from the collected
/// costs of the two [`baseline_lanes`]: `recompute` feeds both ReaDy and
/// DGNN-Booster, `incremental` feeds RACE.
///
/// # Errors
///
/// Returns a hardware error for a malformed configuration.
pub fn time_baselines(
    reference: AcceleratorConfig,
    model: &DgnnModel,
    dg: &DynamicGraph,
    recompute: &ExecutionResult,
    incremental: &ExecutionResult,
) -> Result<[SimReport; 3]> {
    Ok([
        Ready::new(reference)?.time(model, dg, recompute),
        Booster::new(reference)?.time(model, dg, recompute),
        Race::new(reference)?.time(model, dg, incremental),
    ])
}

/// Simulates ReaDy, DGNN-Booster and RACE (in that order) on one workload
/// from one walk of its stream.
///
/// ReaDy and DGNN-Booster both run the Recompute algorithm under the same
/// memory model (the iso-resource rule gives them the same storage), so one
/// Recompute lane feeds both timing models; RACE times the Incremental
/// lane. Both lanes share the walk's snapshots, operators and `ΔÂ`
/// ([`baseline_lanes`]), and their costs are collected and then timed
/// ([`time_baselines`]). Each report equals the one its accelerator's
/// `simulate` returns, field for field.
///
/// # Errors
///
/// Propagates functional or hardware-model errors.
pub fn simulate_baselines(
    reference: AcceleratorConfig,
    model: &DgnnModel,
    dg: &DynamicGraph,
) -> Result<[SimReport; 3]> {
    // Timing reads only the costs, so neither lane keeps its outputs.
    let mut runs = [ExecutionResult::default(), ExecutionResult::default()];
    exec::stream_lanes(model, dg, &baseline_lanes(reference)?, SinkReads::Costs, |lane, step| {
        runs[lane].record(&step);
    })?;
    let [recompute, incremental] = &runs;
    time_baselines(reference, model, dg, recompute, incremental)
}

#[cfg(test)]
pub(crate) mod test_support {
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::{DynamicGraph, Normalization};
    use idgnn_hw::AcceleratorConfig;
    use idgnn_model::{Activation, DgnnModel, ModelConfig};

    pub fn small_config() -> AcceleratorConfig {
        AcceleratorConfig::paper_default().scaled_down(64)
    }

    pub fn workload() -> (DgnnModel, DynamicGraph) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(300, 900, 16),
            &StreamConfig { deltas: 3, dissimilarity: 0.02, ..Default::default() },
            11,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 16,
            gnn_hidden: 8,
            gnn_layers: 3,
            rnn_hidden: 8,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: 7,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        (model, dg)
    }
}

#[cfg(test)]
mod shared_execution_tests {
    use super::test_support::{small_config, workload};
    use super::*;
    use crate::common::memory;
    use idgnn_model::MemoryModel;

    #[test]
    fn baselines_share_one_memory_model() {
        let config = small_config();
        let mem = memory(Ready::new(config).unwrap().config());
        assert_eq!(mem, memory(Booster::new(config).unwrap().config()));
        assert_eq!(mem, memory(Race::new(config).unwrap().config()));
        assert_eq!(mem, MemoryModel { onchip_bytes: config.total_onchip_bytes() });
    }

    #[test]
    fn simulate_equals_timing_a_separate_execution() {
        let (model, dg) = workload();
        let config = small_config();
        let mem = MemoryModel { onchip_bytes: config.total_onchip_bytes() };
        let recompute = exec::run(Algorithm::Recompute, &model, &dg, &mem).unwrap();
        let incremental = exec::run(Algorithm::Incremental, &model, &dg, &mem).unwrap();
        let (ready, booster, race) = (
            Ready::new(config).unwrap(),
            Booster::new(config).unwrap(),
            Race::new(config).unwrap(),
        );
        assert_eq!(ready.simulate(&model, &dg).unwrap(), ready.time(&model, &dg, &recompute));
        assert_eq!(booster.simulate(&model, &dg).unwrap(), booster.time(&model, &dg, &recompute));
        assert_eq!(race.simulate(&model, &dg).unwrap(), race.time(&model, &dg, &incremental));
    }

    #[test]
    fn shared_runs_match_each_simulate() {
        let (model, dg) = workload();
        let config = small_config();
        let runs_before = exec::runs_on_this_thread();
        let walks_before = exec::walks_on_this_thread();
        let [ready, booster, race] = simulate_baselines(config, &model, &dg).unwrap();
        let runs = exec::runs_on_this_thread();
        // One Recompute and one Incremental execution, no OnePass, on one
        // walk.
        let executed: Vec<u64> = runs.iter().zip(runs_before).map(|(a, b)| a - b).collect();
        assert_eq!(executed, [1, 1, 0]);
        assert_eq!(exec::walks_on_this_thread() - walks_before, 1);
        assert_eq!(ready, Ready::new(config).unwrap().simulate(&model, &dg).unwrap());
        assert_eq!(booster, Booster::new(config).unwrap().simulate(&model, &dg).unwrap());
        assert_eq!(race, Race::new(config).unwrap().simulate(&model, &dg).unwrap());
    }
}

#[cfg(test)]
mod comparison_tests {
    use super::test_support::{small_config, workload};
    use super::*;
    use idgnn_core::{IdgnnAccelerator, SimOptions};

    #[test]
    fn idgnn_beats_all_baselines_on_cycles() {
        // The paper's headline (Fig. 12 shape): I-DGNN wins against all
        // three baselines on the same resource budget.
        let (model, dg) = workload();
        let config = small_config();
        let idgnn = IdgnnAccelerator::new(config)
            .unwrap()
            .simulate(&model, &dg, &SimOptions::default())
            .unwrap();
        let ready = Ready::new(config).unwrap().simulate(&model, &dg).unwrap();
        let booster = Booster::new(config).unwrap().simulate(&model, &dg).unwrap();
        let race = Race::new(config).unwrap().simulate(&model, &dg).unwrap();
        assert!(
            idgnn.total_cycles < ready.total_cycles,
            "I-DGNN {} !< ReaDy {}",
            idgnn.total_cycles,
            ready.total_cycles
        );
        assert!(
            idgnn.total_cycles < booster.total_cycles,
            "I-DGNN {} !< Booster {}",
            idgnn.total_cycles,
            booster.total_cycles
        );
        assert!(
            idgnn.total_cycles < race.total_cycles,
            "I-DGNN {} !< RACE {}",
            idgnn.total_cycles,
            race.total_cycles
        );
    }

    #[test]
    fn idgnn_beats_all_baselines_on_energy() {
        // Fig. 14 shape: the baselines burn more energy.
        let (model, dg) = workload();
        let config = small_config();
        let idgnn = IdgnnAccelerator::new(config)
            .unwrap()
            .simulate(&model, &dg, &SimOptions::default())
            .unwrap();
        for (name, total) in [
            ("ReaDy", Ready::new(config).unwrap().simulate(&model, &dg).unwrap().energy.total_pj()),
            (
                "Booster",
                Booster::new(config).unwrap().simulate(&model, &dg).unwrap().energy.total_pj(),
            ),
            ("RACE", Race::new(config).unwrap().simulate(&model, &dg).unwrap().energy.total_pj()),
        ] {
            assert!(
                idgnn.energy.total_pj() < total,
                "I-DGNN {} !< {name} {total}",
                idgnn.energy.total_pj()
            );
        }
    }

    #[test]
    fn idgnn_moves_least_dram_bytes() {
        let (model, dg) = workload();
        let config = small_config();
        let idgnn = IdgnnAccelerator::new(config)
            .unwrap()
            .simulate(&model, &dg, &SimOptions::default())
            .unwrap();
        let ready = Ready::new(config).unwrap().simulate(&model, &dg).unwrap();
        let race = Race::new(config).unwrap().simulate(&model, &dg).unwrap();
        assert!(idgnn.dram_bytes < ready.dram_bytes);
        assert!(idgnn.dram_bytes < race.dram_bytes);
    }
}
