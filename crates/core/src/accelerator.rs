//! The complete I-DGNN accelerator simulation.
//!
//! Orchestration follows the paper's Fig. 6/8: the functional executors of
//! `idgnn-model` supply exact per-phase operation counts and DRAM volumes;
//! this module adds the architecture — MAC partitioning from the analytical
//! scheduler (Eqs. 16–22), torus-rotation NoC traffic from the dataflow
//! (Fig. 9), per-phase timing/energy from the `idgnn-hw` engine, and the
//! GNN(t) ∥ RNN-A(t−1) pipeline overlap (Fig. 8).

use idgnn_graph::DynamicGraph;
use idgnn_hw::utilization::{trace, PhaseUtilization, UtilizationTrace};
use idgnn_hw::{
    AcceleratorConfig, AccessPattern, EnergyBreakdown, Engine, PhaseWork, TrafficPattern,
};
use idgnn_model::exec::{Lane, OnePassOptions, SinkReads, Step};
use idgnn_model::{
    cost::dense_bytes, exec, Algorithm, DgnnModel, MemoryModel, ModelDims, Phase, SnapshotCost,
};
use idgnn_sparse::OpStats;

use crate::dataflow::TorusDataflow;
use crate::error::Result;
use idgnn_hw::PipelineSchedule;

/// Scheduler policy (ablation D2 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// The paper's analytical model, re-solved per snapshot.
    #[default]
    Analytical,
    /// A static 50/50 MAC split (RACE-style).
    Even,
}

/// Dataflow policy (ablation D3 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataflowPolicy {
    /// Partition + neighbour rotation over the torus (Fig. 9).
    #[default]
    Rotation,
    /// Duplicate all operands to every PE via broadcast (no partitioning).
    Broadcast,
}

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOptions {
    /// Which execution algorithm runs on this hardware (the paper's Fig. 13
    /// runs all three on the I-DGNN architecture).
    pub algorithm: Option<Algorithm>,
    /// One-pass kernel options (dissimilarity strategy ablation, D1).
    pub onepass: OnePassOptions,
    /// MAC partitioning policy (D2).
    pub scheduler: SchedulerPolicy,
    /// NoC dataflow policy (D3).
    pub dataflow: DataflowPolicy,
    /// Disable the GNN ∥ RNN-A pipeline overlap (D2 companion ablation).
    pub disable_pipeline: bool,
    /// Inert: read by nothing. The functional kernels always run serially
    /// on the calling thread. Kept only because the benchmark crate under
    /// `perfbench/` (which builds against this crate unedited) still sets
    /// it; no code in the workspace reads or sets it.
    pub parallelism: Option<usize>,
}

/// Per-snapshot simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSim {
    /// Frontend (DIU / WComb) latency, cycles.
    pub frontend_cycles: f64,
    /// GNN-kernel latency (AComb + AG + CB), cycles.
    pub gnn_cycles: f64,
    /// RNN-A latency, cycles.
    pub rnn_a_cycles: f64,
    /// RNN-B latency, cycles.
    pub rnn_b_cycles: f64,
    /// Energy of this snapshot.
    pub energy: EnergyBreakdown,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// The MAC partition used.
    pub schedule: PipelineSchedule,
}

impl SnapshotSim {
    /// Latency with no cross-kernel overlap.
    pub fn serial_cycles(&self) -> f64 {
        self.frontend_cycles + self.gnn_cycles + self.rnn_a_cycles + self.rnn_b_cycles
    }
}

/// Bucket width of [`SimReport::utilization`], cycles.
const UTILIZATION_BUCKET_CYCLES: u64 = 16;

/// Whole-run simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-snapshot breakdowns.
    pub snapshots: Vec<SnapshotSim>,
    /// End-to-end latency with the Fig. 8 pipeline, cycles.
    pub total_cycles: f64,
    /// End-to-end latency without cross-kernel overlap, cycles.
    pub serial_cycles: f64,
    /// Total energy.
    pub energy: EnergyBreakdown,
    /// Total DRAM traffic, bytes.
    pub dram_bytes: u64,
    /// Total arithmetic operations executed.
    pub ops: OpStats,
    /// Timed phases with their MAC/buffer utilization inputs, in execution
    /// order — the source of the Fig. 18 trace ([`SimReport::utilization`]).
    pub phases: Vec<PhaseUtilization>,
}

impl SimReport {
    /// MAC/buffer utilization trace (Fig. 18) in 16-cycle buckets, built
    /// from [`SimReport::phases`] on demand: a long run has millions of
    /// buckets, and only the utilization study reads them.
    pub fn utilization(&self) -> UtilizationTrace {
        trace(&self.phases, UTILIZATION_BUCKET_CYCLES)
    }

    /// Wall-clock seconds at `frequency_hz`.
    pub fn seconds(&self, frequency_hz: u64) -> f64 {
        self.total_cycles / frequency_hz as f64
    }
}

/// The I-DGNN accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct IdgnnAccelerator {
    engine: Engine,
}

impl IdgnnAccelerator {
    /// Builds the accelerator, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Hw`] for a malformed configuration.
    pub fn new(config: AcceleratorConfig) -> Result<Self> {
        Ok(Self { engine: Engine::new(config)? })
    }

    /// The paper's default instance (32×32 PEs, torus, 700 MHz).
    ///
    /// # Panics
    ///
    /// Never panics: the paper configuration is valid by construction.
    pub fn paper_default() -> Self {
        // lint: allow(panic-surface) -- AcceleratorConfig::paper_default() passes Engine::new's validation (test `paper_default_constructs`)
        Self::new(AcceleratorConfig::paper_default()).expect("paper config is valid")
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        self.engine.config()
    }

    /// The timing engine (exposed for utilization studies).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The execution [`simulate`](Self::simulate) times under `opts`, as a
    /// lane of a shared walk ([`exec::stream_lanes`]): its memory model is
    /// the accelerator's whole on-chip storage.
    pub fn lane(&self, opts: &SimOptions) -> Lane {
        Lane {
            algorithm: opts.algorithm.unwrap_or(Algorithm::OnePass),
            mem: MemoryModel { onchip_bytes: self.engine.config().total_onchip_bytes() },
            onepass: opts.onepass,
        }
    }

    /// A sink that times the steps of [`lane`](Self::lane)`(opts)` running
    /// `model` over `dg` as they arrive; [`StepTimer::finish`] turns it into
    /// the report [`simulate`](Self::simulate) returns. A walk that runs
    /// other lanes too can feed it this lane's steps.
    pub fn timer(&self, model: &DgnnModel, dg: &DynamicGraph, opts: &SimOptions) -> StepTimer<'_> {
        let n = dg.num_snapshots();
        StepTimer {
            accel: self,
            opts: *opts,
            dataflow: TorusDataflow::new(self.engine.config().num_pes()),
            dims: model.dims(),
            weight_bytes: model.weight_bytes(),
            v: dg.initial().num_vertices(),
            snapshots: Vec::with_capacity(n),
            util_phases: Vec::new(),
            energy: EnergyBreakdown::default(),
            dram_bytes: 0,
            ops: OpStats::default(),
            stage_pairs: Vec::with_capacity(n),
        }
    }

    /// Simulates the full dynamic-graph workload: one walk with the single
    /// lane [`lane`](Self::lane)`(opts)`, timed by a [`StepTimer`].
    ///
    /// The executor runs as a [`SinkReads::Costs`] stream: timing reads each
    /// step's costs, operator and `ΔÂ`, never `Z^t` or the RNN state, so
    /// the GNN outputs and RNN-A/RNN-B are charged from exact counts and
    /// never evaluated. The report equals one timed from an executed run.
    ///
    /// # Errors
    ///
    /// Propagates functional execution errors (shape mismatches, conflicting
    /// deltas) and hardware-model errors.
    pub fn simulate(
        &self,
        model: &DgnnModel,
        dg: &DynamicGraph,
        opts: &SimOptions,
    ) -> Result<SimReport> {
        let mut timer = self.timer(model, dg, opts);
        exec::stream_lanes(model, dg, &[self.lane(opts)], SinkReads::Costs, |_, step| {
            timer.time(&step);
        })?;
        Ok(timer.finish())
    }

    /// Solves the scheduler's balancing objective for one snapshot. The
    /// published analytical model (Eqs. 16–22) yields the closed form
    /// `α* = W_G / (W_G + W_R)` when every phase is MAC-bound; real phases
    /// can be NoC- or DRAM-bound, so the scheduler evaluates the closed-form
    /// seed alongside a small grid of candidate splits against the actual
    /// timing model and keeps the best (the even split is always a
    /// candidate, so the dynamic schedule never loses to it).
    fn schedule_for(
        &self,
        opts: &SimOptions,
        cost: &SnapshotCost,
        balance: f64,
        noc_bytes: u64,
        noc_pattern: TrafficPattern,
    ) -> PipelineSchedule {
        match opts.scheduler {
            SchedulerPolicy::Even => PipelineSchedule::even(),
            SchedulerPolicy::Analytical => {
                let g = cost.gnn_ops().mults.max(cost.gnn_ops().adds) as f64;
                let r = cost.rnn_ops().mults.max(cost.rnn_ops().adds) as f64;
                let seed = if g + r == 0.0 { 0.5 } else { g / (g + r) };
                let mut best = (f64::INFINITY, PipelineSchedule::even());
                for alpha in [seed, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
                    let candidate = PipelineSchedule::from_alpha(alpha);
                    let mut scratch = Vec::new();
                    let sim = self.time_snapshot(
                        cost,
                        candidate,
                        balance,
                        noc_bytes,
                        noc_pattern,
                        &mut scratch,
                    );
                    // Pipelined contribution of this snapshot (Fig. 8): the
                    // RNN-A leg hides under the next snapshot's front.
                    let objective = sim.frontend_cycles
                        + sim.gnn_cycles.max(sim.rnn_a_cycles)
                        + sim.rnn_b_cycles;
                    if objective < best.0 {
                        best = (objective, candidate);
                    }
                }
                best.1
            }
        }
    }

    fn time_snapshot(
        &self,
        cost: &SnapshotCost,
        schedule: PipelineSchedule,
        balance: f64,
        gnn_noc_bytes: u64,
        noc_pattern: TrafficPattern,
        util_phases: &mut Vec<PhaseUtilization>,
    ) -> SnapshotSim {
        self.time_snapshot_traced(
            cost,
            schedule,
            balance,
            gnn_noc_bytes,
            noc_pattern,
            0.0,
            0.0,
            util_phases,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn time_snapshot_traced(
        &self,
        cost: &SnapshotCost,
        schedule: PipelineSchedule,
        balance: f64,
        gnn_noc_bytes: u64,
        noc_pattern: TrafficPattern,
        occupancy_delta: f64,
        overlap_util: f64,
        util_phases: &mut Vec<PhaseUtilization>,
    ) -> SnapshotSim {
        let config = self.engine.config();
        let mut frontend = 0.0;
        let mut gnn = 0.0;
        let mut rnn_a = 0.0;
        let mut rnn_b = 0.0;
        let mut energy = EnergyBreakdown::default();
        let mut dram = 0u64;
        // Attribute the rotation traffic to the aggregation phases.
        let agg_phases = cost
            .phases
            .iter()
            .filter(|p| p.phase == Phase::Aggregation)
            .count()
            .max(1) as u64;

        for (i, pc) in cost.phases.iter().enumerate() {
            // The DIU is a dedicated frontend unit, not the MAC array: its
            // structure comparisons and CSR maintenance run at a fixed
            // few-words-per-cycle throughput.
            let diu_share = (4.0 / config.total_macs() as f64).min(1.0);
            let (share, efficiency, pattern) = match pc.phase {
                Phase::Diu => (diu_share, 1.0, AccessPattern::Scattered),
                Phase::WComb => (1.0, 1.0, AccessPattern::Scattered),
                Phase::AComb => (schedule.alpha, balance, AccessPattern::Scattered),
                Phase::Aggregation => (schedule.alpha, balance, AccessPattern::Streaming),
                Phase::Combination => (schedule.alpha, 0.98, AccessPattern::Streaming),
                Phase::RnnA | Phase::RnnB => (schedule.beta, 0.98, AccessPattern::Streaming),
                _ => (1.0, 1.0, AccessPattern::Streaming),
            };
            let w = PhaseWork {
                phase: pc.phase,
                ops: pc.ops,
                dram_read_bytes: pc.dram.total_reads(),
                dram_write_bytes: pc.dram.total_writes(),
                dram_pattern: pattern,
                noc_bytes: if pc.phase == Phase::Aggregation {
                    gnn_noc_bytes / agg_phases
                } else {
                    0
                },
                noc_pattern,
                mac_share: share,
                parallel_efficiency: efficiency,
                // Datapath reconfiguration at the start of each kernel group.
                reconfigure: matches!(pc.phase, Phase::AComb | Phase::RnnA) && i > 0,
            };
            let timing = self.engine.phase_timing(&w);
            let cycles = timing.total_cycles();
            match pc.phase {
                Phase::AComb | Phase::Aggregation | Phase::Combination => gnn += cycles,
                Phase::RnnA => rnn_a += cycles,
                Phase::RnnB => rnn_b += cycles,
                _ => frontend += cycles,
            }
            energy = energy + self.engine.phase_energy(&w);
            dram += w.dram_bytes();
            let concurrent = if pc.phase.is_gnn() { overlap_util } else { 0.0 };
            util_phases.push(PhaseUtilization {
                timing,
                mac_utilization: (share * efficiency + concurrent).min(1.0),
                buffer_delta: occupancy_delta / cost.phases.len().max(1) as f64,
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
}

/// Times one execution's steps on the I-DGNN accelerator as a walk lends
/// them ([`IdgnnAccelerator::timer`]): per snapshot, the torus load balance
/// of `Â^t`, the rotation bytes (from `ΔÂ` on one-pass transitions), the
/// scheduler's MAC split, and each phase's cycles and energy.
#[derive(Debug, Clone)]
pub struct StepTimer<'a> {
    accel: &'a IdgnnAccelerator,
    opts: SimOptions,
    dataflow: TorusDataflow,
    dims: ModelDims,
    weight_bytes: u64,
    v: usize,
    snapshots: Vec<SnapshotSim>,
    util_phases: Vec<PhaseUtilization>,
    energy: EnergyBreakdown,
    dram_bytes: u64,
    ops: OpStats,
    stage_pairs: Vec<(f64, f64)>,
}

impl StepTimer<'_> {
    /// Times the next snapshot, from its costs, its operator `Â^t` and (on
    /// one-pass transitions) the `ΔÂ` the walk built.
    pub fn time(&mut self, step: &Step<'_>) {
        let accel = self.accel;
        let config = accel.engine.config();
        let (opts, dims, v) = (&self.opts, self.dims, self.v);
        let (t, cost, a_norm) = (step.t, step.cost, step.operator);
        let balance = self.dataflow.load_balance(a_norm);

        // Rotation traffic: the distributed working set makes a full ring
        // pass per GNN kernel invocation. For the one-pass algorithm in
        // steady state the operator and dense caches are resident at their
        // home PEs — only the delta-receptive working set (ΔA-anchored
        // partial products and touched dense rows) rotates; the other
        // algorithms re-stream everything.
        let rotated_bytes = match step.delta {
            Some(d_op) => {
                let seed_rows = (0..v).filter(|&r| d_op.row_nnz(r) > 0).count();
                let mean_deg = (a_norm.nnz() as f64 / v.max(1) as f64).max(1.0);
                let touched = ((seed_rows as f64)
                    * mean_deg.powi(dims.gnn_layers.saturating_sub(1) as i32))
                .min(v as f64) as usize;
                dims.gnn_layers as u64 * d_op.csr_bytes()
                    + dense_bytes(touched, dims.gnn_out_dim)
            }
            None => a_norm.csr_bytes() + dense_bytes(v, dims.input_dim),
        };
        let (noc_bytes, noc_pattern) = match opts.dataflow {
            DataflowPolicy::Rotation => {
                (self.dataflow.rotation_bytes(rotated_bytes), TrafficPattern::NeighborShift)
            }
            DataflowPolicy::Broadcast => (
                rotated_bytes.saturating_mul(config.num_pes() as u64),
                TrafficPattern::Broadcast,
            ),
        };

        // Buffer-occupancy bookkeeping for the Fig. 18 trace: the first
        // snapshot materializes the resident working set; later snapshots
        // only add their (small) delta structures.
        let resident_bytes = a_norm.csr_bytes()
            + dense_bytes(v, dims.input_dim)
            + 2 * dense_bytes(v, dims.gnn_out_dim)
            + 2 * dense_bytes(v, dims.rnn_hidden_dim)
            + self.weight_bytes;
        let occupancy_delta = if t == 0 {
            (resident_bytes as f64 / config.total_onchip_bytes() as f64).min(1.0)
        } else {
            (cost.total_dram().total() as f64 / config.total_onchip_bytes() as f64).min(0.05)
        };

        let schedule = accel.schedule_for(opts, cost, balance, noc_bytes, noc_pattern);
        // In steady state the RNN lane works on snapshot t−1's RNN-A while
        // the GNN lane runs snapshot t (Fig. 8) — the utilization trace
        // credits the concurrent lane.
        let overlap_util = if !opts.disable_pipeline && t > 0 { schedule.beta * 0.95 } else { 0.0 };
        let sim = accel.time_snapshot_traced(
            cost,
            schedule,
            balance,
            noc_bytes,
            noc_pattern,
            occupancy_delta,
            overlap_util,
            &mut self.util_phases,
        );
        self.energy = self.energy + sim.energy;
        self.dram_bytes += sim.dram_bytes;
        self.ops += cost.total_ops();
        self.stage_pairs
            .push((sim.frontend_cycles + sim.gnn_cycles + sim.rnn_b_cycles, sim.rnn_a_cycles));
        self.snapshots.push(sim);
    }

    /// The report of the timed steps, with the Fig. 8 pipeline overlap
    /// unless `disable_pipeline` is set.
    pub fn finish(self) -> SimReport {
        let serial_cycles: f64 = self.snapshots.iter().map(SnapshotSim::serial_cycles).sum();
        let total_cycles = if self.opts.disable_pipeline {
            serial_cycles
        } else {
            // Fig. 8: RNN-A(t) overlaps the front of snapshot t+1.
            idgnn_hw::overlap_cycles(&self.stage_pairs)
        };
        SimReport {
            snapshots: self.snapshots,
            total_cycles,
            serial_cycles,
            energy: self.energy,
            dram_bytes: self.dram_bytes,
            ops: self.ops,
            phases: self.util_phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::Normalization;
    use idgnn_model::{Activation, ModelConfig};

    fn workload() -> (DgnnModel, DynamicGraph) {
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

    fn small_accel() -> IdgnnAccelerator {
        IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap()
    }

    #[test]
    fn simulation_produces_per_snapshot_reports() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert_eq!(r.snapshots.len(), 4);
        assert!(r.total_cycles > 0.0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.ops.total() > 0);
        assert!(r.seconds(700_000_000) > 0.0);
    }

    #[test]
    fn pipeline_never_slower_than_serial() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(r.total_cycles <= r.serial_cycles + 1e-6);
        let no_pipe = small_accel()
            .simulate(&model, &dg, &SimOptions { disable_pipeline: true, ..Default::default() })
            .unwrap();
        assert!((no_pipe.total_cycles - no_pipe.serial_cycles).abs() < 1e-9);
    }

    #[test]
    fn analytical_scheduler_not_worse_than_even() {
        let (model, dg) = workload();
        let accel = small_accel();
        let analytic = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let even = accel
            .simulate(
                &model,
                &dg,
                &SimOptions { scheduler: SchedulerPolicy::Even, ..Default::default() },
            )
            .unwrap();
        assert!(
            analytic.total_cycles <= even.total_cycles * 1.02,
            "analytic {} vs even {}",
            analytic.total_cycles,
            even.total_cycles
        );
    }

    #[test]
    fn rotation_dataflow_beats_broadcast() {
        let (model, dg) = workload();
        let accel = small_accel();
        let rot = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let bcast = accel
            .simulate(
                &model,
                &dg,
                &SimOptions { dataflow: DataflowPolicy::Broadcast, ..Default::default() },
            )
            .unwrap();
        assert!(
            rot.total_cycles < bcast.total_cycles,
            "rotation {} !< broadcast {}",
            rot.total_cycles,
            bcast.total_cycles
        );
    }

    #[test]
    fn onepass_faster_than_baselines_on_same_hardware() {
        // The Fig. 13 experiment: same architecture, three algorithms.
        let (model, dg) = workload();
        let accel = small_accel();
        let run = |alg: Algorithm| {
            accel
                .simulate(&model, &dg, &SimOptions { algorithm: Some(alg), ..Default::default() })
                .unwrap()
                .total_cycles
        };
        let onepass = run(Algorithm::OnePass);
        let inc = run(Algorithm::Incremental);
        let rec = run(Algorithm::Recompute);
        assert!(onepass < rec, "one-pass {onepass} !< recompute {rec}");
        assert!(onepass < inc * 1.6, "one-pass {onepass} ≫ incremental {inc}");
    }

    #[test]
    fn more_pes_do_not_slow_down() {
        let (model, dg) = workload();
        let small = IdgnnAccelerator::new(
            AcceleratorConfig::paper_default().scaled_down(256),
        )
        .unwrap();
        let big = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(16))
            .unwrap();
        let a = small.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let b = big.simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(b.total_cycles <= a.total_cycles * 1.05, "big {} vs small {}", b.total_cycles, a.total_cycles);
    }

    #[test]
    fn utilization_trace_is_populated() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(!r.phases.is_empty());
        let u = r.utilization();
        assert_eq!(u.bucket_cycles, UTILIZATION_BUCKET_CYCLES);
        assert!(!u.mac.is_empty());
        assert!(u.mean_mac() > 0.0);
        assert!(u.mean_mac() <= 1.0);
    }

    /// `simulate` as it was before the executor lent its operators: execute
    /// and collect, then materialise the stream, re-normalise every snapshot
    /// and re-subtract consecutive operators for the one-pass rotation term.
    fn materialising_oracle(
        accel: &IdgnnAccelerator,
        model: &DgnnModel,
        dg: &DynamicGraph,
        opts: &SimOptions,
    ) -> SimReport {
        let config = accel.config();
        let mem = MemoryModel { onchip_bytes: config.total_onchip_bytes() };
        let algorithm = opts.algorithm.unwrap_or(Algorithm::OnePass);
        let result = match algorithm {
            Algorithm::OnePass => exec::run_onepass_with(model, dg, &mem, &opts.onepass),
            other => exec::run(other, model, dg, &mem),
        }
        .unwrap();
        let dataflow = TorusDataflow::new(config.num_pes());
        let snaps = dg.materialize().unwrap();
        let dims = model.dims();
        let v = dg.initial().num_vertices();
        let (mut sims, mut util, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut energy, mut dram) = (EnergyBreakdown::default(), 0u64);
        let mut prev_norm: Option<idgnn_sparse::CsrMatrix> = None;
        for (t, cost) in result.costs.iter().enumerate() {
            let a_norm = model.normalization().apply(snaps[t].adjacency());
            let balance = dataflow.load_balance(&a_norm);
            let rotated_bytes = if let Some(prev) = prev_norm.take() {
                let d_op = idgnn_sparse::ops::sp_sub(&a_norm, &prev).unwrap().pruned(0.0);
                let seed_rows = (0..v).filter(|&r| d_op.row_nnz(r) > 0).count();
                let mean_deg = (a_norm.nnz() as f64 / v.max(1) as f64).max(1.0);
                let touched = ((seed_rows as f64)
                    * mean_deg.powi(dims.gnn_layers.saturating_sub(1) as i32))
                .min(v as f64) as usize;
                dims.gnn_layers as u64 * d_op.csr_bytes() + dense_bytes(touched, dims.gnn_out_dim)
            } else {
                a_norm.csr_bytes() + dense_bytes(v, dims.input_dim)
            };
            let (noc_bytes, noc_pattern) = match opts.dataflow {
                DataflowPolicy::Rotation => {
                    (dataflow.rotation_bytes(rotated_bytes), TrafficPattern::NeighborShift)
                }
                DataflowPolicy::Broadcast => (
                    rotated_bytes.saturating_mul(config.num_pes() as u64),
                    TrafficPattern::Broadcast,
                ),
            };
            let resident_bytes = a_norm.csr_bytes()
                + dense_bytes(v, dims.input_dim)
                + 2 * dense_bytes(v, dims.gnn_out_dim)
                + 2 * dense_bytes(v, dims.rnn_hidden_dim)
                + model.weight_bytes();
            let occupancy_delta = if t == 0 {
                (resident_bytes as f64 / config.total_onchip_bytes() as f64).min(1.0)
            } else {
                (cost.total_dram().total() as f64 / config.total_onchip_bytes() as f64).min(0.05)
            };
            let schedule = accel.schedule_for(opts, cost, balance, noc_bytes, noc_pattern);
            let overlap_util =
                if !opts.disable_pipeline && t > 0 { schedule.beta * 0.95 } else { 0.0 };
            let sim = accel.time_snapshot_traced(
                cost,
                schedule,
                balance,
                noc_bytes,
                noc_pattern,
                occupancy_delta,
                overlap_util,
                &mut util,
            );
            energy = energy + sim.energy;
            dram += sim.dram_bytes;
            pairs.push((sim.frontend_cycles + sim.gnn_cycles + sim.rnn_b_cycles, sim.rnn_a_cycles));
            sims.push(sim);
            prev_norm = (algorithm == Algorithm::OnePass).then_some(a_norm);
        }
        let serial_cycles: f64 = sims.iter().map(SnapshotSim::serial_cycles).sum();
        let total_cycles = if opts.disable_pipeline {
            serial_cycles
        } else {
            idgnn_hw::overlap_cycles(&pairs)
        };
        SimReport {
            snapshots: sims,
            total_cycles,
            serial_cycles,
            energy,
            dram_bytes: dram,
            ops: result.total_ops(),
            phases: util,
        }
    }

    #[test]
    fn simulate_equals_the_materialising_oracle() {
        let (model, dg) = workload();
        let accel = small_accel();
        for algorithm in idgnn_model::ALL_ALGORITHMS {
            for dataflow in [DataflowPolicy::Rotation, DataflowPolicy::Broadcast] {
                for adaptive_refresh in [true, false] {
                    let opts = SimOptions {
                        algorithm: Some(algorithm),
                        dataflow,
                        onepass: OnePassOptions { adaptive_refresh, ..Default::default() },
                        ..Default::default()
                    };
                    let before = exec::runs_on_this_thread();
                    let got = accel.simulate(&model, &dg, &opts).unwrap();
                    let after = exec::runs_on_this_thread();
                    // One execution of the simulated algorithm, nothing else.
                    let runs: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                    let expected: Vec<u64> = idgnn_model::ALL_ALGORITHMS
                        .iter()
                        .map(|&a| u64::from(a == algorithm))
                        .collect();
                    assert_eq!(runs, expected, "{algorithm} {dataflow:?}");
                    assert_eq!(
                        got,
                        materialising_oracle(&accel, &model, &dg, &opts),
                        "{algorithm} {dataflow:?} refresh={adaptive_refresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_default_constructs() {
        let a = IdgnnAccelerator::paper_default();
        assert_eq!(a.config().num_pes(), 1024);
    }
}
