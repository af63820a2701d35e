//! The three benchmark workloads: how each builds its inputs from a seed,
//! the one operation it times, and the simulated statistics it checks.

use std::error::Error;

use idgnn_bench::context::{Context, ExperimentScale, ACCELERATORS};
use idgnn_bench::figures::fig12;
use idgnn_core::{IdgnnAccelerator, SimOptions, SimReport};
use idgnn_graph::datasets::MOBILE;
use idgnn_graph::generate::StreamConfig;
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_hw::AcceleratorConfig;
use idgnn_model::exec::{self, OnePassOptions};
use idgnn_model::{Activation, Algorithm, DgnnModel, MemoryModel, ModelConfig};
use idgnn_sparse::{DenseMatrix, Parallelism};

/// Error type of the benchmark.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Host worker threads every timed call is pinned to.
pub const PARALLELISM: usize = 1;

/// Largest max-abs difference allowed between the one-pass hidden state and
/// the Recompute executor's on the linear workloads (measured drift at seed
/// 42 is 3.3e-4 over 40 snapshots).
pub const ORACLE_TOLERANCE: f32 = 5e-3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fig12::run` over the six Table-I datasets and four accelerators.
    Fig12Grid,
    /// The published P-Algorithm (no adaptive refresh) on MB, L = 3.
    OnepassDelta,
    /// As `OnepassDelta` on a smaller MB graph with L = 4, which selects the
    /// General strategy and its power cache.
    PowerchainL4,
}

/// Every workload, in the order the smoke mode runs them.
pub const ALL: [Kind; 3] = [Kind::Fig12Grid, Kind::OnepassDelta, Kind::PowerchainL4];

impl Kind {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig12Grid => "fig12-grid",
            Kind::OnepassDelta => "onepass-delta",
            Kind::PowerchainL4 => "powerchain-l4",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the GCN is linear, so that Recompute is an exact oracle.
    pub fn linear(self) -> bool {
        self != Kind::Fig12Grid
    }
}

/// Stream shape of the single-graph workloads.
#[derive(Debug, Clone, Copy)]
struct Shape {
    edges: usize,
    snapshots: usize,
    dissimilarity: f64,
    layers: usize,
}

fn shape(kind: Kind, smoke: bool) -> Shape {
    match (kind, smoke) {
        (Kind::PowerchainL4, false) => Shape {
            edges: 6_000,
            snapshots: 20,
            dissimilarity: 0.005,
            layers: 4,
        },
        (Kind::PowerchainL4, true) => Shape {
            edges: 1_500,
            snapshots: 5,
            dissimilarity: 0.005,
            layers: 4,
        },
        (_, false) => Shape {
            edges: 20_000,
            snapshots: 40,
            dissimilarity: 0.01,
            layers: 3,
        },
        (_, true) => Shape {
            edges: 2_000,
            snapshots: 6,
            dissimilarity: 0.01,
            layers: 3,
        },
    }
}

/// One simulated stream with its model and accelerator.
#[derive(Debug)]
pub struct Single {
    /// The snapshot stream.
    pub graph: DynamicGraph,
    /// The linear GCN + LSTM model.
    pub model: DgnnModel,
    /// The accelerator, scaled like the dataset.
    pub accel: IdgnnAccelerator,
    /// Simulation options: P-Algorithm as published, pinned parallelism.
    pub opts: SimOptions,
}

impl Single {
    /// The memory model the accelerator's executor uses.
    pub fn memory(&self) -> MemoryModel {
        MemoryModel {
            onchip_bytes: self.accel.config().total_onchip_bytes(),
        }
    }
}

/// A workload's inputs, built from the seed. Only one exists at a time, so
/// the variants' size difference does not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// The fig12 experiment context.
    Grid(Context),
    /// A single stream.
    Single(Single),
}

/// Builds the inputs of `kind`: generates the snapshot stream(s), builds the
/// model(s) and the accelerator configuration. This is what `setup_s` times.
pub fn setup(kind: Kind, seed: u64, smoke: bool) -> BenchResult<Inputs> {
    if kind == Kind::Fig12Grid {
        let scale = if smoke {
            ExperimentScale::Quick
        } else {
            ExperimentScale::Standard
        };
        let ctx = Context::new(scale, seed)?.with_parallelism(Parallelism::new(PARALLELISM));
        return Ok(Inputs::Grid(ctx));
    }
    let s = shape(kind, smoke);
    let graph = generate_single(s, seed)?;
    let model = DgnnModel::from_config(
        &ModelConfig {
            input_dim: graph.initial().feature_dim(),
            gnn_hidden: 32,
            gnn_layers: s.layers,
            rnn_hidden: 32,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: seed.wrapping_add(77),
            rnn_kernel: Default::default(),
        }
        .linear(),
    )?;
    let scale = (MOBILE.edges as u64 / s.edges as u64).max(1);
    let accel = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(scale))?;
    let opts = SimOptions {
        onepass: OnePassOptions {
            adaptive_refresh: false,
            ..Default::default()
        },
        parallelism: Some(PARALLELISM),
        ..Default::default()
    };
    Ok(Inputs::Single(Single {
        graph,
        model,
        accel,
        opts,
    }))
}

/// The snapshot stream of a single-graph workload.
fn generate_single(s: Shape, seed: u64) -> BenchResult<DynamicGraph> {
    let stream = StreamConfig {
        deltas: s.snapshots - 1,
        dissimilarity: s.dissimilarity,
        addition_fraction: 0.75,
        feature_update_fraction: 0.02,
    };
    Ok(MOBILE.generate_scaled(s.edges, &stream, seed)?)
}

/// Generates every snapshot stream of `inputs` again, as [`setup`] did, and
/// returns whether each equals the stream setup built. The traced run times
/// this as the graph layer's share of set-up.
pub fn regenerate(inputs: &Inputs, kind: Kind, seed: u64, smoke: bool) -> BenchResult<bool> {
    Ok(match inputs {
        Inputs::Grid(ctx) => {
            let scale = if smoke {
                ExperimentScale::Quick
            } else {
                ExperimentScale::Standard
            };
            let mut same = true;
            // `Context::new` seeds dataset `i` with `seed + i`.
            for (i, w) in ctx.workloads.iter().enumerate() {
                let g = w.spec.generate_scaled(
                    scale.max_edges(),
                    &ctx.stream,
                    seed.wrapping_add(i as u64),
                )?;
                same &= g == w.graph;
            }
            same
        }
        Inputs::Single(s) => generate_single(shape(kind, smoke), seed)? == s.graph,
    })
}

impl Inputs {
    /// Simulated snapshots one [`Inputs::run`] call completes.
    pub fn snapshots(&self) -> usize {
        match self {
            Inputs::Grid(ctx) => {
                ctx.workloads
                    .iter()
                    .map(|w| w.graph.num_snapshots())
                    .sum::<usize>()
                    * ACCELERATORS.len()
            }
            Inputs::Single(s) => s.graph.num_snapshots(),
        }
    }

    /// The timed operation. Returns the observable outputs as bit patterns:
    /// per-cell cycles for the grid, the full simulated statistics for a
    /// single stream.
    pub fn run(&self) -> BenchResult<Vec<u64>> {
        Ok(match self {
            Inputs::Grid(ctx) => {
                let fig = fig12::run(ctx)?;
                fig.rows
                    .iter()
                    .flat_map(|r| r.cycles)
                    .map(f64::to_bits)
                    .collect()
            }
            Inputs::Single(s) => {
                CellStats::of("sim", &s.accel.simulate(&s.model, &s.graph, &s.opts)?).bits()
            }
        })
    }

    /// Full simulated statistics of every simulated cell (untimed).
    pub fn stats(&self) -> BenchResult<Vec<CellStats>> {
        match self {
            Inputs::Grid(ctx) => {
                let mut out = Vec::new();
                for w in &ctx.workloads {
                    for name in ACCELERATORS {
                        let report = ctx.run_accelerator(name, w)?;
                        out.push(CellStats::of(&format!("{}/{name}", w.spec.short), &report));
                    }
                }
                Ok(out)
            }
            Inputs::Single(s) => Ok(vec![CellStats::of(
                "sim",
                &s.accel.simulate(&s.model, &s.graph, &s.opts)?,
            )]),
        }
    }

    /// The observable bits [`Inputs::run`] must return, derived from
    /// [`Inputs::stats`].
    pub fn expected_run(&self, stats: &[CellStats]) -> Vec<u64> {
        match self {
            Inputs::Grid(_) => stats.iter().map(|c| c.total_cycles.to_bits()).collect(),
            Inputs::Single(_) => stats.iter().flat_map(CellStats::bits).collect(),
        }
    }

    /// Max-abs difference between the one-pass and Recompute hidden states
    /// over all snapshots (linear workloads only).
    pub fn oracle_drift(&self) -> BenchResult<f32> {
        let Inputs::Single(s) = self else {
            return Ok(0.0);
        };
        let mem = s.memory();
        let one = exec::run_onepass_with(&s.model, &s.graph, &mem, &s.opts.onepass)?;
        let rec = exec::run(Algorithm::Recompute, &s.model, &s.graph, &mem)?;
        drift(&one, &rec)
    }
}

/// Max-abs difference of the hidden states of two executions.
pub fn drift(a: &exec::ExecutionResult, b: &exec::ExecutionResult) -> BenchResult<f32> {
    if a.outputs.len() != b.outputs.len() {
        return Ok(f32::INFINITY);
    }
    let mut worst = 0.0f32;
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        worst = worst.max(state_gap(&x.state.h, &y.state.h)?);
    }
    Ok(worst)
}

/// Max-abs difference of two states; infinite when either holds a
/// non-finite value, which `max_abs_diff` alone would skip.
pub fn state_gap(a: &DenseMatrix, b: &DenseMatrix) -> BenchResult<f32> {
    let finite = a
        .as_slice()
        .iter()
        .chain(b.as_slice())
        .all(|x| x.is_finite());
    Ok(if finite {
        a.max_abs_diff(b)?
    } else {
        f32::INFINITY
    })
}

/// The simulated statistics of one accelerator run that the reference pins.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// `dataset/accelerator` for the grid, `sim` for a single stream.
    pub label: String,
    /// Pipelined cycles.
    pub total_cycles: f64,
    /// Cycles without cross-kernel overlap.
    pub serial_cycles: f64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// Scalar multiplications.
    pub mults: u64,
    /// Scalar additions.
    pub adds: u64,
    /// Total energy, pJ.
    pub energy_pj: f64,
}

impl CellStats {
    fn of(label: &str, r: &SimReport) -> Self {
        Self {
            label: label.to_string(),
            total_cycles: r.total_cycles,
            serial_cycles: r.serial_cycles,
            dram_bytes: r.dram_bytes,
            mults: r.ops.mults,
            adds: r.ops.adds,
            energy_pj: r.energy.total_pj(),
        }
    }

    fn bits(&self) -> Vec<u64> {
        vec![
            self.total_cycles.to_bits(),
            self.serial_cycles.to_bits(),
            self.dram_bytes,
            self.mults,
            self.adds,
            self.energy_pj.to_bits(),
        ]
    }

    /// One reference line: `workload seed label tc sc dram mults adds energy`.
    /// `f64` display is the shortest string that parses back to the same
    /// bits, so the line round-trips exactly.
    pub fn line(&self, workload: &str, seed: u64) -> String {
        format!(
            "{workload} {seed} {} {} {} {} {} {} {}",
            self.label,
            self.total_cycles,
            self.serial_cycles,
            self.dram_bytes,
            self.mults,
            self.adds,
            self.energy_pj
        )
    }
}

/// Reference statistics recorded by `--record-reference`, one line per cell.
const REFERENCE: &str = include_str!("../reference.txt");

/// Outcome of comparing simulated statistics to the recorded reference.
#[derive(Debug, PartialEq, Eq)]
pub enum RefCheck {
    /// Every cell equals the reference exactly.
    Match,
    /// The reference holds no record for this workload and seed.
    Absent,
    /// At least one cell differs; the first difference.
    Mismatch(String),
}

/// Compares `stats` with the reference lines of `workload` at `seed`.
pub fn check_reference(workload: &str, seed: u64, stats: &[CellStats]) -> RefCheck {
    let want: Vec<&str> = REFERENCE
        .lines()
        .filter(|l| {
            let mut f = l.split(' ');
            f.next() == Some(workload) && f.next() == Some(seed.to_string().as_str())
        })
        .collect();
    if want.is_empty() {
        return RefCheck::Absent;
    }
    if want.len() != stats.len() {
        return RefCheck::Mismatch(format!(
            "{} cells, reference has {}",
            stats.len(),
            want.len()
        ));
    }
    for (line, cell) in want.iter().zip(stats) {
        let got = cell.line(workload, seed);
        if *line != got {
            return RefCheck::Mismatch(format!("got `{got}`, reference `{line}`"));
        }
    }
    RefCheck::Match
}
