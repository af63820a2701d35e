//! The `kernels` microbenchmark: wall-clock timing of the sparse kernels
//! (SpGEMM, SpMM, sparse add) and of the cross-snapshot power chain —
//! cold vs warm [`PowerCache`] — on the Fig. 12 datasets.
//!
//! Unlike the figure harnesses (which report *modelled* ops/cycles and must
//! stay byte-identical across hosts), this report measures the host itself,
//! so its numbers vary run to run. The whole run is pinned to one kernel
//! thread, and every timing in the report comes from one driver,
//! `interleaved_min_ms`: each value is the minimum over
//! [`KernelBenchConfig::samples`] samples, every sample visits every cell
//! before the next starts, and warm cells re-prime their cache in untimed
//! setup so only steady-state snapshots are timed.
//!
//! The binary `src/bin/kernels.rs` writes the report to
//! `BENCH_kernels.json` at the repository root (see README).

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_model::onepass::{
    fused_dissimilarity, fused_dissimilarity_cached, Dissimilarity, DissimilarityStrategy,
};
use idgnn_model::PowerCache;
use idgnn_sparse::{ops, parallel, CsrMatrix, OpStats, Parallelism};

use crate::context::{Context, ExperimentScale, Result};
use crate::report::table;

/// What the `kernels` benchmark runs.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Workload scale (smoke runs use [`ExperimentScale::Quick`]).
    pub scale: ExperimentScale,
    /// Dataset-generation seed.
    pub seed: u64,
    /// Interleaved samples per timed cell; the minimum is reported.
    pub samples: usize,
    /// How many Fig. 12 datasets to bench (in Table-I order).
    pub datasets: usize,
    /// Power-chain depth `L`.
    pub layers: u32,
    /// Element count per array of the DRAM-sized STREAM-triad baseline
    /// (three `f32` arrays; pick a size whose combined footprint exceeds
    /// every cache level so the measurement is memory-bound).
    pub triad_dram_elements: usize,
}

/// Element count per array of the cache-resident triad baseline: three
/// arrays × 8192 × 4 B = 96 KiB, inside a typical ≥256 KiB L2. Its
/// bandwidth bounds what any cache-hot kernel can achieve, which is why the
/// roofline gate compares against the *peak* of the two triad runs.
pub const TRIAD_L2_ELEMENTS: usize = 8 * 1024;

impl KernelBenchConfig {
    /// The full configuration behind the committed `BENCH_kernels.json`:
    /// all six Fig. 12 datasets at standard scale.
    pub fn full() -> Self {
        Self {
            scale: ExperimentScale::Standard,
            seed: 42,
            samples: 5,
            datasets: usize::MAX,
            // L = 4: the warm chain skips three of the six power products
            // per snapshot (Â¹ is free either way), which is where the
            // cold/warm gap is widest relative to the fixed term-product
            // cost.
            layers: 4,
            // Three arrays × 4 MiB elements × 4 B = 48 MiB: past any L3.
            triad_dram_elements: 4 * 1024 * 1024,
        }
    }

    /// The CI smoke configuration: two quick-scale datasets, two samples —
    /// seconds, not minutes.
    pub fn smoke() -> Self {
        Self {
            scale: ExperimentScale::Quick,
            seed: 42,
            samples: 2,
            datasets: 2,
            layers: 3,
            triad_dram_elements: 1024 * 1024,
        }
    }
}

/// Minimum wall time of one kernel on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct KernelTiming {
    /// Kernel name (`spgemm` | `spmm` | `sp_add`).
    pub kernel: String,
    /// Dataset short code.
    pub dataset: String,
    /// Minimum wall time across the interleaved samples, milliseconds.
    pub wall_ms: f64,
    /// Samples taken.
    pub samples: usize,
}

/// Roofline-style characterization of one kernel on one dataset: exact
/// FLOPs (from [`OpStats`]) over the minimum bytes the operands and output
/// occupy (CSR/dense footprints), against the wall time of the matching
/// `kernels` row.
///
/// The byte count is a *footprint* lower bound on traffic — a cache-hot run
/// moves each byte once, a thrashing run more — so `achieved_gbps` is the
/// kernel's effective bandwidth demand and must not exceed what the host
/// demonstrably sustains (the triad peak), which is what the validator
/// gates on.
#[derive(Debug, Clone, Serialize)]
pub struct RooflineEntry {
    /// Kernel name (`spgemm` | `spmm`).
    pub kernel: String,
    /// Dataset short code.
    pub dataset: String,
    /// Exact scalar multiply + add count ([`OpStats`] `mults + adds`).
    pub flops: u64,
    /// Footprint bytes: CSR operands/output at `8 B` per index and `4 B`
    /// per value, dense operands at `4 B` per element.
    pub bytes: u64,
    /// `flops / bytes` — where the kernel sits on the roofline's x-axis.
    pub arithmetic_intensity: f64,
    /// Wall time the rates below are computed from (the `kernels` row's
    /// minimum), milliseconds.
    pub wall_ms: f64,
    /// `flops / wall` in GFLOP/s.
    pub achieved_gflops: f64,
    /// `bytes / wall` in GB/s.
    pub achieved_gbps: f64,
}

/// STREAM-like triad (`a[i] = b[i] + s·c[i]`) bandwidth baselines measured
/// on this host in the same process as the kernel timings.
///
/// Two sizes bound the two regimes a kernel can be in: a cache-resident run
/// (`l2_*`) bounds cache-hot kernels, a DRAM-sized run (`dram_*`) bounds
/// streaming kernels. `peak_gbps` is the larger of the two — the roofline
/// gate compares kernel bandwidth against it.
#[derive(Debug, Clone, Serialize)]
pub struct TriadBaseline {
    /// Elements per array of the cache-resident run.
    pub l2_elements: usize,
    /// Best-of-samples bandwidth of the cache-resident run, GB/s.
    pub l2_gbps: f64,
    /// Elements per array of the DRAM-sized run.
    pub dram_elements: usize,
    /// Best-of-samples bandwidth of the DRAM-sized run, GB/s.
    pub dram_gbps: f64,
    /// `max(l2_gbps, dram_gbps)`.
    pub peak_gbps: f64,
}

/// The three arrays of one triad size. Small sizes repeat the pass inside
/// the timed region so the measurement never collapses into timer
/// granularity.
struct Triad {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    passes: usize,
}

impl Triad {
    fn new(n: usize) -> Self {
        Self {
            a: vec![0.0; n],
            b: vec![1.5; n],
            c: vec![2.5; n],
            passes: (4 * 1024 * 1024 / n.max(1)).max(1),
        }
    }

    /// One timed run of all passes, milliseconds.
    fn time_ms(&mut self) -> f64 {
        let scalar = 3.0f32;
        let t0 = Instant::now();
        for _ in 0..self.passes {
            for ((av, &bv), &cv) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                *av = bv + scalar * cv;
            }
            black_box(&mut self.a);
        }
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Bandwidth of a run that took `ms`: 12 bytes move per element per
    /// pass (read `b`, read `c`, write `a`).
    fn gbps(&self, ms: f64) -> f64 {
        if ms <= 0.0 {
            return 0.0;
        }
        (3 * 4 * self.a.len() * self.passes) as f64 / (ms / 1e3) / 1e9
    }
}

impl TriadBaseline {
    /// Measures both triad sizes through the interleaved driver (at least
    /// three samples).
    // lint: timing-carrier -- interleaved min-of-N wall-clock feeds the report's bandwidth fields only
    fn measure(l2_elements: usize, dram_elements: usize, samples: usize) -> Result<Self> {
        let mut runs = [Triad::new(l2_elements), Triad::new(dram_elements)];
        let mins = interleaved_min_ms(runs.len(), samples.max(3), |cell| {
            Ok(runs[cell].time_ms())
        })?;
        let [l2, dram] = &runs;
        let (l2_gbps, dram_gbps) = (l2.gbps(mins[0]), dram.gbps(mins[1]));
        Ok(Self { l2_elements, l2_gbps, dram_elements, dram_gbps, peak_gbps: l2_gbps.max(dram_gbps) })
    }
}

/// Cold vs warm power-chain timing on one dataset.
///
/// Both runs evaluate the same snapshot sequence with the resident operator
/// advanced by `Â ← Â + ΔÂ`; the warm run keeps a [`PowerCache`] across
/// snapshots (primed untimed on the first delta), the cold run recomputes
/// every power chain. The outputs are bit-identical — only the time differs;
/// an untimed pass checks every warm delta bitwise against the cold kernel
/// before the row is published.
#[derive(Debug, Clone, Serialize)]
pub struct PowerChainTiming {
    /// Dataset short code.
    pub dataset: String,
    /// Chain depth `L`.
    pub layers: u32,
    /// Snapshot deltas in the timed region (the priming delta is excluded).
    pub timed_deltas: usize,
    /// Cold (cache-less) wall time, milliseconds.
    pub cold_ms: f64,
    /// Warm (cached) wall time, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub warm_speedup: f64,
    /// Cache hits across the timed deltas (equals `timed_deltas`).
    pub cache_hits: u64,
    /// Multiplies avoided by cache hits across the timed deltas.
    pub saved_mults: u64,
    /// Additions avoided by cache hits across the timed deltas.
    pub saved_adds: u64,
}

/// The whole kernel-benchmark report (serialized to `BENCH_kernels.json`).
#[derive(Debug, Clone, Serialize)]
pub struct KernelBenchReport {
    /// Workload scale the operands were generated at.
    pub scale: String,
    /// Interleaved samples per timed cell (minimum reported).
    pub samples: usize,
    /// Per-kernel timings, dataset-major.
    pub kernels: Vec<KernelTiming>,
    /// Roofline characterization of the `spgemm`/`spmm` rows.
    pub roofline: Vec<RooflineEntry>,
    /// Triad bandwidth baselines the roofline entries are gated against.
    pub triad: TriadBaseline,
    /// Power-chain cold/warm comparison per dataset.
    pub power_chain: Vec<PowerChainTiming>,
    /// Best observed warm speedup across `power_chain`.
    pub max_warm_speedup: f64,
    /// Workspace-pool buffer reuses during the run (informational; the pool
    /// is process-global, so this includes operand setup).
    pub pool_hits: u64,
    /// Workspace-pool buffer allocations during the run (informational).
    pub pool_misses: u64,
}

/// One dataset's benchmark operands.
struct Operands {
    short: String,
    /// Resident operator at the first snapshot.
    a: CsrMatrix,
    /// Initial feature matrix.
    x: idgnn_sparse::DenseMatrix,
    /// `(resident operator, ΔÂ)` per snapshot delta, with the resident
    /// operator advanced exactly as the kernel advances it internally
    /// (`Â ← sp_add(Â, ΔÂ)`) so warm calls hit the cache bit-exactly.
    chain: Vec<(CsrMatrix, CsrMatrix)>,
}

fn graph_operands(short: &str, graph: &DynamicGraph) -> Result<Operands> {
    let snaps = graph.materialize()?;
    let a = Normalization::SelfLoops.apply(snaps[0].adjacency());
    let mut chain = Vec::with_capacity(snaps.len() - 1);
    let mut resident = a.clone();
    for s in &snaps[1..] {
        let a_next = Normalization::SelfLoops.apply(s.adjacency());
        let d = ops::sp_sub_pruned(&a_next, &resident)?;
        let advanced = ops::sp_add(&resident, &d)?;
        chain.push((resident, d));
        resident = advanced;
    }
    Ok(Operands { short: short.to_string(), a, x: snaps[0].features().clone(), chain })
}

fn operands(ctx: &Context, datasets: usize) -> Result<Vec<Operands>> {
    ctx.workloads
        .iter()
        .take(datasets)
        .map(|w| graph_operands(w.spec.short, &w.graph))
        .collect()
}

/// The timed cells of one dataset: the three kernels behind the `kernels`
/// rows, then the cold/warm pair behind the `power_chain` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Spgemm,
    Spmm,
    SpAdd,
    ChainCold,
    ChainWarm,
}

/// Every cell in report order.
const CELLS: [Cell; 5] = [Cell::Spgemm, Cell::Spmm, Cell::SpAdd, Cell::ChainCold, Cell::ChainWarm];

impl Cell {
    /// The kernel name a `kernels` row carries.
    fn name(self) -> &'static str {
        match self {
            Cell::Spgemm => "spgemm",
            Cell::Spmm => "spmm",
            Cell::SpAdd => "sp_add",
            Cell::ChainCold => "power_chain_cold",
            Cell::ChainWarm => "power_chain_warm",
        }
    }

    /// One timed measurement of this cell on `set`, in milliseconds.
    /// Kernel outputs are recycled into the workspace pool after the clock
    /// stops, so steady-state allocation behavior is what gets timed; the
    /// warm chain primes its cache on the first delta before the clock
    /// starts, so every timed delta hits it.
    // lint: timing-carrier -- one wall-clock sample for the interleaved driver; outputs are discarded
    fn time_ms(self, set: &Operands, layers: u32) -> Result<f64> {
        let strategy = DissimilarityStrategy::General;
        let (timed, (rs0, d0)) = (&set.chain[1..], &set.chain[0]);
        let mut warm = PowerCache::new();
        if self == Cell::ChainWarm {
            fused_dissimilarity_cached(rs0, d0, layers, strategy, &mut warm)?;
        }
        let t0 = Instant::now();
        let elapsed = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        Ok(match self {
            Cell::Spgemm => {
                let prod = ops::spgemm_with_stats(black_box(&set.a), black_box(&set.a))?.0;
                let ms = elapsed(t0);
                idgnn_sparse::workspace::recycle(black_box(prod));
                ms
            }
            Cell::Spmm => {
                let agg = ops::spmm_with_stats(black_box(&set.a), black_box(&set.x))?.0;
                let ms = elapsed(t0);
                idgnn_sparse::workspace::recycle_dense(black_box(agg));
                ms
            }
            Cell::SpAdd => {
                let sum = ops::sp_add(black_box(&set.a), black_box(d0))?;
                let ms = elapsed(t0);
                idgnn_sparse::workspace::recycle(black_box(sum));
                ms
            }
            Cell::ChainCold => {
                for (rs, d) in timed {
                    black_box(fused_dissimilarity(rs, d, layers, strategy)?);
                }
                elapsed(t0)
            }
            Cell::ChainWarm => {
                for (rs, d) in timed {
                    black_box(fused_dissimilarity_cached(rs, d, layers, strategy, &mut warm)?);
                }
                elapsed(t0)
            }
        })
    }
}

/// CSR storage footprint: `usize` indices (`indptr` + `indices`) plus `f32`
/// values — the bytes a streaming pass over the matrix must touch.
fn csr_footprint_bytes(m: &CsrMatrix) -> u64 {
    let idx = std::mem::size_of::<usize>() as u64;
    idx * (m.rows() as u64 + 1) + (idx + 4) * m.nnz() as u64
}

/// Dense storage footprint (`f32` elements).
fn dense_footprint_bytes(rows: usize, cols: usize) -> u64 {
    4 * rows as u64 * cols as u64
}

/// The interleaved min-of-N driver behind every timing in the report:
/// every sample visits every cell before the next sample starts, so a slow
/// window on a shared host (frequency drift, co-tenants) lands on all cells
/// instead of biasing whichever cell happened to run last. `time_cell`
/// performs one timed measurement of one cell and returns its wall time in
/// milliseconds; the result holds each cell's minimum over `samples`
/// samples.
fn interleaved_min_ms<F>(cells: usize, samples: usize, mut time_cell: F) -> Result<Vec<f64>>
where
    F: FnMut(usize) -> Result<f64>,
{
    let mut mins = vec![f64::MAX; cells];
    for _ in 0..samples {
        for (cell, min) in mins.iter_mut().enumerate() {
            let ms = time_cell(cell)?;
            if ms < *min {
                *min = ms;
            }
        }
    }
    Ok(mins)
}

/// Times every [`CELLS`] entry on every dataset in one interleaved run and
/// splits the minima into the `kernels` and `power_chain` rows. The
/// power-chain hit/saved accounting comes from one untimed instrumented
/// warm pass per dataset, which also checks every warm delta bitwise
/// against the cold kernel.
///
/// # Panics
///
/// Panics if a warm result diverges bitwise from the cold kernel.
// lint: timing-carrier -- interleaved min-of-N wall-clock feeds the report's timing fields, independent of the bit-checked results
fn measure_kernels(
    cfg: &KernelBenchConfig,
    sets: &[Operands],
) -> Result<(Vec<KernelTiming>, Vec<PowerChainTiming>)> {
    let n = CELLS.len();
    let mins = interleaved_min_ms(sets.len() * n, cfg.samples, |cell| {
        // Cell layout `si * CELLS.len() + ci` — dataset-major; the readout
        // below matches it.
        CELLS[cell % n].time_ms(&sets[cell / n], cfg.layers)
    })?;
    let mut kernels = Vec::new();
    let mut power_chain = Vec::new();
    for (set, cell_mins) in sets.iter().zip(mins.chunks_exact(n)) {
        let mut cold_ms = 0.0;
        let mut warm_ms = 0.0;
        for (&cell, &wall_ms) in CELLS.iter().zip(cell_mins) {
            match cell {
                Cell::ChainCold => cold_ms = wall_ms,
                Cell::ChainWarm => warm_ms = wall_ms,
                _ => kernels.push(KernelTiming {
                    kernel: cell.name().to_string(),
                    dataset: set.short.clone(),
                    wall_ms,
                    samples: cfg.samples,
                }),
            }
        }
        let strategy = DissimilarityStrategy::General;
        let mut cache = PowerCache::new();
        let mut saved = OpStats::default();
        for (i, (rs, d)) in set.chain.iter().enumerate() {
            let warm = fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut cache)?;
            if i > 0 {
                let cold = fused_dissimilarity(rs, d, cfg.layers, strategy)?;
                assert_bit_identical(&warm, &cold, &format!("{} delta {i}", set.short));
                saved += warm.saved;
            }
        }
        power_chain.push(PowerChainTiming {
            dataset: set.short.clone(),
            layers: cfg.layers,
            timed_deltas: set.chain.len().saturating_sub(1),
            cold_ms,
            warm_ms,
            warm_speedup: if warm_ms > 0.0 { cold_ms / warm_ms } else { 0.0 },
            cache_hits: cache.hits(),
            saved_mults: saved.mults,
            saved_adds: saved.adds,
        });
    }
    Ok((kernels, power_chain))
}

/// Builds the roofline entries from exact op counts, storage footprints, and
/// the `kernels` rows' wall times.
fn roofline_entries(sets: &[Operands], kernels: &[KernelTiming]) -> Result<Vec<RooflineEntry>> {
    let wall_of = |kernel: &str, dataset: &str| {
        kernels.iter().find(|k| k.kernel == kernel && k.dataset == dataset).map(|k| k.wall_ms)
    };
    let entry = |kernel: &str, dataset: &str, flops: u64, bytes: u64, wall_ms: f64| {
        let secs = wall_ms / 1e3;
        RooflineEntry {
            kernel: kernel.to_string(),
            dataset: dataset.to_string(),
            flops,
            bytes,
            arithmetic_intensity: flops as f64 / bytes as f64,
            wall_ms,
            achieved_gflops: if secs > 0.0 { flops as f64 / secs / 1e9 } else { 0.0 },
            achieved_gbps: if secs > 0.0 { bytes as f64 / secs / 1e9 } else { 0.0 },
        }
    };
    let mut out = Vec::new();
    for set in sets {
        let (prod, st) = ops::spgemm_with_stats(&set.a, &set.a)?;
        let bytes = 2 * csr_footprint_bytes(&set.a) + csr_footprint_bytes(&prod);
        idgnn_sparse::workspace::recycle(prod);
        if let Some(wall_ms) = wall_of("spgemm", &set.short) {
            out.push(entry("spgemm", &set.short, st.total(), bytes, wall_ms));
        }
        let (agg, st) = ops::spmm_with_stats(&set.a, &set.x)?;
        let bytes = csr_footprint_bytes(&set.a)
            + dense_footprint_bytes(set.x.rows(), set.x.cols())
            + dense_footprint_bytes(agg.rows(), agg.cols());
        idgnn_sparse::workspace::recycle_dense(agg);
        if let Some(wall_ms) = wall_of("spmm", &set.short) {
            out.push(entry("spmm", &set.short, st.total(), bytes, wall_ms));
        }
    }
    Ok(out)
}

/// Panics unless the warm (cached) result is bitwise identical to the cold
/// kernel — the correctness guard behind every published `power_chain` row.
fn assert_bit_identical(warm: &Dissimilarity, cold: &Dissimilarity, context: &str) {
    assert_eq!(warm.delta_ac.indptr(), cold.delta_ac.indptr(), "{context}: indptr diverged");
    assert_eq!(warm.delta_ac.indices(), cold.delta_ac.indices(), "{context}: indices diverged");
    let wv: Vec<u32> = warm.delta_ac.values().iter().map(|v| v.to_bits()).collect();
    let cv: Vec<u32> = cold.delta_ac.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(wv, cv, "{context}: values diverged");
    assert_eq!(warm.ops, cold.ops, "{context}: reported op counts diverged");
}

/// Runs the benchmark and assembles the report. Every kernel runs on one
/// thread: the whole run sits under a single-thread
/// [`parallel::kernel_scope`].
///
/// # Errors
///
/// Propagates operand-construction and kernel errors.
///
/// # Panics
///
/// Panics if a warm power-chain result diverges bitwise from the cold
/// kernel (correctness guard).
pub fn run(cfg: &KernelBenchConfig) -> Result<KernelBenchReport> {
    let _scope = parallel::kernel_scope(Parallelism::new(1));
    let ctx = Context::new(cfg.scale, cfg.seed)?;
    let sets = operands(&ctx, cfg.datasets)?;
    let (kernels, power_chain) = measure_kernels(cfg, &sets)?;
    // The roofline reading of the kernel rows and the triad baselines it is
    // gated against (DESIGN.md §13).
    let roofline = roofline_entries(&sets, &kernels)?;
    let triad = TriadBaseline::measure(TRIAD_L2_ELEMENTS, cfg.triad_dram_elements, cfg.samples)?;

    let (pool_hits, pool_misses) = idgnn_sparse::workspace::pool_counters();
    let max_warm_speedup =
        power_chain.iter().map(|p| p.warm_speedup).fold(0.0f64, f64::max);
    Ok(KernelBenchReport {
        scale: match cfg.scale {
            ExperimentScale::Quick => "quick".to_string(),
            ExperimentScale::Standard => "standard".to_string(),
        },
        samples: cfg.samples,
        kernels,
        roofline,
        triad,
        power_chain,
        max_warm_speedup,
        pool_hits,
        pool_misses,
    })
}

impl std::fmt::Display for KernelBenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .kernels
            .iter()
            .map(|k| vec![k.dataset.clone(), k.kernel.clone(), format!("{:.3}", k.wall_ms)])
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Kernel wall-clock, one thread (interleaved min of samples, ms)",
                &["dataset", "kernel", "ms"],
                &rows,
            )
        )?;
        if !self.roofline.is_empty() {
            let rows: Vec<Vec<String>> = self
                .roofline
                .iter()
                .map(|r| {
                    vec![
                        r.dataset.clone(),
                        r.kernel.clone(),
                        format!("{:.2}", r.arithmetic_intensity),
                        format!("{:.3}", r.achieved_gflops),
                        format!("{:.3}", r.achieved_gbps),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                table(
                    "Roofline (exact FLOPs / footprint bytes)",
                    &["dataset", "kernel", "flop/byte", "GFLOP/s", "GB/s"],
                    &rows,
                )
            )?;
            writeln!(
                f,
                "triad baseline: {:.2} GB/s cache-resident ({} el), {:.2} GB/s DRAM ({} el), peak {:.2} GB/s",
                self.triad.l2_gbps,
                self.triad.l2_elements,
                self.triad.dram_gbps,
                self.triad.dram_elements,
                self.triad.peak_gbps,
            )?;
        }
        let rows: Vec<Vec<String>> = self
            .power_chain
            .iter()
            .map(|p| {
                vec![
                    p.dataset.clone(),
                    format!("{:.3}", p.cold_ms),
                    format!("{:.3}", p.warm_ms),
                    format!("{:.2}x", p.warm_speedup),
                    p.cache_hits.to_string(),
                    p.saved_mults.to_string(),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                &format!("Power chain L={} — cold vs warm PowerCache",
                    self.power_chain.first().map_or(0, |p| p.layers)),
                &["dataset", "cold ms", "warm ms", "speedup", "hits", "saved mults"],
                &rows,
            )
        )?;
        writeln!(f, "best warm speedup: {:.2}x", self.max_warm_speedup)
    }
}

/// Parses `text` with [`crate::jsonv`] and checks the report *structure*:
/// every required section present with the right shape, non-empty where the
/// run implies entries, every `power_chain` row served by the cache on each
/// timed delta with nonzero saved multiplies, and — on a full standard-scale
/// run — a warm power chain no slower than cold on every dataset.
///
/// This is the check `scripts/ci.sh` gates on (via `kernels --validate`) —
/// it subsumes the older substring greps, which could not tell a real
/// field from one inside a string, or an empty `"kernels": []` from a
/// populated section.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_report_structure(text: &str) -> std::result::Result<(), String> {
    use crate::jsonv::{parse, Json};
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;

    let non_empty_array = |key: &str| -> std::result::Result<&[Json], String> {
        let rows = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("`{key}` is missing or not an array"))?;
        if rows.is_empty() {
            return Err(format!("`{key}` is empty"));
        }
        Ok(rows)
    };
    let number = |key: &str| -> std::result::Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{key}` is missing or not a number"))
    };

    let scale = doc
        .get("scale")
        .and_then(Json::as_str)
        .ok_or("`scale` is missing or not a string")?;

    // Row shape: every row names its dataset (and kernel rows their
    // kernel) and carries positive timings.
    for (section, strings, timings) in [
        ("kernels", &["dataset", "kernel"] as &[&str], &["wall_ms"] as &[&str]),
        ("power_chain", &["dataset"], &["cold_ms", "warm_ms", "warm_speedup"]),
    ] {
        for (i, row) in non_empty_array(section)?.iter().enumerate() {
            for field in strings {
                if row.get(field).and_then(Json::as_str).is_none() {
                    return Err(format!("`{section}[{i}]` lacks string field `{field}`"));
                }
            }
            for field in timings {
                let v = row
                    .get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("`{section}[{i}]` lacks numeric field `{field}`"))?;
                if v <= 0.0 {
                    return Err(format!("`{section}[{i}]` has non-positive `{field}`"));
                }
            }
        }
    }

    if number("max_warm_speedup")? <= 0.0 {
        return Err("`max_warm_speedup` must be positive".to_string());
    }
    if number("samples")? < 1.0 {
        return Err("`samples` must be at least 1".to_string());
    }

    // Warm ≥ cold: the cache can only skip work, so a full standard-scale
    // run (all six Fig. 12 datasets, timed with enough work per cell to sit
    // above the noise) must not show a warm chain slower than cold. Smoke
    // runs are too small to gate on wall time.
    let power_chain = non_empty_array("power_chain")?;
    // Every timed delta must hit the cache and skip real work; otherwise the
    // warm column times something other than the cache.
    for (i, row) in power_chain.iter().enumerate() {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`power_chain[{i}]` lacks numeric field `{name}`"))
        };
        let (hits, deltas) = (field("cache_hits")?, field("timed_deltas")?);
        if hits != deltas {
            return Err(format!(
                "`power_chain[{i}]` hit the cache on {hits} of {deltas} timed deltas"
            ));
        }
        if field("saved_mults")? <= 0.0 {
            return Err(format!("`power_chain[{i}]` saved no multiplies"));
        }
    }
    if scale == "standard" && power_chain.len() >= 6 {
        for row in power_chain {
            let speedup = row.get("warm_speedup").and_then(Json::as_f64).unwrap_or(0.0);
            if speedup < 1.0 {
                let dataset = row.get("dataset").and_then(Json::as_str).unwrap_or("?");
                return Err(format!(
                    "`power_chain` ({dataset}): warm is slower than cold ({speedup:.2}x; gate: \
                     warm_speedup ≥ 1 on a full standard-scale report)"
                ));
            }
        }
    }

    let triad = doc.get("triad").ok_or("`triad` is missing")?;
    let tnum = |name: &str| {
        triad
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`triad` lacks numeric field `{name}`"))
    };
    let l2 = tnum("l2_gbps")?;
    let dram = tnum("dram_gbps")?;
    let peak = tnum("peak_gbps")?;
    if l2 <= 0.0 || dram <= 0.0 {
        return Err("`triad` bandwidths must be positive".to_string());
    }
    if (peak - l2.max(dram)).abs() > 1e-9 * peak.abs().max(1.0) {
        return Err(format!(
            "`triad.peak_gbps` ({peak}) is not the larger triad measurement \
             (l2 {l2}, dram {dram})"
        ));
    }

    for (i, row) in non_empty_array("roofline")?.iter().enumerate() {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`roofline[{i}]` lacks numeric field `{name}`"))
        };
        if field("arithmetic_intensity")? <= 0.0 {
            return Err(format!("`roofline[{i}]` has non-positive arithmetic intensity"));
        }
        let gbps = field("achieved_gbps")?;
        if gbps <= 0.0 {
            return Err(format!("`roofline[{i}]` has non-positive achieved bandwidth"));
        }
        // Footprint bytes are a traffic lower bound, so effective bandwidth
        // cannot exceed what the host demonstrably sustains. 5% headroom
        // absorbs timer jitter between the two measurements.
        if gbps > peak * 1.05 {
            let dataset = row.get("dataset").and_then(Json::as_str).unwrap_or("?");
            return Err(format!(
                "`roofline[{i}]` ({dataset}) claims {gbps:.2} GB/s, above the measured triad \
                 peak {peak:.2} GB/s — footprint bytes or timing are inconsistent"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_complete_report() {
        let mut cfg = KernelBenchConfig::smoke();
        cfg.datasets = 1;
        cfg.samples = 1;
        let r = run(&cfg).unwrap();
        let names: Vec<&str> = r.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(names, ["spgemm", "spmm", "sp_add"], "one row per kernel for one dataset");
        assert!(r.kernels.iter().all(|k| k.wall_ms > 0.0 && k.samples == 1));
        assert_eq!(r.power_chain.len(), 1);
        let p = &r.power_chain[0];
        assert_eq!(p.cache_hits, p.timed_deltas as u64);
        assert!(p.cache_hits > 0);
        assert!(p.saved_mults > 0, "warm hits must avoid real multiplies");
        assert!(p.cold_ms > 0.0 && p.warm_ms > 0.0);
        assert_eq!(r.roofline.len(), 2, "spgemm+spmm entries");
        for e in &r.roofline {
            assert!(e.flops > 0 && e.bytes > 0);
            assert!(e.achieved_gbps > 0.0);
            let row = r.kernels.iter().find(|k| k.kernel == e.kernel).unwrap();
            assert_eq!(e.wall_ms, row.wall_ms, "the roofline reads the kernels row's timing");
            assert!(
                e.achieved_gbps <= r.triad.peak_gbps * 1.05,
                "{} on {} claims {:.2} GB/s vs triad peak {:.2}",
                e.kernel,
                e.dataset,
                e.achieved_gbps,
                r.triad.peak_gbps
            );
        }
        assert!(r.triad.l2_gbps > 0.0 && r.triad.dram_gbps > 0.0);
        assert_eq!(r.triad.peak_gbps, r.triad.l2_gbps.max(r.triad.dram_gbps));
        let text = r.to_string();
        assert!(text.contains("Power chain"));
        assert!(text.contains("spgemm"));
        assert!(text.contains("Roofline"));
        assert!(text.contains("triad baseline"));
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(!json.contains("\"threads\""), "every row runs on one thread; no per-row field");
        validate_report_structure(&json).unwrap();
    }

    #[test]
    fn interleaved_driver_visits_every_cell_per_sample_and_keeps_minima() {
        let mut order = Vec::new();
        let timings = [[3.0, 5.0], [1.0, 7.0], [2.0, 6.0]];
        let mut sample = 0;
        let mins = interleaved_min_ms(2, 3, |cell| {
            order.push(cell);
            let ms = timings[sample][cell];
            if cell == 1 {
                sample += 1;
            }
            Ok(ms)
        })
        .unwrap();
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(mins, [1.0, 5.0]);
    }

    /// A structurally complete report with parameterizable power-chain,
    /// roofline and triad sections.
    fn report_fixture(scale: &str, power_chain: &str, roofline: &str, triad: &str) -> String {
        format!(
            "{{\"scale\": \"{scale}\", \"samples\": 1, \
              \"kernels\": [{{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"wall_ms\": 1.0}}], \
              \"power_chain\": [{power_chain}], \"max_warm_speedup\": 1.2, \
              \"roofline\": [{roofline}], \"triad\": {triad}}}"
        )
    }

    fn chain_row(dataset: &str, warm_speedup: f64) -> String {
        format!(
            "{{\"dataset\": \"{dataset}\", \"cold_ms\": 2.0, \"warm_ms\": 1.0, \
              \"warm_speedup\": {warm_speedup:?}, \"timed_deltas\": 3, \"cache_hits\": 3, \
              \"saved_mults\": 40}}"
        )
    }

    const GOOD_ROOFLINE: &str = "{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"flops\": 100, \
         \"bytes\": 50, \"arithmetic_intensity\": 2.0, \"wall_ms\": 1.0, \
         \"achieved_gflops\": 0.1, \"achieved_gbps\": 0.05}";
    const GOOD_TRIAD: &str = "{\"l2_elements\": 8192, \"l2_gbps\": 40.0, \
         \"dram_elements\": 1000, \"dram_gbps\": 15.0, \"peak_gbps\": 40.0}";

    fn good_report() -> String {
        report_fixture("quick", &chain_row("AS", 2.0), GOOD_ROOFLINE, GOOD_TRIAD)
    }

    #[test]
    fn structural_validator_rejects_hollow_reports() {
        validate_report_structure(&good_report()).unwrap();

        // Every section is present but hollow or of the wrong type.
        let empty_sections = "{\"scale\": \"smoke\", \"samples\": 1, \
             \"kernels\": [], \"power_chain\": [], \
             \"roofline\": [], \"triad\": {}, \"max_warm_speedup\": 1.2}";
        assert!(validate_report_structure(empty_sections).is_err());

        let wrong_types = "{\"scale\": 1, \"samples\": \"many\", \
             \"kernels\": {}, \"power_chain\": 0, \
             \"roofline\": {}, \"triad\": [], \"max_warm_speedup\": \"big\"}";
        assert!(validate_report_structure(wrong_types).is_err());

        let bad_row = good_report().replace("\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"wall_ms\"", "\"kernel\": 3, \"dataset\": \"AS\", \"wall_ms\"");
        assert!(validate_report_structure(&bad_row).unwrap_err().contains("kernels[0]"));

        let zero_wall = good_report().replace("\"wall_ms\": 1.0}]", "\"wall_ms\": 0.0}]");
        let err = validate_report_structure(&zero_wall).unwrap_err();
        assert!(err.contains("kernels[0]") && err.contains("wall_ms"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        // Truncated or corrupted output: the `kernels` binary re-reads and
        // validates what it wrote.
        let good = good_report();
        let missing_triad = good.replace(&format!(", \"triad\": {GOOD_TRIAD}"), "");
        assert_ne!(missing_triad, good);
        for bad in [
            "",
            &good[..good.len() / 2],
            "{\"kernels\": \"unterminated",
            "{}]",
            "{\"kernels\": []}",
            &missing_triad,
        ] {
            assert!(validate_report_structure(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validator_gates_roofline_against_triad_peak() {
        let chain = chain_row("AS", 2.0);
        // A kernel cannot claim more effective bandwidth than the host
        // demonstrably sustains.
        let too_fast = GOOD_ROOFLINE.replace("\"achieved_gbps\": 0.05", "\"achieved_gbps\": 100.0");
        let err = validate_report_structure(&report_fixture("quick", &chain, &too_fast, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("triad peak"), "{err}");

        // The recorded peak must be the max of the two measurements.
        let bad_peak = GOOD_TRIAD.replace("\"peak_gbps\": 40.0", "\"peak_gbps\": 10.0");
        let err = validate_report_structure(&report_fixture("quick", &chain, GOOD_ROOFLINE, &bad_peak))
            .unwrap_err();
        assert!(err.contains("larger triad measurement"), "{err}");

        let zero_ai = GOOD_ROOFLINE.replace("\"arithmetic_intensity\": 2.0", "\"arithmetic_intensity\": 0.0");
        let err = validate_report_structure(&report_fixture("quick", &chain, &zero_ai, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("arithmetic intensity"), "{err}");
    }

    #[test]
    fn validator_rejects_power_chain_rows_the_cache_did_not_serve() {
        let with_row = |row: String| report_fixture("quick", &row, GOOD_ROOFLINE, GOOD_TRIAD);
        let zero_hits = chain_row("AS", 2.0).replace("\"cache_hits\": 3", "\"cache_hits\": 0");
        let err = validate_report_structure(&with_row(zero_hits)).unwrap_err();
        assert!(err.contains("power_chain[0]") && err.contains("0 of 3"), "{err}");

        let zero_saved = chain_row("AS", 2.0).replace("\"saved_mults\": 40", "\"saved_mults\": 0");
        let err = validate_report_structure(&with_row(zero_saved)).unwrap_err();
        assert!(err.contains("power_chain[0]") && err.contains("saved no multiplies"), "{err}");
    }

    #[test]
    fn validator_gates_warm_over_cold_on_full_standard_reports() {
        let six = |last: f64| {
            let mut rows: Vec<String> =
                ["PM", "WD", "MB", "RH", "AS", "TW"].iter().map(|d| chain_row(d, 1.5)).collect();
            rows[5] = chain_row("TW", last);
            rows.join(", ")
        };
        let full = |chain: &str| report_fixture("standard", chain, GOOD_ROOFLINE, GOOD_TRIAD);
        validate_report_structure(&full(&six(1.0))).unwrap();

        // One dataset whose warm chain is slower than cold fails the full run…
        let err = validate_report_structure(&full(&six(0.22))).unwrap_err();
        assert!(err.contains("TW") && err.contains("warm is slower than cold"), "{err}");

        // …but a quick-scale or partial (fewer than six datasets) report is
        // too small to gate on wall time.
        validate_report_structure(&report_fixture("quick", &six(0.22), GOOD_ROOFLINE, GOOD_TRIAD))
            .unwrap();
        let partial = [chain_row("PM", 1.5), chain_row("TW", 0.22)].join(", ");
        validate_report_structure(&full(&partial)).unwrap();
    }

    #[test]
    fn warm_chain_outputs_match_cold_bitwise() {
        // The timing harness must compare identical computations: replay one
        // dataset's chain both ways and require bit-equal results.
        let ctx = Context::new(ExperimentScale::Quick, 42).unwrap();
        let sets = operands(&ctx, 1).unwrap();
        let set = &sets[0];
        let mut cache = PowerCache::new();
        for (rs, d) in &set.chain {
            let warm = fused_dissimilarity_cached(
                rs, d, 3, DissimilarityStrategy::General, &mut cache,
            )
            .unwrap();
            let cold = fused_dissimilarity(rs, d, 3, DissimilarityStrategy::General).unwrap();
            assert_bit_identical(&warm, &cold, &set.short);
        }
        assert_eq!(cache.hits(), set.chain.len() as u64 - 1);
    }
}
