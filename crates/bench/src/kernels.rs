//! The `kernels` microbenchmark: wall-clock timing of the sparse kernels
//! (SpGEMM, SpMM, sparse add) and of the cross-snapshot power chain —
//! cold vs warm [`PowerCache`] — on the Fig. 12 datasets at several kernel
//! thread counts.
//!
//! Unlike the figure harnesses (which report *modelled* ops/cycles and must
//! stay byte-identical across hosts), this report measures the host itself,
//! so its numbers vary run to run. The driver is the vendored criterion
//! stub: each timing is the minimum over [`KernelBenchConfig::samples`]
//! samples, and the warm power-chain samples re-prime their cache in an
//! untimed `iter_batched` setup so only steady-state snapshots are timed.
//!
//! The binary `src/bin/kernels.rs` writes the report to
//! `BENCH_kernels.json` at the repository root (see README).

use criterion::{black_box, BatchSize, Criterion};
use serde::Serialize;

use idgnn_graph::datasets::ALL_DATASETS;
use idgnn_graph::generate::StreamConfig;
use idgnn_graph::reorder::{self, ALL_STRATEGIES};
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_model::onepass::{
    advance_power_chains, fused_dissimilarity, fused_dissimilarity_cached, DissimilarityStrategy,
};
use idgnn_model::PowerCache;
use idgnn_sparse::{ops, parallel, CsrMatrix, OpStats, Parallelism};

use crate::context::{Context, EvalDims, ExperimentScale, Result};
use crate::report::table;

/// What the `kernels` benchmark runs.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Workload scale (smoke runs use [`ExperimentScale::Quick`]).
    pub scale: ExperimentScale,
    /// Dataset-generation seed.
    pub seed: u64,
    /// Kernel thread counts *requested* for the sweep (each timed region
    /// runs under a [`parallel::kernel_scope`] pinning one count). [`run`]
    /// clamps these to the host's [`std::thread::available_parallelism`] —
    /// timing a count the host cannot actually run in parallel only measures
    /// oversubscription noise — and the report records both the request and
    /// the clamped sweep it actually ran, so `thread_counts` in the JSON
    /// always matches the `threads` values present in the rows.
    pub thread_counts: Vec<usize>,
    /// Samples per benchmark; the minimum is reported.
    pub samples: usize,
    /// How many Fig. 12 datasets to bench (in Table-I order).
    pub datasets: usize,
    /// Power-chain depth `L`.
    pub layers: u32,
    /// Edge-churn rates for the incremental power-patch sweep: each rate is
    /// the stream `dissimilarity` of a regenerated snapshot chain, timed
    /// full-rebuild vs dirty-row incremental patch.
    pub delta_rates: Vec<f64>,
    /// How many Fig. 12 datasets the delta-rate sweep covers (in Table-I
    /// order).
    pub delta_datasets: usize,
    /// Element count per array of the DRAM-sized STREAM-triad baseline
    /// (three `f32` arrays; pick a size whose combined footprint exceeds
    /// every cache level so the measurement is memory-bound).
    pub triad_dram_elements: usize,
    /// Edge-churn rates for the locality sweep's survival check: the
    /// reordering must leave the dirty-row patch accounting (hits, patches,
    /// saved ops) bit-exactly where the identity labeling puts it.
    pub locality_rates: Vec<f64>,
}

/// Element count per array of the cache-resident triad baseline: three
/// arrays × 8192 × 4 B = 96 KiB, inside a typical ≥256 KiB L2. Its
/// bandwidth bounds what any cache-hot kernel can achieve, which is why the
/// roofline gate compares against the *peak* of the two triad runs.
pub const TRIAD_L2_ELEMENTS: usize = 8 * 1024;

/// Drops requested thread counts the host cannot provide, keeping at least
/// `[1]` so the sweep never ends up empty. Every dropped count is named on
/// stderr so a clamped report is self-explaining next to its host.
fn clamp_threads(counts: Vec<usize>) -> Vec<usize> {
    let host = parallel::host_cores();
    let mut kept = Vec::new();
    for t in counts {
        if t <= host {
            kept.push(t);
        } else {
            eprintln!("kernels: requested {t} threads, host has {host}; dropping {t} from the sweep");
        }
    }
    if kept.is_empty() {
        eprintln!("kernels: no requested thread count fits the host ({host} cores); running the serial baseline only");
        kept.push(1);
    }
    kept
}

impl KernelBenchConfig {
    /// The full configuration behind the committed `BENCH_kernels.json`:
    /// all six datasets at standard scale, 1/4/8/16 requested threads
    /// (clamped to the host at run time), and the 0.1%/1%/10% churn sweep
    /// over every Fig. 12 dataset.
    pub fn full() -> Self {
        Self {
            scale: ExperimentScale::Standard,
            seed: 42,
            thread_counts: vec![1, 4, 8, 16],
            samples: 5,
            datasets: usize::MAX,
            // L = 4: the warm chain skips three of the six power products
            // per snapshot (Â¹ is free either way), which is where the
            // cold/warm gap is widest relative to the fixed term-product
            // cost.
            layers: 4,
            delta_rates: vec![0.001, 0.01, 0.1],
            delta_datasets: usize::MAX,
            // Three arrays × 4 MiB elements × 4 B = 48 MiB: past any L3.
            triad_dram_elements: 4 * 1024 * 1024,
            // The paper-relevant low-churn regimes, where the dirty-row
            // patch actually fires (10% churn trips the fallback anyway).
            locality_rates: vec![0.001, 0.01],
        }
    }

    /// The CI smoke configuration: two quick-scale datasets, two requested
    /// thread counts, two samples — seconds, not minutes.
    pub fn smoke() -> Self {
        Self {
            scale: ExperimentScale::Quick,
            seed: 42,
            thread_counts: vec![1, 2],
            samples: 2,
            datasets: 2,
            layers: 3,
            delta_rates: vec![0.01],
            delta_datasets: 2,
            triad_dram_elements: 1024 * 1024,
            locality_rates: vec![0.01],
        }
    }
}

/// Minimum wall time of one kernel on one dataset at one thread count.
#[derive(Debug, Clone, Serialize)]
pub struct KernelTiming {
    /// Kernel name (`spgemm` | `spmm` | `sp_add`).
    pub kernel: String,
    /// Dataset short code.
    pub dataset: String,
    /// Kernel threads the timed region was pinned to.
    pub threads: usize,
    /// Minimum wall time across the samples, milliseconds.
    pub wall_ms: f64,
    /// Samples taken.
    pub samples: usize,
}

/// One cell of the interleaved thread-scaling sweep: the minimum wall time
/// of one kernel on one dataset at one pinned thread count, with speedup
/// and parallel efficiency relative to the smallest swept count.
///
/// Every sample visits every (dataset, thread count, kernel) cell before
/// the next sample starts, so a slow window on a shared host (frequency
/// drift, co-tenants) lands on all cells instead of biasing whichever cell
/// happened to run last.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingTiming {
    /// Kernel name (`spgemm` | `spmm`).
    pub kernel: String,
    /// Dataset short code.
    pub dataset: String,
    /// Operand dimension (rows of the square operator) — lets the validator
    /// rank datasets by size without re-deriving operands.
    pub rows: usize,
    /// Operand nonzeros.
    pub nnz: usize,
    /// Kernel threads the timed region was pinned to.
    pub threads: usize,
    /// Minimum wall time across the interleaved samples, milliseconds.
    pub wall_ms: f64,
    /// Samples taken.
    pub samples: usize,
    /// `wall(baseline) / wall(this)` where baseline is the smallest swept
    /// thread count (1 whenever the host permits).
    pub speedup: f64,
    /// `speedup × baseline_threads / threads` — 1.0 means perfect scaling.
    pub efficiency: f64,
}

/// Roofline-style characterization of one kernel on one dataset at the
/// baseline thread count: exact FLOPs (from [`OpStats`]) over the minimum
/// bytes the operands and output occupy (CSR/dense footprints), against the
/// wall time measured in the scaling sweep.
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
    /// Wall time the rates below are computed from (the scaling sweep's
    /// baseline-thread-count minimum), milliseconds.
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

impl TriadBaseline {
    /// Measures both triad sizes (best of `samples`, at least 3).
    fn measure(l2_elements: usize, dram_elements: usize, samples: usize) -> Self {
        let l2_gbps = triad_gbps(l2_elements, samples);
        let dram_gbps = triad_gbps(dram_elements, samples);
        Self { l2_elements, l2_gbps, dram_elements, dram_gbps, peak_gbps: l2_gbps.max(dram_gbps) }
    }
}

/// Cold vs warm power-chain timing on one dataset at one thread count.
///
/// Both runs evaluate the same snapshot sequence with the resident operator
/// advanced by `Â ← Â + ΔÂ`; the warm run keeps a [`PowerCache`] across
/// snapshots (primed untimed on the first delta), the cold run recomputes
/// every power chain. The outputs are bit-identical — only the time differs.
#[derive(Debug, Clone, Serialize)]
pub struct PowerChainTiming {
    /// Dataset short code.
    pub dataset: String,
    /// Kernel threads the timed region was pinned to.
    pub threads: usize,
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

/// Full-rebuild vs dirty-row incremental patch on one controlled-churn
/// stream at one thread count.
///
/// The stream is regenerated per rate with `dissimilarity = delta_rate` and
/// no feature churn, so the knob isolates *edge* churn. The headline
/// columns (`full_rebuild_ms` / `incremental_ms`) time the power-chain
/// production phase — [`advance_power_chains`] without vs with a
/// [`PowerCache`] — which is exactly the work the dirty-row patch
/// replaces. The `fused_*` columns time the whole fused kernel on the same
/// transitions for end-to-end context: the Eq. 13 term products are common
/// to both paths and dilute the ratio there. Both paths evaluate the
/// identical snapshot sequence; before timing, every incremental result is
/// checked bitwise against the full rebuild (the harness panics on
/// divergence, so a published row implies bit-identity held).
#[derive(Debug, Clone, Serialize)]
pub struct DeltaRateTiming {
    /// Dataset short code.
    pub dataset: String,
    /// Stream edge-churn rate (fraction of edges perturbed per delta).
    pub delta_rate: f64,
    /// Kernel threads the timed region was pinned to.
    pub threads: usize,
    /// Chain depth `L`.
    pub layers: u32,
    /// Snapshot deltas in the timed region (the priming delta is excluded).
    pub timed_deltas: usize,
    /// Cache-less chain production (both power chains from scratch), ms.
    pub full_rebuild_ms: f64,
    /// Incremental chain production (cache hit + dirty-row patch), ms.
    pub incremental_ms: f64,
    /// `full_rebuild_ms / incremental_ms`.
    pub incremental_speedup: f64,
    /// Whole fused kernel, cache-less, on the same transitions, ms.
    pub fused_full_ms: f64,
    /// Whole fused kernel with cache + patching, ms.
    pub fused_incremental_ms: f64,
    /// `fused_full_ms / fused_incremental_ms`.
    pub fused_speedup: f64,
    /// Transitions served by the dirty-row patch (vs threshold fallback).
    pub patches: u64,
    /// Multiplies avoided by reuse across the timed deltas.
    pub saved_mults: u64,
    /// Additions avoided by reuse across the timed deltas.
    pub saved_adds: u64,
}

/// Single-thread kernel wall time on one dataset under one vertex ordering
/// — the timing half of the locality sweep (DESIGN.md §14).
///
/// Every ordering row times the *same computation* as the identity row (a
/// symmetric permutation is a similarity transform; the proptests in
/// `idgnn-sparse` pin the outputs bitwise on exact-arithmetic inputs), so
/// any wall-time difference is purely a memory-locality effect.
#[derive(Debug, Clone, Serialize)]
pub struct LocalityTiming {
    /// Dataset short code.
    pub dataset: String,
    /// Ordering slug (`identity` | `degree` | `rcm` | `island`).
    pub ordering: String,
    /// Operand dimension (rows of the square operator).
    pub rows: usize,
    /// Operand nonzeros (invariant across orderings by construction).
    pub nnz: usize,
    /// Minimum wall time of `SpGEMM(Â, Â)` on the permuted operator, ms.
    pub spgemm_ms: f64,
    /// Minimum wall time of `SpMM(Â, X)` on the permuted operands, ms.
    pub spmm_ms: f64,
    /// `identity spgemm_ms / this spgemm_ms` — above 1 means this ordering
    /// is faster than the as-generated labeling.
    pub spgemm_speedup: f64,
    /// `identity spmm_ms / this spmm_ms`.
    pub spmm_speedup: f64,
    /// Samples taken (interleaved; the minimum is reported).
    pub samples: usize,
}

/// Churn behavior of one vertex ordering at one edge-churn rate: whether
/// reordering preserves the dirty-row patch path and its saved-work
/// accounting (it must — the patch threshold and the `saved` counters are
/// structural quantities, invariant under vertex relabeling).
#[derive(Debug, Clone, Serialize)]
pub struct LocalityChurn {
    /// Dataset short code.
    pub dataset: String,
    /// Ordering slug (`identity` | `degree` | `rcm` | `island`).
    pub ordering: String,
    /// Stream edge-churn rate (fraction of edges perturbed per delta).
    pub delta_rate: f64,
    /// Snapshot deltas in the timed region (the priming delta is excluded).
    pub timed_deltas: usize,
    /// Warm cache hits across the chain replay.
    pub cache_hits: u64,
    /// Hits served by the dirty-row patch (vs threshold fallback).
    pub patches: u64,
    /// `patches / cache_hits` ∈ [0, 1] — the patch-threshold survival rate.
    pub patch_survival: f64,
    /// Multiplies avoided by reuse across the timed deltas.
    pub saved_mults: u64,
    /// Additions avoided by reuse across the timed deltas.
    pub saved_adds: u64,
    /// Cache-less chain production on the permuted chain, ms.
    pub full_rebuild_ms: f64,
    /// Incremental chain production on the permuted chain, ms.
    pub incremental_ms: f64,
    /// `full_rebuild_ms / incremental_ms`.
    pub incremental_speedup: f64,
}

/// The locality sweep's pass/fail verdict, recorded in the report so the
/// structural validator (and CI) can gate on it without re-running.
#[derive(Debug, Clone, Serialize)]
pub struct LocalityGate {
    /// The non-identity ordering with the most per-dataset SpGEMM wins.
    pub best_ordering: String,
    /// Datasets on which `best_ordering` beat the identity labeling on
    /// single-thread SpGEMM wall time.
    pub spgemm_wins: usize,
    /// Datasets swept.
    pub datasets: usize,
    /// Wins required to pass: 4 for the full six-dataset standard-scale
    /// run, 0 otherwise (smoke runs are too small and too noisy to gate on
    /// wall time, mirroring the conditional `host_cores` efficiency gate).
    pub required_wins: usize,
    /// Exact structural parity: every ordering reproduced the identity
    /// labeling's `cache_hits` / `patches` / saved-op accounting at every
    /// churn rate — reordering did not regress the incremental path.
    pub churn_parity: bool,
    /// `spgemm_wins >= required_wins && churn_parity`.
    pub passed: bool,
}

/// The locality section of the report: per-ordering kernel timings, the
/// churn-survival sweep, and the gate verdict.
#[derive(Debug, Clone, Serialize)]
pub struct LocalityReport {
    /// Ordering slugs swept, in report order (identity first — it is the
    /// speedup baseline).
    pub orderings: Vec<String>,
    /// Per-(dataset, ordering) single-thread kernel timings.
    pub timings: Vec<LocalityTiming>,
    /// Per-(rate, dataset, ordering) churn-survival rows.
    pub churn: Vec<LocalityChurn>,
    /// The sweep's verdict.
    pub gate: LocalityGate,
}

/// The whole kernel-benchmark report (serialized to `BENCH_kernels.json`).
#[derive(Debug, Clone, Serialize)]
pub struct KernelBenchReport {
    /// Workload scale the operands were generated at.
    pub scale: String,
    /// Samples per benchmark (minimum reported).
    pub samples: usize,
    /// Thread counts actually swept (the request clamped to the host); every
    /// `threads` value in the row sections below comes from this list.
    pub thread_counts: Vec<usize>,
    /// Thread counts the configuration asked for, before host clamping.
    pub requested_thread_counts: Vec<usize>,
    /// Logical cores the host reported at run time — the clamp reference
    /// for `thread_counts` and the condition on the efficiency gate.
    pub host_cores: usize,
    /// Per-kernel timings, dataset-major then thread-major.
    pub kernels: Vec<KernelTiming>,
    /// Interleaved thread-scaling sweep (speedup / parallel efficiency per
    /// kernel, dataset, and swept count).
    pub scaling: Vec<ScalingTiming>,
    /// Roofline characterization at the baseline thread count.
    pub roofline: Vec<RooflineEntry>,
    /// Triad bandwidth baselines the roofline entries are gated against.
    pub triad: TriadBaseline,
    /// Power-chain cold/warm comparison per dataset and thread count.
    pub power_chain: Vec<PowerChainTiming>,
    /// Full-rebuild vs incremental-patch sweep per (dataset, churn rate,
    /// thread count).
    pub delta_rates: Vec<DeltaRateTiming>,
    /// Locality sweep: kernel wall time and churn survival per vertex
    /// ordering, with the gate verdict.
    pub locality: LocalityReport,
    /// Total ops (mults + adds) avoided by reuse across the delta-rate
    /// sweep's instrumented passes.
    pub delta_saved_total: u64,
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
    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
    let a = Normalization::SelfLoops.apply(snaps[0].adjacency());
    let mut chain = Vec::with_capacity(snaps.len() - 1);
    let mut resident = a.clone();
    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
    for s in &snaps[1..] {
        let a_next = Normalization::SelfLoops.apply(s.adjacency());
        let d = ops::sp_sub_pruned(&a_next, &resident)?;
        let advanced = ops::sp_add(&resident, &d)?;
        chain.push((resident, d));
        resident = advanced;
    }
    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
    Ok(Operands { short: short.to_string(), a, x: snaps[0].features().clone(), chain })
}

fn operands(ctx: &Context, datasets: usize) -> Result<Vec<Operands>> {
    ctx.workloads
        .iter()
        .take(datasets)
        .map(|w| graph_operands(w.spec.short, &w.graph))
        .collect()
}

/// Regenerates the first `delta_datasets` streams with the given edge-churn
/// rate (and no feature churn) and builds their benchmark chains.
fn delta_operands(cfg: &KernelBenchConfig, rate: f64) -> Result<Vec<Operands>> {
    let stream = StreamConfig {
        deltas: 4,
        dissimilarity: rate,
        addition_fraction: 0.75,
        feature_update_fraction: 0.0,
    };
    let mut out = Vec::new();
    for (i, spec) in ALL_DATASETS.iter().take(cfg.delta_datasets).enumerate() {
        let w = Context::build_workload(
            spec,
            cfg.scale,
            &stream,
            EvalDims::default(),
            cfg.seed.wrapping_add(i as u64),
        )?;
        out.push(graph_operands(spec.short, &w.graph)?);
    }
    Ok(out)
}

/// The kernels the scaling sweep and roofline cover: the two the fused
/// vectorized pass accelerates.
const SCALING_KERNELS: [&str; 2] = ["spgemm", "spmm"];

/// Measures one STREAM-like triad (`a[i] = b[i] + s·c[i]`) at `n` elements
/// per array, best of `samples` (at least 3), in GB/s. Small sizes repeat
/// the pass inside the timed region so the measurement never collapses into
/// timer granularity; 12 bytes move per element per pass (read `b`, read
/// `c`, write `a`).
fn triad_gbps(n: usize, samples: usize) -> f64 {
    let mut a = vec![0.0f32; n];
    let b = vec![1.5f32; n];
    let c = vec![2.5f32; n];
    let scalar = 3.0f32;
    let passes = (4 * 1024 * 1024 / n.max(1)).max(1);
    let mut best = f64::MAX;
    for _ in 0..samples.max(3) {
        let t0 = std::time::Instant::now();
        for _ in 0..passes {
            for ((av, &bv), &cv) in a.iter_mut().zip(&b).zip(&c) {
                *av = bv + scalar * cv;
            }
            black_box(&mut a);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    if best <= 0.0 {
        return 0.0;
    }
    (3 * 4 * n * passes) as f64 / best / 1e9
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

/// The interleaved min-of-N driver shared by the thread-scaling, edge-churn,
/// and locality sweeps: every sample visits every cell before the next
/// sample starts, so a slow window on a shared host (frequency drift,
/// co-tenants) lands on all cells instead of biasing whichever cell happened
/// to run last. `time_cell` performs one timed measurement of one cell and
/// returns its wall time in milliseconds; the result holds each cell's
/// minimum over `samples` samples.
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

/// The interleaved min-of-N thread-scaling sweep over every dataset and
/// swept count (see [`ScalingTiming`] for why interleaved). Outputs are
/// recycled into the workspace pool between samples so steady-state
/// allocation behavior is what gets timed.
// lint: timing-carrier -- interleaved min-of-N wall-clock feeds the report's timing fields, independent of the bit-checked results
fn measure_scaling(
    sets: &[Operands],
    counts: &[usize],
    samples: usize,
) -> Result<Vec<ScalingTiming>> {
    let samples = samples.max(3);
    let k = SCALING_KERNELS.len();
    let mins = interleaved_min_ms(sets.len() * counts.len() * k, samples, |cell| {
        // Cell layout `(si * counts.len() + ti) * k + ki` — dataset-major,
        // then thread count, then kernel; the readout below matches it.
        let (ki, ti, si) = (cell % k, (cell / k) % counts.len(), cell / (k * counts.len()));
        // lint: allow(panic-surface) -- in-bounds: `cell` decodes over the same three ranges the driver was sized with
        let (set, t) = (&sets[si], counts[ti]);
        let _scope = parallel::kernel_scope(Parallelism::new(t));
        let t0 = std::time::Instant::now();
        // lint: allow(panic-surface) -- in-bounds: `ki` is `cell % SCALING_KERNELS.len()`
        Ok(if SCALING_KERNELS[ki] == "spgemm" {
            let prod = ops::spgemm(black_box(&set.a), black_box(&set.a))?;
            let el = t0.elapsed().as_secs_f64() * 1e3;
            idgnn_sparse::workspace::recycle(black_box(prod));
            el
        } else {
            let agg = ops::spmm(black_box(&set.a), black_box(&set.x))?;
            let el = t0.elapsed().as_secs_f64() * 1e3;
            idgnn_sparse::workspace::recycle_dense(black_box(agg));
            el
        })
    })?;
    let (baseline_ti, baseline_t) = counts
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(_, t)| t)
        .unwrap_or((0, 1));
    let mut out = Vec::new();
    for (si, set) in sets.iter().enumerate() {
        for (ki, kernel) in SCALING_KERNELS.iter().enumerate() {
            // lint: allow(panic-surface) -- in-bounds: `mins` was sized over the same three loop ranges
            let cell = |ti: usize| mins[(si * counts.len() + ti) * SCALING_KERNELS.len() + ki];
            let base_ms = cell(baseline_ti);
            for (ti, &t) in counts.iter().enumerate() {
                let wall_ms = cell(ti);
                let speedup = if wall_ms > 0.0 { base_ms / wall_ms } else { 0.0 };
                out.push(ScalingTiming {
                    kernel: (*kernel).to_string(),
                    dataset: set.short.clone(),
                    rows: set.a.rows(),
                    nnz: set.a.nnz(),
                    threads: t,
                    wall_ms,
                    samples,
                    speedup,
                    efficiency: speedup * baseline_t as f64 / t as f64,
                });
            }
        }
    }
    Ok(out)
}

/// Builds the roofline entries from exact op counts, storage footprints, and
/// the scaling sweep's baseline-thread-count wall times.
fn roofline_entries(
    sets: &[Operands],
    scaling: &[ScalingTiming],
    baseline_threads: usize,
) -> Result<Vec<RooflineEntry>> {
    let wall_of = |kernel: &str, dataset: &str| {
        scaling
            .iter()
            .find(|s| s.kernel == kernel && s.dataset == dataset && s.threads == baseline_threads)
            .map(|s| s.wall_ms)
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
    let par = Parallelism::new(baseline_threads);
    let mut out = Vec::new();
    for set in sets {
        let (prod, st) = ops::spgemm_par_with_stats(&set.a, &set.a, par)?;
        let bytes = 2 * csr_footprint_bytes(&set.a) + csr_footprint_bytes(&prod);
        idgnn_sparse::workspace::recycle(prod);
        if let Some(wall_ms) = wall_of("spgemm", &set.short) {
            out.push(entry("spgemm", &set.short, st.total(), bytes, wall_ms));
        }
        let (agg, st) = ops::spmm_par_with_stats(&set.a, &set.x, par)?;
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

/// The locality sweep (DESIGN.md §14): permute each dataset's operands once
/// under every reorder strategy, time the single-thread kernels on the
/// permuted operands through the shared interleaved driver, then replay
/// controlled-churn chains per ordering to check that reordering leaves the
/// dirty-row patch accounting exactly where the identity labeling puts it.
// lint: timing-carrier -- interleaved min-of-N wall-clock feeds the report's timing fields, independent of the bit-checked results
fn measure_locality(
    cfg: &KernelBenchConfig,
    sets: &[Operands],
    samples: usize,
) -> Result<LocalityReport> {
    let samples = samples.max(3);
    let strategy = DissimilarityStrategy::General;
    let orderings: Vec<String> = ALL_STRATEGIES.iter().map(|s| s.slug().to_string()).collect();

    // Permuted operand variants, dataset-major then strategy in report
    // order (identity first: its row is the speedup baseline). The identity
    // variant goes through the same permute call as the others, so all four
    // rows time freshly-assembled matrices with identical layout provenance.
    struct Variant {
        dataset: String,
        ordering: &'static str,
        a: CsrMatrix,
        x: idgnn_sparse::DenseMatrix,
    }
    let mut variants = Vec::new();
    for set in sets {
        for s in ALL_STRATEGIES {
            let p = reorder::reorder(&set.a, s)?;
            variants.push(Variant {
                dataset: set.short.clone(),
                ordering: s.slug(),
                a: set.a.permute_symmetric(p.forward())?,
                x: set.x.permute_rows(p.forward())?,
            });
        }
    }

    let scope = parallel::kernel_scope(Parallelism::new(1));
    let mins = interleaved_min_ms(variants.len() * 2, samples, |cell| {
        // Cell layout `vi * 2 + (0 = spgemm, 1 = spmm)`.
        // lint: allow(panic-surface) -- in-bounds: `cell` decodes over the ranges the driver was sized with
        let v = &variants[cell / 2];
        let t0 = std::time::Instant::now();
        Ok(if cell % 2 == 0 {
            let prod = ops::spgemm(black_box(&v.a), black_box(&v.a))?;
            let el = t0.elapsed().as_secs_f64() * 1e3;
            idgnn_sparse::workspace::recycle(black_box(prod));
            el
        } else {
            let agg = ops::spmm(black_box(&v.a), black_box(&v.x))?;
            let el = t0.elapsed().as_secs_f64() * 1e3;
            idgnn_sparse::workspace::recycle_dense(black_box(agg));
            el
        })
    })?;
    drop(scope);

    let strat_n = ALL_STRATEGIES.len();
    let ratio = |base: f64, this: f64| if this > 0.0 { base / this } else { 0.0 };
    let mut timings = Vec::new();
    for (vi, v) in variants.iter().enumerate() {
        // The identity row of this variant's dataset.
        let base = (vi / strat_n) * strat_n;
        // lint: allow(panic-surface) -- in-bounds: `mins` holds two cells per variant by construction
        let (spgemm_ms, spmm_ms) = (mins[vi * 2], mins[vi * 2 + 1]);
        timings.push(LocalityTiming {
            dataset: v.dataset.clone(),
            ordering: v.ordering.to_string(),
            rows: v.a.rows(),
            nnz: v.a.nnz(),
            spgemm_ms,
            spmm_ms,
            // lint: allow(panic-surface) -- in-bounds: `base` indexes the identity variant of the same dataset
            spgemm_speedup: ratio(mins[base * 2], spgemm_ms),
            // lint: allow(panic-surface) -- in-bounds: `base` indexes the identity variant of the same dataset
            spmm_speedup: ratio(mins[base * 2 + 1], spmm_ms),
            samples,
        });
    }

    // Churn half: per (rate, dataset), replay the chain under every
    // ordering. The hit/patch/saved accounting is structural — a vertex
    // relabeling must reproduce the identity numbers exactly, which is the
    // `churn_parity` half of the gate.
    let mut churn = Vec::new();
    let mut churn_parity = true;
    for &rate in &cfg.locality_rates {
        let dsets = delta_operands(cfg, rate)?;
        for set in &dsets {
            let mut identity_account: Option<(u64, u64, u64, u64)> = None;
            for s in ALL_STRATEGIES {
                let p = reorder::reorder(&set.a, s)?;
                let chain = set
                    .chain
                    .iter()
                    .map(|(rs, d)| {
                        Ok((
                            rs.permute_symmetric(p.forward())?,
                            d.permute_symmetric(p.forward())?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;

                // Instrumented (untimed) pass: hit/patch/saved accounting.
                let mut cache = PowerCache::new();
                let mut saved = OpStats::default();
                for (i, (rs, d)) in chain.iter().enumerate() {
                    let dis = fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut cache)?;
                    if i > 0 {
                        saved += dis.saved;
                    }
                }
                let (hits, patches) = (cache.hits(), cache.patches());
                let account = (hits, patches, saved.mults, saved.adds);
                match identity_account {
                    None => identity_account = Some(account),
                    Some(id) => churn_parity &= id == account,
                }

                // Timed pair on the permuted chain, single thread.
                let scope = parallel::kernel_scope(Parallelism::new(1));
                let pair = interleaved_min_ms(2, samples, |cell| {
                    let mut c = (cell == 1).then(|| {
                        let mut c = PowerCache::new();
                        // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                        let (rs, d) = &chain[0];
                        // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                        advance_power_chains(rs, d, cfg.layers, Some(&mut c)).expect("valid");
                        c
                    });
                    let t0 = std::time::Instant::now();
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    for (rs, d) in &chain[1..] {
                        black_box(advance_power_chains(rs, d, cfg.layers, c.as_mut())?);
                    }
                    Ok(t0.elapsed().as_secs_f64() * 1e3)
                })?;
                drop(scope);
                // lint: allow(panic-surface) -- exactly two cells were requested from the driver above
                let (full_ms, incremental_ms) = (pair[0], pair[1]);

                churn.push(LocalityChurn {
                    dataset: set.short.clone(),
                    ordering: s.slug().to_string(),
                    delta_rate: rate,
                    timed_deltas: chain.len().saturating_sub(1),
                    cache_hits: hits,
                    patches,
                    patch_survival: if hits > 0 { patches as f64 / hits as f64 } else { 0.0 },
                    saved_mults: saved.mults,
                    saved_adds: saved.adds,
                    full_rebuild_ms: full_ms,
                    incremental_ms,
                    incremental_speedup: ratio(full_ms, incremental_ms),
                });
            }
        }
    }

    // Gate: the non-identity ordering with the most per-dataset SpGEMM wins
    // (ties break toward the earlier strategy in report order) must beat
    // identity on enough datasets — 4 of the 6 Fig. 12 datasets at full
    // standard scale, unconditionally passing at smoke where wall times are
    // microseconds and the verdict would be noise.
    let datasets_n = sets.len();
    let mut best = (ALL_STRATEGIES.get(1).map_or("identity", |s| s.slug()), 0usize);
    for (si, s) in ALL_STRATEGIES.iter().enumerate().skip(1) {
        let mut wins = 0;
        for di in 0..datasets_n {
            // lint: allow(panic-surface) -- in-bounds: `timings` holds one row per (dataset, strategy) by construction
            let id_ms = timings[di * strat_n].spgemm_ms;
            // lint: allow(panic-surface) -- in-bounds: `timings` holds one row per (dataset, strategy) by construction
            if timings[di * strat_n + si].spgemm_ms < id_ms {
                wins += 1;
            }
        }
        if wins > best.1 {
            best = (s.slug(), wins);
        }
    }
    let required_wins =
        if matches!(cfg.scale, ExperimentScale::Standard) && datasets_n >= 6 { 4 } else { 0 };
    let gate = LocalityGate {
        best_ordering: best.0.to_string(),
        spgemm_wins: best.1,
        datasets: datasets_n,
        required_wins,
        churn_parity,
        passed: best.1 >= required_wins && churn_parity,
    };
    Ok(LocalityReport { orderings, timings, churn, gate })
}

/// Panics unless the incremental result is bitwise identical to the full
/// rebuild — the correctness guard behind every published sweep row.
fn assert_bit_identical(
    warm: &idgnn_model::onepass::Dissimilarity,
    cold: &idgnn_model::onepass::Dissimilarity,
    context: &str,
) {
    assert_eq!(warm.delta_ac.indptr(), cold.delta_ac.indptr(), "{context}: indptr diverged");
    assert_eq!(warm.delta_ac.indices(), cold.delta_ac.indices(), "{context}: indices diverged");
    let wv: Vec<u32> = warm.delta_ac.values().iter().map(|v| v.to_bits()).collect();
    let cv: Vec<u32> = cold.delta_ac.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(wv, cv, "{context}: values diverged");
    assert_eq!(warm.ops, cold.ops, "{context}: reported op counts diverged");
}

/// Runs the benchmark and assembles the report.
///
/// # Errors
///
/// Propagates operand-construction and kernel errors.
///
/// # Panics
///
/// Panics if the criterion driver returns measurements out of registration
/// order (programming error), or if the delta-rate sweep's incremental
/// results diverge bitwise from the full rebuild (correctness guard).
// lint: timing-carrier -- wall-clock measurements populate timing fields only; correctness fields are bit-checked against the serial path
pub fn run(cfg: &KernelBenchConfig) -> Result<KernelBenchReport> {
    let ctx = Context::new(cfg.scale, cfg.seed)?;
    let sets = operands(&ctx, cfg.datasets)?;
    let strategy = DissimilarityStrategy::General;
    let thread_counts = clamp_threads(cfg.thread_counts.clone());

    let mut crit = Criterion::default();
    let mut kernels = Vec::new();
    let mut power_chain = Vec::new();

    for set in &sets {
        // Instrumented (untimed) warm pass: hit/saved accounting is
        // thread-independent, so one pass per dataset suffices.
        let mut cache = PowerCache::new();
        let mut saved = OpStats::default();
        for (i, (rs, d)) in set.chain.iter().enumerate() {
            let dis = fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut cache)?;
            if i > 0 {
                saved += dis.saved;
            }
        }
        let cache_hits = cache.hits();

        for &t in &thread_counts {
            let par = Parallelism::new(t);
            let mut g = crit.benchmark_group(&format!("{}/t{t}", set.short));
            g.sample_size(cfg.samples);
            g.bench_function("spgemm", |b| {
                let _scope = parallel::kernel_scope(par);
                // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                b.iter(|| ops::spgemm(black_box(&set.a), black_box(&set.a)).expect("square"));
            });
            g.bench_function("spmm", |b| {
                let _scope = parallel::kernel_scope(par);
                // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                b.iter(|| ops::spmm(black_box(&set.a), black_box(&set.x)).expect("shapes match"));
            });
            g.bench_function("sp_add", |b| {
                let _scope = parallel::kernel_scope(par);
                b.iter(|| {
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    ops::sp_add(black_box(&set.a), black_box(&set.chain[0].1))
                        // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                        .expect("same shape")
                });
            });
            g.bench_function("power_chain_cold", |b| {
                let _scope = parallel::kernel_scope(par);
                b.iter(|| {
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    for (rs, d) in &set.chain[1..] {
                        // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                        black_box(fused_dissimilarity(rs, d, cfg.layers, strategy).expect("valid"));
                    }
                });
            });
            g.bench_function("power_chain_warm", |b| {
                let _scope = parallel::kernel_scope(par);
                b.iter_batched(
                    || {
                        // Prime on the first delta, outside the timed region:
                        // the timed deltas then all hit the cache.
                        let mut c = PowerCache::new();
                        // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                        let (rs, d) = &set.chain[0];
                        fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut c)
                            // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                            .expect("valid");
                        c
                    },
                    |mut c| {
                        // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                        for (rs, d) in &set.chain[1..] {
                            black_box(
                                fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut c)
                                    // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                                    .expect("valid"),
                            );
                        }
                    },
                    BatchSize::PerIteration,
                );
            });
            g.finish();

            let mut cold_ms = 0.0;
            let mut warm_ms = 0.0;
            for m in crit.take_measurements() {
                // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                let kernel = m.name.rsplit('/').next().expect("non-empty name");
                match kernel {
                    "power_chain_cold" => cold_ms = m.wall_ms,
                    "power_chain_warm" => warm_ms = m.wall_ms,
                    _ => kernels.push(KernelTiming {
                        kernel: kernel.to_string(),
                        dataset: set.short.clone(),
                        threads: t,
                        wall_ms: m.wall_ms,
                        samples: m.samples,
                    }),
                }
            }
            power_chain.push(PowerChainTiming {
                dataset: set.short.clone(),
                threads: t,
                layers: cfg.layers,
                timed_deltas: set.chain.len().saturating_sub(1),
                cold_ms,
                warm_ms,
                warm_speedup: if warm_ms > 0.0 { cold_ms / warm_ms } else { 0.0 },
                cache_hits,
                saved_mults: saved.mults,
                saved_adds: saved.adds,
            });
        }
    }

    // Delta-rate sweep: full rebuild vs the dirty-row incremental patch on
    // controlled-churn streams (DESIGN.md §9).
    let mut delta_rates = Vec::new();
    let mut delta_saved_total = 0u64;
    for &rate in &cfg.delta_rates {
        let dsets = delta_operands(cfg, rate)?;
        for set in &dsets {
            // Instrumented pass: verify bit-identity delta by delta and
            // collect the patch/saved accounting (thread-independent).
            let mut cache = PowerCache::new();
            let mut saved = OpStats::default();
            for (i, (rs, d)) in set.chain.iter().enumerate() {
                let warm = fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut cache)?;
                if i == 0 {
                    continue;
                }
                let cold = fused_dissimilarity(rs, d, cfg.layers, strategy)?;
                assert_bit_identical(
                    &warm,
                    &cold,
                    &format!("{} rate {rate} delta {i}", set.short),
                );
                saved += warm.saved;
            }
            let patches = cache.patches();
            delta_saved_total += saved.total();

            for &t in &thread_counts {
                let par = Parallelism::new(t);
                // Driven by the shared interleaved driver rather than the
                // criterion stub: all four paths alternate inside every
                // sample so slow windows of a shared host hit them equally
                // instead of biasing whichever group ran last. Warm cells
                // re-prime their cache in untimed setup, exactly like the
                // power-chain bench above. Cells: 0 chain-full,
                // 1 chain-incremental, 2 fused-full, 3 fused-incremental.
                let _scope = parallel::kernel_scope(par);
                let mins = interleaved_min_ms(4, cfg.samples.max(5), |cell| {
                    let warm_cache = (cell % 2 == 1).then(|| {
                        let mut c = PowerCache::new();
                        // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                        let (rs, d) = &set.chain[0];
                        if cell == 1 {
                            // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                            advance_power_chains(rs, d, cfg.layers, Some(&mut c)).expect("valid");
                        } else {
                            fused_dissimilarity_cached(rs, d, cfg.layers, strategy, &mut c)
                                // lint: allow(panic-surface) -- bench fail-fast plumbing; aborting on an impossible state is intended here
                                .expect("valid");
                        }
                        c
                    });
                    let mut c = warm_cache;
                    let t0 = std::time::Instant::now();
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    for (rs, d) in &set.chain[1..] {
                        if cell < 2 {
                            // Headline pair: chain production only.
                            black_box(advance_power_chains(rs, d, cfg.layers, c.as_mut())?);
                        } else if let Some(c) = c.as_mut() {
                            // Context pair: the whole fused kernel (chain
                            // phase plus the Eq. 13 term products shared by
                            // both paths).
                            black_box(fused_dissimilarity_cached(
                                rs, d, cfg.layers, strategy, c,
                            )?);
                        } else {
                            black_box(fused_dissimilarity(rs, d, cfg.layers, strategy)?);
                        }
                    }
                    Ok(t0.elapsed().as_secs_f64() * 1e3)
                })?;
                drop(_scope);
                // lint: allow(panic-surface) -- exactly four cells were requested from the driver above
                let [full_ms, incremental_ms, fused_full_ms, fused_incremental_ms]: [f64; 4] =
                    // lint: allow(panic-surface) -- exactly four cells were requested from the driver above
                    mins.try_into().expect("four churn cells");
                let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
                delta_rates.push(DeltaRateTiming {
                    dataset: set.short.clone(),
                    delta_rate: rate,
                    threads: t,
                    layers: cfg.layers,
                    timed_deltas: set.chain.len().saturating_sub(1),
                    full_rebuild_ms: full_ms,
                    incremental_ms,
                    incremental_speedup: ratio(full_ms, incremental_ms),
                    fused_full_ms,
                    fused_incremental_ms,
                    fused_speedup: ratio(fused_full_ms, fused_incremental_ms),
                    patches,
                    saved_mults: saved.mults,
                    saved_adds: saved.adds,
                });
            }
        }
    }

    // The thread-scaling sweep, its roofline reading, and the triad
    // baselines the roofline is gated against (DESIGN.md §13).
    let scaling = measure_scaling(&sets, &thread_counts, cfg.samples)?;
    let baseline_threads = thread_counts.iter().copied().min().unwrap_or(1);
    let roofline = roofline_entries(&sets, &scaling, baseline_threads)?;
    let triad = TriadBaseline::measure(TRIAD_L2_ELEMENTS, cfg.triad_dram_elements, cfg.samples);

    // Locality sweep: single-thread kernels and churn survival per vertex
    // ordering (DESIGN.md §14).
    let locality = measure_locality(cfg, &sets, cfg.samples)?;

    let (pool_hits, pool_misses) = idgnn_sparse::workspace::pool_counters();
    let max_warm_speedup =
        power_chain.iter().map(|p| p.warm_speedup).fold(0.0f64, f64::max);
    Ok(KernelBenchReport {
        scale: match cfg.scale {
            ExperimentScale::Quick => "quick".to_string(),
            ExperimentScale::Standard => "standard".to_string(),
        },
        samples: cfg.samples,
        thread_counts,
        requested_thread_counts: cfg.thread_counts.clone(),
        host_cores: parallel::host_cores(),
        kernels,
        scaling,
        roofline,
        triad,
        power_chain,
        delta_rates,
        locality,
        delta_saved_total,
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
            .map(|k| {
                vec![
                    k.dataset.clone(),
                    k.kernel.clone(),
                    k.threads.to_string(),
                    format!("{:.3}", k.wall_ms),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Kernel wall-clock (min of samples, ms)",
                &["dataset", "kernel", "threads", "ms"],
                &rows,
            )
        )?;
        if !self.scaling.is_empty() {
            let rows: Vec<Vec<String>> = self
                .scaling
                .iter()
                .map(|s| {
                    vec![
                        s.dataset.clone(),
                        s.kernel.clone(),
                        s.threads.to_string(),
                        format!("{:.3}", s.wall_ms),
                        format!("{:.2}x", s.speedup),
                        format!("{:.0}%", s.efficiency * 100.0),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                table(
                    &format!(
                        "Thread scaling, interleaved min of samples (host: {} cores)",
                        self.host_cores
                    ),
                    &["dataset", "kernel", "threads", "ms", "speedup", "efficiency"],
                    &rows,
                )
            )?;
        }
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
                    "Roofline at the baseline thread count (exact FLOPs / footprint bytes)",
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
                    p.threads.to_string(),
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
                &["dataset", "threads", "cold ms", "warm ms", "speedup", "hits", "saved mults"],
                &rows,
            )
        )?;
        if !self.delta_rates.is_empty() {
            let rows: Vec<Vec<String>> = self
                .delta_rates
                .iter()
                .map(|d| {
                    vec![
                        d.dataset.clone(),
                        format!("{:.1}%", d.delta_rate * 100.0),
                        d.threads.to_string(),
                        format!("{:.3}", d.full_rebuild_ms),
                        format!("{:.3}", d.incremental_ms),
                        format!("{:.2}x", d.incremental_speedup),
                        format!("{:.2}x", d.fused_speedup),
                        d.patches.to_string(),
                        d.saved_mults.to_string(),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                table(
                    "Edge-churn sweep — chain rebuild vs dirty-row incremental patch",
                    &[
                        "dataset", "churn", "threads", "chain full ms", "chain incr ms",
                        "chain speedup", "fused speedup", "patches", "saved mults",
                    ],
                    &rows,
                )
            )?;
        }
        if !self.locality.timings.is_empty() {
            let rows: Vec<Vec<String>> = self
                .locality
                .timings
                .iter()
                .map(|t| {
                    vec![
                        t.dataset.clone(),
                        t.ordering.clone(),
                        format!("{:.3}", t.spgemm_ms),
                        format!("{:.2}x", t.spgemm_speedup),
                        format!("{:.3}", t.spmm_ms),
                        format!("{:.2}x", t.spmm_speedup),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                table(
                    "Locality — single-thread kernels per vertex ordering (speedup vs identity)",
                    &["dataset", "ordering", "spgemm ms", "speedup", "spmm ms", "speedup"],
                    &rows,
                )
            )?;
            let rows: Vec<Vec<String>> = self
                .locality
                .churn
                .iter()
                .map(|c| {
                    vec![
                        c.dataset.clone(),
                        c.ordering.clone(),
                        format!("{:.1}%", c.delta_rate * 100.0),
                        format!("{:.0}%", c.patch_survival * 100.0),
                        c.patches.to_string(),
                        c.saved_mults.to_string(),
                        format!("{:.2}x", c.incremental_speedup),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                table(
                    "Locality churn — patch survival per vertex ordering",
                    &[
                        "dataset", "ordering", "churn", "survival", "patches", "saved mults",
                        "incr speedup",
                    ],
                    &rows,
                )
            )?;
            let g = &self.locality.gate;
            writeln!(
                f,
                "locality gate: {} beats identity on spgemm for {}/{} datasets \
                 (required {}, churn parity: {}) => {}",
                g.best_ordering,
                g.spgemm_wins,
                g.datasets,
                g.required_wins,
                g.churn_parity,
                if g.passed { "pass" } else { "FAIL" },
            )?;
        }
        writeln!(f, "best warm speedup: {:.2}x", self.max_warm_speedup)
    }
}

/// Checks that `text` is one syntactically well-formed JSON document and
/// contains the report's required top-level keys.
///
/// The vendored `serde_json` is serialize-only, so the `kernels` binary (and
/// CI) validate what they wrote with this scanner: strings with escapes,
/// balanced `{}`/`[]` nesting, and exactly one top-level value. It accepts a
/// superset of JSON scalars (any non-structural run), which is fine — the
/// writer is our own serializer; the check guards truncation and
/// interleaved-output corruption, not adversarial input.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_report_json(text: &str) -> std::result::Result<(), String> {
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut saw_value = false;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                saw_value = true;
            }
            '{' | '[' => {
                stack.push(c);
                saw_value = true;
            }
            '}' => {
                if stack.pop() != Some('{') {
                    return Err(format!("unmatched '}}' at byte {i}"));
                }
            }
            ']' => {
                if stack.pop() != Some('[') {
                    return Err(format!("unmatched ']' at byte {i}"));
                }
            }
            _ => {
                if !c.is_whitespace() && !",:".contains(c) {
                    saw_value = true;
                }
            }
        }
    }
    if in_string {
        return Err("unterminated string".to_string());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed bracket(s)", stack.len()));
    }
    if !saw_value {
        return Err("empty document".to_string());
    }
    for key in [
        "\"kernels\"",
        "\"power_chain\"",
        "\"thread_counts\"",
        "\"delta_rates\"",
        "\"max_warm_speedup\"",
        "\"host_cores\"",
        "\"scaling\"",
        "\"roofline\"",
        "\"triad\"",
        "\"locality\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    Ok(())
}

/// Parses `text` with [`crate::jsonv`] and checks the report *structure*:
/// every required section present with the right shape, non-empty where the
/// run implies entries, and nonzero saved work from the delta-rate sweep.
///
/// This is the check `scripts/ci.sh` gates on (via `kernels --validate`) —
/// it subsumes the older substring greps, which could not tell a real
/// `delta_saved_total` from one inside a string, or an empty `"kernels": []`
/// from a populated section.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_report_structure(text: &str) -> std::result::Result<(), String> {
    use crate::jsonv::{parse, Json};
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;

    let non_empty_array = |key: &str| -> std::result::Result<usize, String> {
        let n = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("`{key}` is missing or not an array"))?
            .len();
        if n == 0 {
            return Err(format!("`{key}` is empty"));
        }
        Ok(n)
    };
    let number = |key: &str| -> std::result::Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{key}` is missing or not a number"))
    };

    if doc.get("scale").and_then(Json::as_str).is_none() {
        return Err("`scale` is missing or not a string".to_string());
    }
    non_empty_array("thread_counts")?;
    non_empty_array("requested_thread_counts")?;
    non_empty_array("kernels")?;
    non_empty_array("power_chain")?;
    non_empty_array("delta_rates")?;

    // `thread_counts` is the sweep that actually ran: it must be a subset of
    // the request, and the `threads` values in the timing rows must cover
    // exactly it (the pre-fix report claimed a 1/4/8 sweep while the rows
    // only ever carried one count).
    let counts_of = |key: &str| -> std::result::Result<Vec<f64>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("`{key}` is missing or not an array"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("`{key}` has a non-numeric entry")))
            .collect()
    };
    let swept = counts_of("thread_counts")?;
    let requested = counts_of("requested_thread_counts")?;
    for t in &swept {
        if !requested.contains(t) {
            return Err(format!(
                "`thread_counts` entry {t} was never requested ({requested:?})"
            ));
        }
    }
    let mut row_counts: Vec<f64> = Vec::new();
    for section in ["kernels", "power_chain", "delta_rates"] {
        for (i, row) in
            doc.get(section).and_then(Json::as_array).unwrap_or(&[]).iter().enumerate()
        {
            let t = row
                .get("threads")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{section}[{i}]` lacks numeric field `threads`"))?;
            if !swept.contains(&t) {
                return Err(format!(
                    "`{section}[{i}]` ran at {t} threads, outside the recorded sweep {swept:?}"
                ));
            }
            if !row_counts.contains(&t) {
                row_counts.push(t);
            }
        }
    }
    if row_counts.len() != swept.len() {
        return Err(format!(
            "recorded sweep {swept:?} does not match the thread counts present in the rows \
             {row_counts:?}"
        ));
    }

    // Row shape: every kernel row carries a dataset, kernel name, and a
    // positive wall time; every sweep row carries a positive speedup pair.
    for (section, fields) in [
        ("kernels", &["dataset", "kernel"] as &[&str]),
        ("power_chain", &["dataset"]),
        ("delta_rates", &["dataset"]),
    ] {
        for (i, row) in doc
            .get(section)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            for field in fields {
                if row.get(field).and_then(Json::as_str).is_none() {
                    return Err(format!("`{section}[{i}]` lacks string field `{field}`"));
                }
            }
        }
    }

    if number("max_warm_speedup")? <= 0.0 {
        return Err("`max_warm_speedup` must be positive".to_string());
    }
    if number("delta_saved_total")? <= 0.0 {
        return Err("`delta_saved_total` is zero: the delta-rate sweep saved no work".to_string());
    }
    if number("samples")? < 1.0 {
        return Err("`samples` must be at least 1".to_string());
    }

    // --- scaling / roofline / triad (the thread-scaling tentpole) ---
    let host_cores = number("host_cores")?;
    if host_cores < 1.0 {
        return Err("`host_cores` must be at least 1".to_string());
    }
    non_empty_array("scaling")?;
    let scaling = doc.get("scaling").and_then(Json::as_array).unwrap_or(&[]);
    let min_swept = swept.iter().copied().fold(f64::MAX, f64::min);
    let mut scaling_counts: Vec<f64> = Vec::new();
    let mut gate_rows: Vec<(String, String, f64, f64)> = Vec::new();
    for (i, row) in scaling.iter().enumerate() {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`scaling[{i}]` lacks numeric field `{name}`"))
        };
        let t = field("threads")?;
        if !swept.contains(&t) {
            return Err(format!(
                "`scaling[{i}]` ran at {t} threads, outside the recorded sweep {swept:?}"
            ));
        }
        if !scaling_counts.contains(&t) {
            scaling_counts.push(t);
        }
        if field("wall_ms")? <= 0.0 {
            return Err(format!("`scaling[{i}]` reports a non-positive wall time"));
        }
        let efficiency = field("efficiency")?;
        if efficiency <= 0.0 {
            return Err(format!("`scaling[{i}]` reports a non-positive efficiency"));
        }
        #[allow(clippy::float_cmp)]
        if t == min_swept && (efficiency - 1.0).abs() > 1e-6 {
            return Err(format!(
                "`scaling[{i}]` is a baseline row (threads = {t}) but reports efficiency \
                 {efficiency} instead of 1"
            ));
        }
        let kernel = row.get("kernel").and_then(Json::as_str).unwrap_or("?").to_string();
        let dataset = row.get("dataset").and_then(Json::as_str).unwrap_or("?").to_string();
        #[allow(clippy::float_cmp)]
        if t == 4.0 {
            gate_rows.push((kernel, dataset, field("rows")?, efficiency));
        }
    }
    if scaling_counts.len() != swept.len() {
        return Err(format!(
            "`scaling` rows cover thread counts {scaling_counts:?}, not the recorded sweep \
             {swept:?}"
        ));
    }
    // Regression gate: when the host genuinely ran 4 threads, the two
    // largest datasets must scale at ≥60% parallel efficiency per kernel.
    // A clamped host (no 4-thread rows) skips the gate by construction.
    if host_cores >= 4.0 {
        let mut kernels_at_4: Vec<&str> = Vec::new();
        for (k, ..) in &gate_rows {
            if !kernels_at_4.contains(&k.as_str()) {
                kernels_at_4.push(k);
            }
        }
        for kernel in kernels_at_4 {
            let mut rows_of_kernel: Vec<&(String, String, f64, f64)> =
                gate_rows.iter().filter(|(k, ..)| k == kernel).collect();
            rows_of_kernel
                .sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            for (_, dataset, _, efficiency) in rows_of_kernel.iter().take(2) {
                if *efficiency < 0.6 {
                    return Err(format!(
                        "`scaling`: {kernel} on {dataset} reaches only {:.0}% parallel \
                         efficiency at 4 threads (gate: ≥60% on the two largest datasets)",
                        efficiency * 100.0
                    ));
                }
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

    non_empty_array("roofline")?;
    for (i, row) in doc.get("roofline").and_then(Json::as_array).unwrap_or(&[]).iter().enumerate()
    {
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

    // --- locality (the reordering tentpole) ---
    let locality = doc.get("locality").ok_or("`locality` is missing")?;
    let orderings: Vec<&str> = locality
        .get("orderings")
        .and_then(Json::as_array)
        .ok_or("`locality.orderings` is missing or not an array")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for required in ["identity", "degree", "rcm", "island"] {
        if !orderings.contains(&required) {
            return Err(format!("`locality.orderings` lacks the `{required}` strategy"));
        }
    }
    let timings = locality
        .get("timings")
        .and_then(Json::as_array)
        .ok_or("`locality.timings` is missing or not an array")?;
    if timings.is_empty() {
        return Err("`locality.timings` is empty".to_string());
    }
    let mut timed_orderings: Vec<&str> = Vec::new();
    for (i, row) in timings.iter().enumerate() {
        let ordering = row
            .get("ordering")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`locality.timings[{i}]` lacks string field `ordering`"))?;
        if !orderings.contains(&ordering) {
            return Err(format!(
                "`locality.timings[{i}]` uses ordering `{ordering}`, not in `locality.orderings`"
            ));
        }
        if !timed_orderings.contains(&ordering) {
            timed_orderings.push(ordering);
        }
        for field in ["spgemm_ms", "spmm_ms", "spgemm_speedup", "spmm_speedup"] {
            let v = row.get(field).and_then(Json::as_f64).ok_or_else(|| {
                format!("`locality.timings[{i}]` lacks numeric field `{field}`")
            })?;
            if v <= 0.0 {
                return Err(format!("`locality.timings[{i}]` has non-positive `{field}`"));
            }
        }
    }
    if timed_orderings.len() != orderings.len() {
        return Err(format!(
            "`locality.timings` covers orderings {timed_orderings:?}, not the advertised \
             {orderings:?}"
        ));
    }
    let churn_rows = locality
        .get("churn")
        .and_then(Json::as_array)
        .ok_or("`locality.churn` is missing or not an array")?;
    if churn_rows.is_empty() {
        return Err("`locality.churn` is empty".to_string());
    }
    for (i, row) in churn_rows.iter().enumerate() {
        let survival = row
            .get("patch_survival")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`locality.churn[{i}]` lacks numeric `patch_survival`"))?;
        if !(0.0..=1.0).contains(&survival) {
            return Err(format!(
                "`locality.churn[{i}]` reports patch survival {survival}, outside [0, 1]"
            ));
        }
        let ordering = row.get("ordering").and_then(Json::as_str).unwrap_or("?");
        if !orderings.contains(&ordering) {
            return Err(format!(
                "`locality.churn[{i}]` uses ordering `{ordering}`, not in `locality.orderings`"
            ));
        }
    }
    let gate = locality.get("gate").ok_or("`locality.gate` is missing")?;
    let gnum = |name: &str| {
        gate.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`locality.gate` lacks numeric field `{name}`"))
    };
    let best = gate
        .get("best_ordering")
        .and_then(Json::as_str)
        .ok_or("`locality.gate` lacks string field `best_ordering`")?;
    if !orderings.contains(&best) {
        return Err(format!(
            "`locality.gate.best_ordering` (`{best}`) is not in `locality.orderings`"
        ));
    }
    let (wins, datasets, required) =
        (gnum("spgemm_wins")?, gnum("datasets")?, gnum("required_wins")?);
    if wins > datasets {
        return Err(format!(
            "`locality.gate` claims {wins} wins over {datasets} datasets"
        ));
    }
    // The full standard-scale run must actually enforce the paper gate —
    // best ordering beating identity on ≥4 of the 6 Fig. 12 datasets — so a
    // hollow report cannot sneak through with `required_wins: 0`.
    let scale = doc.get("scale").and_then(Json::as_str).unwrap_or("");
    if scale == "standard" && datasets >= 6.0 && required < 4.0 {
        return Err(format!(
            "`locality.gate.required_wins` is {required} on a full standard-scale report \
             (gate: ≥4 of the Fig. 12 datasets)"
        ));
    }
    if gate.get("churn_parity") != Some(&Json::Bool(true)) {
        return Err("`locality.gate.churn_parity` is not true: reordering perturbed the \
                    dirty-row patch accounting"
            .to_string());
    }
    if gate.get("passed") != Some(&Json::Bool(true)) {
        return Err(format!(
            "`locality.gate` failed: best ordering `{best}` won {wins}/{datasets} datasets \
             (required {required})"
        ));
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
        cfg.thread_counts = vec![1];
        cfg.samples = 1;
        cfg.delta_datasets = 1;
        let r = run(&cfg).unwrap();
        assert_eq!(r.kernels.len(), 3, "spgemm/spmm/sp_add for one dataset x one thread count");
        assert_eq!(r.power_chain.len(), 1);
        let p = &r.power_chain[0];
        assert_eq!(p.cache_hits, p.timed_deltas as u64);
        assert!(p.cache_hits > 0);
        assert!(p.saved_mults > 0, "warm hits must avoid real multiplies");
        assert!(p.cold_ms > 0.0 && p.warm_ms > 0.0);
        assert_eq!(r.delta_rates.len(), 1, "one rate x one dataset x one thread count");
        let d = &r.delta_rates[0];
        assert!(d.full_rebuild_ms > 0.0 && d.incremental_ms > 0.0);
        assert!(d.fused_full_ms > 0.0 && d.fused_incremental_ms > 0.0);
        assert!(r.delta_saved_total > 0, "reuse must avoid real work in the sweep");
        assert_eq!(d.saved_mults + d.saved_adds, r.delta_saved_total);
        assert!(r.host_cores >= 1);
        assert_eq!(r.scaling.len(), 2, "spgemm+spmm for one dataset x one thread count");
        for s in &r.scaling {
            assert!(s.wall_ms > 0.0);
            assert!((s.efficiency - 1.0).abs() < 1e-9, "the baseline count scales perfectly");
            assert!(s.rows > 0 && s.nnz > 0, "operand size must be recorded");
        }
        assert_eq!(r.roofline.len(), 2, "spgemm+spmm entries");
        for e in &r.roofline {
            assert!(e.flops > 0 && e.bytes > 0);
            assert!(e.achieved_gbps > 0.0);
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
        assert_eq!(r.locality.orderings, ["identity", "degree", "rcm", "island"]);
        assert_eq!(r.locality.timings.len(), 4, "one dataset x four orderings");
        for t in &r.locality.timings {
            assert!(t.spgemm_ms > 0.0 && t.spmm_ms > 0.0);
            assert!(t.rows > 0 && t.nnz > 0);
            if t.ordering == "identity" {
                assert!(
                    (t.spgemm_speedup - 1.0).abs() < 1e-9 && (t.spmm_speedup - 1.0).abs() < 1e-9,
                    "identity is its own speedup baseline"
                );
            }
        }
        assert_eq!(r.locality.churn.len(), 4, "one rate x one dataset x four orderings");
        for c in &r.locality.churn {
            assert!((0.0..=1.0).contains(&c.patch_survival));
            assert!(c.full_rebuild_ms > 0.0 && c.incremental_ms > 0.0);
        }
        assert!(
            r.locality.gate.churn_parity,
            "a vertex relabeling must not perturb the patch/saved accounting"
        );
        assert!(r.locality.gate.passed, "the smoke gate is unconditional");
        assert_eq!(r.locality.gate.required_wins, 0, "quick scale never enforces the win gate");
        let text = r.to_string();
        assert!(text.contains("Power chain"));
        assert!(text.contains("spgemm"));
        assert!(text.contains("Edge-churn sweep"));
        assert!(text.contains("Thread scaling"));
        assert!(text.contains("Roofline"));
        assert!(text.contains("triad baseline"));
        assert!(text.contains("Locality"));
        assert!(text.contains("locality gate"));
        let json = serde_json::to_string_pretty(&r).unwrap();
        validate_report_json(&json).unwrap();
        validate_report_structure(&json).unwrap();
    }

    #[test]
    fn structural_validator_rejects_hollow_reports() {
        // The substring validator accepts these; the structural one must not.
        let empty_sections = "{\"scale\": \"smoke\", \"samples\": 1, \"thread_counts\": [1], \
             \"kernels\": [], \"power_chain\": [], \"delta_rates\": [], \
             \"host_cores\": 1, \"scaling\": [], \"roofline\": [], \"triad\": {}, \
             \"locality\": {}, \"delta_saved_total\": 5, \"max_warm_speedup\": 1.2}";
        validate_report_json(empty_sections).unwrap();
        assert!(validate_report_structure(empty_sections).is_err());

        let wrong_types = "{\"scale\": 1, \"samples\": \"many\", \"thread_counts\": 1, \
             \"kernels\": {}, \"power_chain\": 0, \"delta_rates\": \"x\", \
             \"host_cores\": \"two\", \"scaling\": 0, \"roofline\": {}, \"triad\": [], \
             \"locality\": 0, \"delta_saved_total\": [], \"max_warm_speedup\": \"big\"}";
        validate_report_json(wrong_types).unwrap();
        assert!(validate_report_structure(wrong_types).is_err());

        let zero_saved = "{\"scale\": \"smoke\", \"samples\": 1, \"thread_counts\": [1], \
             \"requested_thread_counts\": [1, 4, 8], \
             \"kernels\": [{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"threads\": 1}], \
             \"power_chain\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_rates\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_saved_total\": 0, \"max_warm_speedup\": 1.2}";
        assert!(validate_report_structure(zero_saved)
            .unwrap_err()
            .contains("delta_saved_total"));

        let bad_row = "{\"scale\": \"smoke\", \"samples\": 1, \"thread_counts\": [1], \
             \"requested_thread_counts\": [1], \
             \"kernels\": [{\"kernel\": 3, \"dataset\": \"AS\", \"threads\": 1}], \
             \"power_chain\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_rates\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_saved_total\": 5, \"max_warm_speedup\": 1.2}";
        assert!(validate_report_structure(bad_row).unwrap_err().contains("kernels[0]"));
    }

    #[test]
    fn validator_rejects_a_sweep_claim_the_rows_do_not_back() {
        // The pre-fix failure mode: `thread_counts` advertises a 1/4/8 sweep
        // while every row ran at one count.
        let overclaimed = "{\"scale\": \"smoke\", \"samples\": 1, \
             \"thread_counts\": [1, 4, 8], \"requested_thread_counts\": [1, 4, 8], \
             \"kernels\": [{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"threads\": 1}], \
             \"power_chain\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_rates\": [{\"dataset\": \"AS\", \"threads\": 1}], \
             \"delta_saved_total\": 5, \"max_warm_speedup\": 1.2}";
        let err = validate_report_structure(overclaimed).unwrap_err();
        assert!(err.contains("does not match the thread counts"), "{err}");

        // An unrequested count in the recorded sweep is also rejected.
        let unrequested = overclaimed.replace(
            "\"requested_thread_counts\": [1, 4, 8]",
            "\"requested_thread_counts\": [1]",
        );
        let err = validate_report_structure(&unrequested).unwrap_err();
        assert!(err.contains("never requested"), "{err}");
    }

    #[test]
    fn report_records_both_requested_and_clamped_sweeps() {
        let cfg = KernelBenchConfig::full();
        assert_eq!(cfg.thread_counts, vec![1, 4, 8, 16], "the request is no longer pre-clamped");
        let swept = clamp_threads(cfg.thread_counts.clone());
        assert!(!swept.is_empty());
        assert!(swept.iter().all(|t| cfg.thread_counts.contains(t)));
    }

    #[test]
    fn thread_counts_are_clamped_to_host() {
        // No host can run usize::MAX threads; 1 always survives.
        assert_eq!(clamp_threads(vec![1, usize::MAX]), vec![1]);
        // A fully-oversubscribed request degrades to the serial baseline
        // instead of an empty sweep.
        assert_eq!(clamp_threads(vec![usize::MAX]), vec![1]);
        assert!(KernelBenchConfig::full().thread_counts.contains(&1));
        assert!(KernelBenchConfig::smoke().thread_counts.contains(&1));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report_json("").is_err());
        assert!(validate_report_json("{\"kernels\": [").is_err());
        assert!(validate_report_json("{\"kernels\": \"unterminated").is_err());
        assert!(validate_report_json("{}]").is_err());
        // Well-formed but missing required keys.
        assert!(validate_report_json("{\"kernels\": []}").is_err());
        let missing_scaling = "{\"kernels\": [], \"power_chain\": [], \"thread_counts\": [1], \
                  \"delta_rates\": [], \"max_warm_speedup\": 1.0}";
        assert!(validate_report_json(missing_scaling).is_err());
        // The locality section is now required alongside the rest.
        let missing_locality = "{\"kernels\": [], \"power_chain\": [], \"thread_counts\": [1], \
                  \"delta_rates\": [], \"max_warm_speedup\": 1.0, \"host_cores\": 1, \
                  \"scaling\": [], \"roofline\": [], \"triad\": {}}";
        assert!(validate_report_json(missing_locality).is_err());
        let ok = "{\"kernels\": [], \"power_chain\": [], \"thread_counts\": [1], \
                  \"delta_rates\": [], \"max_warm_speedup\": 1.0, \"host_cores\": 1, \
                  \"scaling\": [], \"roofline\": [], \"triad\": {}, \"locality\": {}}";
        validate_report_json(ok).unwrap();
    }

    /// A structurally valid locality section: identity slowest on SpGEMM,
    /// rcm fastest, full churn survival, and a passing gate.
    fn locality_fixture() -> String {
        let timing = |ordering: &str, ms: f64| {
            format!(
                "{{\"dataset\": \"AS\", \"ordering\": \"{ordering}\", \"rows\": 1000, \
                  \"nnz\": 10, \"spgemm_ms\": {ms:?}, \"spmm_ms\": 1.0, \
                  \"spgemm_speedup\": 1.0, \"spmm_speedup\": 1.0, \"samples\": 3}}"
            )
        };
        format!(
            "{{\"orderings\": [\"identity\", \"degree\", \"rcm\", \"island\"], \
              \"timings\": [{}, {}, {}, {}], \
              \"churn\": [{{\"dataset\": \"AS\", \"ordering\": \"identity\", \
                 \"delta_rate\": 0.01, \"timed_deltas\": 3, \"cache_hits\": 3, \"patches\": 3, \
                 \"patch_survival\": 1.0, \"saved_mults\": 5, \"saved_adds\": 5, \
                 \"full_rebuild_ms\": 1.0, \"incremental_ms\": 0.5, \
                 \"incremental_speedup\": 2.0}}], \
              \"gate\": {{\"best_ordering\": \"rcm\", \"spgemm_wins\": 1, \"datasets\": 1, \
                 \"required_wins\": 0, \"churn_parity\": true, \"passed\": true}}}}",
            timing("identity", 1.0),
            timing("degree", 0.9),
            timing("rcm", 0.8),
            timing("island", 0.95),
        )
    }

    /// A structurally complete report with parameterizable scaling/roofline/
    /// triad sections, for exercising the validator's tentpole gates.
    fn report_fixture(host_cores: u32, scaling: &str, roofline: &str, triad: &str) -> String {
        format!(
            "{{\"scale\": \"smoke\", \"samples\": 1, \"thread_counts\": [1, 4], \
              \"requested_thread_counts\": [1, 4], \"host_cores\": {host_cores}, \
              \"kernels\": [{{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"threads\": 1}}, \
                            {{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"threads\": 4}}], \
              \"power_chain\": [{{\"dataset\": \"AS\", \"threads\": 1}}], \
              \"delta_rates\": [{{\"dataset\": \"AS\", \"threads\": 1}}], \
              \"delta_saved_total\": 5, \"max_warm_speedup\": 1.2, \
              \"scaling\": [{scaling}], \"roofline\": [{roofline}], \"triad\": {triad}, \
              \"locality\": {}}}",
            locality_fixture()
        )
    }

    fn scaling_row(dataset: &str, rows: u32, threads: u32, efficiency: f64) -> String {
        format!(
            "{{\"kernel\": \"spgemm\", \"dataset\": \"{dataset}\", \"rows\": {rows}, \
              \"nnz\": 10, \"threads\": {threads}, \"wall_ms\": 1.0, \"samples\": 3, \
              \"speedup\": 1.0, \"efficiency\": {efficiency:?}}}"
        )
    }

    const GOOD_ROOFLINE: &str = "{\"kernel\": \"spgemm\", \"dataset\": \"AS\", \"flops\": 100, \
         \"bytes\": 50, \"arithmetic_intensity\": 2.0, \"wall_ms\": 1.0, \
         \"achieved_gflops\": 0.1, \"achieved_gbps\": 0.05}";
    const GOOD_TRIAD: &str = "{\"l2_elements\": 8192, \"l2_gbps\": 40.0, \
         \"dram_elements\": 1000, \"dram_gbps\": 15.0, \"peak_gbps\": 40.0}";

    fn good_scaling() -> String {
        [
            scaling_row("AS", 1000, 1, 1.0),
            scaling_row("AS", 1000, 4, 0.7),
            scaling_row("BB", 200, 1, 1.0),
            scaling_row("BB", 200, 4, 0.65),
        ]
        .join(", ")
    }

    #[test]
    fn validator_gates_scaling_coverage_and_baselines() {
        let good = report_fixture(8, &good_scaling(), GOOD_ROOFLINE, GOOD_TRIAD);
        validate_report_structure(&good).unwrap();

        // Scaling rows that never ran the 4-thread half of the sweep.
        let partial = [scaling_row("AS", 1000, 1, 1.0), scaling_row("BB", 200, 1, 1.0)].join(", ");
        let err = validate_report_structure(&report_fixture(8, &partial, GOOD_ROOFLINE, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("not the recorded sweep"), "{err}");

        // A baseline row must report unit efficiency by construction.
        let skewed = good.replace("\"speedup\": 1.0, \"efficiency\": 1.0}", "\"speedup\": 1.0, \"efficiency\": 0.9}");
        let err = validate_report_structure(&skewed).unwrap_err();
        assert!(err.contains("baseline row"), "{err}");
    }

    #[test]
    fn validator_gates_four_thread_efficiency_when_cores_permit() {
        // 30% efficiency at 4 threads on the largest dataset: rejected on a
        // host with ≥4 cores…
        let weak = [
            scaling_row("AS", 1000, 1, 1.0),
            scaling_row("AS", 1000, 4, 0.3),
            scaling_row("BB", 200, 1, 1.0),
            scaling_row("BB", 200, 4, 0.65),
        ]
        .join(", ");
        let err = validate_report_structure(&report_fixture(8, &weak, GOOD_ROOFLINE, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("parallel"), "{err}");
        assert!(err.contains("AS"), "{err}");
        // …but the gate is conditional: a clamped host skips it.
        validate_report_structure(&report_fixture(2, &weak, GOOD_ROOFLINE, GOOD_TRIAD)).unwrap();
    }

    #[test]
    fn validator_gates_roofline_against_triad_peak() {
        // A kernel cannot claim more effective bandwidth than the host
        // demonstrably sustains.
        let too_fast = GOOD_ROOFLINE.replace("\"achieved_gbps\": 0.05", "\"achieved_gbps\": 100.0");
        let err = validate_report_structure(&report_fixture(8, &good_scaling(), &too_fast, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("triad peak"), "{err}");

        // The recorded peak must be the max of the two measurements.
        let bad_peak = GOOD_TRIAD.replace("\"peak_gbps\": 40.0", "\"peak_gbps\": 10.0");
        let err = validate_report_structure(&report_fixture(8, &good_scaling(), GOOD_ROOFLINE, &bad_peak))
            .unwrap_err();
        assert!(err.contains("larger triad measurement"), "{err}");

        let zero_ai = GOOD_ROOFLINE.replace("\"arithmetic_intensity\": 2.0", "\"arithmetic_intensity\": 0.0");
        let err = validate_report_structure(&report_fixture(8, &good_scaling(), &zero_ai, GOOD_TRIAD))
            .unwrap_err();
        assert!(err.contains("arithmetic intensity"), "{err}");
    }

    #[test]
    fn validator_gates_locality_section() {
        let good = report_fixture(8, &good_scaling(), GOOD_ROOFLINE, GOOD_TRIAD);
        validate_report_structure(&good).unwrap();

        // A survival rate outside [0, 1] is structurally impossible.
        let bad_survival = good.replace("\"patch_survival\": 1.0", "\"patch_survival\": 1.5");
        let err = validate_report_structure(&bad_survival).unwrap_err();
        assert!(err.contains("patch survival"), "{err}");

        // Every advertised ordering must actually have timing rows.
        let missing_island = good.replace(
            "\"orderings\": [\"identity\", \"degree\", \"rcm\", \"island\"]",
            "\"orderings\": [\"identity\", \"degree\", \"rcm\", \"island\", \"hilbert\"]",
        );
        let err = validate_report_structure(&missing_island).unwrap_err();
        assert!(err.contains("not the advertised"), "{err}");

        // Dropping a required strategy from the sweep is rejected outright.
        let no_rcm = good.replace(
            "\"orderings\": [\"identity\", \"degree\", \"rcm\", \"island\"]",
            "\"orderings\": [\"identity\", \"degree\", \"island\"]",
        );
        let err = validate_report_structure(&no_rcm).unwrap_err();
        assert!(err.contains("rcm"), "{err}");

        // A failed gate fails validation, as does broken churn parity.
        let failed = good.replace("\"passed\": true", "\"passed\": false");
        let err = validate_report_structure(&failed).unwrap_err();
        assert!(err.contains("gate"), "{err}");
        let no_parity = good.replace("\"churn_parity\": true", "\"churn_parity\": false");
        let err = validate_report_structure(&no_parity).unwrap_err();
        assert!(err.contains("parity"), "{err}");

        // A full standard-scale report cannot opt out of the ≥4-win gate.
        let hollow_full = good
            .replace("\"scale\": \"smoke\"", "\"scale\": \"standard\"")
            .replace("\"spgemm_wins\": 1, \"datasets\": 1", "\"spgemm_wins\": 6, \"datasets\": 6");
        let err = validate_report_structure(&hollow_full).unwrap_err();
        assert!(err.contains("required_wins"), "{err}");
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
            assert_eq!(warm.delta_ac.indptr(), cold.delta_ac.indptr());
            assert_eq!(warm.delta_ac.indices(), cold.delta_ac.indices());
            let wv: Vec<u32> = warm.delta_ac.values().iter().map(|v| v.to_bits()).collect();
            let cv: Vec<u32> = cold.delta_ac.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wv, cv);
            assert_eq!(warm.ops, cold.ops);
        }
        assert_eq!(cache.hits(), set.chain.len() as u64 - 1);
    }
}
