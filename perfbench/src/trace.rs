//! The traced run: times the benchmark's own calls into each layer's public
//! functions and derives the per-layer metrics from those spans.
//!
//! The one-pass executor does not expose its phases, so the traced run
//! replays them — DIU → AComb → AG → CB → RNN — through the same public
//! functions the executor calls (`Diu::identify`,
//! `fused_dissimilarity_cached`, the sparse SpMM/GEMM entry points,
//! `DgnnModel::rnn_a`/`rnn_b`), following the executor's refresh decisions.
//! The replayed hidden state must match the executor's, which checks that
//! the replay times the work the executor does.

use std::collections::BTreeMap;
use std::time::Instant;

use idgnn_bench::context::ACCELERATORS;
use idgnn_bench::figures::fig12;
use idgnn_core::Diu;
use idgnn_graph::DynamicGraph;
use idgnn_model::exec::{self, CombinationOrder, ExecutionResult, OnePassOptions};
use idgnn_model::fusion::fuse_weights;
use idgnn_model::onepass::fused_dissimilarity_cached;
use idgnn_model::{Algorithm, DgnnModel, LstmState, MemoryModel, Phase, PowerCache};
use idgnn_sparse::{ops, DenseMatrix};

use crate::workloads::{drift, state_gap, BenchResult, Inputs};

/// Largest max-abs difference allowed between the replayed and the
/// executor's hidden state.
const REPLAY_TOLERANCE: f32 = 5e-3;

/// Accumulated span durations, keyed by metric name. With `on == false`
/// nothing is timed, which gives the untraced pass `trace.overhead_s` is
/// measured against.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that times (`on`) or only runs its closures.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            secs: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.secs.entry(name).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Seconds recorded under `name` (0 if never entered).
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// Phase spans whose sum `trace.coverage` compares with `model.exec_s`.
const PHASES: [&str; 6] = [
    "graph.materialize_s",
    "core.diu_s",
    "model.acomb_s",
    "model.ag_s",
    "model.cb_s",
    "model.rnn_s",
];

/// Counters the replay accumulates next to its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// AComb invocations.
    pub acomb_calls: u64,
    /// SpGEMM products AComb performed.
    pub acomb_products: u64,
    /// Scalar operations AComb reported.
    pub acomb_ops: u64,
    /// Sum of `nnz(ΔA_C)` over AComb calls.
    pub delta_ac_nnz: u64,
    /// Sum of `nnz(ΔA_C) / V²` over AComb calls.
    pub delta_ac_density: f64,
    /// Power-cache hits, misses and patches.
    pub cache: [u64; 3],
    /// Transitions replayed.
    pub transitions: u64,
    /// Transitions whose AComb ops are zero in the executor's result.
    pub refreshed: u64,
    /// Largest max-abs gap between replayed and executor hidden state.
    pub replay_gap: f32,
    /// Sum of per-stream mean dissimilarity.
    pub dissimilarity: f64,
    /// Streams replayed.
    pub streams: u64,
    /// Simulated ops of every simulated run.
    pub ops: u64,
    /// Simulated cycles of every simulated run.
    pub cycles: f64,
    /// Max-abs one-pass vs Recompute hidden-state drift (linear only).
    pub drift: f32,
}

/// Replays the one-pass executor's phases on one stream. `result` is the
/// executor's own output on the same inputs: it decides which transitions
/// refresh, and its hidden states are what the replay must reproduce.
fn replay(
    model: &DgnnModel,
    dg: &DynamicGraph,
    options: &OnePassOptions,
    result: &ExecutionResult,
    spans: &mut Spans,
    counts: &mut Counts,
) -> BenchResult<()> {
    let snaps = spans.time("graph.materialize_s", || dg.materialize())?;
    if result.outputs.len() != snaps.len() || result.costs.len() != snaps.len() {
        return Err("executor result does not cover every snapshot".into());
    }
    let norm = model.normalization();
    let dims = model.dims();
    let l = dims.gnn_layers as u32;
    let v = dg.initial().num_vertices();
    let activation = model.activation();
    let comb_first = match options.order {
        CombinationOrder::AggregationFirst => false,
        CombinationOrder::CombinationFirst => true,
        _ => dims.gnn_out_dim < dims.input_dim,
    };
    let (w_c, _) = spans.time("model.cb_s", || fuse_weights(model.gcn()))?;
    let chain = |a: &idgnn_sparse::CsrMatrix, x: &DenseMatrix| -> BenchResult<DenseMatrix> {
        let mut x = x.clone();
        for _ in 0..l {
            x = ops::spmm_with_stats(a, &x)?.0;
        }
        Ok(x)
    };
    let rnn = |spans: &mut Spans, x_c: &DenseMatrix, state: &mut LstmState| -> BenchResult<()> {
        spans.time("model.rnn_s", || -> BenchResult<()> {
            let (pre, _) = model.rnn_a(&state.h)?;
            *state = model.rnn_b(x_c, &pre, state)?.0;
            Ok(())
        })
    };

    let mut state = LstmState::zeros(v, dims.rnn_hidden_dim);
    let mut cache = PowerCache::new();
    let mut a_prev = spans.time("core.diu_s", || norm.apply(snaps[0].adjacency()));
    let x0 = snaps[0].features();
    // Combination-first keeps Y = X_0·W_C resident; aggregation-first keeps X_0.
    let mut y = DenseMatrix::zeros(0, 0);
    let mut pre = if comb_first {
        y = spans
            .time("model.cb_s", || ops::gemm_with_stats(x0, &w_c))?
            .0;
        spans.time("model.ag_s", || chain(&a_prev, &y))?
    } else {
        let agg = spans.time("model.ag_s", || chain(&a_prev, x0))?;
        spans
            .time("model.cb_s", || ops::gemm_with_stats(&agg, &w_c))?
            .0
    };
    let x_c = spans.time("model.cb_s", || activation.apply(&pre));
    rnn(spans, &x_c, &mut state)?;
    let mut gap = state_gap(&state.h, &result.outputs[0].state.h)?;

    let diu = Diu::new(norm);
    for t in 1..snaps.len() {
        let (prev, next) = (&snaps[t - 1], &snaps[t]);
        let (d, a_next) = spans.time("core.diu_s", || -> BenchResult<_> {
            Ok((diu.identify(prev, next)?, norm.apply(next.adjacency())))
        })?;
        let refreshed = result.costs[t].ops_of(Phase::AComb).total() == 0;
        counts.transitions += 1;
        counts.refreshed += u64::from(refreshed);
        let dx0 = &d.delta_features;
        let dy = if comb_first {
            let dy = spans
                .time("model.cb_s", || ops::gemm_with_stats(dx0, &w_c))?
                .0;
            y = spans.time("model.cb_s", || y.add(&dy))?;
            Some(dy)
        } else {
            None
        };
        if refreshed {
            pre = if comb_first {
                spans.time("model.ag_s", || chain(&a_next, &y))?
            } else {
                let agg = spans.time("model.ag_s", || chain(&a_next, next.features()))?;
                spans
                    .time("model.cb_s", || ops::gemm_with_stats(&agg, &w_c))?
                    .0
            };
        } else {
            let (h0, m0, p0) = (cache.hits(), cache.misses(), cache.patches());
            let dis = spans.time("model.acomb_s", || {
                fused_dissimilarity_cached(
                    &a_prev,
                    &d.delta_operator,
                    l,
                    options.strategy,
                    &mut cache,
                )
            })?;
            counts.cache[0] += cache.hits() - h0;
            counts.cache[1] += cache.misses() - m0;
            counts.cache[2] += cache.patches() - p0;
            counts.acomb_calls += 1;
            counts.acomb_products += u64::from(dis.products);
            counts.acomb_ops += dis.ops.total();
            counts.delta_ac_nnz += dis.delta_ac.nnz() as u64;
            counts.delta_ac_density += dis.delta_ac.nnz() as f64 / (v as f64 * v as f64);
            // ΔP = ΔA_C·Y + Â^L·ΔY (combination-first) or
            // (ΔA_C·X_0 + Â^L·ΔX_0)·W_C (aggregation-first).
            let d_p = match &dy {
                Some(dy) => spans.time("model.ag_s", || -> BenchResult<_> {
                    Ok(ops::spmm_with_stats(&dis.delta_ac, &y)?
                        .0
                        .add(&chain(&a_prev, dy)?)?)
                })?,
                None => {
                    let d_agg = spans.time("model.ag_s", || -> BenchResult<_> {
                        let direct = ops::spmm_with_stats(&dis.delta_ac, next.features())?.0;
                        Ok(direct.add(&chain(&a_prev, dx0)?)?)
                    })?;
                    spans
                        .time("model.cb_s", || ops::gemm_with_stats(&d_agg, &w_c))?
                        .0
                }
            };
            pre = spans.time("model.cb_s", || pre.add(&d_p))?;
        }
        let x_c = spans.time("model.cb_s", || activation.apply(&pre));
        rnn(spans, &x_c, &mut state)?;
        gap = gap.max(state_gap(&state.h, &result.outputs[t].state.h)?);
        a_prev = a_next;
    }
    counts.replay_gap = counts.replay_gap.max(gap);
    counts.dissimilarity += dg.mean_dissimilarity()?;
    counts.streams += 1;
    Ok(())
}

/// Executor, oracle and replay work on one stream, shared by all workloads.
fn one_stream(
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    options: &OnePassOptions,
    linear: bool,
    spans: &mut Spans,
    counts: &mut Counts,
) -> BenchResult<ExecutionResult> {
    let result = spans.time("model.exec_s", || {
        exec::run_onepass_with(model, dg, mem, options)
    })?;
    replay(model, dg, options, &result, spans, counts)?;
    let rec = spans.time("model.recompute_s", || {
        exec::run(Algorithm::Recompute, model, dg, mem)
    })?;
    if linear {
        counts.drift = counts.drift.max(drift(&result, &rec)?);
    }
    Ok(result)
}

/// One traced pass over the workload's operation. Returns the spans and
/// counters; with `spans.on == false` it only runs the same work.
pub fn pass(
    inputs: &Inputs,
    linear: bool,
    spans: &mut Spans,
    counts: &mut Counts,
) -> BenchResult<()> {
    match inputs {
        Inputs::Grid(ctx) => {
            // The cells run back to back right after `fig12::run`, so that
            // `bench.driver_s` compares like with like.
            spans.time("bench.fig12_s", || fig12::run(ctx))?;
            for w in &ctx.workloads {
                for name in ACCELERATORS {
                    let key = match name {
                        "I-DGNN" => "core.simulate_s",
                        "ReaDy" => "baselines.ready_s",
                        "DGNN-Booster" => "baselines.booster_s",
                        _ => "baselines.race_s",
                    };
                    let r = spans.time(key, || ctx.run_accelerator(name, w))?;
                    counts.ops += r.ops.total();
                    counts.cycles += r.total_cycles;
                }
            }
            for w in &ctx.workloads {
                let opts = OnePassOptions::default();
                one_stream(
                    &w.model,
                    &w.graph,
                    &ctx.memory(),
                    &opts,
                    linear,
                    spans,
                    counts,
                )?;
                spans.time("model.incremental_s", || {
                    exec::run(Algorithm::Incremental, &w.model, &w.graph, &ctx.memory())
                })?;
            }
        }
        Inputs::Single(s) => {
            let r = spans.time("core.simulate_s", || {
                s.accel.simulate(&s.model, &s.graph, &s.opts)
            })?;
            counts.ops += r.ops.total();
            counts.cycles += r.total_cycles;
            one_stream(
                &s.model,
                &s.graph,
                &s.memory(),
                &s.opts.onepass,
                linear,
                spans,
                counts,
            )?;
        }
    }
    Ok(())
}

/// Per-layer metrics of a traced pass, in `BENCHMARK.json` order, with units.
pub fn metrics(
    spans: &Spans,
    counts: &Counts,
    setup: &Spans,
    pool: (u64, u64),
    overhead_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let acomb_s = spans.get("model.acomb_s");
    let lookups = counts.cache[0] + counts.cache[1];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let exec_s = spans.get("model.exec_s");
    let phases: f64 = PHASES.iter().map(|p| spans.get(p)).sum();
    let cells: f64 = [
        "core.simulate_s",
        "baselines.ready_s",
        "baselines.booster_s",
        "baselines.race_s",
    ]
    .iter()
    .map(|k| spans.get(k))
    .sum();
    let driver_s = if spans.get("bench.fig12_s") > 0.0 {
        spans.get("bench.fig12_s") - cells
    } else {
        0.0
    };
    vec![
        ("graph.generate_s", setup.get("graph.generate_s"), "s"),
        ("graph.materialize_s", spans.get("graph.materialize_s"), "s"),
        ("model.acomb_s", acomb_s, "s"),
        (
            "model.acomb_products",
            counts.acomb_products as f64,
            "count",
        ),
        (
            "model.delta_ac_nnz",
            ratio(counts.delta_ac_nnz as f64, counts.acomb_calls as f64),
            "count",
        ),
        (
            "model.acomb_mflops",
            ratio(counts.acomb_ops as f64 / 1e6, acomb_s),
            "Mop/s",
        ),
        ("model.powercache_hits", counts.cache[0] as f64, "count"),
        ("model.powercache_misses", counts.cache[1] as f64, "count"),
        ("model.powercache_patches", counts.cache[2] as f64, "count"),
        (
            "model.powercache_hit_ratio",
            ratio(counts.cache[0] as f64, lookups as f64),
            "ratio",
        ),
        ("core.diu_s", spans.get("core.diu_s"), "s"),
        ("model.ag_s", spans.get("model.ag_s"), "s"),
        ("model.cb_s", spans.get("model.cb_s"), "s"),
        ("model.rnn_s", spans.get("model.rnn_s"), "s"),
        ("model.recompute_s", spans.get("model.recompute_s"), "s"),
        ("model.incremental_s", spans.get("model.incremental_s"), "s"),
        ("baselines.ready_s", spans.get("baselines.ready_s"), "s"),
        ("baselines.booster_s", spans.get("baselines.booster_s"), "s"),
        ("baselines.race_s", spans.get("baselines.race_s"), "s"),
        (
            "model.refresh_ratio",
            ratio(counts.refreshed as f64, counts.transitions as f64),
            "ratio",
        ),
        ("model.exec_s", exec_s, "s"),
        (
            "core.sim_self_s",
            spans.get("core.simulate_s") - exec_s,
            "s",
        ),
        ("bench.driver_s", driver_s, "s"),
        (
            "sparse.pool_hit_ratio",
            ratio(pool.0 as f64, (pool.0 + pool.1) as f64),
            "ratio",
        ),
        ("model.ops", counts.ops as f64, "count"),
        ("core.sim_cycles", counts.cycles, "cycles"),
        ("model.drift_max_abs", f64::from(counts.drift), "abs"),
        ("trace.coverage", ratio(phases, exec_s), "ratio"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
}

/// Whether the replay reproduced the executor's hidden state.
pub fn replay_ok(counts: &Counts) -> bool {
    counts.replay_gap <= REPLAY_TOLERANCE
}
