//! Fig. 17: scalability of the I-DGNN architecture with the PE count scaled
//! 32 → 4096 at fixed frequency and off-chip bandwidth. The paper observes
//! near-linear speedup up to 512 PEs, then ~1.4× per doubling as the memory
//! bandwidth wall appears.

use idgnn_core::{IdgnnAccelerator, SimOptions};
use serde::Serialize;

use crate::context::{Context, Result};
use crate::driver;
use crate::report::table;

/// The swept PE grids (count = rows × cols).
pub const GRIDS: [(usize, usize); 8] =
    [(8, 4), (8, 8), (16, 8), (16, 16), (32, 16), (32, 32), (64, 32), (64, 64)];

/// One dataset's scaling curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig17Row {
    /// Dataset short code.
    pub dataset: String,
    /// Cycles at each PE count, [`GRIDS`] order.
    pub cycles: Vec<f64>,
    /// Speedup relative to the 32-PE point.
    pub speedup: Vec<f64>,
}

/// The Fig. 17 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig17 {
    /// PE counts swept.
    pub pe_counts: Vec<usize>,
    /// One row per dataset (executed, scaled).
    pub rows: Vec<Fig17Row>,
    /// Full-size analytical speedups per dataset: compute shrinks with the
    /// PE count while the off-chip volume is fixed, so
    /// `T(M) = max(ops / (M·16·f_util), DRAM_cycles)` — the paper's
    /// bandwidth-wall model at Table-I scale with `C = R = 256`.
    pub analytical_rows: Vec<Fig17Row>,
}

/// Runs the sweep. Buffer capacities and DRAM bandwidth stay at the
/// context's (scaled) values while only the PE grid changes — exactly the
/// paper's setup ("running at the same frequency with different PE counts…
/// the off-chip memory bandwidth limits the performance").
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(ctx: &Context) -> Result<Fig17> {
    let pe_counts: Vec<usize> = GRIDS.iter().map(|(r, c)| r * c).collect();
    // Grid: (dataset × PE grid) cells, fanned out in declared order.
    let cells: Vec<(usize, (usize, usize))> = ctx
        .workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| GRIDS.iter().map(move |&grid| (wi, grid)))
        .collect();
    let grid_cycles = driver::run_cells(ctx.parallelism, &cells, |_, &(wi, (r, c))| {
        let w = &ctx.workloads[wi];
        let accel = IdgnnAccelerator::new(ctx.config.with_pe_grid(r, c))?;
        Ok(accel.simulate(&w.model, &w.graph, &SimOptions::default())?.total_cycles)
    })?;

    let mut rows = Vec::new();
    let mut analytical_rows = Vec::new();
    let full = idgnn_hw::AcceleratorConfig::paper_default();
    let full_mem = idgnn_model::MemoryModel::paper_default();
    for (wi, w) in ctx.workloads.iter().enumerate() {
        let cycles: Vec<f64> = grid_cycles[wi * GRIDS.len()..(wi + 1) * GRIDS.len()].to_vec();
        let base = cycles[0].max(1e-9);
        let speedup = cycles.iter().map(|&cy| base / cy.max(1e-9)).collect();
        rows.push(Fig17Row { dataset: w.spec.short.to_string(), cycles, speedup });

        // Full-size analytical companion: ops and DRAM bytes from the
        // paper-model estimator, bandwidth fixed at the paper's budget.
        let spec = idgnn_model::estimate::WorkloadSpec::from_dataset(
            &w.spec,
            256,
            ctx.dims.gnn_layers,
            256,
            ctx.stream.dissimilarity,
            ctx.snapshots,
        );
        let (ops, dram) = idgnn_model::estimate::estimate_totals(
            idgnn_model::Algorithm::OnePass,
            &spec,
            &full_mem,
        );
        let dram_cycles = dram.total() as f64 / full.dram_bytes_per_cycle();
        let mut a_cycles = Vec::with_capacity(pe_counts.len());
        for &m in &pe_counts {
            let compute = ops.mults as f64 / (m as f64 * full.macs_per_pe as f64 * 0.85);
            a_cycles.push(compute.max(dram_cycles));
        }
        let a_base = a_cycles[0].max(1e-9);
        let a_speedup = a_cycles.iter().map(|&cy| a_base / cy.max(1e-9)).collect();
        analytical_rows.push(Fig17Row {
            dataset: w.spec.short.to_string(),
            cycles: a_cycles,
            speedup: a_speedup,
        });
    }
    Ok(Fig17 { pe_counts, rows, analytical_rows })
}

impl std::fmt::Display for Fig17 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let headers: Vec<String> = std::iter::once("dataset".to_string())
            .chain(self.pe_counts.iter().map(|p| format!("{p} PEs")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                std::iter::once(r.dataset.clone())
                    .chain(r.speedup.iter().map(|s| format!("{s:.2}x")))
                    .collect()
            })
            .collect();
        writeln!(
            f,
            "{}",
            table("Fig. 17 — PE scaling, executed scaled runs (speedup vs 32 PEs)", &header_refs, &rows)
        )?;
        let a_rows: Vec<Vec<String>> = self
            .analytical_rows
            .iter()
            .map(|r| {
                std::iter::once(r.dataset.clone())
                    .chain(r.speedup.iter().map(|s| format!("{s:.2}x")))
                    .collect()
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                "Fig. 17 — PE scaling, analytical full-size (paper-model ops/BW only; predicts a far later wall than the paper's 512 PEs — the executed table above, with a proportionally scaled memory system, shows the saturating shape)",
                &header_refs,
                &a_rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn speedup_is_monotone_and_saturating() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.pe_counts, vec![32, 64, 128, 256, 512, 1024, 2048, 4096]);
        for r in &fig.rows {
            // Monotone non-decreasing speedup.
            for w in r.speedup.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "{}: {:?}", r.dataset, r.speedup);
            }
            // Saturation: the last doubling gains less than the first.
            let first_gain = r.speedup[1] / r.speedup[0];
            let last_gain = r.speedup[7] / r.speedup[6];
            assert!(
                last_gain <= first_gain + 1e-9,
                "{}: first {first_gain}, last {last_gain}",
                r.dataset
            );
        }
    }
}
