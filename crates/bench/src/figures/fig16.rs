//! Fig. 16: sensitivity to the addition/deletion mix of the evolving edges
//! (75/25 → 25/75) on the I-DGNN accelerator. The paper: "the deletion
//! operation is fairly time-consuming, and performing more deletions will
//! lead to an increase in the total execution time".

use idgnn_core::SimOptions;
use idgnn_graph::generate::StreamConfig;
use serde::Serialize;

use crate::context::{Context, Result};
use crate::driver;
use crate::report::table;

/// The swept addition fractions (75/25, 50/50, 25/75).
pub const SWEEP: [f64; 3] = [0.75, 0.50, 0.25];

/// One dataset's sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig16Row {
    /// Dataset short code.
    pub dataset: String,
    /// I-DGNN cycles at each addition fraction, [`SWEEP`] order.
    pub cycles: [f64; 3],
    /// Cycles normalized to the 75/25 mix.
    pub normalized: [f64; 3],
}

/// The Fig. 16 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig16 {
    /// One row per dataset.
    pub rows: Vec<Fig16Row>,
}

/// Runs the sweep.
///
/// # Errors
///
/// Propagates generation/simulation errors.
pub fn run(ctx: &Context) -> Result<Fig16> {
    let scale = if ctx.workloads[0].graph.initial().num_edges() <= 2_000 {
        crate::context::ExperimentScale::Quick
    } else {
        crate::context::ExperimentScale::Standard
    };
    // Grid: (dataset × addition-fraction) cells, fanned out in declared
    // order; each cell generates its own sweep workload.
    let cells: Vec<(usize, f64)> = ctx
        .workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| SWEEP.iter().map(move |&add| (wi, add)))
        .collect();
    let grid_cycles = driver::run_cells(ctx.parallelism, &cells, |_, &(wi, add)| {
        let stream = StreamConfig {
            addition_fraction: add,
            dissimilarity: 0.08,
            ..ctx.stream
        };
        let sweep_w = Context::build_workload(&ctx.workloads[wi].spec, scale, &stream, ctx.dims, 61)?;
        Ok(ctx.run_idgnn(&sweep_w, &SimOptions::default())?.total_cycles)
    })?;

    let mut rows = Vec::new();
    for (wi, w) in ctx.workloads.iter().enumerate() {
        let mut cycles = [0.0f64; 3];
        cycles.copy_from_slice(&grid_cycles[wi * SWEEP.len()..(wi + 1) * SWEEP.len()]);
        let base = cycles[0].max(1e-9);
        rows.push(Fig16Row {
            dataset: w.spec.short.to_string(),
            cycles,
            normalized: [1.0, cycles[1] / base, cycles[2] / base],
        });
    }
    Ok(Fig16 { rows })
}

impl std::fmt::Display for Fig16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!("{:.2}", r.normalized[0]),
                    format!("{:.2}", r.normalized[1]),
                    format!("{:.2}", r.normalized[2]),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                "Fig. 16 — addition/deletion mix sweep (normalized to 75%/25%)",
                &["dataset", "75/25", "50/50", "25/75"],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn deletion_heavy_mix_is_slower() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 6);
        let slower = fig
            .rows
            .iter()
            .filter(|r| r.normalized[2] > r.normalized[0])
            .count();
        // Deletion-heavy should be slower on (at least most of) the datasets.
        assert!(slower >= 4, "only {slower}/6 datasets slower at 25/75");
    }
}
