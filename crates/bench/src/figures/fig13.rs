//! Fig. 13: the three execution algorithms on the *same* hardware (the
//! I-DGNN architecture) — isolating the algorithmic contribution. The paper
//! reports 58.9 % and 44.6 % average execution-time reductions of the
//! proposed algorithm vs the recompute and incremental algorithms.

use idgnn_core::SimOptions;
use idgnn_model::{Algorithm, ALL_ALGORITHMS};
use serde::Serialize;

use crate::context::{Context, Result};
use crate::driver;
use crate::report::{mean, reduction_pct, table};

/// Normalized execution time of each algorithm on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    /// Dataset short code.
    pub dataset: String,
    /// Cycles per algorithm in [`ALL_ALGORITHMS`] order (Re, Inc, P).
    pub cycles: [f64; 3],
    /// Cycles normalized to Re-Algorithm.
    pub normalized: [f64; 3],
}

/// The Fig. 13 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// Per-dataset rows.
    pub rows: Vec<Fig13Row>,
    /// Mean time reduction of P-Algorithm vs (Re, Inc), %.
    pub mean_reductions: [f64; 2],
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(ctx: &Context) -> Result<Fig13> {
    // Grid: (dataset × algorithm) cells, fanned out in declared order.
    let cells: Vec<(usize, Algorithm)> = ctx
        .workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| ALL_ALGORITHMS.iter().map(move |&alg| (wi, alg)))
        .collect();
    let grid_cycles = driver::run_cells(ctx.parallelism, &cells, |_, &(wi, alg)| {
        let opts = SimOptions { algorithm: Some(alg), ..Default::default() };
        Ok(ctx.run_idgnn(&ctx.workloads[wi], &opts)?.total_cycles)
    })?;

    let mut rows = Vec::new();
    let mut red_re = Vec::new();
    let mut red_inc = Vec::new();
    for (wi, w) in ctx.workloads.iter().enumerate() {
        let mut cycles = [0.0f64; 3];
        cycles.copy_from_slice(
            &grid_cycles[wi * ALL_ALGORITHMS.len()..(wi + 1) * ALL_ALGORITHMS.len()],
        );
        let re = cycles[0].max(1e-9);
        rows.push(Fig13Row {
            dataset: w.spec.short.to_string(),
            cycles,
            normalized: [1.0, cycles[1] / re, cycles[2] / re],
        });
        red_re.push(reduction_pct(cycles[2], cycles[0]));
        red_inc.push(reduction_pct(cycles[2], cycles[1]));
    }
    Ok(Fig13 { rows, mean_reductions: [mean(&red_re), mean(&red_inc)] })
}

impl Fig13 {
    /// Normalized time of one algorithm on one dataset.
    pub fn normalized_of(&self, dataset: &str, algorithm: Algorithm) -> Option<f64> {
        let idx = ALL_ALGORITHMS.iter().position(|a| *a == algorithm)?;
        self.rows.iter().find(|r| r.dataset == dataset).map(|r| r.normalized[idx])
    }
}

impl std::fmt::Display for Fig13 {
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
        writeln!(
            f,
            "{}",
            table(
                "Fig. 13 — normalized execution time, same hardware",
                &["dataset", "Re-Algorithm", "Inc-Algorithm", "P-Algorithm"],
                &rows,
            )
        )?;
        writeln!(
            f,
            "P-Algorithm time reduction: {:.1}% vs Re, {:.1}% vs Inc (paper: 58.9%, 44.6%)",
            self.mean_reductions[0], self.mean_reductions[1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn proposed_algorithm_fastest_on_same_hardware() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        for r in &fig.rows {
            assert!(r.normalized[2] < 1.0, "{}: P not faster than Re", r.dataset);
            assert!(
                r.normalized[2] < r.normalized[1],
                "{}: P {} !< Inc {}",
                r.dataset,
                r.normalized[2],
                r.normalized[1]
            );
        }
        assert!(fig.mean_reductions[0] > 0.0);
        assert!(fig.mean_reductions[1] > 0.0);
    }
}
