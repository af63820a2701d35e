//! Fig. 11: DRAM access volume per algorithm (weights, adjacency, input,
//! intermediate, output features). The paper reports the proposed algorithm
//! cutting DRAM volume by 73.1 % and 52.9 % on average vs the baselines.

use idgnn_model::{Algorithm, DataClass, ALL_ALGORITHMS, DATA_CLASSES};
use serde::Serialize;

use crate::context::{Context, Result};
use crate::report::{human, mean, reduction_pct, table};

/// DRAM volume of one algorithm on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Row {
    /// Dataset short code.
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Per-class bytes in [`DATA_CLASSES`] order.
    pub class_bytes: [u64; 5],
    /// Total bytes.
    pub total_bytes: u64,
    /// Total normalized to Re-Algorithm on the same dataset.
    pub normalized: f64,
}

/// The Fig. 11 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// Rows: datasets × 3 algorithms.
    pub rows: Vec<Fig11Row>,
    /// Mean DRAM reduction of P-Algorithm vs Re-Algorithm, %.
    pub mean_reduction_vs_re: f64,
    /// Mean DRAM reduction of P-Algorithm vs Inc-Algorithm, %.
    pub mean_reduction_vs_inc: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates execution errors.
pub fn run(ctx: &Context) -> Result<Fig11> {
    let mut rows = Vec::new();
    let mut red_re = Vec::new();
    let mut red_inc = Vec::new();
    for w in &ctx.workloads {
        let mut totals = [0u64; 3];
        for (i, &alg) in ALL_ALGORITHMS.iter().enumerate() {
            let result = ctx.run_algorithm(alg, w)?;
            let t = result.total_dram();
            let mut class_bytes = [0u64; 5];
            for (j, c) in DATA_CLASSES.iter().enumerate() {
                class_bytes[j] = t.of(*c);
            }
            totals[i] = t.total();
            rows.push(Fig11Row {
                dataset: w.spec.short.to_string(),
                algorithm: alg.label().to_string(),
                class_bytes,
                total_bytes: t.total(),
                normalized: 0.0, // filled below
            });
        }
        let re = totals[0].max(1) as f64;
        let n = rows.len();
        for (i, row) in rows[n - 3..].iter_mut().enumerate() {
            row.normalized = totals[i] as f64 / re;
        }
        red_re.push(reduction_pct(totals[2] as f64, totals[0] as f64));
        red_inc.push(reduction_pct(totals[2] as f64, totals[1] as f64));
    }
    Ok(Fig11 {
        rows,
        mean_reduction_vs_re: mean(&red_re),
        mean_reduction_vs_inc: mean(&red_inc),
    })
}

impl Fig11 {
    /// The row of `dataset` / `algorithm`, if present.
    pub fn row(&self, dataset: &str, algorithm: Algorithm) -> Option<&Fig11Row> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.algorithm == algorithm.label())
    }

    /// Fraction of an algorithm's DRAM volume that is intermediate data,
    /// averaged over datasets.
    pub fn mean_intermediate_share(&self, algorithm: Algorithm) -> f64 {
        let shares: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.algorithm == algorithm.label())
            .map(|r| {
                r.class_bytes[DataClass::Intermediate.index()] as f64
                    / r.total_bytes.max(1) as f64
            })
            .collect();
        mean(&shares)
    }
}

impl std::fmt::Display for Fig11 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.dataset.clone(), r.algorithm.clone()];
                cells.extend(r.class_bytes.iter().map(|b| human(*b)));
                cells.push(human(r.total_bytes));
                cells.push(format!("{:.2}", r.normalized));
                cells
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Fig. 11 — DRAM access volume per algorithm (bytes)",
                &["dataset", "algorithm", "weight", "graph", "in-feat", "intermed", "out-feat", "total", "norm"],
                &rows,
            )
        )?;
        writeln!(
            f,
            "P-Algorithm DRAM reduction: {:.1}% vs Re, {:.1}% vs Inc (paper: 73.1%, 52.9%)",
            self.mean_reduction_vs_re, self.mean_reduction_vs_inc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn onepass_moves_least_dram_on_every_dataset() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        for w in &ctx.workloads {
            let ds = w.spec.short;
            let p = fig.row(ds, Algorithm::OnePass).unwrap().total_bytes;
            let re = fig.row(ds, Algorithm::Recompute).unwrap().total_bytes;
            let inc = fig.row(ds, Algorithm::Incremental).unwrap().total_bytes;
            assert!(p < re, "{ds}: P {p} !< Re {re}");
            assert!(p < inc, "{ds}: P {p} !< Inc {inc}");
        }
        assert!(fig.mean_reduction_vs_re > 50.0);
        assert!(fig.mean_reduction_vs_inc > 30.0);
    }

    #[test]
    fn onepass_has_zero_intermediate_class() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.mean_intermediate_share(Algorithm::OnePass), 0.0);
        // RACE's intermediates dominate its DRAM (paper: over 60 %).
        assert!(fig.mean_intermediate_share(Algorithm::Incremental) > 0.4);
    }
}
