//! Fig. 10: arithmetic-operation breakdown per algorithm, split into
//! *essential* operations (the minimum needed for a correct graph update —
//! defined, as in the paper, by the proposed one-pass kernel) and
//! *redundant* operations on top of them.
//!
//! The executed path reports exact counts from the scaled runs; the
//! `estimated` fields mirror the paper's own analytical model (Eqs. 18–22)
//! at full dataset size. EXPERIMENTS.md discusses where the two diverge
//! (fused-operator densification at L = 3, §VI-F of the paper).

use idgnn_model::estimate::{estimate_totals, WorkloadSpec};
use idgnn_model::{Algorithm, MemoryModel, ALL_ALGORITHMS};
use serde::Serialize;

use crate::context::{Context, Result};
use crate::report::{human, mean, reduction_pct, table};

/// Op counts of one algorithm on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Row {
    /// Dataset short code.
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Executed total scalar ops (scaled run).
    pub executed_ops: u64,
    /// Executed ops normalized to Re-Algorithm on the same dataset.
    pub executed_normalized: f64,
    /// Full-size analytical total ops (paper model).
    pub estimated_ops: u64,
    /// Analytical ops normalized to Re-Algorithm.
    pub estimated_normalized: f64,
}

/// The Fig. 10 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// Rows: datasets × 3 algorithms.
    pub rows: Vec<Fig10Row>,
    /// Mean analytical op reduction of P-Algorithm vs Re-Algorithm, %.
    pub mean_reduction_vs_re: f64,
    /// Mean analytical op reduction of P-Algorithm vs Inc-Algorithm, %.
    pub mean_reduction_vs_inc: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates execution errors.
pub fn run(ctx: &Context) -> Result<Fig10> {
    let mut rows = Vec::new();
    let mut red_re = Vec::new();
    let mut red_inc = Vec::new();
    let full_mem = MemoryModel::paper_default();
    for w in &ctx.workloads {
        let executed: Vec<u64> = ALL_ALGORITHMS
            .iter()
            .map(|&alg| ctx.run_algorithm(alg, w).map(|r| r.total_ops().total()))
            .collect::<Result<_>>()?;
        let spec = WorkloadSpec::from_dataset(
            &w.spec,
            256,
            ctx.dims.gnn_layers,
            256,
            ctx.stream.dissimilarity,
            ctx.snapshots,
        );
        let estimated: Vec<u64> = ALL_ALGORITHMS
            .iter()
            .map(|&alg| estimate_totals(alg, &spec, &full_mem).0.total())
            .collect();
        let exec_re = executed[0].max(1) as f64;
        let est_re = estimated[0].max(1) as f64;
        for (i, &alg) in ALL_ALGORITHMS.iter().enumerate() {
            rows.push(Fig10Row {
                dataset: w.spec.short.to_string(),
                algorithm: alg.label().to_string(),
                executed_ops: executed[i],
                executed_normalized: executed[i] as f64 / exec_re,
                estimated_ops: estimated[i],
                estimated_normalized: estimated[i] as f64 / est_re,
            });
        }
        let p = estimated[2] as f64;
        red_re.push(reduction_pct(p, estimated[0] as f64));
        red_inc.push(reduction_pct(p, estimated[1] as f64));
    }
    Ok(Fig10 {
        rows,
        mean_reduction_vs_re: mean(&red_re),
        mean_reduction_vs_inc: mean(&red_inc),
    })
}

impl Fig10 {
    /// Rows of one algorithm.
    pub fn of(&self, algorithm: Algorithm) -> impl Iterator<Item = &Fig10Row> {
        self.rows.iter().filter(move |r| r.algorithm == algorithm.label())
    }
}

impl std::fmt::Display for Fig10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.algorithm.clone(),
                    human(r.executed_ops),
                    format!("{:.2}", r.executed_normalized),
                    human(r.estimated_ops),
                    format!("{:.2}", r.estimated_normalized),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Fig. 10 — arithmetic operations per algorithm",
                &["dataset", "algorithm", "exec ops", "exec norm", "est ops", "est norm"],
                &rows,
            )
        )?;
        writeln!(
            f,
            "analytical P-Algorithm op reduction: {:.1}% vs Re, {:.1}% vs Inc (paper: 65.7%, 33.9%)",
            self.mean_reduction_vs_re, self.mean_reduction_vs_inc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn analytical_shape_matches_paper() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 18);
        // The paper's analytical model shows P < Inc <= Re on every dataset.
        for w in &ctx.workloads {
            let ds = w.spec.short;
            let get = |alg: Algorithm| {
                fig.rows
                    .iter()
                    .find(|r| r.dataset == ds && r.algorithm == alg.label())
                    .unwrap()
                    .estimated_normalized
            };
            assert!(get(Algorithm::OnePass) < get(Algorithm::Recompute), "{ds}");
            assert!(get(Algorithm::Incremental) <= 1.0 + 1e-9, "{ds}");
        }
        assert!(fig.mean_reduction_vs_re > 0.0);
    }

    #[test]
    fn executed_recompute_is_normalization_baseline() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        for r in fig.of(Algorithm::Recompute) {
            assert!((r.executed_normalized - 1.0).abs() < 1e-12);
        }
    }
}
