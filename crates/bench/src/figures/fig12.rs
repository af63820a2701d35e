//! Fig. 12: end-to-end execution cycles — I-DGNN vs ReaDy, DGNN-Booster and
//! RACE at iso-resources. The paper reports average execution-time
//! reductions of 65.9 %, 71.1 % and 58.8 %, with per-dataset speedups of
//! 2.8–4.2× (ReaDy), 2.4–4.1× (Booster) and 1.8–5.5× (RACE), the largest
//! RACE gap on PubMed (workload imbalance).

use serde::Serialize;

use crate::context::{Context, Result};
use crate::driver;
use crate::report::{mean, reduction_pct, table};

/// Cycle counts of the four accelerators on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Row {
    /// Dataset short code.
    pub dataset: String,
    /// Cycles per accelerator, in [`ACCELERATORS`](crate::context::ACCELERATORS)
    /// order.
    pub cycles: [f64; 4],
    /// I-DGNN speedup over each baseline (ReaDy, Booster, RACE).
    pub speedups: [f64; 3],
}

/// The Fig. 12 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// Per-dataset rows.
    pub rows: Vec<Fig12Row>,
    /// Mean execution-time reduction vs (ReaDy, Booster, RACE), %.
    pub mean_reductions: [f64; 3],
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(ctx: &Context) -> Result<Fig12> {
    // One cell per dataset: `run_accelerators` executes each algorithm once
    // and times all four accelerators; the driver fans the cells across
    // workers and hands back results in declared order.
    let grid = driver::run_cells(ctx.parallelism, &ctx.workloads, |_, w| {
        Ok(ctx.run_accelerators(w)?.map(|r| r.total_cycles))
    })?;

    let mut rows = Vec::new();
    let mut reds = [Vec::new(), Vec::new(), Vec::new()];
    for (w, cycles) in ctx.workloads.iter().zip(grid) {
        let mut speedups = [0.0f64; 3];
        for b in 0..3 {
            // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
            speedups[b] = cycles[b + 1] / cycles[0].max(1e-9);
            // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
            reds[b].push(reduction_pct(cycles[0], cycles[b + 1]));
        }
        rows.push(Fig12Row { dataset: w.spec.short.to_string(), cycles, speedups });
    }
    Ok(Fig12 {
        rows,
        // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
        mean_reductions: [mean(&reds[0]), mean(&reds[1]), mean(&reds[2])],
    })
}

impl Fig12 {
    /// The row for a dataset, if present.
    pub fn row(&self, dataset: &str) -> Option<&Fig12Row> {
        self.rows.iter().find(|r| r.dataset == dataset)
    }
}

impl std::fmt::Display for Fig12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    format!("{:.0}", r.cycles[0]),
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    format!("{:.0}", r.cycles[1]),
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    format!("{:.0}", r.cycles[2]),
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    format!("{:.0}", r.cycles[3]),
                    // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
                    format!("{:.2}x/{:.2}x/{:.2}x", r.speedups[0], r.speedups[1], r.speedups[2]),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Fig. 12 — execution cycles (I-DGNN vs baselines)",
                &["dataset", "I-DGNN", "ReaDy", "Booster", "RACE", "speedup (Re/Bo/RA)"],
                &rows,
            )
        )?;
        writeln!(
            f,
            "mean time reduction: {:.1}% vs ReaDy, {:.1}% vs DGNN-Booster, {:.1}% vs RACE (paper: 65.9%, 71.1%, 58.8%)",
            // lint: allow(panic-surface) -- bench-only table/row indexing; fail-fast on malformed data is intended here
            self.mean_reductions[0], self.mean_reductions[1], self.mean_reductions[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn idgnn_wins_on_every_dataset() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            for (b, s) in r.speedups.iter().enumerate() {
                assert!(*s > 1.0, "{}: baseline {b} speedup {s}", r.dataset);
            }
        }
        for red in fig.mean_reductions {
            assert!(red > 0.0);
        }
    }
}
