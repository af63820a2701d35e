//! Fig. 15: sensitivity to the dissimilarity proportion between consecutive
//! snapshots (0 % → 15 %, Wikipedia). Baseline execution time is normalized
//! to I-DGNN at the same dissimilarity; the paper reports 78.5 %, 61.5 % and
//! 56.7 % reductions and notes the I-DGNN advantage *shrinks* as
//! dissimilarity grows.

use idgnn_graph::generate::StreamConfig;
use serde::Serialize;

use crate::context::{Context, Result};
use crate::driver;
use crate::report::table;

/// The swept dissimilarity proportions.
pub const SWEEP: [f64; 5] = [0.0, 0.025, 0.05, 0.10, 0.15];

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Row {
    /// Dissimilarity proportion.
    pub dissimilarity: f64,
    /// Absolute I-DGNN cycles.
    pub idgnn_cycles: f64,
    /// Baseline cycles normalized to I-DGNN (ReaDy, Booster, RACE).
    pub normalized: [f64; 3],
}

/// The Fig. 15 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15 {
    /// One row per sweep point.
    pub rows: Vec<Fig15Row>,
}

/// Runs the sweep on the WD dataset.
///
/// # Errors
///
/// Propagates generation/simulation errors.
pub fn run(ctx: &Context) -> Result<Fig15> {
    let spec = ctx.workload("WD").spec;
    let scale = if ctx.workloads[0].graph.initial().num_edges() <= 2_000 {
        crate::context::ExperimentScale::Quick
    } else {
        crate::context::ExperimentScale::Standard
    };
    // One cell per sweep point: each worker builds its own workload and runs
    // all four accelerators, so nothing is shared across cells.
    let rows = driver::run_cells(ctx.parallelism, &SWEEP, |_, &d| {
        let stream = StreamConfig { dissimilarity: d, ..ctx.stream };
        let w = Context::build_workload(&spec, scale, &stream, ctx.dims, 41)?;
        let cycles = ctx.run_accelerators(&w)?.map(|r| r.total_cycles);
        let base = cycles[0].max(1e-9);
        Ok(Fig15Row {
            dissimilarity: d,
            idgnn_cycles: cycles[0],
            normalized: [cycles[1] / base, cycles[2] / base, cycles[3] / base],
        })
    })?;
    Ok(Fig15 { rows })
}

impl std::fmt::Display for Fig15 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}%", r.dissimilarity * 100.0),
                    format!("{:.0}", r.idgnn_cycles),
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
                "Fig. 15 — dissimilarity sweep on WD (baselines normalized to I-DGNN)",
                &["dissim", "I-DGNN cyc", "ReaDy", "Booster", "RACE"],
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
    fn idgnn_wins_across_the_sweep_and_gains_shrink() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), SWEEP.len());
        for r in &fig.rows {
            // The recompute baselines lose at every δ; RACE is reported
            // without a direction claim at high δ (documented crossover).
            for (b, n) in r.normalized.iter().take(2).enumerate() {
                assert!(*n > 1.0, "δ={}: baseline {b} normalized {n}", r.dissimilarity);
            }
            assert!(r.normalized[2] > 1.0 || r.dissimilarity >= 0.05);
        }
        // The advantage over the recompute baselines shrinks as
        // dissimilarity rises (their cost is δ-independent while I-DGNN's
        // grows) — the paper's §VI-F observation. RACE's own cost grows
        // with δ too, so that column is reported without a direction claim.
        for b in 0..2 {
            let first = fig.rows.first().unwrap().normalized[b];
            let last = fig.rows.last().unwrap().normalized[b];
            assert!(last < first, "baseline {b} gap should shrink: {first} -> {last}");
        }
        // I-DGNN's own cycles grow with dissimilarity.
        assert!(fig.rows.last().unwrap().idgnn_cycles > fig.rows[0].idgnn_cycles);
    }
}
