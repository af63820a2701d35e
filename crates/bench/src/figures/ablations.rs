//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! * **D1** — transpose-optimized `ΔA_C` evaluation (Eq. 15) vs the naive
//!   chained expansion (Eq. 13);
//! * **D2** — the analytical pipeline scheduler vs a static 50/50 MAC split,
//!   and the Fig. 8 pipeline overlap vs serial execution;
//! * **D3** — the torus-rotation dataflow vs broadcast duplication.
//!
//! (D4 — the one-pass algorithm vs baselines on the same hardware — is
//! Fig. 13 itself.)

use idgnn_core::{DataflowPolicy, SchedulerPolicy, SimOptions};
use idgnn_model::DissimilarityStrategy;
use serde::Serialize;

use crate::context::{Context, Result};
use crate::report::table;

/// One ablation outcome on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Dataset short code.
    pub dataset: String,
    /// D1: AComb multiply count with the general expansion.
    pub acomb_ops_general: u64,
    /// D1: AComb multiply count with the transpose optimization.
    pub acomb_ops_optimized: u64,
    /// D2: cycles with the analytical scheduler.
    pub cycles_analytical: f64,
    /// D2: cycles with a static 50/50 split.
    pub cycles_even: f64,
    /// D2: cycles without pipeline overlap.
    pub cycles_serial: f64,
    /// D3: cycles with the rotation dataflow.
    pub cycles_rotation: f64,
    /// D3: cycles with broadcast duplication.
    pub cycles_broadcast: f64,
}

/// The full ablation suite.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// One row per dataset.
    pub rows: Vec<AblationRow>,
}

/// Runs all ablations.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(ctx: &Context) -> Result<Ablations> {
    let mut rows = Vec::new();
    for w in &ctx.workloads {
        // D1: exact multiply counts of the ΔA_C kernel itself under both
        // strategies, summed over every snapshot transition.
        let snaps = w.graph.materialize()?;
        let norm = w.model.normalization();
        let acomb = |strategy: DissimilarityStrategy| -> Result<u64> {
            let mut total = 0u64;
            for t in 1..snaps.len() {
                let a_prev = norm.apply(snaps[t - 1].adjacency());
                let a_next = norm.apply(snaps[t].adjacency());
                let delta =
                    idgnn_sparse::ops::sp_sub(&a_next, &a_prev).map_err(idgnn_model::ModelError::from)?.pruned(0.0);
                let dis = idgnn_model::onepass::fused_dissimilarity(
                    &a_prev,
                    &delta,
                    ctx.dims.gnn_layers as u32,
                    strategy,
                )?;
                total += dis.ops.mults;
            }
            Ok(total)
        };
        let acomb_general = acomb(DissimilarityStrategy::General)?;
        let acomb_optimized = acomb(DissimilarityStrategy::TransposeOptimized)?;

        // D2 + D3: full-system cycles under each policy.
        let cycles = |opts: SimOptions| -> Result<f64> {
            Ok(ctx.run_idgnn(w, &opts)?.total_cycles)
        };
        let analytical = cycles(SimOptions::default())?;
        let even = cycles(SimOptions { scheduler: SchedulerPolicy::Even, ..Default::default() })?;
        let serial = cycles(SimOptions { disable_pipeline: true, ..Default::default() })?;
        let broadcast =
            cycles(SimOptions { dataflow: DataflowPolicy::Broadcast, ..Default::default() })?;

        rows.push(AblationRow {
            dataset: w.spec.short.to_string(),
            acomb_ops_general: acomb_general,
            acomb_ops_optimized: acomb_optimized,
            cycles_analytical: analytical,
            cycles_even: even,
            cycles_serial: serial,
            cycles_rotation: analytical,
            cycles_broadcast: broadcast,
        });
    }
    Ok(Ablations { rows })
}

impl std::fmt::Display for Ablations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!(
                        "{:.2}x",
                        r.acomb_ops_general as f64 / r.acomb_ops_optimized.max(1) as f64
                    ),
                    format!("{:.2}x", r.cycles_even / r.cycles_analytical.max(1e-9)),
                    format!("{:.2}x", r.cycles_serial / r.cycles_analytical.max(1e-9)),
                    format!("{:.2}x", r.cycles_broadcast / r.cycles_rotation.max(1e-9)),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                "Ablations — slowdown without each design choice",
                &["dataset", "D1 no-transpose", "D2 even-split", "D2 no-pipeline", "D3 broadcast"],
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
    fn every_design_choice_helps() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let ab = run(&ctx).unwrap();
        assert_eq!(ab.rows.len(), 6);
        // The transpose optimization wins wherever the delta stays sparse
        // relative to the graph; the synthetic PubMed stand-in saturates to
        // a (near-)complete graph at bench scale, where the orderings tie.
        let wins = ab
            .rows
            .iter()
            .filter(|r| r.acomb_ops_optimized < r.acomb_ops_general)
            .count();
        assert!(wins >= 4, "transpose optimization won on only {wins}/6 datasets");
        for r in &ab.rows {
            assert!(r.cycles_analytical <= r.cycles_even * 1.02, "{}", r.dataset);
            assert!(r.cycles_analytical <= r.cycles_serial + 1e-6, "{}", r.dataset);
            assert!(r.cycles_rotation < r.cycles_broadcast, "{}", r.dataset);
        }
    }
}
