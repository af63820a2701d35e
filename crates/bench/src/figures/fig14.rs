//! Fig. 14: normalized energy-consumption breakdown — computation, on-chip
//! communication, off-chip communication, control & configuration — for the
//! four accelerators, normalized to I-DGNN's total. The paper reports
//! average energy reductions of 88.4 %, 87.0 % and 85.9 %, with control
//! energy below 3 % of the total.

use idgnn_hw::EnergyModel;
use idgnn_model::estimate::{estimate_totals, WorkloadSpec};
use idgnn_model::{Algorithm, MemoryModel};
use serde::Serialize;

use crate::context::{Context, Result, ACCELERATORS};
use crate::driver;
use crate::report::{mean, reduction_pct, table};

/// Energy breakdown of one accelerator on one dataset, normalized to
/// I-DGNN's total on the same dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14Row {
    /// Dataset short code.
    pub dataset: String,
    /// Accelerator name.
    pub accelerator: String,
    /// Compute energy (normalized).
    pub compute: f64,
    /// On-chip communication energy (normalized).
    pub onchip: f64,
    /// Off-chip communication energy (normalized).
    pub offchip: f64,
    /// Control & configuration energy (normalized).
    pub control: f64,
}

impl Fig14Row {
    /// Normalized total.
    pub fn total(&self) -> f64 {
        self.compute + self.onchip + self.offchip + self.control
    }
}

/// The Fig. 14 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14 {
    /// Rows: datasets × 4 accelerators.
    pub rows: Vec<Fig14Row>,
    /// Mean energy reduction vs (ReaDy, Booster, RACE), %, from the executed
    /// scaled runs.
    pub mean_reductions: [f64; 3],
    /// Full-size analytical energy reductions vs (Re-, Re-, Inc-paradigm)
    /// accelerators, %: ops/traffic from the paper-model estimator
    /// (Eqs. 18–22) at Table-I scale with C = R = 256, priced with the 45 nm
    /// energy table. At full size the DRAM-resident intermediates dominate,
    /// which is where the paper's ~86–88 % reductions come from.
    pub estimated_reductions: [f64; 3],
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(ctx: &Context) -> Result<Fig14> {
    // One cell per dataset: `run_accelerators` walks the stream once,
    // executes each algorithm once on that walk and times all four
    // accelerators, in declared order.
    let grid = driver::run_cells(ctx.parallelism, &ctx.workloads, |_, w| ctx.run_accelerators(w))?;

    let mut rows = Vec::new();
    let mut reds = [Vec::new(), Vec::new(), Vec::new()];
    for (w, reports) in ctx.workloads.iter().zip(&grid) {
        let base = reports[0].energy.total_pj().max(1e-9);
        for (i, (name, report)) in ACCELERATORS.iter().zip(reports).enumerate() {
            let e = &report.energy;
            rows.push(Fig14Row {
                dataset: w.spec.short.to_string(),
                accelerator: name.to_string(),
                compute: e.compute_pj / base,
                onchip: e.onchip_pj / base,
                offchip: e.offchip_pj / base,
                control: e.control_pj / base,
            });
            if i > 0 {
                reds[i - 1].push(reduction_pct(base, e.total_pj()));
            }
        }
    }
    // Full-size analytical companion: energy from the paper-model estimator.
    let energy_model = EnergyModel::tsmc45();
    let full_mem = MemoryModel::paper_default();
    let mut est_reds = [Vec::new(), Vec::new(), Vec::new()];
    for w in &ctx.workloads {
        let spec = WorkloadSpec::from_dataset(
            &w.spec,
            256,
            ctx.dims.gnn_layers,
            256,
            ctx.stream.dissimilarity,
            ctx.snapshots,
        );
        let price = |alg: Algorithm| -> f64 {
            let (ops, dram) = estimate_totals(alg, &spec, &full_mem);
            // On-chip traffic ≈ 12 B per MAC (two reads + one partial write).
            let onchip = ops.mults as f64 * 12.0;
            energy_model.compute_pj(ops)
                + energy_model.onchip_pj(onchip, dram.total() as f64, 0.0)
                + energy_model.offchip_pj(dram.total())
        };
        let ours = price(Algorithm::OnePass);
        let re = price(Algorithm::Recompute);
        let inc = price(Algorithm::Incremental);
        est_reds[0].push(reduction_pct(ours, re));
        est_reds[1].push(reduction_pct(ours, re));
        est_reds[2].push(reduction_pct(ours, inc));
    }
    Ok(Fig14 {
        rows,
        mean_reductions: [mean(&reds[0]), mean(&reds[1]), mean(&reds[2])],
        estimated_reductions: [
            mean(&est_reds[0]),
            mean(&est_reds[1]),
            mean(&est_reds[2]),
        ],
    })
}

impl Fig14 {
    /// The row for a dataset/accelerator pair, if present.
    pub fn row(&self, dataset: &str, accelerator: &str) -> Option<&Fig14Row> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.accelerator == accelerator)
    }
}

impl std::fmt::Display for Fig14 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.accelerator.clone(),
                    format!("{:.2}", r.compute),
                    format!("{:.2}", r.onchip),
                    format!("{:.2}", r.offchip),
                    format!("{:.3}", r.control),
                    format!("{:.2}", r.total()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(
                "Fig. 14 — normalized energy breakdown (I-DGNN total = 1.0)",
                &["dataset", "accelerator", "compute", "on-chip", "off-chip", "control", "total"],
                &rows,
            )
        )?;
        writeln!(
            f,
            "mean energy reduction (executed, scaled): {:.1}% vs ReaDy, {:.1}% vs Booster, {:.1}% vs RACE",
            self.mean_reductions[0], self.mean_reductions[1], self.mean_reductions[2]
        )?;
        writeln!(
            f,
            "mean energy reduction (analytical, full-size): {:.1}% / {:.1}% / {:.1}% (paper: 88.4%, 87.0%, 85.9%)",
            self.estimated_reductions[0],
            self.estimated_reductions[1],
            self.estimated_reductions[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn idgnn_most_energy_efficient_everywhere() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 24);
        for w in &ctx.workloads {
            let ds = w.spec.short;
            let idgnn = fig.row(ds, "I-DGNN").unwrap().total();
            assert!((idgnn - 1.0).abs() < 1e-9);
            for name in &ACCELERATORS[1..] {
                let t = fig.row(ds, name).unwrap().total();
                assert!(t > 1.0, "{ds}/{name}: normalized total {t}");
            }
        }
    }

    #[test]
    fn control_share_stays_below_paper_bound() {
        let ctx = Context::new(ExperimentScale::Quick, 3).unwrap();
        let fig = run(&ctx).unwrap();
        for r in &fig.rows {
            assert!(r.control / r.total() < 0.03, "{}/{}", r.dataset, r.accelerator);
        }
    }
}
