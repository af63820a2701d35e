//! Plain-text table formatting and normalization helpers shared by the
//! figure harnesses, plus the wall-clock timing sidecar.

use serde::Serialize;

/// Host wall-clock timing of one experiment run.
///
/// Timing lives in this *sidecar* — never inside a figure's own result
/// struct — so the figure JSON stays byte-identical across parallelism
/// settings (the serial-equivalence tests compare it directly).
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentTiming {
    /// Experiment name (e.g. `"fig12"`).
    pub experiment: String,
    /// Host wall-clock time of the run, milliseconds.
    pub wall_ms: f64,
    /// Driver worker count the run used.
    pub parallelism: usize,
}

/// Wall-clock timings of a whole evaluation sweep
/// (written to `results/timings.json` by the `all` binary).
#[derive(Debug, Clone, Serialize)]
pub struct TimingReport {
    /// Driver worker count of the sweep.
    pub parallelism: usize,
    /// Sum of the per-experiment wall times, milliseconds.
    pub total_wall_ms: f64,
    /// Per-experiment timings, in run order.
    pub experiments: Vec<ExperimentTiming>,
}

impl TimingReport {
    /// Assembles the report from per-experiment timings.
    pub fn new(parallelism: usize, experiments: Vec<ExperimentTiming>) -> Self {
        let total_wall_ms = experiments.iter().map(|t| t.wall_ms).sum();
        Self { parallelism, total_wall_ms, experiments }
    }
}

/// Per-snapshot one-pass execution accounting — the sidecar the `timeline`
/// and `breakdown` diagnostics write under `results/`.
///
/// Until now [`idgnn_model::SnapshotCost::saved`] was computed by the
/// executor and dropped on the floor by every reporting path; this surfaces
/// the avoided work (the Eq. 15 transpose substitutions) next to the
/// executed op counts it was excluded from.
#[derive(Debug, Clone, Serialize)]
pub struct ExecAccounting {
    /// Dataset short code.
    pub dataset: String,
    /// Per-snapshot executed/avoided work, in stream order.
    pub snapshots: Vec<SnapshotWork>,
    /// Sum of `saved_mults` across snapshots.
    pub total_saved_mults: u64,
    /// Sum of `saved_adds` across snapshots.
    pub total_saved_adds: u64,
}

/// One snapshot's executed and avoided work.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotWork {
    /// Snapshot index in the stream.
    pub snapshot: usize,
    /// Executed multiplies (all phases).
    pub mults: u64,
    /// Executed additions (all phases).
    pub adds: u64,
    /// DRAM bytes moved (all phases, both directions).
    pub dram_bytes: u64,
    /// Multiplies avoided by reuse (already excluded from `mults`).
    pub saved_mults: u64,
    /// Additions avoided by reuse (already excluded from `adds`).
    pub saved_adds: u64,
}

impl ExecAccounting {
    /// Builds the accounting from an execution result.
    // lint: opstats-sink
    pub fn from_result(dataset: &str, r: &idgnn_model::ExecutionResult) -> Self {
        let snapshots: Vec<SnapshotWork> = r
            .costs
            .iter()
            .enumerate()
            .map(|(t, c)| {
                let ops = c.total_ops();
                SnapshotWork {
                    snapshot: t,
                    mults: ops.mults,
                    adds: ops.adds,
                    dram_bytes: c.total_dram().total(),
                    saved_mults: c.saved.mults,
                    saved_adds: c.saved.adds,
                }
            })
            .collect();
        let total_saved_mults = snapshots.iter().map(|s| s.saved_mults).sum();
        let total_saved_adds = snapshots.iter().map(|s| s.saved_adds).sum();
        Self { dataset: dataset.to_string(), snapshots, total_saved_mults, total_saved_adds }
    }

    /// Writes the accounting to `results/{name}_{dataset}.json` (creating
    /// `results/` if needed) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        // lint: allow(panic-surface) -- the vendored serde_json serializer never returns Err
        let json = serde_json::to_string_pretty(self).expect("accounting serializes");
        let path = std::path::Path::new("results")
            .join(format!("{name}_{}.json", self.dataset.to_ascii_lowercase()));
        std::fs::create_dir_all("results")?;
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Formats a text table with a header row.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// `value / baseline`, guarding division by zero.
pub fn normalized(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

/// Percent reduction of `ours` relative to `theirs`
/// (`(theirs − ours) / theirs × 100`).
pub fn reduction_pct(ours: f64, theirs: f64) -> f64 {
    if theirs == 0.0 {
        0.0
    } else {
        (theirs - ours) / theirs * 100.0
    }
}

/// Geometric mean of positive values (`0.0` for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (`0.0` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Formats a count with thousands separators.
pub fn human(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            "Demo",
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn normalization_helpers() {
        assert_eq!(normalized(2.0, 4.0), 0.5);
        assert_eq!(normalized(2.0, 0.0), 0.0);
        assert!((reduction_pct(35.0, 100.0) - 65.0).abs() < 1e-12);
        assert_eq!(reduction_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(1234567), "1,234,567");
        assert_eq!(human(12), "12");
        assert_eq!(human(0), "0");
    }

    #[test]
    fn exec_accounting_surfaces_saved_work() {
        use crate::context::{Context, ExperimentScale};
        let ctx = Context::new(ExperimentScale::Quick, 7).unwrap();
        let w = ctx.workload("PM");
        let r = ctx.run_algorithm(idgnn_model::Algorithm::OnePass, w).unwrap();
        let acct = ExecAccounting::from_result("PM", &r);
        assert_eq!(acct.snapshots.len(), r.costs.len());
        assert_eq!(
            acct.total_saved_mults,
            r.costs.iter().map(|c| c.saved.mults).sum::<u64>()
        );
        // The default strategy substitutes transposes for two of the Eq. 13
        // term products per delta, so avoided work is always visible here.
        assert!(acct.total_saved_mults > 0, "one-pass runs must report reused work");
        let json = serde_json::to_string_pretty(&acct).unwrap();
        assert!(json.contains("\"saved_mults\""));
        assert!(json.contains("\"total_saved_adds\""));
    }
}
