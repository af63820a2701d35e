//! Dispatch helper shared by the per-figure binaries.
//!
//! Every binary accepts the same environment knobs:
//!
//! * `IDGNN_SCALE=quick|standard` — workload scale (default `standard`);
//! * `IDGNN_SEED=<u64>` — generation seed (default 42);
//! * `IDGNN_PARALLELISM=<n>` — driver/kernel worker threads (default: all
//!   hardware threads; `1` forces the legacy serial path) — overridden by
//!   the `--parallelism <n>` command-line flag.
//!
//! Parallelism only changes host wall-clock time: every figure's text and
//! JSON output is byte-identical across settings.

use idgnn_sparse::{parallel, Parallelism};

use crate::context::{Context, ExperimentScale, Result};
use crate::figures;
use crate::report::ExperimentTiming;

/// Reads the scale/seed knobs from the environment.
// lint: timing-carrier -- reads the documented IDGNN_* knobs once at startup; they select the workload, they do not leak into per-run results
pub fn env_context() -> Result<Context> {
    let scale = match std::env::var("IDGNN_SCALE").as_deref() {
        Ok("quick") | Ok("QUICK") => ExperimentScale::Quick,
        _ => ExperimentScale::Standard,
    };
    let seed = std::env::var("IDGNN_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42);
    Context::new(scale, seed)
}

/// Runs one named experiment and returns `(text report, JSON)`.
///
/// # Errors
///
/// Propagates experiment failures.
///
/// # Panics
///
/// Panics on an unknown experiment name (programming error in a binary).
pub fn run_experiment(name: &str, ctx: &Context) -> Result<(String, String)> {
    macro_rules! go {
        ($result:expr) => {{
            let r = $result?;
            // lint: allow(panic-surface) -- the vendored serde_json serializer never returns Err
            let json = serde_json::to_string_pretty(&r).expect("results serialize");
            Ok((r.to_string(), json))
        }};
    }
    match name {
        "table1" => go!(figures::table1::run(ctx)),
        "fig03" => go!(figures::fig03::run(ctx)),
        "fig10" => go!(figures::fig10::run(ctx)),
        "fig11" => go!(figures::fig11::run(ctx)),
        "fig12" => go!(figures::fig12::run(ctx)),
        "fig13" => go!(figures::fig13::run(ctx)),
        "fig14" => go!(figures::fig14::run(ctx)),
        "fig15" => go!(figures::fig15::run(ctx)),
        "fig16" => go!(figures::fig16::run(ctx)),
        "fig17" => go!(figures::fig17::run(ctx)),
        "fig18" => go!(figures::fig18::run(ctx)),
        "fig19" => go!(figures::fig19::run()),
        "ablations" => go!(figures::ablations::run(ctx)),
        // lint: allow(panic-surface) -- documented `# Panics`: binaries pass one of the experiment names matched above
        other => panic!("unknown experiment {other}"),
    }
}

/// Runs one named experiment, measuring host wall-clock time. The timing
/// goes in the returned sidecar, not the figure JSON, so the JSON stays
/// byte-identical across parallelism settings.
///
/// # Errors
///
/// Propagates experiment failures.
// lint: timing-carrier -- wall-clock lands in the timing sidecar only; the figure JSON stays byte-identical across runs
pub fn run_experiment_timed(
    name: &str,
    ctx: &Context,
) -> Result<(String, String, ExperimentTiming)> {
    let start = std::time::Instant::now();
    let (text, json) = run_experiment(name, ctx)?;
    let timing = ExperimentTiming {
        experiment: name.to_string(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        parallelism: ctx.parallelism.threads(),
    };
    Ok((text, json, timing))
}

/// Names of all experiments, in paper order.
pub const EXPERIMENTS: [&str; 13] = [
    "table1", "fig03", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "ablations",
];

/// Applies a `--parallelism <n>` / `--parallelism=<n>` command-line flag (if
/// present in `args`) as the process-wide default, overriding
/// `IDGNN_PARALLELISM`. Returns the parsed worker count.
///
/// # Panics
///
/// Panics on a malformed flag value (these are developer-facing binaries).
pub fn apply_parallelism_flag<I: Iterator<Item = String>>(args: I) -> Parallelism {
    let mut args = args.peekable();
    let mut selected = None;
    while let Some(arg) = args.next() {
        if arg == "--parallelism" {
            // lint: allow(panic-surface) -- documented `# Panics`: a malformed flag aborts the developer-facing binary
            let v = args.next().unwrap_or_else(|| panic!("--parallelism requires a value"));
            selected = Some(v);
        } else if let Some(v) = arg.strip_prefix("--parallelism=") {
            selected = Some(v.to_string());
        }
    }
    match selected {
        Some(v) => {
            let n: usize = v
                .trim()
                .parse()
                // lint: allow(panic-surface) -- documented `# Panics`: a malformed flag aborts the developer-facing binary
                .unwrap_or_else(|_| panic!("invalid --parallelism value: {v:?}"));
            let par = Parallelism::new(n);
            parallel::set_process_default(par);
            par
        }
        None => parallel::current(),
    }
}

/// Entry point used by the single-figure binaries: applies `--parallelism`,
/// builds the context from the environment, runs the experiment, prints the
/// text report (plus a wall-clock line on stderr), and — when
/// `IDGNN_JSON_DIR` is set — writes the JSON next to it.
// lint: timing-carrier -- env reads pick the output directory and knobs; timing goes to stderr/sidecar, never into figure JSON
pub fn figure_main(name: &str) {
    let par = apply_parallelism_flag(std::env::args().skip(1));
    // lint: allow(panic-surface) -- figure binaries abort with the error when the environment knobs are invalid
    let ctx = env_context().unwrap_or_else(|e| panic!("context construction failed: {e}"));
    let (text, json, timing) = run_experiment_timed(name, &ctx)
        // lint: allow(panic-surface) -- figure binaries abort with the error when an experiment fails
        .unwrap_or_else(|e| panic!("experiment {name} failed: {e}"));
    println!("{text}");
    eprintln!("[timing] {name}: {:.1} ms (parallelism={par})", timing.wall_ms);
    if let Ok(dir) = std::env::var("IDGNN_JSON_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_list_is_complete() {
        assert_eq!(EXPERIMENTS.len(), 13);
        let ctx = Context::new(ExperimentScale::Quick, 1).unwrap();
        // fig19 is config-only and cheap; make sure dispatch works.
        let (text, json) = run_experiment("fig19", &ctx).unwrap();
        assert!(text.contains("chip area"));
        assert!(json.contains("chip_fractions"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let ctx = Context::new(ExperimentScale::Quick, 1).unwrap();
        let _ = run_experiment("fig99", &ctx);
    }
}
