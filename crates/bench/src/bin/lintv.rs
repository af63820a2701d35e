//! Structural validator for `results/lint.json` (the `idgnn-lint --json`
//! report), run by `scripts/ci.sh` after the lint stage.
//!
//! ```text
//! cargo run -p idgnn-bench --bin lintv -- results/lint.json
//! ```
//!
//! Checks, via the [`idgnn_bench::jsonv`] parser rather than substring
//! greps: the report version, a plausible file count, a `counts` object
//! naming exactly the twelve lint rules with every count zero, an empty
//! `findings` array, exit code 0, and — when the report came from a
//! `--timing` run — a per-rule `timings_ms` row for every rule and a
//! `timing_gate` with a positive limit and no offenders. Exits nonzero with
//! a message on the first violation.

use idgnn_bench::jsonv::{self, Json};
use std::process::ExitCode;

/// Every rule slug `idgnn-lint` can emit, in report order.
const RULES: &[&str] = &[
    "hot-path-alloc",
    "panic-surface",
    "unsafe-code",
    "opstats-literal",
    "resource-flow",
    "opstats-flow",
    "hw-budget",
    "unordered-iteration",
    "float-reduction-order",
    "ambient-nondeterminism",
    "block-merge-order",
    "malformed-marker",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [p] => p.clone(),
        _ => {
            eprintln!("usage: lintv <results/lint.json>");
            return ExitCode::from(2);
        }
    };
    match validate(&path) {
        Ok(summary) => {
            println!("lintv: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lintv: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = jsonv::parse(&text)?;

    let version = req_f64(&doc, "version")?;
    if version != 1.0 {
        return Err(format!("unsupported report version {version}"));
    }
    let files = req_f64(&doc, "files_scanned")?;
    if files < 50.0 {
        return Err(format!("implausible files_scanned {files} (expected a workspace scan)"));
    }
    let exit_code = req_f64(&doc, "exit_code")?;
    if exit_code != 0.0 {
        return Err(format!("lint exited {exit_code}, report records a failing run"));
    }

    let counts = doc.get("counts").ok_or("missing `counts`")?;
    let members = match counts {
        Json::Object(m) => m,
        _ => return Err("`counts` is not an object".to_string()),
    };
    if members.len() != RULES.len() {
        return Err(format!("`counts` has {} rules, expected {}", members.len(), RULES.len()));
    }
    for rule in RULES {
        let n = counts
            .get(rule)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`counts.{rule}` missing or non-numeric"))?;
        if n != 0.0 {
            return Err(format!("`counts.{rule}` = {n}: the workspace must lint clean"));
        }
    }

    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing or non-array `findings`")?;
    if !findings.is_empty() {
        return Err(format!("findings array has {} entries, expected none", findings.len()));
    }

    // `--timing` runs carry a per-rule wall-clock profile; when present it
    // must cover every rule with a non-negative duration, and the gate must
    // record a positive limit with an empty offender list.
    let mut timed = "";
    if let Some(timings) = doc.get("timings_ms") {
        if !matches!(timings, Json::Object(_)) {
            return Err("`timings_ms` is not an object".to_string());
        }
        for rule in RULES {
            let ms = timings
                .get(rule)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`timings_ms.{rule}` missing or non-numeric"))?;
            if ms.is_nan() || ms < 0.0 {
                return Err(format!("`timings_ms.{rule}` = {ms} is not a duration"));
            }
        }
        let gate = doc.get("timing_gate").ok_or("`timings_ms` present but `timing_gate` missing")?;
        let limit = req_f64(gate, "limit_ms")?;
        if limit <= 0.0 {
            return Err(format!("`timing_gate.limit_ms` = {limit} is not positive"));
        }
        let offenders = gate
            .get("offenders")
            .and_then(Json::as_array)
            .ok_or("missing or non-array `timing_gate.offenders`")?;
        if !offenders.is_empty() {
            return Err(format!("{} timing-gate offender(s) recorded", offenders.len()));
        }
        timed = ", timing gate clean";
    }

    Ok(format!("{} file(s), 0 findings{timed}", files as u64))
}

/// Fetches a required numeric member of `doc`.
fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing or non-numeric `{key}`"))
}
