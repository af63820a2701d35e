//! Human-readable and JSON rendering of a lint run.
//!
//! The JSON writer is hand-rolled: the vendored `serde_json` stub is
//! serialize-only and lives on the other side of the dependency fence anyway
//! — the lint tool deliberately depends on nothing but `std`.

use crate::driver::RuleTimings;
use crate::rules::{Finding, Rule};

/// Everything a run produces, ready to render.
pub struct Report<'a> {
    /// All findings, sorted by file/line.
    pub findings: &'a [Finding],
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Exit code the process will return.
    pub exit_code: i32,
    /// Per-rule wall-clock profile (`--timing` runs only).
    pub timings: Option<&'a RuleTimings>,
}

/// Renders the human-readable report (what goes to stdout).
pub fn render_text(r: &Report<'_>) -> String {
    let mut out = String::new();
    for f in r.findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule.slug(), f.message));
    }
    out.push_str(&format!(
        "{} file(s) scanned, {} finding(s)\n",
        r.files_scanned,
        r.findings.len()
    ));
    if let Some(t) = r.timings {
        for (slug, ms) in &t.per_rule_ms {
            out.push_str(&format!("timing: {slug}: {ms:.2} ms\n"));
        }
        for (phase, ms) in &t.infra_ms {
            out.push_str(&format!("timing: (infra) {phase}: {ms:.2} ms\n"));
        }
        for slug in &t.offenders {
            out.push_str(&format!(
                "error: rule `{slug}` exceeded the timing gate ({:.2} ms = 5x max(median, floor))\n",
                t.gate_limit_ms
            ));
        }
    }
    out
}

/// Renders the machine-readable report as JSON.
pub fn render_json(r: &Report<'_>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", r.files_scanned));
    out.push_str(&format!("  \"exit_code\": {},\n", r.exit_code));

    out.push_str("  \"counts\": {");
    let mut first = true;
    for rule in Rule::all() {
        let n = r.findings.iter().filter(|f| f.rule == rule).count();
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {}", rule.slug(), n));
    }
    out.push_str("},\n");

    if let Some(t) = r.timings {
        out.push_str("  \"timings_ms\": {");
        let mut first = true;
        for (slug, ms) in t.per_rule_ms.iter().chain(&t.infra_ms) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("{}: {ms:.3}", json_str(slug)));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"timing_gate\": {{\"limit_ms\": {:.3}, \"offenders\": [{}]}},\n",
            t.gate_limit_ms,
            t.offenders.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", "),
        ));
    }

    out.push_str("  \"findings\": [\n");
    for (i, f) in r.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
            json_str(f.rule.slug()),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            if i + 1 < r.findings.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Rule};

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: Rule::PanicSurface,
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "`.unwrap()` with \"quotes\"".to_string(),
        }]
    }

    #[test]
    fn text_report_has_one_line_per_finding_plus_summary() {
        let findings = sample();
        let r = Report { findings: &findings, files_scanned: 3, exit_code: 1, timings: None };
        let text = render_text(&r);
        assert!(text.contains("crates/x/src/lib.rs:7: [panic-surface]"));
        assert!(text.contains("3 file(s) scanned, 1 finding(s)"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let findings = sample();
        let r = Report { findings: &findings, files_scanned: 3, exit_code: 1, timings: None };
        let json = render_json(&r);
        assert!(json.contains("\"panic-surface\": 1"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"exit_code\": 1"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_str_escapes_control_chars() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
