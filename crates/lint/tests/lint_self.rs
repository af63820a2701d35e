//! Self-tests driving the compiled `idgnn-lint` binary against the seeded
//! fixtures and the real workspace, plus library-level checks that the JSON
//! report agrees with the human-readable one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn run_lint(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_idgnn-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("idgnn-lint binary runs")
}

#[test]
fn each_seeded_fixture_fails_with_its_rule() {
    let cases = [
        ("hot_path_alloc.rs", "hot-path-alloc"),
        ("panic_surface.rs", "panic-surface"),
        ("unsafe_code.rs", "unsafe-code"),
        ("opstats_literal.rs", "opstats-literal"),
        ("resource_flow.rs", "resource-flow"),
        ("opstats_flow.rs", "opstats-flow"),
        ("determinism_unordered.rs", "unordered-iteration"),
        ("determinism_float.rs", "float-reduction-order"),
        ("determinism_ambient.rs", "ambient-nondeterminism"),
        ("determinism_merge.rs", "block-merge-order"),
    ];
    for (file, slug) in cases {
        let path = fixtures_dir().join(file);
        let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{file} should fail the lint; stdout:\n{stdout}"
        );
        assert!(stdout.contains(slug), "{file} output should mention `{slug}`:\n{stdout}");
    }
}

#[test]
fn clean_fixtures_pass() {
    // `determinism_method_call.rs`: a free `fn collect` on a deterministic
    // path must not pull a clock-reading `.collect()` caller onto it.
    for file in ["clean.rs", "determinism_method_call.rs"] {
        let path = fixtures_dir().join(file);
        let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{file} should pass:\n{stdout}");
        assert!(stdout.contains("0 finding(s)"), "no findings expected in {file}:\n{stdout}");
    }
}

#[test]
fn marker_edge_cases_yield_exactly_one_real_finding() {
    // Markers inside strings, raw strings, doc comments, and block comments
    // must neither trigger rules nor suppress the one genuine violation.
    let path = fixtures_dir().join("marker_edge_cases.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "edge-case fixture has one finding:\n{stdout}");
    let hits = stdout.matches("[panic-surface]").count();
    assert_eq!(hits, 1, "exactly one panic-surface finding expected:\n{stdout}");
    assert!(!stdout.contains("[hot-path-alloc]"), "decoy markers must stay inert:\n{stdout}");
}

#[test]
fn flow_fixtures_flag_only_the_seeded_violations() {
    // The resource-flow fixture mixes leaking and resolving shapes: exactly
    // the leak and the `?` escape fire, never the recycled / transitive /
    // carrier-marked functions.
    let path = fixtures_dir().join("resource_flow.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[resource-flow]").count(), 2, "{stdout}");
    assert!(stdout.contains("leaky_kernel"), "{stdout}");
    assert!(stdout.contains("early_return_leak"), "{stdout}");
    for clean in ["balanced_kernel", "delegating_kernel", "carrier_kernel"] {
        assert!(!stdout.contains(clean), "`{clean}` must not be flagged:\n{stdout}");
    }

    // The opstats-flow fixture: only the orphan kernel fires; the kernel
    // joined to the sink through `drive` stays clean.
    let path = fixtures_dir().join("opstats_flow.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[opstats-flow]").count(), 1, "{stdout}");
    assert!(stdout.contains("orphan_kernel"), "{stdout}");
    assert!(!stdout.contains("accounted_kernel"), "{stdout}");
}

#[test]
fn explain_subcommand_documents_every_rule() {
    for slug in [
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
    ] {
        let out = run_lint(&["--explain", slug], &workspace_root());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "--explain {slug} should succeed");
        assert!(stdout.contains(slug) && stdout.len() > 100, "thin rationale for {slug}:\n{stdout}");
    }
    // The `determinism` family alias prints all four sub-rule rationales.
    let out = run_lint(&["--explain", "determinism"], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "--explain determinism should succeed");
    for slug in [
        "unordered-iteration",
        "float-reduction-order",
        "ambient-nondeterminism",
        "block-merge-order",
    ] {
        assert!(stdout.contains(&format!("[{slug}]")), "family missing {slug}:\n{stdout}");
    }

    let out = run_lint(&["--explain", "no-such-rule"], &workspace_root());
    assert_eq!(out.status.code(), Some(2), "unknown rule is a usage error");
    let listing = String::from_utf8_lossy(&out.stderr);
    assert!(
        listing.contains("block-merge-order")
            && listing.contains("determinism family")
            && listing.contains("aliases: all, determinism"),
        "unknown-rule error should list known rules and families:\n{listing}"
    );
    for unknown in ["bounds", "bounds-proof", "unchecked-access"] {
        let out = run_lint(&["--explain", unknown], &workspace_root());
        assert_eq!(out.status.code(), Some(2), "`{unknown}` is an unknown rule");
    }

    let out = run_lint(&["--help"], &workspace_root());
    assert_eq!(out.status.code(), Some(0), "--help exits 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("--explain RULE"));
}

#[test]
fn determinism_fixtures_flag_only_the_seeded_violations() {
    // Unordered iteration: the HashMap build + iteration in `hash_walk`
    // fire; the BTreeMap twin, the marked membership probe, and the
    // function off every deterministic path stay clean.
    let path = fixtures_dir().join("determinism_unordered.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[unordered-iteration]").count(), 2, "{stdout}");
    assert!(stdout.contains("hash_walk"), "{stdout}");
    for clean in ["tree_walk", "membership_probe", "offline_histogram"] {
        assert!(!stdout.contains(clean), "`{clean}` must not be flagged:\n{stdout}");
    }

    // Float reduction: the hash-order sum fires (with its unordered-iteration
    // co-finding); the sorted twin and the exact integer fold stay clean.
    let path = fixtures_dir().join("determinism_float.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[float-reduction-order]").count(), 1, "{stdout}");
    assert!(stdout.contains("hash_mean"), "{stdout}");
    for clean in ["sorted_mean", "integer_total"] {
        assert!(!stdout.contains(clean), "`{clean}` must not be flagged:\n{stdout}");
    }

    // Ambient reads: the clock fold and the env knob fire; the marked timing
    // sidecar and the off-path probe stay clean.
    let path = fixtures_dir().join("determinism_ambient.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[ambient-nondeterminism]").count(), 2, "{stdout}");
    assert!(stdout.contains("timed_section"), "{stdout}");
    assert!(stdout.contains("env_tuned_width"), "{stdout}");
    for clean in ["timing_sidecar", "offline_probe"] {
        assert!(!stdout.contains(clean), "`{clean}` must not be flagged:\n{stdout}");
    }

    // Block merge: the completion-order channel merge fires; the audited
    // join-in-declared-order fan-out and the serial fold stay clean.
    let path = fixtures_dir().join("determinism_merge.rs");
    let out = run_lint(&[&path.to_string_lossy()], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[block-merge-order]").count(), 1, "{stdout}");
    assert!(stdout.contains("racy_merge"), "{stdout}");
    for clean in ["ordered_fan_out", "serial_fold"] {
        assert!(!stdout.contains(clean), "`{clean}` must not be flagged:\n{stdout}");
    }
}

#[test]
fn timing_profile_reports_every_rule_and_passes_the_gate() {
    let json_path = std::env::temp_dir().join("idgnn_lint_timing_test.json");
    let out = run_lint(
        &["--timing", "--json-out", &json_path.to_string_lossy()],
        &workspace_root(),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = std::fs::read_to_string(&json_path).expect("JSON report written");
    let _ = std::fs::remove_file(&json_path);
    assert_eq!(out.status.code(), Some(0), "timing run should stay green:\n{stdout}");
    // Every rule gets a wall-clock row in both renderings, and the gate
    // block records the limit with no offenders.
    for slug in [
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
    ] {
        assert!(stdout.contains(&format!("timing: {slug}:")), "no timing row for {slug}:\n{stdout}");
        assert!(json.contains(&format!("\"{slug}\": ")), "no timings_ms entry for {slug}:\n{json}");
    }
    assert!(json.contains("\"timing_gate\""), "{json}");
    assert!(json.contains("\"offenders\": []"), "gate should have no offenders:\n{json}");
    assert!(stdout.contains("timing: (infra) lex-parse"), "{stdout}");
}

#[test]
fn workspace_lint_reports_zero_findings() {
    let out = run_lint(&[], &workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint should be green\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains(" 0 finding(s)"), "{stdout}");
}

#[test]
fn json_report_matches_text_findings() {
    let path = fixtures_dir().join("panic_surface.rs");
    let json_path = std::env::temp_dir().join("idgnn_lint_self_test.json");
    let out = run_lint(
        &[&path.to_string_lossy(), "--json-out", &json_path.to_string_lossy()],
        &workspace_root(),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = std::fs::read_to_string(&json_path).expect("JSON report written");
    let _ = std::fs::remove_file(&json_path);

    // Every human-readable finding line appears in the JSON and vice versa.
    let text_findings = stdout.lines().filter(|l| l.contains("[panic-surface]")).count();
    let json_findings = json.matches("\"rule\": \"panic-surface\"").count();
    assert_eq!(text_findings, json_findings, "text/json disagree\n{stdout}\n{json}");
    assert!(json_findings > 0, "fixture should produce findings\n{json}");
    assert!(json.contains("\"exit_code\": 1"), "{json}");
}

#[test]
fn library_scan_of_workspace_matches_binary_exit_semantics() {
    // The library API the binary wraps: a workspace scan that the binary
    // passes (exit 0) has no findings at all.
    let run = idgnn_lint::lint_workspace(&workspace_root()).expect("workspace scan succeeds");
    assert!(run.files_scanned > 50, "expected to scan the whole workspace");
    assert!(run.findings.is_empty(), "workspace lint findings: {:?}", run.findings);
}
