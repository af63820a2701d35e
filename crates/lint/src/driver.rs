//! Workspace discovery, file walking, scope classification, and the
//! manifest-level half of the `unsafe-code` rule.

use crate::rules::{self, FileMarkers, Finding, Rule, Scope};
use crate::{flows, hwbudget, lexer, parser};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The modules in which R1 (`hot-path-alloc`) applies file-wide: the inner
/// loops every kernel call funnels through. Everywhere else R1 is opt-in via
/// `// lint: hot-path` markers.
pub const HOT_MODULES: &[&str] = &[
    "crates/sparse/src/ops.rs",
    "crates/sparse/src/parallel.rs",
    "crates/sparse/src/simd.rs",
];

/// The one file allowed to build `OpStats` from raw counts.
pub const OPSTATS_HOME: &str = "crates/sparse/src/stats.rs";

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct WorkspaceRun {
    /// All findings across source files and manifests.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed and linted.
    pub files_scanned: usize,
    /// Per-rule wall-clock profile, when requested with `--timing`.
    pub timings: Option<RuleTimings>,
}

/// Per-rule wall-clock profile of one workspace scan (`--timing`). The
/// gate catches accidental O(n²) rule regressions: no single rule may take
/// more than 5× the median rule time (with a floor so a fast-lint
/// workspace does not trip on scheduler noise).
#[derive(Debug, Default, Clone)]
pub struct RuleTimings {
    /// (rule slug, milliseconds), one entry per [`Rule::all`] slug in
    /// canonical order.
    pub per_rule_ms: Vec<(String, f64)>,
    /// Shared-infrastructure phases (lex+parse, graph build) reported for
    /// context but excluded from the gate.
    pub infra_ms: Vec<(String, f64)>,
    /// The gate threshold in milliseconds: `5 × max(median, 25ms)`.
    pub gate_limit_ms: f64,
    /// Slugs of rules that exceeded the gate (non-empty ⇒ lint fails).
    pub offenders: Vec<String>,
}

/// Gate floor in milliseconds: medians below this are clamped up so a
/// workspace where every rule finishes in microseconds cannot trip the
/// 5×-median gate on scheduler jitter.
const TIMING_FLOOR_MS: f64 = 25.0;

impl RuleTimings {
    /// Computes the gate from the recorded per-rule times.
    fn close(&mut self) {
        let mut sorted: Vec<f64> = self.per_rule_ms.iter().map(|(_, ms)| *ms).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        self.gate_limit_ms = 5.0 * median.max(TIMING_FLOOR_MS);
        self.offenders = self
            .per_rule_ms
            .iter()
            .filter(|(_, ms)| *ms > self.gate_limit_ms)
            .map(|(slug, _)| slug.clone())
            .collect();
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// The `src/` directories of binary-only packages among the
/// workspace-relative `files`: those holding a `src/main.rs` and no
/// `src/lib.rs`. Every module under such a directory compiles into the
/// binary, so it is binary code exactly like `src/main.rs` itself.
pub fn binary_src_dirs<'a>(files: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    let files: BTreeSet<&str> = files.into_iter().collect();
    files
        .iter()
        .filter_map(|f| f.strip_suffix("main.rs"))
        .filter(|dir| *dir == "src/" || dir.ends_with("/src/"))
        .filter(|dir| !files.contains(format!("{dir}lib.rs").as_str()))
        .map(str::to_string)
        .collect()
}

/// Decides which rules apply to a workspace-relative path, or `None` when
/// the file must not be scanned at all (vendored code, seeded fixtures).
/// `bin_src_dirs` (from [`binary_src_dirs`]) marks the source trees of
/// binary-only packages, whose modules are binary code, not library code.
pub fn classify(rel: &str, bin_src_dirs: &BTreeSet<String>) -> Option<Scope> {
    if rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("tests/fixtures/")
    {
        return None;
    }
    let test_code = rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.starts_with("src/bin/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.ends_with("src/main.rs")
        || rel.ends_with("build.rs")
        || bin_src_dirs.iter().any(|dir| rel.starts_with(dir.as_str()));
    Some(Scope {
        hot_module: HOT_MODULES.contains(&rel),
        library_code: !test_code,
        opstats_exempt: rel == OPSTATS_HOME,
    })
}

/// Lints one source string under the scope derived from `rel`.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    match classify(rel, &BTreeSet::new()) {
        Some(scope) => rules::lint_tokens(rel, &lexer::lex(source), scope),
        None => Vec::new(),
    }
}

/// Lints every first-party `.rs` file and manifest under `root`: the
/// per-file token rules, then the cross-file semantic pass (dataflow
/// engine + flow rules) and the `hw-budget` config verifier.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceRun> {
    lint_workspace_with(root, false)
}

/// The token-scan rules, timed one at a time in `--timing` mode.
const TOKEN_RULES: [Rule; 5] = [
    Rule::HotPathAlloc,
    Rule::PanicSurface,
    Rule::UnsafeCode,
    Rule::OpstatsLiteral,
    Rule::MalformedMarker,
];

/// Milliseconds elapsed since `t0`.
// lint: timing-carrier -- the --timing profile measures the lint itself, never rule findings
fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// [`lint_workspace`], optionally profiling per-rule wall-clock. The
/// profile re-runs each rule in isolation (token rules via
/// `lint_tokens_filtered`, flow rules via `FlowAnalysis::run_rule`) — by
/// construction the per-rule passes union to the fused scan, so the timed
/// findings are the reported findings.
// lint: timing-carrier -- the --timing profile measures the lint itself, never rule findings
pub fn lint_workspace_with(root: &Path, timing: bool) -> io::Result<WorkspaceRun> {
    let t_infra = std::time::Instant::now();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let bin_src_dirs = binary_src_dirs(files.iter().map(String::as_str));

    let mut run = WorkspaceRun::default();
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    let mut markers: BTreeMap<String, FileMarkers> = BTreeMap::new();
    let mut tokens: BTreeMap<String, Vec<lexer::Token>> = BTreeMap::new();
    let mut scopes: Vec<(String, Scope)> = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        if let Some(scope) = classify(rel, &bin_src_dirs) {
            let toks = lexer::lex(&source);
            run.findings.extend(rules::lint_tokens(rel, &toks, scope));
            markers.insert(rel.clone(), rules::file_markers(&toks));
            parsed.push(parser::parse(rel, &toks));
            tokens.insert(rel.clone(), toks);
            scopes.push((rel.clone(), scope));
        }
        run.files_scanned += 1;
    }
    let lex_parse_ms = ms_since(t_infra);

    let t_graph = std::time::Instant::now();
    let analysis =
        flows::FlowAnalysis::new(&parsed, &tokens, &markers, flows::AnalysisMode::Workspace);
    let graph_ms = ms_since(t_graph);
    run.findings.extend(analysis.run());
    run.findings.extend(hwbudget::check_workspace());
    check_manifests(root, &mut run.findings)?;
    run.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    if timing {
        let mut timings = RuleTimings {
            infra_ms: vec![("lex-parse".to_string(), lex_parse_ms), ("graph-build".to_string(), graph_ms)],
            ..RuleTimings::default()
        };
        for rule in Rule::all() {
            let t0 = std::time::Instant::now();
            if TOKEN_RULES.contains(&rule) {
                for (rel, scope) in &scopes {
                    if let Some(toks) = tokens.get(rel) {
                        rules::lint_tokens_filtered(rel, toks, *scope, Some(rule));
                    }
                }
            } else if rule == Rule::HwBudget {
                hwbudget::check_workspace();
            } else {
                analysis.run_rule(rule);
            }
            timings.per_rule_ms.push((rule.slug().to_string(), ms_since(t0)));
        }
        timings.close();
        run.timings = Some(timings);
    }
    Ok(run)
}

/// Recursively collects workspace-relative `.rs` paths, skipping vendored
/// code, build output, VCS metadata, and the seeded lint fixtures. Public
/// so the parser's workspace smoke test can walk the same file set.
pub fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if rel.starts_with("vendor")
            || rel.starts_with("target")
            || rel.starts_with(".git")
            || rel.contains("tests/fixtures")
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Manifest half of R3: the workspace lint table must forbid `unsafe_code`
/// and every first-party crate must opt into it.
fn check_manifests(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    check_root_manifest(&fs::read_to_string(root.join("Cargo.toml"))?, findings);
    // The root package shares Cargo.toml with the workspace table; the
    // member crates each have their own manifest.
    let mut manifests = vec!["Cargo.toml".to_string()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path().join("Cargo.toml");
            if path.is_file() {
                if let Ok(rel) = path.strip_prefix(root) {
                    manifests.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    manifests.sort();
    for rel in manifests {
        let text = fs::read_to_string(root.join(&rel))?;
        if !toml_has_kv(&text, "[lints]", "workspace", "true") {
            findings.push(Finding {
                rule: Rule::UnsafeCode,
                file: rel,
                line: 1,
                message: "crate manifest must opt into the workspace lint table with `[lints] workspace = true`".to_string(),
            });
        }
    }
    Ok(())
}

/// The workspace lint table must say `forbid`: a `deny` (or any weaker
/// level) can be lifted by a local `#[allow(unsafe_code)]`.
fn check_root_manifest(text: &str, findings: &mut Vec<Finding>) {
    if !toml_has_kv(text, "[workspace.lints.rust]", "unsafe_code", "\"forbid\"") {
        findings.push(Finding {
            rule: Rule::UnsafeCode,
            file: "Cargo.toml".to_string(),
            line: 1,
            message: "workspace manifest must set `unsafe_code = \"forbid\"` under [workspace.lints.rust]".to_string(),
        });
    }
}

/// True if `text` has a TOML section headed `section` whose body (before the
/// next section header) contains `key = value`.
fn toml_has_kv(text: &str, section: &str, key: &str, value: &str) -> bool {
    let mut in_section = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if !in_section || line.starts_with('#') {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == key && v.trim() == value {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(rel: &str) -> Option<Scope> {
        super::classify(rel, &BTreeSet::new())
    }

    #[test]
    fn classify_skips_vendor_and_fixtures() {
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/unsafe_code.rs").is_none());
        assert!(classify("target/debug/build/foo.rs").is_none());
    }

    #[test]
    fn classify_marks_hot_modules_and_stats_home() {
        let ops = classify("crates/sparse/src/ops.rs").expect("scanned");
        assert!(ops.hot_module && ops.library_code);
        let stats = classify("crates/sparse/src/stats.rs").expect("scanned");
        assert!(stats.opstats_exempt && !stats.hot_module);
    }

    #[test]
    fn classify_downgrades_test_and_bin_code() {
        for rel in [
            "crates/sparse/tests/proptests.rs",
            "crates/bench/src/bin/kernels.rs",
            "crates/bench/benches/figures.rs",
            "tests/system.rs",
            "src/bin/idgnn.rs",
            "examples/quickstart.rs",
        ] {
            let scope = classify(rel).expect("scanned");
            assert!(!scope.library_code, "{rel} should not be library scope");
        }
        assert!(classify("src/lib.rs").expect("scanned").library_code);
    }

    #[test]
    fn modules_of_a_binary_only_package_are_binary_code() {
        // `tool` has a binary and no library target, so its helper modules
        // are binary code; `mixed` has both, so its modules stay library
        // code. The root package (`src/`) has a library too.
        let files = [
            "tools/tool/src/main.rs",
            "tools/tool/src/calib.rs",
            "tools/tool/src/nested/trace.rs",
            "crates/mixed/src/main.rs",
            "crates/mixed/src/lib.rs",
            "crates/mixed/src/driver.rs",
            "crates/mixed/src/bin/extra/main.rs",
            "crates/notsrc/main.rs",
            "src/lib.rs",
            "src/main.rs",
            "src/model.rs",
        ];
        let bins = binary_src_dirs(files);
        assert_eq!(bins.iter().map(String::as_str).collect::<Vec<_>>(), ["tools/tool/src/"]);
        let library = |rel: &str| super::classify(rel, &bins).expect("scanned").library_code;
        assert!(!library("tools/tool/src/calib.rs"));
        assert!(!library("tools/tool/src/nested/trace.rs"));
        assert!(library("crates/mixed/src/driver.rs"));
        assert!(library("src/model.rs"));
    }

    #[test]
    fn toml_section_scan_respects_section_boundaries() {
        let text = "[lints]\nworkspace = true\n[dependencies]\n";
        assert!(toml_has_kv(text, "[lints]", "workspace", "true"));
        let wrong = "[dependencies]\nworkspace = true\n";
        assert!(!toml_has_kv(wrong, "[lints]", "workspace", "true"));
        let after = "[lints]\n[dependencies]\nworkspace = true\n";
        assert!(!toml_has_kv(after, "[lints]", "workspace", "true"));
    }

    #[test]
    fn root_manifest_must_forbid_unsafe_code() {
        let slugs = |text: &str| {
            let mut findings = Vec::new();
            check_root_manifest(text, &mut findings);
            findings.iter().map(|f| f.rule.slug()).collect::<Vec<_>>()
        };
        assert!(slugs("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n").is_empty());
        assert_eq!(slugs("[workspace.lints.rust]\nunsafe_code = \"deny\"\n"), vec!["unsafe-code"]);
        assert_eq!(slugs("[workspace]\n"), vec!["unsafe-code"]);
    }
}
