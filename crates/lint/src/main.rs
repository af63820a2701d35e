//! Command-line entry point for `idgnn-lint`.
//!
//! ```text
//! cargo run -p idgnn-lint                     # lint the workspace
//! cargo run -p idgnn-lint -- --json           # also write results/lint.json
//! cargo run -p idgnn-lint -- path/to/file.rs  # lint explicit files
//! cargo run -p idgnn-lint -- --explain resource-flow
//! ```
//!
//! Exit codes: `0` clean, `1` any finding (or a timing-gate breach), `2`
//! usage or I/O error.

use idgnn_lint::report::{render_json, render_text, Report};
use idgnn_lint::rules::{FileMarkers, Finding, Rule, Scope};
use idgnn_lint::{driver, flows, lexer, parser, rules};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

struct Cli {
    files: Vec<String>,
    json: bool,
    json_out: Option<PathBuf>,
    explain: Option<String>,
    timing: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        files: Vec::new(),
        json: false,
        json_out: None,
        explain: None,
        timing: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => cli.json = true,
            "--timing" => cli.timing = true,
            "--json-out" => {
                let p = it.next().ok_or("--json-out requires a path")?;
                cli.json = true;
                cli.json_out = Some(PathBuf::from(p));
            }
            "--explain" => {
                let r = it.next().ok_or("--explain requires a rule name")?;
                cli.explain = Some(r.to_string());
            }
            "--help" | "-h" => cli.help = true,
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f => cli.files.push(f.to_string()),
        }
    }
    Ok(cli)
}

const USAGE: &str = "\
usage: idgnn-lint [FILES..] [OPTIONS]

Workspace-wide semantic lint for the I-DGNN reproduction. With no FILES,
lints every first-party `.rs` file and manifest; with FILES, lints just
those files with every rule in scope.

options:
  --json              write the machine-readable report to results/lint.json
  --json-out PATH     write the JSON report to PATH (implies --json)
  --timing            profile per-rule wall-clock; fail when one rule runs
                      past 5x the median (workspace mode only)
  --explain RULE      print the rationale for one rule, the `determinism`
                      family, or `all`, and exit
  -h, --help          print this help and exit

rules: hot-path-alloc, panic-surface, unsafe-code, opstats-literal,
       resource-flow, opstats-flow, hw-budget, unordered-iteration,
       float-reduction-order, ambient-nondeterminism, block-merge-order,
       malformed-marker

exit codes: 0 clean; 1 any finding or a timing-gate breach; 2 usage or I/O
error.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let cli = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if cli.help {
        println!("{USAGE}");
        return 0;
    }
    if let Some(rule) = &cli.explain {
        return run_explain(rule);
    }
    let outcome = if cli.files.is_empty() { run_workspace(&cli) } else { run_files(&cli) };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("idgnn-lint: {e}");
            2
        }
    }
}

/// Prints the rationale for one rule slug, the `determinism` family, or
/// every rule for `all`. Unknown names exit 2 and list every rule grouped
/// by family, matching what `--help` advertises.
fn run_explain(slug: &str) -> i32 {
    if slug == "all" {
        for rule in Rule::all() {
            println!("[{}]\n{}\n", rule.slug(), rule.explain());
        }
        return 0;
    }
    if slug == "determinism" {
        for rule in Rule::determinism_family() {
            println!("[{}]\n{}\n", rule.slug(), rule.explain());
        }
        return 0;
    }
    match Rule::from_slug(slug) {
        Some(rule) => {
            println!("[{}]\n{}", rule.slug(), rule.explain());
            0
        }
        None => {
            let det: Vec<&str> =
                Rule::determinism_family().iter().map(|r| r.slug()).collect();
            let standalone: Vec<&str> =
                Rule::all().iter().map(|r| r.slug()).filter(|s| !det.contains(s)).collect();
            eprintln!("unknown rule `{slug}`; known rules and families:");
            eprintln!("  standalone: {}", standalone.join(", "));
            eprintln!("  determinism family: {}", det.join(", "));
            eprintln!("  aliases: all, determinism");
            2
        }
    }
}

/// Lint explicit files with every rule in scope: any finding is a failure.
/// This is what the fixture self-tests drive. The semantic flow rules run
/// too, in [`flows::AnalysisMode::Explicit`] (every file in scope), so
/// leak/escape fixtures fail standalone.
fn run_files(cli: &Cli) -> Result<i32, String> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    let mut markers: BTreeMap<String, FileMarkers> = BTreeMap::new();
    let mut tokens: BTreeMap<String, Vec<lexer::Token>> = BTreeMap::new();
    for f in &cli.files {
        let source =
            fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        let toks = lexer::lex(source.as_str());
        findings.extend(rules::lint_tokens(f, &toks, Scope::all()));
        markers.insert(f.clone(), rules::file_markers(&toks));
        parsed.push(parser::parse(f, &toks));
        tokens.insert(f.clone(), toks);
    }
    findings.extend(flows::analyze(&parsed, &tokens, &markers, flows::AnalysisMode::Explicit));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let exit_code = if findings.is_empty() { 0 } else { 1 };
    let report = Report {
        findings: &findings,
        files_scanned: cli.files.len(),
        exit_code,
        timings: None,
    };
    print!("{}", render_text(&report));
    write_json(cli, &report, None)?;
    Ok(exit_code)
}

/// Lint the whole workspace: any finding, or a `--timing` gate breach, is a
/// failure.
fn run_workspace(cli: &Cli) -> Result<i32, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = driver::find_workspace_root(&cwd)
        .ok_or("no workspace root (Cargo.toml with [workspace]) above current directory")?;
    let run = driver::lint_workspace_with(&root, cli.timing).map_err(|e| e.to_string())?;

    let gate_breached = run.timings.as_ref().is_some_and(|t| !t.offenders.is_empty());
    let exit_code = if run.findings.is_empty() && !gate_breached { 0 } else { 1 };
    let report = Report {
        findings: &run.findings,
        files_scanned: run.files_scanned,
        exit_code,
        timings: run.timings.as_ref(),
    };
    print!("{}", render_text(&report));
    write_json(cli, &report, Some(&root))?;
    Ok(exit_code)
}

/// Writes the JSON report when `--json`/`--json-out` was given. The default
/// location is `results/lint.json` under the workspace root (or the current
/// directory in explicit-file mode).
fn write_json(cli: &Cli, report: &Report<'_>, root: Option<&std::path::Path>) -> Result<(), String> {
    if !cli.json {
        return Ok(());
    }
    let path = cli.json_out.clone().unwrap_or_else(|| {
        root.map(|r| r.to_path_buf())
            .unwrap_or_else(|| PathBuf::from("."))
            .join("results/lint.json")
    });
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    fs::write(&path, render_json(report))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
