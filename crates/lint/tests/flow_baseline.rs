//! Captured-baseline pin for the flow rules that were ported from bespoke
//! per-node reachability walks onto the shared dataflow engine
//! (`flows::FlowAnalysis` over `dataflow::Engine`): the findings — file,
//! line, and *every byte of the message* — must match what the pre-port
//! traversals produced on the seeded fixtures. Any drift means the closure
//! collapse (`resolves ⟺ caller-of-base`, `accounted ⟺ reachable-from-join`)
//! changed observable behavior, which is a port bug, not a cleanup.

use idgnn_lint::rules::Rule;
use idgnn_lint::{flows, lexer, parser, rules};
use std::collections::BTreeMap;
use std::path::Path;

/// Runs the flow analysis over one fixture exactly the way the binary's
/// explicit-file mode does, rendering `line: [slug] message` rows.
fn flow_rows(fixture: &str, rule: Rule) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let toks = lexer::lex(&source);
    let name = format!("tests/fixtures/{fixture}");
    let markers = BTreeMap::from([(name.clone(), rules::file_markers(&toks))]);
    let parsed = vec![parser::parse(&name, &toks)];
    let tokens = BTreeMap::from([(name, toks)]);
    flows::analyze(&parsed, &tokens, &markers, flows::AnalysisMode::Explicit)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}: [{}] {}", f.line, f.rule.slug(), f.message))
        .collect()
}

#[test]
fn resource_flow_findings_match_the_pre_port_capture() {
    let expected = [
        "9: [resource-flow] `leaky_kernel` acquires a pooled buffer here but no path reaches \
         a recycle (`recycle*`) or CSR assembly (`from_raw_parts`); the \
         workspace arena leaks — recycle it, assemble it into the returned matrix, or \
         declare `// lint: buffer-carrier -- <where ownership goes>`",
        "17: [resource-flow] `?` early-return in `early_return_leak` after a pooled-buffer \
         acquisition (line 16) leaks the buffer on the error path; validate inputs before \
         acquiring, or recycle before propagating",
    ];
    assert_eq!(flow_rows("resource_flow.rs", Rule::ResourceFlow), expected);
}

#[test]
fn opstats_flow_findings_match_the_pre_port_capture() {
    let expected = [
        "12: [opstats-flow] public kernel `orphan_kernel` returns OpStats but no transitive \
         caller joins it to an accounting sink (`// lint: opstats-sink`); its counted FLOPs \
         never reach the figure pipeline",
    ];
    assert_eq!(flow_rows("opstats_flow.rs", Rule::OpstatsFlow), expected);
}
