//! `kernels` — the sparse-kernel and power-chain microbenchmark.
//!
//! Times spgemm / spmm / sp_add and the cold-vs-warm power chain on the
//! Fig. 12 datasets on one kernel thread, prints the text tables,
//! and writes `BENCH_kernels.json` (default: repository root; `--out <path>`
//! overrides). `--smoke` runs the seconds-long CI configuration. The binary
//! re-reads and validates what it wrote and exits non-zero on any failure,
//! so `scripts/ci.sh` can gate on it directly.
//!
//! `--validate <path>` skips benchmarking entirely and structurally checks
//! an existing report JSON (parsed with `idgnn_bench::jsonv`): required
//! sections present and non-empty, per-row fields typed correctly, and
//! every `power_chain` row served by the cache with nonzero saved work.
//! Exit 0 on pass, 1 on failure.

use idgnn_bench::kernels::{self, KernelBenchConfig};

fn main() {
    let mut cfg = KernelBenchConfig::full();
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = KernelBenchConfig::smoke(),
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| panic!("--out requires a path")));
            }
            "--validate" => {
                validate =
                    Some(args.next().unwrap_or_else(|| panic!("--validate requires a path")));
            }
            other => {
                if let Some(v) = other.strip_prefix("--out=") {
                    out = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--validate=") {
                    validate = Some(v.to_string());
                } else {
                    panic!(
                        "unknown argument {other:?} (expected --smoke, --out <path>, or --validate <json>)"
                    );
                }
            }
        }
    }

    if let Some(path) = validate {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match kernels::validate_report_structure(&text) {
            Ok(()) => {
                println!("{path}: structurally valid kernel report ({} bytes)", text.len());
                return;
            }
            Err(e) => {
                eprintln!("error: {path} failed structural validation: {e}");
                std::process::exit(1);
            }
        }
    }

    // The workspace root, resolved at compile time (this is a repo-local
    // developer tool, not an installable binary).
    let out = out.unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });

    let report = kernels::run(&cfg).unwrap_or_else(|e| panic!("kernel benchmark failed: {e}"));
    println!("{report}");

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("could not write {out}: {e}"));
    let written = std::fs::read_to_string(&out).unwrap_or_else(|e| panic!("re-read {out}: {e}"));
    if let Err(e) = kernels::validate_report_structure(&written) {
        eprintln!("error: {out} failed structural validation: {e}");
        std::process::exit(1);
    }
    println!("wrote {out} ({} bytes, validated)", written.len());
}
