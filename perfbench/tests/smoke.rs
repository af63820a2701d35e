//! The tiny-size smoke mode runs all three workloads through every output
//! check: reference statistics, determinism, the Recompute oracle and the
//! traced replay.

use std::process::Command;

#[test]
fn smoke_mode_passes_every_output_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_idgnn-perfbench"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("# reference: Match").count(), 3, "{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{stdout}"
    );
}
