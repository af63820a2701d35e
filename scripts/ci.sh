#!/usr/bin/env bash
# Tier-1 gate plus lint, run locally before every merge:
#   scripts/ci.sh
#
# 1. release build of the whole workspace;
# 2. full test suite (unit, integration, proptests, equivalence suites);
# 3. sparse suite again with strict-invariants (runtime CsrMatrix::validate
#    re-asserted at every construction/assemble site);
# 4. sparse suite under schedule-perturbation: the parallel helpers run
#    through seeded adversarial worker schedules and must stay bit-identical
#    to the serial path (the runtime half of the determinism contract,
#    DESIGN.md §15);
# 5. idgnn-lint workspace scan (with --timing): any finding fails, with the
#    determinism family on;
# 6. kernel-benchmark smoke run + structural JSON validation;
# 7. DSE smoke sweep regenerating results/dse.json + structural validation;
# 8. `all` regenerating every figure JSON and results/report.txt, which must
#    match the committed files byte for byte;
# 9. the `walkthrough` toy example, which exits non-zero if any Eq. 13-15
#    identity fails;
# 10. the long-stream memory gate: peak RSS of the one-pass simulation at
#    400 snapshots within 1.10x of its peak at 40 (examples/long_stream_rss.rs);
# 11. the repo benchmark's own tests (perfbench is a separate workspace, so
#    `cargo test --workspace` never reaches its exact-reference checks);
# 12. perfbench --record-reference at seeds 0, 7, 42: every simulated
#    statistic must already be in perfbench/reference.txt;
# 13. clippy over every target with warnings denied;
# 14. rustdoc over the first-party crates with warnings denied;
# 15. a syntax check of scripts/perf_pairs.sh (the A/B timing script is not
#    run here: it builds perfbench twice and times it for minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every stage prints its wall time when the next one starts, so a change in
# one stage's cost (the `all` figure run, say) shows in the log.
stage_name=""
stage_start_ms=0
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
end_stage() {
  if [ -n "$stage_name" ]; then
    local ms=$(( $(now_ms) - stage_start_ms ))
    printf '    [%d.%03d s] %s\n' $((ms / 1000)) $((ms % 1000)) "$stage_name"
  fi
}
stage() {
  end_stage
  stage_name="$1"
  stage_start_ms=$(now_ms)
  echo "==> $1"
}

stage "cargo build --release"
cargo build --release

stage "cargo test -q"
cargo test -q --workspace

stage "cargo test -p idgnn-sparse --features strict-invariants"
cargo test -q -p idgnn-sparse --features strict-invariants

stage "cargo test -p idgnn-sparse --features schedule-perturbation"
# Adversarial schedule proptests: a small fixed budget (8 seeds per kernel
# invocation at parallelism 4, 16 proptest cases) keeps this a few seconds.
cargo test -q -p idgnn-sparse --features schedule-perturbation --test perturbation

stage "idgnn-lint (zero findings + per-rule timing + results/lint.json)"
# --timing profiles each rule in isolation and fails the run when any rule
# exceeds 5x the median rule time (floored), so a pathological rule cannot
# silently dominate the lint stage.
cargo run --release -q -p idgnn-lint -- --timing --json
# Structural validation of the JSON report from the outside: rule set,
# zero counts, an empty findings array, timing gate clean.
cargo run --release -q -p idgnn-bench --bin lintv -- results/lint.json
# The --explain subcommand must document every rule (smoke: one of each
# family — a token rule, a flow rule, a determinism dataflow rule, and the
# static config verifier — plus the `determinism` family alias).
for rule in hot-path-alloc resource-flow unordered-iteration hw-budget \
            determinism; do
  cargo run --release -q -p idgnn-lint -- --explain "$rule" >/dev/null
done

stage "bench kernels --smoke"
# The binary re-reads and validates its own JSON (exit != 0 on corruption);
# `--validate` then re-checks the structure from the outside with the
# jsonv parser: required sections present and non-empty, rows typed, and
# every power_chain row hitting the cache on each timed delta with nonzero
# saved multiplies.
smoke_json="target/BENCH_kernels_smoke.json"
cargo run --release -q -p idgnn-bench --bin kernels -- --smoke --out "$smoke_json"
cargo run --release -q -p idgnn-bench --bin kernels -- --validate "$smoke_json"
# The committed full-run report must also satisfy the current schema and
# gates (roofline vs triad peak, warm >= cold power chain) so a kernel or
# schema change cannot leave a stale baseline behind.
cargo run --release -q -p idgnn-bench --bin kernels -- --validate BENCH_kernels.json

stage "bench dse --smoke"
# The design-space sweep: enumerate the smoke grid (hundreds of candidates),
# prune with the shared hw-budget verifier, rank with the analytical cost
# model, and extract the Pareto front. The binary re-reads and validates its
# own JSON; `--validate` then re-checks the committed report from the
# outside (candidate accounting, non-negative front headrooms, canonical
# order, and the paper's 32x32 baseline on the front). The sweep is
# deterministic, so the regenerated file must match the committed one.
cargo run --release -q -p idgnn-bench --bin dse -- --smoke --out results/dse.json
cargo run --release -q -p idgnn-bench --bin dse -- --validate results/dse.json
git diff --exit-code -- results/dse.json || {
  echo "error: results/dse.json drifted from the committed sweep" >&2
  exit 1
}

stage "bench all (committed figure results must not drift)"
# Every figure binary in one run, from the repo root so it rewrites the
# committed results/*.json and results/report.txt. The figures are
# deterministic at any parallelism, so any diff is a real behaviour change
# that must be committed together with the code that caused it.
# results/lint.json carries the run-varying --timing profile and is
# excluded; results/timings.json is not tracked.
cargo run --release -q -p idgnn-bench --bin all
git diff --exit-code -- results/ ':(exclude)results/lint.json' || {
  echo "error: results/ drifted from the committed figure outputs; rerun \`all\` and commit" >&2
  exit 1
}

stage "bench walkthrough (every Eq. 13-15 identity on the paper's toy graph)"
# Evaluates Eq. 14's seven chains, Eq. 15's transpose regrouping, the fused
# dissimilarity kernels and the Eq. 10 update against (Â')³ − Â³ and full
# recomputation; any identity that fails makes the binary exit 1.
cargo run --release -q -p idgnn-bench --bin walkthrough >/dev/null

stage "long-stream memory gate (peak RSS at 400 snapshots <= 1.10x at 40)"
# The executors stream snapshots and the simulator keeps no per-snapshot
# matrices, so host memory must not grow with the stream. Each length runs
# in its own child process on a size-stationary stream (additions balance
# deletions); the example exits 1 when the long run's peak exceeds the gate.
cargo run --release -q --example long_stream_rss

stage "cargo test --manifest-path perfbench/Cargo.toml"
# The repo benchmark (BENCHMARK.json) lives outside the workspace; its smoke
# test runs every workload at a tiny size through the same exact-reference
# and determinism checks a full run applies.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

stage "perfbench --record-reference (simulated statistics stay bit-identical)"
# Recompute the benchmark's exact statistics (cycles, ops, DRAM bytes, energy
# per workload cell) at the smoke size and at seeds 0, 7 and 42, and require
# every line to appear verbatim in perfbench/reference.txt. A host-speed
# optimization must not move a single simulated bit. This reads perfbench and
# writes only under target/.
ref_out="target/perfbench_reference_check.txt"
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
    --record-reference 0 7 42 > "$ref_out"
if [ ! -s perfbench/reference.txt ] || [ ! -s "$ref_out" ]; then
  echo "error: perfbench/reference.txt or $ref_out is missing or empty" >&2
  exit 1
fi
# grep exits 1 when every line matched, 0 when it printed a drifted line,
# and 2 on a read error; only 1 passes.
drift=0
grep -vxFf perfbench/reference.txt "$ref_out" >&2 || drift=$?
if [ "$drift" -ne 1 ]; then
  echo "error: perfbench statistics drifted from perfbench/reference.txt (lines above, grep status $drift)" >&2
  exit 1
fi

stage "cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (first-party crates, deny warnings)"
# Broken or private intra-doc links fail here. The vendored stubs sit
# outside the workspace lint policy and are not documented; each vendor/
# directory is named after its package.
vendor_excludes=()
for dir in vendor/*/; do
  vendor_excludes+=(--exclude "$(basename "$dir")")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${vendor_excludes[@]}"

stage "bash -n scripts/perf_pairs.sh"
bash -n scripts/perf_pairs.sh

end_stage
echo "ci: all green"
