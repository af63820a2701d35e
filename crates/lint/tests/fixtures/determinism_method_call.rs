// Call-resolution fixture: a free fn that shares its name with
// `Iterator::collect` sits on a deterministic path, and an unrelated fn
// reads the wall clock and calls `.collect()`. Method-call syntax cannot
// reach a free fn, so the clock reader stays off every deterministic path:
// idgnn-lint must exit zero with no ambient-nondeterminism finding.

use std::time::Instant;

/// Exact operation counts (stand-in for the real accounting struct).
pub struct OpStats(pub u64);

/// The deterministic root.
pub fn kernel_stats(n: u64) -> OpStats {
    OpStats(n * 2)
}

/// A free fn named like the iterator method; it feeds the root, so it and
/// every caller of it are on a deterministic path.
pub fn collect(n: u64) -> u64 {
    kernel_stats(n).0
}

/// Reads the wall clock. Its `.collect()` is `Iterator::collect`, not the
/// free fn above, so nothing deterministic reaches or is reached from here.
pub fn wall_clock_samples(n: u64) -> Vec<u128> {
    let t0 = Instant::now();
    (0..n).map(|_| t0.elapsed().as_nanos()).collect()
}

/// The accounting entry point joining the root to the figure pipeline
/// (keeps R6 `opstats-flow` satisfied so this fixture stays clean).
// lint: opstats-sink
pub fn record(stats: OpStats) -> u64 {
    stats.0
}

/// The join point feeding the sink; a bare call does reach the free fn.
pub fn drive(n: u64) -> u64 {
    record(kernel_stats(n)) + collect(n)
}
