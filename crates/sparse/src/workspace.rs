//! Reusable kernel workspaces and pooled output buffers.
//!
//! The sparse kernels in [`crate::ops`] are called thousands of times per
//! simulated stream (the Eq. 15 chain of seven products runs every
//! snapshot), and the dominant allocation cost is not the output itself but
//! the dense scratch each SpGEMM needs: an `n`-wide accumulator, an `n`-bit
//! column bitmap, and the output `indices`/`values` vectors that re-grow
//! from empty on every call. This module removes that cost:
//!
//! * [`Workspace`] owns the dense accumulator (SPA) and the column bitmap a
//!   Gustavson SpGEMM (or a [`crate::ops::sp_sum_pruned`] term sum) needs.
//!   It is checked out of a global pool per kernel call ([`with_workspace`])
//!   and returned afterwards, so the `O(n)` scratch is written once and
//!   reused across calls. The pool is global rather than thread-local
//!   because the [`crate::parallel::map_items`] workers that run whole
//!   simulations are fresh scoped threads: a thread-local arena would die
//!   with each fan-out, a pooled one serves the next.
//! * A global buffer pool recycles `Vec<usize>` / `Vec<f32>` storage for CSR
//!   outputs. Kernels draw exactly-sized buffers via
//!   `take_index_buffer` / `take_value_buffer`; callers that consume an
//!   intermediate matrix hand its storage back with [`recycle`] (or
//!   [`recycle_dense`] for SpMM outputs). In steady state a repeated
//!   same-shape product allocates no new memory.
//!
//! Reuse is *bit-invisible*: a pooled buffer is cleared before use, and a
//! workspace is returned only at rest — every accumulator slot `-0.0`, every
//! bitmap word zero — so every kernel result is bit-identical to a
//! fresh-allocation run (property-tested in `tests/proptests.rs`). See
//! DESIGN.md §8 for the lifecycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{CsrMatrix, DenseMatrix};

/// Upper bound on pooled workspaces (each holds `O(n)` scratch).
const MAX_POOLED_WORKSPACES: usize = 64;
/// Upper bound on pooled buffers per kind.
const MAX_POOLED_BUFFERS: usize = 256;

/// Dense scratch owned by one SpGEMM worker: accumulator and column bitmap.
///
/// Between rows the workspace is *at rest*: every `acc` slot holds `-0.0`
/// and every `bits` word is zero. A row adds each value into its slot
/// unconditionally — `-0.0` is IEEE-754's additive identity, so the first
/// addition yields the value itself, bit for bit — and sets the slot's bit
/// (64 columns per word). The ordered emission in [`crate::ops`] scans the
/// row's words, clears each as it reads it, and resets every slot it
/// gathers to `-0.0`, so neither array is ever re-filled between rows or
/// between calls.
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) acc: Vec<f32>,
    pub(crate) bits: Vec<u64>,
}

impl Workspace {
    /// Creates an empty workspace (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the accumulator and bitmap to at least `cols` slots, at rest.
    ///
    /// Growth is geometric (next power of two): a workspace alternating
    /// between matrix widths settles at the largest width seen and never
    /// reallocates again, instead of re-growing the SPA on every width
    /// increase past a previous exact fit.
    pub(crate) fn ensure_width(&mut self, cols: usize) {
        if self.acc.len() < cols {
            let target = cols.next_power_of_two();
            self.acc.resize(target, -0.0);
            self.bits.resize(target.div_ceil(64), 0);
        }
    }
}

/// The global recycling pool. A plain mutex is fine here: kernels lock it a
/// handful of times per call (not per row), so contention is dwarfed by the
/// call's arithmetic.
struct Pool {
    workspaces: Vec<Workspace>,
    index_buffers: Vec<Vec<usize>>,
    value_buffers: Vec<Vec<f32>>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    workspaces: Vec::new(),
    index_buffers: Vec::new(),
    value_buffers: Vec::new(),
});

/// Buffer-pool hits (a `take_*` call served from the pool).
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
/// Buffer-pool misses (a `take_*` call that had to allocate).
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Runs `f` with a workspace checked out of the global pool, returning the
/// workspace to the pool afterwards (dropped instead if the pool is full).
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = POOL
        .lock()
        .ok()
        .and_then(|mut p| p.workspaces.pop())
        .unwrap_or_default();
    let out = f(&mut ws);
    if let Ok(mut p) = POOL.lock() {
        if p.workspaces.len() < MAX_POOLED_WORKSPACES {
            p.workspaces.push(ws);
        }
    }
    out
}

/// Takes a cleared index buffer with capacity for at least `cap` entries.
pub(crate) fn take_index_buffer(cap: usize) -> Vec<usize> {
    match POOL.lock().ok().and_then(|mut p| p.index_buffers.pop()) {
        Some(mut v) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.reserve_exact(cap);
            v
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    }
}

/// Takes a cleared value buffer with capacity for at least `cap` entries.
pub(crate) fn take_value_buffer(cap: usize) -> Vec<f32> {
    match POOL.lock().ok().and_then(|mut p| p.value_buffers.pop()) {
        Some(mut v) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.reserve_exact(cap);
            v
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    }
}

/// Returns an index buffer to the pool.
pub(crate) fn recycle_index_buffer(buf: Vec<usize>) {
    if let Ok(mut p) = POOL.lock() {
        if p.index_buffers.len() < MAX_POOLED_BUFFERS {
            p.index_buffers.push(buf);
        }
    }
}

/// Returns a value buffer to the pool.
pub(crate) fn recycle_value_buffer(buf: Vec<f32>) {
    if let Ok(mut p) = POOL.lock() {
        if p.value_buffers.len() < MAX_POOLED_BUFFERS {
            p.value_buffers.push(buf);
        }
    }
}

/// Reclaims a consumed CSR matrix's storage into the buffer pool.
///
/// Call this on intermediates that are about to be dropped (chained products,
/// replaced accumulators): their `indptr`/`indices`/`values` vectors then
/// back the next kernel's output instead of fresh allocations.
pub fn recycle(m: CsrMatrix) {
    let (_, _, indptr, indices, values) = m.into_raw_parts();
    recycle_index_buffer(indptr);
    recycle_index_buffer(indices);
    recycle_value_buffer(values);
}

/// Reclaims a consumed dense matrix's storage into the buffer pool.
pub fn recycle_dense(m: DenseMatrix) {
    recycle_value_buffer(m.into_vec());
}

/// `(hits, misses)` of the global buffer pool since process start.
///
/// Informational (reported by `bench kernels`); tests must not assert on it
/// because the pool is shared across concurrently running tests.
pub fn pool_counters() -> (u64, u64) {
    (POOL_HITS.load(Ordering::Relaxed), POOL_MISSES.load(Ordering::Relaxed))
}

/// Runs `f` on every workspace currently in the pool (test support; holds
/// the pool lock, so `f` must not call a kernel).
#[cfg(test)]
pub(crate) fn for_each_pooled_workspace(mut f: impl FnMut(&Workspace)) {
    if let Ok(p) = POOL.lock() {
        p.workspaces.iter().for_each(&mut f);
    }
}

/// Asserts `ws` is at rest: every accumulator slot `-0.0`
/// (`0x8000_0000`), every bitmap word zero.
#[cfg(test)]
pub(crate) fn assert_at_rest(ws: &Workspace, what: &str) {
    let live = ws.acc.iter().position(|v| v.to_bits() != 0x8000_0000);
    assert_eq!(live, None, "{what}: accumulator slot not at -0.0");
    let set = ws.bits.iter().position(|&w| w != 0);
    assert_eq!(set, None, "{what}: bitmap word left set");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_width_grows_geometrically_at_rest_and_pointer_stable() {
        let mut ws = Workspace::new();
        ws.ensure_width(100);
        assert_eq!(ws.acc.len(), 128, "rounds up to the next power of two");
        assert_eq!(ws.bits.len(), 2);
        assert_at_rest(&ws, "fresh");
        let acc_ptr = ws.acc.as_ptr();
        // Shrink-grow-shrink within the geometric envelope: every call is a
        // no-op, so the backing storage must not move.
        for width in [30usize, 128, 60, 100, 1, 128] {
            ws.ensure_width(width);
            assert_eq!(ws.acc.as_ptr(), acc_ptr, "width {width} reallocated the SPA");
            assert_eq!(ws.acc.len(), 128);
        }
        // Exceeding the envelope grows to the next power of two again, and
        // the new slots rest at -0.0 like the old ones.
        ws.ensure_width(129);
        assert_eq!(ws.acc.len(), 256);
        assert_eq!(ws.bits.len(), 4);
        assert_at_rest(&ws, "grown");
    }

    #[test]
    fn take_returns_cleared_buffer_with_capacity() {
        recycle_index_buffer(vec![7, 8, 9]);
        let buf = take_index_buffer(10);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 10);
        let vals = take_value_buffer(3);
        assert!(vals.is_empty());
        assert!(vals.capacity() >= 3);
    }

    #[test]
    fn recycle_roundtrips_matrix_storage() {
        let m = CsrMatrix::identity(4);
        recycle(m);
        recycle_dense(DenseMatrix::zeros(2, 2));
        let (hits, misses) = pool_counters();
        // Counters only move forward; exact values depend on test ordering.
        assert!(hits + misses > 0 || (hits == 0 && misses == 0));
    }

    #[test]
    fn with_workspace_reuses_scratch() {
        // The checked-out workspace may already be wider (the pool is shared
        // across tests); ensure_width only guarantees a lower bound.
        let width = with_workspace(|ws| {
            ws.ensure_width(32);
            ws.acc.len()
        });
        assert!(width >= 32);
    }
}
