//! Sparse arithmetic kernels: SpGEMM, SpMM, sparse addition, matrix powers.
//!
//! Every kernel has a `_with_stats` variant exposing the exact number of
//! scalar multiply and add operations performed ([`OpStats`]). The accelerator
//! model uses these counts directly — the paper's simulator "monitors the
//! number of arithmetic operations" (§VI-A), and so do we.
//!
//! ## Execution modes
//!
//! Each kernel exists in three forms with **bit-identical** results:
//!
//! * `kernel(..)` / `kernel_with_stats(..)` — dispatching entry points: they
//!   run the row-blocked parallel path when [`parallel::current`] selects
//!   more than one thread *and* the output has at least
//!   [`parallel::PARALLEL_MIN_ROWS`] rows, else the serial path;
//! * `kernel_serial_with_stats(..)` — the legacy serial implementation,
//!   always callable so equivalence stays testable;
//! * `kernel_par_with_stats(.., par)` — the explicit row-blocked parallel
//!   implementation (no size threshold).
//!
//! Determinism: rows are computed by the same per-row code in every mode and
//! merged in ascending row-block order; the only cross-block reduction is the
//! exact integer [`OpStats`] fold. See DESIGN.md §7.
//!
//! ## Allocation discipline
//!
//! SpGEMM runs over a reusable [`Workspace`] arena. The default fused pass
//! discovers each row's structure and accumulates its values in a single
//! traversal; the scalar reference keeps the explicit *symbolic* /
//! *numeric* split. Either way the output buffers never re-grow in steady
//! state. Dense scratch and CSR output buffers come from
//! the global pool in [`crate::workspace`]; consumed intermediates are
//! handed back with [`workspace::recycle`], making repeated same-shape
//! products allocation-free in steady state. See DESIGN.md §8.
//!
//! ## Fused vectorized pass, and cache blocking on the reference path
//!
//! The default SpGEMM path is *fused single-visit*: one traversal of each
//! row's B segments both discovers the output structure and accumulates the
//! values, using the chunked inner loops in [`crate::simd`] (products
//! computed in fixed-width autovectorizable chunks, scatter keeping the
//! scalar stamp check). Discovered columns are sorted and the accumulator
//! gathered per row, so emission order — and therefore every bit of the
//! output and every [`OpStats`] count — matches the two-phase reference
//! exactly (each SPA slot still receives its products in ascending-`k`
//! order; see the `simd` module docs for the chunking half of the
//! argument).
//!
//! The scalar reference (`*_scalar_*` entry points) keeps the explicit
//! two-phase structure the fused pass superseded, including its *cache
//! blocking*: symbolic and numeric passes interleave in blocks of at most
//! [`CACHE_BLOCK_ENTRIES`] output entries so the numeric re-walk of the
//! structure (and the B rows it came from) stays L2-resident. Blocking
//! mitigates the re-walk; fusion eliminates it — proving the fused path
//! bit-identical to the blocked two-phase path (property-tested) covers
//! both transformations at once. See DESIGN.md §13.

use crate::error::{Result, SparseError};
use crate::parallel::{self, Parallelism};
use crate::workspace::{self, Workspace};
use crate::{CsrMatrix, DenseMatrix};

/// The parallelism the dispatching entry points use for an output with
/// `rows` rows: the ambient [`parallel::current`] selection, demoted to
/// serial below the [`parallel::PARALLEL_MIN_ROWS`] threshold.
fn auto_parallelism(rows: usize) -> Parallelism {
    let par = parallel::current();
    if par.is_serial() || rows < parallel::PARALLEL_MIN_ROWS {
        Parallelism::serial()
    } else {
        par
    }
}

pub use crate::stats::OpStats;

/// Per-row-block partial CSR output produced by a worker.
struct CsrBlock {
    /// nnz of each row in the block, in row order.
    row_lens: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
    stats: OpStats,
}

/// Concatenates per-block partial CSR outputs (in block order) into a full
/// matrix. Deterministic: blocks arrive in ascending row order by
/// construction ([`parallel::map_blocks`]).
fn assemble_csr(rows: usize, cols: usize, blocks: Vec<CsrBlock>) -> (CsrMatrix, OpStats) {
    let total_nnz: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut indptr = workspace::take_index_buffer(rows + 1);
    indptr.push(0usize);
    let mut stats = OpStats::default();
    let (indices, values) = if blocks.len() == 1 {
        // Single block (the serial path): the block's buffers already hold
        // the full output — move them instead of copying.
        let CsrBlock { row_lens, indices, values, stats: s } = blocks
            .into_iter()
            .next()
            // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
            .expect("length checked above");
        for len in &row_lens {
            // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
            indptr.push(indptr.last().expect("indptr non-empty") + len);
        }
        stats += s;
        workspace::recycle_index_buffer(row_lens);
        (indices, values)
    } else {
        let mut indices = workspace::take_index_buffer(total_nnz);
        let mut values = workspace::take_value_buffer(total_nnz);
        for block in blocks {
            for len in &block.row_lens {
                // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
                indptr.push(indptr.last().expect("indptr non-empty") + len);
            }
            indices.extend_from_slice(&block.indices);
            values.extend_from_slice(&block.values);
            stats += block.stats;
            workspace::recycle_index_buffer(block.row_lens);
            workspace::recycle_index_buffer(block.indices);
            workspace::recycle_value_buffer(block.values);
        }
        (indices, values)
    };
    let m = CsrMatrix::from_raw_parts(rows, cols, indptr, indices, values)
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        .expect("blocked CSR output is valid by construction");
    m.debug_validate("ops::assemble_csr");
    (m, stats)
}

/// Upper bound on output entries per symbolic/numeric cache block.
///
/// At 12 bytes per entry (8-byte index + 4-byte value) the blocked working
/// set tops out near 192 KiB — inside a typical 256 KiB+ L2 — so the numeric
/// pass re-reads the structure the symbolic pass just wrote (and re-walks
/// the same B rows) from cache instead of from memory. The value only
/// affects locality, never results: blocking changes when rows are visited,
/// not what each row computes or the order entries are emitted.
pub const CACHE_BLOCK_ENTRIES: usize = 16 * 1024;

/// The Gustavson SpGEMM inner loop over one contiguous row block — the same
/// code path in the serial and every parallel configuration. Checks a
/// [`Workspace`] out of the global pool for the duration of the block.
fn spgemm_block<const CHUNKED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: std::ops::Range<usize>,
) -> CsrBlock {
    workspace::with_workspace(|ws| spgemm_block_in::<CHUNKED>(a, b, rows, ws))
}

/// Runs the scalar numeric pass for a contiguous batch of already-symbolic'd
/// rows, advancing `emitted` past the batch's entries.
#[allow(clippy::too_many_arguments)]
fn spgemm_numeric_batch(
    a: &CsrMatrix,
    b: &CsrMatrix,
    batch: std::ops::Range<usize>,
    ws: &mut Workspace,
    batch_lens: &[usize],
    indices: &[usize],
    emitted: &mut usize,
    values: &mut Vec<f32>,
    stats: &mut OpStats,
) {
    for (i, r) in batch.enumerate() {
        // lint: allow(panic-surface) -- in-bounds by construction: one length per batch row
        let row_end = *emitted + batch_lens[i];
        // lint: allow(panic-surface) -- in-bounds by construction: the symbolic pass sized this range
        spgemm_row_numeric_scalar(a, b, r, ws, &indices[*emitted..row_end], values, stats);
        *emitted = row_end;
    }
}

/// Gustavson SpGEMM over one row block, using a caller-provided workspace
/// arena.
///
/// `CHUNKED = true` (the default path) runs the fused single-visit pass per
/// row: one traversal of the B segments discovers structure and accumulates
/// values through the chunked loops in [`crate::simd`].
///
/// `CHUNKED = false` is the scalar two-phase reference: a symbolic pass
/// stamps each row's reachable columns and writes the sorted structure, a
/// numeric pass re-walks the segments and accumulates — interleaved in
/// cache blocks of at most [`CACHE_BLOCK_ENTRIES`] output entries so the
/// numeric re-walk hits L2-resident data (see the module docs).
///
/// Both paths emit identical bits and identical [`OpStats`]
/// (property-tested): per SPA slot the products arrive in the same
/// ascending-`k` order, the discovered structure is sorted identically, and
/// blocking only changes when rows are visited, never what they compute.
fn spgemm_block_in<const CHUNKED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: std::ops::Range<usize>,
    ws: &mut Workspace,
) -> CsrBlock {
    ws.ensure_width(b.cols());
    let mut row_lens = workspace::take_index_buffer(rows.len());
    let mut indices = workspace::take_index_buffer(0);
    let mut values = workspace::take_value_buffer(0);
    let mut stats = OpStats::default();
    if CHUNKED {
        for r in rows {
            spgemm_row_fused(
                a,
                b,
                r,
                ws,
                &mut indices,
                &mut values,
                &mut row_lens,
                &mut stats,
            );
        }
        return CsrBlock { row_lens, indices, values, stats };
    }
    let mut emitted = 0usize;
    let mut batch_start = rows.start;
    let mut batch_first_len = 0usize;
    for r in rows.clone() {
        spgemm_row_symbolic(a, b, r, ws, &mut indices, &mut row_lens);
        if indices.len() - emitted >= CACHE_BLOCK_ENTRIES {
            spgemm_numeric_batch(
                a,
                b,
                batch_start..r + 1,
                ws,
                // lint: allow(panic-surface) -- in-bounds: one length was pushed per symbolic'd row
                &row_lens[batch_first_len..],
                &indices,
                &mut emitted,
                &mut values,
                &mut stats,
            );
            batch_start = r + 1;
            batch_first_len = row_lens.len();
        }
    }
    spgemm_numeric_batch(
        a,
        b,
        batch_start..rows.end,
        ws,
        // lint: allow(panic-surface) -- in-bounds: one length was pushed per symbolic'd row
        &row_lens[batch_first_len..],
        &indices,
        &mut emitted,
        &mut values,
        &mut stats,
    );
    CsrBlock { row_lens, indices, values, stats }
}

/// The fused single-visit pass over one output row: for each `a[r, k]` the
/// B segment is multiplied and scattered through
/// [`crate::simd::spgemm_segment_fused`], which stamps, accumulates, and
/// records first-touched columns in one traversal. The discovered columns
/// are then sorted and the accumulator gathered in sorted order — the same
/// emission the two-phase reference produces, so outputs and [`OpStats`]
/// are bit-identical to it (each SPA slot sees its products in the same
/// ascending-`k` order; sorting distinct indices is order-deterministic).
#[allow(clippy::too_many_arguments)]
#[inline]
fn spgemm_row_fused(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    ws: &mut Workspace,
    indices: &mut Vec<usize>,
    values: &mut Vec<f32>,
    row_lens: &mut Vec<usize>,
    stats: &mut OpStats,
) {
    let generation = ws.next_generation();
    let start = indices.len();
    for (k, va) in a.row_iter(r) {
        crate::simd::spgemm_segment_fused(b, k, va, ws, generation, indices, stats);
    }
    // lint: allow(panic-surface) -- in-bounds: `start` was the length of `indices` above
    indices[start..].sort_unstable();
    row_lens.push(indices.len() - start);
    // lint: allow(panic-surface) -- in-bounds: `start` was the length of `indices` above; every gathered column is below `ws.acc.len()`
    values.extend(indices[start..].iter().map(|&c| ws.acc[c]));
}

/// The symbolic (structure-only) pass over one output row — shared verbatim
/// by every SpGEMM entry point, including the row-masked incremental path,
/// so a row recomputed in isolation has the same structure as a cold build.
#[inline]
fn spgemm_row_symbolic(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    ws: &mut Workspace,
    indices: &mut Vec<usize>,
    row_lens: &mut Vec<usize>,
) {
    let generation = ws.next_generation();
    let start = indices.len();
    for (k, _) in a.row_iter(r) {
        for (c, _) in b.row_iter(k) {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            if ws.stamp[c] != generation {
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                ws.stamp[c] = generation;
                indices.push(c);
            }
        }
    }
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    indices[start..].sort_unstable();
    row_lens.push(indices.len() - start);
}

/// The legacy scalar numeric pass, accumulating one product at a time in the
/// same visit order as the original single-pass kernel — kept callable as
/// the reference the fused chunked path is proven against.
#[inline]
fn spgemm_row_numeric_scalar(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    ws: &mut Workspace,
    row_indices: &[usize],
    values: &mut Vec<f32>,
    stats: &mut OpStats,
) {
    let generation = ws.next_generation();
    for (k, va) in a.row_iter(r) {
        for (c, vb) in b.row_iter(k) {
            stats.mults += 1;
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            if ws.stamp[c] == generation {
                stats.adds += 1;
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                ws.acc[c] += va * vb;
            } else {
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                ws.stamp[c] = generation;
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                ws.acc[c] = va * vb;
            }
        }
    }
    for &c in row_indices {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        values.push(ws.acc[c]);
    }
}

/// Sparse × sparse matrix product (Gustavson's row-wise SpGEMM).
///
/// Dispatches between the serial and row-blocked parallel paths (see the
/// module docs); both produce bit-identical results.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    spgemm_with_stats(a, b).map(|(m, _)| m)
}

/// Sparse × sparse product together with exact op counts (dispatching).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn spgemm_with_stats(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, OpStats)> {
    spgemm_par_with_stats(a, b, auto_parallelism(a.rows()))
}

/// Sparse × sparse product on the legacy serial path.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
// lint: allow(opstats-flow) -- serial reference path; only the parallel-equivalence tests run it
pub fn spgemm_serial_with_stats(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, OpStats)> {
    spgemm_par_with_stats(a, b, Parallelism::serial())
}

/// Sparse × sparse product with an explicit worker count.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn spgemm_par_with_stats(
    a: &CsrMatrix,
    b: &CsrMatrix,
    par: Parallelism,
) -> Result<(CsrMatrix, OpStats)> {
    spgemm_par_impl::<true>(a, b, par)
}

/// Sparse × sparse product forced onto the *scalar* numeric pass — the
/// reference the default chunked path is proven bit-identical to (see
/// [`crate::simd`] and `tests/proptests.rs`). Accepts any worker count so
/// the equivalence holds per parallel configuration, not just serially.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
// lint: allow(opstats-flow) -- scalar reference path; only the chunked-equivalence tests run it
pub fn spgemm_scalar_with_stats(
    a: &CsrMatrix,
    b: &CsrMatrix,
    par: Parallelism,
) -> Result<(CsrMatrix, OpStats)> {
    spgemm_par_impl::<false>(a, b, par)
}

fn spgemm_par_impl<const CHUNKED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    par: Parallelism,
) -> Result<(CsrMatrix, OpStats)> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    // Cost-balance by lhs row nnz: Gustavson's per-row work is proportional
    // to the entries visited in `a`'s row, not the row count.
    let blocks = parallel::map_blocks_by_cost(
        a.rows(),
        par,
        |r| a.row_nnz(r) as u64,
        |range| spgemm_block::<CHUNKED>(a, b, range),
    );
    Ok(assemble_csr(a.rows(), b.cols(), blocks))
}

/// Sparse × sparse product on the serial path with a caller-owned
/// [`Workspace`], bypassing the global workspace pool.
///
/// Bit-identical to every other `spgemm` entry point regardless of what the
/// workspace was previously used for (property-tested); lets a tight loop
/// keep one arena hot without pool round-trips.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn spgemm_with_workspace(
    a: &CsrMatrix,
    b: &CsrMatrix,
    ws: &mut Workspace,
) -> Result<(CsrMatrix, OpStats)> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let block = spgemm_block_in::<true>(a, b, 0..a.rows(), ws);
    // lint: allow(hot-path-alloc) -- one-element block list per call, consumed by assemble_csr
    Ok(assemble_csr(a.rows(), b.cols(), vec![block]))
}

/// Sparse × sparse product restricted to a caller-supplied row set: row `j`
/// of the `rows.len()` × `b.cols()` result is row `rows[j]` of `a · b`.
///
/// Each selected row runs the *unchanged* serial per-row routine
/// ([`spgemm_row_fused`]), so recomputed rows are
/// bit-identical to the same rows of a cold [`spgemm`] — the contract the
/// incremental power-chain update relies on (see
/// [`crate::frontier`] and `CsrMatrix::splice_rows`). [`OpStats`] counts only
/// the work actually performed on the selected rows.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`,
/// [`SparseError::InvalidStructure`] if `rows` is not strictly increasing,
/// and [`SparseError::IndexOutOfBounds`] if a row is out of range.
pub fn row_masked_spgemm_with_workspace(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: &[usize],
    ws: &mut Workspace,
) -> Result<(CsrMatrix, OpStats)> {
    row_masked_spgemm_impl::<true>(a, b, rows, ws)
}

/// The row-masked product forced onto the *scalar* numeric pass — the
/// reference for the chunked-equivalence proptests covering the frontier
/// patcher's kernel.
///
/// # Errors
///
/// Same contract as [`row_masked_spgemm_with_workspace`].
// lint: allow(opstats-flow) -- scalar reference path; only the chunked-equivalence tests run it
pub fn row_masked_spgemm_scalar_with_workspace(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: &[usize],
    ws: &mut Workspace,
) -> Result<(CsrMatrix, OpStats)> {
    row_masked_spgemm_impl::<false>(a, b, rows, ws)
}

fn row_masked_spgemm_impl<const CHUNKED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: &[usize],
    ws: &mut Workspace,
) -> Result<(CsrMatrix, OpStats)> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "row_masked_spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    if rows.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SparseError::InvalidStructure {
            reason: "row mask not strictly increasing".into(),
        });
    }
    if let Some(&last) = rows.last() {
        if last >= a.rows() {
            return Err(SparseError::IndexOutOfBounds { index: (last, 0), shape: a.shape() });
        }
    }
    ws.ensure_width(b.cols());
    let mut row_lens = workspace::take_index_buffer(rows.len());
    let mut indices = workspace::take_index_buffer(0);
    let mut values = workspace::take_value_buffer(0);
    let mut stats = OpStats::default();
    if CHUNKED {
        for &r in rows {
            spgemm_row_fused(
                a,
                b,
                r,
                ws,
                &mut indices,
                &mut values,
                &mut row_lens,
                &mut stats,
            );
        }
    } else {
        for &r in rows {
            spgemm_row_symbolic(a, b, r, ws, &mut indices, &mut row_lens);
        }
        values.reserve_exact(indices.len());
        let mut emitted = 0usize;
        for (j, &r) in rows.iter().enumerate() {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            let row_end = emitted + row_lens[j];
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            spgemm_row_numeric_scalar(a, b, r, ws, &indices[emitted..row_end], &mut values, &mut stats);
            emitted = row_end;
        }
    }
    let block = CsrBlock { row_lens, indices, values, stats };
    // lint: allow(hot-path-alloc) -- one-element block list per call, consumed by assemble_csr
    Ok(assemble_csr(rows.len(), b.cols(), vec![block]))
}

/// The exact [`OpStats`] a full [`spgemm`]`(a, b)` would report, computed
/// analytically from the operand structures and the known output nnz —
/// no numeric work.
///
/// The kernel performs one multiply per `(entry of a, entry of the matching
/// b row)` pair and one add per product landing on an already-stamped slot,
/// so `adds = mults − out_nnz`. The incremental power update replays these
/// stats into the figure accounting while only doing the dirty-row fraction
/// of the work (the difference goes to `Dissimilarity::saved`).
pub fn spgemm_replay_stats(a: &CsrMatrix, b: &CsrMatrix, out_nnz: usize) -> OpStats {
    debug_assert_eq!(a.cols(), b.rows());
    let mults: u64 = a.indices().iter().map(|&k| b.row_nnz(k) as u64).sum();
    OpStats::counted(mults, mults.saturating_sub(out_nnz as u64))
}

/// The two-pointer row-merge inner loop of `sp_axpby` over one contiguous
/// row block — the same code path in every execution mode.
///
/// With `PRUNE` the merge drops entries whose combined value fails
/// `v.abs() > 0.0` (exact zeros of either sign, and NaN) as it goes, matching
/// [`CsrMatrix::pruned`]`(0.0)` applied to the unpruned result without a
/// second pass over the output.
fn sp_axpby_block<const PRUNE: bool>(
    alpha: f32,
    a: &CsrMatrix,
    beta: f32,
    b: &CsrMatrix,
    rows: std::ops::Range<usize>,
) -> CsrBlock {
    // Upper bound on the block's output nnz: every merged entry survives.
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    let cap = (a.indptr()[rows.end] - a.indptr()[rows.start])
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        + (b.indptr()[rows.end] - b.indptr()[rows.start]);
    let mut block = CsrBlock {
        row_lens: workspace::take_index_buffer(rows.len()),
        indices: workspace::take_index_buffer(cap),
        values: workspace::take_value_buffer(cap),
        stats: OpStats::default(),
    };
    let push = |block: &mut CsrBlock, c: usize, v: f32| {
        if !PRUNE || v.abs() > 0.0 {
            block.indices.push(c);
            block.values.push(v);
        }
    };
    for r in rows {
        let start = block.indices.len();
        let mut ia = a.row_iter(r).peekable();
        let mut ib = b.row_iter(r).peekable();
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (None, None) => break,
                (Some((ca, va)), None) => {
                    push(&mut block, ca, alpha * va);
                    ia.next();
                }
                (None, Some((cb, vb))) => {
                    push(&mut block, cb, beta * vb);
                    ib.next();
                }
                (Some((ca, va)), Some((cb, vb))) => {
                    if ca == cb {
                        push(&mut block, ca, alpha * va + beta * vb);
                        ia.next();
                        ib.next();
                    } else if ca < cb {
                        push(&mut block, ca, alpha * va);
                        ia.next();
                    } else {
                        push(&mut block, cb, beta * vb);
                        ib.next();
                    }
                }
            }
        }
        block.row_lens.push(block.indices.len() - start);
    }
    block
}

/// Linear combination of two sparse matrices: `alpha * a + beta * b`
/// (dispatching; see the module docs).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_axpby(alpha: f32, a: &CsrMatrix, beta: f32, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby_par(alpha, a, beta, b, auto_parallelism(a.rows()))
}

/// Linear combination on the legacy serial path.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_axpby_serial(alpha: f32, a: &CsrMatrix, beta: f32, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby_par(alpha, a, beta, b, Parallelism::serial())
}

/// Linear combination with an explicit worker count.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_axpby_par(
    alpha: f32,
    a: &CsrMatrix,
    beta: f32,
    b: &CsrMatrix,
    par: Parallelism,
) -> Result<CsrMatrix> {
    sp_axpby_par_impl::<false>(alpha, a, beta, b, par)
}

fn sp_axpby_par_impl<const PRUNE: bool>(
    alpha: f32,
    a: &CsrMatrix,
    beta: f32,
    b: &CsrMatrix,
    par: Parallelism,
) -> Result<CsrMatrix> {
    if a.shape() != b.shape() {
        return Err(SparseError::DimensionMismatch {
            op: "sp_axpby",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    // The two-pointer merge touches every stored entry of both rows.
    let blocks = parallel::map_blocks_by_cost(
        a.rows(),
        par,
        |r| (a.row_nnz(r) + b.row_nnz(r)) as u64,
        |range| sp_axpby_block::<PRUNE>(alpha, a, beta, b, range),
    );
    Ok(assemble_csr(a.rows(), a.cols(), blocks).0)
}

/// Sparse matrix sum `a + b`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_add(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby(1.0, a, 1.0, b)
}

/// Sparse matrix difference `a - b`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_sub(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby(1.0, a, -1.0, b)
}

/// Sparse matrix difference `a - b` with explicit zeros dropped during the
/// merge — bit-identical to `sp_sub(a, b)?.pruned(0.0)` without the second
/// pass over the output.
///
/// This is the DIU kernel (§IV-B): `ΔA = Â^{t+1} − Â^t` where unchanged
/// entries cancel to exact zeros that must not be stored.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_sub_pruned(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    let out = sp_axpby_par_impl::<true>(1.0, a, -1.0, b, auto_parallelism(a.rows()))?;
    out.debug_validate_pruned("ops::sp_sub_pruned");
    Ok(out)
}

/// Sparse × dense product (SpMM): `a * x` where `x` is dense.
///
/// This is the GNN *aggregation* kernel: `A · X`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
pub fn spmm(a: &CsrMatrix, x: &DenseMatrix) -> Result<DenseMatrix> {
    spmm_with_stats(a, x).map(|(m, _)| m)
}

/// The SpMM inner loop over one contiguous row block, returning the dense
/// output rows of the block — the same code path in every execution mode.
/// `CHUNKED` selects the vectorizable AXPY in [`crate::simd`] (the default)
/// or the scalar reference; both are bit-identical because every output
/// slot accumulates its products in unchanged ascending-`k` order.
fn spmm_block<const CHUNKED: bool>(
    a: &CsrMatrix,
    x: &DenseMatrix,
    rows: std::ops::Range<usize>,
) -> (Vec<f32>, OpStats) {
    let k = x.cols();
    let mut out = workspace::take_value_buffer(rows.len() * k);
    out.resize(rows.len() * k, 0.0);
    let mut stats = OpStats::default();
    for (i, r) in rows.enumerate() {
        let row_nnz = a.row_nnz(r) as u64;
        // lint: allow(panic-surface) -- in-bounds: `out` holds `rows.len() * k` values
        let orow = &mut out[i * k..(i + 1) * k];
        for (c, v) in a.row_iter(r) {
            let xrow = x.row(c);
            if CHUNKED {
                crate::simd::axpy_chunked(orow, xrow, v);
            } else {
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        stats.mults += row_nnz * k as u64;
        stats.adds += row_nnz.saturating_sub(1) * k as u64;
    }
    (out, stats)
}

/// Sparse × dense product together with exact op counts (dispatching).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
pub fn spmm_with_stats(a: &CsrMatrix, x: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    spmm_par_with_stats(a, x, auto_parallelism(a.rows()))
}

/// Sparse × dense product on the legacy serial path.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
// lint: allow(opstats-flow) -- serial reference path; only the parallel-equivalence tests run it
pub fn spmm_serial_with_stats(a: &CsrMatrix, x: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    spmm_par_with_stats(a, x, Parallelism::serial())
}

/// Sparse × dense product with an explicit worker count.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
pub fn spmm_par_with_stats(
    a: &CsrMatrix,
    x: &DenseMatrix,
    par: Parallelism,
) -> Result<(DenseMatrix, OpStats)> {
    spmm_par_impl::<true>(a, x, par)
}

/// Sparse × dense product forced onto the *scalar* inner loop — the
/// reference the default chunked AXPY is proven bit-identical to.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
// lint: allow(opstats-flow) -- scalar reference path; only the chunked-equivalence tests run it
pub fn spmm_scalar_with_stats(
    a: &CsrMatrix,
    x: &DenseMatrix,
    par: Parallelism,
) -> Result<(DenseMatrix, OpStats)> {
    spmm_par_impl::<false>(a, x, par)
}

fn spmm_par_impl<const CHUNKED: bool>(
    a: &CsrMatrix,
    x: &DenseMatrix,
    par: Parallelism,
) -> Result<(DenseMatrix, OpStats)> {
    if a.cols() != x.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: x.shape(),
        });
    }
    let k = x.cols();
    // Cost-balance by row nnz: each stored entry drives one width-`k` AXPY.
    let mut blocks = parallel::map_blocks_by_cost(
        a.rows(),
        par,
        |r| a.row_nnz(r) as u64,
        |range| spmm_block::<CHUNKED>(a, x, range),
    );
    let (data, stats) = if blocks.len() == 1 {
        // Single block (the serial path): the chunk *is* the output — move it.
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        blocks.pop().expect("length checked above")
    } else {
        let mut data = workspace::take_value_buffer(a.rows() * k);
        let mut stats = OpStats::default();
        for (chunk, s) in blocks {
            data.extend_from_slice(&chunk);
            stats += s;
            workspace::recycle_value_buffer(chunk);
        }
        (data, stats)
    };
    let out = DenseMatrix::from_vec(a.rows(), k, data)
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        .expect("blocked SpMM output has the declared shape");
    Ok((out, stats))
}

/// `L`-th power of a square sparse matrix by repeated SpGEMM.
///
/// `pow(a, 0)` is the identity.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] if `a` is rectangular.
pub fn sp_pow(a: &CsrMatrix, l: u32) -> Result<CsrMatrix> {
    sp_pow_with_stats(a, l).map(|(m, _)| m)
}

/// `L`-th power together with accumulated op counts.
///
/// Uses the naive left-to-right chain (`A·A·…·A`) rather than
/// square-and-multiply: the chain matches the layer-by-layer receptive-field
/// semantics of the paper and keeps intermediate sparsity realistic. The
/// chain starts at `A` itself, so `pow(a, l)` costs exactly `l − 1` SpGEMMs
/// (the former `I·A` warm-up product is gone); each replaced intermediate is
/// recycled into the workspace buffer pool.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] if `a` is rectangular.
// lint: allow(opstats-flow) -- feeds fusion::fuse_adjacency, today a test-validated reference; wire to the executor before shipping
pub fn sp_pow_with_stats(a: &CsrMatrix, l: u32) -> Result<(CsrMatrix, OpStats)> {
    if a.rows() != a.cols() {
        return Err(SparseError::NotSquare { shape: a.shape() });
    }
    if l == 0 {
        return Ok((CsrMatrix::identity(a.rows()), OpStats::default()));
    }
    let mut stats = OpStats::default();
    let mut acc = a.clone();
    for _ in 1..l {
        let (next, s) = spgemm_with_stats(&acc, a)?;
        workspace::recycle(std::mem::replace(&mut acc, next));
        stats += s;
    }
    Ok((acc, stats))
}

/// Dense × dense product with exact op counts (the GNN *combination* and RNN
/// gate kernels).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn gemm_with_stats(a: &DenseMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    let out = a.matmul(b)?;
    let (m, n, k) = (a.rows() as u64, b.cols() as u64, a.cols() as u64);
    Ok((out, OpStats::counted(m * n * k, m * n * k.saturating_sub(1))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn path_graph(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = path_graph(5);
        let b = path_graph(5);
        let s = spgemm(&a, &b).unwrap();
        let d = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(s.to_dense().approx_eq(&d, 1e-5));
    }

    #[test]
    fn spgemm_identity() {
        let a = path_graph(4);
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm(&a, &i).unwrap(), a);
        assert_eq!(spgemm(&i, &a).unwrap(), a);
    }

    #[test]
    fn spgemm_dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(matches!(spgemm(&a, &b), Err(SparseError::DimensionMismatch { .. })));
    }

    #[test]
    fn spgemm_stats_count_mults() {
        // identity * identity: one mult per row, no accumulation adds.
        let i = CsrMatrix::identity(7);
        let (_, st) = spgemm_with_stats(&i, &i).unwrap();
        assert_eq!(st.mults, 7);
        assert_eq!(st.adds, 0);
    }

    #[test]
    fn spgemm_stats_flops_equal_expanded_products() {
        // For A*B, #mults = Σ_k nnz_col_a(k)*nnz_row_b(k) summed over shared dim.
        let a = path_graph(6);
        let (_, st) = spgemm_with_stats(&a, &a).unwrap();
        let expected: u64 = (0..6)
            .map(|k| a.transpose().row_nnz(k) as u64 * a.row_nnz(k) as u64)
            .sum();
        assert_eq!(st.mults, expected);
    }

    #[test]
    fn sp_add_merges_structures() {
        let mut ca = CooMatrix::new(2, 2);
        ca.push(0, 0, 1.0).unwrap();
        let mut cb = CooMatrix::new(2, 2);
        cb.push(0, 1, 2.0).unwrap();
        cb.push(0, 0, 3.0).unwrap();
        let s = sp_add(&ca.to_csr(), &cb.to_csr()).unwrap();
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(0, 1), 2.0);
    }

    #[test]
    fn sp_sub_self_is_zero() {
        let a = path_graph(5);
        let z = sp_sub(&a, &a).unwrap();
        assert_eq!(z.max_abs(), 0.0);
    }

    #[test]
    fn sp_axpby_coefficients() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(3);
        let m = sp_axpby(2.0, &a, -0.5, &b).unwrap();
        assert_eq!(m.get(1, 1), 1.5);
    }

    #[test]
    fn sp_axpby_shape_mismatch() {
        let a = CsrMatrix::zeros(2, 2);
        let b = CsrMatrix::zeros(3, 3);
        assert!(sp_axpby(1.0, &a, 1.0, &b).is_err());
    }

    #[test]
    fn spmm_matches_dense() {
        let a = path_graph(5);
        let x = DenseMatrix::from_vec(5, 3, (0..15).map(|i| i as f32 * 0.5).collect()).unwrap();
        let y = spmm(&a, &x).unwrap();
        let d = a.to_dense().matmul(&x).unwrap();
        assert!(y.approx_eq(&d, 1e-5));
    }

    #[test]
    fn spmm_dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let x = DenseMatrix::zeros(5, 2);
        assert!(spmm(&a, &x).is_err());
    }

    #[test]
    fn spmm_stats_proportional_to_nnz_times_features() {
        let a = path_graph(4); // nnz = 6
        let x = DenseMatrix::zeros(4, 10);
        let (_, st) = spmm_with_stats(&a, &x).unwrap();
        assert_eq!(st.mults, 6 * 10);
    }

    #[test]
    fn sp_pow_zero_is_identity() {
        let a = path_graph(4);
        assert_eq!(sp_pow(&a, 0).unwrap(), CsrMatrix::identity(4));
    }

    #[test]
    fn sp_pow_matches_dense_power() {
        let a = path_graph(5);
        let p3 = sp_pow(&a, 3).unwrap();
        let d = a.to_dense();
        let d3 = d.matmul(&d).unwrap().matmul(&d).unwrap();
        assert!(p3.to_dense().approx_eq(&d3, 1e-4));
    }

    #[test]
    fn sp_pow_requires_square() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(sp_pow(&a, 2), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn gemm_stats_exact() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(3, 4);
        let (_, st) = gemm_with_stats(&a, &b).unwrap();
        assert_eq!(st.mults, 2 * 4 * 3);
        assert_eq!(st.adds, 2 * 4 * 2);
    }

    #[test]
    fn opstats_arithmetic() {
        let a = OpStats { mults: 1, adds: 2 };
        let b = OpStats { mults: 10, adds: 20 };
        assert_eq!((a + b).total(), 33);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        assert!(format!("{c}").contains("mults: 11"));
    }

    /// Deterministic pseudo-random sparse matrix (LCG; no external deps).
    fn random_sparse(n: usize, nnz: usize, seed: u64) -> CsrMatrix {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..nnz {
            let (r, c) = (step() % n, step() % n);
            let v = (step() % 1000) as f32 / 250.0 - 2.0;
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_csr_identical(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.indptr(), b.indptr());
        assert_eq!(a.indices(), b.indices());
        assert_eq!(bits(a.values()), bits(b.values()));
    }

    #[test]
    fn spgemm_parallel_is_bit_identical_to_serial() {
        let a = random_sparse(97, 600, 1);
        let b = random_sparse(97, 500, 2);
        let (serial, st_s) = spgemm_serial_with_stats(&a, &b).unwrap();
        for threads in [2, 3, 8, 97, 200] {
            let (par, st_p) = spgemm_par_with_stats(&a, &b, Parallelism::new(threads)).unwrap();
            assert_csr_identical(&serial, &par);
            assert_eq!(st_s, st_p, "threads={threads}");
        }
    }

    #[test]
    fn sp_axpby_parallel_is_bit_identical_to_serial() {
        let a = random_sparse(80, 400, 3);
        let b = random_sparse(80, 300, 4);
        let serial = sp_axpby_serial(1.5, &a, -0.25, &b).unwrap();
        for threads in [2, 5, 80] {
            let par = sp_axpby_par(1.5, &a, -0.25, &b, Parallelism::new(threads)).unwrap();
            assert_csr_identical(&serial, &par);
        }
    }

    #[test]
    fn spmm_parallel_is_bit_identical_to_serial() {
        let a = random_sparse(90, 700, 5);
        let x = DenseMatrix::from_vec(
            90,
            7,
            (0..90 * 7).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let (serial, st_s) = spmm_serial_with_stats(&a, &x).unwrap();
        for threads in [2, 4, 90] {
            let (par, st_p) = spmm_par_with_stats(&a, &x, Parallelism::new(threads)).unwrap();
            assert_eq!(bits(serial.as_slice()), bits(par.as_slice()), "threads={threads}");
            assert_eq!(st_s, st_p);
        }
    }

    #[test]
    fn parallel_kernels_handle_empty_and_tiny_inputs() {
        let empty = CsrMatrix::zeros(0, 0);
        let (m, st) = spgemm_par_with_stats(&empty, &empty, Parallelism::new(4)).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(st, OpStats::default());
        let one = CsrMatrix::identity(1);
        let (m, _) = spgemm_par_with_stats(&one, &one, Parallelism::new(4)).unwrap();
        assert_eq!(m, one);
    }

    #[test]
    fn dispatching_entry_points_respect_kernel_scope() {
        // Under a serial scope the dispatcher must produce the serial result;
        // under a 4-thread scope the same call must match it bit-for-bit.
        let a = random_sparse(150, 900, 6);
        let serial = {
            let _guard = parallel::kernel_scope(Parallelism::serial());
            spgemm_with_stats(&a, &a).unwrap()
        };
        let parallel = {
            let _guard = parallel::kernel_scope(Parallelism::new(4));
            spgemm_with_stats(&a, &a).unwrap()
        };
        assert_csr_identical(&serial.0, &parallel.0);
        assert_eq!(serial.1, parallel.1);
    }

    #[test]
    fn sp_sub_pruned_matches_sub_then_prune() {
        for seed in 0..6 {
            let a = random_sparse(60, 300, seed);
            let b = random_sparse(60, 250, seed + 100);
            let reference = sp_sub(&a, &b).unwrap().pruned(0.0);
            let fused = sp_sub_pruned(&a, &b).unwrap();
            assert_csr_identical(&reference, &fused);
            // Subtracting a matrix from itself must yield an empty result.
            let zero = sp_sub_pruned(&a, &a).unwrap();
            assert_eq!(zero.nnz(), 0);
        }
    }

    #[test]
    fn sp_sub_pruned_parallel_matches_serial_composition() {
        let a = random_sparse(200, 1500, 42);
        let b = random_sparse(200, 1400, 43);
        let reference = sp_sub(&a, &b).unwrap().pruned(0.0);
        let _guard = parallel::kernel_scope(Parallelism::new(4));
        assert_csr_identical(&reference, &sp_sub_pruned(&a, &b).unwrap());
    }

    #[test]
    fn spgemm_with_workspace_matches_pooled_path() {
        let a = random_sparse(70, 500, 9);
        let b = random_sparse(70, 450, 10);
        let (reference, st_ref) = spgemm_serial_with_stats(&a, &b).unwrap();
        let mut ws = Workspace::new();
        // Reuse the same arena across calls of different shapes in between.
        let small = random_sparse(5, 10, 11);
        for _ in 0..3 {
            let (m, st) = spgemm_with_workspace(&a, &b, &mut ws).unwrap();
            assert_csr_identical(&reference, &m);
            assert_eq!(st, st_ref);
            let _ = spgemm_with_workspace(&small, &small, &mut ws).unwrap();
        }
    }

    #[test]
    fn row_masked_spgemm_rows_match_full_product() {
        let a = random_sparse(50, 350, 20);
        let b = random_sparse(50, 300, 21);
        let (full, full_stats) = spgemm_serial_with_stats(&a, &b).unwrap();
        let mut ws = Workspace::new();
        let rows = [0usize, 3, 17, 31, 49];
        let (masked, masked_stats) =
            row_masked_spgemm_with_workspace(&a, &b, &rows, &mut ws).unwrap();
        assert_eq!(masked.shape(), (rows.len(), b.cols()));
        for (j, &r) in rows.iter().enumerate() {
            assert_eq!(masked.row_indices(j), full.row_indices(r), "row {r}");
            assert_eq!(bits(masked.row_values(j)), bits(full.row_values(r)), "row {r}");
        }
        assert!(masked_stats.mults < full_stats.mults);
        // Masking every row reproduces the full product, stats included.
        let all: Vec<usize> = (0..a.rows()).collect();
        let (whole, whole_stats) =
            row_masked_spgemm_with_workspace(&a, &b, &all, &mut ws).unwrap();
        assert_csr_identical(&full, &whole);
        assert_eq!(whole_stats, full_stats);
    }

    #[test]
    fn row_masked_spgemm_validates_inputs() {
        let a = random_sparse(10, 40, 22);
        let mut ws = Workspace::new();
        assert!(matches!(
            row_masked_spgemm_with_workspace(&a, &a, &[3, 3], &mut ws),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(matches!(
            row_masked_spgemm_with_workspace(&a, &a, &[2, 10], &mut ws),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        let rect = CsrMatrix::zeros(4, 10);
        assert!(matches!(
            row_masked_spgemm_with_workspace(&a, &rect, &[0], &mut ws).err(),
            Some(SparseError::DimensionMismatch { .. })
        ));
        let (empty, st) = row_masked_spgemm_with_workspace(&a, &a, &[], &mut ws).unwrap();
        assert_eq!(empty.shape(), (0, 10));
        assert_eq!(st, OpStats::default());
    }

    #[test]
    fn replay_stats_match_measured_spgemm_stats() {
        for seed in 0..5 {
            let a = random_sparse(45, 260, seed + 30);
            let b = random_sparse(45, 240, seed + 60);
            let (m, measured) = spgemm_serial_with_stats(&a, &b).unwrap();
            assert_eq!(spgemm_replay_stats(&a, &b, m.nnz()), measured, "seed {seed}");
        }
    }

    #[test]
    fn sp_pow_one_is_a_copy_with_no_ops() {
        let a = path_graph(5);
        let (p, st) = sp_pow_with_stats(&a, 1).unwrap();
        assert_csr_identical(&a, &p);
        assert_eq!(st, OpStats::default());
    }

    #[test]
    fn sp_pow_stats_equal_chained_spgemm_stats() {
        let a = random_sparse(40, 200, 12);
        let (p3, st3) = sp_pow_with_stats(&a, 3).unwrap();
        let (step2, s2) = spgemm_serial_with_stats(&a, &a).unwrap();
        let (step3, s3) = spgemm_serial_with_stats(&step2, &a).unwrap();
        assert_csr_identical(&p3, &step3);
        assert_eq!(st3, s2 + s3);
    }

    #[test]
    fn chunked_numeric_phase_matches_scalar_on_dense_rows() {
        // Rows wide enough to exercise full LANES chunks plus ragged tails,
        // and enough rows to cross several cache blocks when batched.
        let a = random_sparse(300, 20_000, 77);
        let b = random_sparse(300, 18_000, 78);
        for threads in [1usize, 4] {
            let par = Parallelism::new(threads);
            let (scalar, st_s) = spgemm_scalar_with_stats(&a, &b, par).unwrap();
            let (chunked, st_c) = spgemm_par_with_stats(&a, &b, par).unwrap();
            assert_csr_identical(&scalar, &chunked);
            assert_eq!(st_s, st_c, "threads={threads}");
        }
    }

    #[test]
    fn spmm_chunked_matches_scalar_across_widths() {
        let a = random_sparse(150, 2_000, 80);
        // Feature widths straddling the chunk width (LANES = 8).
        for k in [1usize, 7, 8, 9, 33] {
            let x = DenseMatrix::from_vec(
                150,
                k,
                (0..150 * k).map(|i| (i as f32 * 0.11).cos()).collect(),
            )
            .unwrap();
            for threads in [1usize, 4] {
                let par = Parallelism::new(threads);
                let (scalar, st_s) = spmm_scalar_with_stats(&a, &x, par).unwrap();
                let (chunked, st_c) = spmm_par_with_stats(&a, &x, par).unwrap();
                assert_eq!(bits(scalar.as_slice()), bits(chunked.as_slice()), "k={k}");
                assert_eq!(st_s, st_c);
            }
        }
    }

    #[test]
    fn cache_blocking_is_invisible_in_the_output() {
        // An output far larger than one cache block must still be identical
        // to the with-workspace path (which runs the same batched code) and
        // to the scalar reference.
        let a = random_sparse(400, 30_000, 81);
        let (chunked, st_c) = spgemm_with_stats(&a, &a).unwrap();
        assert!(
            chunked.nnz() > CACHE_BLOCK_ENTRIES,
            "test needs multiple cache blocks, got {} entries",
            chunked.nnz()
        );
        let (scalar, st_s) = spgemm_scalar_with_stats(&a, &a, Parallelism::serial()).unwrap();
        assert_csr_identical(&scalar, &chunked);
        assert_eq!(st_s, st_c);
    }

    #[test]
    fn row_masked_scalar_matches_chunked() {
        let a = random_sparse(120, 3_000, 82);
        let rows: Vec<usize> = (0..120).step_by(3).collect();
        let mut ws = Workspace::new();
        let (chunked, st_c) =
            row_masked_spgemm_with_workspace(&a, &a, &rows, &mut ws).unwrap();
        let (scalar, st_s) =
            row_masked_spgemm_scalar_with_workspace(&a, &a, &rows, &mut ws).unwrap();
        assert_csr_identical(&scalar, &chunked);
        assert_eq!(st_s, st_c);
    }

    #[test]
    fn transpose_of_product_is_reversed_product_of_transposes() {
        // (AB)^T = B^T A^T — the identity behind the paper's Eq. 15 trick.
        let a = path_graph(6);
        let mut coo = CooMatrix::new(6, 6);
        coo.push_symmetric(0, 3, 1.0).unwrap();
        coo.push_symmetric(2, 5, 1.0).unwrap();
        let b = coo.to_csr();
        let lhs = spgemm(&a, &b).unwrap().transpose();
        let rhs = spgemm(&b.transpose(), &a.transpose()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-6));
    }
}
