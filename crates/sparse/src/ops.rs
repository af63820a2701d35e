//! Sparse arithmetic kernels: SpGEMM, SpMM, sparse addition, matrix powers.
//!
//! Each op has one entry point: [`spgemm_with_stats`], [`spmm_with_stats`],
//! [`gemm_with_stats`], [`sp_pow_with_stats`], [`sp_add`], [`sp_sub`],
//! [`sp_add_pruned`], [`sp_sub_pruned`] and [`sp_sum_pruned`] (whose rows
//! [`sp_sum_pruned_rows`] streams into a sink). Every entry
//! that multiplies returns the exact number of scalar multiply and add
//! operations it performed ([`OpStats`]; callers that drop them write `?.0`). The
//! accelerator model uses these counts directly — the paper's simulator
//! "monitors the number of arithmetic operations" (§VI-A), and so do we.
//!
//! ## Execution modes
//!
//! Every entry runs the row-blocked parallel path when [`parallel::current`]
//! selects more than one thread *and* the output has at least
//! [`parallel::PARALLEL_MIN_ROWS`] rows, else the serial path. Both are
//! **bit-identical**: rows are computed by the same per-row code in every
//! mode and merged in ascending row-block order; the only cross-block
//! reduction is the exact integer [`OpStats`] fold. See DESIGN.md §7. The
//! hidden `reference` module holds what only tests need: forced worker
//! counts and the scalar oracles.
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
//! ## Fused branchless pass, and cache blocking on the reference path
//!
//! The default SpGEMM path is *fused single-visit*: one traversal of each
//! row's B segments both accumulates the values and marks the output
//! structure. Every product is added without a branch into an SPA slot that
//! rests at `-0.0`, and its column's bit is set in the [`Workspace`]
//! bitmap. The row is emitted by a scan of the bitmap words it touched,
//! which yields its columns in ascending order; each gathered slot is reset
//! to `-0.0`.
//!
//! This is bit-identical to the two-phase reference's first-touch store:
//! `-0.0` is IEEE-754's additive identity, so `-0.0 + x` is `x` bit for
//! bit for every `x` — `+0.0`, `-0.0`, infinities and quiet NaNs included.
//! Each slot still receives its products in ascending-`k` order, so every
//! rounding step matches, and every [`OpStats`] count matches with adds
//! equal to multiplies minus output nnz.
//!
//! [`sp_sum_pruned_rows`] reuses the same SPA and emission to add `k` CSR
//! terms in one pass — the `ΔA_C` term sum of Eqs. 13/15 — and hands each
//! pruned row to a [`RowSink`] instead of storing it; [`sp_sum_pruned`] is
//! that sum with the sink that assembles a CSR ([`CsrRows`]).
//!
//! The scalar reference (`reference::spgemm_scalar`) keeps the explicit
//! two-phase structure the fused pass superseded — a private stamp array
//! routing each product to a first-touch store or an accumulate, and a sort
//! per row — including its *cache blocking*: symbolic and numeric passes
//! interleave in blocks of at most [`CACHE_BLOCK_ENTRIES`] output entries
//! so the numeric re-walk of the structure (and the B rows it came from)
//! stays L2-resident. Blocking mitigates the re-walk; fusion eliminates it
//! — proving the fused path bit-identical to the blocked two-phase path
//! (property-tested) covers both transformations at once. See DESIGN.md
//! §8 and §13.

use crate::error::{Result, SparseError};
use crate::parallel::{self, Parallelism};
use crate::workspace::{self, Workspace};
use crate::{CsrMatrix, DenseMatrix};

/// The parallelism the kernel entry points use for an output with
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
            // lint: allow(panic-surface) -- this branch runs only when `blocks.len() == 1`
            .expect("length checked above");
        for len in &row_lens {
            // lint: allow(panic-surface) -- `indptr` starts with the pushed 0 and only grows
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
                // lint: allow(panic-surface) -- `indptr` starts with the pushed 0 and only grows
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
        // lint: allow(panic-surface) -- blocks cover rows in ascending order with sorted in-range columns, so indptr is monotone and ends at nnz
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
fn spgemm_block<const FUSED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: std::ops::Range<usize>,
) -> CsrBlock {
    workspace::with_workspace(|ws| spgemm_block_in::<FUSED>(a, b, rows, ws))
}

/// The scalar oracle's private first-touch marks: `stamp[c] == generation`
/// means column `c` was touched in the current pass. One array per row
/// block, fresh at zero, so a generation (bumped per row pass) never
/// aliases.
struct Stamps {
    stamp: Vec<usize>,
    generation: usize,
}

impl Stamps {
    /// Starts a new pass and returns its generation.
    fn next(&mut self) -> usize {
        self.generation += 1;
        self.generation
    }
}

/// Runs the scalar numeric pass for a contiguous batch of already-symbolic'd
/// rows, advancing `emitted` past the batch's entries.
#[allow(clippy::too_many_arguments)]
fn spgemm_numeric_batch(
    a: &CsrMatrix,
    b: &CsrMatrix,
    batch: std::ops::Range<usize>,
    ws: &mut Workspace,
    stamps: &mut Stamps,
    batch_lens: &[usize],
    indices: &[usize],
    emitted: &mut usize,
    values: &mut Vec<f32>,
    stats: &mut OpStats,
) {
    for (i, r) in batch.enumerate() {
        let row_end = *emitted + batch_lens[i];
        let row_indices = &indices[*emitted..row_end];
        spgemm_row_numeric_scalar(a, b, r, ws, stamps, row_indices, values, stats);
        *emitted = row_end;
    }
}

/// Gustavson SpGEMM over one row block, using a caller-provided workspace
/// arena.
///
/// `FUSED = true` (the default path) runs the fused single-visit pass per
/// row: one traversal of the B segments accumulates values and marks
/// structure ([`spgemm_row_fused`]). A block's adds are its multiplies
/// minus its output nnz: each output entry's first product lands on the
/// `-0.0` rest value, every later one is an add.
///
/// `FUSED = false` is the scalar two-phase reference: a symbolic pass
/// stamps each row's reachable columns and writes the sorted structure, a
/// numeric pass re-walks the segments and stores or accumulates —
/// interleaved in cache blocks of at most [`CACHE_BLOCK_ENTRIES`] output
/// entries so the numeric re-walk hits L2-resident data (see the module
/// docs).
///
/// Both paths emit identical bits and identical [`OpStats`]
/// (property-tested): per SPA slot the products arrive in the same
/// ascending-`k` order, the discovered structure is sorted identically, and
/// blocking only changes when rows are visited, never what they compute.
/// Both leave `ws` at rest.
fn spgemm_block_in<const FUSED: bool>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: std::ops::Range<usize>,
    ws: &mut Workspace,
) -> CsrBlock {
    ws.ensure_width(b.cols());
    // Upper bound on the block's output nnz, so the output buffers are sized
    // once instead of grown by doubling: a row stores at most one entry per
    // multiply, and at most `b.cols()` entries.
    let cap: usize = rows
        .clone()
        .map(|r| {
            let mults: usize = a.row_indices(r).iter().map(|&k| b.row_nnz(k)).sum();
            mults.min(b.cols())
        })
        .sum();
    let mut row_lens = workspace::take_index_buffer(rows.len());
    let mut indices = workspace::take_index_buffer(cap);
    let mut values = workspace::take_value_buffer(cap);
    let mut stats = OpStats::default();
    if FUSED {
        for r in rows {
            stats.mults += spgemm_row_fused(a, b, r, ws, &mut indices, &mut values, &mut row_lens);
        }
        stats.adds = stats.mults - indices.len() as u64;
        return CsrBlock { row_lens, indices, values, stats };
    }
    // lint: allow(hot-path-alloc) -- scalar oracle: one stamp array per row block, not per element
    let mut stamps = Stamps { stamp: vec![0; b.cols()], generation: 0 };
    let mut emitted = 0usize;
    let mut batch_start = rows.start;
    let mut batch_first_len = 0usize;
    for r in rows.clone() {
        spgemm_row_symbolic(a, b, r, &mut stamps, &mut indices, &mut row_lens);
        if indices.len() - emitted >= CACHE_BLOCK_ENTRIES {
            spgemm_numeric_batch(
                a,
                b,
                batch_start..r + 1,
                ws,
                &mut stamps,
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
        &mut stamps,
        &row_lens[batch_first_len..],
        &indices,
        &mut emitted,
        &mut values,
        &mut stats,
    );
    CsrBlock { row_lens, indices, values, stats }
}

/// Adds `value(v)` for each entry `(c, v)` of one CSR row segment into SPA
/// slot `c` and marks column `c` in the bitmap, widening the row's word
/// range `words = (lo, hi)` to cover the segment (an empty range is
/// `(usize::MAX, 0)`). Returns how many bits were newly set.
///
/// The adds are unconditional — a slot rests at `-0.0`, and `-0.0 + x` is
/// `x` bit for bit — so no branch depends on the values. The segment's
/// columns ascend, so its first and last entries bound its words. A sparse
/// segment sets each bit with its own read-modify-write; a dense one (at
/// least two entries per word spanned) gathers each word's bits in a
/// register and writes the word once, instead of chaining every entry
/// through a store-to-load forward on the same word.
#[inline(always)]
fn accumulate_segment(
    ws: &mut Workspace,
    words: &mut (usize, usize),
    cols: &[usize],
    vals: &[f32],
    value: impl Fn(f32) -> f32,
) -> usize {
    let (Some(&first), Some(&last)) = (cols.first(), cols.last()) else {
        return 0;
    };
    let (lo, hi) = (first / 64, last / 64);
    *words = (words.0.min(lo), words.1.max(hi));
    let Workspace { acc, bits } = ws;
    let mut or_word = |w: usize, run: u64| {
        let word = &mut bits[w];
        let new = (run & !*word).count_ones() as usize;
        *word |= run;
        new
    };
    let mut new = 0;
    if cols.len() < 2 * (hi - lo + 1) {
        for (&c, &v) in cols.iter().zip(vals) {
            acc[c] += value(v);
            new += or_word(c / 64, 1u64 << (c % 64));
        }
        return new;
    }
    let (mut run_w, mut run) = (lo, 0u64);
    for (&c, &v) in cols.iter().zip(vals) {
        acc[c] += value(v);
        if c / 64 != run_w {
            new += or_word(run_w, run);
            (run_w, run) = (c / 64, 0);
        }
        run |= 1u64 << (c % 64);
    }
    new + or_word(run_w, run)
}

/// Drains the row marked in [`Workspace`]'s bitmap words `lo..=hi`: calls
/// `emit(c, slot)` for each marked column `c` in ascending order with its
/// accumulator slot, clearing each word as it is read. `emit` must reset
/// the slot to `-0.0` (or leave that to a later gather over the emitted
/// columns), so the workspace is at rest afterwards.
///
/// The scan reads set bits with `trailing_zeros`, `O(n + words spanned)`
/// instead of a comparison sort's `O(n log n)`; the ascending order of a
/// set of distinct indices is unique, so this emits exactly what a sort
/// would.
#[inline(always)]
fn drain_row(
    ws: &mut Workspace,
    (lo, hi): (usize, usize),
    mut emit: impl FnMut(usize, &mut f32),
) {
    for w in lo..=hi {
        let mut word = std::mem::take(&mut ws.bits[w]);
        while word != 0 {
            let c = w * 64 + word.trailing_zeros() as usize;
            emit(c, &mut ws.acc[c]);
            word &= word - 1;
        }
    }
}

/// The fused single-visit pass over one output row: for each `a[r, k]` the
/// B segment is multiplied and each product added into its resting slot
/// ([`accumulate_segment`]), marking its column in the same traversal. The
/// row's columns are then drained in ascending order ([`drain_row`]) and
/// the accumulator gathered in that order by one exact-size `extend`,
/// resetting each slot to `-0.0`. That is the emission the two-phase reference
/// produces, so outputs are bit-identical to it (each SPA slot sees its
/// products in the same ascending-`k` order, and `-0.0 + x == x`). Returns
/// the row's multiplies.
///
/// Kept out of line: inlined into [`spgemm_block_in`], its only caller, the
/// row loop measured 5–10 % slower on the `kernels` bench SpGEMM rows.
#[inline(never)]
fn spgemm_row_fused(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    ws: &mut Workspace,
    indices: &mut Vec<usize>,
    values: &mut Vec<f32>,
    row_lens: &mut Vec<usize>,
) -> u64 {
    let mut words = (usize::MAX, 0usize);
    let mut mults = 0u64;
    for (k, va) in a.row_iter(r) {
        let cols = b.row_indices(k);
        accumulate_segment(ws, &mut words, cols, b.row_values(k), |vb| va * vb);
        mults += cols.len() as u64;
    }
    let start = indices.len();
    drain_row(ws, words, |c, _| indices.push(c));
    row_lens.push(indices.len() - start);
    let acc = &mut ws.acc;
    values.extend(indices[start..].iter().map(|&c| std::mem::replace(&mut acc[c], -0.0)));
    mults
}

/// The symbolic (structure-only) pass of the scalar reference over one
/// output row: stamps each reachable column once and writes the row's
/// sorted structure.
#[inline]
fn spgemm_row_symbolic(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    stamps: &mut Stamps,
    indices: &mut Vec<usize>,
    row_lens: &mut Vec<usize>,
) {
    let generation = stamps.next();
    let start = indices.len();
    for (k, _) in a.row_iter(r) {
        for (c, _) in b.row_iter(k) {
            if stamps.stamp[c] != generation {
                stamps.stamp[c] = generation;
                indices.push(c);
            }
        }
    }
    indices[start..].sort_unstable();
    row_lens.push(indices.len() - start);
}

/// The scalar numeric pass, accumulating one product at a time: a first
/// touch (by the private stamps) stores the product, a repeat touch adds
/// it. Gathering the row's sorted structure resets each slot to `-0.0`,
/// leaving `ws` at rest. Kept callable as the oracle the fused path is
/// proven against.
#[allow(clippy::too_many_arguments)]
#[inline]
fn spgemm_row_numeric_scalar(
    a: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
    ws: &mut Workspace,
    stamps: &mut Stamps,
    row_indices: &[usize],
    values: &mut Vec<f32>,
    stats: &mut OpStats,
) {
    let generation = stamps.next();
    for (k, va) in a.row_iter(r) {
        for (c, vb) in b.row_iter(k) {
            stats.mults += 1;
            if stamps.stamp[c] == generation {
                stats.adds += 1;
                ws.acc[c] += va * vb;
            } else {
                stamps.stamp[c] = generation;
                ws.acc[c] = va * vb;
            }
        }
    }
    for &c in row_indices {
        values.push(std::mem::replace(&mut ws.acc[c], -0.0));
    }
}

/// Sparse × sparse matrix product (Gustavson's row-wise SpGEMM) together
/// with its exact op counts.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn spgemm_with_stats(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, OpStats)> {
    spgemm_par_impl::<true>(a, b, auto_parallelism(a.rows()))
}

fn spgemm_par_impl<const FUSED: bool>(
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
        |range| spgemm_block::<FUSED>(a, b, range),
    );
    Ok(assemble_csr(a.rows(), b.cols(), blocks))
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
    let cap = (a.indptr()[rows.end] - a.indptr()[rows.start])
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

/// Linear combination of two sparse matrices: `alpha * a + beta * b`, the
/// merge behind [`sp_add`] and [`sp_sub`].
fn sp_axpby(alpha: f32, a: &CsrMatrix, beta: f32, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby_par_impl::<false>(alpha, a, beta, b, auto_parallelism(a.rows()))
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

/// Sparse matrix sum `a + b` with explicit zeros dropped during the merge —
/// bit-identical to `sp_add(a, b)?.pruned(0.0)` without the second pass
/// over the output.
///
/// This applies a graph delta: `A^{t+1} = A^t + ΔA`, where a removed edge
/// cancels to an exact zero that must not be stored.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if shapes differ.
pub fn sp_add_pruned(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    let out = sp_axpby_par_impl::<true>(1.0, a, 1.0, b, auto_parallelism(a.rows()))?;
    out.debug_validate_pruned("ops::sp_add_pruned");
    Ok(out)
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

/// A consumer of a row stream: the rows of one contiguous row block, handed
/// over in ascending order. The streaming entries ([`sp_sum_pruned_rows`],
/// [`sp_rows`]) build one sink per row block with a factory, run the blocks
/// on the worker threads [`parallel::current`] selects, and return the
/// sinks in ascending block order, so whatever a caller folds from them in
/// that order is the same at every parallelism.
pub trait RowSink: Send {
    /// Receives row `r`: its stored columns in ascending order and their
    /// values. Empty rows are handed over too.
    fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]);
}

/// The [`RowSink`] that assembles a CSR matrix: each block's sink appends
/// its rows to pooled output buffers, and [`CsrRows::assemble`] concatenates
/// the blocks.
pub struct CsrRows(CsrBlock);

impl CsrRows {
    /// A sink for the rows `rows` that will receive at most `max_nnz`
    /// entries — the signature of the streaming entries' sink factory.
    // lint: buffer-carrier -- the buffers move into the returned sink, which `assemble` hands to assemble_csr
    pub fn with_capacity(rows: std::ops::Range<usize>, max_nnz: usize) -> Self {
        Self(CsrBlock {
            indices: workspace::take_index_buffer(max_nnz),
            values: workspace::take_value_buffer(max_nnz),
            row_lens: workspace::take_index_buffer(rows.len()),
            stats: OpStats::default(),
        })
    }

    /// The `rows × cols` matrix whose rows the `blocks` received, in block
    /// order.
    pub fn assemble(rows: usize, cols: usize, blocks: Vec<CsrRows>) -> CsrMatrix {
        // lint: allow(hot-path-alloc) -- one entry per row block, not per element
        assemble_csr(rows, cols, blocks.into_iter().map(|b| b.0).collect()).0
    }
}

impl RowSink for CsrRows {
    fn push_row(&mut self, _r: usize, cols: &[usize], vals: &[f32]) {
        self.0.indices.extend_from_slice(cols);
        self.0.values.extend_from_slice(vals);
        self.0.row_lens.push(cols.len());
    }
}

/// The SPA term sum of [`sp_sum_pruned_rows`] over one contiguous row block.
///
/// Each row adds the terms' entries into their resting slots in term order
/// (so a slot holds `((t₀ + t₁) + t₂) + …` over the terms that store it —
/// the pairwise fold's order, `-0.0 + t₀` being `t₀`) and marks their
/// columns, counting the bits each term newly sets (the unpruned prefix-sum
/// nnz). It drains the row through [`drain_row`], which resets every slot,
/// keeps only values with `v.abs() > 0.0`, and hands the row to the block's
/// sink.
///
/// Returns the sink with the block's `k` prefix counts in a pooled index
/// buffer, which [`sp_sum_pruned_rows`] sums over blocks and recycles. The
/// sink is built first, so a sink that takes pooled output buffers
/// ([`CsrRows`]) gets the most recently recycled buffer — a recycled
/// matrix's `indices`, usually the largest — rather than the row scratch or
/// the counts.
fn sp_sum_block<S: RowSink>(
    terms: &[&CsrMatrix],
    rows: std::ops::Range<usize>,
    ws: &mut Workspace,
    sink: impl FnOnce(std::ops::Range<usize>, usize) -> S,
) -> (S, Vec<usize>) {
    ws.ensure_width(terms[0].cols());
    // Upper bound on the block's output nnz: every term entry is distinct.
    let cap: usize = terms
        .iter()
        .map(|t| t.indptr()[rows.end] - t.indptr()[rows.start])
        .sum();
    let mut sink = sink(rows.clone(), cap);
    let mut cols = workspace::take_index_buffer(0);
    let mut vals = workspace::take_value_buffer(0);
    let mut prefix = workspace::take_index_buffer(terms.len());
    prefix.resize(terms.len(), 0);
    for r in rows {
        let mut words = (usize::MAX, 0usize);
        let mut distinct = 0usize;
        for (term, count) in terms.iter().zip(prefix.iter_mut()) {
            distinct +=
                accumulate_segment(ws, &mut words, term.row_indices(r), term.row_values(r), |v| v);
            *count += distinct;
        }
        cols.clear();
        vals.clear();
        drain_row(ws, words, |c, slot| {
            let v = std::mem::replace(slot, -0.0);
            if v.abs() > 0.0 {
                cols.push(c);
                vals.push(v);
            }
        });
        sink.push_row(r, &cols, &vals);
    }
    workspace::recycle_index_buffer(cols);
    workspace::recycle_value_buffer(vals);
    (sink, prefix)
}

/// Checks the inputs of a term sum: at least one term, one prefix slot per
/// term, and one shape.
fn check_sum_terms(terms: &[&CsrMatrix], prefix_nnz: &[usize]) -> Result<()> {
    let Some(first) = terms.first() else {
        return Err(SparseError::InvalidStructure {
            reason: "sp_sum_pruned needs at least one term".into(),
        });
    };
    if prefix_nnz.len() != terms.len() {
        return Err(SparseError::InvalidStructure {
            reason: format!("{} prefix slots for {} terms", prefix_nnz.len(), terms.len()),
        });
    }
    if let Some(other) = terms.iter().find(|t| t.shape() != first.shape()) {
        return Err(SparseError::DimensionMismatch {
            op: "sp_sum_pruned",
            lhs: first.shape(),
            rhs: other.shape(),
        });
    }
    Ok(())
}

/// Sum of `k` same-shape sparse matrices with exact zeros dropped, streamed
/// row by row into sinks instead of stored: the rows [`sp_sum_pruned`]
/// assembles, bit for bit, with the same prefix counts.
///
/// Every stored value accumulates its terms in term order through a shared
/// [`Workspace`] SPA resting at `-0.0`, which is the order a left-to-right
/// [`sp_add`] fold adds them in, and each row's columns ascend. Entries
/// whose sum fails `v.abs() > 0.0` (`+0.0`, `-0.0`, NaN) are dropped before
/// the row is handed over. `prefix_nnz[j]` receives the nnz of the
/// *unpruned* prefix sum `t₀ + … + t_j` — the size of the fold's
/// accumulator after term `j` — so callers can account the fold's adds
/// exactly.
///
/// `sink(rows, max_nnz)` builds the [`RowSink`] of the row block `rows`,
/// which receives at most `max_nnz` entries; the sinks come back in
/// ascending block order. This is the Eq. 13/15 `ΔA_C` term sum of the
/// one-pass kernel: the executor's sink aggregates each row as it arrives
/// and never stores `ΔA_C`.
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] if `terms` is empty or
/// `prefix_nnz.len() != terms.len()`, and
/// [`SparseError::DimensionMismatch`] if the terms differ in shape.
pub fn sp_sum_pruned_rows<S, F>(
    terms: &[&CsrMatrix],
    prefix_nnz: &mut [usize],
    sink: F,
) -> Result<Vec<S>>
where
    S: RowSink,
    F: Fn(std::ops::Range<usize>, usize) -> S + Sync,
{
    check_sum_terms(terms, prefix_nnz)?;
    let rows = terms[0].rows();
    Ok(sp_sum_rows_impl(terms, prefix_nnz, sink, auto_parallelism(rows)))
}

fn sp_sum_rows_impl<S, F>(
    terms: &[&CsrMatrix],
    prefix_nnz: &mut [usize],
    sink: F,
    par: Parallelism,
) -> Vec<S>
where
    S: RowSink,
    F: Fn(std::ops::Range<usize>, usize) -> S + Sync,
{
    let blocks = parallel::map_blocks_by_cost(
        terms[0].rows(),
        par,
        |r| terms.iter().map(|t| t.row_nnz(r) as u64).sum(),
        |range| workspace::with_workspace(|ws| sp_sum_block(terms, range, ws, &sink)),
    );
    prefix_nnz.fill(0);
    blocks
        .into_iter()
        .map(|(block, counts)| {
            for (p, &c) in prefix_nnz.iter_mut().zip(&counts) {
                *p += c;
            }
            workspace::recycle_index_buffer(counts);
            block
        })
        // lint: allow(hot-path-alloc) -- one entry per row block, not per element
        .collect()
}

/// Sum of `k` same-shape sparse matrices with exact zeros dropped, in one
/// pass: bit-identical to folding the terms left to right with [`sp_add`]
/// and calling [`CsrMatrix::pruned`]`(0.0)` on the result, without the
/// `k − 1` intermediate matrices. [`sp_sum_pruned_rows`] with the
/// [`CsrRows`] sink; `prefix_nnz` as there.
///
/// # Errors
///
/// As [`sp_sum_pruned_rows`].
pub fn sp_sum_pruned(terms: &[&CsrMatrix], prefix_nnz: &mut [usize]) -> Result<CsrMatrix> {
    let blocks = sp_sum_pruned_rows(terms, prefix_nnz, CsrRows::with_capacity)?;
    let out = CsrRows::assemble(terms[0].rows(), terms[0].cols(), blocks);
    out.debug_validate_pruned("ops::sp_sum_pruned");
    Ok(out)
}

/// Streams the stored rows of `m`, unchanged, into sinks built by
/// `sink(rows, max_nnz)` as in [`sp_sum_pruned_rows`], and returns them in
/// ascending block order.
pub fn sp_rows<S, F>(m: &CsrMatrix, sink: F) -> Vec<S>
where
    S: RowSink,
    F: Fn(std::ops::Range<usize>, usize) -> S + Sync,
{
    parallel::map_blocks_by_cost(
        m.rows(),
        auto_parallelism(m.rows()),
        |r| m.row_nnz(r) as u64,
        |range| {
            let mut s = sink(range.clone(), m.indptr()[range.end] - m.indptr()[range.start]);
            for r in range {
                s.push_row(r, m.row_indices(r), m.row_values(r));
            }
            s
        },
    )
}

/// The SpMM inner loop over one contiguous row block, returning the dense
/// output rows of the block — the same code path in every execution mode.
/// `CHUNKED` selects the vectorizable AXPY in [`crate::simd`] (the default)
/// or the scalar reference; both are bit-identical because every output
/// slot accumulates its products in unchanged ascending-`k` order.
// lint: buffer-carrier -- the checked-out buffer becomes the returned block, which spmm_par_impl moves into the output or recycles
fn spmm_block<const CHUNKED: bool>(
    a: &CsrMatrix,
    x: &DenseMatrix,
    rows: std::ops::Range<usize>,
) -> Vec<f32> {
    let k = x.cols();
    let mut out = workspace::take_value_buffer(rows.len() * k);
    out.resize(rows.len() * k, 0.0);
    for (i, r) in rows.enumerate() {
        let orow = &mut out[i * k..(i + 1) * k];
        spmm_row_in::<CHUNKED>(orow, a.row_indices(r), a.row_values(r), x);
    }
    out
}

/// One SpMM output row: `out += Σ_i vals[i] · x[cols[i], :]`, adding the
/// products in ascending `i` with the chunked AXPY — the row kernel of
/// [`spmm_with_stats`], for a caller that holds one sparse row `(cols,
/// vals)` but no matrix. On an `out` of `+0.0`s it produces bit for bit the
/// row [`spmm_with_stats`] returns for a matrix row `(cols, vals)`.
///
/// # Panics
///
/// If a column is not a row of `x` or `out` is not as wide as `x`'s rows.
pub fn spmm_row_into(out: &mut [f32], cols: &[usize], vals: &[f32], x: &DenseMatrix) {
    spmm_row_in::<true>(out, cols, vals, x);
}

/// [`spmm_row_into`] on the chunked AXPY or, with `CHUNKED` off, on the
/// scalar reference loop ([`reference::spmm_scalar`]).
fn spmm_row_in<const CHUNKED: bool>(out: &mut [f32], cols: &[usize], vals: &[f32], x: &DenseMatrix) {
    for (&c, &v) in cols.iter().zip(vals) {
        let xrow = x.row(c);
        if CHUNKED {
            crate::simd::axpy_chunked(out, xrow, v);
        } else {
            for (o, &xv) in out.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }
}

/// Exact op counts of the SpMM `a · x` over the rows `rows` of `a`, for an
/// `x` of width `k`: each stored entry (explicit zeros included) drives one
/// width-`k` multiply, and a row of `n` entries sums them with `(n − 1)⁺`
/// width-`k` adds, so an empty row costs nothing. Depends on the row
/// lengths of `a` only; a caller that needs the counts but not the product
/// charges these without running it.
pub fn spmm_rows_stats(a: &CsrMatrix, rows: impl IntoIterator<Item = usize>, k: usize) -> OpStats {
    rows.into_iter().fold(OpStats::default(), |stats, r| stats + spmm_row_stats(a.row_nnz(r), k))
}

/// Exact op counts of one SpMM output row over a row of `row_nnz` stored
/// entries and an `x` of width `k` ([`spmm_rows_stats`]' per-row term), for
/// a caller that sees the row but not a matrix holding it.
pub fn spmm_row_stats(row_nnz: usize, k: usize) -> OpStats {
    let (n, k) = (row_nnz as u64, k as u64);
    OpStats::counted(n * k, n.saturating_sub(1) * k)
}

/// Exact op counts of the full SpMM `a · x` for an `x` of width `k`
/// ([`spmm_rows_stats`] over every row): what [`spmm_with_stats`] reports.
pub fn spmm_stats(a: &CsrMatrix, k: usize) -> OpStats {
    spmm_rows_stats(a, 0..a.rows(), k)
}

/// Sparse × dense product (SpMM) `a · x` together with its exact op
/// counts ([`spmm_stats`]) — the GNN *aggregation* kernel `A · X`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != x.rows()`.
pub fn spmm_with_stats(a: &CsrMatrix, x: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    spmm_par_impl::<true>(a, x, auto_parallelism(a.rows()))
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
    let data = if blocks.len() == 1 {
        // Single block (the serial path): the chunk *is* the output — move it.
        // lint: allow(panic-surface) -- this branch runs only when `blocks.len() == 1`
        blocks.pop().expect("length checked above")
    } else {
        let mut data = workspace::take_value_buffer(a.rows() * k);
        for chunk in blocks {
            data.extend_from_slice(&chunk);
            workspace::recycle_value_buffer(chunk);
        }
        data
    };
    let out = DenseMatrix::from_vec(a.rows(), k, data)
        // lint: allow(panic-surface) -- the blocks tile all `a.rows()` rows with `k` values each, so `data` has rows·k values
        .expect("blocked SpMM output has the declared shape");
    Ok((out, spmm_stats(a, k)))
}

/// `L`-th power of a square sparse matrix by repeated SpGEMM, together
/// with the accumulated op counts. `pow(a, 0)` is the identity.
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
// lint: allow(opstats-flow) -- the executor never forms Â^L (Eqs. 13/15 chain ΔA instead); only oracles and the walkthrough call it
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

/// Dense × dense product with exact op counts ([`OpStats::gemm`]; the GNN
/// *combination* kernel).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn gemm_with_stats(a: &DenseMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    let out = a.matmul(b)?;
    Ok((out, OpStats::gemm(a.rows() as u64, b.cols() as u64, a.cols() as u64)))
}

/// Entry points only tests need; each fails as the production entry it
/// mirrors does.
///
/// The `*_at` functions run the production code at `par` workers with no
/// [`parallel::PARALLEL_MIN_ROWS`] threshold, so small inputs still take the
/// row-blocked path; `Parallelism::serial()` gives the serial run. The
/// `*_scalar` functions run the scalar inner loops the default fused
/// (SpGEMM) and chunked (SpMM) paths are proven bit-identical to, at any
/// worker count.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// [`spgemm_with_stats`] at an explicit worker count.
    // lint: allow(opstats-flow) -- forced-worker-count path; only the parallel-equivalence tests run it
    pub fn spgemm_at(
        a: &CsrMatrix,
        b: &CsrMatrix,
        par: Parallelism,
    ) -> Result<(CsrMatrix, OpStats)> {
        spgemm_par_impl::<true>(a, b, par)
    }

    /// [`spmm_with_stats`] at an explicit worker count.
    // lint: allow(opstats-flow) -- forced-worker-count path; only the parallel-equivalence tests run it
    pub fn spmm_at(
        a: &CsrMatrix,
        x: &DenseMatrix,
        par: Parallelism,
    ) -> Result<(DenseMatrix, OpStats)> {
        spmm_par_impl::<true>(a, x, par)
    }

    /// The `alpha * a + beta * b` merge behind [`sp_add`] and [`sp_sub`] at
    /// an explicit worker count.
    pub fn sp_axpby_at(
        alpha: f32,
        a: &CsrMatrix,
        beta: f32,
        b: &CsrMatrix,
        par: Parallelism,
    ) -> Result<CsrMatrix> {
        sp_axpby_par_impl::<false>(alpha, a, beta, b, par)
    }

    /// [`sp_sum_pruned_rows`] at an explicit worker count.
    ///
    /// # Errors
    ///
    /// As [`sp_sum_pruned_rows`].
    pub fn sp_sum_pruned_rows_at<S, F>(
        terms: &[&CsrMatrix],
        prefix_nnz: &mut [usize],
        sink: F,
        par: Parallelism,
    ) -> Result<Vec<S>>
    where
        S: RowSink,
        F: Fn(std::ops::Range<usize>, usize) -> S + Sync,
    {
        check_sum_terms(terms, prefix_nnz)?;
        Ok(sp_sum_rows_impl(terms, prefix_nnz, sink, par))
    }

    /// SpGEMM on the cache-blocked two-phase *scalar* pass — the oracle the
    /// fused path is proven bit-identical to (see the module docs and
    /// `tests/proptests.rs`).
    // lint: allow(opstats-flow) -- scalar oracle; only the chunked-equivalence tests run it
    pub fn spgemm_scalar(
        a: &CsrMatrix,
        b: &CsrMatrix,
        par: Parallelism,
    ) -> Result<(CsrMatrix, OpStats)> {
        spgemm_par_impl::<false>(a, b, par)
    }

    /// SpMM on the *scalar* inner loop — the oracle the chunked AXPY is
    /// proven bit-identical to.
    // lint: allow(opstats-flow) -- scalar oracle; only the chunked-equivalence tests run it
    pub fn spmm_scalar(
        a: &CsrMatrix,
        x: &DenseMatrix,
        par: Parallelism,
    ) -> Result<(DenseMatrix, OpStats)> {
        spmm_par_impl::<false>(a, x, par)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
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
        let s = spgemm_with_stats(&a, &b).unwrap().0;
        let d = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(s.to_dense().approx_eq(&d, 1e-5));
    }

    #[test]
    fn spgemm_identity() {
        let a = path_graph(4);
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm_with_stats(&a, &i).unwrap().0, a);
        assert_eq!(spgemm_with_stats(&i, &a).unwrap().0, a);
    }

    #[test]
    fn spgemm_dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(matches!(spgemm_with_stats(&a, &b), Err(SparseError::DimensionMismatch { .. })));
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
        let y = spmm_with_stats(&a, &x).unwrap().0;
        let d = a.to_dense().matmul(&x).unwrap();
        assert!(y.approx_eq(&d, 1e-5));
    }

    #[test]
    fn spmm_dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let x = DenseMatrix::zeros(5, 2);
        assert!(spmm_with_stats(&a, &x).is_err());
    }

    #[test]
    fn spmm_stats_proportional_to_nnz_times_features() {
        let a = path_graph(4); // nnz = 6
        let x = DenseMatrix::zeros(4, 10);
        let (_, st) = spmm_with_stats(&a, &x).unwrap();
        assert_eq!(st.mults, 6 * 10);
    }

    #[test]
    fn spmm_stats_equal_the_executed_counts_with_empty_rows_and_stored_zeros() {
        // Row lengths 2, 0, 3, 0, 1: rows 1 and 3 are empty, and row 2
        // stores an explicit zero, which still counts as an entry.
        let a = CsrMatrix::from_raw_parts(
            5,
            5,
            vec![0, 2, 2, 5, 5, 6],
            vec![0, 4, 1, 2, 3, 0],
            vec![1.0, 2.0, 0.0, -1.0, 0.5, 3.0],
        )
        .unwrap();
        let x = DenseMatrix::from_vec(5, 3, (0..15).map(|i| i as f32 * 0.25).collect()).unwrap();
        // mults 6 entries × 3; adds (1 + 2 + 0) × 3.
        assert_eq!(spmm_stats(&a, 3), OpStats::counted(18, 9));
        assert_eq!(spmm_rows_stats(&a, [1, 2], 3), OpStats::counted(9, 6));
        let wide = random_sparse(90, 300, 11);
        let xw = DenseMatrix::from_vec(90, 4, (0..360).map(|i| (i as f32).cos()).collect()).unwrap();
        for (m, x) in [(&a, &x), (&wide, &xw)] {
            for threads in [1, 4] {
                let par = Parallelism::new(threads);
                let _scope = parallel::kernel_scope(par);
                assert_eq!(spmm_with_stats(m, x).unwrap().1, spmm_stats(m, x.cols()));
                assert_eq!(spmm_at(m, x, par).unwrap().1, spmm_stats(m, x.cols()));
            }
        }
    }

    #[test]
    fn sp_pow_zero_is_identity() {
        let a = path_graph(4);
        assert_eq!(sp_pow_with_stats(&a, 0).unwrap().0, CsrMatrix::identity(4));
    }

    #[test]
    fn sp_pow_matches_dense_power() {
        let a = path_graph(5);
        let p3 = sp_pow_with_stats(&a, 3).unwrap().0;
        let d = a.to_dense();
        let d3 = d.matmul(&d).unwrap().matmul(&d).unwrap();
        assert!(p3.to_dense().approx_eq(&d3, 1e-4));
    }

    #[test]
    fn sp_pow_requires_square() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(sp_pow_with_stats(&a, 2), Err(SparseError::NotSquare { .. })));
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
        let (serial, st_s) = spgemm_at(&a, &b, Parallelism::serial()).unwrap();
        for threads in [2, 3, 8, 97, 200] {
            let (par, st_p) = spgemm_at(&a, &b, Parallelism::new(threads)).unwrap();
            assert_csr_identical(&serial, &par);
            assert_eq!(st_s, st_p, "threads={threads}");
        }
    }

    #[test]
    fn sp_axpby_parallel_is_bit_identical_to_serial() {
        let a = random_sparse(80, 400, 3);
        let b = random_sparse(80, 300, 4);
        let serial = sp_axpby_at(1.5, &a, -0.25, &b, Parallelism::serial()).unwrap();
        for threads in [2, 5, 80] {
            let par = sp_axpby_at(1.5, &a, -0.25, &b, Parallelism::new(threads)).unwrap();
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
        let (serial, st_s) = spmm_at(&a, &x, Parallelism::serial()).unwrap();
        for threads in [2, 4, 90] {
            let (par, st_p) = spmm_at(&a, &x, Parallelism::new(threads)).unwrap();
            assert_eq!(bits(serial.as_slice()), bits(par.as_slice()), "threads={threads}");
            assert_eq!(st_s, st_p);
        }
    }

    #[test]
    fn parallel_kernels_handle_empty_and_tiny_inputs() {
        let empty = CsrMatrix::zeros(0, 0);
        let (m, st) = spgemm_at(&empty, &empty, Parallelism::new(4)).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(st, OpStats::default());
        let one = CsrMatrix::identity(1);
        let (m, _) = spgemm_at(&one, &one, Parallelism::new(4)).unwrap();
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
    fn one_workspace_reused_across_shapes_matches_the_pooled_path() {
        let a = random_sparse(70, 500, 9);
        let b = random_sparse(70, 450, 10);
        let (reference, st_ref) = spgemm_at(&a, &b, Parallelism::serial()).unwrap();
        let mut ws = Workspace::new();
        // Reuse the same arena across calls of different shapes in between.
        let small = random_sparse(5, 10, 11);
        let mut run = |x: &CsrMatrix, y: &CsrMatrix| {
            let block = spgemm_block_in::<true>(x, y, 0..x.rows(), &mut ws);
            assemble_csr(x.rows(), y.cols(), vec![block])
        };
        for _ in 0..3 {
            let (m, st) = run(&a, &b);
            assert_csr_identical(&reference, &m);
            assert_eq!(st, st_ref);
            let _ = run(&small, &small);
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
        let (step2, s2) = spgemm_with_stats(&a, &a).unwrap();
        let (step3, s3) = spgemm_with_stats(&step2, &a).unwrap();
        assert_csr_identical(&p3, &step3);
        assert_eq!(st3, s2 + s3);
    }

    #[test]
    fn chunked_numeric_phase_matches_scalar_on_dense_rows() {
        // Wide rows spanning many bitmap words, and enough rows to cross
        // several of the reference's cache blocks when batched.
        let a = random_sparse(300, 20_000, 77);
        let b = random_sparse(300, 18_000, 78);
        for threads in [1usize, 4] {
            let par = Parallelism::new(threads);
            let (scalar, st_s) = spgemm_scalar(&a, &b, par).unwrap();
            let (chunked, st_c) = spgemm_at(&a, &b, par).unwrap();
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
                let (scalar, st_s) = spmm_scalar(&a, &x, par).unwrap();
                let (chunked, st_c) = spmm_at(&a, &x, par).unwrap();
                assert_eq!(bits(scalar.as_slice()), bits(chunked.as_slice()), "k={k}");
                assert_eq!(st_s, st_c);
            }
        }
    }

    #[test]
    fn row_kernel_on_zeros_is_the_spmm_row() {
        let a = random_sparse(150, 2_000, 82);
        for k in [1usize, 9, 33] {
            let x = DenseMatrix::from_vec(
                150,
                k,
                (0..150 * k).map(|i| (i as f32 * 0.37).sin()).collect(),
            )
            .unwrap();
            let y = spmm_with_stats(&a, &x).unwrap().0;
            let mut row = vec![0.0f32; k];
            for r in 0..a.rows() {
                row.fill(0.0);
                spmm_row_into(&mut row, a.row_indices(r), a.row_values(r), &x);
                assert_eq!(bits(&row), bits(y.row(r)), "k={k} r={r}");
            }
        }
    }

    #[test]
    fn cache_blocking_is_invisible_in_the_output() {
        // An output far larger than one cache block must still be identical
        // to the scalar reference.
        let a = random_sparse(400, 30_000, 81);
        let (chunked, st_c) = spgemm_with_stats(&a, &a).unwrap();
        assert!(
            chunked.nnz() > CACHE_BLOCK_ENTRIES,
            "test needs multiple cache blocks, got {} entries",
            chunked.nnz()
        );
        let (scalar, st_s) = spgemm_scalar(&a, &a, Parallelism::serial()).unwrap();
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
        let lhs = spgemm_with_stats(&a, &b).unwrap().0.transpose();
        let rhs = spgemm_with_stats(&b.transpose(), &a.transpose()).unwrap().0;
        assert!(lhs.approx_eq(&rhs, 1e-6));
    }

    #[test]
    fn drained_rows_come_out_ascending_and_leave_the_workspace_at_rest() {
        let mut ws = Workspace::new();
        ws.ensure_width(1 << 16);
        for n in [0usize, 1, 2, 31, 32, 33, 64, 65, 700] {
            // Distinct columns marked in scrambled order, spread over many
            // words; a 2-column row spans the whole 1,024-word bitmap.
            let mut cols: Vec<usize> =
                (0..n).map(|i| (i * 2_654_435_761) % ((1 << 16) - 3)).collect();
            cols.sort_unstable();
            cols.dedup();
            let want = cols.clone();
            cols.reverse();
            cols.rotate_left(n / 3);
            let mut words = (usize::MAX, 0);
            for &c in &cols {
                accumulate_segment(&mut ws, &mut words, &[c], &[c as f32], |v| v);
            }
            let mut got = Vec::new();
            drain_row(&mut ws, words, |c, slot| got.push((c, std::mem::replace(slot, -0.0))));
            let want: Vec<(usize, f32)> = want.iter().map(|&c| (c, c as f32)).collect();
            assert_eq!(got, want, "n={n}");
            crate::workspace::assert_at_rest(&ws, &format!("n={n}"));
        }
    }

    /// A matrix whose rows store the given columns, each with value `v`.
    fn rows_of(cols: usize, rows: &[&[usize]], v: f32) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for &c in row.iter() {
                coo.push(r, c, v).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn kernels_leave_every_workspace_at_rest() {
        // Narrow to wide, so one workspace grows between cases: an empty
        // matrix, a matrix with empty rows, and a product whose first row
        // spans B's full (word-ragged) width and sums to NaN and ±∞.
        let full: Vec<usize> = (0..200).collect();
        let cases = [
            (CsrMatrix::zeros(0, 0), CsrMatrix::zeros(0, 0)),
            (CsrMatrix::zeros(3, 4), CsrMatrix::zeros(4, 5)),
            (rows_of(3, &[&[], &[0, 2], &[]], 1.5), rows_of(70, &[&[69], &[], &[0, 64, 69]], -2.0)),
            (
                rows_of(2, &[&[0, 1], &[1]], f32::INFINITY),
                rows_of(200, &[&full, &[0, 63, 64, 199]], -1.0),
            ),
        ];
        let mut ws = Workspace::new();
        for (i, (a, b)) in cases.iter().enumerate() {
            for fused in [true, false] {
                let block = if fused {
                    spgemm_block_in::<true>(a, b, 0..a.rows(), &mut ws)
                } else {
                    spgemm_block_in::<false>(a, b, 0..a.rows(), &mut ws)
                };
                crate::workspace::assert_at_rest(&ws, &format!("case {i} spgemm fused={fused}"));
                let (p, _) = assemble_csr(a.rows(), b.cols(), vec![block]);
                let neg = p.scale(-1.0);
                let (block, prefix) =
                    sp_sum_block(&[&p, &neg, &p], 0..p.rows(), &mut ws, CsrRows::with_capacity);
                crate::workspace::assert_at_rest(&ws, &format!("case {i} sum"));
                workspace::recycle_index_buffer(prefix);
                workspace::recycle(CsrRows::assemble(p.rows(), p.cols(), vec![block]));
            }
            // The pooled entry points, serial and at four workers.
            for threads in [1usize, 4] {
                let par = Parallelism::new(threads);
                let (p, _) = spgemm_at(a, b, par).unwrap();
                spgemm_scalar(a, b, par).unwrap();
                let _guard = parallel::kernel_scope(par);
                sp_sum_pruned(&[&p, &p.scale(f32::NAN)], &mut [0, 0]).unwrap();
                spgemm_with_stats(a, b).unwrap();
            }
            crate::workspace::for_each_pooled_workspace(|ws| {
                crate::workspace::assert_at_rest(ws, &format!("case {i} pooled"));
            });
        }
    }

    #[test]
    fn sp_sum_pruned_parallel_matches_serial_fold() {
        let terms: Vec<CsrMatrix> = (0..4).map(|i| random_sparse(300, 9_000, 90 + i)).collect();
        let refs: Vec<&CsrMatrix> = terms.iter().collect();
        let mut acc = terms[0].clone();
        let mut want_prefix = vec![acc.nnz()];
        for t in &terms[1..] {
            acc = sp_axpby_at(1.0, &acc, 1.0, t, Parallelism::serial()).unwrap();
            want_prefix.push(acc.nnz());
        }
        let want = acc.pruned(0.0);
        for threads in [1usize, 4] {
            let _guard = parallel::kernel_scope(Parallelism::new(threads));
            let mut prefix = [0usize; 4];
            let got = sp_sum_pruned(&refs, &mut prefix).unwrap();
            assert_csr_identical(&want, &got);
            assert_eq!(prefix.to_vec(), want_prefix, "threads={threads}");
        }
    }

    /// A row sink recording the rows it receives, as value bits, and the
    /// block it was built for.
    struct Recorded {
        block: std::ops::Range<usize>,
        max_nnz: usize,
        rows: Vec<(usize, Vec<usize>, Vec<u32>)>,
    }

    impl Recorded {
        fn new(block: std::ops::Range<usize>, max_nnz: usize) -> Self {
            Self { block, max_nnz, rows: Vec::new() }
        }
    }

    impl RowSink for Recorded {
        fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]) {
            self.rows.push((r, cols.to_vec(), bits(vals)));
        }
    }

    /// Requires `blocks` to tile `m`'s rows in ascending order, each block
    /// receiving only its own rows, every row once, as `m` stores it.
    fn assert_streams(blocks: &[Recorded], m: &CsrMatrix, ctx: &str) {
        let mut next = 0;
        for block in blocks {
            assert_eq!(block.block.start, next, "{ctx}: blocks must tile the rows");
            let received: usize = block.rows.iter().map(|(_, cols, _)| cols.len()).sum();
            assert!(received <= block.max_nnz, "{ctx}: {received} > {}", block.max_nnz);
            for (r, cols, vals) in &block.rows {
                assert_eq!(*r, next, "{ctx}: rows must arrive once, ascending");
                assert_eq!(cols.as_slice(), m.row_indices(*r), "{ctx}: row {r}");
                assert_eq!(vals, &bits(m.row_values(*r)), "{ctx}: row {r}");
                next += 1;
            }
            assert_eq!(next, block.block.end, "{ctx}: a block hands over all its rows");
        }
        assert_eq!(next, m.rows(), "{ctx}");
    }

    #[test]
    fn row_sink_streams_the_rows_and_prefix_counts_sp_sum_pruned_assembles() {
        let n = 300;
        let a = random_sparse(n, 6_000, 31);
        let b = random_sparse(n, 4_000, 32);
        let neg_a = a.scale(-1.0);
        // Stored +0.0 and −0.0 on every third row, NaN and ±∞ on every
        // fifth: the sum prunes the zeros and the NaNs (∞ − ∞ included).
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).step_by(3) {
            coo.push(r, (r * 7) % n, 0.0).unwrap();
            coo.push(r, (r * 7 + 1) % n, -0.0).unwrap();
        }
        let zeros = coo.to_csr();
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).step_by(5) {
            coo.push(r, (r * 11) % n, f32::NAN).unwrap();
            coo.push(r, (r * 11 + 2) % n, f32::INFINITY).unwrap();
        }
        let specials = coo.to_csr();
        let neg_specials = specials.scale(-1.0);
        let cases: [(&str, Vec<&CsrMatrix>); 6] = [
            ("single term", vec![&a]),
            ("single term of stored zeros", vec![&zeros]),
            ("rows that cancel to empty", vec![&a, &neg_a]),
            ("cancel, then refill", vec![&a, &neg_a, &b]),
            ("stored zeros and NaN terms", vec![&a, &zeros, &b, &specials]),
            ("∞ − ∞", vec![&specials, &b, &neg_specials]),
        ];
        for (name, terms) in cases {
            let (want, want_prefix) = {
                let _serial = parallel::kernel_scope(Parallelism::serial());
                let mut prefix = vec![0; terms.len()];
                (sp_sum_pruned(&terms, &mut prefix).unwrap(), prefix)
            };
            for threads in [1usize, 4] {
                let ctx = format!("{name}, threads={threads}");
                let mut prefix = vec![usize::MAX; terms.len()];
                let blocks = sp_sum_pruned_rows_at(
                    &terms,
                    &mut prefix,
                    Recorded::new,
                    Parallelism::new(threads),
                )
                .unwrap();
                assert_eq!(blocks.len() > 1, threads > 1, "{ctx}");
                assert_streams(&blocks, &want, &ctx);
                assert_eq!(prefix, want_prefix, "{ctx}");
                // The dispatching entry, under the same worker count.
                let _scope = parallel::kernel_scope(Parallelism::new(threads));
                prefix.fill(usize::MAX);
                let blocks = sp_sum_pruned_rows(&terms, &mut prefix, Recorded::new).unwrap();
                assert_streams(&blocks, &want, &ctx);
                assert_eq!(prefix, want_prefix, "{ctx}");
                assert_streams(&sp_rows(&want, Recorded::new), &want, &ctx);
            }
        }
        // Some case must prune a non-empty row to nothing, and the stored
        // zeros alone must prune to an empty matrix.
        let zero_sum = sp_sum_pruned(&[&zeros], &mut [0]).unwrap();
        assert_eq!(zero_sum.nnz(), 0);
        let cancelled = sp_sum_pruned(&[&a, &neg_a], &mut [0, 0]).unwrap();
        assert_eq!(cancelled.nnz(), 0);
    }

    #[test]
    fn sp_sum_pruned_validates_inputs() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        assert!(matches!(sp_sum_pruned(&[], &mut []), Err(SparseError::InvalidStructure { .. })));
        assert!(matches!(
            sp_sum_pruned_rows(&[&a, &b], &mut [0, 0], CsrRows::with_capacity),
            Err(SparseError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            sp_sum_pruned(&[&a, &a], &mut [0]),
            Err(SparseError::InvalidStructure { .. })
        ));
        assert!(matches!(
            sp_sum_pruned(&[&a, &b], &mut [0, 0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
        // A term and its negation cancel to an empty matrix whose unpruned
        // prefix still counts every merged entry.
        let mut prefix = [0usize; 2];
        let zero = sp_sum_pruned(&[&a, &a.scale(-1.0)], &mut prefix).unwrap();
        assert_eq!(zero.nnz(), 0);
        assert_eq!(prefix, [3, 3]);
    }
}
