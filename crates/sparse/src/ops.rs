//! Sparse arithmetic kernels: SpGEMM, SpMM, sparse addition, matrix powers.
//!
//! Each op has one entry point: [`spgemm_with_stats`], [`spmm_with_stats`],
//! [`gemm_with_stats`], [`sp_pow_with_stats`], [`sp_add`], [`sp_sub`],
//! [`sp_add_pruned`], [`sp_sub_pruned`] and [`sp_sum_pruned`] (whose rows
//! [`sp_sum_pruned_rows`] streams into a sink, and
//! [`sp_sum_pruned_rows_led`] after a lead product). Every entry
//! that multiplies returns the exact number of scalar multiply and add
//! operations it performed ([`OpStats`]; callers that drop them write `?.0`). The
//! accelerator model uses these counts directly — the paper's simulator
//! "monitors the number of arithmetic operations" (§VI-A), and so do we.
//!
//! ## One thread per call
//!
//! Every entry runs its rows in ascending order on the calling thread. Host
//! parallelism lives one level up, where whole simulations fan out
//! ([`crate::parallel::map_items`]; DESIGN.md §7). The hidden `reference`
//! module holds the scalar oracles only tests need.
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
//! [`sp_sum_pruned_rows_led`] is the same row loop with a lead product
//! `x · b` as the first term, accumulated straight into the sum's SPA by
//! the fused SpGEMM's own row accumulation instead of formed.
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
use crate::workspace::{self, Workspace};
use crate::{CsrMatrix, DenseMatrix};

pub use crate::stats::OpStats;

/// A CSR output under construction: each row's length and its entries, in
/// row order, in pooled buffers.
#[derive(Default)]
struct CsrParts {
    /// nnz of each row, in row order.
    row_lens: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
    stats: OpStats,
}

/// Turns the row lengths of `parts` into `indptr` and moves its buffers into
/// a `rows × cols` matrix.
fn assemble_csr(rows: usize, cols: usize, parts: CsrParts) -> (CsrMatrix, OpStats) {
    let CsrParts { row_lens, indices, values, stats } = parts;
    let mut indptr = workspace::take_index_buffer(rows + 1);
    indptr.push(0usize);
    for len in &row_lens {
        // lint: allow(panic-surface) -- `indptr` starts with the pushed 0 and only grows
        indptr.push(indptr.last().expect("indptr non-empty") + len);
    }
    workspace::recycle_index_buffer(row_lens);
    let m = CsrMatrix::from_raw_parts(rows, cols, indptr, indices, values)
        // lint: allow(panic-surface) -- rows arrive in ascending order with sorted in-range columns, so indptr is monotone and ends at nnz
        .expect("CSR output is valid by construction");
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

/// The scalar oracle's private first-touch marks: `stamp[c] == generation`
/// means column `c` was touched in the current pass. One array per product,
/// fresh at zero, so a generation (bumped per row pass) never aliases.
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

/// Gustavson SpGEMM over every row of `a`, using a caller-provided
/// workspace arena.
///
/// `FUSED = true` (the default path) runs the fused single-visit pass per
/// row: one traversal of the B segments accumulates values and marks
/// structure ([`spgemm_row_fused`]). The product's adds are its multiplies
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
fn spgemm_in<const FUSED: bool>(a: &CsrMatrix, b: &CsrMatrix, ws: &mut Workspace) -> CsrParts {
    let rows = 0..a.rows();
    ws.ensure_width(b.cols());
    // Upper bound on the output nnz, so the output buffers are sized once
    // instead of grown by doubling: a row stores at most one entry per
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
        return CsrParts { row_lens, indices, values, stats };
    }
    // lint: allow(hot-path-alloc) -- scalar oracle: one stamp array per product, not per element
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
    CsrParts { row_lens, indices, values, stats }
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

/// Adds row `r` of the product `x · b` into the SPA, Gustavson style: for
/// each `x[r, k]` in ascending `k`, the segment `b[k, :]` times `x[r, k]`
/// ([`accumulate_segment`]). Returns the row's multiplies and the bits it
/// newly set. Each slot receives its products in ascending-`k` order, which
/// is what makes every consumer of this row accumulation bit-identical to
/// [`spgemm_with_stats`].
#[inline(always)]
fn accumulate_product_row(
    ws: &mut Workspace,
    words: &mut (usize, usize),
    x: &CsrMatrix,
    b: &CsrMatrix,
    r: usize,
) -> (u64, usize) {
    let (mut mults, mut new) = (0u64, 0usize);
    for (k, va) in x.row_iter(r) {
        let cols = b.row_indices(k);
        new += accumulate_segment(ws, words, cols, b.row_values(k), |vb| va * vb);
        mults += cols.len() as u64;
    }
    (mults, new)
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
/// ([`accumulate_product_row`]), marking its column in the same traversal. The
/// row's columns are then drained in ascending order ([`drain_row`]) and
/// the accumulator gathered in that order by one exact-size `extend`,
/// resetting each slot to `-0.0`. That is the emission the two-phase reference
/// produces, so outputs are bit-identical to it (each SPA slot sees its
/// products in the same ascending-`k` order, and `-0.0 + x == x`). Returns
/// the row's multiplies.
///
/// Kept out of line: inlined into [`spgemm_in`], its only caller, the
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
    let (mults, _) = accumulate_product_row(ws, &mut words, a, b, r);
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
    spgemm_impl::<true>(a, b)
}

/// SpGEMM on the fused pass or, with `FUSED` off, the scalar reference, with
/// a [`Workspace`] checked out of the global pool for the call.
fn spgemm_impl<const FUSED: bool>(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, OpStats)> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let parts = workspace::with_workspace(|ws| spgemm_in::<FUSED>(a, b, ws));
    Ok(assemble_csr(a.rows(), b.cols(), parts))
}

/// The two-pointer row-merge of `sp_axpby` over every row.
///
/// With `PRUNE` the merge drops entries whose combined value fails
/// `v.abs() > 0.0` (exact zeros of either sign, and NaN) as it goes, matching
/// [`CsrMatrix::pruned`]`(0.0)` applied to the unpruned result without a
/// second pass over the output.
fn sp_axpby_rows<const PRUNE: bool>(alpha: f32, a: &CsrMatrix, beta: f32, b: &CsrMatrix) -> CsrParts {
    // Upper bound on the output nnz: every merged entry survives.
    let cap = a.nnz() + b.nnz();
    let mut out = CsrParts {
        row_lens: workspace::take_index_buffer(a.rows()),
        indices: workspace::take_index_buffer(cap),
        values: workspace::take_value_buffer(cap),
        stats: OpStats::default(),
    };
    let push = |out: &mut CsrParts, c: usize, v: f32| {
        if !PRUNE || v.abs() > 0.0 {
            out.indices.push(c);
            out.values.push(v);
        }
    };
    for r in 0..a.rows() {
        let start = out.indices.len();
        let mut ia = a.row_iter(r).peekable();
        let mut ib = b.row_iter(r).peekable();
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (None, None) => break,
                (Some((ca, va)), None) => {
                    push(&mut out, ca, alpha * va);
                    ia.next();
                }
                (None, Some((cb, vb))) => {
                    push(&mut out, cb, beta * vb);
                    ib.next();
                }
                (Some((ca, va)), Some((cb, vb))) => {
                    if ca == cb {
                        push(&mut out, ca, alpha * va + beta * vb);
                        ia.next();
                        ib.next();
                    } else if ca < cb {
                        push(&mut out, ca, alpha * va);
                        ia.next();
                    } else {
                        push(&mut out, cb, beta * vb);
                        ib.next();
                    }
                }
            }
        }
        out.row_lens.push(out.indices.len() - start);
    }
    out
}

/// Linear combination of two sparse matrices: `alpha * a + beta * b`, the
/// merge behind [`sp_add`] and [`sp_sub`].
fn sp_axpby(alpha: f32, a: &CsrMatrix, beta: f32, b: &CsrMatrix) -> Result<CsrMatrix> {
    sp_axpby_impl::<false>(alpha, a, beta, b)
}

/// `alpha * a + beta * b`, dropping exact zeros during the merge with `PRUNE`.
fn sp_axpby_impl<const PRUNE: bool>(
    alpha: f32,
    a: &CsrMatrix,
    beta: f32,
    b: &CsrMatrix,
) -> Result<CsrMatrix> {
    if a.shape() != b.shape() {
        return Err(SparseError::DimensionMismatch {
            op: "sp_axpby",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(assemble_csr(a.rows(), a.cols(), sp_axpby_rows::<PRUNE>(alpha, a, beta, b)).0)
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
    let out = sp_axpby_impl::<true>(1.0, a, 1.0, b)?;
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
    let out = sp_axpby_impl::<true>(1.0, a, -1.0, b)?;
    out.debug_validate_pruned("ops::sp_sub_pruned");
    Ok(out)
}

/// A consumer of a row stream: every row of a matrix, handed over once, in
/// ascending order. The streaming entries ([`sp_sum_pruned_rows`],
/// [`sp_rows`]) drive one sink and hand it back.
pub trait RowSink {
    /// Called once, before the first row, with an upper bound on the entries
    /// the rows will hold; a sink that stores them can size its buffers
    /// here. Does nothing by default.
    fn reserve(&mut self, _max_nnz: usize) {}

    /// Receives row `r`: its stored columns in ascending order and their
    /// values. Empty rows are handed over too.
    fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]);
}

/// The [`RowSink`] that assembles a CSR matrix: it appends the rows to
/// pooled output buffers, and [`CsrRows::into_matrix`] moves them into the
/// matrix.
pub struct CsrRows {
    rows: usize,
    cols: usize,
    parts: CsrParts,
}

impl CsrRows {
    /// A sink for the rows of a `rows × cols` matrix. It takes its buffers
    /// from the pool when [`RowSink::reserve`] sizes them.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, parts: CsrParts::default() }
    }

    /// The matrix whose rows the sink received.
    pub fn into_matrix(self) -> CsrMatrix {
        assemble_csr(self.rows, self.cols, self.parts).0
    }
}

impl RowSink for CsrRows {
    // lint: buffer-carrier -- the buffers move into the sink, which `into_matrix` hands to assemble_csr
    fn reserve(&mut self, max_nnz: usize) {
        self.parts.indices = workspace::take_index_buffer(max_nnz);
        self.parts.values = workspace::take_value_buffer(max_nnz);
        self.parts.row_lens = workspace::take_index_buffer(self.rows);
    }

    fn push_row(&mut self, _r: usize, cols: &[usize], vals: &[f32]) {
        self.parts.indices.extend_from_slice(cols);
        self.parts.values.extend_from_slice(vals);
        self.parts.row_lens.push(cols.len());
    }
}

/// The SPA term sum behind [`sp_sum_pruned_rows`] and
/// [`sp_sum_pruned_rows_led`], over a `shape` sum.
///
/// Each row first adds the lead product's row, if there is one, straight
/// into its resting slots ([`accumulate_product_row`], the row SpGEMM
/// would form), then the terms' entries in term order. So a slot holds
/// `((t₀ + t₁) + t₂) + …` over the terms that store it: the pairwise fold's
/// order, with `t₀` the lead product or the first term (`-0.0 + t₀` being
/// `t₀`). Every addend marks its column, and the bits the lead and each
/// term newly set are added to their `prefix_nnz` slot (the unpruned
/// prefix-sum nnz). The row is drained through [`drain_row`], which resets
/// every slot, keeps only values with `v.abs() > 0.0`, and hands the row to
/// `sink`. Returns the lead product's [`OpStats`] as [`spgemm_with_stats`]
/// reports them (zero without a lead): its multiplies, and its adds, the
/// multiplies minus its structural nnz `prefix_nnz[0]`.
///
/// The sink is sized first, so a sink that takes pooled output buffers
/// ([`CsrRows`]) gets the most recently recycled buffer — a recycled
/// matrix's `indices`, usually the largest — rather than the row scratch.
fn sp_sum_rows_in<S: RowSink>(
    lead: Option<(&CsrMatrix, &CsrMatrix)>,
    terms: &[&CsrMatrix],
    (rows, width): (usize, usize),
    prefix_nnz: &mut [usize],
    ws: &mut Workspace,
    sink: &mut S,
) -> OpStats {
    ws.ensure_width(width);
    // Upper bound on the output nnz: every lead row holds at most one entry
    // per multiply and at most `width`, and every term entry is distinct.
    let lead_cap: usize = lead.map_or(0, |(x, b)| {
        (0..rows)
            .map(|r| x.row_indices(r).iter().map(|&k| b.row_nnz(k)).sum::<usize>().min(width))
            .sum()
    });
    sink.reserve(lead_cap + terms.iter().map(|t| t.nnz()).sum::<usize>());
    let mut cols = workspace::take_index_buffer(0);
    let mut vals = workspace::take_value_buffer(0);
    prefix_nnz.fill(0);
    let (lead_nnz, term_nnz) = prefix_nnz.split_at_mut(usize::from(lead.is_some()));
    let mut lead_mults = 0u64;
    for r in 0..rows {
        let mut words = (usize::MAX, 0usize);
        let mut distinct = 0usize;
        if let (Some((x, b)), Some(count)) = (lead, lead_nnz.first_mut()) {
            let (mults, new) = accumulate_product_row(ws, &mut words, x, b, r);
            lead_mults += mults;
            distinct += new;
            *count += distinct;
        }
        for (term, count) in terms.iter().zip(term_nnz.iter_mut()) {
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
    let lead_nnz = lead_nnz.first().map_or(0, |&n| n as u64);
    OpStats::counted(lead_mults, lead_mults - lead_nnz)
}

/// Checks the inputs of a term sum and returns the sum's shape: a lead
/// product whose factors chain, at least one addend, one prefix slot per
/// addend (the lead included), and one shape for the lead product and
/// every term.
fn check_sum_terms(
    lead: Option<(&CsrMatrix, &CsrMatrix)>,
    terms: &[&CsrMatrix],
    prefix_nnz: &[usize],
) -> Result<(usize, usize)> {
    let shape = match (lead, terms.first()) {
        (Some((x, b)), _) if x.cols() != b.rows() => {
            return Err(SparseError::DimensionMismatch {
                op: "sp_sum_pruned lead product",
                lhs: x.shape(),
                rhs: b.shape(),
            });
        }
        (Some((x, b)), _) => (x.rows(), b.cols()),
        (None, Some(first)) => first.shape(),
        (None, None) => {
            return Err(SparseError::InvalidStructure {
                reason: "sp_sum_pruned needs at least one term".into(),
            });
        }
    };
    let addends = terms.len() + usize::from(lead.is_some());
    if prefix_nnz.len() != addends {
        return Err(SparseError::InvalidStructure {
            reason: format!("{} prefix slots for {addends} terms", prefix_nnz.len()),
        });
    }
    if let Some(other) = terms.iter().find(|t| t.shape() != shape) {
        return Err(SparseError::DimensionMismatch {
            op: "sp_sum_pruned",
            lhs: shape,
            rhs: other.shape(),
        });
    }
    Ok(shape)
}

/// Sum of `k` same-shape sparse matrices with exact zeros dropped, streamed
/// row by row into `sink` instead of stored: the rows [`sp_sum_pruned`]
/// assembles, bit for bit, with the same prefix counts. It is
/// [`sp_sum_pruned_rows_led`] without a lead product.
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
/// `sink` is first [reserved](RowSink::reserve) for the terms' total nnz,
/// then receives every row, and is handed back. This is the Eq. 13/15
/// `ΔA_C` term sum of the one-pass kernel: the executor's sink aggregates
/// each row as it arrives and never stores `ΔA_C`.
///
/// # Errors
///
/// Returns [`SparseError::InvalidStructure`] if `terms` is empty or
/// `prefix_nnz.len() != terms.len()`, and
/// [`SparseError::DimensionMismatch`] if the terms differ in shape.
pub fn sp_sum_pruned_rows<S: RowSink>(
    terms: &[&CsrMatrix],
    prefix_nnz: &mut [usize],
    sink: S,
) -> Result<S> {
    sp_sum_rows_checked(None, terms, prefix_nnz, sink).map(|(sink, _)| sink)
}

/// [`sp_sum_pruned_rows`] of the product `x · b` followed by `terms`,
/// without forming `x · b`: each row's Gustavson segments are added
/// straight into the sum's SPA, then the terms on top. `x · b` is the
/// sum's first term `t₀` and takes `prefix_nnz[0]`, so `prefix_nnz` holds
/// `terms.len() + 1` slots; `terms` may be empty.
///
/// The rows are bit for bit those of [`spgemm_with_stats`]`(x, b)` passed
/// as the first term to [`sp_sum_pruned_rows`], and so are the prefix
/// counts: the materialised product forms each `t₀` entry from `-0.0` in
/// ascending-`k` order and the sum adds it to a `-0.0` slot, which gives
/// `t₀` exactly; here the same additions run in the same order in the
/// sum's slot. `prefix_nnz[0]` is the product's structural nnz (stored
/// zeros included), so the returned [`OpStats`] are the product's own, as
/// [`spgemm_with_stats`] reports them: `mults` the segment lengths summed,
/// `adds = mults − prefix_nnz[0]`.
///
/// The sink is [reserved](RowSink::reserve) for an upper bound on the
/// product's nnz plus the terms' total. This is the Eq. 15 `ΔA_C` sum whose
/// lead term `A·ΔA·A = Pᵀ·A` would otherwise be the largest matrix
/// AComb materialises, and the Eq. 13 term `ΔA·(A+ΔA)^{L−1}`.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if `x.cols() != b.rows()` or
/// a term's shape is not `x.rows() × b.cols()`, and
/// [`SparseError::InvalidStructure`] if
/// `prefix_nnz.len() != terms.len() + 1`.
pub fn sp_sum_pruned_rows_led<S: RowSink>(
    (x, b): (&CsrMatrix, &CsrMatrix),
    terms: &[&CsrMatrix],
    prefix_nnz: &mut [usize],
    sink: S,
) -> Result<(S, OpStats)> {
    sp_sum_rows_checked(Some((x, b)), terms, prefix_nnz, sink)
}

/// Validates a term sum ([`check_sum_terms`]) and runs it on a pooled
/// workspace, returning the sink and the lead product's [`OpStats`].
fn sp_sum_rows_checked<S: RowSink>(
    lead: Option<(&CsrMatrix, &CsrMatrix)>,
    terms: &[&CsrMatrix],
    prefix_nnz: &mut [usize],
    mut sink: S,
) -> Result<(S, OpStats)> {
    let shape = check_sum_terms(lead, terms, prefix_nnz)?;
    let stats = workspace::with_workspace(|ws| {
        sp_sum_rows_in(lead, terms, shape, prefix_nnz, ws, &mut sink)
    });
    Ok((sink, stats))
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
    let (rows, cols) = terms.first().map_or((0, 0), |t| t.shape());
    let out = sp_sum_pruned_rows(terms, prefix_nnz, CsrRows::new(rows, cols))?.into_matrix();
    out.debug_validate_pruned("ops::sp_sum_pruned");
    Ok(out)
}

/// Streams the stored rows of `m`, unchanged, into `sink` — first
/// [reserved](RowSink::reserve) for `m.nnz()` entries — and hands it back.
pub fn sp_rows<S: RowSink>(m: &CsrMatrix, mut sink: S) -> S {
    sink.reserve(m.nnz());
    for r in 0..m.rows() {
        sink.push_row(r, m.row_indices(r), m.row_values(r));
    }
    sink
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
    spmm_impl::<true>(a, x)
}

/// SpMM on the chunked AXPY or, with `CHUNKED` off, the scalar reference
/// loop; both are bit-identical because every output slot accumulates its
/// products in unchanged ascending-`k` order.
fn spmm_impl<const CHUNKED: bool>(a: &CsrMatrix, x: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
    if a.cols() != x.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: x.shape(),
        });
    }
    let k = x.cols();
    let mut data = workspace::take_value_buffer(a.rows() * k);
    data.resize(a.rows() * k, 0.0);
    if k > 0 {
        for (r, orow) in data.chunks_exact_mut(k).enumerate() {
            spmm_row_in::<CHUNKED>(orow, a.row_indices(r), a.row_values(r), x);
        }
    }
    let out = DenseMatrix::from_vec(a.rows(), k, data)
        // lint: allow(panic-surface) -- `data` holds `a.rows()` rows of `k` values
        .expect("SpMM output has the declared shape");
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

/// The scalar oracles only tests need: they run the scalar inner loops the
/// default fused (SpGEMM) and chunked (SpMM) paths are proven bit-identical
/// to, and each fails as the production entry it mirrors does.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// SpGEMM on the cache-blocked two-phase *scalar* pass — the oracle the
    /// fused path is proven bit-identical to (see the module docs and
    /// `tests/proptests.rs`).
    // lint: allow(opstats-flow) -- scalar oracle; only the chunked-equivalence tests run it
    pub fn spgemm_scalar(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, OpStats)> {
        spgemm_impl::<false>(a, b)
    }

    /// SpMM on the *scalar* inner loop — the oracle the chunked AXPY is
    /// proven bit-identical to.
    // lint: allow(opstats-flow) -- scalar oracle; only the chunked-equivalence tests run it
    pub fn spmm_scalar(a: &CsrMatrix, x: &DenseMatrix) -> Result<(DenseMatrix, OpStats)> {
        spmm_impl::<false>(a, x)
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
            assert_eq!(spmm_with_stats(m, x).unwrap().1, spmm_stats(m, x.cols()));
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
    fn kernels_handle_empty_and_tiny_inputs() {
        let empty = CsrMatrix::zeros(0, 0);
        let (m, st) = spgemm_with_stats(&empty, &empty).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(st, OpStats::default());
        let one = CsrMatrix::identity(1);
        let (m, _) = spgemm_with_stats(&one, &one).unwrap();
        assert_eq!(m, one);
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
    fn one_workspace_reused_across_shapes_matches_the_pooled_path() {
        let a = random_sparse(70, 500, 9);
        let b = random_sparse(70, 450, 10);
        let (reference, st_ref) = spgemm_with_stats(&a, &b).unwrap();
        let mut ws = Workspace::new();
        // Reuse the same arena across calls of different shapes in between.
        let small = random_sparse(5, 10, 11);
        let mut run = |x: &CsrMatrix, y: &CsrMatrix| {
            let parts = spgemm_in::<true>(x, y, &mut ws);
            assemble_csr(x.rows(), y.cols(), parts)
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
        let (scalar, st_s) = spgemm_scalar(&a, &b).unwrap();
        let (chunked, st_c) = spgemm_with_stats(&a, &b).unwrap();
        assert_csr_identical(&scalar, &chunked);
        assert_eq!(st_s, st_c);
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
            let (scalar, st_s) = spmm_scalar(&a, &x).unwrap();
            let (chunked, st_c) = spmm_with_stats(&a, &x).unwrap();
            assert_eq!(bits(scalar.as_slice()), bits(chunked.as_slice()), "k={k}");
            assert_eq!(st_s, st_c);
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
        let (scalar, st_s) = spgemm_scalar(&a, &a).unwrap();
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
                let parts = if fused {
                    spgemm_in::<true>(a, b, &mut ws)
                } else {
                    spgemm_in::<false>(a, b, &mut ws)
                };
                crate::workspace::assert_at_rest(&ws, &format!("case {i} spgemm fused={fused}"));
                let (p, _) = assemble_csr(a.rows(), b.cols(), parts);
                let neg = p.scale(-1.0);
                let mut sink = CsrRows::new(p.rows(), p.cols());
                sp_sum_rows_in(None, &[&p, &neg, &p], p.shape(), &mut [0; 3], &mut ws, &mut sink);
                crate::workspace::assert_at_rest(&ws, &format!("case {i} sum"));
                workspace::recycle(sink.into_matrix());
                // The lead product a·b, cancelled by its negation and refilled.
                let mut sink = CsrRows::new(p.rows(), p.cols());
                sp_sum_rows_in(Some((a, b)), &[&neg, &p], p.shape(), &mut [0; 3], &mut ws, &mut sink);
                crate::workspace::assert_at_rest(&ws, &format!("case {i} lead sum"));
                workspace::recycle(sink.into_matrix());
            }
            // The pooled entry points.
            let (p, _) = spgemm_with_stats(a, b).unwrap();
            spgemm_scalar(a, b).unwrap();
            sp_sum_pruned(&[&p, &p.scale(f32::NAN)], &mut [0, 0]).unwrap();
            let nan = p.scale(f32::NAN);
            sp_sum_pruned_rows_led((a, b), &[&nan], &mut [0, 0], CsrRows::new(p.rows(), p.cols()))
                .unwrap();
            crate::workspace::for_each_pooled_workspace(|ws| {
                crate::workspace::assert_at_rest(ws, &format!("case {i} pooled"));
            });
        }
    }

    #[test]
    fn sp_sum_pruned_matches_the_pairwise_fold() {
        let terms: Vec<CsrMatrix> = (0..4).map(|i| random_sparse(300, 9_000, 90 + i)).collect();
        let refs: Vec<&CsrMatrix> = terms.iter().collect();
        let mut acc = terms[0].clone();
        let mut want_prefix = vec![acc.nnz()];
        for t in &terms[1..] {
            acc = sp_add(&acc, t).unwrap();
            want_prefix.push(acc.nnz());
        }
        let want = acc.pruned(0.0);
        let mut prefix = [0usize; 4];
        let got = sp_sum_pruned(&refs, &mut prefix).unwrap();
        assert_csr_identical(&want, &got);
        assert_eq!(prefix.to_vec(), want_prefix);
    }

    /// A row sink recording the rows it receives, as value bits, and the
    /// entry bound it was reserved for.
    #[derive(Default)]
    struct Recorded {
        max_nnz: Option<usize>,
        rows: Vec<(usize, Vec<usize>, Vec<u32>)>,
    }

    impl RowSink for Recorded {
        fn reserve(&mut self, max_nnz: usize) {
            assert!(self.max_nnz.is_none() && self.rows.is_empty(), "reserved once, first");
            self.max_nnz = Some(max_nnz);
        }

        fn push_row(&mut self, r: usize, cols: &[usize], vals: &[f32]) {
            self.rows.push((r, cols.to_vec(), bits(vals)));
        }
    }

    /// Requires `sink` to have received `m`'s rows in ascending order, every
    /// row once, as `m` stores them, within its reserved bound.
    fn assert_streams(sink: &Recorded, m: &CsrMatrix, ctx: &str) {
        let received: usize = sink.rows.iter().map(|(_, cols, _)| cols.len()).sum();
        let max_nnz = sink.max_nnz.expect("the sink is reserved");
        assert!(received <= max_nnz, "{ctx}: {received} > {max_nnz}");
        for (next, (r, cols, vals)) in sink.rows.iter().enumerate() {
            assert_eq!(*r, next, "{ctx}: rows must arrive once, ascending");
            assert_eq!(cols.as_slice(), m.row_indices(*r), "{ctx}: row {r}");
            assert_eq!(vals, &bits(m.row_values(*r)), "{ctx}: row {r}");
        }
        assert_eq!(sink.rows.len(), m.rows(), "{ctx}");
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
            let mut want_prefix = vec![0; terms.len()];
            let want = sp_sum_pruned(&terms, &mut want_prefix).unwrap();
            let mut prefix = vec![usize::MAX; terms.len()];
            let sink = sp_sum_pruned_rows(&terms, &mut prefix, Recorded::default()).unwrap();
            assert_streams(&sink, &want, name);
            assert_eq!(prefix, want_prefix, "{name}");
            assert_streams(&sp_rows(&want, Recorded::default()), &want, name);
        }
        // Some case must prune a non-empty row to nothing, and the stored
        // zeros alone must prune to an empty matrix.
        let zero_sum = sp_sum_pruned(&[&zeros], &mut [0]).unwrap();
        assert_eq!(zero_sum.nnz(), 0);
        let cancelled = sp_sum_pruned(&[&a, &neg_a], &mut [0, 0]).unwrap();
        assert_eq!(cancelled.nnz(), 0);
    }

    /// The lead-product sum of `x · b` and `terms` against SpGEMM's product
    /// materialised as the first term of [`sp_sum_pruned`]: rows (streamed
    /// and collected), value bits, prefix counts and the product's stats.
    fn assert_lead_sum_matches(x: &CsrMatrix, b: &CsrMatrix, terms: &[&CsrMatrix], ctx: &str) {
        let (t0, want_st) = spgemm_with_stats(x, b).unwrap();
        let mut refs = vec![&t0];
        refs.extend_from_slice(terms);
        let mut want_prefix = vec![0; refs.len()];
        let want = sp_sum_pruned(&refs, &mut want_prefix).unwrap();
        let mut prefix = vec![usize::MAX; refs.len()];
        let (sink, st) = sp_sum_pruned_rows_led((x, b), terms, &mut prefix, Recorded::default()).unwrap();
        assert_streams(&sink, &want, ctx);
        assert_eq!(prefix, want_prefix, "{ctx}");
        assert_eq!(st, want_st, "{ctx}");
        assert_eq!(st.adds, st.mults - prefix[0] as u64, "{ctx}");
        let (sink, _) =
            sp_sum_pruned_rows_led((x, b), terms, &mut prefix, CsrRows::new(t0.rows(), t0.cols())).unwrap();
        assert_csr_identical(&want, &sink.into_matrix());
    }

    #[test]
    fn lead_product_sum_matches_the_materialised_product_then_the_sum() {
        let n = 200;
        let x = random_sparse(n, 1_500, 41);
        let b = random_sparse(n, 1_500, 42);
        let t = random_sparse(n, 3_000, 43);
        let xb = spgemm_with_stats(&x, &b).unwrap().0;
        let neg_xb = xb.scale(-1.0);
        // Stored ±0.0 and NaN/∞ in the lead operands, on every seventh row.
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).step_by(7) {
            coo.push(r, (r * 3) % n, 0.0).unwrap();
            coo.push(r, (r * 3 + 1) % n, -0.0).unwrap();
            coo.push(r, (r * 5 + 2) % n, f32::NAN).unwrap();
            coo.push(r, (r * 5 + 4) % n, f32::INFINITY).unwrap();
        }
        let specials = coo.to_csr();
        let x_special = sp_add(&x, &specials).unwrap();
        let b_special = sp_add(&b, &specials.transpose()).unwrap();
        // Lead rows 100.. are empty.
        let x_half = CsrMatrix::from_raw_parts(
            n,
            n,
            (0..=n).map(|r| x.indptr()[r.min(100)]).collect(),
            x.indices()[..x.indptr()[100]].to_vec(),
            x.values()[..x.indptr()[100]].to_vec(),
        )
        .unwrap();
        assert_lead_sum_matches(&x, &b, &[&t], "lead, then a term");
        assert_lead_sum_matches(&x, &b, &[], "lead only");
        assert_lead_sum_matches(&x, &b, &[&neg_xb], "exact cancellation");
        assert_lead_sum_matches(&x, &b, &[&neg_xb, &t], "cancel, then refill");
        assert_lead_sum_matches(&x_special, &b_special, &[&t, &specials], "±0.0, NaN and ∞");
        assert_lead_sum_matches(&x_half, &b, &[&t], "empty lead rows");
        let cancelled =
            sp_sum_pruned_rows_led((&x, &b), &[&neg_xb], &mut [0, 0], CsrRows::new(n, n)).unwrap();
        assert_eq!(cancelled.0.into_matrix().nnz(), 0, "the lead must cancel exactly");
        // Empty operands: no rows, no columns, and an empty shared dimension.
        let (e0, e3x0, e0x4) = (CsrMatrix::zeros(0, 0), CsrMatrix::zeros(3, 0), CsrMatrix::zeros(0, 4));
        assert_lead_sum_matches(&e0, &e0, &[], "0×0");
        assert_lead_sum_matches(&e3x0, &e0x4, &[&CsrMatrix::zeros(3, 4)], "3×0 · 0×4");
        assert_lead_sum_matches(&CsrMatrix::zeros(3, 5), &CsrMatrix::zeros(5, 2), &[], "all-empty rows");
    }

    #[test]
    fn lead_product_sum_rejects_mismatched_shapes() {
        let (a3, a4) = (CsrMatrix::identity(3), CsrMatrix::identity(4));
        let wide = CsrMatrix::zeros(3, 4);
        let sink = || CsrRows::new(3, 3);
        // x.cols() ≠ b.rows().
        assert!(matches!(
            sp_sum_pruned_rows_led((&a3, &a4), &[], &mut [0], sink()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        // The lead product is 3×3, a term 3×4 or 4×4.
        for term in [&wide, &a4] {
            assert!(matches!(
                sp_sum_pruned_rows_led((&a3, &a3), &[&a3, term], &mut [0; 3], sink()),
                Err(SparseError::DimensionMismatch { .. })
            ));
        }
        // A 3×4 lead product (3×3 · 3×4) against 3×3 terms.
        assert!(matches!(
            sp_sum_pruned_rows_led((&a3, &wide), &[&a3], &mut [0, 0], sink()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        // One prefix slot for the lead and one per term.
        for slots in [1usize, 3] {
            assert!(matches!(
                sp_sum_pruned_rows_led((&a3, &a3), &[&a3], &mut vec![0; slots], sink()),
                Err(SparseError::InvalidStructure { .. })
            ));
        }
        let (sink, _) = sp_sum_pruned_rows_led((&a3, &wide), &[&wide], &mut [0, 0], CsrRows::new(3, 4)).unwrap();
        assert_eq!(sink.into_matrix().nnz(), 0);
    }

    #[test]
    fn sp_sum_pruned_validates_inputs() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        assert!(matches!(sp_sum_pruned(&[], &mut []), Err(SparseError::InvalidStructure { .. })));
        assert!(matches!(
            sp_sum_pruned_rows(&[&a, &b], &mut [0, 0], CsrRows::new(3, 3)),
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
