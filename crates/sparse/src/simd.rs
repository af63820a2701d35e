//! Chunked (autovectorization-friendly) inner loops for the fused SpGEMM
//! pass and the SpMM AXPY.
//!
//! The scalar SpGEMM reference walks each B-row segment one entry at a
//! time: load a column, check the stamp, branch, store. The loops here
//! process the same segments in fixed-width [`LANES`]-wide chunks: the
//! products `va * b[k, j..j+LANES]` are computed into a stack buffer in one
//! vectorizable pass over contiguous slices, and only the scatter into the
//! dense SPA accumulator stays scalar (its targets are data-dependent).
//! The scatter is *fused*: the stamp check that routes a product to
//! first-touch or accumulate is the same check that discovers the row's
//! structure, so one traversal of the B segments produces both the output
//! columns and their values (`ops::spgemm_row_fused` holds the row loop).
//!
//! ## Why chunking preserves bit-identity
//!
//! Vectorization runs *across columns `j`* of one B-row for a fixed `k`.
//! Within a CSR row every column index appears at most once, so a given
//! accumulator slot `acc[c]` is touched at most once per `k` — chunking the
//! `j` loop cannot reorder the additions any slot receives. Each slot still
//! sees its products in exact ascending-`k` order, which is the scalar
//! path's order, so every intermediate rounding step is identical and the
//! results match bit for bit ([`OpStats`] included; property-tested in
//! `tests/proptests.rs`). The same argument covers [`axpy_chunked`]: output
//! slot `j` accumulates its `k` products in unchanged order.
//!
//! This module allocates no scratch of its own (it is on the lint
//! `hot-path-alloc` surface together with `ops`/`parallel`): the
//! chunk buffers are fixed-size stack arrays, and the only heap growth is
//! the caller's pooled `indices` buffer amortizing over reuse.

use crate::stats::OpStats;
use crate::workspace::Workspace;
use crate::CsrMatrix;

/// Fixed chunk width of the vectorizable inner loops.
///
/// Eight `f32` lanes fill a 256-bit vector register; on narrower hardware
/// the compiler splits the chunk, on wider it fuses iterations — the value
/// only has to be a small power of two, results never depend on it.
pub const LANES: usize = 8;

/// Scatters one product into the SPA accumulator with the discovering stamp
/// check: a first touch stamps the slot, stores the product, and records the
/// column in `indices`; a repeat touch accumulates. Byte-for-byte the
/// per-entry step of the scalar fused pass in `ops`.
#[inline(always)]
fn scatter_fused(
    ws: &mut Workspace,
    generation: usize,
    c: usize,
    p: f32,
    indices: &mut Vec<usize>,
    stats: &mut OpStats,
) {
    // lint: allow(panic-surface) -- in-bounds: `c` is a CSR column of B, below the SPA width
    if ws.stamp[c] == generation {
        stats.adds += 1;
        // lint: allow(panic-surface) -- in-bounds: `c` is a CSR column of B, below the SPA width
        ws.acc[c] += p;
    } else {
        // lint: allow(panic-surface) -- in-bounds: `c` is a CSR column of B, below the SPA width
        ws.stamp[c] = generation;
        // lint: allow(panic-surface) -- in-bounds: `c` is a CSR column of B, below the SPA width
        ws.acc[c] = p;
        indices.push(c);
    }
}

/// The chunked fused pass over one B-row segment of one SpGEMM output row:
/// for `a[r, k] = va`, multiplies the segment `b[k, :]` in [`LANES`]-wide
/// chunks (vectorizable — contiguous slices, no branches) and scatters each
/// product through [`scatter_fused`], discovering structure and
/// accumulating values in the same traversal. `OpStats` multiply counts are
/// hoisted to one addition per segment.
///
/// Bit-identical to the scalar fused pass (see the module docs); the row
/// loop and the ordered-gather emission live in `ops::spgemm_row_fused`.
#[inline]
pub(crate) fn spgemm_segment_fused(
    b: &CsrMatrix,
    k: usize,
    va: f32,
    ws: &mut Workspace,
    generation: usize,
    indices: &mut Vec<usize>,
    stats: &mut OpStats,
) {
    let cols = b.row_indices(k);
    let vals = b.row_values(k);
    stats.mults += cols.len() as u64;
    let mut col_chunks = cols.chunks_exact(LANES);
    let mut val_chunks = vals.chunks_exact(LANES);
    for (cc, vv) in (&mut col_chunks).zip(&mut val_chunks) {
        let mut prod = [0.0f32; LANES];
        for (p, &vb) in prod.iter_mut().zip(vv) {
            *p = va * vb;
        }
        for (&c, &p) in cc.iter().zip(&prod) {
            scatter_fused(ws, generation, c, p, indices, stats);
        }
    }
    for (&c, &vb) in col_chunks.remainder().iter().zip(val_chunks.remainder()) {
        scatter_fused(ws, generation, c, va * vb, indices, stats);
    }
}

/// Chunked dense AXPY: `out[j] += v * x[j]` — the SpMM inner loop.
///
/// Each output slot receives exactly one addition per call, so chunking
/// cannot reorder anything; the chunked form merely hands the compiler two
/// exact-[`LANES`] contiguous slices per step, which removes the
/// tail-length checks from the vectorized body.
#[inline]
pub(crate) fn axpy_chunked(out: &mut [f32], x: &[f32], v: f32) {
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut x_chunks = x.chunks_exact(LANES);
    for (o, xk) in (&mut out_chunks).zip(&mut x_chunks) {
        for (oo, &xv) in o.iter_mut().zip(xk) {
            *oo += v * xv;
        }
    }
    for (oo, &xv) in out_chunks.into_remainder().iter_mut().zip(x_chunks.remainder()) {
        *oo += v * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_chunked_matches_scalar_axpy() {
        // Lengths straddling the chunk width: 0, sub-lane, exact, and ragged.
        for n in [0usize, 1, 7, 8, 9, 16, 37] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let mut chunked: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 1.0).collect();
            let mut scalar = chunked.clone();
            let v = -1.375f32;
            axpy_chunked(&mut chunked, &x, v);
            for (o, &xv) in scalar.iter_mut().zip(&x) {
                *o += v * xv;
            }
            let cb: Vec<u32> = chunked.iter().map(|f| f.to_bits()).collect();
            let sb: Vec<u32> = scalar.iter().map(|f| f.to_bits()).collect();
            assert_eq!(cb, sb, "n={n}");
        }
    }

    #[test]
    fn lanes_is_a_small_power_of_two() {
        assert!(LANES.is_power_of_two());
        const { assert!(LANES <= 64) }
    }

    #[test]
    fn segment_fused_discovers_and_accumulates_in_one_visit() {
        use crate::CooMatrix;
        let mut coo = CooMatrix::new(2, 12);
        for c in 0..12 {
            coo.push(0, c, c as f32 + 0.5).unwrap();
        }
        for c in [1usize, 5, 9] {
            coo.push(1, c, 2.0).unwrap();
        }
        let b = coo.to_csr();
        let mut ws = Workspace::new();
        ws.ensure_width(12);
        let generation = ws.next_generation();
        let mut indices = Vec::new();
        let mut stats = OpStats::default();
        spgemm_segment_fused(&b, 0, 2.0, &mut ws, generation, &mut indices, &mut stats);
        spgemm_segment_fused(&b, 1, 10.0, &mut ws, generation, &mut indices, &mut stats);
        // Row 0 discovers all twelve columns; row 1 only collides.
        assert_eq!(indices.len(), 12);
        assert_eq!(stats.mults, 15);
        assert_eq!(stats.adds, 3);
        assert_eq!(ws.acc[1].to_bits(), (2.0f32 * 1.5 + 10.0 * 2.0).to_bits());
        assert_eq!(ws.acc[2].to_bits(), (2.0f32 * 2.5).to_bits());
    }
}
