//! Chunked (autovectorization-friendly) inner loop for the SpMM AXPY.
//!
//! `axpy_chunked` processes a dense row in fixed-width [`LANES`]-wide
//! chunks: two exact-width contiguous slices per step, so the compiler
//! vectorizes the body without tail-length checks.
//!
//! ## Why chunking preserves bit-identity
//!
//! Each output slot `out[j]` receives exactly one addition per call, and
//! successive calls (one per stored `a[r, k]`, ascending `k`) keep each
//! slot's products in the scalar loop's order, so every rounding step is
//! identical and the results match bit for bit
//! ([`OpStats`](crate::OpStats) included; property-tested in
//! `tests/proptests.rs`).
//!
//! The SpGEMM scatter is not chunked: its targets are data-dependent, and
//! once the accumulator rests at `-0.0` (see [`crate::ops`]) a plain loop
//! of unconditional adds measured at least as fast as computing the
//! products in `LANES`-wide chunks first.
//!
//! This module allocates nothing (it is on the lint `hot-path-alloc`
//! surface together with `ops`/`parallel`): the chunks are slices of the
//! caller's buffers.

/// Fixed chunk width of the vectorizable inner loops.
///
/// Eight `f32` lanes fill a 256-bit vector register; on narrower hardware
/// the compiler splits the chunk, on wider it fuses iterations — the value
/// only has to be a small power of two, results never depend on it.
pub const LANES: usize = 8;

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
}
