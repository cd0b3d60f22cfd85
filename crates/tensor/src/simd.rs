//! One of the workspace's two homes for `unsafe` (the other is `dos-core`'s
//! `lend`): the places where the kernels of Eq. 1 and `dos-nn`'s matrix
//! products step up to the vector width the host CPU reports.
//!
//! Every other module of this crate is compiled under `deny(unsafe_code)`,
//! with the one `allow` on this module, and every crate but this one and
//! `dos-core` under `forbid(unsafe_code)`; `tools/unsafe-audit.sh` holds the
//! line in CI. Two things cannot be written without it:
//!
//! * calling a `#[target_feature]` function from code compiled for the
//!   baseline target — sound exactly when the feature was detected first;
//! * the vector loads and stores, which take raw pointers: the 32-byte
//!   load and 16-byte store around `vcvtps2ph`, and the 64-byte `zmm`
//!   loads and stores of the products' register tile ([`gemm_tile`]).
//!
//! Both are wrapped here behind safe functions that do the detection and
//! the bounds arithmetic themselves — or take arrays whose types fix the
//! bounds — so no input a safe caller can pass reaches an unchecked
//! operation. Two predicates pick the paths: `avx2` + `f16c` for the frame
//! and the downscale ([`avx2_frame`], [`crate::kernels::downscale`]), and
//! `avx512f` for the products' tile; [`crate::kernels::dispatch_path`]
//! names both. The CPU picks; there is no feature, flag or environment
//! variable.

use crate::f16::F16;

/// Whether the wide paths run on this host: x86-64 reporting both `avx2`
/// (the frame the update rules and `dos-nn`'s matrix products run in) and
/// `f16c` (the downscale). One predicate for the frame and the downscale,
/// so those are either wide or portable, never part of each; only the
/// products' tile has its own ([`detected_512`]), since it alone needs
/// more than this.
#[inline]
pub(crate) fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the products' 512-bit tile ([`gemm_tile`]) runs on this host:
/// x86-64 reporting `avx512f`.
#[inline]
pub(crate) fn detected_512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` inside a function compiled with `avx2` enabled when the host
/// is wide ([`crate::kernels::dispatch_path`]), and plainly otherwise.
///
/// Code *inlined into* the frame is compiled a second time at 256-bit
/// width; code merely called from it is not. Pass a closure marked
/// `#[inline(always)]` whose body is itself `#[inline(always)]` down to
/// the loops — a plain closure is not reliably inlined and silently stays
/// at the baseline width (never a wrong bit, only a missed gain). Only
/// exactly-rounded per-element operations may rely on this for
/// bit-identity: nothing here enables `fma` and Rust never contracts.
#[inline]
pub fn avx2_frame<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if detected() {
        // SAFETY: `frame` requires `avx2`, which `detected()` just
        // reported on this CPU.
        return unsafe { x86::frame(f) };
    }
    f()
}

/// FP32→FP16 over equal-length slices with `vcvtps2ph`, eight lanes per
/// instruction. Returns `false`, having written nothing, when the host has
/// no such path and the caller must run the portable loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn downscale(src: &[f32], dst: &mut [F16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if detected() {
        // SAFETY: `downscale_f16c` requires `avx2` and `f16c`;
        // `detected()` just reported both on this CPU.
        unsafe { x86::downscale_f16c(src, dst) };
        return true;
    }
    let _ = (src, dst);
    false
}

/// Rows of the register tile [`gemm_tile`] accumulates.
pub const TILE_ROWS: usize = 4;

/// Columns of the register tile [`gemm_tile`] accumulates: 64 `f32` are
/// four `zmm` registers per row, so the whole tile is 16 of the 32.
pub const TILE_COLS: usize = 64;

/// `acc[i][t] += a(q)[i] · b(q)[t]` for `q` in `0..red`, ascending — one
/// multiply and one add per term, no FMA — skipping row `i`'s term when
/// `SKIP_ZERO` and `a(q)[i] == 0.0`. The `TILE_ROWS × TILE_COLS`
/// accumulators stay in `zmm` registers for the whole reduction; each
/// term broadcasts one `a`, and one row of the `b` panel serves all four
/// rows. Per output that is exactly the plain loop's chain, so the bits
/// are the plain loop's.
///
/// Returns `false`, having called neither accessor and left `acc` as it
/// was, when the host reports no `avx512f` and the caller must run its
/// own loop. `a` and `b` must be inlinable (`#[inline(always)]` closures)
/// to be compiled into the 512-bit frame.
#[inline]
pub fn gemm_tile<'b, const SKIP_ZERO: bool>(
    acc: &mut [[f32; TILE_COLS]; TILE_ROWS],
    red: usize,
    a: impl Fn(usize) -> [f32; TILE_ROWS],
    b: impl Fn(usize) -> &'b [f32; TILE_COLS],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if detected_512() {
        // SAFETY: `gemm_tile_512` requires `avx512f`, which
        // `detected_512()` just reported on this CPU.
        unsafe { x86::gemm_tile_512::<SKIP_ZERO>(acc, red, a, b) };
        return true;
    }
    let _ = (acc, red, a, b);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m512, _mm256_cmp_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_storeu_ps,
        _mm_storeu_si128, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };

    use super::{TILE_COLS, TILE_ROWS};
    use crate::f16::F16;
    use crate::kernels::downscale_portable;

    /// `zmm` registers per tile row.
    const LANES: usize = TILE_COLS / 16;

    #[target_feature(enable = "avx2")]
    pub(super) fn frame<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// `vcvtps2ph` is IEEE round-to-nearest-even and agrees with
    /// `F16::from_f32` on every input but 16,382 of 2³²: the signalling
    /// NaNs whose payload lies only in the low 13 mantissa bits
    /// (`0x7F80_0001` → hardware `0x7E00`, oracle `0x7E01`, its
    /// `payload.max(1)`). So a vector with any NaN lane takes the portable
    /// formula instead; NaNs are rare enough that the branch is free.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn downscale_f16c(src: &[f32], dst: &mut [F16]) {
        let n = src.len();
        assert_eq!(n, dst.len(), "downscale length mismatch");
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == src.len()`, so the eight `f32`s at
            // `src[i..i + 8]` are in bounds; `loadu` needs no alignment.
            let x = unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) };
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x)) != 0 {
                downscale_portable(&src[i..i + 8], &mut dst[i..i + 8]);
            } else {
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
                // SAFETY: `i + 8 <= n == dst.len()` (asserted above) and
                // `F16` is `#[repr(transparent)]` over `u16`, so the eight
                // halves at `dst[i..i + 8]` are exactly the 16 bytes
                // written, any bit pattern is a valid `F16`, and `storeu`
                // needs no alignment.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(i).cast::<__m128i>(), h) };
            }
            i += 8;
        }
        downscale_portable(&src[i..], &mut dst[i..]);
    }

    // `#[inline]` lets these two join the tile's loop; without it each
    // is a call, a spill and a `vzeroupper` per 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(x: &[f32; 16]) -> __m512 {
        // SAFETY: `x` is exactly the 64 bytes the load reads, and `loadu`
        // needs no alignment.
        unsafe { _mm512_loadu_ps(x.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(x: &mut [f32; 16], v: __m512) {
        // SAFETY: `x` is exactly the 64 bytes the store writes, and
        // `storeu` needs no alignment.
        unsafe { _mm512_storeu_ps(x.as_mut_ptr(), v) }
    }

    /// [`super::gemm_tile`] on a host with `avx512f`. The loops over rows
    /// and lanes have constant trip counts, so they unroll and `c` becomes
    /// 16 registers; `mul` and `add` stay two instructions because nothing
    /// enables `fma` and Rust never contracts.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_tile_512<'b, const SKIP_ZERO: bool>(
        acc: &mut [[f32; TILE_COLS]; TILE_ROWS],
        red: usize,
        a: impl Fn(usize) -> [f32; TILE_ROWS],
        b: impl Fn(usize) -> &'b [f32; TILE_COLS],
    ) {
        let mut c = [[_mm512_set1_ps(0.0); LANES]; TILE_ROWS];
        for (cr, row) in c.iter_mut().zip(acc.iter()) {
            for (cv, x) in cr.iter_mut().zip(row.as_chunks::<16>().0) {
                *cv = load(x);
            }
        }
        for q in 0..red {
            let av = a(q);
            let mut bv = [_mm512_set1_ps(0.0); LANES];
            for (v, x) in bv.iter_mut().zip(b(q).as_chunks::<16>().0) {
                *v = load(x);
            }
            for (cr, &ai) in c.iter_mut().zip(&av) {
                if SKIP_ZERO && ai == 0.0 {
                    continue;
                }
                let s = _mm512_set1_ps(ai);
                for (cv, &v) in cr.iter_mut().zip(&bv) {
                    *cv = _mm512_add_ps(*cv, _mm512_mul_ps(s, v));
                }
            }
        }
        for (row, cr) in acc.iter_mut().zip(&c) {
            for (x, &cv) in row.as_chunks_mut::<16>().0.iter_mut().zip(cr) {
                store(x, cv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// ±0, subnormals, ±∞ and NaN often enough to meet every row's skip
    /// and every lane's special case; finite values across thirteen binades
    /// otherwise.
    fn salted(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..64u32) {
            0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)],
            1..=16 => [0.0, -0.0, 1.0e-40, -1.0e-40][rng.gen_range(0..4usize)],
            _ => rng.gen_range(-2.0f32..2.0) * f32::powi(2.0, rng.gen_range(-6..7)),
        }
    }

    /// The scalar loop [`gemm_tile`] must equal, term by term.
    fn tile_reference(
        acc: &mut [[f32; TILE_COLS]; TILE_ROWS],
        a: &[[f32; TILE_ROWS]],
        b: &[[f32; TILE_COLS]],
        skip_zero: bool,
    ) {
        for (aq, bq) in a.iter().zip(b) {
            for (row, &av) in acc.iter_mut().zip(aq) {
                if skip_zero && av == 0.0 {
                    continue;
                }
                for (cv, bv) in row.iter_mut().zip(bq) {
                    *cv += av * bv;
                }
            }
        }
    }

    fn tile_agrees<const SKIP_ZERO: bool>(red: usize, seed: u64) -> bool {
        let rng = &mut StdRng::seed_from_u64(seed);
        let a: Vec<[f32; TILE_ROWS]> =
            (0..red).map(|_| std::array::from_fn(|_| salted(rng))).collect();
        let b: Vec<[f32; TILE_COLS]> =
            (0..red).map(|_| std::array::from_fn(|_| salted(rng))).collect();
        let acc0: [[f32; TILE_COLS]; TILE_ROWS] =
            std::array::from_fn(|_| std::array::from_fn(|_| salted(rng)));
        let (mut got, mut want) = (acc0, acc0);
        if !gemm_tile::<SKIP_ZERO>(
            &mut got,
            red,
            #[inline(always)]
            |q| a[q],
            #[inline(always)]
            |q| &b[q],
        ) {
            let untouched = got.iter().flatten().zip(acc0.iter().flatten());
            assert!(untouched.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()));
            return false;
        }
        tile_reference(&mut want, &a, &b, SKIP_ZERO);
        for (i, (g, w)) in got.iter().flatten().zip(want.iter().flatten()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "skip_zero {SKIP_ZERO}, red {red}, seed {seed}: acc[{}][{}] = {g:e} ({:#010x}), scalar {w:e} ({:#010x})",
                i / TILE_COLS,
                i % TILE_COLS,
                g.to_bits(),
                w.to_bits()
            );
        }
        true
    }

    #[test]
    fn gemm_tile_matches_the_scalar_loop_on_salted_inputs() {
        for red in [0, 1, 2, 7, 64, 129] {
            for seed in 0..16 {
                let ran = tile_agrees::<true>(red, seed) & tile_agrees::<false>(red, seed);
                if !ran {
                    println!("skipped: gemm_tile needs avx512f, which this host does not report");
                    assert!(!detected_512());
                    return;
                }
            }
        }
    }
}
