//! One of the workspace's two homes for `unsafe` (the other is `dos-core`'s
//! `lend`): the places where the kernels of Eq. 1, `dos-nn`'s matrix
//! products and its `tanh` and `exp` step up to the vector width the host
//! CPU reports.
//!
//! Every other module of this crate is compiled under `deny(unsafe_code)`,
//! with the one `allow` on this module, and every crate but this one and
//! `dos-core` under `forbid(unsafe_code)`; `tools/unsafe-audit.sh` holds the
//! line in CI. Two things cannot be written without it:
//!
//! * calling a `#[target_feature]` function from code compiled for the
//!   baseline target — sound exactly when the feature was detected first;
//! * the vector loads and stores, which take raw pointers: the 32-byte
//!   load and 16-byte store around `vcvtps2ph` (and the 16-byte load and
//!   32-byte store around `vcvtph2ps`), the 64-byte `zmm` loads
//!   and stores of the products' register tile ([`gemm_tile`]) and of
//!   [`tanh`], and the 32-byte ones of [`exp`].
//!
//! Both are wrapped here behind safe functions that do the detection and
//! the bounds arithmetic themselves — or take arrays whose types fix the
//! bounds, a slice's tail going through a zero-padded copy — so no input a
//! safe caller can pass reaches an unchecked operation. Two predicates
//! pick the paths: `avx2` + `f16c` for the frame and the two conversions
//! ([`avx2_frame`], [`crate::kernels::downscale`],
//! [`crate::kernels::upscale`]), and `avx512f` + `fma`
//! for the products' tile, [`tanh`] and [`exp`];
//! [`crate::kernels::dispatch_path`] names both. The CPU picks; there is
//! no feature, flag or environment variable.

use crate::f16::F16;

/// Whether the wide paths run on this host: x86-64 reporting both `avx2`
/// (the frame the update rules and `dos-nn`'s matrix products and
/// attention run in) and `f16c` (the downscale and the upscale). One
/// predicate for the frame and the conversions, so those are either wide
/// or portable, never part of each; only the
/// 512-bit kernels have their own ([`detected_512`]), since they need
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

/// Whether the 512-bit paths run on this host: x86-64 reporting `avx512f`
/// and `fma`. One predicate for the products' tile ([`gemm_tile`]) and
/// the [`tanh`] and [`exp`] kernels, so they are wide together or not at
/// all. Only `exp` needs `fma` (every AVX-512 CPU has it); the tile and
/// `tanh` enable just `avx512f`, so none of their products fuse.
#[inline]
pub(crate) fn detected_512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("fma")
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

/// FP16→FP32 over equal-length slices with `vcvtph2ps`, eight lanes per
/// instruction. Returns `false`, having written nothing, when the host has
/// no such path and the caller must run the portable loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn upscale(src: &[F16], dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if detected() {
        // SAFETY: `upscale_f16c` requires `avx2` and `f16c`; `detected()`
        // just reported both on this CPU.
        unsafe { x86::upscale_f16c(src, dst) };
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
/// was, when the host reports no `avx512f` and `fma` and the caller must
/// run its own loop. `a` and `b` must be inlinable (`#[inline(always)]`
/// closures) to be compiled into the 512-bit frame.
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

/// `x = tanhf(x)` for every element, in place: on a host reporting
/// `avx512f` and `fma` sixteen lanes at a time through a port of
/// glibc 2.36's `tanhf` ([`crate::kernels::tanh_reference`] is its scalar
/// twin, equal to it and to that libm on all 2³² inputs), and through the
/// platform's libm everywhere else.
#[inline]
pub fn tanh(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if detected_512() {
        // SAFETY: `tanh_512` requires `avx512f`, which `detected_512()`
        // just reported on this CPU.
        unsafe { x86::tanh_512(xs) };
        return;
    }
    xs.iter_mut().for_each(|x| *x = x.tanh());
}

/// `x = expf(x)` for every element, in place: on a host reporting
/// `avx512f` and `fma` eight lanes at a time, in `f64`, through a
/// port of glibc 2.36's `expf` as its FMA variant computes it
/// ([`crate::kernels::exp_reference`] is its scalar twin, equal to it and
/// to that libm on all 2³² inputs), and through the platform's libm
/// everywhere else.
#[inline]
pub fn exp(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if detected_512() {
        // SAFETY: `exp_512` requires `avx512f` and `fma`, which
        // `detected_512()` just reported on this CPU.
        unsafe { x86::exp_512(xs) };
        return;
    }
    xs.iter_mut().for_each(|x| *x = x.exp());
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{TILE_COLS, TILE_ROWS};
    use crate::f16::F16;
    use crate::kernels::{
        downscale_portable, upscale_portable, EXPF_C, EXPF_INVLN2N, EXPF_OVER, EXPF_SHIFT, EXPF_TAB,
        EXPF_UNDER, EXPM1F_Q, INVLN2, LN2_HI, LN2_LO,
    };

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

    /// `vcvtph2ps` is exact on every one of the 65,536 halves and quiets a
    /// signalling NaN by setting the top mantissa bit, as `F16::to_f32`
    /// does, so every vector takes it; the sub-vector tail takes the
    /// portable formula.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn upscale_f16c(src: &[F16], dst: &mut [f32]) {
        let n = src.len();
        assert_eq!(n, dst.len(), "upscale length mismatch");
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == src.len()` and `F16` is
            // `#[repr(transparent)]` over `u16`, so the 16 bytes at
            // `src[i..i + 8]` are in bounds; `loadu` needs no alignment.
            let h = unsafe { _mm_loadu_si128(src.as_ptr().add(i).cast::<__m128i>()) };
            // SAFETY: `i + 8 <= n == dst.len()` (asserted above), so the
            // eight `f32`s at `dst[i..i + 8]` are in bounds; `storeu`
            // needs no alignment.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_cvtph_ps(h)) };
            i += 8;
        }
        upscale_portable(&src[i..], &mut dst[i..]);
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

    #[inline]
    #[target_feature(enable = "avx")]
    fn load8(x: &[f32; 8]) -> __m256 {
        // SAFETY: `x` is exactly the 32 bytes the load reads, and `loadu`
        // needs no alignment.
        unsafe { _mm256_loadu_ps(x.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx")]
    fn store8(x: &mut [f32; 8], v: __m256) {
        // SAFETY: `x` is exactly the 32 bytes the store writes, and
        // `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), v) }
    }

    /// Runs `f` on every `N`-element chunk of `xs`: the whole ones in
    /// place, the tail through a zero-padded copy. Lanes are independent,
    /// so what the padding computes is never read.
    #[inline(always)]
    fn each_chunk<const N: usize>(xs: &mut [f32], mut f: impl FnMut(&mut [f32; N])) {
        let (body, tail) = xs.as_chunks_mut::<N>();
        body.iter_mut().for_each(&mut f);
        if !tail.is_empty() {
            let mut pad = [0.0; N];
            pad[..tail.len()].copy_from_slice(tail);
            f(&mut pad);
            tail.copy_from_slice(&pad[..tail.len()]);
        }
    }

    /// [`super::tanh`] on a host with `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn tanh_512(xs: &mut [f32]) {
        each_chunk::<16>(xs, |c| store(c, tanh16(load(c))));
    }

    /// [`super::exp`] on a host with `avx512f` and `fma`.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) fn exp_512(xs: &mut [f32]) {
        each_chunk::<8>(xs, |c| store8(c, exp8(load8(c))));
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn ps(v: f32) -> __m512 {
        _mm512_set1_ps(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn epi32(v: u32) -> __m512i {
        _mm512_set1_epi32(v as i32)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn bits(v: __m512) -> __m512i {
        _mm512_castps_si512(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn float(v: __m512i) -> __m512 {
        _mm512_castsi512_ps(v)
    }

    /// `kernels::tanhf`, sixteen lanes: every arm computed, each lane's
    /// chosen by mask, in the same operation order and without FMA.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tanh16(x: __m512) -> __m512 {
        let sign = _mm512_and_si512(bits(x), epi32(0x8000_0000));
        let ix = _mm512_and_si512(bits(x), epi32(0x7fff_ffff));
        // |x| ≥ 1: `1 − 2/(t + 2)` with t = expm1f(2|x|); below it
        // `−t/(t + 2)` with t = expm1f(−2|x|). One `expm1f`, one division.
        let ge1 = _mm512_cmpge_epi32_mask(ix, epi32(0x3f80_0000));
        let two_ax = _mm512_mul_ps(ps(2.0), float(ix));
        let neg_two_ax = _mm512_mul_ps(ps(-2.0), float(ix));
        let t = expm1f16(_mm512_mask_blend_ps(ge1, neg_two_ax, two_ax));
        let neg_t = float(_mm512_xor_si512(bits(t), epi32(0x8000_0000)));
        let q = _mm512_div_ps(_mm512_mask_blend_ps(ge1, neg_t, ps(2.0)), _mm512_add_ps(t, ps(2.0)));
        let z = _mm512_mask_blend_ps(ge1, q, _mm512_sub_ps(ps(1.0), q));
        // |x| ≥ 22 and ±∞: 1. Then the sign of x.
        let z = _mm512_mask_blend_ps(_mm512_cmpge_epi32_mask(ix, epi32(0x41b0_0000)), z, ps(1.0));
        let z = float(_mm512_xor_si512(bits(z), sign));
        // |x| < 2⁻⁵⁵ and ±0: x·(1 + x). NaN: x + x.
        let tiny = _mm512_cmplt_epi32_mask(ix, epi32(0x2400_0000));
        let z = _mm512_mask_blend_ps(tiny, z, _mm512_mul_ps(x, _mm512_add_ps(ps(1.0), x)));
        let nan = _mm512_cmpgt_epi32_mask(ix, epi32(0x7f80_0000));
        _mm512_mask_blend_ps(nan, z, _mm512_add_ps(x, x))
    }

    /// `kernels::expm1f`, sixteen lanes, on the arguments `tanh16` passes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn expm1f16(x: __m512) -> __m512 {
        let hx = _mm512_and_si512(bits(x), epi32(0x7fff_ffff));
        let neg = _mm512_cmplt_epi32_mask(bits(x), _mm512_setzero_si512());
        // k = ±1 within 1.5·ln2, else k = (int)(x/ln2 ± 0.5); k = 0 (hi = x,
        // lo = 0, so x − lo is x and c is 0) up to 0.5·ln2.
        let hi1 =
            _mm512_mask_blend_ps(neg, _mm512_sub_ps(x, ps(LN2_HI)), _mm512_add_ps(x, ps(LN2_HI)));
        let lo1 = _mm512_mask_blend_ps(neg, ps(LN2_LO), ps(-LN2_LO));
        let kk = |v: i32| epi32(v as u32);
        let k1 = _mm512_mask_blend_epi32(neg, kk(1), kk(-1));
        let half = _mm512_mask_blend_ps(neg, ps(0.5), ps(-0.5));
        let kn = _mm512_cvttps_epi32(_mm512_add_ps(_mm512_mul_ps(ps(INVLN2), x), half));
        let tn = _mm512_cvtepi32_ps(kn);
        let hin = _mm512_sub_ps(x, _mm512_mul_ps(tn, ps(LN2_HI)));
        let lon = _mm512_mul_ps(tn, ps(LN2_LO));
        let near = _mm512_cmplt_epi32_mask(hx, epi32(0x3f85_1592));
        let reduce = _mm512_cmpgt_epi32_mask(hx, epi32(0x3eb1_7218));
        let hi = _mm512_mask_blend_ps(reduce, x, _mm512_mask_blend_ps(near, hin, hi1));
        let lo = _mm512_maskz_mov_ps(reduce, _mm512_mask_blend_ps(near, lon, lo1));
        let k = _mm512_maskz_mov_epi32(reduce, _mm512_mask_blend_epi32(near, kn, k1));
        let xr = _mm512_sub_ps(hi, lo);
        let c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

        let hfx = _mm512_mul_ps(ps(0.5), xr);
        let hxs = _mm512_mul_ps(xr, hfx);
        let q = EXPM1F_Q;
        let mut r1 = ps(q[4]);
        for &qi in q[..4].iter().rev() {
            r1 = _mm512_add_ps(ps(qi), _mm512_mul_ps(hxs, r1));
        }
        let r1 = _mm512_add_ps(ps(1.0), _mm512_mul_ps(hxs, r1));
        let t = _mm512_sub_ps(ps(3.0), _mm512_mul_ps(r1, hfx));
        let e = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(_mm512_sub_ps(r1, t), _mm512_sub_ps(ps(6.0), _mm512_mul_ps(xr, t))),
        );
        let y0 = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));

        let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c), hxs);
        let scale = |y: __m512| float(_mm512_add_epi32(bits(y), _mm512_slli_epi32::<23>(k)));
        let e_x = _mm512_sub_ps(e, xr);
        let ym1 = _mm512_sub_ps(_mm512_mul_ps(ps(0.5), _mm512_sub_ps(xr, e)), ps(0.5));
        let yp1 = _mm512_mask_blend_ps(
            _mm512_cmp_ps_mask::<_CMP_LT_OQ>(xr, ps(-0.25)),
            _mm512_add_ps(ps(1.0), _mm512_mul_ps(ps(2.0), _mm512_sub_ps(xr, e))),
            _mm512_mul_ps(ps(-2.0), _mm512_sub_ps(e, _mm512_add_ps(xr, ps(0.5)))),
        );
        let yfar = _mm512_sub_ps(scale(_mm512_sub_ps(ps(1.0), e_x)), ps(1.0));
        let tmid =
            float(_mm512_sub_epi32(epi32(0x3f80_0000), _mm512_srlv_epi32(epi32(0x0100_0000), k)));
        let ymid = scale(_mm512_sub_ps(tmid, e_x));
        let thigh = float(_mm512_slli_epi32::<23>(_mm512_sub_epi32(epi32(0x7f), k)));
        let yhigh = scale(_mm512_add_ps(_mm512_sub_ps(xr, _mm512_add_ps(e, thigh)), ps(1.0)));

        let y = _mm512_mask_blend_ps(_mm512_cmplt_epi32_mask(k, kk(23)), yhigh, ymid);
        let far = _mm512_cmple_epi32_mask(k, kk(-2)) | _mm512_cmpgt_epi32_mask(k, kk(56));
        let y = _mm512_mask_blend_ps(far, y, yfar);
        let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, kk(1)), y, yp1);
        let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, kk(-1)), y, ym1);
        let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, kk(0)), y, y0);
        // |x| < 2⁻²⁵: x itself.
        _mm512_mask_blend_ps(_mm512_cmplt_epi32_mask(hx, epi32(0x3300_0000)), y, x)
    }

    /// `kernels::exp_reference`, eight lanes in `f64`: the same fused
    /// multiply-adds, the 32-entry table through two `vpermt2q` (16
    /// entries each, on the index's low four bits) and a blend on bit 4.
    #[inline]
    #[target_feature(enable = "avx512f,fma")]
    fn exp8(x: __m256) -> __m256 {
        let pd = _mm512_set1_pd;
        let xd = _mm512_cvtps_pd(x);
        let kd = _mm512_fmadd_pd(pd(EXPF_INVLN2N), xd, pd(EXPF_SHIFT));
        let ki = _mm512_castpd_si512(kd);
        let r = _mm512_fmsub_pd(pd(EXPF_INVLN2N), xd, _mm512_sub_pd(kd, pd(EXPF_SHIFT)));
        let tab = |i: usize| {
            let t = &EXPF_TAB[8 * i..];
            _mm512_setr_epi64(
                t[0] as i64,
                t[1] as i64,
                t[2] as i64,
                t[3] as i64,
                t[4] as i64,
                t[5] as i64,
                t[6] as i64,
                t[7] as i64,
            )
        };
        let low = _mm512_permutex2var_epi64(tab(0), ki, tab(1));
        let high = _mm512_permutex2var_epi64(tab(2), ki, tab(3));
        let t =
            _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = EXPF_C;
        let z = _mm512_fmadd_pd(pd(c0), r, pd(c1));
        let y = _mm512_fmadd_pd(pd(c2), r, pd(1.0));
        let y = _mm512_mul_pd(_mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y), s);
        let y = _mm512_cvtpd_ps(y);
        // The slow path's arms: +∞ above, +0 below (−∞ too), NaN → x + x.
        let ps8 = _mm256_set1_ps;
        let y =
            _mm256_blendv_ps(y, ps8(f32::INFINITY), _mm256_cmp_ps::<_CMP_GT_OQ>(x, ps8(EXPF_OVER)));
        let y = _mm256_blendv_ps(y, ps8(0.0), _mm256_cmp_ps::<_CMP_LT_OQ>(x, ps8(EXPF_UNDER)));
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
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
    use crate::kernels::{exp_reference, tanh_reference, tanhf, EXPM1F_Q, INVLN2, LN2_HI, LN2_LO};
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

    /// `tanhf`'s and `expf`'s bits at 4,096 points from −8 to 8, through
    /// the platform's libm: equal to [`LIBM_2_36`] where that is glibc
    /// 2.36's x86-64 build with its FMA `expf`, the one the twins port.
    fn libm_fingerprint() -> u64 {
        (0..4096)
            .flat_map(|i| {
                let x = (i as f32 - 2048.0) / 256.0;
                [x.tanh().to_bits(), x.exp().to_bits()]
            })
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    const LIBM_2_36: u64 = 0x8ef1_5ece_ab9b_2abc;

    /// The functions under test, as (name, slice kernel, scalar twin, libm).
    type Case = (&'static str, fn(&mut [f32]), fn(f32) -> f32, fn(f32) -> f32);
    const CASES: [Case; 2] =
        [("tanh", tanh, tanh_reference, f32::tanh), ("exp", exp, exp_reference, f32::exp)];

    /// Where the sampled tests look: two ulps either side of every branch
    /// threshold of either port — and of its half, since `tanhf` hands
    /// `expm1f` twice its argument — in both signs; ±0, subnormals, ±∞ and
    /// NaNs; then every 4,099th bit pattern.
    fn sample() -> Vec<f32> {
        let thresholds = [
            0x2400_0000u32,
            0x3300_0000,
            0x3eb1_7218,
            0x3f80_0000,
            0x3f85_1592,
            0x4195_b844,
            0x41b0_0000,
            0x42b1_7218,
            0x42b1_7217,
            0x42cf_f1b4,
        ];
        let near = thresholds.iter().flat_map(|&t| {
            (t - 2..=t + 2).flat_map(|b| [f32::from_bits(b), f32::from_bits(b) / 2.0])
        });
        let specials =
            [0u32, 1, 0x0040_0000, 0x007f_ffff, 0x7f80_0000, 0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff]
                .map(f32::from_bits);
        let signed = near.chain(specials).flat_map(|x| [x, -x]);
        signed.chain((0..=u32::MAX).step_by(4099).map(f32::from_bits)).collect()
    }

    /// The first element of `xs` on which `got` (a slice function, run on
    /// the whole of `xs`) and `want` differ in any bit, NaN payload included.
    fn first_mismatch(
        xs: &[f32],
        got: impl Fn(&mut [f32]),
        want: impl Fn(f32) -> f32,
    ) -> Option<(f32, f32, f32)> {
        let mut ys = xs.to_vec();
        got(&mut ys);
        let pair = xs.iter().zip(&ys).map(|(&x, &y)| (x, y, want(x)));
        pair.into_iter().find(|(_, y, w)| y.to_bits() != w.to_bits())
    }

    #[test]
    fn tanh_and_exp_match_their_twins_and_libm_on_the_sample() {
        let xs = sample();
        let libm_is_2_36 = libm_fingerprint() == LIBM_2_36;
        for (name, kernel, twin, libm) in CASES {
            if detected_512() {
                if let Some((x, y, w)) = first_mismatch(&xs, kernel, twin) {
                    panic!(
                        "{name} kernel({:#010x}) = {:#010x}, twin {:#010x}",
                        x.to_bits(),
                        y.to_bits(),
                        w.to_bits()
                    );
                }
                // Every tail length, from every offset into a vector.
                for offset in 0..16 {
                    for len in 0..=40 {
                        let part = &xs[offset..offset + len];
                        assert!(
                            first_mismatch(part, kernel, twin).is_none(),
                            "{name}: {len} from {offset}"
                        );
                    }
                }
            } else {
                println!("skipped: the {name} kernel (this host reports no avx512f and fma)");
            }
            let twin_slice = |ys: &mut [f32]| ys.iter_mut().for_each(|y| *y = twin(*y));
            if libm_is_2_36 {
                if let Some((x, y, w)) = first_mismatch(&xs, twin_slice, libm) {
                    panic!(
                        "{name} twin({:#010x}) = {:#010x}, libm {:#010x}",
                        x.to_bits(),
                        y.to_bits(),
                        w.to_bits()
                    );
                }
            } else {
                let libm = libm_fingerprint();
                println!("skipped: {name} twin against libm ({libm:#018x} is not glibc 2.36's)");
            }
        }
    }

    /// The sample has teeth: a `tanhf` whose `expm1f` has every `a·b ± c`
    /// fused, as a compiler contracting into FMAs would build it, differs
    /// from the twin on 33 of its points. (Narrower mistakes hide from any
    /// sample: fusing only the polynomial changes about 60 of the 2³²
    /// outputs, `Q1` one ulp off about 260, and `Q2`…`Q5` or `invln2` one
    /// ulp off none at all.)
    #[test]
    fn the_sample_catches_a_contracted_tanh() {
        fn contracted_expm1f(x: f32) -> f32 {
            let hx = x.to_bits() & 0x7fff_ffff;
            let neg = x.is_sign_negative();
            let (k, x, c) = if hx > 0x3eb1_7218 {
                let (hi, lo, k) = if hx < 0x3f85_1592 {
                    if neg {
                        (x + LN2_HI, -LN2_LO, -1)
                    } else {
                        (x - LN2_HI, LN2_LO, 1)
                    }
                } else {
                    let k = INVLN2.mul_add(x, if neg { -0.5 } else { 0.5 }) as i32;
                    let t = k as f32;
                    ((-t).mul_add(LN2_HI, x), t * LN2_LO, k)
                };
                let r = hi - lo;
                (k, r, (hi - r) - lo)
            } else if hx < 0x3300_0000 {
                return x;
            } else {
                (0, x, 0.0)
            };
            let hfx = 0.5 * x;
            let hxs = x * hfx;
            let q = EXPM1F_Q;
            let p = hxs.mul_add(q[4], q[3]).mul_add(hxs, q[2]).mul_add(hxs, q[1]);
            let r1 = hxs.mul_add(p.mul_add(hxs, q[0]), 1.0);
            let t = (-r1).mul_add(hfx, 3.0);
            let e = hxs * ((r1 - t) / (-x).mul_add(t, 6.0));
            if k == 0 {
                return x - x.mul_add(e, -hxs);
            }
            let e = x.mul_add(e - c, -c) - hxs;
            let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
            match k {
                -1 => 0.5f32.mul_add(x - e, -0.5),
                1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
                1 => 2.0f32.mul_add(x - e, 1.0),
                _ if k <= -2 || k > 56 => scale(1.0 - (e - x)) - 1.0,
                2..=22 => scale(f32::from_bits(0x3f80_0000 - (0x0100_0000u32 >> k)) - (e - x)),
                _ => scale(x - (e + f32::from_bits(((0x7f - k) << 23) as u32)) + 1.0),
            }
        }
        let wrong = |ys: &mut [f32]| ys.iter_mut().for_each(|y| *y = tanhf(*y, contracted_expm1f));
        assert!(first_mismatch(&sample(), wrong, tanh_reference).is_some());
    }

    /// All 2³² inputs, on two threads: kernel = twin where the host has the
    /// kernel, twin = libm where libm is the one the twins port. About 90 s
    /// for both functions and the downscale sweep together on two cores, in
    /// release: `cargo test --release -p dos-tensor -- --ignored exhaustive`.
    fn exhaustive((name, kernel, twin, libm): Case) {
        let (run_kernel, run_libm) = (detected_512(), libm_fingerprint() == LIBM_2_36);
        if !run_kernel && !run_libm {
            println!("skipped: exhaustive {name} (no kernel on this host, libm not glibc 2.36's)");
            return;
        }
        const BLOCK: u32 = 1 << 16;
        let half = |lo: u32| {
            let mut bad = (0u64, 0u64);
            let mut ys = vec![0.0f32; BLOCK as usize];
            for base in (lo..=lo + (u32::MAX >> 1)).step_by(BLOCK as usize) {
                for (y, b) in ys.iter_mut().zip(base..) {
                    *y = f32::from_bits(b);
                }
                kernel(&mut ys);
                for (&y, b) in ys.iter().zip(base..) {
                    let w = twin(f32::from_bits(b)).to_bits();
                    bad.0 += u64::from(run_kernel && y.to_bits() != w);
                    bad.1 += u64::from(run_libm && libm(f32::from_bits(b)).to_bits() != w);
                }
            }
            bad
        };
        let (a, b) = std::thread::scope(|s| {
            let upper = s.spawn(|| half(1 << 31));
            (half(0), upper.join().expect("upper half"))
        });
        let (kernel_bad, libm_bad) = (a.0 + b.0, a.1 + b.1);
        println!(
            "exhaustive {name}: kernel vs twin {}, twin vs libm {} mismatches of 2^32",
            if run_kernel { kernel_bad.to_string() } else { "skipped".into() },
            if run_libm { libm_bad.to_string() } else { "skipped".into() },
        );
        assert_eq!((kernel_bad, libm_bad), (0, 0), "{name}");
    }

    #[test]
    #[ignore]
    fn exhaustive_tanh_kernel_twin_and_libm() {
        exhaustive(CASES[0]);
    }

    #[test]
    #[ignore]
    fn exhaustive_exp_kernel_twin_and_libm() {
        exhaustive(CASES[1]);
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
