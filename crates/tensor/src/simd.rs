//! One of the workspace's two homes for `unsafe` (the other is `dos-core`'s
//! `lend`): the two places where the kernels of Eq. 1 — and, through the
//! same frame, `dos-nn`'s matrix products — step up to the vector width the
//! host CPU reports.
//!
//! Every other module of this crate is compiled under `deny(unsafe_code)`,
//! with the one `allow` on this module, and every crate but this one and
//! `dos-core` under `forbid(unsafe_code)`; `tools/unsafe-audit.sh` holds the
//! line in CI. Two things cannot be written without it:
//!
//! * calling a `#[target_feature]` function from code compiled for the
//!   baseline target — sound exactly when the feature was detected first;
//! * the 32-byte load and 16-byte store around `vcvtps2ph`, which take raw
//!   pointers.
//!
//! Both are wrapped here behind safe functions that do the detection and
//! the bounds arithmetic themselves, so no input a safe caller can pass
//! reaches an unchecked operation. The CPU picks the path
//! ([`crate::kernels::dispatch_path`] names it); there is no feature, flag
//! or environment variable.

use crate::f16::F16;

/// Whether the wide paths run on this host: x86-64 reporting both `avx2`
/// (the frame the update rules and `dos-nn`'s matrix products run in) and
/// `f16c` (the downscale). One predicate for every kernel, so a host is
/// either wide or portable, never part of each.
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm256_cmp_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm_storeu_si128, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };

    use crate::f16::F16;
    use crate::kernels::downscale_portable;

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
}
