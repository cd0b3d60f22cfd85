//! Branchless, autovectorizable FP16↔FP32 conversion kernels.
//!
//! [`F16::from_f32`]/[`F16::to_f32`] are deliberately written as readable,
//! branchy scalar code — they are the *oracle*. The kernels here compute
//! the exact same bits through straight-line integer arithmetic plus one
//! float-magic trick, so LLVM can keep the loop in SIMD registers instead
//! of stalling on the oracle's four-way branch per element. Bit-exactness
//! against the oracle is enforced three ways: the unit tests below, the
//! `kernels` arm of the tri-oracle conformance harness (`dos-oracle`), and
//! proptests over raw bit patterns.
//!
//! The downscale is `D_c` in the paper's Eq. 1 — one of the two CPU-side
//! throughput constants the adaptive controller steers on — so this is a
//! measured hot path, not a micro-optimization; `benchmark/` reports it as
//! `tensor.downscale_params_per_s`. The upscale widens every training
//! iteration's FP16 all-gather (`tensor.upscale_params_per_s`). Both have a
//! hardware path: on x86-64 hosts that report AVX2 and F16C, [`downscale`]
//! converts eight lanes per `vcvtps2ph` and [`upscale`] eight per
//! `vcvtph2ps` (in [`crate::simd`], the same bits, exhaustively), and the
//! branchless loops remain what every other host runs. [`dispatch_path`]
//! names which. `round_through_f16` stays portable: no measured workload
//! spends its time there.
//!
//! The scalar twins of [`simd::tanh`]'s and [`simd::exp`]'s kernels live
//! here too ([`tanh_reference`], [`exp_reference`]), with the libm
//! constants both share.

use crate::f16::F16;
use crate::simd;

/// Elements per cache-friendly chunk processed by the slice kernels.
pub const CHUNK: usize = 4096;

/// Converts one f32 bit pattern to the f16 bit pattern `F16::from_f32`
/// would produce, without data-dependent branches.
///
/// * **Normal** halves re-bias the exponent in place and round the low 13
///   mantissa bits to nearest-even with the classic `rem + 0x0FFF + lsb`
///   carry; mantissa overflow carries into the exponent (rounding up to
///   infinity), exactly like the oracle's `wrapping_add`.
/// * **Subnormal/zero** halves use the FPU: `|x|·2²⁴ + 2²³` lands in
///   `[2²³, 2²³+1024]`, so the hardware's own round-to-nearest-even leaves
///   the rounded subnormal payload in the low mantissa bits.
/// * **NaN** keeps its truncated payload but stays NaN
///   (`0x0200 | payload.max(1)`), matching the oracle.
#[inline]
pub(crate) fn f16_bits_from_f32_bits(bits: u32) -> u16 {
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;

    // Normal path (exponent already known to land in 1..=30 when selected).
    let rebias = abs.wrapping_sub(112 << 23);
    let h = rebias >> 13;
    let rem = abs & 0x1FFF;
    let h_norm = h + ((rem + 0x0FFF + (h & 1)) >> 13);

    // Subnormal/zero path via float magic (hardware RNE does the rounding).
    let sub = f32::from_bits(abs) * 16_777_216.0 + 8_388_608.0; // |x|·2^24 + 2^23
    let h_sub = sub.to_bits() & 0x0000_07FF;

    // NaN path: truncated payload, NaN-ness preserved.
    let h_nan = 0x7C00 | 0x0200 | ((abs >> 13) & 0x03FF).max(1);

    let magnitude = if abs > 0x7F80_0000 {
        h_nan
    } else if abs >= 0x4780_0000 {
        0x7C00 // overflow (or exact infinity)
    } else if abs >= 0x3880_0000 {
        h_norm
    } else {
        h_sub
    };
    sign | magnitude as u16
}

/// Converts one f16 bit pattern to the f32 bits/value `F16::to_f32` would
/// produce, without data-dependent branches.
#[inline]
pub(crate) fn f32_from_f16_bits(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;

    let norm = sign | ((exp + 112) << 23) | (man << 13);
    // Subnormal: man · 2⁻²⁴, exact in f32 (int→float convert + pow-2 scale).
    let sub = (man as f32 * f32::from_bits(0x3380_0000)).to_bits() | sign;
    let naninf = sign | 0x7F80_0000 | (man << 13) | if man != 0 { 0x0040_0000 } else { 0 };

    let bits = if exp == 0x1F {
        naninf
    } else if exp == 0 {
        sub
    } else {
        norm
    };
    f32::from_bits(bits)
}

/// Vectorized FP32→FP16 downscale over equal-length slices: `vcvtps2ph`
/// where the host has it ([`dispatch_path`]), the branchless loop
/// everywhere else, the same bits either way.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn downscale(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    if !simd::downscale(src, dst) {
        downscale_portable(src, dst);
    }
}

/// The path [`downscale`] takes on every platform without a wider one, and
/// the wide path's own fallback for NaN vectors and sub-vector tails.
// Out of line: when LLVM inlines it into `simd`'s `vcvtps2ph` loop, that
// loop gains a jump per vector, and `step_cpu_only` measured ≈ 3 % slower
// (median of 14 alternating pairs on a 2-vCPU x86-64 guest).
#[inline(never)]
pub(crate) fn downscale_portable(src: &[f32], dst: &mut [F16]) {
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        for (x, y) in s.iter().zip(d.iter_mut()) {
            *y = F16::from_bits(f16_bits_from_f32_bits(x.to_bits()));
        }
    }
}

/// Names the kernel paths run-time dispatch chose on this host, reported
/// by `dos-cli calibrate` so a measured rate says which kernel produced it.
/// The first part names the one predicate behind [`downscale`] (`D_c`),
/// [`upscale`], `dos_optim::kernels::apply` (`U_c`) and the frame of
/// `dos_nn`'s products and attention; `", avx512f+fma products, tanh, exp"`
/// follows when those
/// products also run their full 4 × 64 blocks through [`simd::gemm_tile`]
/// and [`simd::tanh`] and [`simd::exp`] run their 512-bit kernels instead
/// of libm. The CPU picks; nothing configures it.
pub fn dispatch_path() -> &'static str {
    match (simd::detected(), simd::detected_512()) {
        (true, true) => "x86_64 avx2+f16c downscale, upscale, avx512f+fma products, tanh, exp",
        (true, false) => "x86_64 avx2+f16c downscale, upscale",
        (false, true) => "portable, avx512f+fma products, tanh, exp",
        (false, false) => "portable",
    }
}

/// Scalar oracle twin of [`downscale`]: per-element [`F16::from_f32`].
pub fn downscale_reference(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (x, y) in src.iter().zip(dst.iter_mut()) {
        *y = F16::from_f32(*x);
    }
}

/// `expm1f`'s `ln2_hi`, `ln2_lo` and `invln2` (fdlibm, as glibc 2.36).
pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
pub(crate) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
pub(crate) const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);

/// `expm1f`'s scaled `Q1..Q5`.
pub(crate) const EXPM1F_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `expf`'s table: `tab[i]` is the bits of `2^(i/32)` less `i << 47`.
pub(crate) const EXPF_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// `expf`'s `32/ln2`, the `1.5·2⁵²` rounding shift, and `C0..C2` of its
/// cubic in `r` (all scaled for the 32-entry table).
pub(crate) const EXPF_INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
pub(crate) const EXPF_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
pub(crate) const EXPF_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// Above this `expf` overflows to `+∞`; below [`EXPF_UNDER`] it is `+0`.
pub(crate) const EXPF_OVER: f32 = f32::from_bits(0x42b1_7217);
pub(crate) const EXPF_UNDER: f32 = f32::from_bits(0xc2cf_f1b4);

/// Scalar twin of [`simd::tanh`]'s 512-bit kernel: glibc 2.36's `tanhf`
/// (fdlibm's, over its `expm1f`), ported operation for operation, with no
/// FMA (the source has none). The kernel equals it on every input, and so
/// does glibc 2.36's own `tanhf` on x86-64; the exhaustive tests hold both.
pub fn tanh_reference(x: f32) -> f32 {
    tanhf(x, expm1f)
}

/// `tanhf` over the given `expm1f` (the tests pass a wrong one).
pub(crate) fn tanhf(x: f32, expm1f: fn(f32) -> f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix > 0x7f80_0000 {
        // `1/x ± 1`: the quieted NaN, as `x + x` is.
        return x + x;
    }
    if ix < 0x2400_0000 {
        // |x| < 2⁻⁵⁵. fdlibm returns ±0 itself first; this is the same bits.
        return x * (1.0 + x);
    }
    let z = if ix >= 0x41b0_0000 {
        // |x| ≥ 22 and ±∞: `1 − 10⁻³⁰`, which rounds to 1.
        1.0
    } else if ix >= 0x3f80_0000 {
        let t = expm1f(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1f(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` on the arguments [`tanhf`] passes — `2|x|` in
/// `[2, 44)` and `−2|x|` in `(−2, 0)` — so without its overflow, NaN and
/// `x ≤ −27·ln2` arms, which those never reach.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // x = k·ln2 + (hi − lo); `c` is what rounding `hi − lo` lost.
    let (k, x, c) = if hx > 0x3eb1_7218 {
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
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
    let r1 = 1.0 + hxs * (q[0] + hxs * (q[1] + hxs * (q[2] + hxs * (q[3] + hxs * q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => 1.0 + 2.0 * (x - e),
        _ if k <= -2 || k > 56 => scale(1.0 - (e - x)) - 1.0,
        2..=22 => scale(f32::from_bits(0x3f80_0000 - (0x0100_0000u32 >> k)) - (e - x)),
        _ => scale(x - (e + f32::from_bits(((0x7f - k) << 23) as u32)) + 1.0),
    }
}

/// Scalar twin of [`simd::exp`]'s 512-bit kernel: glibc 2.36's `expf` as
/// its x86-64 FMA variant computes it (the compiler contracted the source's
/// three polynomial steps and both uses of `InvLn2N · x`), in `f64`. The
/// kernel equals it on every input, and so does that `expf`.
pub fn exp_reference(x: f32) -> f32 {
    // The slow path's arms, which it takes from |x| ≥ 88 (and ±∞, NaN);
    // the rest of that range goes on to the fast path.
    if x.is_nan() {
        return x + x;
    }
    if x > EXPF_OVER {
        return f32::INFINITY;
    }
    if x < EXPF_UNDER {
        return 0.0;
    }
    let xd = f64::from(x);
    let kd = EXPF_INVLN2N.mul_add(xd, EXPF_SHIFT);
    let ki = kd.to_bits();
    let r = EXPF_INVLN2N.mul_add(xd, -(kd - EXPF_SHIFT));
    let s = f64::from_bits(EXPF_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXPF_C;
    let z = c0.mul_add(r, c1);
    let y = c2.mul_add(r, 1.0);
    (z.mul_add(r * r, y) * s) as f32
}

/// Vectorized FP16→FP32 upscale over equal-length slices: `vcvtph2ps`
/// where the host has it ([`dispatch_path`]), the branchless loop
/// everywhere else, the same bits either way.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn upscale(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    if !simd::upscale(src, dst) {
        upscale_portable(src, dst);
    }
}

/// The path [`upscale`] takes on every platform without a wider one, and
/// the wide path's own fallback for sub-vector tails.
pub(crate) fn upscale_portable(src: &[F16], dst: &mut [f32]) {
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        for (x, y) in s.iter().zip(d.iter_mut()) {
            *y = f32_from_f16_bits(x.to_bits());
        }
    }
}

/// Scalar oracle twin of [`upscale`]: per-element [`F16::to_f32`].
pub fn upscale_reference(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (x, y) in src.iter().zip(dst.iter_mut()) {
        *y = x.to_f32();
    }
}

/// Rounds every element through FP16 in place (`x = f16(x) as f32`) — the
/// FP16-gradient-flush and FP16-device-parameter paths of
/// `dos_optim::ModelOptimizer`, fused so the intermediate half never
/// leaves a register.
pub fn round_through_f16(buf: &mut [f32]) {
    for chunk in buf.chunks_mut(CHUNK) {
        for x in chunk.iter_mut() {
            *x = f32_from_f16_bits(f16_bits_from_f32_bits(x.to_bits()));
        }
    }
}

/// Scalar oracle twin of [`round_through_f16`].
pub fn round_through_f16_reference(buf: &mut [f32]) {
    for x in buf.iter_mut() {
        *x = F16::from_f32(*x).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-compare the fast downscale against the oracle, treating two NaN
    /// results as equal only when their bits agree (the oracle pins exact
    /// NaN payload bits, so we demand full equality).
    fn check_f32(x: f32) {
        let want = F16::from_f32(x).to_bits();
        let got = f16_bits_from_f32_bits(x.to_bits());
        assert_eq!(got, want, "downscale({x:?} = {:#010x}) diverged", x.to_bits());
    }

    #[test]
    fn upscale_matches_oracle_exhaustively() {
        // Every half through the element formula and through both slice
        // paths, dispatched and portable, in vector position; then every
        // length 0..=40 from every offset 0..8, so the sub-vector tails and
        // unaligned heads are covered too.
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mut fast = vec![0.0f32; halves.len()];
        let mut portable = fast.clone();
        upscale(&halves, &mut fast);
        upscale_portable(&halves, &mut portable);
        for (((h, f), p), bits) in halves.iter().zip(&fast).zip(&portable).zip(0..=u16::MAX) {
            let want = h.to_f32().to_bits();
            let got = f32_from_f16_bits(bits);
            assert_eq!(got.to_bits(), want, "upscale({bits:#06x}) diverged: {got:?}");
            assert_eq!(f.to_bits(), want, "{} upscale({bits:#06x})", dispatch_path());
            assert_eq!(p.to_bits(), want, "portable upscale({bits:#06x})");
        }
        let base: Vec<F16> = (0..48u16).map(|i| F16::from_bits(i.wrapping_mul(0x1553))).collect();
        for offset in 0..8 {
            for len in 0..=40 {
                let src = &base[offset..offset + len];
                let mut got = vec![f32::NAN; len];
                upscale(src, &mut got);
                for (h, g) in src.iter().zip(&got) {
                    assert_eq!(g.to_bits(), h.to_f32().to_bits(), "offset {offset} len {len}");
                }
            }
        }
    }

    #[test]
    fn downscale_matches_oracle_on_all_f16_values_and_neighbours() {
        // Every exactly-representable half, plus the f32 bit patterns just
        // around it (which exercise every rounding boundary).
        for bits in 0..=u16::MAX {
            let f = F16::from_bits(bits).to_f32();
            let b = f.to_bits();
            for delta in [0u32, 1, 2, 0x0FFF, 0x1000, 0x1001] {
                check_f32(f32::from_bits(b.wrapping_add(delta)));
                check_f32(f32::from_bits(b.wrapping_sub(delta)));
            }
        }
    }

    #[test]
    fn downscale_matches_oracle_on_edge_cases() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65519.0,
            65520.0,
            1e6,
            -1e6,
            1e-9,
            -1e-9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest f32 subnormal
            f32::from_bits(0x7F80_0001), // signalling-ish NaN, payload 1
            f32::from_bits(0xFFC0_0000), // negative quiet NaN
            f32::from_bits(0x3380_0000), // 2^-24 (half of min subnormal: tie)
            f32::from_bits(0x3380_0001), // just above the tie
            6.103_515_6e-5,              // F16::MIN_POSITIVE
            5.960_464_5e-8,              // the smallest F16 subnormal
        ] {
            check_f32(x);
        }
    }

    #[test]
    fn downscale_matches_oracle_on_lcg_sweep() {
        // 2^20 pseudo-random f32 bit patterns (full-period LCG so the sweep
        // is deterministic and covers high/low bits evenly).
        let mut x: u32 = 0x2545_F491;
        for _ in 0..(1 << 20) {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            check_f32(f32::from_bits(x));
        }
    }

    /// Full 2^32 sweep through the *slice* kernels, dispatched and portable,
    /// in 2^20-element blocks, so the hardware path is what is proven —
    /// ~30 s in release, run explicitly with
    /// `cargo test -p dos-tensor --release -- --ignored exhaustive_u32`.
    #[test]
    #[ignore]
    fn downscale_matches_oracle_exhaustive_u32() {
        const BLOCK: u32 = 1 << 20;
        let mut src = vec![0.0f32; BLOCK as usize];
        let mut fast = vec![F16::ZERO; BLOCK as usize];
        let mut portable = vec![F16::ZERO; BLOCK as usize];
        for base in (0..=u32::MAX).step_by(BLOCK as usize) {
            for (x, bits) in src.iter_mut().zip(base..=base + (BLOCK - 1)) {
                *x = f32::from_bits(bits);
            }
            downscale(&src, &mut fast);
            downscale_portable(&src, &mut portable);
            for ((x, f), p) in src.iter().zip(&fast).zip(&portable) {
                let want = F16::from_f32(*x);
                assert_eq!(*f, want, "{} downscale({:#010x})", dispatch_path(), x.to_bits());
                assert_eq!(*p, want, "portable downscale({:#010x})", x.to_bits());
            }
        }
    }

    /// Dispatched = portable = reference, bit for bit.
    fn check_downscale_paths(src: &[f32]) {
        let mut fast = vec![F16::ZERO; src.len()];
        let mut portable = fast.clone();
        let mut want = fast.clone();
        downscale(src, &mut fast);
        downscale_portable(src, &mut portable);
        downscale_reference(src, &mut want);
        for (path, got) in [(dispatch_path(), &fast), ("portable (direct)", &portable)] {
            if let Some(i) = got.iter().zip(&want).position(|(a, b)| a != b) {
                panic!(
                    "{path} path diverged at element {i} of {} = {:#010x}: {:#06x}, reference {:#06x}",
                    src.len(),
                    src[i].to_bits(),
                    got[i].to_bits(),
                    want[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn slice_kernels_match_their_references() {
        let src: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32) - 5000.0) * 0.037 + 1.0 / (i as f32 + 1.0))
            .collect();
        check_downscale_paths(&src);

        // Every NaN class in every lane of a full vector between two clean
        // ones. The low-13-bit-only signalling payloads (0x7F80_0001 first)
        // are the inputs a raw `vcvtps2ph` gets wrong: this fails if NaN
        // vectors stop leaving the hardware path.
        for mantissa in [
            0x0000_0001u32, // signalling, payload in the low 13 bits only
            0x0000_1FFF,
            0x0020_0000, // signalling, payload in the high 10 bits only
            0x0020_0001, // signalling, both
            0x0040_0000, // quiet, high only
            0x0040_0001, // quiet, both
            0x007F_FFFF,
        ] {
            for sign in [0u32, 0x8000_0000] {
                for lane in 0..8 {
                    let mut v: Vec<f32> = (0..24).map(|i| i as f32 * 0.37 - 4.0).collect();
                    v[8 + lane] = f32::from_bits(sign | 0x7F80_0000 | mantissa);
                    check_downscale_paths(&v);
                }
            }
        }

        // Rounding and range boundaries through the vector body, then every
        // length 0..=40 from every sub-slice offset 0..8: unaligned heads,
        // scalar tails, the empty slice.
        let edges = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            65504.0,
            65519.0,
            65520.0,
            -65520.0,
            f32::from_bits(0x3380_0000), // 2^-24: the subnormal tie
            f32::from_bits(0x3380_0001), // just above the tie
            f32::from_bits(1),
            6.103_515_6e-5,
        ];
        let base: Vec<f32> = edges.iter().copied().cycle().take(48).collect();
        for offset in 0..8 {
            for len in 0..=40 {
                check_downscale_paths(&base[offset..offset + len]);
            }
        }

        let mut halves = vec![F16::ZERO; src.len()];
        downscale(&src, &mut halves);
        let mut up_fast = vec![0.0f32; src.len()];
        let mut up_slow = vec![0.0f32; src.len()];
        upscale(&halves, &mut up_fast);
        upscale_reference(&halves, &mut up_slow);
        assert_eq!(
            up_fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            up_slow.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        let mut rt_fast = src.clone();
        let mut rt_slow = src.clone();
        round_through_f16(&mut rt_fast);
        round_through_f16_reference(&mut rt_slow);
        assert_eq!(
            rt_fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rt_slow.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn downscale_rejects_mismatch() {
        downscale(&[1.0, 2.0], &mut [F16::ZERO]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn upscale_rejects_mismatch() {
        upscale(&[F16::ZERO], &mut [0.0, 0.0]);
    }
}
