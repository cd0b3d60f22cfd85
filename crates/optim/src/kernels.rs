//! Chunked, autovectorizable optimizer update kernels.
//!
//! The rules in [`crate::UpdateRule`] are element-wise, so the per-element
//! arithmetic can be restructured freely *between* elements without
//! changing a single bit — as long as the expression applied to each
//! element stays identical (every division stays a division, every
//! operand order is preserved; IEEE-754 `add`/`mul`/`div`/`sqrt` are
//! exactly rounded, scalar or SIMD). The kernels here walk the four state
//! slices in lock-step chunks with all bounds checks hoisted, which is the
//! shape LLVM's loop vectorizer turns into packed `sqrt`/`div` lanes.
//!
//! Those lanes are as wide as the function they are compiled in allows:
//! four under the x86-64 baseline (SSE2), eight inside
//! [`dos_tensor::simd::avx2_frame`], which [`apply`] enters when the host
//! CPU reports AVX2. It is the same source compiled twice — no intrinsics,
//! no `fma` feature (a fused multiply-add rounds once where the rules
//! round twice, and would change bits), no reassociation — so the two
//! widths are bit-identical by construction, and the crate stays
//! `forbid(unsafe_code)`: the one `unsafe` call lives in `dos-tensor`.
//! Everything from the closure handed to the frame down to the loops is
//! `#[inline(always)]`; without that the body is *called* from the frame
//! rather than compiled in it and silently stays four lanes wide.
//!
//! [`apply_downscale`], the step's kernel, is `U_c` and `D_c` in one pass:
//! per [`FUSE_BLOCK`], the rule's chunk loops, then
//! [`dos_tensor::kernels::downscale`] of the block while it is in L1d.
//! Each element sees the same expression, then the same conversion of the
//! value the rule stored: only work *between* elements moved.
//!
//! [`apply_reference`] keeps the original scalar loops as the oracle;
//! bit-identity is enforced by the unit tests here, the `kernels` arm of
//! the conformance harness (`dos-oracle`), and proptests across rules ×
//! stride policies × non-lane-multiple subgroup sizes.

use dos_tensor::simd::avx2_frame;
use dos_tensor::{kernels as tensor_kernels, F16};

use crate::rule::UpdateRule;

/// Elements per chunk: large enough to amortize loop setup, small enough
/// that `p/g/m/v` chunks stay cache-resident together.
pub const CHUNK: usize = 1024;

/// Elements per block of [`apply_downscale`]: 32 KiB of parameters, read
/// back from L1d by the conversion. Smaller blocks lost on L2-resident
/// shards, where fusing saves no bytes but adds a call per block.
pub const FUSE_BLOCK: usize = 8192;

fn check_lengths(step: u64, p: &[f32], g: &[f32], m: &[f32], v: &[f32]) {
    assert!(step > 0, "step is 1-based");
    let n = p.len();
    assert_eq!(g.len(), n, "gradient length mismatch");
    assert_eq!(m.len(), n, "momentum length mismatch");
    assert_eq!(v.len(), n, "variance length mismatch");
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn adam_chunk(
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    for (((pi, &gi), mi), vi) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let mn = beta1 * *mi + (1.0 - beta1) * gi;
        let vn = beta2 * *vi + (1.0 - beta2) * gi * gi;
        *mi = mn;
        *vi = vn;
        let mhat = mn / bc1;
        let vhat = vn / bc2;
        *pi -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * *pi);
    }
}

#[inline(always)]
fn adagrad_chunk(eps: f32, lr: f32, p: &mut [f32], g: &[f32], v: &mut [f32]) {
    for ((pi, &gi), vi) in p.iter_mut().zip(g).zip(v.iter_mut()) {
        let vn = *vi + gi * gi;
        *vi = vn;
        *pi -= lr * gi / (vn.sqrt() + eps);
    }
}

#[inline(always)]
fn rmsprop_chunk(alpha: f32, eps: f32, lr: f32, p: &mut [f32], g: &[f32], v: &mut [f32]) {
    for ((pi, &gi), vi) in p.iter_mut().zip(g).zip(v.iter_mut()) {
        let vn = alpha * *vi + (1.0 - alpha) * gi * gi;
        *vi = vn;
        *pi -= lr * gi / (vn.sqrt() + eps);
    }
}

/// Applies `rule` to the element range, chunked and autovectorizable, at
/// the widest vector width the host has. Bit-identical to
/// [`apply_reference`] for every input.
///
/// # Panics
///
/// Panics if slice lengths differ or `step == 0`.
pub fn apply(
    rule: &UpdateRule,
    step: u64,
    lr: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    check_lengths(step, p, g, m, v);
    avx2_frame(
        #[inline(always)]
        || apply_blocked(rule, step, lr, (p, g, m, v), None),
    );
}

/// [`apply`] fused with the FP32→FP16 copy of the updated parameters into
/// `p16`, block by block. Bit-identical to [`apply_reference`] followed by
/// [`dos_tensor::kernels::downscale_reference`] for every input.
///
/// # Panics
///
/// Panics if slice lengths differ or `step == 0`.
#[allow(clippy::too_many_arguments)]
pub fn apply_downscale(
    rule: &UpdateRule,
    step: u64,
    lr: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    p16: &mut [F16],
) {
    check_lengths(step, p, g, m, v);
    assert_eq!(p16.len(), p.len(), "FP16 length mismatch");
    avx2_frame(
        #[inline(always)]
        || apply_blocked(rule, step, lr, (p, g, m, v), Some(p16)),
    );
}

/// The ranges one call updates: `p`, `g`, `m`, `v`.
type State<'a> = (&'a mut [f32], &'a [f32], &'a mut [f32], &'a mut [f32]);

/// The chunked loops of [`apply`] and [`apply_downscale`], compiled at
/// whatever width the function they are inlined into has. The rule is
/// matched and Adam's bias corrections computed once per call. Lengths are
/// already checked.
#[inline(always)]
fn apply_blocked(rule: &UpdateRule, step: u64, lr: f32, s: State<'_>, p16: Option<&mut [F16]>) {
    match *rule {
        UpdateRule::Adam { beta1, beta2, eps, weight_decay } => {
            let bc1 = 1.0 - beta1.powi(step as i32);
            let bc2 = 1.0 - beta2.powi(step as i32);
            walk(
                s,
                p16,
                #[inline(always)]
                |p, g, m, v| adam_chunk(beta1, beta2, eps, weight_decay, bc1, bc2, lr, p, g, m, v),
            );
        }
        UpdateRule::Adagrad { eps } => walk(
            s,
            p16,
            #[inline(always)]
            |p, g, _, v| adagrad_chunk(eps, lr, p, g, v),
        ),
        UpdateRule::RmsProp { alpha, eps } => walk(
            s,
            p16,
            #[inline(always)]
            |p, g, _, v| rmsprop_chunk(alpha, eps, lr, p, g, v),
        ),
    }
}

/// A block is a whole number of chunks, so walking in blocks hands `chunk`
/// the same pieces, in the same order, as one unblocked walk.
const _: () = assert!(FUSE_BLOCK.is_multiple_of(CHUNK));

/// Hands the ranges to `chunk` in lock-step [`CHUNK`]s, [`FUSE_BLOCK`] by
/// [`FUSE_BLOCK`]. With `p16`, downscales each block once `chunk` has
/// updated it.
#[inline(always)]
fn walk(
    (p, g, m, v): State<'_>,
    p16: Option<&mut [F16]>,
    mut chunk: impl FnMut(&mut [f32], &[f32], &mut [f32], &mut [f32]),
) {
    let mut out = p16.into_iter().flat_map(|h| h.chunks_mut(FUSE_BLOCK));
    let blocks = p.chunks_mut(FUSE_BLOCK).zip(g.chunks(FUSE_BLOCK));
    let blocks = blocks.zip(m.chunks_mut(FUSE_BLOCK)).zip(v.chunks_mut(FUSE_BLOCK));
    for (((pb, gb), mb), vb) in blocks {
        let chunks = pb.chunks_mut(CHUNK).zip(gb.chunks(CHUNK));
        for (((pc, gc), mc), vc) in chunks.zip(mb.chunks_mut(CHUNK)).zip(vb.chunks_mut(CHUNK)) {
            chunk(pc, gc, mc, vc);
        }
        if let Some(hb) = out.next() {
            tensor_kernels::downscale(pb, hb);
        }
    }
}

/// The original scalar loops, retained verbatim as the bit-exactness
/// oracle for [`apply`].
///
/// # Panics
///
/// Panics if slice lengths differ or `step == 0`.
pub fn apply_reference(
    rule: &UpdateRule,
    step: u64,
    lr: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    check_lengths(step, p, g, m, v);
    let n = p.len();
    match *rule {
        UpdateRule::Adam { beta1, beta2, eps, weight_decay } => {
            let bc1 = 1.0 - beta1.powi(step as i32);
            let bc2 = 1.0 - beta2.powi(step as i32);
            for i in 0..n {
                m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * p[i]);
            }
        }
        UpdateRule::Adagrad { eps } => {
            for i in 0..n {
                v[i] += g[i] * g[i];
                p[i] -= lr * g[i] / (v[i].sqrt() + eps);
            }
        }
        UpdateRule::RmsProp { alpha, eps } => {
            for i in 0..n {
                v[i] = alpha * v[i] + (1.0 - alpha) * g[i] * g[i];
                p[i] -= lr * g[i] / (v[i].sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rules() -> [UpdateRule; 4] {
        [UpdateRule::adam(), UpdateRule::adamw(0.013), UpdateRule::adagrad(), UpdateRule::rmsprop()]
    }

    fn synth(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
                (x % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    type Apply = fn(&UpdateRule, u64, f32, &mut [f32], &[f32], &mut [f32], &mut [f32]);

    /// [`apply`] without the AVX2 frame: the width every other host runs.
    fn apply_unframed(
        rule: &UpdateRule,
        step: u64,
        lr: f32,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        check_lengths(step, p, g, m, v);
        apply_blocked(rule, step, lr, (p, g, m, v), None);
    }

    /// Both compilations of the chunked loops, as inputs to the tests below.
    const PATHS: [(&str, Apply); 2] = [("framed", apply), ("unframed", apply_unframed)];

    type ApplyDownscale =
        fn(&UpdateRule, u64, f32, &mut [f32], &[f32], &mut [f32], &mut [f32], &mut [F16]);

    /// [`apply_downscale`] without the AVX2 frame.
    #[allow(clippy::too_many_arguments)]
    fn apply_downscale_unframed(
        rule: &UpdateRule,
        step: u64,
        lr: f32,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        p16: &mut [F16],
    ) {
        check_lengths(step, p, g, m, v);
        assert_eq!(p16.len(), p.len(), "FP16 length mismatch");
        apply_blocked(rule, step, lr, (p, g, m, v), Some(p16));
    }

    /// Both compilations of the fused loop.
    const FUSED_PATHS: [(&str, ApplyDownscale); 2] =
        [("framed", apply_downscale), ("unframed", apply_downscale_unframed)];

    /// Lengths around the fused kernel's block: empty, one element, one
    /// chunk short, one block short, exact, one over, and two blocks plus
    /// a sub-lane tail.
    const FUSED_SIZES: [usize; 7] = [0, 1, 1023, 8191, 8192, 8193, 2 * FUSE_BLOCK + 7];

    /// Signalling NaN parameters, one in each lane position of an 8-wide
    /// vector in each block (index `65·lane` is lane `lane`), signs
    /// alternating: the vectors holding them take the portable conversion.
    fn with_nan_lanes(mut p: Vec<f32>) -> Vec<f32> {
        for base in [0, FUSE_BLOCK, 2 * FUSE_BLOCK] {
            for lane in 0..8u32 {
                if let Some(x) = p.get_mut(base + 65 * lane as usize) {
                    *x = f32::from_bits((lane & 1) << 31 | (0x7F80_0001 + (lane >> 1) * 0x0555));
                }
            }
        }
        p
    }

    /// Runs `steps` steps of the fused kernel and of `apply_reference` then
    /// `downscale_reference` over the same state; `Err` names the first
    /// array that differs in any bit.
    fn fused_vs_reference(
        fused: ApplyDownscale,
        rule: &UpdateRule,
        steps: impl IntoIterator<Item = u64>,
        p: Vec<f32>,
        salt: u32,
    ) -> Result<(), String> {
        let n = p.len();
        let (mut pa, mut ma) = (p, synth(n, salt ^ 0x1111));
        let mut va: Vec<f32> = synth(n, salt ^ 0x2222).iter().map(|x| x.abs()).collect();
        let (mut pb, mut mb, mut vb) = (pa.clone(), ma.clone(), va.clone());
        let (mut ha, mut hb) = (vec![F16::ZERO; n], vec![F16::ZERO; n]);
        for step in steps {
            let g = synth(n, salt ^ step as u32);
            fused(rule, step, 0.017, &mut pa, &g, &mut ma, &mut va, &mut ha);
            apply_reference(rule, step, 0.017, &mut pb, &g, &mut mb, &mut vb);
            tensor_kernels::downscale_reference(&pb, &mut hb);
            let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let half = |s: &[F16]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (what, same) in [
                ("params", bits(&pa) == bits(&pb)),
                ("momentum", bits(&ma) == bits(&mb)),
                ("variance", bits(&va) == bits(&vb)),
                ("fp16", half(&ha) == half(&hb)),
            ] {
                if !same {
                    return Err(format!("{what} diverged at step {step}"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn vectorized_matches_reference_across_rules_steps_and_tails() {
        // Sizes straddling the chunk boundary and SIMD lane widths of both
        // compilations (including the non-multiple-of-lane-width tails).
        let sizes = [
            0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257, 1023, 1024, 1025, 1031,
            1032, 1033, 2047, 2048, 2049, 4097,
        ];
        for (path, apply) in PATHS {
            for n in sizes {
                for rule in rules() {
                    let mut pa = synth(n, 1);
                    let mut ma = synth(n, 2);
                    let mut va: Vec<f32> = synth(n, 3).iter().map(|x| x.abs()).collect();
                    let (mut pb, mut mb, mut vb) = (pa.clone(), ma.clone(), va.clone());
                    for step in 1..=3u64 {
                        let g = synth(n, 4 + step as u32);
                        apply(&rule, step, 0.017, &mut pa, &g, &mut ma, &mut va);
                        apply_reference(&rule, step, 0.017, &mut pb, &g, &mut mb, &mut vb);
                    }
                    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&pa), bits(&pb), "params diverged: {path} {rule:?} n={n}");
                    assert_eq!(bits(&ma), bits(&mb), "momentum diverged: {path} {rule:?} n={n}");
                    assert_eq!(bits(&va), bits(&vb), "variance diverged: {path} {rule:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn fused_matches_reference_then_downscale_across_rules_and_blocks() {
        // Three steps, then one late in a run (Adam's bias corrections far
        // from 1, as a trainer tens of thousands of steps in sees them).
        let steps = [1, 2, 3, 40_000];
        for (path, fused) in FUSED_PATHS {
            for n in FUSED_SIZES {
                for rule in rules() {
                    for (nan, p) in [(false, synth(n, 1)), (true, with_nan_lanes(synth(n, 1)))] {
                        if let Err(e) = fused_vs_reference(fused, &rule, steps, p, 5) {
                            panic!("{path} {rule:?} n={n} nan={nan}: {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "FP16 length mismatch")]
    fn fused_rejects_a_short_fp16_range() {
        let (mut p, mut m, mut v, mut p16) = ([0.0; 2], [0.0; 2], [0.0; 2], [F16::ZERO; 1]);
        apply_downscale(&UpdateRule::adam(), 1, 0.1, &mut p, &[0.0; 2], &mut m, &mut v, &mut p16);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn step_zero_rejected() {
        apply(&UpdateRule::adam(), 0, 0.1, &mut [0.0], &[0.0], &mut [0.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        apply(&UpdateRule::adam(), 1, 0.1, &mut [0.0, 1.0], &[0.0], &mut [0.0; 2], &mut [0.0; 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_inputs_stay_bit_identical(
            n in 1usize..1100,
            seed in 0u32..1_000_000,
            ridx in 0usize..4,
            step in 1u64..5,
            path in 0usize..2,
        ) {
            let rule = rules()[ridx];
            let (_, apply) = PATHS[path];
            let mut pa = synth(n, seed);
            let g = synth(n, seed ^ 0xABCD);
            let mut ma = synth(n, seed ^ 0x1111);
            let mut va: Vec<f32> = synth(n, seed ^ 0x2222).iter().map(|x| x.abs()).collect();
            let (mut pb, mut mb, mut vb) = (pa.clone(), ma.clone(), va.clone());
            apply(&rule, step, 0.005, &mut pa, &g, &mut ma, &mut va);
            apply_reference(&rule, step, 0.005, &mut pb, &g, &mut mb, &mut vb);
            prop_assert!(pa.iter().zip(&pb).all(|(a, b)| a.to_bits() == b.to_bits()));
            prop_assert!(ma.iter().zip(&mb).all(|(a, b)| a.to_bits() == b.to_bits()));
            prop_assert!(va.iter().zip(&vb).all(|(a, b)| a.to_bits() == b.to_bits()));
        }

        #[test]
        fn fused_random_inputs_stay_bit_identical(
            n in 0usize..(2 * FUSE_BLOCK + 64),
            seed in 0u32..1_000_000,
            ridx in 0usize..4,
            step in 1u64..5,
            path in 0usize..2,
            nan in any::<bool>(),
        ) {
            let p = if nan { with_nan_lanes(synth(n, seed)) } else { synth(n, seed) };
            let (_, fused) = FUSED_PATHS[path];
            let verdict = fused_vs_reference(fused, &rules()[ridx], step..=step, p, seed);
            prop_assert!(verdict.is_ok(), "{:?}", verdict);
        }
    }
}
