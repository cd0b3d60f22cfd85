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
//! [`apply_reference`] keeps the original scalar loops as the oracle;
//! bit-identity is enforced by the unit tests here, the `kernels` arm of
//! the conformance harness (`dos-oracle`), and proptests across rules ×
//! stride policies × non-lane-multiple subgroup sizes.

use dos_tensor::simd::avx2_frame;

use crate::rule::UpdateRule;

/// Elements per chunk: large enough to amortize loop setup, small enough
/// that `p/g/m/v` chunks stay cache-resident together.
pub const CHUNK: usize = 1024;

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
        || apply_chunked(rule, step, lr, p, g, m, v),
    );
}

/// The chunked loops of [`apply`], compiled at whatever width the function
/// they are inlined into has. Lengths are already checked.
#[inline(always)]
fn apply_chunked(
    rule: &UpdateRule,
    step: u64,
    lr: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    match *rule {
        UpdateRule::Adam { beta1, beta2, eps, weight_decay } => {
            let bc1 = 1.0 - beta1.powi(step as i32);
            let bc2 = 1.0 - beta2.powi(step as i32);
            for (((pc, gc), mc), vc) in p
                .chunks_mut(CHUNK)
                .zip(g.chunks(CHUNK))
                .zip(m.chunks_mut(CHUNK))
                .zip(v.chunks_mut(CHUNK))
            {
                adam_chunk(beta1, beta2, eps, weight_decay, bc1, bc2, lr, pc, gc, mc, vc);
            }
        }
        UpdateRule::Adagrad { eps } => {
            for ((pc, gc), vc) in
                p.chunks_mut(CHUNK).zip(g.chunks(CHUNK)).zip(v.chunks_mut(CHUNK))
            {
                adagrad_chunk(eps, lr, pc, gc, vc);
            }
        }
        UpdateRule::RmsProp { alpha, eps } => {
            for ((pc, gc), vc) in
                p.chunks_mut(CHUNK).zip(g.chunks(CHUNK)).zip(v.chunks_mut(CHUNK))
            {
                rmsprop_chunk(alpha, eps, lr, pc, gc, vc);
            }
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
        apply_chunked(rule, step, lr, p, g, m, v);
    }

    /// Both compilations of the chunked loops, as inputs to the tests below.
    const PATHS: [(&str, Apply); 2] = [("framed", apply), ("unframed", apply_unframed)];

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
    }
}
