//! Element-wise adaptive update rules.
//!
//! The paper's scheduling freedom comes from one property (§4.1): adaptive
//! learning-rate optimizers — Adam, Adagrad, RMSProp — are *embarrassingly
//! parallel across elements*, so optimizer subgroups can be updated in any
//! order, on any device, without synchronization or accuracy impact. Every
//! rule here is a pure function of `(p[i], g[i], m[i], v[i], step)`, which is
//! what makes the subgroup-permutation invariance tests in this crate (and
//! the interleaved pipeline in `dos-core`) possible.

use dos_tensor::F16;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of an element-wise update rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum UpdateRule {
    /// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW).
    Adam {
        /// First-moment decay (default 0.9).
        beta1: f32,
        /// Second-moment decay (default 0.999).
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
        /// Decoupled weight decay (0 for plain Adam).
        weight_decay: f32,
    },
    /// Adagrad (Duchi et al.): `v` accumulates squared gradients; `m` unused.
    Adagrad {
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// RMSProp (Graves): `v` is an exponential moving average of squared
    /// gradients; `m` unused.
    RmsProp {
        /// Squared-gradient decay (default 0.99).
        alpha: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
}

impl UpdateRule {
    /// Adam with the conventional defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn adam() -> UpdateRule {
        UpdateRule::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }

    /// AdamW with the given decoupled weight decay.
    pub fn adamw(weight_decay: f32) -> UpdateRule {
        UpdateRule::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay }
    }

    /// Adagrad with the conventional default ε.
    pub fn adagrad() -> UpdateRule {
        UpdateRule::Adagrad { eps: 1e-10 }
    }

    /// RMSProp with the conventional defaults.
    pub fn rmsprop() -> UpdateRule {
        UpdateRule::RmsProp { alpha: 0.99, eps: 1e-8 }
    }

    /// Applies the rule to a contiguous range of elements.
    ///
    /// `step` is the 1-based global step count (used for Adam's bias
    /// correction). All four slices must be the same length. Delegates to
    /// the chunked vectorized kernels ([`crate::kernels::apply`]), which
    /// are bit-identical to the scalar oracle
    /// ([`UpdateRule::apply_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or `step == 0`.
    pub fn apply(
        &self,
        step: u64,
        lr: f32,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        crate::kernels::apply(self, step, lr, p, g, m, v);
    }

    /// [`UpdateRule::apply`] and the FP16 downscale of the result into
    /// `p16` in one pass ([`crate::kernels::apply_downscale`]).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or `step == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_downscale(
        &self,
        step: u64,
        lr: f32,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        p16: &mut [F16],
    ) {
        crate::kernels::apply_downscale(self, step, lr, p, g, m, v, p16);
    }

    /// The scalar reference implementation — the oracle the vectorized
    /// kernels are conformance-tested against. Same contract as
    /// [`UpdateRule::apply`].
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or `step == 0`.
    pub fn apply_reference(
        &self,
        step: u64,
        lr: f32,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        crate::kernels::apply_reference(self, step, lr, p, g, m, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_first_step_is_signed_lr() {
        // With bias correction, the first Adam step is ~lr * sign(g).
        let rule = UpdateRule::adam();
        let mut p = vec![1.0f32, 1.0];
        let mut m = vec![0.0; 2];
        let mut v = vec![0.0; 2];
        rule.apply(1, 0.1, &mut p, &[0.5, -0.5], &mut m, &mut v);
        assert!((p[0] - 0.9).abs() < 1e-4, "p[0]={}", p[0]);
        assert!((p[1] - 1.1).abs() < 1e-4, "p[1]={}", p[1]);
    }

    #[test]
    fn adam_matches_reference_two_steps() {
        // Hand-computed reference for a single element.
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
        let rule = UpdateRule::Adam { beta1: b1, beta2: b2, eps, weight_decay: 0.0 };
        let mut p = vec![2.0f32];
        let mut m = vec![0.0];
        let mut v = vec![0.0];
        let g1 = 0.3f32;
        rule.apply(1, lr, &mut p, &[g1], &mut m, &mut v);
        let m1 = (1.0 - b1) * g1;
        let v1 = (1.0 - b2) * g1 * g1;
        let p1 = 2.0 - lr * (m1 / (1.0 - b1)) / ((v1 / (1.0 - b2)).sqrt() + eps);
        assert!((p[0] - p1).abs() < 1e-6);
        let g2 = -0.1f32;
        rule.apply(2, lr, &mut p, &[g2], &mut m, &mut v);
        let m2 = b1 * m1 + (1.0 - b1) * g2;
        let v2 = b2 * v1 + (1.0 - b2) * g2 * g2;
        let p2 = p1
            - lr * (m2 / (1.0 - b1 * b1)) / ((v2 / (1.0 - b2 * b2)).sqrt() + eps);
        assert!((p[0] - p2).abs() < 1e-6);
    }

    #[test]
    fn adamw_decays_weights() {
        let rule = UpdateRule::adamw(0.1);
        let mut p = vec![1.0f32];
        let mut m = vec![0.0];
        let mut v = vec![0.0];
        rule.apply(1, 0.01, &mut p, &[0.0], &mut m, &mut v);
        assert!((p[0] - (1.0 - 0.01 * 0.1)).abs() < 1e-7);
    }

    #[test]
    fn adagrad_accumulates_monotonically() {
        let rule = UpdateRule::adagrad();
        let mut p = vec![0.0f32];
        let mut m = vec![0.0];
        let mut v = vec![0.0];
        rule.apply(1, 0.1, &mut p, &[1.0], &mut m, &mut v);
        let d1 = -p[0];
        let before = p[0];
        rule.apply(2, 0.1, &mut p, &[1.0], &mut m, &mut v);
        let d2 = before - p[0];
        assert!(d2 < d1, "adagrad steps should shrink: {d1} then {d2}");
        assert!(v[0] > 1.9);
    }

    #[test]
    fn rmsprop_tracks_recent_magnitude() {
        let rule = UpdateRule::rmsprop();
        let mut p = vec![0.0f32];
        let mut m = vec![0.0];
        let mut v = vec![0.0];
        for s in 1..=500 {
            rule.apply(s, 0.01, &mut p, &[2.0], &mut m, &mut v);
        }
        // v converges toward g^2 = 4 (alpha=0.99 => ~1% residual at 500 steps).
        assert!((v[0] - 4.0).abs() < 0.1, "v={}", v[0]);
    }

    #[test]
    fn elementwise_independence() {
        // Updating [a, b] together equals updating each alone — the property
        // that makes subgroup scheduling safe.
        let rule = UpdateRule::adam();
        let g = [0.7f32, -0.3];
        let mut p_all = vec![1.0f32, 2.0];
        let mut m_all = vec![0.0; 2];
        let mut v_all = vec![0.0; 2];
        rule.apply(1, 0.05, &mut p_all, &g, &mut m_all, &mut v_all);

        for i in 0..2 {
            let mut p = vec![[1.0f32, 2.0][i]];
            let mut m = vec![0.0];
            let mut v = vec![0.0];
            rule.apply(1, 0.05, &mut p, &[g[i]], &mut m, &mut v);
            assert_eq!(p[0], p_all[i]);
            assert_eq!(m[0], m_all[i]);
            assert_eq!(v[0], v_all[i]);
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn step_zero_rejected() {
        UpdateRule::adam().apply(0, 0.1, &mut [0.0], &[0.0], &mut [0.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        UpdateRule::adam().apply(1, 0.1, &mut [0.0, 1.0], &[0.0], &mut [0.0, 0.0], &mut [0.0, 0.0]);
    }
}
