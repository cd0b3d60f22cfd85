//! Model-facing optimizer driver for the functional training path.

use serde::{Deserialize, Serialize};

use dos_nn::VisitParams;
use dos_tensor::kernels::round_through_f16;

use crate::rule::UpdateRule;
use crate::state::MixedPrecisionState;

/// How gradients travel from the model to the FP32 optimizer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GradPrecision {
    /// Keep gradients in FP32 end to end (the paper's optimized path: the
    /// FP16→FP32 upscale happens *before* the flush, so the optimizer sees
    /// full-precision values rounded only once by the FP16 backward).
    Fp32,
    /// Round gradients through FP16 before the optimizer consumes them —
    /// the conventional mixed-precision flush (FP16 gradients staged to the
    /// host and upscaled there).
    Fp16Flush,
}

/// Drives a [`MixedPrecisionState`] against any [`VisitParams`] model:
/// gathers gradients, steps the FP32 master state, and writes parameters
/// back (optionally rounding the "device copy" to FP16 as real
/// mixed-precision training does).
///
/// # Examples
///
/// ```
/// use dos_nn::{Gpt, GptConfig, VisitParams};
/// use dos_optim::{GradPrecision, ModelOptimizer, UpdateRule};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Gpt::new(GptConfig::tiny(), &mut rng);
/// let mut opt = ModelOptimizer::new(&mut model, UpdateRule::adam(), 1e-2, GradPrecision::Fp32, false);
/// let loss0 = model.loss_and_backward(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
/// opt.step(&mut model);
/// let loss1 = model.loss_only(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
/// assert!(loss1 < loss0);
/// ```
#[derive(Debug, Clone)]
pub struct ModelOptimizer {
    state: MixedPrecisionState,
    grad_precision: GradPrecision,
    fp16_device_params: bool,
}

impl ModelOptimizer {
    /// Creates an optimizer whose FP32 master copy is initialized from the
    /// model's current parameters.
    ///
    /// `fp16_device_params` rounds the parameters written back to the model
    /// through FP16, emulating the FP16 device copy of mixed-precision
    /// training (the FP32 masters stay exact inside the optimizer).
    pub fn new(
        model: &mut impl VisitParams,
        rule: UpdateRule,
        lr: f32,
        grad_precision: GradPrecision,
        fp16_device_params: bool,
    ) -> ModelOptimizer {
        let params = model.gather_params();
        ModelOptimizer {
            state: MixedPrecisionState::new(params, rule, lr),
            grad_precision,
            fp16_device_params,
        }
    }

    /// The underlying FP32 state.
    pub fn state(&self) -> &MixedPrecisionState {
        &self.state
    }

    /// Mutable access to the underlying FP32 state (subgroup schedulers).
    pub fn state_mut(&mut self) -> &mut MixedPrecisionState {
        &mut self.state
    }

    /// A copy of the model's gradients through the configured precision
    /// path.
    pub fn gather_grads(&self, model: &mut impl VisitParams) -> Vec<f32> {
        let mut grads = model.gather_grads();
        if self.grad_precision == GradPrecision::Fp16Flush {
            round_through_f16(&mut grads);
        }
        grads
    }

    /// One full optimizer step: update the masters from the model's
    /// gradients (read in place on the FP32 path) → write parameters back
    /// to the model → zero grads.
    pub fn step(&mut self, model: &mut impl VisitParams) {
        match self.grad_precision {
            GradPrecision::Fp32 => self.state.full_step(model.params().grads()),
            GradPrecision::Fp16Flush => self.state.full_step(&self.gather_grads(model)),
        }
        self.write_back(model);
        model.zero_grads();
    }

    /// Writes the master parameters back into the model, applying the
    /// FP16-device rounding if configured. Exposed separately so subgroup
    /// schedulers can update the state out-of-order first.
    pub fn write_back(&self, model: &mut impl VisitParams) {
        model.scatter_params(self.state.params());
        if self.fp16_device_params {
            round_through_f16(model.params_mut().weights_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_nn::{Gpt, GptConfig};
    use dos_tensor::F16;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Gpt {
        let mut rng = StdRng::seed_from_u64(seed);
        Gpt::new(GptConfig::tiny(), &mut rng)
    }

    #[test]
    fn training_reduces_loss_over_iterations() {
        let mut m = model(0);
        let mut opt =
            ModelOptimizer::new(&mut m, UpdateRule::adam(), 5e-3, GradPrecision::Fp32, false);
        let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let targets = [1usize, 4, 1, 5, 9, 2, 6, 5];
        let first = m.loss_and_backward(&tokens, &targets, 2, 4);
        opt.step(&mut m);
        let mut last = first;
        for _ in 0..10 {
            last = m.loss_and_backward(&tokens, &targets, 2, 4);
            opt.step(&mut m);
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn fp16_flush_changes_but_tracks_fp32_path() {
        let mut m1 = model(1);
        let mut m2 = model(1);
        let mut o1 =
            ModelOptimizer::new(&mut m1, UpdateRule::adam(), 1e-2, GradPrecision::Fp32, false);
        let mut o2 =
            ModelOptimizer::new(&mut m2, UpdateRule::adam(), 1e-2, GradPrecision::Fp16Flush, false);
        let tokens = [1usize, 2, 3, 4];
        let targets = [2usize, 3, 4, 5];
        m1.loss_and_backward(&tokens, &targets, 1, 4);
        m2.loss_and_backward(&tokens, &targets, 1, 4);
        o1.step(&mut m1);
        o2.step(&mut m2);
        let p1 = o1.state().params();
        let p2 = o2.state().params();
        assert_ne!(p1, p2, "fp16 rounding should perturb something");
        let max_diff = p1
            .iter()
            .zip(p2.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-2, "fp16 flush diverged: {max_diff}");
    }

    #[test]
    fn fp16_device_params_round_model_copy() {
        let mut m = model(2);
        let opt =
            ModelOptimizer::new(&mut m, UpdateRule::adam(), 1e-2, GradPrecision::Fp32, true);
        opt.write_back(&mut m);
        for p in m.gather_params() {
            assert_eq!(p, F16::from_f32(p).to_f32(), "param {p} not f16-representable");
        }
    }

    #[test]
    fn zero_grads_after_step() {
        let mut m = model(3);
        let mut opt =
            ModelOptimizer::new(&mut m, UpdateRule::adam(), 1e-2, GradPrecision::Fp32, false);
        m.loss_and_backward(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
        opt.step(&mut m);
        assert!(m.gather_grads().iter().all(|&g| g == 0.0));
    }
}
