//! Property tests of structural layer invariants (complementing the
//! finite-difference gradchecks in the unit tests).

use dos_nn::{CausalSelfAttention, Gpt, GptConfig, LayerNorm, Linear, Params, VisitParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A linear layer's backward is linear in the upstream gradient:
    /// dx(a·dy) == a·dx(dy), bitwise for power-of-two scales.
    #[test]
    fn linear_backward_is_linear(x in vec_strategy(6), dy in vec_strategy(8)) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut l = Linear::new(&mut ps, 3, 4, 0.5, &mut rng);
        l.forward(&ps, &x, 2);
        ps.zero_grads();
        let dx1 = l.backward(&mut ps, &x, &dy).to_vec();
        let dy2: Vec<f32> = dy.iter().map(|d| d * 4.0).collect();
        l.forward(&ps, &x, 2);
        ps.zero_grads();
        let dx2 = l.backward(&mut ps, &x, &dy2);
        for (a, b) in dx1.iter().zip(dx2.iter()) {
            prop_assert_eq!(a * 4.0, *b);
        }
    }

    /// LayerNorm output is invariant to a constant shift of its input.
    #[test]
    fn layernorm_is_shift_invariant(x in vec_strategy(8), shift in -5.0f32..5.0) {
        let mut ps = Params::default();
        let mut ln = LayerNorm::new(&mut ps, 8);
        let y1 = ln.forward(&ps, &x, 1).to_vec();
        let shifted: Vec<f32> = x.iter().map(|v| v + shift).collect();
        let y2 = ln.forward(&ps, &shifted, 1);
        for (a, b) in y1.iter().zip(y2.iter()) {
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b} after shift {shift}");
        }
    }

    /// Causality holds for arbitrary inputs: perturbing token t leaves
    /// outputs at positions < t bitwise unchanged.
    #[test]
    fn attention_is_causal(x in vec_strategy(4 * 4), t in 1usize..4, delta in 0.1f32..2.0) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = Params::default();
        let mut attn = CausalSelfAttention::new(&mut ps, 4, 2, 0.4, &mut rng);
        let y1 = attn.forward(&ps, &x, 1, 4).to_vec();
        let mut x2 = x.clone();
        for v in x2[t * 4..(t + 1) * 4].iter_mut() {
            *v += delta;
        }
        let y2 = attn.forward(&ps, &x2, 1, 4);
        prop_assert_eq!(&y1[..t * 4], &y2[..t * 4], "position {} leaked backward", t);
    }

    /// Gradient accumulation across separate backward calls equals one
    /// backward over the summed upstream gradient (for the whole model).
    #[test]
    fn model_grads_accumulate_additively(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Gpt::new(GptConfig::tiny(), &mut rng);
        let tokens = [1usize, 2, 3, 4];
        let targets = [2usize, 3, 4, 5];
        // Two backward passes accumulate.
        m.loss_and_backward(&tokens, &targets, 1, 4);
        m.loss_and_backward(&tokens, &targets, 1, 4);
        let twice = m.gather_grads();
        m.zero_grads();
        m.loss_and_backward(&tokens, &targets, 1, 4);
        let once = m.gather_grads();
        for (a, b) in twice.iter().zip(once.iter()) {
            // Identical forward passes accumulate identical gradients, so
            // `twice == 2*once` up to f32 noise near the denormal floor.
            prop_assert!((a - 2.0 * b).abs() <= a.abs() * 1e-3 + 1e-9,
                "accumulation mismatch: {a} vs 2*{b}");
        }
    }
}
