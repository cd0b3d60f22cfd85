//! The GPT-style decoder-only transformer.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::block::Block;
use crate::embedding::Embedding;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::loss::cross_entropy;
use crate::param::{Params, VisitParams};

/// Architecture hyper-parameters of a [`Gpt`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum sequence length (positional table size).
    pub max_seq: usize,
    /// Hidden dimension.
    pub dim: usize,
    /// Number of transformer blocks.
    pub num_layers: usize,
    /// Attention heads per block.
    pub num_heads: usize,
    /// Weight-initialization standard deviation.
    pub init_std: f32,
}

impl GptConfig {
    /// A deliberately tiny configuration for functional tests and examples.
    pub fn tiny() -> GptConfig {
        GptConfig {
            vocab_size: 64,
            max_seq: 16,
            dim: 16,
            num_layers: 2,
            num_heads: 2,
            init_std: 0.08,
        }
    }
}

/// A decoder-only transformer with embeddings, pre-LN blocks, a final
/// LayerNorm, and an (untied) language-model head.
///
/// # Examples
///
/// ```
/// use dos_nn::{Gpt, GptConfig, VisitParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Gpt::new(GptConfig::tiny(), &mut rng);
/// let tokens = [1usize, 2, 3, 4];
/// let targets = [2usize, 3, 4, 5];
/// let loss = model.loss_and_backward(&tokens, &targets, 1, 4);
/// assert!(loss > 0.0);
/// assert!(model.num_params() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Gpt {
    cfg: GptConfig,
    params: Params,
    emb: Embedding,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    head: Linear,
    cached_batch: usize,
    cached_seq: usize,
    /// The loss gradient, and each block's input when recomputing: kept
    /// so that forward and backward allocate nothing after the first call.
    dlogits: Vec<f32>,
    block_inputs: Vec<Vec<f32>>,
}

impl Gpt {
    /// Creates a model with randomly initialized weights.
    pub fn new<R: Rng>(cfg: GptConfig, rng: &mut R) -> Gpt {
        let ps = &mut Params::default();
        let emb = Embedding::new(ps, cfg.vocab_size, cfg.max_seq, cfg.dim, cfg.init_std, rng);
        let blocks = (0..cfg.num_layers)
            .map(|_| Block::new(ps, cfg.dim, cfg.num_heads, cfg.init_std, rng))
            .collect();
        let ln_f = LayerNorm::new(ps, cfg.dim);
        let head = Linear::new(ps, cfg.dim, cfg.vocab_size, cfg.init_std, rng);
        let params = std::mem::take(ps);
        Gpt {
            cfg,
            params,
            emb,
            blocks,
            ln_f,
            head,
            cached_batch: 0,
            cached_seq: 0,
            dlogits: Vec::new(),
            block_inputs: Vec::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Sizes every buffer a forward/backward over `batch` sequences of
    /// `seq` tokens writes, so that those calls allocate nothing, and so
    /// that a clone carries them: a data-parallel run sizes its model on
    /// the thread that clones it for the ranks, so the ranks' long-lived
    /// buffers come from that thread's allocator instead of being grown on
    /// each short-lived rank thread, whose arena would keep them.
    pub fn reserve(&mut self, batch: usize, seq: usize) {
        let rows = batch * seq;
        self.emb.reserve(rows);
        for blk in &mut self.blocks {
            blk.reserve(batch, seq);
        }
        self.ln_f.reserve(rows);
        self.head.reserve(rows);
        self.dlogits.resize(rows * self.cfg.vocab_size, 0.0);
    }

    /// Forward pass: token ids (`batch * seq` of them) to logits
    /// `[batch*seq, vocab]`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != batch * seq`.
    pub fn forward(&mut self, tokens: &[usize], batch: usize, seq: usize) -> Vec<f32> {
        self.forward_keeping(tokens, batch, seq, false);
        self.head.output().to_vec()
    }

    /// [`Gpt::forward`] into the head's kept output, copying each block's
    /// input into `block_inputs` when `keep` (the activation checkpoints
    /// a recomputing backward needs).
    fn forward_keeping(&mut self, tokens: &[usize], batch: usize, seq: usize, keep: bool) {
        assert_eq!(tokens.len(), batch * seq, "bad token count");
        let rows = batch * seq;
        let ps = &self.params;
        if keep {
            self.block_inputs.resize_with(self.blocks.len(), Vec::new);
        }
        let mut x = self.emb.forward(ps, tokens, seq);
        for (i, blk) in self.blocks.iter_mut().enumerate() {
            if keep {
                self.block_inputs[i].clear();
                self.block_inputs[i].extend_from_slice(x);
            }
            x = blk.forward(ps, x, batch, seq);
        }
        let x = self.ln_f.forward(ps, x, rows);
        self.head.forward(ps, x, rows);
        self.cached_batch = batch;
        self.cached_seq = seq;
    }

    /// Backward pass from logit gradients; accumulates into every parameter.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run.
    pub fn backward(&mut self, dlogits: &[f32]) {
        self.backward_recomputing(dlogits, false);
    }

    /// [`Gpt::backward`], re-running each block's forward from its kept
    /// input immediately before its backward when `recompute`.
    fn backward_recomputing(&mut self, dlogits: &[f32], recompute: bool) {
        assert!(self.cached_batch > 0, "backward before forward");
        let (batch, seq) = (self.cached_batch, self.cached_seq);
        let ps = &mut self.params;
        let dh = self.head.backward(ps, self.ln_f.output(), dlogits);
        let mut dx = self.ln_f.backward(ps, dh);
        for (i, blk) in self.blocks.iter_mut().enumerate().rev() {
            if recompute {
                let _ = blk.forward(ps, &self.block_inputs[i], batch, seq);
            }
            dx = blk.backward(ps, dx);
        }
        self.emb.backward(ps, dx);
    }

    /// Convenience: forward + cross-entropy + backward; returns the loss.
    /// The plain form of [`Gpt::loss_and_backward_with`].
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != tokens.len()`.
    pub fn loss_and_backward(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
    ) -> f32 {
        self.loss_and_backward_with(tokens, targets, batch, seq, None, false)
    }

    /// Forward + cross-entropy + backward with two orthogonal recipes.
    ///
    /// `scale: Some(s)` backpropagates a *scaled* loss (`s × L`), the
    /// mixed-precision loss-scaling recipe: gradients come out multiplied
    /// by `s` and must be unscaled (e.g. by
    /// `dos_optim::DynamicLossScaler::unscale_check`) before the optimizer
    /// consumes them. The returned loss is always the *unscaled* one.
    ///
    /// `recompute: true` is *activation checkpointing*: the forward pass
    /// keeps only each block's input, and the backward pass recomputes a
    /// block's forward immediately before its backward — the functional
    /// counterpart of the recompute strategy the paper enables for all its
    /// runs (§5.3, "33 % additional recomputations"). Gradients are
    /// bitwise identical to the non-recomputing path.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != tokens.len()` or `scale` is not positive.
    pub fn loss_and_backward_with(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        scale: Option<f32>,
        recompute: bool,
    ) -> f32 {
        assert_eq!(targets.len(), tokens.len(), "targets must align with tokens");
        assert!(scale.is_none_or(|s| s > 0.0), "scale must be positive");
        self.forward_keeping(tokens, batch, seq, recompute);
        let mut dlogits = std::mem::take(&mut self.dlogits);
        let loss = cross_entropy(self.head.output(), targets, self.cfg.vocab_size, &mut dlogits);
        if let Some(scale) = scale {
            for d in dlogits.iter_mut() {
                *d *= scale;
            }
        }
        self.backward_recomputing(&dlogits, recompute);
        self.dlogits = dlogits;
        loss
    }

    /// Forward + loss only (no gradient) — used for evaluation.
    pub fn loss_only(&mut self, tokens: &[usize], targets: &[usize], batch: usize, seq: usize) -> f32 {
        self.forward_keeping(tokens, batch, seq, false);
        cross_entropy(self.head.output(), targets, self.cfg.vocab_size, &mut self.dlogits)
    }

    /// Autoregressive generation: extends `prompt` with `max_new` tokens.
    ///
    /// `temperature == 0` is greedy decoding; otherwise logits are divided
    /// by the temperature and sampled. The context is truncated to the last
    /// `max_seq` tokens as it grows.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, contains out-of-vocabulary ids, or
    /// `temperature` is negative.
    pub fn generate<R: Rng>(
        &mut self,
        prompt: &[usize],
        max_new: usize,
        temperature: f32,
        rng: &mut R,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(temperature >= 0.0, "temperature must be non-negative");
        let mut tokens = prompt.to_vec();
        for _ in 0..max_new {
            let start = tokens.len().saturating_sub(self.cfg.max_seq);
            let context = &tokens[start..];
            let logits = self.forward(context, 1, context.len());
            let last = &logits[(context.len() - 1) * self.cfg.vocab_size..];
            tokens.push(pick(last, temperature, rng));
        }
        tokens
    }
}

/// Picks the next token from a logit row: the argmax at temperature 0,
/// otherwise a draw from the softmax at `temperature`, walking the
/// candidates from most to least likely.
fn pick<R: Rng>(logits: &[f32], temperature: f32, rng: &mut R) -> usize {
    if temperature <= 0.0 {
        return logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty vocab");
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut weights: Vec<f32> = logits.iter().map(|&v| (v - max) / temperature).collect();
    dos_tensor::simd::exp(&mut weights);
    let mut entries: Vec<(usize, f32)> = weights.into_iter().enumerate().collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
    let total: f32 = entries.iter().map(|(_, w)| w).sum();
    let mut u: f32 = rng.gen::<f32>() * total;
    for (i, w) in &entries {
        if u <= *w {
            return *i;
        }
        u -= w;
    }
    entries.last().expect("at least one candidate").0
}

impl VisitParams for Gpt {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Gpt {
        let mut rng = StdRng::seed_from_u64(seed);
        Gpt::new(GptConfig::tiny(), &mut rng)
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = tiny_model(0);
        let logits = m.forward(&[1, 2, 3, 4], 2, 2);
        assert_eq!(logits.len(), 4 * 64);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn param_count_formula() {
        let m = tiny_model(0);
        let cfg = GptConfig::tiny();
        let d = cfg.dim;
        let block = d * 3 * d + 3 * d + d * d + d + d * 4 * d + 4 * d + 4 * d * d + d + 4 * d;
        let expected = cfg.vocab_size * d
            + cfg.max_seq * d
            + cfg.num_layers * block
            + 2 * d
            + d * cfg.vocab_size
            + cfg.vocab_size;
        assert_eq!(m.num_params(), expected);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut m = tiny_model(1);
        m.loss_and_backward(&[5, 6, 7, 8], &[6, 7, 8, 9], 1, 4);
        let grads = m.gather_grads();
        let nonzero = grads.iter().filter(|g| **g != 0.0).count();
        // Embedding rows for unused tokens stay zero; everything else moves.
        assert!(
            nonzero as f64 > grads.len() as f64 * 0.5,
            "only {nonzero}/{} grads nonzero",
            grads.len()
        );
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let mut m = tiny_model(2);
        let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let targets = [1usize, 4, 1, 5, 9, 2, 6, 5];
        let l0 = m.loss_and_backward(&tokens, &targets, 2, 4);
        let grads = m.gather_grads();
        let mut params = m.gather_params();
        for (p, g) in params.iter_mut().zip(grads.iter()) {
            *p -= 0.1 * g;
        }
        m.scatter_params(&params);
        let l1 = m.loss_only(&tokens, &targets, 2, 4);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = tiny_model(7);
        let mut b = tiny_model(7);
        let la = a.loss_and_backward(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
        let lb = b.loss_and_backward(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
        assert_eq!(la, lb);
        assert_eq!(a.gather_grads(), b.gather_grads());
    }
}

#[cfg(test)]
mod checkpoint_and_generation_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Gpt {
        let mut rng = StdRng::seed_from_u64(seed);
        Gpt::new(GptConfig::tiny(), &mut rng)
    }

    #[test]
    fn checkpointed_backward_matches_plain_bitwise() {
        let mut plain = model(21);
        let mut ckpt = model(21);
        let tokens = [3usize, 9, 27, 17, 5, 6, 7, 8];
        let targets = [9usize, 27, 17, 5, 6, 7, 8, 1];
        let l1 = plain.loss_and_backward(&tokens, &targets, 2, 4);
        let l2 = ckpt.loss_and_backward_with(&tokens, &targets, 2, 4, None, true);
        assert_eq!(l1, l2, "losses must match");
        assert_eq!(plain.gather_grads(), ckpt.gather_grads(), "grads must be bitwise equal");
    }

    fn fnv1a(bits: impl Iterator<Item = u32>) -> u64 {
        bits.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Whether `tanh`, `exp` and `ln` give the bits the trajectory pins
    /// were captured with. `tanh` and `exp` come from `dos_tensor::simd`
    /// (glibc 2.36's algorithms on a host with its 512-bit path, the
    /// platform's libm elsewhere) and `ln` from libm, so a pin holds where
    /// they match, and says so instead of failing elsewhere.
    fn libm_is_the_pinned_one(what: &str) -> bool {
        let xs: Vec<f32> = (0..4096).map(|i| (i as f32 - 2048.0) / 256.0).collect();
        let (mut t, mut e) = (xs.clone(), xs.clone());
        dos_tensor::simd::tanh(&mut t);
        dos_tensor::simd::exp(&mut e);
        let libm = fnv1a(xs.iter().zip(t.iter().zip(&e)).flat_map(|(x, (t, e))| {
            [t.to_bits(), e.to_bits(), (x.abs() + 1e-3).ln().to_bits()]
        }));
        if libm != 0x7423_1658_24c4_a79e {
            eprintln!("{what} skipped: libm {libm:#018x} is not the one it was captured on");
        }
        libm == 0x7423_1658_24c4_a79e
    }

    /// Three SGD steps (`p -= lr · g`, gradients left to accumulate) of a
    /// model built from `seed`, plain and recomputed: each step's loss
    /// bits and a digest of the final gradients.
    fn trajectory(
        cfg: GptConfig,
        seed: u64,
        (tokens, targets): (&[usize], &[usize]),
        (batch, seq): (usize, usize),
        lr: f32,
    ) -> [([u32; 3], u64); 2] {
        [false, true].map(|recompute| {
            let mut m = Gpt::new(cfg.clone(), &mut StdRng::seed_from_u64(seed));
            let losses = [(); 3].map(|()| {
                let loss = m.loss_and_backward_with(tokens, targets, batch, seq, None, recompute);
                let grads = m.gather_grads();
                let mut params = m.gather_params();
                for (p, g) in params.iter_mut().zip(&grads) {
                    *p -= lr * g;
                }
                m.scatter_params(&params);
                loss.to_bits()
            });
            (losses, fnv1a(m.gather_grads().iter().map(|g| g.to_bits())))
        })
    }

    /// The tiny model's trajectory as the plain loops `math::gemm`
    /// replaced and the two-`tanh` GELU produced it (captured at the
    /// commit before, debug and release).
    #[test]
    fn trajectory_bits_are_pinned_plain_and_recomputed() {
        if !libm_is_the_pinned_one("tiny trajectory pin") {
            return;
        }
        let tokens: Vec<usize> = (0..16).map(|i| (i * 7 + 3) % 64).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 11 + 5) % 64).collect();
        let want = ([0x408a_739c, 0x4074_45e2, 0x4059_15ee], 0x3116_da5f_36b5_b5e7);
        let got = trajectory(GptConfig::tiny(), 21, (&tokens, &targets), (2, 8), 0.5);
        assert_eq!(got, [want, want], "[plain, recomputed]");
    }

    /// The same at `train_dp2`'s shape (head dim 16, seq 32, vocab 512,
    /// four sequences: 128 rows), where attention and cross-entropy take
    /// every branch of their kernels the tiny model misses. Captured at
    /// the commit before they left their scalar loops, debug and release.
    #[test]
    fn trajectory_bits_are_pinned_at_the_benchmark_shape() {
        if !libm_is_the_pinned_one("benchmark-shape trajectory pin") {
            return;
        }
        let cfg = GptConfig {
            vocab_size: 512,
            max_seq: 32,
            dim: 64,
            num_layers: 2,
            num_heads: 4,
            init_std: 0.08,
        };
        let tokens: Vec<usize> = (0..128).map(|i| (i * 37 + 11) % 512).collect();
        let targets: Vec<usize> = (0..128).map(|i| (i * 53 + 7) % 512).collect();
        let got = trajectory(cfg, 7, (&tokens, &targets), (4, 32), 0.5);
        let want = ([0x40cd_56c1, 0x40b7_9a83, 0x40a4_5ae7], 0x9f25_ca8c_4b38_ec9c);
        assert_eq!(got, [want, want], "[plain, recomputed]");
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let mut m = model(4);
        let mut rng = StdRng::seed_from_u64(0);
        let a = m.generate(&[1, 2, 3], 5, 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(99);
        let b = m.generate(&[1, 2, 3], 5, 0.0, &mut rng);
        assert_eq!(a, b, "greedy decoding ignores the rng");
        assert_eq!(a.len(), 8);
        assert_eq!(&a[..3], &[1, 2, 3]);
        assert!(a.iter().all(|&t| t < m.config().vocab_size));
    }

    #[test]
    fn sampling_is_seed_deterministic_and_varies() {
        let mut m = model(4);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = m.generate(&[1], 6, 1.0, &mut r1);
        let b = m.generate(&[1], 6, 1.0, &mut r2);
        assert_eq!(a, b);
        // At high temperature different seeds should (almost surely) differ.
        let mut r3 = StdRng::seed_from_u64(6);
        let mut r4 = StdRng::seed_from_u64(7);
        let c = m.generate(&[1], 12, 2.0, &mut r3);
        let d = m.generate(&[1], 12, 2.0, &mut r4);
        assert_ne!(c, d);
    }

    #[test]
    fn generation_respects_context_window() {
        let mut m = model(4);
        let mut rng = StdRng::seed_from_u64(0);
        // Prompt longer than max_seq: the window truncates and it still works.
        let prompt: Vec<usize> = (0..20).map(|i| i % 50).collect();
        let out = m.generate(&prompt, 3, 0.0, &mut rng);
        assert_eq!(out.len(), 23);
    }
}

#[cfg(test)]
mod loss_scaling_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scaled_and_recomputed_gradients_are_scale_times_plain() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut plain = Gpt::new(GptConfig::tiny(), &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scaled = Gpt::new(GptConfig::tiny(), &mut rng);
        let tokens = [1usize, 2, 3, 4];
        let targets = [2usize, 3, 4, 5];
        let l1 = plain.loss_and_backward(&tokens, &targets, 1, 4);
        let l2 = scaled.loss_and_backward_with(&tokens, &targets, 1, 4, Some(1024.0), false);
        assert_eq!(l1, l2, "reported loss is unscaled");
        let g1 = plain.gather_grads();
        let g2 = scaled.gather_grads();
        for (a, b) in g1.iter().zip(g2.iter()) {
            // Scaling by a power of two is exact in floating point.
            assert_eq!(a * 1024.0, *b);
        }
        // Scale and recomputation are orthogonal: both at once gives the
        // scaled gradients bit for bit.
        let mut rng = StdRng::seed_from_u64(5);
        let mut both = Gpt::new(GptConfig::tiny(), &mut rng);
        let l3 = both.loss_and_backward_with(&tokens, &targets, 1, 4, Some(1024.0), true);
        assert_eq!(l1, l3);
        assert_eq!(both.gather_grads(), g2, "scaled + recomputed == scaled, bitwise");
    }
}
