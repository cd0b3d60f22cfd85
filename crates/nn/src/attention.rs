//! Multi-head causal self-attention with manual backprop.

use rand::Rng;

use crate::linear::Linear;
use crate::math::softmax_rows;
use crate::param::{Param, VisitParams};

/// Multi-head causal self-attention.
///
/// Input/output shape is `[batch * seq, dim]`; `forward` takes the batch and
/// sequence structure explicitly. Uses a fused QKV projection and an output
/// projection, as in GPT/Megatron blocks.
#[derive(Debug, Clone)]
pub struct CausalSelfAttention {
    /// Fused query/key/value projection `[dim, 3*dim]`.
    pub qkv: Linear,
    /// Output projection `[dim, dim]`.
    pub proj: Linear,
    dim: usize,
    heads: usize,
    // caches
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>,
    batch: usize,
    seq: usize,
}

impl CausalSelfAttention {
    /// Creates an attention module.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new<R: Rng>(name: &str, dim: usize, heads: usize, std: f32, rng: &mut R) -> Self {
        assert_eq!(dim % heads, 0, "dim must be divisible by heads");
        CausalSelfAttention {
            qkv: Linear::new(&format!("{name}.qkv"), dim, 3 * dim, std, rng),
            proj: Linear::new(&format!("{name}.proj"), dim, dim, std, rng),
            dim,
            heads,
            q: Vec::new(),
            k: Vec::new(),
            v: Vec::new(),
            probs: Vec::new(),
            batch: 0,
            seq: 0,
        }
    }

    /// Head dimension (`dim / heads`).
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Forward pass for `batch` sequences of length `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * seq * dim`.
    pub fn forward(&mut self, x: &[f32], batch: usize, seq: usize) -> Vec<f32> {
        let d = self.dim;
        let h = self.heads;
        let hd = d / h;
        assert_eq!(x.len(), batch * seq * d, "bad input size");
        let rows = batch * seq;
        let qkv = self.qkv.forward(x, rows);

        // Split into per-head contiguous q, k, v of shape [batch, h, seq, hd].
        let mut q = vec![0.0; rows * d];
        let mut k = vec![0.0; rows * d];
        let mut v = vec![0.0; rows * d];
        for b in 0..batch {
            for t in 0..seq {
                let src = &qkv[(b * seq + t) * 3 * d..(b * seq + t + 1) * 3 * d];
                for head in 0..h {
                    let dst = ((b * h + head) * seq + t) * hd;
                    q[dst..dst + hd].copy_from_slice(&src[head * hd..(head + 1) * hd]);
                    k[dst..dst + hd].copy_from_slice(&src[d + head * hd..d + (head + 1) * hd]);
                    v[dst..dst + hd]
                        .copy_from_slice(&src[2 * d + head * hd..2 * d + (head + 1) * hd]);
                }
            }
        }

        // Scores and probabilities per (batch, head).
        let scale = 1.0 / (hd as f32).sqrt();
        let mut probs = vec![0.0; batch * h * seq * seq];
        for bh in 0..batch * h {
            let qb = &q[bh * seq * hd..(bh + 1) * seq * hd];
            let kb = &k[bh * seq * hd..(bh + 1) * seq * hd];
            let pb = &mut probs[bh * seq * seq..(bh + 1) * seq * seq];
            for i in 0..seq {
                for j in 0..seq {
                    pb[i * seq + j] = if j <= i {
                        let qi = &qb[i * hd..(i + 1) * hd];
                        let kj = &kb[j * hd..(j + 1) * hd];
                        qi.iter().zip(kj.iter()).map(|(a, b)| a * b).sum::<f32>() * scale
                    } else {
                        f32::NEG_INFINITY // causal mask
                    };
                }
            }
            softmax_rows(pb, seq, seq);
        }

        // Context = probs · v, merged back to [batch*seq, dim].
        let mut ctx = vec![0.0; rows * d];
        for b in 0..batch {
            for head in 0..h {
                let bh = b * h + head;
                let pb = &probs[bh * seq * seq..(bh + 1) * seq * seq];
                let vb = &v[bh * seq * hd..(bh + 1) * seq * hd];
                for i in 0..seq {
                    let out = &mut ctx[(b * seq + i) * d + head * hd..][..hd];
                    for j in 0..=i {
                        let p = pb[i * seq + j];
                        let vj = &vb[j * hd..(j + 1) * hd];
                        for (o, vv) in out.iter_mut().zip(vj.iter()) {
                            *o += p * vv;
                        }
                    }
                }
            }
        }

        self.q = q;
        self.k = k;
        self.v = v;
        self.probs = probs;
        self.batch = batch;
        self.seq = seq;
        self.proj.forward(&ctx, rows)
    }

    /// Backward pass; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `dy` has the wrong size.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let (batch, seq) = (self.batch, self.seq);
        assert!(batch > 0, "backward before forward");
        let d = self.dim;
        let h = self.heads;
        let hd = d / h;
        let scale = 1.0 / (hd as f32).sqrt();

        let dctx = self.proj.backward(dy);

        let mut dq = vec![0.0; batch * h * seq * hd];
        let mut dk = vec![0.0; batch * h * seq * hd];
        let mut dv = vec![0.0; batch * h * seq * hd];
        // One row of dprobs, reused: row `i` writes `dprow[..=i]` before it
        // reads it.
        let mut dprow = vec![0.0f32; seq];

        for b in 0..batch {
            for head in 0..h {
                let bh = b * h + head;
                let pb = &self.probs[bh * seq * seq..(bh + 1) * seq * seq];
                let vb = &self.v[bh * seq * hd..(bh + 1) * seq * hd];
                let qb = &self.q[bh * seq * hd..(bh + 1) * seq * hd];
                let kb = &self.k[bh * seq * hd..(bh + 1) * seq * hd];
                for i in 0..seq {
                    let dout = &dctx[(b * seq + i) * d + head * hd..][..hd];
                    // dprobs and dv
                    for j in 0..=i {
                        let vj = &vb[j * hd..(j + 1) * hd];
                        dprow[j] = dout.iter().zip(vj.iter()).map(|(a, b)| a * b).sum();
                        let p = pb[i * seq + j];
                        let dvj = &mut dv[bh * seq * hd + j * hd..][..hd];
                        for (dvv, o) in dvj.iter_mut().zip(dout.iter()) {
                            *dvv += p * o;
                        }
                    }
                    // Softmax backward: ds = (dp - Σ dp·p) ⊙ p
                    let dot: f32 =
                        (0..=i).map(|j| dprow[j] * pb[i * seq + j]).sum();
                    for j in 0..=i {
                        let ds = (dprow[j] - dot) * pb[i * seq + j] * scale;
                        let kj = &kb[j * hd..(j + 1) * hd];
                        let qi = &qb[i * hd..(i + 1) * hd];
                        let dqi = &mut dq[bh * seq * hd + i * hd..][..hd];
                        for (dqv, kv) in dqi.iter_mut().zip(kj.iter()) {
                            *dqv += ds * kv;
                        }
                        let dkj = &mut dk[bh * seq * hd + j * hd..][..hd];
                        for (dkv, qv) in dkj.iter_mut().zip(qi.iter()) {
                            *dkv += ds * qv;
                        }
                    }
                }
            }
        }

        // Merge dq/dk/dv back into the fused QKV gradient layout.
        let rows = batch * seq;
        let mut dqkv = vec![0.0; rows * 3 * d];
        for b in 0..batch {
            for t in 0..seq {
                let dst = &mut dqkv[(b * seq + t) * 3 * d..(b * seq + t + 1) * 3 * d];
                for head in 0..h {
                    let src = ((b * h + head) * seq + t) * hd;
                    dst[head * hd..(head + 1) * hd].copy_from_slice(&dq[src..src + hd]);
                    dst[d + head * hd..d + (head + 1) * hd].copy_from_slice(&dk[src..src + hd]);
                    dst[2 * d + head * hd..2 * d + (head + 1) * hd]
                        .copy_from_slice(&dv[src..src + hd]);
                }
            }
        }
        self.qkv.backward(&dqkv)
    }
}

impl VisitParams for CausalSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = CausalSelfAttention::new("a", 8, 2, 0.2, &mut rng);
        let x = vec![0.1; 2 * 3 * 8];
        let y = attn.forward(&x, 2, 3);
        assert_eq!(y.len(), x.len());
        assert_eq!(attn.head_dim(), 4);
    }

    #[test]
    fn causality_later_tokens_do_not_affect_earlier_outputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = CausalSelfAttention::new("a", 4, 2, 0.3, &mut rng);
        let mut x: Vec<f32> = (0..3 * 4).map(|i| (i as f32).sin()).collect();
        let y1 = attn.forward(&x, 1, 3);
        // Change only the last token.
        for v in x[2 * 4..].iter_mut() {
            *v += 1.0;
        }
        let y2 = attn.forward(&x, 1, 3);
        // Tokens 0 and 1 unchanged, token 2 changed.
        assert_eq!(&y1[..8], &y2[..8]);
        assert_ne!(&y1[8..], &y2[8..]);
    }

    #[test]
    fn gradcheck_attention() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut attn = CausalSelfAttention::new("a", 4, 2, 0.4, &mut rng);
        let x: Vec<f32> = (0..2 * 2 * 4).map(|i| (i as f32 * 0.37).cos()).collect();
        let (batch, seq) = (2usize, 2usize);
        gradcheck(
            &mut attn,
            &x,
            batch * seq,
            move |m, x, _| m.forward(x, batch, seq),
            |m, dy| m.backward(dy),
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn heads_must_divide_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = CausalSelfAttention::new("a", 6, 4, 0.1, &mut rng);
    }
}
