//! A pre-LayerNorm transformer block.

use rand::Rng;

use crate::attention::CausalSelfAttention;
use crate::layernorm::LayerNorm;
use crate::math::sized;
use crate::mlp::Mlp;
use crate::param::Params;

/// One pre-LN transformer block:
/// `x = x + attn(ln1(x)); x = x + mlp(ln2(x))`.
#[derive(Debug, Clone)]
pub struct Block {
    /// First layer norm (before attention).
    pub ln1: LayerNorm,
    /// Causal self-attention.
    pub attn: CausalSelfAttention,
    /// Second layer norm (before the MLP).
    pub ln2: LayerNorm,
    /// Feed-forward network.
    pub mlp: Mlp,
    /// The residual stream between the two halves in forward, its
    /// gradient in backward; and the block's output, then its `dx`.
    mid: Vec<f32>,
    out: Vec<f32>,
}

impl Block {
    /// Creates a block with the standard 4x MLP expansion, its parameters
    /// in `ps`.
    pub fn new<R: Rng>(ps: &mut Params, dim: usize, heads: usize, std: f32, rng: &mut R) -> Block {
        Block {
            ln1: LayerNorm::new(ps, dim),
            attn: CausalSelfAttention::new(ps, dim, heads, std, rng),
            ln2: LayerNorm::new(ps, dim),
            mlp: Mlp::new(ps, dim, 4, std, rng),
            mid: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Sizes the buffers a forward/backward over `batch` sequences of
    /// length `seq` writes.
    pub(crate) fn reserve(&mut self, batch: usize, seq: usize) {
        let rows = batch * seq;
        self.ln1.reserve(rows);
        self.attn.reserve(batch, seq);
        self.ln2.reserve(rows);
        self.mlp.reserve(rows);
        let n = rows * self.mlp.fc2.out_dim();
        sized([(&mut self.mid, n), (&mut self.out, n)]);
    }

    /// Forward pass for `batch` sequences of length `seq`.
    pub fn forward(&mut self, ps: &Params, x: &[f32], batch: usize, seq: usize) -> &[f32] {
        let rows = batch * seq;
        let n1 = self.ln1.forward(ps, x, rows);
        let a = self.attn.forward(ps, n1, batch, seq);
        self.mid.clear();
        self.mid.extend(x.iter().zip(a).map(|(xv, av)| xv + av));
        let n2 = self.ln2.forward(ps, &self.mid, rows);
        let m = self.mlp.forward(ps, n2, rows);
        self.out.clear();
        self.out.extend(self.mid.iter().zip(m).map(|(xv, mv)| xv + mv));
        &self.out
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, ps: &mut Params, dy: &[f32]) -> &[f32] {
        // y = mid + mlp(ln2(mid))
        let dm = self.mlp.backward(ps, self.ln2.output(), dy);
        let dmid_from_mlp = self.ln2.backward(ps, dm);
        self.mid.clear();
        self.mid.extend(dy.iter().zip(dmid_from_mlp).map(|(a, b)| a + b));
        // mid = x + attn(ln1(x))
        let da = self.attn.backward(ps, self.ln1.output(), &self.mid);
        let dx_from_attn = self.ln1.backward(ps, da);
        self.out.clear();
        self.out.extend(self.mid.iter().zip(dx_from_attn).map(|(a, b)| a + b));
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck;
    use crate::VisitParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn residual_keeps_signal() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = Params::default();
        let mut blk = Block::new(&mut ps, 4, 2, 0.02, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        let y = blk.forward(&ps, &x, 1, 2);
        // With tiny weights the block is close to identity (residual path).
        for (xi, yi) in x.iter().zip(y.iter()) {
            assert!((xi - yi).abs() < 1.0, "residual path lost: {xi} -> {yi}");
        }
    }

    #[test]
    fn gradcheck_full_block() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ps = Params::default();
        let mut blk = Block::new(&mut ps, 4, 2, 0.3, &mut rng);
        let x: Vec<f32> = (0..2 * 4).map(|i| (i as f32 * 0.61).sin()).collect();
        let (batch, seq) = (1usize, 2usize);
        gradcheck(
            &mut blk,
            &mut ps,
            &x,
            batch * seq,
            move |m, ps, x, _| m.forward(ps, x, batch, seq).to_vec(),
            |m, ps, _, dy| m.backward(ps, dy).to_vec(),
            4e-2,
        );
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = 8usize;
        let mut ps = Params::default();
        let _ = Block::new(&mut ps, d, 2, 0.02, &mut rng);
        // qkv: d*3d + 3d; proj: d*d + d; mlp: d*4d + 4d + 4d*d + d; 2 LN: 4d.
        let expected = d * 3 * d + 3 * d + d * d + d + d * 4 * d + 4 * d + 4 * d * d + d + 4 * d;
        assert_eq!(ps.num_params(), expected);
    }
}
