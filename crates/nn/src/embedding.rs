//! Token and positional embeddings.

use rand::Rng;

use crate::param::{Param, Params};

/// Token + learned positional embedding: `x[t] = wte[token[t]] + wpe[pos(t)]`.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token embedding table `[vocab, dim]`.
    pub wte: Param,
    /// Positional embedding table `[max_seq, dim]`.
    pub wpe: Param,
    vocab: usize,
    max_seq: usize,
    dim: usize,
    cached_tokens: Vec<usize>,
    cached_seq: usize,
    /// The last forward's output.
    x: Vec<f32>,
}

impl Embedding {
    /// Creates embedding tables with normal(0, `std`) entries in `ps`.
    pub fn new<R: Rng>(
        ps: &mut Params,
        vocab: usize,
        max_seq: usize,
        dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Embedding {
        Embedding {
            wte: ps.randn(vocab * dim, std, rng),
            wpe: ps.randn(max_seq * dim, std, rng),
            vocab,
            max_seq,
            dim,
            cached_tokens: Vec::new(),
            cached_seq: 0,
            x: Vec::new(),
        }
    }

    /// Sizes the output of a forward over `rows` tokens.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.x.resize(rows * self.dim, 0.0);
    }

    /// Embeds `batch * seq` token ids into `[batch*seq, dim]`.
    ///
    /// # Panics
    ///
    /// Panics if a token id is out of vocabulary, `seq > max_seq`, or
    /// `tokens.len()` is not a multiple of `seq`.
    pub fn forward(&mut self, ps: &Params, tokens: &[usize], seq: usize) -> &[f32] {
        assert!(seq <= self.max_seq, "sequence longer than max_seq");
        assert_eq!(tokens.len() % seq, 0, "tokens not a whole number of sequences");
        let d = self.dim;
        let (wte, wpe) = (self.wte.of(&ps.w), self.wpe.of(&ps.w));
        // Every element is written below.
        self.reserve(tokens.len());
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab, "token {tok} out of vocabulary {}", self.vocab);
            let pos = t % seq;
            let out = &mut self.x[t * d..(t + 1) * d];
            let te = &wte[tok * d..(tok + 1) * d];
            let pe = &wpe[pos * d..(pos + 1) * d];
            for i in 0..d {
                out[i] = te[i] + pe[i];
            }
        }
        self.cached_tokens.clear();
        self.cached_tokens.extend_from_slice(tokens);
        self.cached_seq = seq;
        &self.x
    }

    /// Backward pass: scatters `dx` into the embedding-table gradients.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `dx` has the wrong size.
    pub fn backward(&mut self, ps: &mut Params, dx: &[f32]) {
        let d = self.dim;
        assert!(!self.cached_tokens.is_empty(), "backward before forward");
        assert_eq!(dx.len(), self.cached_tokens.len() * d, "bad grad size");
        let seq = self.cached_seq;
        for (t, &tok) in self.cached_tokens.iter().enumerate() {
            let pos = t % seq;
            let src = &dx[t * d..(t + 1) * d];
            let te = &mut self.wte.of_mut(&mut ps.g)[tok * d..(tok + 1) * d];
            for i in 0..d {
                te[i] += src[i];
            }
            let pe = &mut self.wpe.of_mut(&mut ps.g)[pos * d..(pos + 1) * d];
            for i in 0..d {
                pe[i] += src[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_adds_token_and_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = Params::default();
        let mut emb = Embedding::new(&mut ps, 4, 3, 2, 0.1, &mut rng);
        let x = emb.forward(&ps, &[1, 1], 2);
        // Same token at two positions differs only by positional embedding.
        let diff0 = x[0] - x[2];
        let expected = emb.wpe.of(&ps.w)[0] - emb.wpe.of(&ps.w)[2];
        assert!((diff0 - expected).abs() < 1e-6);
    }

    #[test]
    fn backward_scatters_to_used_rows_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut emb = Embedding::new(&mut ps, 4, 2, 2, 0.1, &mut rng);
        emb.forward(&ps, &[2, 2], 2);
        emb.backward(&mut ps, &[1.0, 1.0, 1.0, 1.0]);
        // Token 2's row accumulated both steps; others untouched.
        assert_eq!(&emb.wte.of(&ps.g)[2 * 2..3 * 2], &[2.0, 2.0]);
        assert_eq!(&emb.wte.of(&ps.g)[0..2], &[0.0, 0.0]);
        // Both positions got one step each.
        assert_eq!(emb.wpe.of(&ps.g), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut emb = Embedding::new(&mut ps, 4, 2, 2, 0.1, &mut rng);
        emb.forward(&ps, &[7], 1);
    }

    #[test]
    #[should_panic(expected = "max_seq")]
    fn rejects_long_sequences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut emb = Embedding::new(&mut ps, 4, 2, 2, 0.1, &mut rng);
        emb.forward(&ps, &[0, 1, 2], 3);
    }
}
