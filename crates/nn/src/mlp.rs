//! The transformer feed-forward block (GELU MLP).

use dos_tensor::simd::tanh;
use rand::Rng;

use crate::linear::Linear;
use crate::math::{gelu_arg, gelu_from_tanh, gelu_grad_from_tanh, sized};
use crate::param::Params;

/// Two-layer GELU MLP: `fc2(gelu(fc1(x)))` with hidden size
/// `dim * expansion` (transformers use expansion 4).
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Expansion projection `[dim, dim*expansion]`.
    pub fc1: Linear,
    /// Contraction projection `[dim*expansion, dim]`.
    pub fc2: Linear,
    /// `gelu_tanh` of each element of `fc1`'s kept output: forward's one
    /// `tanh` per activation, kept so backward does not pay for it again.
    cached_tanh: Vec<f32>,
    /// The hidden activation (`fc2`'s input until its backward), then its
    /// gradient.
    hidden: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with hidden size `dim * expansion`, its parameters
    /// in `ps`.
    pub fn new<R: Rng>(
        ps: &mut Params,
        dim: usize,
        expansion: usize,
        std: f32,
        rng: &mut R,
    ) -> Mlp {
        Mlp {
            fc1: Linear::new(ps, dim, dim * expansion, std, rng),
            fc2: Linear::new(ps, dim * expansion, dim, std, rng),
            cached_tanh: Vec::new(),
            hidden: Vec::new(),
        }
    }

    /// Sizes the buffers a forward/backward over `rows` rows writes.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.fc1.reserve(rows);
        self.fc2.reserve(rows);
        let n = rows * self.fc1.out_dim();
        sized([(&mut self.cached_tanh, n), (&mut self.hidden, n)]);
    }

    /// Forward pass over `rows` rows.
    pub fn forward(&mut self, ps: &Params, x: &[f32], rows: usize) -> &[f32] {
        let pre = self.fc1.forward(ps, x, rows);
        self.cached_tanh.clear();
        self.cached_tanh.extend(pre.iter().map(|&v| gelu_arg(v)));
        tanh(&mut self.cached_tanh);
        self.hidden.clear();
        self.hidden.extend(pre.iter().zip(&self.cached_tanh).map(|(&v, &t)| gelu_from_tanh(v, t)));
        self.fc2.forward(ps, &self.hidden, rows)
    }

    /// Backward pass given the last forward's input `x`; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run.
    pub fn backward(&mut self, ps: &mut Params, x: &[f32], dy: &[f32]) -> &[f32] {
        assert!(!self.cached_tanh.is_empty(), "backward before forward");
        let dhidden = self.fc2.backward(ps, &self.hidden, dy);
        let pre = self.fc1.output();
        self.hidden.clear();
        self.hidden.extend(
            dhidden
                .iter()
                .zip(pre.iter().zip(&self.cached_tanh))
                .map(|(&dh, (&p, &t))| dh * gelu_grad_from_tanh(p, t)),
        );
        self.fc1.backward(ps, x, &self.hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_and_nonlinearity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = Params::default();
        let mut mlp = Mlp::new(&mut ps, 3, 4, 0.3, &mut rng);
        let y = mlp.forward(&ps, &[0.5, -0.5, 1.0, 0.1, 0.2, 0.3], 2);
        assert_eq!(y.len(), 6);
        // Nonlinearity: f(2x) != 2 f(x)
        let y1 = mlp.forward(&ps, &[1.0, 1.0, 1.0], 1).to_vec();
        let y2 = mlp.forward(&ps, &[2.0, 2.0, 2.0], 1);
        assert!((y2[0] - 2.0 * y1[0]).abs() > 1e-6);
    }

    /// A 1 → 1 → 1 MLP with unit weights is `gelu` row by row, so its
    /// outputs and input gradients are the kept tanh at work: forward is
    /// `gelu(x)` and backward — which never calls `tanh` — is `gelu_grad(x)`,
    /// bit for bit (NaN ≡ NaN), also when a second forward rewrote the tanh.
    #[test]
    fn kept_tanh_gives_the_bits_of_gelu_and_gelu_grad() {
        use crate::math::{gelu, gelu_grad, gelu_sweep, same_bits};
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = Params::default();
        let mut mlp = Mlp::new(&mut ps, 1, 1, 0.0, &mut rng);
        mlp.fc1.w.of_mut(&mut ps.w)[0] = 1.0;
        mlp.fc2.w.of_mut(&mut ps.w)[0] = 1.0;
        let xs = gelu_sweep();
        let _ = mlp.forward(&ps, &[0.5; 7], 7);
        let y = mlp.forward(&ps, &xs, xs.len()).to_vec();
        let dx = mlp.backward(&mut ps, &xs, &vec![1.0; xs.len()]);
        for ((&x, &y), &dx) in xs.iter().zip(&y).zip(dx) {
            // Unit weights are exact except that the layers' `+0.0` start
            // and zero-skip turn a `−0.0` into `+0.0`, as `0.0 + v` does.
            let pre = 0.0 + x;
            let (want_y, want_dx) = (0.0 + gelu(pre), gelu_grad(pre));
            assert!(same_bits(y, want_y), "forward at {x:e}: {y:e} vs {want_y:e}");
            assert!(same_bits(dx, want_dx), "backward at {x:e}: {dx:e} vs {want_dx:e}");
        }
    }

    #[test]
    fn gradcheck_mlp() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = Params::default();
        let mut mlp = Mlp::new(&mut ps, 3, 2, 0.5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.81).sin()).collect();
        gradcheck(
            &mut mlp,
            &mut ps,
            &x,
            2,
            |m, ps, x, rows| m.forward(ps, x, rows).to_vec(),
            |m, ps, x, dy| m.backward(ps, x, dy).to_vec(),
            3e-2,
        );
    }
}
