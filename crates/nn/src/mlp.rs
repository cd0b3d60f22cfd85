//! The transformer feed-forward block (GELU MLP).

use dos_tensor::simd::tanh;
use rand::Rng;

use crate::linear::Linear;
use crate::math::{gelu_arg, gelu_from_tanh, gelu_grad_from_tanh};
use crate::param::{Param, VisitParams};

/// Two-layer GELU MLP: `fc2(gelu(fc1(x)))` with hidden size
/// `dim * expansion` (transformers use expansion 4).
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Expansion projection `[dim, dim*expansion]`.
    pub fc1: Linear,
    /// Contraction projection `[dim*expansion, dim]`.
    pub fc2: Linear,
    cached_pre: Vec<f32>,
    /// `gelu_tanh` of each `cached_pre` element: forward's one `tanh` per
    /// activation, kept so backward does not pay for it again.
    cached_tanh: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with hidden size `dim * expansion`.
    pub fn new<R: Rng>(
        name: &str,
        dim: usize,
        expansion: usize,
        std: f32,
        rng: &mut R,
    ) -> Mlp {
        Mlp {
            fc1: Linear::new(&format!("{name}.fc1"), dim, dim * expansion, std, rng),
            fc2: Linear::new(&format!("{name}.fc2"), dim * expansion, dim, std, rng),
            cached_pre: Vec::new(),
            cached_tanh: Vec::new(),
        }
    }

    /// Forward pass over `rows` rows.
    pub fn forward(&mut self, x: &[f32], rows: usize) -> Vec<f32> {
        let pre = self.fc1.forward(x, rows);
        self.cached_tanh.clear();
        self.cached_tanh.extend(pre.iter().map(|&v| gelu_arg(v)));
        tanh(&mut self.cached_tanh);
        let hidden: Vec<f32> =
            pre.iter().zip(&self.cached_tanh).map(|(&v, &t)| gelu_from_tanh(v, t)).collect();
        self.cached_pre = pre;
        self.fc2.forward(&hidden, rows)
    }

    /// Backward pass; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        assert!(!self.cached_pre.is_empty(), "backward before forward");
        let dhidden = self.fc2.backward(dy);
        let dpre: Vec<f32> = dhidden
            .iter()
            .zip(self.cached_pre.iter().zip(&self.cached_tanh))
            .map(|(&dh, (&p, &t))| dh * gelu_grad_from_tanh(p, t))
            .collect();
        self.fc1.backward(&dpre)
    }
}

impl VisitParams for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
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
        let mut mlp = Mlp::new("m", 3, 4, 0.3, &mut rng);
        let y = mlp.forward(&[0.5, -0.5, 1.0, 0.1, 0.2, 0.3], 2);
        assert_eq!(y.len(), 6);
        // Nonlinearity: f(2x) != 2 f(x)
        let y1 = mlp.forward(&[1.0, 1.0, 1.0], 1);
        let y2 = mlp.forward(&[2.0, 2.0, 2.0], 1);
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
        let mut mlp = Mlp::new("m", 1, 1, 0.0, &mut rng);
        mlp.fc1.w.w = vec![1.0];
        mlp.fc2.w.w = vec![1.0];
        let xs = gelu_sweep();
        let _ = mlp.forward(&[0.5; 7], 7);
        let y = mlp.forward(&xs, xs.len());
        let dx = mlp.backward(&vec![1.0; xs.len()]);
        for ((&x, &y), &dx) in xs.iter().zip(&y).zip(&dx) {
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
        let mut mlp = Mlp::new("m", 3, 2, 0.5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.81).sin()).collect();
        gradcheck(
            &mut mlp,
            &x,
            2,
            |m, x, rows| m.forward(x, rows),
            |m, dy| m.backward(dy),
            3e-2,
        );
    }
}
