//! Fully connected layer with manual backprop.

use rand::Rng;

use crate::math::{matmul, matmul_a_bt_with, matmul_at_b_acc};
use crate::param::{Param, VisitParams};

/// `y = x · W + b`, with `W` stored row-major as `[in_dim, out_dim]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix parameter.
    pub w: Param,
    /// Bias parameter.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cached_x: Vec<f32>,
    cached_rows: usize,
    /// Scratch for the `Wᵀ` backward writes on every call; only its
    /// capacity outlives one.
    wt: Vec<f32>,
}

impl Linear {
    /// Creates a layer with normal(0, `std`) weights and zero bias.
    pub fn new<R: Rng>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Linear {
        Linear {
            w: Param::randn(format!("{name}.w"), in_dim * out_dim, std, rng),
            b: Param::zeros(format!("{name}.b"), out_dim),
            in_dim,
            out_dim,
            cached_x: Vec::new(),
            cached_rows: 0,
            wt: Vec::new(),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass over `rows` rows; caches the input for backprop.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * in_dim`.
    pub fn forward(&mut self, x: &[f32], rows: usize) -> Vec<f32> {
        assert_eq!(x.len(), rows * self.in_dim, "bad input size");
        let mut y = vec![0.0; rows * self.out_dim];
        matmul(x, &self.w.w, &mut y, rows, self.in_dim, self.out_dim);
        for r in 0..rows {
            let row = &mut y[r * self.out_dim..(r + 1) * self.out_dim];
            for (v, b) in row.iter_mut().zip(self.b.w.iter()) {
                *v += b;
            }
        }
        self.cached_x.clear();
        self.cached_x.extend_from_slice(x);
        self.cached_rows = rows;
        y
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `dy` has the wrong size.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let rows = self.cached_rows;
        assert!(rows > 0, "backward before forward");
        assert_eq!(dy.len(), rows * self.out_dim, "bad grad size");
        // dW += x^T dy
        matmul_at_b_acc(&self.cached_x, dy, &mut self.w.g, rows, self.in_dim, self.out_dim);
        // db += column sums of dy
        for r in 0..rows {
            let row = &dy[r * self.out_dim..(r + 1) * self.out_dim];
            for (g, d) in self.b.g.iter_mut().zip(row.iter()) {
                *g += d;
            }
        }
        // dx = dy W^T
        let mut dx = vec![0.0; rows * self.in_dim];
        matmul_a_bt_with(dy, &self.w.w, &mut dx, rows, self.out_dim, self.in_dim, &mut self.wt);
        dx
    }
}

impl VisitParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new("l", 2, 2, 0.1, &mut rng);
        l.w.w = vec![1.0, 2.0, 3.0, 4.0];
        l.b.w = vec![0.5, -0.5];
        let y = l.forward(&[1.0, 1.0], 1);
        assert_eq!(y, vec![4.5, 5.5]);
        assert_eq!(l.in_dim(), 2);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn gradcheck_weights_bias_and_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new("l", 3, 4, 0.5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        gradcheck(
            &mut l,
            &x,
            2,
            |l, x, rows| l.forward(x, rows),
            |l, dy| l.backward(dy),
            2e-2,
        );
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new("l", 2, 1, 0.1, &mut rng);
        let x = [1.0, 2.0];
        l.forward(&x, 1);
        l.backward(&[1.0]);
        let g1 = l.w.g.clone();
        l.forward(&x, 1);
        l.backward(&[1.0]);
        for (a, b) in l.w.g.iter().zip(g1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new("l", 2, 1, 0.1, &mut rng);
        l.backward(&[1.0]);
    }
}
