//! Fully connected layer with manual backprop.

use rand::Rng;

use crate::math::{matmul, matmul_a_bt_with, matmul_at_b_acc, sized};
use crate::param::{Param, Params};

/// `y = x · W + b`, with `W` stored row-major as `[in_dim, out_dim]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix parameter.
    pub w: Param,
    /// Bias parameter.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cached_rows: usize,
    /// The last forward's output and the last backward's `dx`, each kept
    /// until the next call; and scratch for the `Wᵀ` backward writes.
    y: Vec<f32>,
    dx: Vec<f32>,
    wt: Vec<f32>,
}

impl Linear {
    /// Creates a layer with normal(0, `std`) weights and zero bias in `ps`.
    pub fn new<R: Rng>(
        ps: &mut Params,
        in_dim: usize,
        out_dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Linear {
        Linear {
            w: ps.randn(in_dim * out_dim, std, rng),
            b: ps.push(vec![0.0; out_dim]),
            in_dim,
            out_dim,
            cached_rows: 0,
            y: Vec::new(),
            dx: Vec::new(),
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

    /// The last forward's output.
    pub(crate) fn output(&self) -> &[f32] {
        &self.y
    }

    /// Sizes the buffers a forward/backward over `rows` rows writes.
    pub(crate) fn reserve(&mut self, rows: usize) {
        let (i, o) = (self.in_dim, self.out_dim);
        sized([(&mut self.y, rows * o), (&mut self.dx, rows * i), (&mut self.wt, i * o)]);
    }

    /// Forward pass over `rows` rows. The input is not copied: backward
    /// takes it again (the producing layer keeps it).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * in_dim`.
    pub fn forward(&mut self, ps: &Params, x: &[f32], rows: usize) -> &[f32] {
        assert_eq!(x.len(), rows * self.in_dim, "bad input size");
        // Each buffer is written in full before it is read.
        self.reserve(rows);
        matmul(x, self.w.of(&ps.w), &mut self.y, rows, self.in_dim, self.out_dim);
        for row in self.y.chunks_exact_mut(self.out_dim) {
            for (v, b) in row.iter_mut().zip(self.b.of(&ps.w)) {
                *v += b;
            }
        }
        self.cached_rows = rows;
        &self.y
    }

    /// Backward pass given the last forward's input `x`: accumulates `dW`,
    /// `db` and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `x` or `dy` has the wrong size.
    pub fn backward(&mut self, ps: &mut Params, x: &[f32], dy: &[f32]) -> &[f32] {
        let rows = self.cached_rows;
        assert!(rows > 0, "backward before forward");
        assert_eq!(dy.len(), rows * self.out_dim, "bad grad size");
        let (w, g) = (&ps.w, &mut ps.g);
        // dW += x^T dy
        matmul_at_b_acc(x, dy, self.w.of_mut(g), rows, self.in_dim, self.out_dim);
        // db += column sums of dy
        for row in dy.chunks_exact(self.out_dim) {
            for (gb, d) in self.b.of_mut(g).iter_mut().zip(row) {
                *gb += d;
            }
        }
        // dx = dy W^T
        let (i, o) = (self.in_dim, self.out_dim);
        matmul_a_bt_with(dy, self.w.of(w), &mut self.dx, rows, o, i, &mut self.wt);
        &self.dx
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
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = Params::default();
        let mut l = Linear::new(&mut ps, 2, 2, 0.1, &mut rng);
        ps.scatter_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let y = l.forward(&ps, &[1.0, 1.0], 1);
        assert_eq!(y, [4.5, 5.5]);
        assert_eq!(l.in_dim(), 2);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn gradcheck_weights_bias_and_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = Params::default();
        let mut l = Linear::new(&mut ps, 3, 4, 0.5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        gradcheck(
            &mut l,
            &mut ps,
            &x,
            2,
            |l, ps, x, rows| l.forward(ps, x, rows).to_vec(),
            |l, ps, x, dy| l.backward(ps, x, dy).to_vec(),
            2e-2,
        );
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut l = Linear::new(&mut ps, 2, 1, 0.1, &mut rng);
        let x = [1.0, 2.0];
        l.forward(&ps, &x, 1);
        l.backward(&mut ps, &x, &[1.0]);
        let g1 = l.w.of(&ps.g).to_vec();
        l.forward(&ps, &x, 1);
        l.backward(&mut ps, &x, &[1.0]);
        for (a, b) in l.w.of(&ps.g).iter().zip(g1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = Params::default();
        let mut l = Linear::new(&mut ps, 2, 1, 0.1, &mut rng);
        l.backward(&mut ps, &[1.0, 2.0], &[1.0]);
    }
}
