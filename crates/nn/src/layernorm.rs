//! Layer normalization with manual backprop.

use crate::math::sized;
use crate::param::{Param, Params};

/// Per-row layer normalization: `y = (x - μ) / σ · γ + β`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale parameter γ, initialized to ones.
    pub gamma: Param,
    /// Shift parameter β, initialized to zeros.
    pub beta: Param,
    dim: usize,
    eps: f32,
    cached_xhat: Vec<f32>,
    cached_rstd: Vec<f32>,
    cached_rows: usize,
    /// The last forward's output and the last backward's `dx`.
    y: Vec<f32>,
    dx: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer normalizing over the last `dim` features, its
    /// parameters in `ps`.
    pub fn new(ps: &mut Params, dim: usize) -> LayerNorm {
        LayerNorm {
            gamma: ps.push(vec![1.0; dim]),
            beta: ps.push(vec![0.0; dim]),
            dim,
            eps: 1e-5,
            cached_xhat: Vec::new(),
            cached_rstd: Vec::new(),
            cached_rows: 0,
            y: Vec::new(),
            dx: Vec::new(),
        }
    }

    /// Sizes the buffers a forward/backward over `rows` rows writes.
    pub(crate) fn reserve(&mut self, rows: usize) {
        let n = rows * self.dim;
        sized([(&mut self.cached_xhat, n), (&mut self.cached_rstd, rows), (&mut self.y, n)]);
        sized([(&mut self.dx, n)]);
    }

    /// The last forward's output.
    pub(crate) fn output(&self) -> &[f32] {
        &self.y
    }

    /// Forward pass over `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * dim`.
    pub fn forward(&mut self, ps: &Params, x: &[f32], rows: usize) -> &[f32] {
        assert_eq!(x.len(), rows * self.dim, "bad input size");
        let d = self.dim;
        let (gamma, beta) = (self.gamma.of(&ps.w), self.beta.of(&ps.w));
        // Each buffer is written in full before it is read.
        self.reserve(rows);
        for r in 0..rows {
            let row = &x[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let rstd = 1.0 / (var + self.eps).sqrt();
            self.cached_rstd[r] = rstd;
            for i in 0..d {
                let xh = (row[i] - mean) * rstd;
                self.cached_xhat[r * d + i] = xh;
                self.y[r * d + i] = xh * gamma[i] + beta[i];
            }
        }
        self.cached_rows = rows;
        &self.y
    }

    /// Backward pass: accumulates `dγ`, `dβ` and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` has not run or `dy` has the wrong size.
    pub fn backward(&mut self, ps: &mut Params, dy: &[f32]) -> &[f32] {
        let rows = self.cached_rows;
        let d = self.dim;
        assert!(rows > 0, "backward before forward");
        assert_eq!(dy.len(), rows * d, "bad grad size");
        let gamma = self.gamma.of(&ps.w);
        for r in 0..rows {
            let xhat = &self.cached_xhat[r * d..(r + 1) * d];
            let dyr = &dy[r * d..(r + 1) * d];
            let rstd = self.cached_rstd[r];
            // dγ += dy ⊙ x̂, dβ += dy
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            for i in 0..d {
                ps.g[self.gamma.off + i] += dyr[i] * xhat[i];
                ps.g[self.beta.off + i] += dyr[i];
                let dyg = dyr[i] * gamma[i];
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xhat[i];
            }
            let inv_d = 1.0 / d as f32;
            for i in 0..d {
                let dyg = dyr[i] * gamma[i];
                self.dx[r * d + i] =
                    rstd * (dyg - inv_d * sum_dyg - xhat[i] * inv_d * sum_dyg_xhat);
            }
        }
        &self.dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradcheck;
    use crate::VisitParams;

    #[test]
    fn output_is_normalized() {
        let mut ps = Params::default();
        let mut ln = LayerNorm::new(&mut ps, 4);
        let y = ln.forward(&ps, &[1.0, 2.0, 3.0, 4.0], 1);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut ps = Params::default();
        let mut ln = LayerNorm::new(&mut ps, 2);
        ps.scatter_params(&[2.0, 2.0, 1.0, 1.0]);
        let y = ln.forward(&ps, &[-1.0, 1.0], 1);
        assert!((y[0] - (-1.0)).abs() < 1e-3); // -1*2+1
        assert!((y[1] - 3.0).abs() < 1e-3); // 1*2+1
    }

    #[test]
    fn gradcheck_layernorm() {
        let mut ps = Params::default();
        let mut ln = LayerNorm::new(&mut ps, 5);
        ln.gamma.of_mut(&mut ps.w).copy_from_slice(&[1.1, 0.9, 1.3, 0.7, 1.0]);
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.9).cos() * 2.0).collect();
        gradcheck(
            &mut ln,
            &mut ps,
            &x,
            2,
            |m, ps, x, rows| m.forward(ps, x, rows).to_vec(),
            |m, ps, _, dy| m.backward(ps, dy).to_vec(),
            3e-2,
        );
    }

    #[test]
    fn constant_rows_are_handled() {
        let mut ps = Params::default();
        let mut ln = LayerNorm::new(&mut ps, 3);
        let y = ln.forward(&ps, &[5.0, 5.0, 5.0], 1);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(y.iter().all(|v| v.abs() < 1e-2));
    }
}
