//! Named trainable parameters.

use rand::Rng;
use serde::{Deserialize, Serialize};

use dos_tensor::Tensor;

/// A named trainable parameter with its gradient accumulator.
///
/// Parameters hold FP32 weights; mixed-precision device copies are derived
/// by the training engines when needed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Qualified name, e.g. `"blocks.0.attn.qkv.w"`.
    pub name: String,
    /// Weights (row-major, shape tracked by the owning layer).
    pub w: Vec<f32>,
    /// Gradient accumulator, same length as `w`.
    pub g: Vec<f32>,
}

impl Param {
    /// A parameter initialized from the given weights.
    pub fn new(name: impl Into<String>, w: Vec<f32>) -> Param {
        let g = vec![0.0; w.len()];
        Param { name: name.into(), w, g }
    }

    /// A zero-initialized parameter of length `n`.
    pub fn zeros(name: impl Into<String>, n: usize) -> Param {
        Param::new(name, vec![0.0; n])
    }

    /// A parameter with i.i.d. normal weights of standard deviation `std`.
    pub fn randn<R: Rng>(name: impl Into<String>, n: usize, std: f32, rng: &mut R) -> Param {
        let t = Tensor::randn(&[n], std, rng);
        Param::new(name, t.to_f32_vec())
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.g.fill(0.0);
    }
}

/// Visitor for walking every parameter of a module tree in a stable order.
///
/// The order defines the *flat parameter space* that `dos-zero` partitions
/// into subgroups, so it must be deterministic; all layers visit their
/// parameters in declaration order.
pub trait VisitParams {
    /// Calls `f` once per parameter, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Concatenates all weights into one flat vector (the order `dos-zero`
    /// shards over).
    fn gather_params(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |p| out.extend_from_slice(&p.w));
        out
    }

    /// Concatenates all gradients into one flat vector.
    fn gather_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |p| out.extend_from_slice(&p.g));
        out
    }

    /// Writes a flat vector back into the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`VisitParams::num_params`].
    fn scatter_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |p| {
            let n = p.len();
            assert!(off + n <= flat.len(), "flat parameter vector has wrong length");
            p.w.copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "flat parameter vector has wrong length");
    }

    /// Zeroes every gradient accumulator.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Two {
        a: Param,
        b: Param,
    }

    impl VisitParams for Two {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    #[test]
    fn param_construction() {
        let p = Param::zeros("x", 4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.g, vec![0.0; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let q = Param::randn("y", 100, 0.02, &mut rng);
        assert!(q.w.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut two = Two { a: Param::new("a", vec![1.0, 2.0]), b: Param::new("b", vec![3.0]) };
        assert_eq!(two.num_params(), 3);
        let flat = two.gather_params();
        assert_eq!(flat, vec![1.0, 2.0, 3.0]);
        two.scatter_params(&[9.0, 8.0, 7.0]);
        assert_eq!(two.a.w, vec![9.0, 8.0]);
        assert_eq!(two.b.w, vec![7.0]);
    }

    #[test]
    fn zero_grads_clears_all() {
        let mut two = Two { a: Param::new("a", vec![1.0]), b: Param::new("b", vec![2.0]) };
        two.a.g[0] = 5.0;
        two.b.g[0] = 6.0;
        assert_eq!(two.gather_grads(), vec![5.0, 6.0]);
        two.zero_grads();
        assert_eq!(two.gather_grads(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn scatter_rejects_wrong_length() {
        let mut two = Two { a: Param::zeros("a", 2), b: Param::zeros("b", 1) };
        two.scatter_params(&[1.0, 2.0]);
    }
}
