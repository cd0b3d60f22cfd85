//! The flat parameter space and the ranges that name it.

use rand::Rng;

/// One trainable parameter: its range of the model's [`Params`] buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    pub(crate) off: usize,
    len: usize,
}

impl Param {
    /// This parameter's part of one of its [`Params`]' two buffers.
    pub fn of(self, flat: &[f32]) -> &[f32] {
        &flat[self.off..self.off + self.len]
    }

    /// [`Param::of`], mutably.
    pub fn of_mut(self, flat: &mut [f32]) -> &mut [f32] {
        &mut flat[self.off..self.off + self.len]
    }
}

/// The flat parameter space: every FP32 weight in one buffer and its
/// gradient accumulator at the same offset of a second, in the order the
/// layers were built (the order `dos-zero` shards over), then the zeros
/// [`Params::pad_to_multiple`] appends. A data-parallel rank pads once and
/// runs its collectives on the buffers themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    // weights and gradients, each `len` long plus the same padding
    pub(crate) w: Vec<f32>,
    pub(crate) g: Vec<f32>,
    len: usize,
}

impl Params {
    /// Appends a parameter holding `w`, with a zero gradient.
    ///
    /// # Panics
    ///
    /// Panics once the space has been padded.
    pub(crate) fn push(&mut self, w: impl IntoIterator<Item = f32>) -> Param {
        assert_eq!(self.w.len(), self.len, "parameters must be added before padding");
        self.w.extend(w);
        let p = Param { off: self.len, len: self.w.len() - self.len };
        self.len = self.w.len();
        self.g.resize(self.len, 0.0);
        p
    }

    /// Appends a parameter of `n` i.i.d. normal weights of standard
    /// deviation `std` (Box–Muller over the supplied RNG, two samples per
    /// draw; deterministic for a seeded RNG).
    pub(crate) fn randn<R: Rng>(&mut self, n: usize, std: f32, rng: &mut R) -> Param {
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        self.push(data)
    }

    /// Every weight, padding excluded.
    pub fn weights(&self) -> &[f32] {
        &self.w[..self.len]
    }

    /// [`Params::weights`], mutably.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.w[..self.len]
    }

    /// Every gradient, padding excluded.
    pub fn grads(&self) -> &[f32] {
        &self.g[..self.len]
    }

    /// Both buffers, padding included: what a data-parallel rank's
    /// collectives reduce and gather in place.
    pub fn padded_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.w, &mut self.g)
    }

    /// Zero-pads both buffers to the next multiple of `world` (equal
    /// shards for a data-parallel world).
    pub fn pad_to_multiple(&mut self, world: usize) {
        let n = self.len.next_multiple_of(world);
        self.w.resize(n, 0.0);
        self.g.resize(n, 0.0);
    }
}

/// A model over one flat parameter space, which optimizers, checkpoints
/// and the collectives borrow; the `gather_*` copies are for tests and
/// benchmarks.
pub trait VisitParams {
    /// The flat parameter space.
    fn params(&self) -> &Params;

    /// The flat parameter space, mutably.
    fn params_mut(&mut self) -> &mut Params;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().weights().len()
    }

    /// A copy of every weight, in the flat order.
    fn gather_params(&self) -> Vec<f32> {
        self.params().weights().to_vec()
    }

    /// A copy of every gradient, in the flat order.
    fn gather_grads(&self) -> Vec<f32> {
        self.params().grads().to_vec()
    }

    /// Overwrites every weight from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`VisitParams::num_params`].
    fn scatter_params(&mut self, flat: &[f32]) {
        let w = self.params_mut().weights_mut();
        assert_eq!(flat.len(), w.len(), "flat parameter vector has wrong length");
        w.copy_from_slice(flat);
    }

    /// Zeroes every gradient accumulator.
    fn zero_grads(&mut self) {
        self.params_mut().g.fill(0.0);
    }
}

impl VisitParams for Params {
    fn params(&self) -> &Params {
        self
    }

    fn params_mut(&mut self) -> &mut Params {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two() -> (Params, Param, Param) {
        let mut ps = Params::default();
        let a = ps.push([1.0, 2.0]);
        let b = ps.push([3.0]);
        (ps, a, b)
    }

    #[test]
    fn param_construction() {
        let mut ps = Params::default();
        let p = ps.push([0.0; 4]);
        assert_eq!(p.of(&ps.w).len(), 4);
        assert_eq!(p.of(&ps.g), [0.0; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let q = ps.randn(100, 0.02, &mut rng);
        assert!(q.of(&ps.w).iter().any(|&x| x != 0.0));
        assert_eq!(ps.num_params(), 104);
    }

    #[test]
    fn randn_is_deterministic_and_plausible() {
        let draw = |seed| {
            let mut ps = Params::default();
            ps.randn(1000, 0.02, &mut StdRng::seed_from_u64(seed));
            ps
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        let w = a.weights();
        let mean: f32 = w.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.005, "mean {mean} too far from 0");
        let var: f32 = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 1000.0;
        assert!((var.sqrt() - 0.02).abs() < 0.005, "std {} off", var.sqrt());
    }

    /// The initial weights' bits, pinned by an FNV-1a-style fold over each
    /// f32's bits: any change to the draw's RNG calls or float operations
    /// moves them. An odd `n` covers the draw whose second sample is
    /// dropped.
    #[test]
    fn randn_bits_are_pinned() {
        for (seed, n, pin) in [
            (7, 1001, 0x3160_9e0c_a1cb_e237_u64),
            (2026, 4096, 0xdbad_8c2f_17da_5a1b),
        ] {
            let mut ps = Params::default();
            ps.randn(n, 0.02, &mut StdRng::seed_from_u64(seed));
            let h = ps.weights().iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(h, pin, "seed {seed}, n {n}");
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        let (mut ps, a, b) = two();
        assert_eq!(ps.num_params(), 3);
        assert_eq!(ps.gather_params(), vec![1.0, 2.0, 3.0]);
        ps.scatter_params(&[9.0, 8.0, 7.0]);
        assert_eq!(a.of(&ps.w), [9.0, 8.0]);
        assert_eq!(b.of(&ps.w), [7.0]);
    }

    #[test]
    fn zero_grads_clears_all() {
        let (mut ps, a, b) = two();
        a.of_mut(&mut ps.g)[1] = 5.0;
        b.of_mut(&mut ps.g)[0] = 6.0;
        assert_eq!(ps.gather_grads(), vec![0.0, 5.0, 6.0]);
        ps.zero_grads();
        assert_eq!(ps.gather_grads(), vec![0.0; 3]);
    }

    #[test]
    fn padding_is_zeros_outside_the_gathered_space() {
        let (mut ps, ..) = two();
        ps.g[0] = 1.0;
        ps.pad_to_multiple(4);
        assert_eq!((ps.w.len(), ps.g.len()), (4, 4));
        assert_eq!((ps.w[3], ps.g[3]), (0.0, 0.0));
        assert_eq!(ps.gather_params(), vec![1.0, 2.0, 3.0]);
        assert_eq!(ps.gather_grads(), vec![1.0, 0.0, 0.0]);
        ps.scatter_params(&[4.0, 5.0, 6.0]);
        assert_eq!(ps.w, vec![4.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn scatter_rejects_wrong_length() {
        let (mut ps, ..) = two();
        ps.scatter_params(&[1.0, 2.0]);
    }
}
