//! Inputs made from `--seed`, and the digest that stands in for an output.
//!
//! The seed reaches the program only through what is generated here: the
//! initial-parameter and gradient streams of the `step_*` workloads, and the
//! corpus seed and model seed of `train_dp2`. The same seed gives the same
//! inputs, bit for bit.

use dos::tensor::F16;

/// SplitMix64: the benchmark's own generator, so the inputs do not change
/// when a shim or a crate of the program does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` and a stream label (so the init and gradient
    /// streams of one seed are unrelated).
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[-1, 1)` with 24 random bits.
    pub fn next_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (2.0 / 16_777_216.0) - 1.0
    }
}

/// Initial master parameters: uniform in `[-0.1, 0.1)`.
pub fn init_stream(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed, 1);
    (0..n).map(|_| 0.1 * rng.next_unit()).collect()
}

/// A gradient vector: uniform in `[-1, 1)`.
pub fn grad_stream(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed, 2);
    (0..n).map(|_| rng.next_unit()).collect()
}

const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95)
}

/// Order-sensitive 64-bit digest of the exact bit patterns of `values`.
pub fn digest_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(mix(DIGEST_SEED, values.len() as u64), |h, x| {
            mix(h, x.to_bits() as u64)
        })
}

/// Order-sensitive 64-bit digest of the exact bit patterns of `values`.
pub fn digest_f16(values: &[F16]) -> u64 {
    values
        .iter()
        .fold(mix(DIGEST_SEED, values.len() as u64), |h, x| {
            mix(h, x.to_bits() as u64)
        })
}

/// Combines digests, in order, into one.
pub fn digest_combine(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(mix(DIGEST_SEED, parts.len() as u64), |h, p| mix(h, *p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(init_stream(7, 100), init_stream(7, 100));
        assert_eq!(grad_stream(7, 100), grad_stream(7, 100));
        assert_ne!(init_stream(7, 100), init_stream(8, 100));
        assert_ne!(
            init_stream(7, 100)
                .iter()
                .map(|x| x * 10.0)
                .collect::<Vec<_>>(),
            grad_stream(7, 100)
        );
    }

    #[test]
    fn streams_stay_in_range() {
        assert!(grad_stream(1, 10_000)
            .iter()
            .all(|g| (-1.0..1.0).contains(g)));
        assert!(init_stream(1, 10_000)
            .iter()
            .all(|p| (-0.1..0.1).contains(p)));
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let a = [1.0f32, 2.0, 3.0];
        assert_eq!(digest_f32(&a), digest_f32(&a));
        assert_ne!(digest_f32(&a), digest_f32(&[1.0, 3.0, 2.0]));
        assert_ne!(
            digest_f32(&a),
            digest_f32(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)])
        );
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_ne!(digest_f32(&[]), digest_f32(&[0.0]));
        assert_ne!(digest_f16(&[F16::ONE]), digest_f16(&[F16::ZERO]));
        assert_ne!(digest_combine(&[1, 2]), digest_combine(&[2, 1]));
    }
}
