//! Property-based tests for dos-tensor invariants.

use dos_tensor::F16;
use proptest::prelude::*;

proptest! {
    /// f16 -> f32 -> f16 is the identity for every non-NaN value.
    #[test]
    fn f16_f32_round_trip(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.is_nan());
        prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// The f32 -> f16 conversion picks a *nearest* representable value: no
    /// neighbouring f16 is strictly closer.
    #[test]
    fn f16_conversion_is_nearest(x in -70000.0f32..70000.0) {
        let h = F16::from_f32(x);
        prop_assume!(h.is_finite());
        let v = h.to_f32();
        let bits = h.to_bits();
        // Walk to numeric neighbours (bit-adjacent within the same sign, or
        // across the zero boundary).
        let neighbours = [bits.wrapping_add(1), bits.wrapping_sub(1), bits ^ 0x8000];
        for nb in neighbours {
            let n = F16::from_bits(nb);
            if n.is_finite() {
                prop_assert!(
                    (x - v).abs() <= (x - n.to_f32()).abs() + f32::EPSILON,
                    "{} -> {} but neighbour {} is closer", x, v, n.to_f32()
                );
            }
        }
    }

    /// Conversion is monotone: a <= b implies f16(a) <= f16(b).
    #[test]
    fn f16_conversion_is_monotone(a in -65000.0f32..65000.0, b in -65000.0f32..65000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    /// Relative error of f16 rounding is bounded by 2^-11 for normal values.
    #[test]
    fn f16_relative_error_bound(x in 1e-3f32..60000.0) {
        let v = F16::from_f32(x).to_f32();
        let rel = ((x - v) / x).abs();
        prop_assert!(rel <= 1.0 / 2048.0, "relative error {} too large for {}", rel, x);
    }
}
