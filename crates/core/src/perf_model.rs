//! The performance model of §4.2 (Equation 1).
//!
//! Balances the time the CPU spends updating and downscaling `k` subgroups
//! against the time to stage one subgroup on the GPU (3·S/B of FP32 state in
//! each PCIe direction), ship the CPU-updated FP16 parameters (k·S/(2B)),
//! and run the GPU update (S/U_g):
//!
//! ```text
//! k (S/U_c + S/D_c) = max{3S/B (D2H), 3S/B (H2D)} + k·S/(2B) + S/U_g
//!
//!          3/B + 1/U_g
//! k = ─────────────────────────
//!     1/U_c + 1/D_c − 1/(2B)
//! ```
//!
//! `k` is the **update stride**: every k-th subgroup is scheduled on the
//! GPU, so the fraction of updates on the GPU is `1/k`. Note that `k` is
//! independent of the subgroup size `S` — which is why Figure 2 sees no
//! effect from varying subgroup sizes.

use serde::{Deserialize, Serialize};

use dos_hal::PerfModelInputs;

/// Solver for the optimal CPU-to-GPU update stride.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    inputs: PerfModelInputs,
    cpu_contention: f64,
}

impl PerfModel {
    /// Creates a model from measured machine throughputs.
    ///
    /// # Panics
    ///
    /// Panics if any throughput is not positive.
    pub fn new(inputs: PerfModelInputs) -> PerfModel {
        assert!(inputs.b > 0.0, "B must be positive");
        assert!(inputs.ug > 0.0, "U_g must be positive");
        assert!(inputs.uc > 0.0, "U_c must be positive");
        assert!(inputs.dc > 0.0, "D_c must be positive");
        PerfModel { inputs, cpu_contention: 1.0 }
    }

    /// Adds a DRAM-contention factor (< 1) applied to `U_c` by the
    /// *prediction* when PCIe traffic runs concurrently with CPU updates.
    /// Equation 1 itself (the stride solver) uses the uncontended inputs,
    /// exactly as the paper derives it from standalone measurements.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn with_contention(mut self, factor: f64) -> PerfModel {
        assert!(factor > 0.0 && factor <= 1.0, "contention factor must be in (0, 1]");
        self.cpu_contention = factor;
        self
    }

    /// The model's inputs.
    pub fn inputs(&self) -> PerfModelInputs {
        self.inputs
    }

    /// The real-valued solution of Equation 1, or `None` if the denominator
    /// is non-positive (the CPU side is so fast that GPU offloading never
    /// pays for its transfers).
    pub fn raw_stride(&self) -> Option<f64> {
        let PerfModelInputs { b, ug, uc, dc } = self.inputs;
        let denom = 1.0 / uc + 1.0 / dc - 1.0 / (2.0 * b);
        if denom <= 0.0 {
            return None;
        }
        Some((3.0 / b + 1.0 / ug) / denom)
    }

    /// The integer update stride `k ≥ 1`: every k-th subgroup updates on
    /// the GPU. Rounds the Equation 1 solution to the nearest integer (the
    /// paper's k = 2.29 → 2); `None` means all subgroups stay on the CPU.
    pub fn optimal_stride(&self) -> Option<usize> {
        self.raw_stride().map(|k| (k.round() as usize).max(1))
    }

    /// Fraction of subgroup updates scheduled on the GPU (`1/k`).
    pub fn gpu_fraction(&self) -> f64 {
        match self.optimal_stride() {
            Some(k) => 1.0 / k as f64,
            None => 0.0,
        }
    }

    /// Predicted update-phase seconds for `params` parameters partitioned
    /// into subgroups of `subgroup` parameters under stride `k`
    /// (`None` = CPU-only). Uses the Equation 1 cost terms per stride
    /// cycle; the per-cycle time is the max of the CPU side and the
    /// GPU/transfer side.
    pub fn predicted_update_secs(
        &self,
        params: f64,
        subgroup: f64,
        k: Option<usize>,
    ) -> f64 {
        let PerfModelInputs { b, ug, uc, dc } = self.inputs;
        let s = subgroup;
        match k {
            None => params * (1.0 / uc + 1.0 / dc + 1.0 / (2.0 * b)),
            Some(k) => {
                let k = k.max(1) as f64;
                let cycles = params / (s * k);
                // Per cycle: k-1 CPU subgroups + 1 GPU subgroup. Concurrent
                // PCIe traffic slows the CPU by the contention factor.
                let uc_eff = uc * self.cpu_contention;
                let cpu_side = (k - 1.0) * (s / uc_eff + s / dc);
                let xfer_side = 3.0 * s / b + (k - 1.0) * s / (2.0 * b) + s / ug;
                cycles * cpu_side.max(xfer_side)
            }
        }
    }

    /// Sweeps {CPU-only, k = 1..=max_k} through
    /// [`Self::predicted_update_secs`] and returns the winner. Ties go to
    /// the earlier candidate (CPU-only first).
    pub fn sweep(&self, params: f64, subgroup: f64, max_k: usize) -> SweepOutcome {
        let cpu_secs = self.predicted_update_secs(params, subgroup, None);
        let mut best = (None, cpu_secs);
        for k in 1..=max_k.max(1) {
            let t = self.predicted_update_secs(params, subgroup, Some(k));
            if t < best.1 {
                best = (Some(k), t);
            }
        }
        SweepOutcome { best_k: best.0, best_secs: best.1, cpu_secs }
    }
}

/// Result of one candidate sweep ([`PerfModel::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOutcome {
    /// Best interleaved stride, or `None` when CPU-only wins the sweep.
    pub best_k: Option<usize>,
    /// Predicted update seconds of the winning candidate.
    pub best_secs: f64,
    /// Predicted update seconds of the CPU-only candidate.
    pub cpu_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;

    #[test]
    fn v100_inputs_give_k_2() {
        // §5.4: B = 3 B P/s, U_g = 35, U_c = 2, D_c = 8.7 => k = 2.
        let m = PerfModel::new(PerfModelInputs { b: 3.0e9, ug: 35.0e9, uc: 2.0e9, dc: 8.7e9 });
        let raw = m.raw_stride().unwrap();
        assert!((raw - 2.295).abs() < 0.01, "raw k = {raw}");
        assert_eq!(m.optimal_stride(), Some(2));
        assert!((m.gpu_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn h100_profile_gives_k_2() {
        let m = PerfModel::new(HardwareProfile::jlse_h100().perf_model_inputs());
        assert_eq!(m.optimal_stride(), Some(2), "raw = {:?}", m.raw_stride());
    }

    #[test]
    fn stride_is_independent_of_subgroup_size() {
        // Equation 1 has no S: predictions scale linearly with params but the
        // argmin over k is unchanged.
        let m = PerfModel::new(PerfModelInputs { b: 3.0e9, ug: 35.0e9, uc: 2.0e9, dc: 8.7e9 });
        let a = m.sweep(5e9, 1e8, 6);
        let b = m.sweep(5e9, 1e9, 6);
        assert_eq!(a.best_k, b.best_k);
        assert!(a.best_k.is_some() && a.best_secs < a.cpu_secs, "{a:?}");
    }

    #[test]
    fn fast_cpu_disables_gpu_offload() {
        // CPU + downscale faster than half a subgroup transfer: denominator
        // goes non-positive.
        let m = PerfModel::new(PerfModelInputs { b: 100.0e9, ug: 25.0e9, uc: 1e12, dc: 1e12 });
        assert_eq!(m.raw_stride(), None);
        assert_eq!(m.optimal_stride(), None);
        assert_eq!(m.gpu_fraction(), 0.0);
    }

    #[test]
    fn interleaving_beats_cpu_only_in_prediction() {
        let m = PerfModel::new(HardwareProfile::jlse_h100().perf_model_inputs());
        let p = 5.4e9; // 20B model, 4 ranks
        let cpu_only = m.predicted_update_secs(p, 1e8, None);
        let k2 = m.predicted_update_secs(p, 1e8, Some(2));
        assert!(k2 < cpu_only, "k=2 {k2}s should beat CPU-only {cpu_only}s");
        // And the paper's ~1.7x+ update speedup shows up.
        assert!(cpu_only / k2 > 1.5, "speedup only {}", cpu_only / k2);
    }

    #[test]
    fn prediction_matches_v100_throughput_ordering() {
        // §5.4: measured update throughputs were 1.67 (k=3), 1.62 (k=4),
        // 1.28 (k=5) billion P/s, with k=2 best. Our predictions must order
        // the same way.
        let profile = HardwareProfile::v100_node();
        let m = PerfModel::new(profile.perf_model_inputs())
            .with_contention(profile.dram_contention_cpu_factor);
        let p = 1.75e9; // 7B model across 4 ranks
        let t: Vec<f64> =
            (2..=5).map(|k| m.predicted_update_secs(p, 1e8, Some(k))).collect();
        assert!(t[0] < t[1], "k=2 {} should beat k=3 {}", t[0], t[1]);
        assert!(t[1] < t[3], "k=3 {} should beat k=5 {}", t[1], t[3]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn inputs_validated() {
        let _ = PerfModel::new(PerfModelInputs { b: 0.0, ug: 1.0, uc: 1.0, dc: 1.0 });
    }
}
