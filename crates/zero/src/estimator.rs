//! Per-rank memory estimation (the Table 2 accounting and the OOM check of
//! Figure 13).
//!
//! For a model, a ZeRO stage, a world size, and an offload configuration,
//! [`MemoryEstimator`] computes where every byte lives: FP16 parameters and
//! gradients on the GPU, activations or activation checkpoints, statically
//! GPU-resident optimizer subgroups (the TwinFlow ratio), and the
//! host-resident remainder.

use serde::{Deserialize, Serialize};

use dos_nn::ModelSpec;

use crate::stage::{ZeroPartition, ZeroStage};

/// Where the optimizer state lives and how activations are handled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Fraction of optimizer subgroups statically resident on the GPU
    /// (TwinFlow's "user-defined ratio"; 0.0 = fully host-offloaded, which
    /// is DeepSpeed ZeRO-3 CPU offload).
    pub gpu_resident_ratio: f64,
    /// Whether activation checkpointing is enabled (§5.3 enables it for all
    /// experiments).
    pub activation_checkpointing: bool,
    /// Subgroup size in parameters (paper default: 100 M).
    pub subgroup_params: usize,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            gpu_resident_ratio: 0.0,
            activation_checkpointing: true,
            subgroup_params: 100_000_000,
        }
    }
}

/// A per-rank memory breakdown, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RankMemory {
    /// FP16 model parameters on the GPU.
    pub gpu_params: u64,
    /// FP16 gradients on the GPU (peak, during backward).
    pub gpu_grads: u64,
    /// Activations or activation checkpoints on the GPU (peak, end of
    /// forward).
    pub gpu_activations: u64,
    /// Transient recompute workspace for one layer during backward (only
    /// with activation checkpointing).
    pub gpu_recompute_workspace: u64,
    /// Statically GPU-resident FP32 optimizer subgroups (TwinFlow).
    pub gpu_optimizer_static: u64,
    /// Transient FP32 buffer for one in-flight subgroup (p, m, v) used by
    /// dynamic GPU updates.
    pub gpu_subgroup_buffer: u64,
    /// Host-resident FP32 optimizer state (p, m, v).
    pub host_optimizer: u64,
    /// Host-resident FP32 gradient buffer.
    pub host_grads: u64,
    /// Pinned FP16 staging buffers (downscaled parameters awaiting H2D and
    /// the gradient-flush destination window).
    pub host_staging: u64,
}

impl RankMemory {
    /// Peak GPU bytes (activations and gradients overlap at the
    /// forward/backward boundary; we take the conservative sum).
    pub fn gpu_peak(&self) -> u64 {
        self.gpu_params
            + self.gpu_grads
            + self.gpu_activations
            + self.gpu_recompute_workspace
            + self.gpu_optimizer_static
            + self.gpu_subgroup_buffer
    }

    /// Total host bytes.
    pub fn host_total(&self) -> u64 {
        self.host_optimizer + self.host_grads + self.host_staging
    }
}

/// Computes per-rank memory for a model under a ZeRO + offload
/// configuration.
#[derive(Debug, Clone)]
pub struct MemoryEstimator {
    spec: ModelSpec,
    stage: ZeroStage,
    world: usize,
    offload: OffloadConfig,
}

// OffloadConfig is Copy-friendly for the ratio sweep below.

impl MemoryEstimator {
    /// Creates an estimator.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero or the ratio is outside `[0, 1]`.
    pub fn new(
        spec: ModelSpec,
        stage: ZeroStage,
        world: usize,
        offload: OffloadConfig,
    ) -> MemoryEstimator {
        assert!(world > 0, "world must be positive");
        assert!(
            (0.0..=1.0).contains(&offload.gpu_resident_ratio),
            "gpu_resident_ratio must be within [0, 1]"
        );
        MemoryEstimator { spec, stage, world, offload }
    }

    /// The model being estimated.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Per-rank memory at the given micro-batch size.
    pub fn per_rank(&self, micro_batch: usize) -> RankMemory {
        let part = ZeroPartition::new(self.stage, self.world, 0);
        let p = self.spec.param_count();
        let per_rank_params = p / self.world as u64;

        let gpu_activations = if self.offload.activation_checkpointing {
            self.spec.activation_checkpoint_bytes(micro_batch)
        } else {
            self.spec.activation_bytes(micro_batch)
        };
        let gpu_recompute_workspace = if self.offload.activation_checkpointing {
            // During backward one layer's activations are re-materialized
            // and their gradient buffers coexist with them: two full copies
            // of a single layer's activation footprint.
            2 * self.spec.activation_bytes(micro_batch) / self.spec.num_layers as u64
        } else {
            0
        };
        let optimizer_total = 12 * per_rank_params;
        let gpu_optimizer_static =
            (optimizer_total as f64 * self.offload.gpu_resident_ratio) as u64;

        RankMemory {
            gpu_params: part.gpu_param_bytes(p),
            gpu_grads: part.gpu_grad_bytes(p),
            gpu_activations,
            gpu_recompute_workspace,
            gpu_optimizer_static,
            gpu_subgroup_buffer: 12 * self.offload.subgroup_params as u64,
            host_optimizer: optimizer_total - gpu_optimizer_static,
            host_grads: 4 * per_rank_params,
            host_staging: 2 * per_rank_params,
        }
    }

    /// Whether the configuration fits a GPU with `gpu_capacity` bytes at the
    /// given micro-batch (the Figure 13 OOM check).
    pub fn fits_gpu(&self, micro_batch: usize, gpu_capacity: u64) -> bool {
        self.per_rank(micro_batch).gpu_peak() <= gpu_capacity
    }

    /// The largest micro-batch (power of two, up to `max`) that fits, or
    /// `None` if even micro-batch 1 does not fit.
    pub fn max_micro_batch(&self, gpu_capacity: u64, max: usize) -> Option<usize> {
        let mut best = None;
        let mut mb = 1;
        while mb <= max {
            if self.fits_gpu(mb, gpu_capacity) {
                best = Some(mb);
            }
            mb *= 2;
        }
        best
    }

    /// The largest TwinFlow static-GPU residency ratio (in 1 % steps) that
    /// still fits `gpu_capacity` at `micro_batch` — the profiling chore §2
    /// says "the user is typically responsible" for, automated.
    pub fn max_gpu_resident_ratio(&self, micro_batch: usize, gpu_capacity: u64) -> f64 {
        let mut best = 0.0;
        for step in 0..=100 {
            let ratio = step as f64 / 100.0;
            let mut offload = self.offload;
            offload.gpu_resident_ratio = ratio;
            let est =
                MemoryEstimator::new(self.spec.clone(), self.stage, self.world, offload);
            if est.fits_gpu(micro_batch, gpu_capacity) {
                best = ratio;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn estimator(name: &str, ratio: f64) -> MemoryEstimator {
        MemoryEstimator::new(
            ModelSpec::by_name(name).unwrap(),
            ZeroStage::Three,
            4,
            OffloadConfig { gpu_resident_ratio: ratio, ..OffloadConfig::default() },
        )
    }

    #[test]
    fn fully_offloaded_20b_fits_80gb_at_small_batch() {
        // §5.3's premise: collective GPU memory holds fp16 params, act
        // checkpoints, fp16 grads, and one fp32 subgroup.
        let est = estimator("20B", 0.0);
        assert!(est.fits_gpu(1, 80 * GIB), "{:?}", est.per_rank(1));
    }

    #[test]
    fn figure13_ooms_past_microbatch_8() {
        let est = estimator("20B", 0.0);
        assert!(est.fits_gpu(8, 80 * GIB), "{:?}", est.per_rank(8));
        assert!(!est.fits_gpu(16, 80 * GIB), "{:?}", est.per_rank(16));
        assert_eq!(est.max_micro_batch(80 * GIB, 32), Some(8));
    }

    #[test]
    fn twinflow_ratio_moves_bytes_between_devices() {
        let zero = estimator("20B", 0.0).per_rank(1);
        let half = estimator("20B", 0.5).per_rank(1);
        assert_eq!(zero.gpu_optimizer_static, 0);
        assert!(half.gpu_optimizer_static > 0);
        assert!(half.host_optimizer < zero.host_optimizer);
        // Total optimizer bytes conserved.
        assert_eq!(
            zero.gpu_optimizer_static + zero.host_optimizer,
            half.gpu_optimizer_static + half.host_optimizer
        );
    }

    #[test]
    fn ratio_50_on_40gb_ooms_but_20_fits() {
        // §5.4's justification for the 20 % representative ratio: larger
        // ratios OOM on 40 GB A100s.
        let est20 = estimator("20B", 0.2);
        let est50 = estimator("20B", 0.5);
        assert!(est20.fits_gpu(1, 40 * GIB), "{:?}", est20.per_rank(1));
        assert!(!est50.fits_gpu(1, 40 * GIB), "{:?}", est50.per_rank(1));
    }

    #[test]
    fn checkpointing_reduces_gpu_peak() {
        let spec = ModelSpec::by_name("7B").unwrap();
        let with = MemoryEstimator::new(
            spec.clone(),
            ZeroStage::Three,
            4,
            OffloadConfig { activation_checkpointing: true, ..OffloadConfig::default() },
        );
        let without = MemoryEstimator::new(
            spec,
            ZeroStage::Three,
            4,
            OffloadConfig { activation_checkpointing: false, ..OffloadConfig::default() },
        );
        assert!(with.per_rank(4).gpu_peak() < without.per_rank(4).gpu_peak());
    }

    #[test]
    fn host_side_matches_table2_scale() {
        // 20B model: Table 2 lists 294 GB of FP32 optimizer state; per rank
        // (world 4) the host should hold roughly a quarter of p+m+v.
        let est = estimator("20B", 0.0);
        let host = est.per_rank(1).host_optimizer as f64 / 1e9;
        let expected = 12.0 * est.spec().param_count() as f64 / 4.0 / 1e9;
        assert!((host - expected).abs() < 1.0, "host {host} GB vs expected {expected} GB");
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn ratio_validation() {
        let _ = estimator("7B", 1.5);
    }

    #[test]
    fn auto_profiled_twinflow_ratio() {
        // Automates §2's "user profiles and fine-tunes a fixed ratio".
        let est = estimator("20B", 0.0);
        let ratio = est.max_gpu_resident_ratio(1, 80 * GIB);
        assert!((0.5..0.95).contains(&ratio), "20B ratio {ratio}");
        // The found ratio fits; one step more does not.
        let mut offload = OffloadConfig { gpu_resident_ratio: ratio, ..OffloadConfig::default() };
        let fits = MemoryEstimator::new(est.spec().clone(), ZeroStage::Three, 4, offload);
        assert!(fits.fits_gpu(1, 80 * GIB));
        offload.gpu_resident_ratio = (ratio + 0.02).min(1.0);
        let over = MemoryEstimator::new(est.spec().clone(), ZeroStage::Three, 4, offload);
        assert!(!over.fits_gpu(1, 80 * GIB));
        // A 40 GB card can pin almost nothing for 20B.
        assert!(est.max_gpu_resident_ratio(1, 40 * GIB) < 0.25);
    }
}
