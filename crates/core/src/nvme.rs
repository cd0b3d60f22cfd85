//! NVMe-tier optimizer offloading (the paper's §6 future work, in the
//! spirit of ZeRO-Infinity).
//!
//! When even host DRAM cannot hold the FP32 optimizer state (the paper
//! notes LLaMA-33B already exceeds its 512 GB testbed, §5.3), the state
//! moves to NVMe and subgroups stream through a small host staging window:
//! read from NVMe → update (CPU, or GPU via the interleaved path) → write
//! back. The schedulers here pipeline that stream so NVMe reads of the next
//! subgroup overlap the update of the current one.

use dos_hal::{OpId, SimError};
use dos_sim::{IterationScenario, UpdateScheduler};

use crate::perf_model::PerfModel;
use crate::schedulers::{StridePolicy, UpdatePlan};

/// Update scheduler for NVMe-resident optimizer state.
///
/// With `interleave` disabled this is a ZeRO-Infinity-style CPU update
/// pipeline; enabled, every k-th subgroup additionally hops host→GPU for
/// its update, exactly like [`DeepOptimizerStates`](crate::DeepOptimizerStates)
/// one tier up.
#[derive(Debug, Clone, Copy)]
pub struct NvmeOffload {
    /// Interleave every k-th subgroup onto the GPU.
    pub interleave: bool,
    /// Stride policy when interleaving (`Auto` solves Equation 1 with the
    /// machine's PCIe-side inputs; the NVMe link is usually the binding
    /// constraint anyway).
    pub stride: StridePolicy,
}

impl Default for NvmeOffload {
    fn default() -> Self {
        NvmeOffload { interleave: true, stride: StridePolicy::Auto }
    }
}

impl NvmeOffload {
    /// The placement over the scenario's subgroups (this tier keeps no
    /// static residents).
    fn plan(&self, scn: &IterationScenario) -> UpdatePlan {
        let stride = self.stride.resolve(|| {
            // On the NVMe tier the effective staging rate `B` of
            // Equation 1 is bounded by the drive, not PCIe: streaming a
            // subgroup's 12-byte-per-parameter state through NVMe caps
            // B at `nvme_bw / 12` params/s. On spinning-rust-adjacent
            // bandwidths the denominator goes non-positive and the
            // model (correctly) refuses to interleave.
            let mut inputs = scn.cfg.profile.perf_model_inputs();
            let b_nvme =
                scn.cfg.profile.nvme_read_bw.min(scn.cfg.profile.nvme_write_bw) / 12.0;
            inputs.b = inputs.b.min(b_nvme);
            PerfModel::new(inputs).optimal_stride()
        });
        UpdatePlan::new(scn.subgroups().len(), 0, stride.filter(|_| self.interleave))
    }
}

impl UpdateScheduler for NvmeOffload {
    fn name(&self) -> &str {
        if self.interleave {
            "dos-nvme-offload"
        } else {
            "zero-infinity-nvme"
        }
    }

    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError> {
        let sgs = scn.subgroups().to_vec();
        let plan = self.plan(scn);
        let mut completion: Vec<OpId> = Vec::new();
        let mut prev_gpu_update: Option<OpId> = None;
        // The staging window holds 4 subgroups: the read of subgroup i must
        // wait until subgroup i-4 has drained back to NVMe.
        let mut drains: Vec<OpId> = Vec::new();

        for (i, sg) in sgs.iter().enumerate() {
            let mut read_deps = vec![grads_ready];
            if i >= 4 {
                read_deps.push(drains[i - 4]);
            }
            let read = scn.nvme_read_subgroup(sg, &read_deps)?;
            let drained = if plan.on_device(i) {
                let mut pre_deps = vec![read];
                if let Some(op) = prev_gpu_update {
                    pre_deps.push(op);
                }
                let pre = scn.prefetch_subgroup(sg, &pre_deps)?;
                let upd = scn.gpu_update(sg, &[pre])?;
                let flush = scn.flush_subgroup(sg, &[upd])?;
                completion.push(flush.params_ready);
                prev_gpu_update = Some(upd);
                scn.nvme_write_subgroup(sg, &[flush.flushed])?
            } else {
                let u = scn.cpu_update(sg, &[read])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                let t = scn.h2d_updated_params(sg, &[d])?;
                completion.push(t);
                scn.nvme_write_subgroup(sg, &[u])?
            };
            drains.push(drained);
        }
        // The next iteration only needs the GPU-side FP16 parameters; NVMe
        // write-back may spill, but the *last* window must drain before the
        // next update phase reuses it — include the final drain.
        if let Some(&last) = drains.last() {
            completion.push(last);
        }
        let streams = scn.rank.streams;
        scn.rank.sim.join(streams.compute, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::Zero3Offload;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;
    use dos_sim::{simulate_iteration, TrainConfig};

    fn nvme_cfg(model: &str) -> TrainConfig {
        let mut cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name(model).unwrap(),
            HardwareProfile::jlse_h100(),
        );
        cfg.offload.optimizer_on_nvme = true;
        cfg
    }

    #[test]
    fn host_offload_of_33b_overflows_dram_but_nvme_fits() {
        let host_cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("33B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let host = simulate_iteration(&host_cfg, &Zero3Offload).unwrap();
        assert!(host.host_oom.is_some(), "33B should overflow 512 GB DRAM");

        let nvme = simulate_iteration(&nvme_cfg("33B"), &NvmeOffload::default()).unwrap();
        assert!(nvme.host_oom.is_none(), "NVMe tier should fit: {:?}", nvme.host_oom);
        assert!(nvme.oom.is_none());
    }

    #[test]
    fn auto_stride_refuses_gpu_on_nvme_tier() {
        let cfg = nvme_cfg("20B");
        let scn = dos_sim::IterationScenario::new(cfg);
        assert!(!NvmeOffload::default().plan(&scn).interleaving());
    }

    #[test]
    fn nvme_is_slower_than_host_offload() {
        let host_cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let host = simulate_iteration(&host_cfg, &crate::DeepOptimizerStates::default()).unwrap();
        let nvme = simulate_iteration(&nvme_cfg("20B"), &NvmeOffload::default()).unwrap();
        assert!(
            nvme.update_secs > 1.5 * host.update_secs,
            "NVMe {:.2}s vs host {:.2}s",
            nvme.update_secs,
            host.update_secs
        );
    }

    #[test]
    fn interleaving_does_not_pay_when_nvme_bound() {
        // The NVMe drive, not the CPU, is the bottleneck on this tier:
        // forcing GPU interleaving only adds staging dependencies, and the
        // generalized Equation 1 (B capped by the drive) correctly refuses
        // to schedule any subgroup on the GPU.
        let plain = simulate_iteration(
            &nvme_cfg("20B"),
            &NvmeOffload { interleave: false, stride: StridePolicy::CpuOnly },
        )
        .unwrap();
        let forced = simulate_iteration(
            &nvme_cfg("20B"),
            &NvmeOffload { interleave: true, stride: StridePolicy::Fixed(2) },
        )
        .unwrap();
        assert!(
            forced.update_secs > plain.update_secs,
            "forced interleave {:.2}s should lose to plain {:.2}s",
            forced.update_secs,
            plain.update_secs
        );
        let auto = simulate_iteration(&nvme_cfg("20B"), &NvmeOffload::default()).unwrap();
        assert!(
            (auto.update_secs - plain.update_secs).abs() < 0.05 * plain.update_secs,
            "auto ({:.2}s) should match the CPU-only schedule ({:.2}s)",
            auto.update_secs,
            plain.update_secs
        );
    }

    #[test]
    fn staging_window_bounds_host_memory() {
        let r = simulate_iteration(&nvme_cfg("20B"), &NvmeOffload::default()).unwrap();
        assert!(r.host_oom.is_none());
        // Update time is bounded below by streaming all state through NVMe.
        let cfg = nvme_cfg("20B");
        let bytes = 12.0 * cfg.params_per_rank() as f64;
        let floor = bytes / cfg.profile.nvme_read_bw;
        assert!(r.update_secs >= floor * 0.9, "{} < NVMe floor {}", r.update_secs, floor);
    }
}
