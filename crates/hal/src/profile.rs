//! Calibrated hardware profiles.
//!
//! A [`HardwareProfile`] captures every constant the paper measures on its
//! testbeds (§5.1, Table 1, §1, §5.4): link bandwidths, CPU/GPU optimizer
//! update throughputs, precision-conversion throughputs, memory capacities,
//! and contention factors. Profiles feed both the analytic performance model
//! (Equation 1) and the discrete-event scenarios, so the two always agree on
//! the machine they describe.
//!
//! Bandwidths are bytes/second; update and downscale throughputs are
//! *parameters/second* ("P/s" in the paper); FLOP rates are FLOP/second.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Gibibyte multiplier for capacities.
pub const GIB: u64 = 1 << 30;
/// Decimal gigabyte multiplier used for bandwidths (matching vendor specs).
pub const GB: f64 = 1e9;

/// Precision-conversion and cross-memory transfer throughputs (paper
/// Table 1), in bytes/second of *source* data.
///
/// `G`/`H` denote GPU/host tensors; the subscript is the bit width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConversionTable {
    /// FP32↔FP16 conversion on the GPU (`G32↔G16`): 1.2 TB/s on H100.
    pub g32_g16: f64,
    /// FP32↔FP16 conversion on the host (`H32↔H16`): 62 GB/s.
    pub h32_h16: f64,
    /// Same-precision FP16 transfer over PCIe (`H16↔G16`): 52 GB/s pinned.
    pub h16_g16: f64,
    /// Fused downscale-and-transfer (`H32→G16`): 8 GB/s.
    pub h32_g16: f64,
    /// Fused upscale-on-the-fly flush (`G16→H32`): 4 GB/s.
    pub g16_h32: f64,
}

/// Inputs to the paper's Equation 1, all in parameters/second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModelInputs {
    /// `B`: effective H2D/D2H throughput for FP32 optimizer-state tensors.
    pub b: f64,
    /// `U_g`: GPU update throughput.
    pub ug: f64,
    /// `U_c`: CPU update throughput (per data-parallel rank).
    pub uc: f64,
    /// `D_c`: CPU FP32→FP16 downscale throughput (per rank).
    pub dc: f64,
}

/// A full description of one training node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Number of GPUs in the node (= maximum data-parallel degree per node).
    pub num_gpus: usize,
    /// HBM capacity per GPU, bytes.
    pub gpu_hbm_bytes: u64,
    /// Host DRAM capacity, bytes (shared by all ranks).
    pub host_dram_bytes: u64,
    /// Number of NUMA domains the DRAM is split across.
    pub numa_domains: usize,
    /// Pinned-memory H2D PCIe bandwidth per GPU, bytes/s.
    pub pcie_h2d: f64,
    /// Pinned-memory D2H PCIe bandwidth per GPU, bytes/s.
    pub pcie_d2h: f64,
    /// Pageable-memory H2D bandwidth, bytes/s.
    pub pcie_h2d_pageable: f64,
    /// Pageable-memory D2H bandwidth, bytes/s.
    pub pcie_d2h_pageable: f64,
    /// Unidirectional NVLink D2D bandwidth, bytes/s.
    pub nvlink_bw: f64,
    /// Total physical CPU cores on the node.
    pub cpu_cores: usize,
    /// Aggregate CPU optimizer-update throughput with all cores, params/s.
    pub cpu_update_pps_total: f64,
    /// GPU optimizer-update throughput per GPU, params/s.
    pub gpu_update_pps: f64,
    /// Aggregate CPU FP32→FP16 downscale throughput, params/s.
    pub cpu_downscale_pps_total: f64,
    /// Achieved dense-compute throughput per GPU for transformer kernels,
    /// FLOP/s (an *effective* rate, already discounted from peak).
    pub gpu_flops: f64,
    /// Host `malloc`+first-touch bandwidth for unpinned staging buffers,
    /// bytes/s (paper Fig. 6 measures ~4 GB/s).
    pub host_alloc_bw: f64,
    /// Host DRAM memcpy bandwidth, bytes/s.
    pub host_memcpy_bw: f64,
    /// Table 1 conversion/transfer throughputs.
    pub conv: ConversionTable,
    /// Effective FP32-optimizer-state transfer throughput used during the
    /// update phase, params/s (`B` of Eq. 1). Lower than raw PCIe because the
    /// source/destination is contended, NUMA-split host DRAM.
    pub update_b_pps: f64,
    /// Multiplier (< 1) applied to CPU update throughput while PCIe traffic
    /// is in flight (DRAM contention; paper Fig. 15 shows CPU utilization
    /// dropping to ~60 % at 50 % GPU-scheduled updates).
    pub dram_contention_cpu_factor: f64,
    /// Fixed kernel-launch / DMA-setup latency per operation.
    pub op_latency: SimTime,
    /// NVMe read bandwidth, bytes/s (prices checkpoint restores).
    pub nvme_read_bw: f64,
    /// NVMe write bandwidth, bytes/s.
    pub nvme_write_bw: f64,
}

impl HardwareProfile {
    /// CPU cores available to a single data-parallel rank.
    pub fn cores_per_rank(&self) -> usize {
        (self.cpu_cores / self.num_gpus).max(1)
    }

    /// CPU update throughput available to one rank, params/s.
    pub fn cpu_update_pps(&self) -> f64 {
        self.cpu_update_pps_total / self.num_gpus as f64
    }

    /// CPU downscale throughput available to one rank, params/s.
    pub fn cpu_downscale_pps(&self) -> f64 {
        self.cpu_downscale_pps_total / self.num_gpus as f64
    }

    /// Host DRAM capacity available to one rank, bytes.
    pub fn dram_per_rank(&self) -> u64 {
        self.host_dram_bytes / self.num_gpus as u64
    }

    /// Returns a copy with the CPU-core count (and the core-proportional
    /// update/downscale throughputs) rescaled — used for the paper's
    /// "CPU cores per GPU" sweep (Figure 14).
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_gpu` is zero.
    pub fn with_cores_per_gpu(&self, cores_per_gpu: usize) -> HardwareProfile {
        assert!(cores_per_gpu > 0, "cores_per_gpu must be positive");
        let mut p = self.clone();
        let old_per_rank = self.cores_per_rank() as f64;
        let factor = cores_per_gpu as f64 / old_per_rank;
        p.cpu_cores = cores_per_gpu * self.num_gpus;
        p.cpu_update_pps_total *= factor;
        p.cpu_downscale_pps_total *= factor;
        p.name = format!("{} ({cores_per_gpu} cores/gpu)", self.name);
        p
    }

    /// Returns a copy with a different number of GPUs, keeping per-GPU links
    /// and per-core CPU throughput constant — used for the weak-scaling
    /// sweep (Figure 17, where DP degree exceeds one node's GPUs).
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_num_gpus(&self, num_gpus: usize) -> HardwareProfile {
        assert!(num_gpus > 0, "num_gpus must be positive");
        let mut p = self.clone();
        let factor = num_gpus as f64 / self.num_gpus as f64;
        p.num_gpus = num_gpus;
        p.cpu_cores = ((self.cpu_cores as f64) * factor).round() as usize;
        p.cpu_update_pps_total *= factor;
        p.cpu_downscale_pps_total *= factor;
        p.host_dram_bytes = ((self.host_dram_bytes as f64) * factor) as u64;
        p.name = format!("{} ({num_gpus} gpus)", self.name);
        p
    }

    /// The Equation-1 inputs for this machine.
    pub fn perf_model_inputs(&self) -> PerfModelInputs {
        PerfModelInputs {
            b: self.update_b_pps,
            ug: self.gpu_update_pps,
            uc: self.cpu_update_pps(),
            dc: self.cpu_downscale_pps(),
        }
    }

    /// Effective bytes/s over PCIe for FP32 optimizer-state traffic during
    /// the update phase (4 bytes per parameter at `update_b_pps`).
    pub fn update_link_bw(&self) -> f64 {
        self.update_b_pps * 4.0
    }

    /// The JLSE 4×H100 testbed of §5.1 — the paper's primary machine.
    ///
    /// Measured constants: 55 GB/s pinned PCIe Gen5 per direction, 133 GB/s
    /// NVLink, 96 cores / 192 threads, 512 GB DDR5 over 2 NUMA domains,
    /// aggregate GPU updates ≈ 100 B P/s (25 B P/s per GPU), aggregate CPU
    /// updates ≈ 8 B P/s, CPU→GPU updated-parameter copies ≈ 12 B P/s, and
    /// the Table 1 conversion throughputs (`D_c` per rank derives from the
    /// 62 GB/s host-side H32↔H16 conversion). The effective Eq.-1 `B` is
    /// calibrated to 4 B P/s (≈ 16 GB/s of FP32 state) — well below the
    /// PCIe peak because optimizer-state streams are sourced from contended,
    /// NUMA-split DRAM — which yields the paper's optimal stride k = 2.
    pub fn jlse_h100() -> HardwareProfile {
        HardwareProfile {
            name: "jlse-4xH100".into(),
            num_gpus: 4,
            gpu_hbm_bytes: 80 * GIB,
            host_dram_bytes: 512 * GIB,
            numa_domains: 2,
            pcie_h2d: 55.0 * GB,
            pcie_d2h: 55.0 * GB,
            pcie_h2d_pageable: 9.0 * GB,
            pcie_d2h_pageable: 16.0 * GB,
            nvlink_bw: 133.0 * GB,
            cpu_cores: 96,
            cpu_update_pps_total: 8.0e9,
            gpu_update_pps: 25.0e9,
            cpu_downscale_pps_total: 62.0e9,
            gpu_flops: 210.0e12,
            host_alloc_bw: 4.0 * GB,
            host_memcpy_bw: 62.0 * GB,
            conv: ConversionTable {
                g32_g16: 1.2e12,
                h32_h16: 62.0 * GB,
                h16_g16: 52.0 * GB,
                h32_g16: 8.0 * GB,
                g16_h32: 4.0 * GB,
            },
            update_b_pps: 4.0e9,
            dram_contention_cpu_factor: 0.75,
            op_latency: SimTime::from_micros(8.0),
            nvme_read_bw: 6.0 * GB,
            nvme_write_bw: 4.0 * GB,
        }
    }

    /// The 4×V100 machine of §5.4 used to validate platform independence of
    /// the performance model: B = 3 B P/s, U_g = 35 B P/s, U_c = 2 B P/s,
    /// D_c = 8.7 B P/s ⇒ k = 2.
    pub fn v100_node() -> HardwareProfile {
        HardwareProfile {
            name: "4xV100-32GB".into(),
            num_gpus: 4,
            gpu_hbm_bytes: 32 * GIB,
            host_dram_bytes: 192 * GIB,
            numa_domains: 2,
            pcie_h2d: 13.0 * GB,
            pcie_d2h: 13.0 * GB,
            pcie_h2d_pageable: 6.0 * GB,
            pcie_d2h_pageable: 6.5 * GB,
            nvlink_bw: 100.0 * GB,
            cpu_cores: 88,
            cpu_update_pps_total: 8.0e9,
            gpu_update_pps: 35.0e9,
            cpu_downscale_pps_total: 34.8e9,
            gpu_flops: 50.0e12,
            host_alloc_bw: 3.0 * GB,
            host_memcpy_bw: 40.0 * GB,
            conv: ConversionTable {
                g32_g16: 750.0 * GB,
                h32_h16: 40.0 * GB,
                h16_g16: 12.0 * GB,
                h32_g16: 5.0 * GB,
                g16_h32: 2.5 * GB,
            },
            update_b_pps: 3.0e9,
            dram_contention_cpu_factor: 0.55,
            op_latency: SimTime::from_micros(10.0),
            nvme_read_bw: 3.0 * GB,
            nvme_write_bw: 2.0 * GB,
        }
    }

    /// ALCF Polaris-like node: 4×A100-40GB with 64 cores (Figure 14's
    /// motivating example of a low CPU-per-GPU machine).
    pub fn polaris_a100() -> HardwareProfile {
        HardwareProfile {
            name: "polaris-4xA100-40GB".into(),
            num_gpus: 4,
            gpu_hbm_bytes: 40 * GIB,
            host_dram_bytes: 512 * GIB,
            numa_domains: 4,
            pcie_h2d: 25.0 * GB,
            pcie_d2h: 25.0 * GB,
            pcie_h2d_pageable: 8.0 * GB,
            pcie_d2h_pageable: 12.0 * GB,
            nvlink_bw: 100.0 * GB,
            cpu_cores: 64,
            cpu_update_pps_total: 5.2e9,
            gpu_update_pps: 30.0e9,
            cpu_downscale_pps_total: 8.0e9,
            gpu_flops: 120.0e12,
            host_alloc_bw: 4.0 * GB,
            host_memcpy_bw: 50.0 * GB,
            conv: ConversionTable {
                g32_g16: 900.0 * GB,
                h32_h16: 50.0 * GB,
                h16_g16: 23.0 * GB,
                h32_g16: 7.0 * GB,
                g16_h32: 3.0 * GB,
            },
            update_b_pps: 3.1e9,
            dram_contention_cpu_factor: 0.75,
            op_latency: SimTime::from_micros(10.0),
            nvme_read_bw: 5.0 * GB,
            nvme_write_bw: 3.5 * GB,
        }
    }

    /// AWS p3dn.24xlarge-like node: 8×V100 with 96 vCPUs (the other
    /// CPU-starved configuration §5.4 cites).
    pub fn aws_p3dn() -> HardwareProfile {
        let mut p = Self::v100_node();
        p.name = "aws-p3dn-8xV100".into();
        p.num_gpus = 8;
        p.cpu_cores = 48; // 96 vCPUs = 48 physical cores
        p.host_dram_bytes = 768 * GIB;
        p.cpu_update_pps_total = 4.4e9;
        p.cpu_downscale_pps_total = 19.0e9;
        p
    }

    /// A Grace-Hopper-like node with a 200 GB/s C2C CPU–GPU interconnect —
    /// the future-work configuration in §6. The effective `B` rises with the
    /// interconnect, which pushes the optimal stride toward all-GPU updates.
    pub fn grace_hopper() -> HardwareProfile {
        let mut p = Self::jlse_h100();
        p.name = "grace-hopper-C2C".into();
        p.pcie_h2d = 200.0 * GB;
        p.pcie_d2h = 200.0 * GB;
        p.update_b_pps = 25.0e9;
        p.conv.h16_g16 = 180.0 * GB;
        p.conv.h32_g16 = 30.0 * GB;
        p.conv.g16_h32 = 15.0 * GB;
        p
    }

    /// All built-in profiles.
    pub fn presets() -> Vec<HardwareProfile> {
        vec![
            Self::jlse_h100(),
            Self::v100_node(),
            Self::polaris_a100(),
            Self::aws_p3dn(),
            Self::grace_hopper(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_profile_matches_paper_constants() {
        let p = HardwareProfile::jlse_h100();
        assert_eq!(p.num_gpus, 4);
        assert_eq!(p.gpu_hbm_bytes, 80 * GIB);
        assert_eq!(p.host_dram_bytes, 512 * GIB);
        assert_eq!(p.pcie_h2d, 55.0 * GB);
        assert_eq!(p.conv.g32_g16, 1.2e12);
        assert_eq!(p.conv.h32_h16, 62.0 * GB);
        assert_eq!(p.conv.h16_g16, 52.0 * GB);
        assert_eq!(p.conv.h32_g16, 8.0 * GB);
        assert_eq!(p.conv.g16_h32, 4.0 * GB);
        // §1: aggregate GPU updates ~100 B P/s, CPU updates ~8 B P/s.
        assert_eq!(p.gpu_update_pps * p.num_gpus as f64, 100.0e9);
        assert_eq!(p.cpu_update_pps_total, 8.0e9);
        // D_c derives from the 62 GB/s host-side FP32->FP16 conversion.
        assert_eq!(p.cpu_downscale_pps_total, 62.0e9);
    }

    #[test]
    fn per_rank_derivations() {
        let p = HardwareProfile::jlse_h100();
        assert_eq!(p.cores_per_rank(), 24);
        assert_eq!(p.cpu_update_pps(), 2.0e9);
        assert_eq!(p.cpu_downscale_pps(), 15.5e9);
        assert_eq!(p.dram_per_rank(), 128 * GIB);
    }

    #[test]
    fn v100_matches_section_5_4() {
        let p = HardwareProfile::v100_node();
        let m = p.perf_model_inputs();
        assert_eq!(m.b, 3.0e9);
        assert_eq!(m.ug, 35.0e9);
        assert_eq!(m.uc, 2.0e9);
        assert!((m.dc - 8.7e9).abs() < 1e-3);
    }

    #[test]
    fn cores_per_gpu_rescaling() {
        let p = HardwareProfile::jlse_h100();
        let half = p.with_cores_per_gpu(12);
        assert_eq!(half.cores_per_rank(), 12);
        assert!((half.cpu_update_pps() - 1.0e9).abs() < 1.0);
        let double = p.with_cores_per_gpu(48);
        assert!((double.cpu_update_pps() - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn gpu_rescaling_keeps_per_rank_resources() {
        let p = HardwareProfile::jlse_h100();
        let big = p.with_num_gpus(16);
        assert_eq!(big.num_gpus, 16);
        assert!((big.cpu_update_pps() - p.cpu_update_pps()).abs() < 1.0);
        assert_eq!(big.dram_per_rank(), p.dram_per_rank());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cores_rejected() {
        let _ = HardwareProfile::jlse_h100().with_cores_per_gpu(0);
    }

    #[test]
    fn presets_are_distinctly_named() {
        let names: Vec<String> =
            HardwareProfile::presets().into_iter().map(|p| p.name).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn update_link_bw_is_fp32_bytes() {
        let p = HardwareProfile::v100_node();
        assert_eq!(p.update_link_bw(), 12.0e9); // 3 B P/s of FP32 state
    }
}
