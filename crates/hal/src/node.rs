//! Instantiation of a simulated training rank.
//!
//! A [`RankSim`] bundles one data-parallel rank's view of the node: the GPU,
//! its share of the host CPUs, its dedicated PCIe link (one resource per
//! direction, so the engine models full duplex), the NVLink port used by
//! collectives, host-DRAM bandwidth, and the standard set of streams the
//! Deep Optimizer States middleware uses (compute, H2D, D2H, and the three
//! dedicated parameter/momentum/variance transfer streams of Algorithm 1).
//!
//! Because the paper's update phase is embarrassingly parallel across ranks
//! (§2: "no interprocess communication is required in the update phase"),
//! simulating a single representative rank reproduces per-iteration timing;
//! collective costs for forward/backward are layered on by `dos-sim`.

use crate::engine::{ResourceId, ResourceKind, Simulator, StreamId};
use crate::memory::MemoryPool;
use crate::profile::HardwareProfile;

/// The per-rank resource and stream handles for one simulated rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankResources {
    /// GPU execution units (work unit: seconds of GPU time).
    pub gpu: ResourceId,
    /// This rank's CPU-core share (work unit: seconds of CPU time).
    pub cpu: ResourceId,
    /// Host-to-device direction of the rank's PCIe link (bytes).
    pub h2d: ResourceId,
    /// Device-to-host direction of the rank's PCIe link (bytes).
    pub d2h: ResourceId,
    /// NVLink port for collectives (bytes).
    pub nvlink: ResourceId,
    /// Host DRAM bandwidth share (bytes) — models allocation and host-side
    /// conversion contention.
    pub host_mem: ResourceId,
    /// NVMe bandwidth (bytes) for checkpoint writes.
    pub nvme: ResourceId,
}

/// The standard stream set used by the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankStreams {
    /// Default GPU compute stream (forward/backward kernels, GPU updates).
    pub compute: StreamId,
    /// CPU work queue (CPU updates, downscaling).
    pub cpu: StreamId,
    /// General H2D copy stream.
    pub h2d: StreamId,
    /// General D2H copy stream.
    pub d2h: StreamId,
    /// Dedicated parameter-transfer stream (Algorithm 1, lines 14/17/21).
    pub param: StreamId,
    /// Dedicated momentum-transfer stream (lines 15/19).
    pub momentum: StreamId,
    /// Dedicated variance-transfer stream (lines 16/20).
    pub variance: StreamId,
}

/// One simulated data-parallel rank: engine + resources + memory pools.
#[derive(Debug, Clone)]
pub struct RankSim {
    /// The underlying scheduling engine.
    pub sim: Simulator,
    /// Resource handles.
    pub res: RankResources,
    /// Stream handles.
    pub streams: RankStreams,
    /// The GPU's HBM pool.
    pub hbm: MemoryPool,
    /// This rank's share of host DRAM.
    pub dram: MemoryPool,
    /// The hardware profile the rank was built from.
    pub profile: HardwareProfile,
}

impl RankSim {
    /// Builds a rank from a profile.
    ///
    /// CPU and GPU compute resources are registered with rate 1.0 (their
    /// work unit is *seconds of occupancy*); callers derive durations from
    /// the profile's throughputs so that contention scaling via
    /// [`Simulator::set_throughput_scale`] still applies.
    pub fn new(profile: &HardwareProfile) -> Self {
        let mut sim = Simulator::new();
        let res = RankResources {
            gpu: sim.add_resource("gpu", ResourceKind::GpuCompute, 1.0),
            cpu: sim.add_resource("cpu", ResourceKind::CpuCompute, 1.0),
            h2d: sim.add_resource("pcie.h2d", ResourceKind::LinkH2D, profile.pcie_h2d),
            d2h: sim.add_resource("pcie.d2h", ResourceKind::LinkD2H, profile.pcie_d2h),
            nvlink: sim.add_resource("nvlink", ResourceKind::LinkD2D, profile.nvlink_bw),
            host_mem: sim.add_resource(
                "host.dram",
                ResourceKind::HostMemory,
                profile.host_memcpy_bw,
            ),
            nvme: sim.add_resource("nvme", ResourceKind::Nvme, profile.nvme_write_bw),
        };
        let streams = RankStreams {
            compute: sim.add_stream("compute"),
            cpu: sim.add_stream("cpu"),
            h2d: sim.add_stream("h2d"),
            d2h: sim.add_stream("d2h"),
            param: sim.add_stream("param"),
            momentum: sim.add_stream("momentum"),
            variance: sim.add_stream("variance"),
        };
        RankSim {
            sim,
            res,
            streams,
            hbm: MemoryPool::new("gpu.hbm", profile.gpu_hbm_bytes),
            dram: MemoryPool::new("host.dram", profile.dram_per_rank()),
            profile: profile.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OpSpec;
    use crate::profile::GB;

    #[test]
    fn rank_has_full_duplex_pcie() {
        let profile = HardwareProfile::jlse_h100();
        let mut rank = RankSim::new(&profile);
        let a = rank
            .sim
            .submit(OpSpec::transfer(rank.res.h2d, 55.0 * GB).on(rank.streams.h2d))
            .unwrap();
        let b = rank
            .sim
            .submit(OpSpec::transfer(rank.res.d2h, 55.0 * GB).on(rank.streams.d2h))
            .unwrap();
        assert!((rank.sim.finish_time(a).as_secs() - 1.0).abs() < 1e-9);
        assert!((rank.sim.finish_time(b).as_secs() - 1.0).abs() < 1e-9);
        assert!((rank.sim.makespan().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pools_match_profile_capacities() {
        let profile = HardwareProfile::jlse_h100();
        let rank = RankSim::new(&profile);
        assert_eq!(rank.hbm.capacity(), profile.gpu_hbm_bytes);
        assert_eq!(rank.dram.capacity(), profile.dram_per_rank());
    }

    #[test]
    fn dedicated_transfer_streams_are_distinct() {
        let profile = HardwareProfile::v100_node();
        let rank = RankSim::new(&profile);
        let s = [
            rank.streams.compute,
            rank.streams.cpu,
            rank.streams.h2d,
            rank.streams.d2h,
            rank.streams.param,
            rank.streams.momentum,
            rank.streams.variance,
        ];
        let mut unique = s.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), s.len());
    }

    #[test]
    fn resource_names_are_queryable() {
        let rank = RankSim::new(&HardwareProfile::jlse_h100());
        assert_eq!(rank.sim.resource_name(rank.res.gpu), "gpu");
        assert_eq!(rank.sim.resource_name(rank.res.h2d), "pcie.h2d");
        assert_eq!(
            rank.sim.resource_kind(rank.res.d2h),
            crate::engine::ResourceKind::LinkD2H
        );
    }
}
