//! Simulation results.

use serde::{Deserialize, Serialize};

use dos_telemetry::Timeline;

/// Busy fractions of the node's resources over a time window (the paper's
/// Figure 15 ablation view).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceUtilization {
    /// GPU execution units (compute kernels only).
    pub gpu: f64,
    /// GPU as NVML reports it: compute kernels *or* copy engines active
    /// (§5.4 notes NVML counts DMA transfers as GPU activity).
    pub gpu_nvml: f64,
    /// CPU cores.
    pub cpu: f64,
    /// PCIe host-to-device direction.
    pub pcie_h2d: f64,
    /// PCIe device-to-host direction.
    pub pcie_d2h: f64,
}

/// The outcome of one simulated training iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationReport {
    /// Update-scheduler name (e.g. `"zero3-offload"`).
    pub scheduler: String,
    /// Model name (Table 2 key).
    pub model: String,
    /// Forward-phase seconds.
    pub forward_secs: f64,
    /// Backward-phase seconds (including gradient flushes).
    pub backward_secs: f64,
    /// Update-phase seconds (until the next iteration may start).
    pub update_secs: f64,
    /// End-to-end iteration seconds (forward + backward + update).
    pub total_secs: f64,
    /// Extra seconds of trailing asynchronous transfers that spill past the
    /// update phase into the next iteration (Figure 5's dotted line).
    pub spill_secs: f64,
    /// Achieved model TFLOP/s per GPU (forward + backward model FLOPs,
    /// excluding recomputation, over the iteration time).
    pub tflops_per_gpu: f64,
    /// Update throughput in parameters/second *per rank* (this rank's shard
    /// over the update time). Multiply by the world size for the aggregate
    /// number plotted in Figure 8.
    pub update_pps_per_rank: f64,
    /// Peak GPU bytes observed.
    pub gpu_peak_bytes: u64,
    /// Out-of-memory diagnostic, if the configuration overflows HBM.
    pub oom: Option<String>,
    /// Out-of-memory diagnostic for the host DRAM tier (e.g., a 33B model's
    /// optimizer state on the paper's 512 GB testbed).
    pub host_oom: Option<String>,
    /// Resource busy fractions during the update phase.
    pub update_utilization: ResourceUtilization,
    /// The full span timeline (for Gantt/figure rendering).
    pub timeline: Timeline,
}

impl IterationReport {
    /// Aggregate update throughput across `world` ranks, parameters/second.
    pub fn update_pps_aggregate(&self, world: usize) -> f64 {
        self.update_pps_per_rank * world as f64
    }
}

/// The outcome of a multi-iteration simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Update-scheduler name.
    pub scheduler: String,
    /// Model name.
    pub model: String,
    /// Number of iterations simulated.
    pub iterations: usize,
    /// End-to-end seconds (including trailing spill).
    pub total_secs: f64,
    /// Mean seconds per iteration.
    pub avg_iteration_secs: f64,
    /// Per-iteration end times, seconds from run start.
    pub iteration_ends: Vec<f64>,
    /// Out-of-memory diagnostic, if any.
    pub oom: Option<String>,
}

impl TrainingReport {
    /// Per-iteration durations.
    pub fn iteration_durations(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.iteration_ends.len());
        let mut prev = 0.0;
        for &e in &self.iteration_ends {
            out.push(e - prev);
            prev = e;
        }
        out
    }

    /// Whether iteration times stay stable (no gradual I/O stall build-up) —
    /// the property Figure 9 verifies: the max iteration is within `tol` of
    /// the mean, ignoring the first `warmup` iterations.
    pub fn is_stable(&self, warmup: usize, tol: f64) -> bool {
        let durs = self.iteration_durations();
        if durs.len() <= warmup + 1 {
            return true;
        }
        let steady = &durs[warmup..];
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        steady.iter().all(|d| (d - mean).abs() <= tol * mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_durations_difference_ends() {
        let r = TrainingReport {
            scheduler: "x".into(),
            model: "7B".into(),
            iterations: 3,
            total_secs: 6.5,
            avg_iteration_secs: 2.0,
            iteration_ends: vec![2.0, 4.0, 6.0],
            oom: None,
        };
        assert_eq!(r.iteration_durations(), vec![2.0, 2.0, 2.0]);
        assert!(r.is_stable(1, 0.05));
    }

    #[test]
    fn instability_is_detected() {
        let r = TrainingReport {
            scheduler: "x".into(),
            model: "7B".into(),
            iterations: 4,
            total_secs: 14.0,
            avg_iteration_secs: 3.5,
            iteration_ends: vec![2.0, 4.0, 8.0, 14.0],
            oom: None,
        };
        assert!(!r.is_stable(1, 0.2));
    }

    #[test]
    fn aggregate_update_throughput() {
        let r = IterationReport {
            scheduler: "x".into(),
            model: "7B".into(),
            forward_secs: 1.0,
            backward_secs: 2.0,
            update_secs: 1.0,
            total_secs: 4.0,
            spill_secs: 0.0,
            tflops_per_gpu: 50.0,
            update_pps_per_rank: 2e9,
            gpu_peak_bytes: 0,
            oom: None,
            host_oom: None,
            update_utilization: ResourceUtilization::default(),
            timeline: Timeline::new(),
        };
        assert_eq!(r.update_pps_aggregate(4), 8e9);
    }
}
