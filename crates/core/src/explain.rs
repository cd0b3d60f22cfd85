//! Human-readable explanation of the schedule Equation 1 picks.
//!
//! The middleware's decisions are derived, not configured; this module
//! makes them inspectable: which stride was solved, how the subgroups are
//! split across devices, and what the performance model predicts the
//! choice buys over CPU-only updates. Backs the CLI's `--explain` flag.

use std::fmt;

use dos_hal::PerfModelInputs;
use dos_sim::TrainConfig;
use dos_zero::ZeroPartition;

use crate::perf_model::PerfModel;
use crate::schedulers::UpdatePlan;

/// The resolved update schedule for one configuration, with the model's
/// reasoning.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleExplanation {
    /// Machine name.
    pub machine: String,
    /// Model name.
    pub model: String,
    /// Equation 1 inputs (params/s).
    pub inputs: PerfModelInputs,
    /// The real-valued Equation 1 solution, if the denominator is positive.
    pub raw_stride: Option<f64>,
    /// The integer stride (every k-th subgroup on the GPU).
    pub stride: Option<usize>,
    /// Subgroups in this rank's shard.
    pub subgroups: usize,
    /// Static GPU residents (from the TwinFlow-style ratio).
    pub static_residents: usize,
    /// Dynamic subgroups scheduled on the GPU.
    pub gpu_subgroups: usize,
    /// Subgroups updated on the CPU.
    pub cpu_subgroups: usize,
    /// Predicted update seconds if everything stayed on the CPU.
    pub predicted_cpu_only_secs: f64,
    /// Predicted update seconds under the chosen stride.
    pub predicted_chosen_secs: f64,
}

impl ScheduleExplanation {
    /// Predicted speedup of the chosen schedule over CPU-only updates.
    pub fn predicted_speedup(&self) -> f64 {
        if self.predicted_chosen_secs > 0.0 {
            self.predicted_cpu_only_secs / self.predicted_chosen_secs
        } else {
            1.0
        }
    }
}

impl fmt::Display for ScheduleExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule for {} on {}:", self.model, self.machine)?;
        writeln!(
            f,
            "  Eq. 1 inputs: B={:.2} B P/s, Ug={:.1}, Uc={:.2}, Dc={:.2}",
            self.inputs.b / 1e9,
            self.inputs.ug / 1e9,
            self.inputs.uc / 1e9,
            self.inputs.dc / 1e9,
        )?;
        match (self.raw_stride, self.stride) {
            (Some(raw), Some(k)) => writeln!(
                f,
                "  raw k = {raw:.2} -> stride {k}: every {k}th subgroup updates on the GPU"
            )?,
            _ => writeln!(f, "  CPU side outpaces staging: all updates stay on the CPU")?,
        }
        writeln!(
            f,
            "  subgroups: {} total = {} GPU-dynamic + {} CPU + {} static residents",
            self.subgroups, self.gpu_subgroups, self.cpu_subgroups, self.static_residents,
        )?;
        write!(
            f,
            "  predicted update: {:.2}s vs {:.2}s CPU-only ({:.2}x)",
            self.predicted_chosen_secs,
            self.predicted_cpu_only_secs,
            self.predicted_speedup(),
        )
    }
}

/// Explains the schedule Deep Optimizer States would run for `cfg`.
pub fn explain_schedule(cfg: &TrainConfig) -> ScheduleExplanation {
    let inputs = cfg.profile.perf_model_inputs();
    let model = PerfModel::new(inputs);
    let raw_stride = model.raw_stride();
    let stride = model.optimal_stride();

    let part = ZeroPartition::new(cfg.stage, cfg.world, 0);
    let subgroups =
        part.subgroups(cfg.spec.param_count() as usize, cfg.offload.subgroup_params).len();
    let plan = UpdatePlan::with_resident_ratio(subgroups, cfg.offload.gpu_resident_ratio, stride);

    let params = cfg.params_per_rank() as f64 * (plan.n_dynamic() as f64 / subgroups.max(1) as f64);
    let sg = cfg.offload.subgroup_params as f64;
    ScheduleExplanation {
        machine: cfg.profile.name.clone(),
        model: cfg.spec.name.clone(),
        inputs,
        raw_stride,
        stride,
        subgroups,
        static_residents: plan.n_static(),
        gpu_subgroups: plan.n_interleaved(),
        cpu_subgroups: plan.n_cpu(),
        predicted_cpu_only_secs: model.predicted_update_secs(params, sg, None),
        predicted_chosen_secs: model.predicted_update_secs(params, sg, stride),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    fn cfg() -> TrainConfig {
        TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        )
    }

    #[test]
    fn explanation_is_consistent() {
        let e = explain_schedule(&cfg());
        assert_eq!(e.stride, Some(2));
        assert_eq!(e.subgroups, 56);
        assert_eq!(e.static_residents, 0);
        assert_eq!(e.gpu_subgroups + e.cpu_subgroups, 56);
        assert_eq!(e.gpu_subgroups, 28);
        assert!(e.predicted_speedup() > 1.3, "{}", e.predicted_speedup());
    }

    #[test]
    fn residents_reduce_dynamic_subgroups() {
        let mut c = cfg();
        c.offload.gpu_resident_ratio = 0.25;
        let e = explain_schedule(&c);
        assert_eq!(e.static_residents, 14);
        assert_eq!(e.gpu_subgroups + e.cpu_subgroups + e.static_residents, 56);
    }

    #[test]
    fn display_reads_like_an_explanation() {
        let text = explain_schedule(&cfg()).to_string();
        assert!(text.contains("raw k = 1.80 -> stride 2"), "{text}");
        assert!(text.contains("every 2th subgroup"), "{text}");
        assert!(text.contains("predicted update"), "{text}");
    }

    #[test]
    fn grace_hopper_explains_all_gpu() {
        let c = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::grace_hopper(),
        );
        let e = explain_schedule(&c);
        assert_eq!(e.stride, Some(1));
        assert_eq!(e.cpu_subgroups, 0);
    }
}
