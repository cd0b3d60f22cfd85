//! The Equation 1 packing oracle the serving throughput is judged by.
//!
//! Each job's virtual cost is its per-iteration update time under the
//! §4.2 performance model at the stride its configuration resolves to
//! (fixed `k`, the Equation 1 optimum for `auto`/`adaptive`, or CPU-only).
//! The oracle then lower-bounds the makespan of any non-preemptive
//! placement of those costs onto `num_gpus` identical slots:
//!
//! ```text
//! T* = max( Σᵢ cᵢ / num_gpus,  maxᵢ cᵢ )
//! ```
//!
//! — total work spread perfectly, but no job split across slots. The
//! coordinator's achieved makespan divides this bound to give the
//! `oracle_ratio` the CLI gates on (≥ 0.85): scheduling overheads,
//! checkpoint traffic, and link contention may cost at most 15%.

use dos_core::PerfModel;
use dos_hal::HardwareProfile;
use dos_train::TrainerConfig;

/// A job's virtual cost under the Equation 1 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCost {
    /// Stride the cost was predicted at (`None` = CPU-only).
    pub stride: Option<usize>,
    /// Predicted seconds per optimizer step, uncontended.
    pub secs_per_iter: f64,
    /// `secs_per_iter × iterations`.
    pub total_secs: f64,
    /// Parameters updated per step.
    pub params: usize,
    /// Steps the job runs.
    pub iterations: usize,
}

/// Prices one job on `profile`, at the stride its configuration resolves
/// to: fixed strides verbatim, `auto`/`adaptive` at the Equation 1 optimum
/// on `profile`, `cpu_only` (and disabled deep-optimizer-states) CPU-only.
pub fn job_cost(profile: &HardwareProfile, trainer: &TrainerConfig, iterations: usize) -> JobCost {
    let pm = PerfModel::new(profile.perf_model_inputs());
    let stride = trainer.pipeline().stride.resolve(|| pm.optimal_stride());
    let secs_per_iter =
        pm.predicted_update_secs(trainer.params as f64, trainer.subgroup_size as f64, stride);
    JobCost {
        stride,
        secs_per_iter,
        total_secs: secs_per_iter * iterations as f64,
        params: trainer.params,
        iterations,
    }
}

/// The oracle's verdict over a whole job set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleReport {
    /// The packing lower bound on makespan, seconds.
    pub makespan_secs: f64,
    /// Parameter updates per second at the bound.
    pub aggregate_pps: f64,
    /// Total parameter updates across all jobs.
    pub total_updates: f64,
}

/// Lower-bounds the makespan of `costs` on `profile`'s GPUs.
pub fn packing_oracle(profile: &HardwareProfile, costs: &[JobCost]) -> OracleReport {
    let slots = profile.num_gpus.max(1) as f64;
    let total: f64 = costs.iter().map(|c| c.total_secs).sum();
    let longest = costs.iter().map(|c| c.total_secs).fold(0.0, f64::max);
    let makespan_secs = (total / slots).max(longest);
    let total_updates: f64 = costs.iter().map(|c| c.params as f64 * c.iterations as f64).sum();
    let aggregate_pps = if makespan_secs > 0.0 { total_updates / makespan_secs } else { 0.0 };
    OracleReport { makespan_secs, aggregate_pps, total_updates }
}

/// Lower-bounds the makespan when job `i` only becomes available at
/// `arrivals[i]` (an open-loop schedule). For every arrival instant `t`,
/// the work released at or after `t` must still fit on the slots
/// (`T* ≥ t + Σ_{rᵢ ≥ t} cᵢ / m`), and no job can finish before its own
/// release plus cost (`T* ≥ rᵢ + cᵢ`). The bound is the max over both
/// families.
///
/// # Panics
///
/// Panics if `costs` and `arrivals` differ in length.
pub fn packing_oracle_with_arrivals(
    profile: &HardwareProfile,
    costs: &[JobCost],
    arrivals: &[f64],
) -> OracleReport {
    assert_eq!(costs.len(), arrivals.len(), "one arrival per job cost");
    let slots = profile.num_gpus.max(1) as f64;
    let mut bound = costs
        .iter()
        .zip(arrivals)
        .map(|(c, r)| r + c.total_secs)
        .fold(0.0, f64::max);
    // Suffix sums over jobs sorted by release time.
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        arrivals[a].partial_cmp(&arrivals[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut suffix = 0.0;
    for &i in order.iter().rev() {
        suffix += costs[i].total_secs;
        bound = bound.max(arrivals[i] + suffix / slots);
    }
    let total_updates: f64 = costs.iter().map(|c| c.params as f64 * c.iterations as f64).sum();
    let aggregate_pps = if bound > 0.0 { total_updates / bound } else { 0.0 };
    OracleReport { makespan_secs: bound, aggregate_pps, total_updates }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trainer(params: usize, stride: &str) -> TrainerConfig {
        TrainerConfig::from_json(&format!(
            r#"{{ "params": {params}, "subgroup_size": 16,
                  "deep_optimizer_states": {{ "update_stride": {stride} }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn stride_resolution_matches_the_policy() {
        let p = HardwareProfile::jlse_h100();
        let stride = |entry: &str| job_cost(&p, &trainer(64, entry), 1).stride;
        assert_eq!(stride("3"), Some(3));
        assert_eq!(stride("\"cpu_only\""), None);
        let eq1 = PerfModel::new(p.perf_model_inputs()).optimal_stride();
        assert_eq!(stride("\"auto\""), eq1);
        assert_eq!(stride("\"adaptive\""), eq1);
    }

    #[test]
    fn cost_scales_linearly_in_iterations_and_params() {
        let p = HardwareProfile::jlse_h100();
        let c1 = job_cost(&p, &trainer(1 << 20, "2"), 4);
        let c2 = job_cost(&p, &trainer(1 << 20, "2"), 8);
        assert!((c2.total_secs - 2.0 * c1.total_secs).abs() < 1e-12);
        let big = job_cost(&p, &trainer(1 << 21, "2"), 4);
        assert!((big.secs_per_iter - 2.0 * c1.secs_per_iter).abs() / c1.secs_per_iter < 1e-9);
    }

    #[test]
    fn oracle_is_the_max_of_spread_and_longest() {
        let p = HardwareProfile::jlse_h100(); // 4 GPUs
        let short = job_cost(&p, &trainer(1 << 20, "2"), 1);
        // 8 equal short jobs: bound is total/4.
        let costs = vec![short; 8];
        let r = packing_oracle(&p, &costs);
        assert!((r.makespan_secs - 8.0 * short.total_secs / 4.0).abs() < 1e-12);
        // One dominant job: bound is that job.
        let long = job_cost(&p, &trainer(1 << 20, "2"), 100);
        let costs = vec![short, short, long];
        let r = packing_oracle(&p, &costs);
        assert!((r.makespan_secs - long.total_secs).abs() < 1e-12);
        assert!(r.aggregate_pps > 0.0);
        assert!(r.total_updates > 0.0);
    }

    #[test]
    fn arrival_aware_bound_dominates_the_static_one() {
        let p = HardwareProfile::jlse_h100();
        let c = job_cost(&p, &trainer(1 << 20, "2"), 4);
        let costs = vec![c; 6];
        // All released at zero: identical to the static bound.
        let zero = vec![0.0; 6];
        let a = packing_oracle_with_arrivals(&p, &costs, &zero);
        let s = packing_oracle(&p, &costs);
        assert!((a.makespan_secs - s.makespan_secs).abs() < 1e-12);
        // A late release pushes the bound to at least its release + cost.
        let late = 100.0 * c.total_secs;
        let mut arrivals = zero;
        arrivals[5] = late;
        let a = packing_oracle_with_arrivals(&p, &costs, &arrivals);
        assert!(a.makespan_secs >= late + c.total_secs - 1e-12);
    }

    #[test]
    fn empty_job_set_is_degenerate_but_finite() {
        let p = HardwareProfile::jlse_h100();
        let r = packing_oracle(&p, &[]);
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.aggregate_pps, 0.0);
    }
}
