//! Seeded open-loop workload expansion: turning a handful of prototype
//! jobs into a schedule of hundreds.
//!
//! `dos-cli serve --jobs N`, `dos-bench serve_bench`, and the CI smoke
//! test all need the same pinned schedule: N jobs cycled over the
//! submission file's prototypes, arriving open-loop at a rate the cluster
//! can *almost* keep up with. The default rate (1/0.9 of the Equation 1
//! service rate) plus paired-burst arrivals keeps a backlog alive — so
//! the run exercises preemption — while staying close enough to capacity
//! that the fair scheduler keeps every tenant's service gap and the p99
//! admission-to-start latency bounded.

use dos_hal::HardwareProfile;

use crate::oracle::job_cost;
use crate::spec::JobSpec;

/// Arrival spacing as a fraction of the mean per-job service time per
/// slot: below 1.0 means jobs arrive slightly faster than they drain.
const DEFAULT_LOAD_SPACING: f64 = 0.9;

/// Consecutive arrivals that share one instant (burst size). Bursts leave
/// at least one job backlogged per burst, exercising preemption even when
/// the long-run rate is sustainable.
const BURST: usize = 2;

/// Options for [`open_loop_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOptions {
    /// Total jobs to generate (prototypes are cycled).
    pub jobs: usize,
    /// Seed for per-job data streams and arrival jitter.
    pub seed: u64,
    /// Arrival rate, jobs/second of virtual time; derived from the
    /// Equation 1 cost of the prototypes when `None`.
    pub rate_jobs_per_sec: Option<f64>,
}

impl Default for OpenLoopOptions {
    fn default() -> OpenLoopOptions {
        OpenLoopOptions { jobs: 200, seed: 0, rate_jobs_per_sec: None }
    }
}

/// SplitMix64: the repo-wide cheap seed mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands `prototypes` into a seeded open-loop schedule of
/// `opts.jobs` jobs against `profile`.
///
/// Job `i` clones prototype `i % len`, renamed `{name}-{i}` (so
/// tenant/name pairs stay unique), reseeded from `opts.seed`, and
/// assigned a paired-burst arrival with a small deterministic jitter.
/// The whole schedule is a pure function of `(prototypes, profile,
/// opts)` — the property the bench baseline and the CI smoke pin.
///
/// # Errors
///
/// Returns a description when there are no prototypes, a prototype is
/// invalid, or the requested rate is not positive.
pub fn open_loop_schedule(
    profile: &HardwareProfile,
    prototypes: &[JobSpec],
    opts: &OpenLoopOptions,
) -> Result<Vec<JobSpec>, String> {
    if prototypes.is_empty() {
        return Err("open-loop expansion needs at least one prototype job".to_string());
    }
    if opts.jobs == 0 {
        return Err("open-loop expansion needs a positive job count".to_string());
    }
    for proto in prototypes {
        proto.validate()?;
    }
    let mean_cost = prototypes
        .iter()
        .map(|p| job_cost(profile, &p.trainer, p.iterations).total_secs)
        .sum::<f64>()
        / prototypes.len() as f64;
    let spacing = match opts.rate_jobs_per_sec {
        Some(rate) if rate > 0.0 && rate.is_finite() => 1.0 / rate,
        Some(rate) => return Err(format!("open-loop rate {rate} must be a positive number")),
        None => DEFAULT_LOAD_SPACING * mean_cost / profile.num_gpus as f64,
    };
    let mut jobs = Vec::with_capacity(opts.jobs);
    for i in 0..opts.jobs {
        let proto = &prototypes[i % prototypes.len()];
        let mut job = proto.clone();
        job.name = format!("{}-{i}", proto.name);
        job.seed = mix64(opts.seed ^ (i as u64).wrapping_mul(0x6a09_e667_f3bc_c909));
        // Paired bursts at double spacing (same long-run rate), plus up to
        // 10% forward jitter so distinct seeds give distinct schedules.
        let jitter = (job.seed % 1024) as f64 / 1024.0 * 0.1 * spacing;
        job.arrival_secs = (i - i % BURST) as f64 * spacing + jitter;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto(tenant: &str, priority: u8) -> JobSpec {
        serde_json::from_str(&format!(
            r#"{{
                "tenant": "{tenant}", "name": "job", "iterations": 700,
                "priority": {priority},
                "trainer": {{ "params": 96, "subgroup_size": 16,
                              "deep_optimizer_states": {{ "update_stride": 2 }} }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn expansion_is_a_pure_function_of_the_seed() {
        let profile = HardwareProfile::jlse_h100();
        let protos = [proto("acme", 6), proto("beta", 2), proto("zeta", 4)];
        let opts = OpenLoopOptions { jobs: 50, seed: 7, rate_jobs_per_sec: None };
        let a = open_loop_schedule(&profile, &protos, &opts).unwrap();
        let b = open_loop_schedule(&profile, &protos, &opts).unwrap();
        assert_eq!(a, b);
        let c = open_loop_schedule(
            &profile,
            &protos,
            &OpenLoopOptions { seed: 8, ..opts },
        )
        .unwrap();
        assert_ne!(a, c, "seed must perturb the schedule");
        // Unique tenant/name pairs, cycled tenants, sorted-compatible arrivals.
        assert_eq!(a.len(), 50);
        let mut names: Vec<(&str, &str)> =
            a.iter().map(|j| (j.tenant.as_str(), j.name.as_str())).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 50);
        assert!(a.iter().all(|j| j.arrival_secs.is_finite() && j.arrival_secs >= 0.0));
    }

    #[test]
    fn explicit_rate_overrides_the_derived_spacing() {
        let profile = HardwareProfile::jlse_h100();
        let protos = [proto("acme", 4)];
        let fast = open_loop_schedule(
            &profile,
            &protos,
            &OpenLoopOptions { jobs: 10, seed: 0, rate_jobs_per_sec: Some(100.0) },
        )
        .unwrap();
        assert!(fast.last().unwrap().arrival_secs < 0.1 * 10.0);
        assert!(open_loop_schedule(
            &profile,
            &protos,
            &OpenLoopOptions { jobs: 10, seed: 0, rate_jobs_per_sec: Some(-1.0) },
        )
        .is_err());
        assert!(open_loop_schedule(&profile, &[], &OpenLoopOptions::default()).is_err());
    }
}
