//! `serve_bench`: the pinned multi-tenant serving benchmark and its CI
//! regression gate (`dos-bench/serve-v1` schema, committed golden
//! `baselines/serve.json`).
//!
//! Every number here is *virtual-time*: the coordinator replays a pinned
//! 200-job open-loop schedule against the Equation 1 cost model, so the
//! report is a deterministic function of `(jobs, seed)` and the gate can
//! be tight — a regression means the scheduling policy got worse, not
//! that the machine was noisy.

use serde::{Deserialize, Serialize};

use dos::hal::HardwareProfile;
use dos::serve::{
    open_loop_schedule, Coordinator, JobSpec, OpenLoopOptions, ServeOptions, ORACLE_RATIO_FLOOR,
};

/// The committed golden report the CI gate compares against.
pub const GOLDEN: &str = include_str!("../baselines/serve.json");

/// Report schema tag; the gate refuses to compare across schemas.
pub const SCHEMA: &str = "dos-bench/serve-v1";

/// Allowed relative drop in aggregate virtual throughput vs baseline.
pub const PPS_TOLERANCE: f64 = 0.02;

/// Allowed absolute drop in the oracle ratio vs baseline.
pub const RATIO_TOLERANCE: f64 = 0.02;

/// The `dos-bench/serve-v1` report: headline serving numbers for the
/// pinned open-loop schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Jobs in the pinned schedule.
    pub jobs: usize,
    /// Schedule seed.
    pub seed: u64,
    /// Jobs completed (must equal `jobs`).
    pub completed: usize,
    /// Checkpoint-based preemptions.
    pub preemptions: usize,
    /// Cross-GPU migrations on resume.
    pub migrations: usize,
    /// Virtual makespan, seconds.
    pub makespan_secs: f64,
    /// Achieved parameter updates per virtual second.
    pub aggregate_pps: f64,
    /// The packing oracle's rate over the same schedule.
    pub oracle_pps: f64,
    /// `oracle_secs / makespan_secs`.
    pub oracle_ratio: f64,
    /// Mean admission-to-start wait, virtual seconds.
    pub mean_wait_secs: f64,
    /// 99th-percentile admission-to-start wait, virtual seconds.
    pub p99_wait_secs: f64,
    /// The bound the p99 gate compares against.
    pub wait_bound_secs: f64,
    /// Tenants the run starved (must be empty).
    pub starved_tenants: Vec<String>,
    /// Whether the preemption proof compared bitwise-identical.
    pub proof_bitwise: bool,
}

/// The benchmark's prototype jobs — kept in lockstep with
/// `examples/tenants.json` so the CLI quickstart and the committed
/// baseline describe the same workload.
pub fn prototypes() -> Vec<JobSpec> {
    let mk = |tenant: &str, name: &str, priority: u8, deadline: &str| -> JobSpec {
        serde_json::from_str(&format!(
            r#"{{
                "tenant": "{tenant}", "name": "{name}", "priority": {priority},
                "deadline": "{deadline}", "iterations": 700,
                "trainer": {{ "params": 96, "subgroup_size": 16,
                              "deep_optimizer_states": {{ "update_stride": 2 }} }}
            }}"#
        ))
        .unwrap_or_else(|e| panic!("prototype {tenant}/{name}: {e}"))
    };
    vec![
        mk("acme", "finetune", 6, "interactive"),
        mk("beta", "pretrain", 2, "batch"),
        mk("zeta", "ablation", 4, "standard"),
    ]
}

/// Runs the pinned schedule: `jobs` jobs cycled over [`prototypes`] on
/// the JLSE 4×H100 profile, open-loop at the derived near-capacity rate.
///
/// # Errors
///
/// Returns a description when expansion or the coordinator itself fails
/// (gate violations are reported, not errored — the gate decides).
pub fn run_serve_bench(jobs: usize, seed: u64) -> Result<ServeBenchReport, String> {
    let profile = HardwareProfile::jlse_h100();
    let schedule = open_loop_schedule(
        &profile,
        &prototypes(),
        &OpenLoopOptions { jobs, seed, rate_jobs_per_sec: None },
    )?;
    let mut coord = Coordinator::new(profile, ServeOptions::default());
    let report = coord.run(schedule).map_err(|e| e.to_string())?;
    Ok(ServeBenchReport {
        schema: SCHEMA.to_string(),
        jobs,
        seed,
        completed: report.completed,
        preemptions: report.preemptions,
        migrations: report.migrations,
        makespan_secs: report.makespan_secs,
        aggregate_pps: report.aggregate_pps,
        oracle_pps: report.oracle_pps,
        oracle_ratio: report.oracle_ratio,
        mean_wait_secs: report.mean_wait_secs,
        p99_wait_secs: report.p99_wait_secs,
        wait_bound_secs: report.wait_bound_secs,
        starved_tenants: report.starved_tenants,
        proof_bitwise: report.proof.as_ref().is_some_and(|p| p.bitwise_identical),
    })
}

/// The `serve_bench` registry entry: the pinned 200-job, seed-0 schedule
/// gated against `golden`.
///
/// # Errors
///
/// As [`run_serve_bench`], or when `golden` does not parse.
pub fn serve_bench(golden: &str) -> Result<crate::Gated, String> {
    crate::gate(&run_serve_bench(200, 0)?, golden, render, regression_gate)
}

/// The CI gate: absolute serving invariants plus regression limits
/// against the committed baseline.
///
/// # Errors
///
/// Returns a rendered explanation of the first violated limit.
pub fn regression_gate(
    new: &ServeBenchReport,
    baseline: &ServeBenchReport,
) -> Result<(), String> {
    if new.schema != baseline.schema {
        return Err(format!("schema mismatch: {} vs baseline {}", new.schema, baseline.schema));
    }
    if new.completed != new.jobs {
        return Err(format!("{} of {} jobs completed", new.completed, new.jobs));
    }
    if !new.starved_tenants.is_empty() {
        return Err(format!("starved tenants: {}", new.starved_tenants.join(", ")));
    }
    if new.p99_wait_secs > new.wait_bound_secs {
        return Err(format!(
            "p99 admission-to-start {:.3e}s exceeds bound {:.3e}s",
            new.p99_wait_secs, new.wait_bound_secs
        ));
    }
    if new.preemptions == 0 {
        return Err("the pinned schedule no longer exercises preemption".to_string());
    }
    if !new.proof_bitwise {
        return Err("preemption proof no longer bitwise-identical".to_string());
    }
    if new.oracle_ratio < ORACLE_RATIO_FLOOR {
        return Err(format!(
            "oracle ratio {:.3} under the absolute floor {ORACLE_RATIO_FLOOR}",
            new.oracle_ratio
        ));
    }
    if new.oracle_ratio < baseline.oracle_ratio - RATIO_TOLERANCE {
        return Err(format!(
            "oracle ratio regressed: {:.4} vs baseline {:.4} (tolerance {RATIO_TOLERANCE})",
            new.oracle_ratio, baseline.oracle_ratio
        ));
    }
    if new.aggregate_pps < baseline.aggregate_pps * (1.0 - PPS_TOLERANCE) {
        return Err(format!(
            "aggregate throughput regressed: {:.4e} pps vs baseline {:.4e} (tolerance {:.0}%)",
            new.aggregate_pps,
            baseline.aggregate_pps,
            PPS_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// Human rendering of one report.
pub fn render(report: &ServeBenchReport) -> String {
    format!(
        "{} — {} job(s), seed {}\n\
           completed {} | preemptions {} | migrations {}\n\
           makespan {:.3e} virtual s | {:.3e} pps = {:.1}% of oracle ({:.3e} pps)\n\
           waits: mean {:.3e}s, p99 {:.3e}s (bound {:.3e}s) | proof bitwise: {}\n",
        report.schema,
        report.jobs,
        report.seed,
        report.completed,
        report.preemptions,
        report.migrations,
        report.makespan_secs,
        report.aggregate_pps,
        report.oracle_ratio * 100.0,
        report.oracle_pps,
        report.mean_wait_secs,
        report.p99_wait_secs,
        report.wait_bound_secs,
        report.proof_bitwise,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_schedule_is_deterministic_and_passes_its_own_gate() {
        // Small job count keeps the test fast; `serve_bench` pins 200.
        let a = run_serve_bench(40, 0).unwrap();
        let b = run_serve_bench(40, 0).unwrap();
        assert_eq!(a, b, "virtual-time bench must be deterministic");
        assert_eq!(a.schema, SCHEMA);
        regression_gate(&a, &a).unwrap();
        assert!(a.preemptions >= 1);
    }

    #[test]
    fn gate_catches_regressions_and_schema_drift() {
        let report = run_serve_bench(40, 0).unwrap();
        let mut inflated = report.clone();
        inflated.aggregate_pps = report.aggregate_pps * 1.5;
        let err = regression_gate(&report, &inflated).unwrap_err();
        assert!(err.contains("throughput regressed"), "{err}");
        let mut wrong_schema = report.clone();
        wrong_schema.schema = "dos-bench/serve-v0".to_string();
        assert!(regression_gate(&report, &wrong_schema).is_err());
        let mut starved = report.clone();
        starved.starved_tenants = vec!["beta".to_string()];
        assert!(regression_gate(&starved, &report).is_err());
        let mut no_preempt = report;
        no_preempt.preemptions = 0;
        assert!(regression_gate(&no_preempt, &no_preempt).is_err());
        // The registry entry: in gate against the committed golden, out of
        // it once one field of the golden moves.
        assert_eq!(serve_bench(GOLDEN).unwrap().verdict, Ok(()));
        let perturbed = GOLDEN.replace("\"oracle_ratio\": 0.8", "\"oracle_ratio\": 0.9");
        assert_ne!(perturbed, GOLDEN);
        let err = serve_bench(&perturbed).unwrap().verdict.unwrap_err();
        assert!(err.contains("oracle ratio regressed"), "{err}");
    }

    #[test]
    fn prototypes_match_the_example_submission_file() {
        // Keep the embedded prototypes in lockstep with
        // examples/tenants.json so the CLI quickstart reproduces the
        // committed baseline.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/tenants.json");
        let text = std::fs::read_to_string(path).expect("examples/tenants.json");
        let spec = dos::serve::ServeSpec::from_json(&text).unwrap();
        assert_eq!(spec.jobs, prototypes());
        assert_eq!(spec.resolve_profile().unwrap().name, "jlse-4xH100");
    }
}
