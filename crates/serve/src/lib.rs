//! # dos-serve — a multi-tenant training control plane
//!
//! Admits, schedules, and supervises many concurrent deep-optimizer-states
//! training jobs over one node's simulated hardware (a `dos-hal`
//! [`HardwareProfile`](dos_hal::HardwareProfile)):
//!
//! * [`JobSpec`] / [`ServeSpec`] — the JSON submission surface: each job
//!   wraps a `dos-train` trainer document with tenant identity, priority,
//!   deadline class, and resource demands.
//! * [`AdmissionController`] — prices demands against the GPU-slot, HBM,
//!   DRAM, and PCIe budgets: reject what can never fit, queue what cannot
//!   fit *now*, reserve slots for the rest.
//! * [`FairScheduler`] — weighted deficit round-robin with aging across
//!   tenants; work-conserving and starvation-free.
//! * [`Coordinator`] — the virtual-time event loop granting time-sliced
//!   leases, preempting via the PR 3 crash-consistent checkpoint format,
//!   negotiating per-tenant strides (each tenant drives one
//!   `dos_control::RetuneLoop`, clocked in grants), and exporting
//!   tenant-labelled metrics plus `serve:*` trace instants.
//! * [`packing_oracle`] / [`packing_oracle_with_arrivals`] — the
//!   Equation 1 lower bound the achieved makespan is judged by
//!   ([`ServeReport::oracle_ratio`], gated at [`ORACLE_RATIO_FLOOR`]);
//!   [`job_cost`] prices a job at the stride its document's
//!   `dos_core::StridePolicy` resolves to.
//!
//! All coordinator concurrency goes through the `dos_core::sync` facade,
//! so `dos-check` can explore admit/preempt/complete interleavings and
//! assert that no job is lost, no lease is double-granted, and every
//! job's final numerics are schedule-invariant ([`Coordinator::job_states`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod coordinator;
pub mod oracle;
pub mod scheduler;
pub mod spec;
pub mod workload;

pub use admission::{AdmissionController, AdmissionDecision, ClusterCapacity, Demand};
pub use coordinator::{
    grad_stream, init_stream, Coordinator, PreemptionProof, ServeError, ServeOptions, ServeReport,
    TenantReport, LINK_CONTENTION_PER_PEER, ORACLE_RATIO_FLOOR,
};
pub use oracle::{
    job_cost, packing_oracle, packing_oracle_with_arrivals, JobCost, OracleReport,
};
pub use scheduler::{FairScheduler, SchedulerConfig, TenantShare};
pub use spec::{DeadlineClass, JobSpec, ServeSpec, MAX_PRIORITY};
pub use workload::{open_loop_schedule, OpenLoopOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;

    fn job(tenant: &str, name: &str, iterations: usize, seed: u64) -> JobSpec {
        serde_json::from_str(&format!(
            r#"{{
                "tenant": "{tenant}", "name": "{name}", "iterations": {iterations},
                "seed": {seed},
                "trainer": {{ "params": 96, "subgroup_size": 16,
                              "deep_optimizer_states": {{ "update_stride": 2 }} }}
            }}"#
        ))
        .unwrap()
    }

    /// A 1-GPU profile so any two jobs contend and preemption must occur.
    fn tiny_profile() -> HardwareProfile {
        HardwareProfile::jlse_h100().with_num_gpus(1)
    }

    #[test]
    fn two_tenants_on_one_gpu_complete_with_preemptions() {
        let mut coord = Coordinator::new(tiny_profile(), ServeOptions {
            slice_iters: Some(2),
            retain_final_states: true,
            ..ServeOptions::default()
        });
        let report = coord
            .run(vec![job("acme", "a", 6, 1), job("zeta", "z", 6, 2)])
            .unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.rejected + report.failed, 0);
        assert!(report.preemptions >= 1, "1 GPU + 2 jobs must preempt: {report:?}");
        assert_eq!(report.lease_violations, 0);
        let proof = report.proof.expect("a preempted job completed");
        assert!(proof.bitwise_identical, "{proof:?}");
        // Tenant-labelled metrics exist for both tenants.
        let metrics = coord.tracer().metrics();
        assert!(metrics.counter("serve.tenant.completed|tenant=acme") >= 1);
        assert!(metrics.counter("serve.tenant.completed|tenant=zeta") >= 1);
        // Preemption instants made it into the trace.
        let trace = dos_telemetry::chrome_trace(coord.tracer());
        assert!(
            trace.traceEvents.iter().any(|e| e.name.starts_with("serve:preempt:")),
            "no serve:preempt instant in trace"
        );
    }

    #[test]
    fn preempted_numerics_match_a_dedicated_run_bitwise() {
        // Serve the same spec twice: once contended (preempted), once
        // alone on an idle coordinator. Final states must match bitwise.
        let spec = job("acme", "a", 5, 42);
        let mut contended = Coordinator::new(tiny_profile(), ServeOptions {
            slice_iters: Some(2),
            retain_final_states: true,
            ..ServeOptions::default()
        });
        let report = contended
            .run(vec![spec.clone(), job("zeta", "z", 5, 7)])
            .unwrap();
        assert!(report.preemptions >= 1);
        let mut alone = Coordinator::new(tiny_profile(), ServeOptions {
            slice_iters: Some(2),
            retain_final_states: true,
            ..ServeOptions::default()
        });
        alone.run(vec![spec]).unwrap();
        let contended_states = contended.job_states();
        let alone_states = alone.job_states();
        let (_, _, contended_a) =
            contended_states.iter().find(|(t, n, _)| t == "acme" && n == "a").unwrap();
        let (_, _, alone_a) =
            alone_states.iter().find(|(t, n, _)| t == "acme" && n == "a").unwrap();
        assert_eq!(contended_a.params, alone_a.params);
        assert_eq!(
            contended_a.optimizer.momentum(),
            alone_a.optimizer.momentum()
        );
        assert_eq!(
            contended_a.optimizer.variance(),
            alone_a.optimizer.variance()
        );
    }

    #[test]
    fn infeasible_jobs_are_rejected_and_the_rest_complete() {
        let mut coord = Coordinator::new(tiny_profile(), ServeOptions::default());
        let mut monster = job("acme", "monster", 2, 3);
        monster.hbm_bytes = Some(u64::MAX);
        let report = coord.run(vec![monster, job("acme", "ok", 2, 4)]).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
        report.healthy().unwrap();
    }

    #[test]
    fn checkpoint_dir_mode_preempts_through_the_store() {
        let dir = std::env::temp_dir().join(format!("dos-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut coord = Coordinator::new(tiny_profile(), ServeOptions {
            slice_iters: Some(2),
            checkpoint_dir: Some(dir.clone()),
            retain_final_states: true,
            ..ServeOptions::default()
        });
        let report = coord
            .run(vec![job("acme", "a", 6, 11), job("zeta", "z", 6, 12)])
            .unwrap();
        assert!(report.preemptions >= 1);
        assert_eq!(report.completed, 2);
        assert_eq!(report.lease_violations, 0);
        assert!(report.proof.unwrap().bitwise_identical);
        // On-disk checkpoints were actually written.
        assert!(std::fs::read_dir(&dir).map(|d| d.count() > 0).unwrap_or(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn channel_submission_serves_until_the_channel_closes() {
        use dos_core::sync;
        let (tx, rx) = sync::unbounded();
        let report = sync::scope(|s| {
            s.spawn(move || {
                tx.send(job("acme", "a", 3, 1)).unwrap();
                tx.send(job("zeta", "z", 3, 2)).unwrap();
            });
            let mut coord = Coordinator::new(tiny_profile(), ServeOptions {
                slice_iters: Some(1),
                retain_final_states: true,
                ..ServeOptions::default()
            });
            coord.run_channel(rx).unwrap()
        });
        assert_eq!(report.completed, 2);
        assert_eq!(report.lease_violations, 0);
    }

    #[test]
    fn open_loop_schedule_beats_the_oracle_floor() {
        // 12 long jobs across 3 tenants on the 4-GPU profile, arriving
        // open-loop slightly faster than the cluster drains them: throughput
        // must stay within 15% of the packing bound and no tenant may
        // starve. Auto lease sizing keeps preemption amortized, and jobs
        // span several leases, so preemptions must still occur.
        let profile = HardwareProfile::jlse_h100();
        let proto = job("acme", "proto", 700, 0);
        let per_job = job_cost(&profile, &proto.trainer, 700).total_secs;
        // Slightly above the cluster's service rate so a backlog builds.
        let spacing = 0.9 * per_job / profile.num_gpus as f64;
        let mut jobs = Vec::new();
        for i in 0..12usize {
            let tenant = ["acme", "beta", "zeta"][i % 3];
            let mut j = job(tenant, &format!("j{i}"), 700, i as u64);
            // Pairs at double spacing: same average rate, but each burst
            // leaves one job backlogged so preemption gets exercised.
            j.arrival_secs = (i - i % 2) as f64 * spacing;
            j.priority = 1 + (i % 9) as u8;
            jobs.push(j);
        }
        let mut coord = Coordinator::new(profile, ServeOptions::default());
        let report = coord.run(jobs).unwrap();
        assert_eq!(report.completed, 12, "{report:?}");
        report.healthy().unwrap();
        assert!(
            report.oracle_ratio >= ORACLE_RATIO_FLOOR,
            "ratio {} under floor: {report:?}",
            report.oracle_ratio
        );
        assert!(report.preemptions >= 1, "backlog must trigger preemption");
        assert!(report.starved_tenants.is_empty());
    }

    #[test]
    fn runs_are_reproducible() {
        let jobs = || vec![job("acme", "a", 4, 5), job("zeta", "z", 5, 6), job("beta", "b", 3, 7)];
        let opts = || ServeOptions { slice_iters: Some(2), ..ServeOptions::default() };
        let r1 = Coordinator::new(tiny_profile(), opts()).run(jobs()).unwrap();
        let r2 = Coordinator::new(tiny_profile(), opts()).run(jobs()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn streams_are_pure_functions() {
        assert_eq!(init_stream(9, 32), init_stream(9, 32));
        assert_ne!(init_stream(9, 32), init_stream(10, 32));
        assert_eq!(grad_stream(9, 3, 32), grad_stream(9, 3, 32));
        assert_ne!(grad_stream(9, 3, 32), grad_stream(9, 4, 32));
        assert!(init_stream(1, 64).iter().all(|v| v.abs() <= 0.1));
        assert!(grad_stream(1, 0, 64).iter().all(|v| v.abs() <= 0.05));
    }
}
