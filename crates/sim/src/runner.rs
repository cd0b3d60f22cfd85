//! Iteration and training-run drivers.

use std::num::NonZeroUsize;

use dos_hal::{OpId, SimError};

use crate::config::TrainConfig;
use crate::report::{IterationReport, ResourceUtilization, TrainingReport};
use crate::scenario::IterationScenario;

/// An update-phase scheduling policy.
///
/// Implementations (in `dos-core`) compose the update primitives of
/// [`IterationScenario`] into a schedule: DeepSpeed ZeRO-3's all-CPU
/// updates, TwinFlow's static split, or Deep Optimizer States' interleaved
/// offloading. The returned op is the point at which the next iteration's
/// forward pass may begin (all updated FP16 parameters resident on the
/// GPU); trailing asynchronous flushes may spill past it.
pub trait UpdateScheduler {
    /// Scheduler name used in reports.
    fn name(&self) -> &str;

    /// Submits the update phase after `grads_ready`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError>;
}

/// Fraction of `[start, end)` covered by the union of the given resources'
/// busy intervals.
fn union_busy(tl: &dos_telemetry::Timeline, resources: &[&str], start: f64, end: f64) -> f64 {
    let mut ivals: Vec<(f64, f64)> = tl
        .spans()
        .iter()
        .filter(|s| resources.contains(&s.resource.as_str()))
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    ivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut covered = 0.0;
    let mut cursor = start;
    for (a, b) in ivals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (covered / (end - start)).min(1.0)
}

fn window_utilization(
    scn: &IterationScenario,
    start: f64,
    end: f64,
) -> ResourceUtilization {
    if end <= start {
        return ResourceUtilization::default();
    }
    let tl = scn.timeline();
    ResourceUtilization {
        gpu: union_busy(&tl, &["gpu"], start, end),
        // NVML reports the GPU busy while its copy engines move data (§5.4
        // notes this explicitly), so the Figure 15 view is the union of
        // compute and both PCIe directions.
        gpu_nvml: union_busy(&tl, &["gpu", "pcie.h2d", "pcie.d2h"], start, end),
        cpu: union_busy(&tl, &["cpu"], start, end),
        pcie_h2d: union_busy(&tl, &["pcie.h2d"], start, end),
        pcie_d2h: union_busy(&tl, &["pcie.d2h"], start, end),
    }
}

/// Submits one iteration — forward, backward, the extra micro-steps of
/// gradient accumulation, then the scheduler's update phase — after `prev`
/// (the previous iteration's boundary in a shared engine, `None` at t = 0).
/// Returns the ops at which forward, backward and update finish.
fn submit_iteration(
    scn: &mut IterationScenario,
    sched: &dyn UpdateScheduler,
    prev: Option<OpId>,
) -> Result<(OpId, OpId, OpId), SimError> {
    let fwd = scn.run_forward(prev)?;
    let mut bwd = scn.run_backward(fwd)?;
    for _ in 1..scn.cfg.grad_accumulation.max(1) {
        let f = scn.run_forward(Some(bwd))?;
        bwd = scn.run_backward(f)?;
    }
    let upd = sched.schedule_update(scn, bwd)?;
    Ok((fwd, bwd, upd))
}

/// What [`simulate_iteration_with`] does beyond the plain run; the default
/// is exactly [`simulate_iteration`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IterationOptions<'a> {
    /// The data-parallel rank to simulate. Shards differ by up to one
    /// subgroup, and §5.4's "slowest process in the group dictates the
    /// iteration time" is the maximum over `0..cfg.world`.
    pub rank: usize,
    /// Installed on the rank's engine before any op is submitted:
    /// transfers hit degradation windows and failure/retry rules, and
    /// exhausted retries surface as [`SimError::TransferFault`].
    pub faults: Option<&'a dos_hal::FaultPlan>,
    /// Replay the engine's full schedule into this tracer on the simulated
    /// clock — one track per engine stream, injected faults as `fault:`
    /// instants on the `faults` track — plus phase-boundary instants on
    /// [`dos_telemetry::PHASE_TRACK`] at the collective join points, so
    /// `analyze_tracer` segments interleaved phases correctly. Tracing
    /// only observes: the report is identical either way.
    pub tracer: Option<&'a dos_telemetry::Tracer>,
}

/// Simulates one training iteration of rank 0 under the given update
/// scheduler: [`simulate_iteration_with`] with default options.
///
/// # Errors
///
/// Propagates engine errors; out-of-memory is reported in the result's
/// `oom` field rather than as an error so sweeps (Figure 13) can chart it.
pub fn simulate_iteration(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
) -> Result<IterationReport, SimError> {
    simulate_iteration_with(cfg, sched, IterationOptions::default())
}

/// Simulates one training iteration on a fresh engine under the given
/// update scheduler and [`IterationOptions`].
///
/// # Errors
///
/// Propagates engine errors, including [`SimError::TransferFault`] when a
/// transfer exhausts its retry budget under a fault plan. The fault events
/// recorded up to the failure are lost with the scenario in that case;
/// campaigns that need them should widen the retry budget instead.
pub fn simulate_iteration_with(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    opts: IterationOptions<'_>,
) -> Result<IterationReport, SimError> {
    let mut scn = IterationScenario::new_for_rank(cfg.clone(), opts.rank);
    if let Some(plan) = opts.faults {
        scn.rank.sim.install_fault_plan(plan.clone());
    }
    let (fwd, bwd, upd) = submit_iteration(&mut scn, sched, None)?;
    let t_fwd = scn.rank.sim.finish_time(fwd).as_secs();
    let t_bwd = scn.rank.sim.finish_time(bwd).as_secs();
    let t_upd = scn.rank.sim.finish_time(upd).as_secs();
    if let Some(tracer) = opts.tracer {
        scn.record_into(tracer);
        tracer.phase_boundary("forward", 0.0, t_fwd);
        tracer.phase_boundary("backward", t_fwd, t_bwd);
        tracer.phase_boundary("update", t_bwd, t_upd);
    }
    let makespan = scn.rank.sim.makespan().as_secs();

    let model_flops = 3.0 * cfg.spec.forward_flops(cfg.micro_batch) * cfg.grad_accumulation as f64;
    let params_per_rank = cfg.params_per_rank() as f64;
    let update_secs = t_upd - t_bwd;

    Ok(IterationReport {
        scheduler: sched.name().to_string(),
        model: cfg.spec.name.clone(),
        forward_secs: t_fwd,
        backward_secs: t_bwd - t_fwd,
        update_secs,
        total_secs: t_upd,
        spill_secs: (makespan - t_upd).max(0.0),
        tflops_per_gpu: model_flops / t_upd / 1e12,
        update_pps_per_rank: if update_secs > 0.0 { params_per_rank / update_secs } else { 0.0 },
        gpu_peak_bytes: scn.rank.hbm.peak_usage(),
        oom: scn.rank.hbm.validate().err().map(|e| e.to_string()),
        host_oom: scn.rank.dram.validate().err().map(|e| e.to_string()),
        update_utilization: window_utilization(&scn, t_bwd, t_upd),
        timeline: scn.timeline(),
    })
}

/// Simulates `iterations` back-to-back iterations in one engine, so that
/// trailing asynchronous optimizer movement from iteration *i* competes with
/// iteration *i+1* (the effect Figure 9 checks for):
/// [`simulate_training_with`] without checkpoints, report only.
///
/// # Errors
///
/// Propagates engine errors.
pub fn simulate_training(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    iterations: usize,
) -> Result<TrainingReport, SimError> {
    simulate_training_with(cfg, sched, iterations, None).map(|(report, _)| report)
}

/// When and how to checkpoint during a simulated run.
///
/// Offloaded optimizer state accelerates checkpointing because the large
/// host-resident tensors can be flushed to persistent storage without
/// blocking the GPUs (§2, "Hybrid CPU-GPU Optimizer Offloading").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every`-th iteration.
    pub every: NonZeroUsize,
    /// Write asynchronously (overlapping subsequent iterations) instead of
    /// stalling training until the NVMe write completes.
    pub asynchronous: bool,
}

/// Simulates `iterations` back-to-back iterations in one shared engine,
/// optionally checkpointing model + optimizer state to NVMe per
/// `checkpoints`, and returns the report together with the engine's full
/// multi-iteration [`dos_telemetry::Timeline`]. The timeline is what lets
/// the analyzer check *cross-iteration* overlap — e.g. that a stall-free
/// scheduler's `update`-phase CPU spans run concurrently with the next
/// iteration's `forward`/`backward` GPU spans
/// ([`dos_telemetry::cross_phase_overlap_secs`]).
///
/// # Errors
///
/// Propagates engine errors.
pub fn simulate_training_with(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    iterations: usize,
    checkpoints: Option<CheckpointPolicy>,
) -> Result<(TrainingReport, dos_telemetry::Timeline), SimError> {
    let mut scn = IterationScenario::new(cfg.clone());
    // Checkpoints drain host memory to NVMe on their own stream; they never
    // touch the GPU or its PCIe link (the offloading advantage of §2).
    let checkpoints =
        checkpoints.map(|policy| (policy, scn.rank.sim.add_stream("checkpoint")));
    // Per-rank checkpoint payload: FP32 optimizer state + FP16 model shard.
    let per_rank = cfg.params_per_rank() as f64;
    let ckpt_bytes = 12.0 * per_rank + 2.0 * per_rank;
    let nvme_secs = ckpt_bytes / cfg.profile.nvme_write_bw;

    let mut prev: Option<OpId> = None;
    let mut ends = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let (_, _, upd) = submit_iteration(&mut scn, sched, prev)?;
        let mut boundary = upd;
        if let Some((policy, stream)) = checkpoints {
            if (i + 1) % policy.every.get() == 0 {
                let ckpt = scn.rank.sim.submit(
                    dos_hal::OpSpec::occupy(
                        scn.rank.res.nvme,
                        dos_hal::SimTime::from_secs(nvme_secs),
                        ckpt_bytes,
                    )
                    .on(stream)
                    .after(upd)
                    .label(format!("checkpoint:{i}"))
                    .phase("checkpoint"),
                )?;
                if !policy.asynchronous {
                    boundary = ckpt;
                }
            }
        }
        prev = Some(boundary);
        ends.push(scn.rank.sim.finish_time(boundary).as_secs());
    }
    let report = TrainingReport {
        scheduler: sched.name().to_string(),
        model: cfg.spec.name.clone(),
        iterations,
        total_secs: scn.rank.sim.makespan().as_secs(),
        avg_iteration_secs: ends.last().copied().unwrap_or(0.0) / iterations.max(1) as f64,
        iteration_ends: ends,
        oom: scn.rank.hbm.validate().err().map(|e| e.to_string()),
    };
    Ok((report, scn.timeline()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    /// A trivial scheduler: update every subgroup on the CPU sequentially,
    /// then H2D the downscaled parameters (used only to exercise the
    /// runner; the real schedulers live in `dos-core`).
    struct NaiveCpu;

    impl UpdateScheduler for NaiveCpu {
        fn name(&self) -> &str {
            "naive-cpu"
        }

        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    #[test]
    fn single_iteration_report_is_consistent() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        assert!(r.forward_secs > 0.0);
        assert!(r.backward_secs > 0.0);
        assert!(r.update_secs > 0.0);
        let sum = r.forward_secs + r.backward_secs + r.update_secs;
        assert!((sum - r.total_secs).abs() < 1e-9, "breakdown {sum} != total {}", r.total_secs);
        assert!(r.tflops_per_gpu > 1.0 && r.tflops_per_gpu < 1000.0);
        assert!(r.oom.is_none());
        assert!(r.update_utilization.cpu > 0.5, "{:?}", r.update_utilization);
    }

    #[test]
    fn traced_iteration_matches_untraced_and_validates() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let plain = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        // Default options are the short form, bit for bit.
        let with = simulate_iteration_with(&cfg, &NaiveCpu, IterationOptions::default()).unwrap();
        assert_eq!(with.total_secs, plain.total_secs);
        assert_eq!(with.update_secs, plain.update_secs);
        assert_eq!(with.timeline, plain.timeline);
        let tracer = dos_telemetry::Tracer::new();
        let opts = IterationOptions { tracer: Some(&tracer), ..Default::default() };
        let traced = simulate_iteration_with(&cfg, &NaiveCpu, opts).unwrap();
        // Tracing only observes: the report is unchanged.
        assert_eq!(traced.total_secs, plain.total_secs);
        assert_eq!(traced.update_secs, plain.update_secs);
        assert_eq!(traced.timeline, plain.timeline);
        // Every resource-backed interval became a tracer span; the tracer's
        // timeline view carries the same busy time per resource.
        assert!(!tracer.is_empty());
        let tl = tracer.to_timeline();
        for res in ["gpu", "cpu", "pcie.h2d"] {
            assert!(
                (tl.busy_time(res) - plain.timeline.busy_time(res)).abs() < 1e-9,
                "busy time diverged on {res}"
            );
        }
        // The analyzer's invariants hold on a real simulated schedule.
        let analysis = dos_telemetry::analyze(&plain.timeline);
        assert!(analysis.validate().is_empty(), "{:?}", analysis.validate());
        let phases: Vec<&str> = analysis.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["forward", "backward", "update"]);
    }

    #[test]
    fn update_time_matches_model_for_naive_cpu() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        // Sequential CPU: P/N * (1/Uc + 1/Dc + 1/(2B)).
        let p = cfg.params_per_rank() as f64;
        let prof = &cfg.profile;
        let expected = p
            * (1.0 / prof.cpu_update_pps()
                + 1.0 / prof.cpu_downscale_pps()
                + 1.0 / (2.0 * prof.update_b_pps));
        assert!(
            (r.update_secs - expected).abs() / expected < 0.02,
            "update {} vs model {expected}",
            r.update_secs
        );
    }

    #[test]
    fn multi_iteration_run_is_stable() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_training(&cfg, &NaiveCpu, 5).unwrap();
        // The short form is the options-taking run without checkpoints.
        let (with, timeline) = simulate_training_with(&cfg, &NaiveCpu, 5, None).unwrap();
        assert_eq!(with.iteration_ends, r.iteration_ends);
        assert_eq!(with.total_secs, r.total_secs);
        assert!((timeline.end_time() - r.total_secs).abs() < 1e-9);
        assert_eq!(r.iterations, 5);
        assert_eq!(r.iteration_ends.len(), 5);
        assert!(r.is_stable(1, 0.05), "durations {:?}", r.iteration_durations());
        assert!(r.total_secs >= *r.iteration_ends.last().unwrap());
    }

    #[test]
    fn larger_models_take_longer() {
        let profiles = HardwareProfile::jlse_h100();
        let small = simulate_iteration(
            &TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), profiles.clone()),
            &NaiveCpu,
        )
        .unwrap();
        let large = simulate_iteration(
            &TrainConfig::baseline(ModelSpec::by_name("20B").unwrap(), profiles),
            &NaiveCpu,
        )
        .unwrap();
        assert!(large.total_secs > 2.0 * small.total_secs);
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use dos_hal::{FaultPlan, HardwareProfile, SimTime};
    use dos_nn::ModelSpec;

    struct NaiveCpu;
    impl UpdateScheduler for NaiveCpu {
        fn name(&self) -> &str {
            "naive-cpu"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    fn cfg() -> TrainConfig {
        TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), HardwareProfile::jlse_h100())
    }

    fn run(
        faults: Option<&FaultPlan>,
        tracer: &dos_telemetry::Tracer,
    ) -> Result<IterationReport, SimError> {
        let opts = IterationOptions { faults, tracer: Some(tracer), ..Default::default() };
        simulate_iteration_with(&cfg(), &NaiveCpu, opts)
    }

    #[test]
    fn empty_fault_plan_matches_traced_run_exactly() {
        let tracer = dos_telemetry::Tracer::new();
        let traced = run(None, &tracer).unwrap();
        let t2 = dos_telemetry::Tracer::new();
        let faulted = run(Some(&FaultPlan::seeded(1)), &t2).unwrap();
        assert_eq!(faulted.total_secs, traced.total_secs);
        assert_eq!(faulted.timeline, traced.timeline);
        assert_eq!(t2.events().len(), tracer.events().len());
    }

    #[test]
    fn traced_run_emits_phase_boundaries_for_the_analyzer() {
        let tracer = dos_telemetry::Tracer::new();
        let r = run(None, &tracer).unwrap();
        let bounds = tracer.phase_boundaries();
        let names: Vec<&str> = bounds.iter().map(|b| b.phase.as_str()).collect();
        assert_eq!(names, ["forward", "backward", "update"]);
        assert_eq!(bounds[0].start, 0.0);
        assert!((bounds[2].end - r.total_secs).abs() < 1e-9);
        // Windows chain: each phase begins where the previous one ends.
        assert_eq!(bounds[0].end, bounds[1].start);
        assert_eq!(bounds[1].end, bounds[2].start);
        let a = dos_telemetry::analyze_tracer(&tracer);
        assert!(a.validate().is_empty(), "{:?}", a.validate());
        let phases: Vec<&str> = a.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["forward", "backward", "update"]);
    }

    #[test]
    fn degradation_window_during_update_stretches_the_phase() {
        let baseline = simulate_iteration(&cfg(), &NaiveCpu).unwrap();
        // Quarter-speed H2D over the whole update phase.
        let plan = FaultPlan::seeded(7).degrade(
            "pcie.h2d",
            SimTime::from_secs(baseline.backward_secs + baseline.forward_secs),
            SimTime::from_secs(baseline.total_secs * 10.0),
            0.25,
        );
        let tracer = dos_telemetry::Tracer::new();
        let degraded = run(Some(&plan), &tracer).unwrap();
        assert!(
            degraded.update_secs > baseline.update_secs * 1.5,
            "update {} should stretch past {} under 4x slower H2D",
            degraded.update_secs,
            baseline.update_secs
        );
        // Forward/backward (outside the window) are untouched.
        assert!((degraded.forward_secs - baseline.forward_secs).abs() < 1e-9);
    }

    #[test]
    fn transfer_failures_surface_as_fault_instants_in_the_trace() {
        let plan = FaultPlan::seeded(3).fail_nth("pcie.h2d", 0, 2);
        let tracer = dos_telemetry::Tracer::new();
        let clean = simulate_iteration(&cfg(), &NaiveCpu).unwrap();
        let faulted = run(Some(&plan), &tracer).unwrap();
        assert!(faulted.total_secs >= clean.total_secs, "retries cannot speed things up");
        let fault_instants: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| {
                e.kind == dos_telemetry::EventKind::Instant && e.name.starts_with("fault:")
            })
            .collect();
        assert_eq!(fault_instants.len(), 2, "two failed attempts recorded");
        assert!(fault_instants.iter().all(|e| e.track == "faults"));
        assert!(fault_instants.iter().all(|e| e.name.contains("pcie.h2d")));
    }
}

#[cfg(test)]
mod grad_accumulation_tests {
    use super::*;
    use crate::config::GradientPath;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;
    use dos_zero::ZeroStage;

    struct NoUpdate;
    impl UpdateScheduler for NoUpdate {
        fn name(&self) -> &str {
            "no-update"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let streams = scn.rank.streams;
            scn.rank.sim.join(streams.compute, [grads_ready])
        }
    }

    fn cfg(ga: usize) -> TrainConfig {
        let mut cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        cfg.grad_accumulation = ga;
        cfg.stage = ZeroStage::Three;
        cfg.gradient_path = GradientPath::Fp32OnGpu;
        cfg.overlap_backward = true;
        cfg
    }

    #[test]
    fn accumulation_multiplies_compute_phases() {
        let one = simulate_iteration(&cfg(1), &NoUpdate).unwrap();
        let four = simulate_iteration(&cfg(4), &NoUpdate).unwrap();
        let ratio = four.total_secs / one.total_secs;
        assert!(
            (3.5..4.6).contains(&ratio),
            "4 micro-steps should cost ~4x the compute: {ratio:.2}"
        );
        // TFLOPs stay comparable: 4x the FLOPs in ~4x the time.
        assert!((four.tflops_per_gpu / one.tflops_per_gpu - 1.0).abs() < 0.2);
    }

    #[test]
    fn accumulation_generates_h2d_traffic_in_backward() {
        let r = simulate_iteration(&cfg(2), &NoUpdate).unwrap();
        let accum_spans = r
            .timeline
            .spans()
            .iter()
            .filter(|s| s.label.starts_with("h2d-accum-grads"))
            .count();
        // Second micro-step fetches the running sum for every layer (§3's
        // observed H2D traffic during backward).
        assert_eq!(accum_spans, 32, "one fetch per layer in micro-step 2");
        let first_step = simulate_iteration(&cfg(1), &NoUpdate).unwrap();
        assert!(first_step
            .timeline
            .spans()
            .iter()
            .all(|s| !s.label.starts_with("h2d-accum-grads")));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    struct NaiveCpu2;
    impl UpdateScheduler for NaiveCpu2 {
        fn name(&self) -> &str {
            "naive-cpu"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    fn cfg() -> TrainConfig {
        TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), HardwareProfile::jlse_h100())
    }

    #[test]
    fn async_checkpointing_is_cheaper_than_blocking() {
        // Interval chosen so the NVMe write (≈6 s for 7B's per-rank state)
        // fits inside the training time between checkpoints (≈9 s).
        let every = NonZeroUsize::new(3).unwrap();
        let policy_block = CheckpointPolicy { every, asynchronous: false };
        let policy_async = CheckpointPolicy { every, asynchronous: true };
        let plain = simulate_training(&cfg(), &NaiveCpu2, 6).unwrap();
        let (blocking, _) =
            simulate_training_with(&cfg(), &NaiveCpu2, 6, Some(policy_block)).unwrap();
        let (asynchronous, _) =
            simulate_training_with(&cfg(), &NaiveCpu2, 6, Some(policy_async)).unwrap();
        let end = |r: &TrainingReport| *r.iteration_ends.last().unwrap();
        assert!(end(&blocking) > end(&plain) * 1.1, "blocking checkpoints cost time");
        assert!(
            end(&asynchronous) < end(&blocking),
            "async {:.2}s !< blocking {:.2}s",
            end(&asynchronous),
            end(&blocking)
        );
        // The training-critical path barely notices asynchronous writes;
        // the trailing write only shows up in the final makespan.
        assert!(end(&asynchronous) < end(&plain) * 1.05);
        assert!(asynchronous.total_secs >= end(&asynchronous));
    }

    #[test]
    fn checkpoint_spans_are_recorded() {
        let policy =
            CheckpointPolicy { every: NonZeroUsize::new(3).unwrap(), asynchronous: true };
        let (r, timeline) = simulate_training_with(&cfg(), &NaiveCpu2, 6, Some(policy)).unwrap();
        assert_eq!(r.iterations, 6);
        // Two checkpoints (after iterations 3 and 6).
        let labels: Vec<&str> = timeline
            .spans()
            .iter()
            .filter(|s| s.label.starts_with("checkpoint:"))
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, ["checkpoint:2", "checkpoint:5"]);
    }

    #[test]
    fn slowest_rank_dominates() {
        let rank0 = simulate_iteration(&cfg(), &NaiveCpu2).unwrap();
        let slowest = (0..cfg().world)
            .map(|rank| {
                let opts = IterationOptions { rank, ..Default::default() };
                simulate_iteration_with(&cfg(), &NaiveCpu2, opts).unwrap().total_secs
            })
            .fold(0.0, f64::max);
        // Rank 0 holds the largest shard under uneven partitioning, so the
        // slowest rank is rank 0 (within float noise).
        assert!(slowest >= rank0.total_secs - 1e-9);
        assert!((slowest - rank0.total_secs) / rank0.total_secs < 0.02);
    }
}
