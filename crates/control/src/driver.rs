//! The autotune experiment driver: races the adaptive controller against
//! the paper's static `StridePolicy::Auto` under a pinned, reproducible,
//! iteration-indexed fault plan, and reports both arms side by side.

use crate::controller::{ControlDecision, Controller, ControllerConfig, DecisionKind, LadderRung};
use dos_core::{DeepOptimizerStates, PerfModel, StridePolicy};
use dos_hal::{FaultPlan, SimError, SimTime};
use dos_sim::{
    simulate_iteration_with, IterationOptions, IterationReport, TrainConfig, UpdateScheduler,
};
use dos_telemetry::Tracer;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A pinned degradation window expressed in *iterations*: `resource` runs
/// at `scale` times its throughput for every iteration in
/// `[from_iter, until_iter)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationSpec {
    /// Engine resource to degrade (`"pcie.h2d"`, `"pcie.d2h"`, `"cpu"`,
    /// `"gpu"`).
    pub resource: String,
    /// First affected iteration (0-based, inclusive).
    pub from_iter: usize,
    /// First unaffected iteration (exclusive).
    pub until_iter: usize,
    /// Throughput multiplier in (0, 1].
    pub scale: f64,
}

impl DegradationSpec {
    /// Parses the CLI syntax `resource:FROM..UNTIL@SCALE`, e.g.
    /// `pcie.h2d:3..8@0.15`.
    pub fn parse(spec: &str) -> Result<DegradationSpec, String> {
        let err = || format!("bad fault spec {spec:?}: expected resource:FROM..UNTIL@SCALE");
        let (resource, rest) = spec.split_once(':').ok_or_else(err)?;
        let (range, scale) = rest.split_once('@').ok_or_else(err)?;
        let (from, until) = range.split_once("..").ok_or_else(err)?;
        let from_iter: usize = from.trim().parse().map_err(|_| err())?;
        let until_iter: usize = until.trim().parse().map_err(|_| err())?;
        let scale: f64 = scale.trim().parse().map_err(|_| err())?;
        if resource.is_empty() {
            return Err(err());
        }
        if until_iter <= from_iter {
            return Err(format!("bad fault spec {spec:?}: empty iteration range"));
        }
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("bad fault spec {spec:?}: scale must be in (0, 1]"));
        }
        Ok(DegradationSpec { resource: resource.to_string(), from_iter, until_iter, scale })
    }

    /// Whether iteration `i` falls inside the window.
    pub fn covers(&self, i: usize) -> bool {
        (self.from_iter..self.until_iter).contains(&i)
    }
}

impl std::fmt::Display for DegradationSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}..{}@{}", self.resource, self.from_iter, self.until_iter, self.scale)
    }
}

/// Builds the engine fault plan for iteration `iteration`, or `None` when
/// no spec covers it. Each covering spec degrades its resource for the
/// whole iteration (each iteration runs on a fresh engine starting at
/// t = 0). The per-iteration seed is derived from `seed`, so the same
/// `(specs, seed)` pair always reproduces the same run.
pub fn fault_plan_for(
    specs: &[DegradationSpec],
    seed: u64,
    iteration: usize,
) -> Option<FaultPlan> {
    let covering: Vec<&DegradationSpec> = specs.iter().filter(|s| s.covers(iteration)).collect();
    if covering.is_empty() {
        return None;
    }
    let mut plan = FaultPlan::seeded(seed.wrapping_add(iteration as u64));
    for s in covering {
        plan = plan.degrade(
            s.resource.clone(),
            SimTime::ZERO,
            SimTime::from_secs(1.0e9),
            s.scale,
        );
    }
    Some(plan)
}

/// One iteration's plan, produced by an [`IterationController`] before the
/// iteration is submitted to the engine.
pub struct ControlledIteration {
    /// The update scheduler to run this iteration under.
    pub scheduler: Box<dyn UpdateScheduler>,
    /// Optional per-iteration override of the offload configuration (the
    /// control plane resizes the GPU-resident tail against observed
    /// `MemoryPool` headroom).
    pub offload: Option<dos_zero::OffloadConfig>,
    /// Optional fault plan to install on the iteration's engine (pinned
    /// degradation windows expressed per iteration).
    pub faults: Option<FaultPlan>,
}

/// The feedback hook called around every iteration of
/// [`simulate_training_controlled`]: it closes the loop between observed
/// update-phase timings and the next iteration's schedule (stride,
/// resident set, degradation-ladder rung).
pub trait IterationController {
    /// Plans iteration `iteration` (0-based) given the run configuration.
    fn plan_iteration(&mut self, iteration: usize, cfg: &TrainConfig) -> ControlledIteration;

    /// Observes the finished iteration's report (timeline included), so
    /// estimators can update before the next [`Self::plan_iteration`].
    fn observe_iteration(&mut self, iteration: usize, report: &IterationReport);
}

/// Runs `iterations` iterations, each planned by `controller` and simulated
/// on a fresh engine by [`simulate_iteration_with`] (so per-iteration fault
/// plans and offload overrides apply cleanly; trailing flushes are
/// contained within their iteration, unlike `dos_sim::simulate_training`'s
/// shared engine).
///
/// If `trace` is given as `(tracer, index)`, iteration `index`'s full
/// engine schedule (fault instants included) and phase boundaries are
/// replayed into the tracer — the controller can add its own `control:*`
/// instants on top.
///
/// # Errors
///
/// Propagates engine errors from any iteration.
pub fn simulate_training_controlled(
    cfg: &TrainConfig,
    controller: &mut dyn IterationController,
    iterations: usize,
    trace: Option<(&Tracer, usize)>,
) -> Result<Vec<IterationReport>, SimError> {
    let mut reports = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let plan = controller.plan_iteration(i, cfg);
        let mut it_cfg = cfg.clone();
        if let Some(offload) = plan.offload {
            it_cfg.offload = offload;
        }
        let opts = IterationOptions {
            rank: 0,
            faults: plan.faults.as_ref(),
            tracer: trace.and_then(|(tracer, index)| (index == i).then_some(tracer)),
        };
        let report = simulate_iteration_with(&it_cfg, plan.scheduler.as_ref(), opts)?;
        controller.observe_iteration(i, &report);
        reports.push(report);
    }
    Ok(reports)
}

/// The paper's static arm: `StridePolicy::Auto` resolved once from the
/// calibration profile, blind to everything that happens at runtime. Runs
/// under the identical fault plan so the race is apples to apples.
struct StaticArm {
    specs: Vec<DegradationSpec>,
    seed: u64,
}

impl IterationController for StaticArm {
    fn plan_iteration(&mut self, iteration: usize, _cfg: &TrainConfig) -> ControlledIteration {
        ControlledIteration {
            scheduler: Box::new(DeepOptimizerStates {
                stride: StridePolicy::Auto,
                residents_at_tail: true,
            }),
            offload: None,
            faults: fault_plan_for(&self.specs, self.seed, iteration),
        }
    }

    fn observe_iteration(&mut self, _iteration: usize, _report: &IterationReport) {}
}

/// Result of racing the adaptive controller against the static arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaceReport {
    /// Model name.
    pub model: String,
    /// Hardware profile name.
    pub profile: String,
    /// Iterations raced.
    pub iterations: usize,
    /// The fault plan both arms ran under.
    pub faults: Vec<DegradationSpec>,
    /// Seed the fault plan was pinned with.
    pub seed: u64,
    /// The static arm's once-solved Equation 1 stride.
    pub static_stride: Option<usize>,
    /// Ladder rung the controller finished on.
    pub final_rung: LadderRung,
    /// Stride policy of the last planned adaptive iteration, rendered
    /// (`"fixed(2)"` or `"cpu-only"`).
    pub final_stride: String,
    /// Per-iteration update-phase seconds, adaptive arm.
    pub adaptive_update_secs: Vec<f64>,
    /// Per-iteration update-phase seconds, static arm.
    pub static_update_secs: Vec<f64>,
    /// Summed update seconds, adaptive arm.
    pub adaptive_total: f64,
    /// Summed update seconds, static arm.
    pub static_total: f64,
    /// Hysteresis-approved stride changes the controller made.
    pub retunes: usize,
    /// Full adaptive decision log.
    pub decisions: Vec<ControlDecision>,
}

impl RaceReport {
    /// Static over adaptive total update time (> 1 means adaptive wins).
    pub fn speedup(&self) -> f64 {
        if self.adaptive_total > 0.0 {
            self.static_total / self.adaptive_total
        } else {
            f64::NAN
        }
    }

    /// The last iteration on which the controller changed the schedule
    /// (retune, ladder move, or recovery) — `None` if it never moved off
    /// its seed. A small value on a fault-free run is the convergence
    /// half of the headline invariant.
    pub fn last_stride_change(&self) -> Option<usize> {
        self.decisions
            .iter()
            .filter(|d| {
                matches!(d.kind, DecisionKind::Retune | DecisionKind::Ladder | DecisionKind::Recover)
            })
            .map(|d| d.iteration)
            .max()
    }

    /// An aligned per-iteration comparison table with decision
    /// annotations, for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {} — adaptive vs static (k* = {}), {} iterations, seed {}",
            self.model,
            self.profile,
            self.static_stride.map_or_else(|| "cpu-only".to_string(), |k| k.to_string()),
            self.iterations,
            self.seed,
        );
        if self.faults.is_empty() {
            let _ = writeln!(out, "faults: none");
        } else {
            let specs: Vec<String> = self.faults.iter().map(|s| s.to_string()).collect();
            let _ = writeln!(out, "faults: {}", specs.join(", "));
        }
        let _ = writeln!(out, "{:>4}  {:>12}  {:>12}  decisions", "iter", "adaptive (s)", "static (s)");
        for i in 0..self.iterations {
            let a = self.adaptive_update_secs.get(i).copied().unwrap_or(f64::NAN);
            let s = self.static_update_secs.get(i).copied().unwrap_or(f64::NAN);
            let notes: Vec<&str> = self
                .decisions
                .iter()
                .filter(|d| d.iteration == i)
                .map(|d| d.detail.as_str())
                .collect();
            let _ = writeln!(out, "{i:>4}  {a:>12.3}  {s:>12.3}  {}", notes.join("; "));
        }
        let _ = writeln!(
            out,
            "{:>4}  {:>12.3}  {:>12.3}  speedup {:.2}x, {} retunes, final rung {}",
            "sum",
            self.adaptive_total,
            self.static_total,
            self.speedup(),
            self.retunes,
            self.final_rung.as_str(),
        );
        out
    }
}

/// Races the adaptive [`Controller`] against the static Equation 1 arm
/// for `iterations` iterations under the pinned fault plan `faults`
/// (seeded by `seed`). If `trace` is `(tracer, index)`, the adaptive
/// arm's iteration `index` is replayed into the tracer, control instants
/// included.
pub fn race_adaptive_vs_static(
    train: &TrainConfig,
    ctrl_cfg: ControllerConfig,
    faults: &[DegradationSpec],
    iterations: usize,
    seed: u64,
    trace: Option<(&Tracer, usize)>,
) -> Result<RaceReport, SimError> {
    let mut adaptive = Controller::new(ctrl_cfg, train).with_faults(faults.to_vec(), seed);
    if let Some((tracer, _)) = trace {
        adaptive = adaptive.with_tracer(tracer);
    }
    let adaptive_reports = simulate_training_controlled(train, &mut adaptive, iterations, trace)?;

    let mut static_arm = StaticArm { specs: faults.to_vec(), seed };
    let static_reports = simulate_training_controlled(train, &mut static_arm, iterations, None)?;

    let adaptive_update_secs: Vec<f64> = adaptive_reports.iter().map(|r| r.update_secs).collect();
    let static_update_secs: Vec<f64> = static_reports.iter().map(|r| r.update_secs).collect();
    let final_stride = match adaptive.stride_policy() {
        StridePolicy::Fixed(k) => format!("fixed({k})"),
        StridePolicy::CpuOnly => "cpu-only".to_string(),
        StridePolicy::Auto => "auto".to_string(),
        StridePolicy::Adaptive => "adaptive".to_string(),
    };
    Ok(RaceReport {
        model: train.spec.name.clone(),
        profile: train.profile.name.clone(),
        iterations,
        faults: faults.to_vec(),
        seed,
        static_stride: PerfModel::new(train.profile.perf_model_inputs()).optimal_stride(),
        final_rung: adaptive.rung(),
        final_stride,
        adaptive_total: adaptive_update_secs.iter().sum(),
        static_total: static_update_secs.iter().sum(),
        adaptive_update_secs,
        static_update_secs,
        retunes: adaptive.retunes(),
        decisions: adaptive.decisions().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::{HardwareProfile, PerfModelInputs};
    use dos_nn::ModelSpec;

    fn train() -> TrainConfig {
        TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").expect("20B in the zoo"),
            HardwareProfile::jlse_h100(),
        )
    }

    #[test]
    fn spec_parses_the_cli_syntax() {
        let s = DegradationSpec::parse("pcie.h2d:3..8@0.15").expect("valid spec");
        assert_eq!(s.resource, "pcie.h2d");
        assert_eq!((s.from_iter, s.until_iter), (3, 8));
        assert!((s.scale - 0.15).abs() < 1e-12);
        assert!(!s.covers(2) && s.covers(3) && s.covers(7) && !s.covers(8));
        assert_eq!(s.to_string(), "pcie.h2d:3..8@0.15");

        for bad in ["", "pcie.h2d", "pcie.h2d:3..8", "pcie.h2d:8..3@0.5", "pcie.h2d:1..2@1.5", ":1..2@0.5", "pcie.h2d:x..2@0.5"] {
            assert!(DegradationSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn fault_plans_are_iteration_indexed_and_pinned() {
        let specs = vec![DegradationSpec::parse("pcie.h2d:3..8@0.15").expect("valid")];
        assert!(fault_plan_for(&specs, 7, 2).is_none());
        assert!(fault_plan_for(&specs, 7, 3).is_some());
        assert!(fault_plan_for(&specs, 7, 7).is_some());
        assert!(fault_plan_for(&specs, 7, 8).is_none());
        // Pinned: same (specs, seed, iteration) → same plan.
        assert_eq!(
            format!("{:?}", fault_plan_for(&specs, 7, 4)),
            format!("{:?}", fault_plan_for(&specs, 7, 4)),
        );
    }

    /// Headline invariant, half 1: fault-free, the controller converges to
    /// the static Equation 1 stride within a bounded number of iterations
    /// and matches static performance within tolerance.
    #[test]
    fn fault_free_adaptive_matches_static_within_tolerance() {
        let cfg = train();
        let report = race_adaptive_vs_static(&cfg, ControllerConfig::default(), &[], 6, 1, None)
            .expect("race runs");
        assert_eq!(report.final_rung, LadderRung::Dos);
        assert_eq!(report.final_stride, "fixed(2)", "converged to static k* = 2");
        assert!(
            report.last_stride_change().is_none_or(|i| i <= 5),
            "bounded convergence, last change at {:?}",
            report.last_stride_change()
        );
        let rel = (report.adaptive_total - report.static_total).abs() / report.static_total;
        assert!(rel <= 0.05, "fault-free parity: adaptive {} vs static {} ({:.1}% apart)",
            report.adaptive_total, report.static_total, rel * 100.0);
    }

    /// Fault-free convergence from a deliberately wrong calibration prior:
    /// the loop must pull the stride back to the true optimum.
    #[test]
    fn wrong_prior_converges_to_true_k_star() {
        let cfg = train();
        let wrong = PerfModelInputs { b: 1.5e9, ..cfg.profile.perf_model_inputs() };
        let mut ctl = Controller::new(ControllerConfig::default(), &cfg).with_initial_inputs(wrong);
        assert!(
            matches!(ctl.stride_policy(), StridePolicy::Fixed(k) if k > 2),
            "wrong prior seeds a too-large stride, got {:?}",
            ctl.stride_policy()
        );
        let _ = simulate_training_controlled(&cfg, &mut ctl, 8, None).expect("run");
        assert_eq!(ctl.stride_policy(), StridePolicy::Fixed(2), "converged to true k*");
        assert!(ctl.retunes() >= 1);
    }

    /// Headline invariant, half 2: under a pinned PCIe degradation window,
    /// adaptive strictly beats the static arm on total update time, and
    /// recovers full interleaving after the window ends.
    #[test]
    fn pinned_degradation_window_adaptive_strictly_beats_static() {
        let cfg = train();
        let faults = vec![DegradationSpec::parse("pcie.h2d:3..8@0.15").expect("valid")];
        let report =
            race_adaptive_vs_static(&cfg, ControllerConfig::default(), &faults, 12, 7, None)
                .expect("race runs");
        assert!(
            report.adaptive_total < report.static_total,
            "adaptive {} must strictly beat static {} under degradation",
            report.adaptive_total,
            report.static_total
        );
        assert!(
            report.retunes > 0
                || report.decisions.iter().any(|d| d.kind == DecisionKind::Ladder),
            "the win must come from explicit decisions: {:?}",
            report.decisions
        );
        assert_eq!(report.final_rung, LadderRung::Dos, "recovered after the window");
        let table = report.render_table();
        assert!(table.contains("speedup"));
    }

    #[test]
    fn traced_race_emits_control_instants() {
        let cfg = train();
        let faults = vec![DegradationSpec::parse("pcie.h2d:1..3@0.15").expect("valid")];
        let tracer = Tracer::new();
        let report = race_adaptive_vs_static(
            &cfg,
            ControllerConfig::default(),
            &faults,
            4,
            7,
            Some((&tracer, 1)),
        )
        .expect("race runs");
        let instants = tracer.control_instants();
        assert!(!instants.is_empty(), "decisions: {:?}", report.decisions);
        assert!(instants.iter().all(|ev| ev.name.starts_with("control:")));
        // The replayed iteration's engine spans are present alongside.
        assert!(tracer.events().iter().any(|ev| ev.phase == "update"));
    }
}
