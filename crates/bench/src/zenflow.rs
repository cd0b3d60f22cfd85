//! `zenflow_bench`: the pinned ZenFlowAsync-vs-DOS iteration-time
//! benchmark and its CI regression gate (`dos-bench/zenflow-v1` schema,
//! committed golden `baselines/zenflow.json`).
//!
//! Every number is *virtual-time*: the discrete-event engine replays the
//! pinned zoo config (20B on the JLSE 4×H100 profile, importance ratio
//! 0.1, staleness bound 1) against the Equation 1 cost model, so the
//! report is a deterministic function of the config and the gate can be
//! tight — a regression means the schedule got worse, not that the
//! machine was noisy.

use serde::{Deserialize, Serialize};

use dos::core::{DeepOptimizerStates, ZenFlowAsync, Zero3Offload};
use dos::hal::HardwareProfile;
use dos::nn::ModelSpec;
use dos::sim::{simulate_iteration, simulate_training, TrainConfig};

/// The committed golden report the CI gate compares against.
pub const GOLDEN: &str = include_str!("../baselines/zenflow.json");

/// Report schema tag; the gate refuses to compare across schemas.
pub const SCHEMA: &str = "dos-bench/zenflow-v1";

/// The pinned zoo model.
pub const MODEL: &str = "20B";

/// The pinned hot-subset importance ratio.
pub const IMPORTANCE_RATIO: f64 = 0.1;

/// The pinned bounded-staleness window for the asynchronous arm.
pub const STALENESS_BOUND: usize = 1;

/// Training iterations averaged per arm.
pub const ITERATIONS: usize = 6;

/// Allowed relative growth of any averaged iteration time vs baseline.
pub const SECS_TOLERANCE: f64 = 0.02;

/// Allowed absolute drop in either speedup ratio vs baseline.
pub const GAIN_TOLERANCE: f64 = 0.02;

/// The `dos-bench/zenflow-v1` report: averaged iteration times for the
/// four scheduler arms on the pinned zoo config, plus the ZenFlow
/// stall/deferral split for one steady-state iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZenFlowBenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Zoo model name ([`MODEL`]).
    pub model: String,
    /// Hardware profile name.
    pub profile: String,
    /// Iterations averaged per arm ([`ITERATIONS`]).
    pub iterations: usize,
    /// Hot-subset importance ratio ([`IMPORTANCE_RATIO`]).
    pub importance_ratio: f64,
    /// Bounded-staleness window of the asynchronous arm.
    pub staleness_bound: usize,
    /// ZeRO-3 synchronous offload, average iteration seconds.
    pub zero3_avg_secs: f64,
    /// Deep Optimizer States interleaved offload, average iteration seconds.
    pub dos_avg_secs: f64,
    /// ZenFlow with `S = 0` (drain every step), average iteration seconds.
    pub zenflow_sync_avg_secs: f64,
    /// ZenFlow with the pinned staleness bound, average iteration seconds.
    pub zenflow_async_avg_secs: f64,
    /// The asynchronous arm's joined (hot-only) update phase, seconds.
    pub hot_update_secs: f64,
    /// The asynchronous arm's deferred cold work per iteration, seconds.
    pub cold_spill_secs: f64,
    /// `zenflow_sync_avg_secs / zenflow_async_avg_secs`.
    pub gain_vs_sync: f64,
    /// `zero3_avg_secs / zenflow_async_avg_secs`.
    pub gain_vs_zero3: f64,
}

/// Runs the pinned config: 20B on JLSE 4×H100, importance ratio 0.1,
/// staleness bound 1, [`ITERATIONS`]-iteration averages for all four arms.
///
/// # Errors
///
/// Returns a description when any simulated arm fails (gate violations
/// are reported, not errored — the gate decides).
pub fn run_zenflow_bench() -> Result<ZenFlowBenchReport, String> {
    let profile = HardwareProfile::jlse_h100();
    let spec = ModelSpec::by_name(MODEL).ok_or_else(|| format!("no zoo model {MODEL}"))?;
    let mut zf_cfg = TrainConfig::baseline(spec.clone(), profile.clone());
    zf_cfg.offload.gpu_resident_ratio = IMPORTANCE_RATIO;
    let sim = |cfg: &TrainConfig, sched: &dyn dos::sim::UpdateScheduler| {
        simulate_training(cfg, sched, ITERATIONS)
            .map(|r| r.avg_iteration_secs)
            .map_err(|e| e.to_string())
    };
    let zero3_avg = sim(&TrainConfig::baseline(spec.clone(), profile.clone()), &Zero3Offload)?;
    let dos_avg = sim(
        &TrainConfig::deep_optimizer_states(spec, profile.clone()),
        &DeepOptimizerStates::default(),
    )?;
    let sync_avg = sim(&zf_cfg, &ZenFlowAsync::new(IMPORTANCE_RATIO, 0))?;
    let async_avg = sim(&zf_cfg, &ZenFlowAsync::new(IMPORTANCE_RATIO, STALENESS_BOUND))?;
    let steady =
        simulate_iteration(&zf_cfg, &ZenFlowAsync::new(IMPORTANCE_RATIO, STALENESS_BOUND))
            .map_err(|e| e.to_string())?;
    Ok(ZenFlowBenchReport {
        schema: SCHEMA.to_string(),
        model: MODEL.to_string(),
        profile: profile.name,
        iterations: ITERATIONS,
        importance_ratio: IMPORTANCE_RATIO,
        staleness_bound: STALENESS_BOUND,
        zero3_avg_secs: zero3_avg,
        dos_avg_secs: dos_avg,
        zenflow_sync_avg_secs: sync_avg,
        zenflow_async_avg_secs: async_avg,
        hot_update_secs: steady.update_secs,
        cold_spill_secs: steady.spill_secs,
        gain_vs_sync: sync_avg / async_avg,
        gain_vs_zero3: zero3_avg / async_avg,
    })
}

/// The `zenflow_bench` registry entry: the pinned config gated against
/// `golden`.
///
/// # Errors
///
/// As [`run_zenflow_bench`], or when `golden` does not parse.
pub fn zenflow_bench(golden: &str) -> Result<crate::Gated, String> {
    crate::gate(&run_zenflow_bench()?, golden, render, regression_gate)
}

/// The CI gate: absolute ZenFlow invariants plus regression limits
/// against the committed baseline.
///
/// # Errors
///
/// Returns a rendered explanation of the first violated limit.
pub fn regression_gate(
    new: &ZenFlowBenchReport,
    baseline: &ZenFlowBenchReport,
) -> Result<(), String> {
    if new.schema != baseline.schema {
        return Err(format!("schema mismatch: {} vs baseline {}", new.schema, baseline.schema));
    }
    if new.zenflow_async_avg_secs > new.zenflow_sync_avg_secs + 1e-9 {
        return Err(format!(
            "bounded staleness slowed the schedule: S={} averages {:.3}s vs S=0 {:.3}s",
            new.staleness_bound, new.zenflow_async_avg_secs, new.zenflow_sync_avg_secs
        ));
    }
    if new.cold_spill_secs <= 0.0 {
        return Err("cold updates no longer deferred past the iteration barrier".to_string());
    }
    if new.hot_update_secs > 0.05 * new.zenflow_async_avg_secs {
        return Err(format!(
            "update phase no longer stall-free: {:.3}s joined vs {:.3}s iteration",
            new.hot_update_secs, new.zenflow_async_avg_secs
        ));
    }
    if new.gain_vs_zero3 < 1.0 {
        return Err(format!("ZenFlowAsync slower than ZeRO-3: {:.3}x", new.gain_vs_zero3));
    }
    for (what, secs, base) in [
        ("zenflow async", new.zenflow_async_avg_secs, baseline.zenflow_async_avg_secs),
        ("dos", new.dos_avg_secs, baseline.dos_avg_secs),
    ] {
        if secs > base * (1.0 + SECS_TOLERANCE) {
            return Err(format!(
                "{what} iteration regressed: {secs:.4}s vs baseline {base:.4}s \
                 (tolerance {:.0}%)",
                SECS_TOLERANCE * 100.0
            ));
        }
    }
    for (what, gain, base) in [
        ("vs-sync", new.gain_vs_sync, baseline.gain_vs_sync),
        ("vs-zero3", new.gain_vs_zero3, baseline.gain_vs_zero3),
    ] {
        if gain < base - GAIN_TOLERANCE {
            return Err(format!(
                "{what} gain regressed: {gain:.4}x vs baseline {base:.4}x \
                 (tolerance {GAIN_TOLERANCE})"
            ));
        }
    }
    Ok(())
}

/// Human rendering of one report.
pub fn render(report: &ZenFlowBenchReport) -> String {
    format!(
        "{} — {} on {}, ratio {}, S={}, {} iteration(s)\n\
           zero3 {:.3}s | dos {:.3}s | zenflow S=0 {:.3}s | zenflow async {:.3}s\n\
           joined update {:.3}s, deferred cold {:.3}s\n\
           gains: {:.2}x vs synchronous drain, {:.2}x vs zero3\n",
        report.schema,
        report.model,
        report.profile,
        report.importance_ratio,
        report.staleness_bound,
        report.iterations,
        report.zero3_avg_secs,
        report.dos_avg_secs,
        report.zenflow_sync_avg_secs,
        report.zenflow_async_avg_secs,
        report.hot_update_secs,
        report.cold_spill_secs,
        report.gain_vs_sync,
        report.gain_vs_zero3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_config_is_deterministic_and_passes_its_own_gate() {
        let a = run_zenflow_bench().unwrap();
        let b = run_zenflow_bench().unwrap();
        assert_eq!(a, b, "virtual-time bench must be deterministic");
        assert_eq!(a.schema, SCHEMA);
        regression_gate(&a, &a).unwrap();
        assert!(a.gain_vs_sync > 1.0, "{a:?}");
    }

    #[test]
    fn gate_catches_regressions_and_schema_drift() {
        let report = run_zenflow_bench().unwrap();
        let mut fast_baseline = report.clone();
        fast_baseline.zenflow_async_avg_secs = report.zenflow_async_avg_secs * 0.9;
        let err = regression_gate(&report, &fast_baseline).unwrap_err();
        assert!(err.contains("iteration regressed"), "{err}");
        let mut wrong_schema = report.clone();
        wrong_schema.schema = "dos-bench/zenflow-v0".to_string();
        assert!(regression_gate(&report, &wrong_schema).is_err());
        let mut stalled = report.clone();
        stalled.hot_update_secs = stalled.zenflow_async_avg_secs;
        assert!(regression_gate(&stalled, &report).is_err());
        let mut no_defer = report.clone();
        no_defer.cold_spill_secs = 0.0;
        assert!(regression_gate(&no_defer, &report).is_err());
        let mut inverted = report;
        inverted.zenflow_async_avg_secs = inverted.zenflow_sync_avg_secs * 2.0;
        assert!(regression_gate(&inverted, &inverted).is_err());
    }

    #[test]
    fn committed_baseline_is_in_gate() {
        // Keep baselines/zenflow.json in lockstep with the cost model:
        // `dos-bench zenflow_bench` replays exactly this comparison.
        assert_eq!(zenflow_bench(GOLDEN).unwrap().verdict, Ok(()));
        // One moved field of the golden puts the same run out of gate.
        let perturbed = GOLDEN.replace("\"gain_vs_zero3\": 1.2", "\"gain_vs_zero3\": 1.3");
        assert_ne!(perturbed, GOLDEN);
        let err = zenflow_bench(&perturbed).unwrap().verdict.unwrap_err();
        assert!(err.contains("vs-zero3 gain regressed"), "{err}");
    }
}
