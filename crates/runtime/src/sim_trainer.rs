//! Simulation entry points driven by a [`RuntimeConfig`].

use dos_core::{DeepOptimizerStates, TwinFlow, Zero3Offload};
use dos_sim::{
    simulate_iteration_with, simulate_training, IterationOptions, IterationReport,
    TrainingReport, UpdateScheduler,
};
use dos_telemetry::Tracer;

use crate::config::{ConfigError, RuntimeConfig};

/// Builds the update scheduler a configuration selects.
///
/// With the middleware disabled, a non-zero static ratio selects TwinFlow
/// and a zero ratio selects plain ZeRO-3 CPU offload — matching how a
/// DeepSpeed user would fall back.
pub fn scheduler_for(config: &RuntimeConfig) -> Box<dyn UpdateScheduler> {
    if config.deep_optimizer_states.enabled {
        Box::new(DeepOptimizerStates {
            stride: config.deep_optimizer_states.update_stride,
            ..DeepOptimizerStates::default()
        })
    } else if config.gpu_resident_ratio > 0.0 {
        Box::new(TwinFlow)
    } else {
        Box::new(Zero3Offload)
    }
}

/// Simulates one iteration under the configured scheduler, optionally
/// replaying the engine schedule into `tracer`.
fn iteration(
    config: &RuntimeConfig,
    tracer: Option<&Tracer>,
) -> Result<IterationReport, ConfigError> {
    let opts = IterationOptions { tracer, ..IterationOptions::default() };
    simulate_iteration_with(&config.resolve()?, scheduler_for(config).as_ref(), opts)
        .map_err(|e| ConfigError::Invalid { detail: e.to_string() })
}

/// Simulates one iteration under the configured scheduler.
///
/// # Errors
///
/// Returns [`ConfigError`] for unresolvable configurations; engine errors
/// are wrapped as [`ConfigError::Invalid`].
pub fn run_iteration(config: &RuntimeConfig) -> Result<IterationReport, ConfigError> {
    iteration(config, None)
}

/// Simulates one iteration under the configured scheduler with the engine
/// schedule replayed into a fresh [`Tracer`] (one track per engine stream,
/// simulated clock). Returns the report and the tracer, ready for
/// [`dos_telemetry::chrome_trace`] export and [`dos_telemetry::analyze`].
///
/// # Errors
///
/// Returns [`ConfigError`] for unresolvable configurations; engine errors
/// are wrapped as [`ConfigError::Invalid`].
pub fn trace_iteration(config: &RuntimeConfig) -> Result<(IterationReport, Tracer), ConfigError> {
    let tracer = Tracer::new();
    Ok((iteration(config, Some(&tracer))?, tracer))
}

/// Simulates a multi-iteration run under the configured scheduler.
///
/// # Errors
///
/// Returns [`ConfigError`] for unresolvable configurations; engine errors
/// are wrapped as [`ConfigError::Invalid`].
pub fn run_training(
    config: &RuntimeConfig,
    iterations: usize,
) -> Result<TrainingReport, ConfigError> {
    simulate_training(&config.resolve()?, scheduler_for(config).as_ref(), iterations)
        .map_err(|e| ConfigError::Invalid { detail: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_to_iteration_report() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let report = run_iteration(&cfg).unwrap();
        assert_eq!(report.scheduler, "deep-optimizer-states");
        assert!(report.total_secs > 0.0);
    }

    #[test]
    fn trace_iteration_round_trips_and_validates() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "20B" }"#).unwrap();
        let (report, tracer) = trace_iteration(&cfg).unwrap();
        let plain = run_iteration(&cfg).unwrap();
        assert_eq!(report.total_secs, plain.total_secs, "tracing must not change the schedule");

        let analysis = dos_telemetry::analyze_tracer(&tracer);
        assert!(analysis.validate().is_empty(), "{:?}", analysis.validate());
        assert_eq!(
            analysis.phases.iter().map(|p| p.phase.as_str()).collect::<Vec<_>>(),
            ["forward", "backward", "update"],
        );

        let trace = dos_telemetry::chrome_trace(&tracer);
        let json = serde_json::to_string(&trace).unwrap();
        let back: dos_telemetry::ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn disabling_middleware_selects_baselines() {
        let cfg = RuntimeConfig::from_json(
            r#"{ "model": "7B", "deep_optimizer_states": { "enabled": false } }"#,
        )
        .unwrap();
        assert_eq!(scheduler_for(&cfg).name(), "zero3-offload");
        let cfg = RuntimeConfig::from_json(
            r#"{ "model": "7B", "gpu_resident_ratio": 0.2,
                 "deep_optimizer_states": { "enabled": false } }"#,
        )
        .unwrap();
        assert_eq!(scheduler_for(&cfg).name(), "twinflow");
    }

    #[test]
    fn single_json_flag_flips_the_speedup() {
        // The paper's whole pitch in one test: flipping the JSON entry makes
        // 20B iterations ~2x faster.
        let on = RuntimeConfig::from_json(r#"{ "model": "20B" }"#).unwrap();
        let off = RuntimeConfig::from_json(
            r#"{ "model": "20B", "deep_optimizer_states": { "enabled": false } }"#,
        )
        .unwrap();
        let fast = run_iteration(&on).unwrap();
        let slow = run_iteration(&off).unwrap();
        assert!(slow.total_secs / fast.total_secs > 1.8);
    }

    #[test]
    fn multi_iteration_run_reports_stability() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B" }"#).unwrap();
        let report = run_training(&cfg, 6).unwrap();
        assert_eq!(report.iterations, 6);
        assert!(report.is_stable(1, 0.1), "{:?}", report.iteration_durations());
    }
}
