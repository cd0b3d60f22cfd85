//! The single-JSON-entry configuration surface.
//!
//! The paper ships Deep Optimizer States as a middleware "that can be
//! enabled and configured through a single JSON entry in the configuration
//! file given to the training runtime" (§4.4). This module owns the
//! canonical `"deep_optimizer_states"` entry — shared with the simulator's
//! [`RuntimeConfig`](https://docs.rs/dos-runtime) document, which re-exports
//! these types — plus the small trainer-level document wrapped around it by
//! [`TrainerConfig`].

use serde::{Deserialize, Serialize};

use dos_core::{PipelineConfig, PipelineError, StridePolicy};
use dos_optim::UpdateRule;

/// Errors raised while parsing or resolving a trainer configuration, or
/// while stepping the trainer it builds.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainerError {
    /// The JSON failed to parse.
    Parse(serde_json::Error),
    /// A field value is out of range or a name could not be resolved.
    Invalid {
        /// Description of the invalid value.
        detail: String,
    },
    /// The hybrid-update pipeline rejected a step's preconditions.
    Pipeline(PipelineError),
}

impl std::fmt::Display for TrainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerError::Parse(e) => write!(f, "invalid trainer JSON: {e}"),
            TrainerError::Invalid { detail } => write!(f, "invalid trainer config: {detail}"),
            TrainerError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for TrainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainerError::Parse(e) => Some(e),
            TrainerError::Pipeline(e) => Some(e),
            TrainerError::Invalid { .. } => None,
        }
    }
}

impl From<serde_json::Error> for TrainerError {
    fn from(e: serde_json::Error) -> Self {
        TrainerError::Parse(e)
    }
}

impl From<PipelineError> for TrainerError {
    fn from(e: PipelineError) -> Self {
        TrainerError::Pipeline(e)
    }
}

/// The `"deep_optimizer_states"` JSON entry (§4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct DosEntry {
    /// Master switch; `false` leaves the baseline scheduler in place.
    pub enabled: bool,
    /// `"auto"` (solve Equation 1), `"cpu_only"`, `"adaptive"` (online
    /// controller retuning), or an integer stride.
    pub update_stride: StridePolicy,
    /// FP32-on-GPU gradient conversion path (Figure 6 bottom).
    pub fp32_gradient_path: bool,
    /// Overlap gradient flushes with backward compute.
    pub overlap_backward: bool,
}

impl Default for DosEntry {
    fn default() -> Self {
        DosEntry {
            enabled: true,
            update_stride: StridePolicy::Auto,
            fp32_gradient_path: true,
            overlap_backward: true,
        }
    }
}

/// The optional `"monitor"` JSON entry: production monitoring.
///
/// When present, [`TrainerConfig::build`] attaches a flight-only
/// [`dos_telemetry::Tracer`] (bounded ring, no unbounded event store) so
/// every step records into the flight recorder, publishes arena gauges,
/// and — unless `health` is disabled — runs the online health detectors.
/// The trainer itself never opens sockets: serving the registry is the
/// embedding runtime's job (`dos-cli monitor --listen`, `dos-cli serve
/// --listen`, `FunctionalConfig::monitor_listen`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct MonitorEntry {
    /// Flight-recorder ring capacity in events.
    pub flight_capacity: usize,
    /// Enable the online health/anomaly detectors.
    pub health: bool,
}

impl Default for MonitorEntry {
    fn default() -> Self {
        MonitorEntry { flight_capacity: 4096, health: true }
    }
}

/// A functional-trainer configuration document: one optimizer shard, its
/// partitioning, the update rule, and the middleware entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrainerConfig {
    /// Flat parameter count of the optimizer shard.
    pub params: usize,
    /// Subgroup size in parameters (DeepSpeed's `sub_group_size`).
    pub subgroup_size: usize,
    /// Update rule name: `"adam"`, `"adamw"`, `"adagrad"`, `"rmsprop"`.
    #[serde(default = "default_rule")]
    pub rule: String,
    /// Decoupled weight decay (only `"adamw"` reads it).
    #[serde(default)]
    pub weight_decay: f32,
    /// Learning rate.
    #[serde(default = "default_lr")]
    pub lr: f32,
    /// Trailing subgroups treated as static device residents.
    #[serde(default)]
    pub static_residents: usize,
    /// Update scheduler: `"hybrid"` (the paper's interleaved in-barrier
    /// pipeline, the default) or `"zenflow_async"` (cross-iteration
    /// bounded-staleness updates; see `importance_ratio` /
    /// `staleness_bound`).
    #[serde(default = "default_scheduler")]
    pub scheduler: String,
    /// ZenFlow only: fraction of subgroups updated synchronously each step
    /// (the top-p importance set). In (0, 1]; at least one subgroup is
    /// always hot.
    #[serde(default = "default_importance_ratio")]
    pub importance_ratio: f64,
    /// ZenFlow only: bounded staleness window S — a cold subgroup's
    /// gradient is delayed at most S steps before its update is forced.
    #[serde(default = "default_staleness_bound")]
    pub staleness_bound: usize,
    /// The middleware entry.
    #[serde(default)]
    pub deep_optimizer_states: DosEntry,
    /// Optional production-monitoring entry (flight recorder, metrics,
    /// health detection). Absent → zero observability overhead.
    #[serde(default)]
    pub monitor: Option<MonitorEntry>,
}

fn default_rule() -> String {
    "adam".to_string()
}
fn default_lr() -> f32 {
    0.01
}
fn default_scheduler() -> String {
    "hybrid".to_string()
}
fn default_importance_ratio() -> f64 {
    0.1
}
fn default_staleness_bound() -> usize {
    1
}

impl TrainerConfig {
    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Parse`] on malformed JSON (including unknown
    /// fields — typos fail fast rather than silently training a different
    /// configuration).
    pub fn from_json(json: &str) -> Result<TrainerConfig, TrainerError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serializes back to pretty JSON.
    pub fn to_json(&self) -> String {
        // The in-tree serializer is infallible for derived config types.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Resolves the rule name into an [`UpdateRule`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for unknown names.
    pub fn resolve_rule(&self) -> Result<UpdateRule, TrainerError> {
        match self.rule.as_str() {
            "adam" => Ok(UpdateRule::adam()),
            "adamw" => Ok(UpdateRule::adamw(self.weight_decay)),
            "adagrad" => Ok(UpdateRule::adagrad()),
            "rmsprop" => Ok(UpdateRule::rmsprop()),
            other => {
                Err(TrainerError::Invalid { detail: format!("unknown update rule {other:?}") })
            }
        }
    }

    /// Resolves the middleware entry into a pipeline configuration.
    /// Disabling the entry retreats every dynamic subgroup to the CPU —
    /// the pre-middleware baseline path.
    pub fn pipeline(&self) -> PipelineConfig {
        let dos = &self.deep_optimizer_states;
        PipelineConfig {
            stride: if dos.enabled { dos.update_stride } else { StridePolicy::CpuOnly },
            static_residents: self.static_residents,
            fault_injection: None,
        }
    }

    /// Whether the `"zenflow_async"` scheduler is selected.
    pub fn is_zenflow(&self) -> bool {
        self.scheduler == "zenflow_async"
    }

    /// The ZenFlow policy knobs as a pipeline configuration.
    pub fn zenflow(&self) -> dos_core::ZenFlowConfig {
        dos_core::ZenFlowConfig {
            importance_ratio: self.importance_ratio,
            staleness_bound: self.staleness_bound,
        }
    }

    /// Validates the shape fields and the scheduler selection.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] when `params` or `subgroup_size`
    /// is zero, or the `scheduler` name or its knobs are out of range.
    pub fn validate(&self) -> Result<(), TrainerError> {
        if self.params == 0 || self.subgroup_size == 0 {
            return Err(TrainerError::Invalid {
                detail: "params and subgroup_size must be positive".into(),
            });
        }
        match self.scheduler.as_str() {
            "hybrid" => {}
            "zenflow_async" => {
                if !(self.importance_ratio > 0.0 && self.importance_ratio <= 1.0) {
                    return Err(TrainerError::Invalid {
                        detail: format!(
                            "importance_ratio {} outside (0, 1]",
                            self.importance_ratio
                        ),
                    });
                }
                if self.staleness_bound == 0 {
                    return Err(TrainerError::Invalid {
                        detail: "staleness_bound must be at least 1".into(),
                    });
                }
            }
            other => {
                return Err(TrainerError::Invalid {
                    detail: format!(
                        "unknown scheduler {other:?} (expected \"hybrid\" or \
                         \"zenflow_async\")"
                    ),
                })
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_config_uses_paper_defaults() {
        let cfg =
            TrainerConfig::from_json(r#"{ "params": 64, "subgroup_size": 16 }"#).unwrap();
        assert_eq!(cfg.rule, "adam");
        assert_eq!(cfg.lr, 0.01);
        assert!(cfg.deep_optimizer_states.enabled);
        assert_eq!(cfg.pipeline().stride, StridePolicy::Auto);
    }

    #[test]
    fn stride_entry_forms() {
        let document = |entry: &str| {
            format!(
                r#"{{ "params": 8, "subgroup_size": 4,
                      "deep_optimizer_states": {{ "update_stride": {entry} }} }}"#
            )
        };
        for (entry, want) in [
            ("3", StridePolicy::Fixed(3)),
            ("0", StridePolicy::Fixed(0)),
            ("\"auto\"", StridePolicy::Auto),
            ("\"cpu_only\"", StridePolicy::CpuOnly),
            ("\"adaptive\"", StridePolicy::Adaptive),
        ] {
            let cfg = TrainerConfig::from_json(&document(entry)).unwrap();
            assert_eq!(cfg.pipeline().stride, want);
            // The wire form survives the round trip verbatim.
            let json = cfg.to_json();
            assert!(json.contains(&format!("\"update_stride\": {entry}")), "{json}");
            assert_eq!(TrainerConfig::from_json(&json).unwrap(), cfg);
        }
        for bad in ["\"sometimes\"", "-1", "2.5", "null", "[2]"] {
            let err = TrainerConfig::from_json(&document(bad)).unwrap_err();
            assert!(matches!(err, TrainerError::Parse(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn disabling_the_middleware_forces_cpu_only() {
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4,
                 "deep_optimizer_states": { "enabled": false, "update_stride": 3 } }"#,
        )
        .unwrap();
        assert_eq!(cfg.pipeline().stride, StridePolicy::CpuOnly);
    }

    #[test]
    fn unknown_fields_and_rules_fail_fast() {
        assert!(TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4, "typo": 1 }"#)
            .is_err());
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "rule": "sgd" }"#,
        )
        .unwrap();
        assert!(matches!(cfg.resolve_rule(), Err(TrainerError::Invalid { .. })));
        let cfg = TrainerConfig::from_json(r#"{ "params": 0, "subgroup_size": 4 }"#).unwrap();
        assert!(matches!(cfg.validate(), Err(TrainerError::Invalid { .. })));
    }

    #[test]
    fn monitor_entry_parses_defaults_and_round_trips() {
        let cfg = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert!(cfg.monitor.is_none(), "absent entry stays absent");
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "monitor": { "health": false } }"#,
        )
        .unwrap();
        let mon = cfg.monitor.clone().unwrap();
        assert_eq!(mon.flight_capacity, 4096);
        assert!(!mon.health);
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.monitor, Some(mon));
        // Typos inside the entry fail fast like everywhere else — and so
        // do the entries nothing reads any more: the trainer never served
        // `"listen"` (the CLIs take `--listen`) and cannot act on
        // `"collectives"` (transport selection is `FunctionalConfig`'s).
        for unknown in [
            r#"{ "params": 8, "subgroup_size": 4, "monitor": { "helth": true } }"#,
            r#"{ "params": 8, "subgroup_size": 4, "monitor": { "listen": "127.0.0.1:0" } }"#,
            r#"{ "params": 8, "subgroup_size": 4, "collectives": { "transport": "uds" } }"#,
        ] {
            let err = TrainerConfig::from_json(unknown).unwrap_err();
            assert!(err.to_string().contains("unknown field"), "{unknown}: {err}");
        }
    }

    #[test]
    fn zenflow_entry_parses_validates_and_round_trips() {
        let cfg = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert_eq!(cfg.scheduler, "hybrid");
        assert!(!cfg.is_zenflow());
        cfg.validate().unwrap();

        let cfg = TrainerConfig::from_json(
            r#"{ "params": 48, "subgroup_size": 8, "scheduler": "zenflow_async",
                 "importance_ratio": 0.25, "staleness_bound": 2 }"#,
        )
        .unwrap();
        assert!(cfg.is_zenflow());
        cfg.validate().unwrap();
        let zf = cfg.zenflow();
        assert_eq!(zf.importance_ratio, 0.25);
        assert_eq!(zf.staleness_bound, 2);
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.scheduler, "zenflow_async");
        assert_eq!(again.importance_ratio, 0.25);

        for bad in [
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow" }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "importance_ratio": 0.0 }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "importance_ratio": 1.5 }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "staleness_bound": 0 }"#,
        ] {
            assert!(
                matches!(
                    TrainerConfig::from_json(bad).unwrap().validate(),
                    Err(TrainerError::Invalid { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 48, "subgroup_size": 8, "rule": "adamw", "weight_decay": 0.1,
                 "static_residents": 1,
                 "deep_optimizer_states": { "update_stride": 2 } }"#,
        )
        .unwrap();
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.params, 48);
        assert_eq!(again.rule, "adamw");
        assert_eq!(again.pipeline().stride, StridePolicy::Fixed(2));
        assert_eq!(again.static_residents, 1);
    }
}
