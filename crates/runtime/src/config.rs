//! JSON runtime configuration.
//!
//! The paper ships Deep Optimizer States as a middleware "that can be
//! enabled and configured through a single JSON entry in the configuration
//! file given to the training runtime" (§4.4). This module mirrors that
//! surface: a DeepSpeed-style JSON document with a
//! `"deep_optimizer_states"` entry.

use serde::{Deserialize, Serialize};

use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_sim::{GradientPath, TrainConfig};
use dos_zero::{OffloadConfig, ZeroStage};

/// Errors raised while parsing or resolving a runtime configuration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The JSON failed to parse.
    Parse(serde_json::Error),
    /// A referenced name could not be resolved.
    Unknown {
        /// What kind of name (`"model"`, `"profile"`, ...).
        kind: &'static str,
        /// The unresolved name.
        name: String,
    },
    /// A field value is out of range.
    Invalid {
        /// Description of the invalid value.
        detail: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "invalid config JSON: {e}"),
            ConfigError::Unknown { kind, name } => write!(f, "unknown {kind}: `{name}`"),
            ConfigError::Invalid { detail } => write!(f, "invalid config value: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for ConfigError {
    fn from(e: serde_json::Error) -> Self {
        ConfigError::Parse(e)
    }
}

// The `"deep_optimizer_states"` entry itself is owned by `dos-train` (the
// functional Trainer's JSON surface shares it); re-exported here so the
// simulator-facing document keeps its historical import path.
pub use dos_train::DosEntry;

/// Most subgroups one rank's shard may be cut into. The simulator builds
/// several engine ops per subgroup, so a `subgroup_size` of a few
/// parameters on a billion-parameter model is an allocation of tens of
/// gigabytes, not a schedule; the paper's own sweeps (Figure 2) stay under
/// a few hundred.
const MAX_SUBGROUPS_PER_RANK: usize = 1 << 16;

/// The whole runtime configuration document.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RuntimeConfig {
    /// Table 2 model name (`"7B"`, ..., `"20B"`).
    pub model: String,
    /// Hardware profile name (`"jlse-4xH100"`, `"4xV100-32GB"`, ...), or
    /// omitted for the H100 default.
    #[serde(default)]
    pub profile: Option<String>,
    /// ZeRO stage (1, 2, or 3; the paper evaluates 3).
    #[serde(default = "default_stage")]
    pub zero_stage: u8,
    /// Data-parallel degree (defaults to the profile's GPU count).
    #[serde(default)]
    pub data_parallel: Option<usize>,
    /// Micro-batch size per GPU.
    #[serde(default = "default_one")]
    pub micro_batch: usize,
    /// Gradient accumulation steps.
    #[serde(default = "default_one")]
    pub grad_accumulation: usize,
    /// Subgroup size in parameters (DeepSpeed's
    /// `sub_group_size`; paper default 100 M).
    #[serde(default = "default_subgroup")]
    pub subgroup_size: usize,
    /// TwinFlow-style static GPU residency ratio in `[0, 1]`.
    #[serde(default)]
    pub gpu_resident_ratio: f64,
    /// Activation checkpointing (paper default: on).
    #[serde(default = "default_true")]
    pub activation_checkpointing: bool,
    /// The middleware entry.
    #[serde(default)]
    pub deep_optimizer_states: DosEntry,
}

fn default_stage() -> u8 {
    3
}
fn default_one() -> usize {
    1
}
fn default_subgroup() -> usize {
    100_000_000
}
fn default_true() -> bool {
    true
}

impl RuntimeConfig {
    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] on malformed JSON.
    ///
    /// # Examples
    ///
    /// ```
    /// use dos_runtime::RuntimeConfig;
    /// let cfg = RuntimeConfig::from_json(r#"{
    ///     "model": "20B",
    ///     "deep_optimizer_states": { "enabled": true, "update_stride": "auto" }
    /// }"#)?;
    /// assert_eq!(cfg.model, "20B");
    /// # Ok::<(), dos_runtime::ConfigError>(())
    /// ```
    pub fn from_json(json: &str) -> Result<RuntimeConfig, ConfigError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serializes back to pretty JSON.
    pub fn to_json(&self) -> String {
        // The in-tree serializer is infallible for derived config types.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Resolves into a simulator [`TrainConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Unknown`] for unrecognized model/profile
    /// names and [`ConfigError::Invalid`] for out-of-range fields.
    pub fn resolve(&self) -> Result<TrainConfig, ConfigError> {
        let spec = ModelSpec::by_name(&self.model)
            .ok_or(ConfigError::Unknown { kind: "model", name: self.model.clone() })?;
        let profile = match &self.profile {
            None => HardwareProfile::jlse_h100(),
            Some(name) => HardwareProfile::presets()
                .into_iter()
                .find(|p| &p.name == name)
                .ok_or(ConfigError::Unknown { kind: "profile", name: name.clone() })?,
        };
        let stage = match self.zero_stage {
            1 => ZeroStage::One,
            2 => ZeroStage::Two,
            3 => ZeroStage::Three,
            other => {
                return Err(ConfigError::Invalid { detail: format!("zero_stage {other}") })
            }
        };
        if !(0.0..=1.0).contains(&self.gpu_resident_ratio) {
            return Err(ConfigError::Invalid {
                detail: format!("gpu_resident_ratio {}", self.gpu_resident_ratio),
            });
        }
        if self.micro_batch == 0 || self.subgroup_size == 0 || self.grad_accumulation == 0 {
            return Err(ConfigError::Invalid {
                detail: "micro_batch, subgroup_size, grad_accumulation must be positive".into(),
            });
        }
        let world = self.data_parallel.unwrap_or(profile.num_gpus);
        if world == 0 {
            return Err(ConfigError::Invalid { detail: "data_parallel must be positive".into() });
        }
        let dos = &self.deep_optimizer_states;
        let train = TrainConfig {
            spec,
            world,
            stage,
            micro_batch: self.micro_batch,
            grad_accumulation: self.grad_accumulation,
            offload: OffloadConfig {
                gpu_resident_ratio: self.gpu_resident_ratio,
                activation_checkpointing: self.activation_checkpointing,
                subgroup_params: self.subgroup_size,
            },
            gradient_path: if dos.enabled && dos.fp32_gradient_path {
                GradientPath::Fp32OnGpu
            } else {
                GradientPath::LegacyFp16Flush
            },
            overlap_backward: dos.enabled && dos.overlap_backward,
            profile,
        };
        let subgroups = train.params_per_rank().div_ceil(self.subgroup_size);
        if subgroups > MAX_SUBGROUPS_PER_RANK {
            return Err(ConfigError::Invalid {
                detail: format!(
                    "subgroup_size {} cuts each rank's shard into {subgroups} subgroups \
                     (at most {MAX_SUBGROUPS_PER_RANK})",
                    self.subgroup_size
                ),
            });
        }
        Ok(train)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_core::StridePolicy;

    #[test]
    fn minimal_config_uses_paper_defaults() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "20B" }"#).unwrap();
        assert_eq!(cfg.zero_stage, 3);
        assert_eq!(cfg.micro_batch, 1);
        assert_eq!(cfg.subgroup_size, 100_000_000);
        assert!(cfg.activation_checkpointing);
        assert!(cfg.deep_optimizer_states.enabled);
        let train = cfg.resolve().unwrap();
        assert_eq!(train.world, 4);
        assert_eq!(train.gradient_path, GradientPath::Fp32OnGpu);
    }

    #[test]
    fn stride_entry_forms() {
        for (entry, want) in [
            ("3", StridePolicy::Fixed(3)),
            ("0", StridePolicy::Fixed(0)),
            ("\"auto\"", StridePolicy::Auto),
            ("\"cpu_only\"", StridePolicy::CpuOnly),
            ("\"adaptive\"", StridePolicy::Adaptive),
        ] {
            let cfg = RuntimeConfig::from_json(&format!(
                r#"{{ "model": "7B", "deep_optimizer_states": {{ "update_stride": {entry} }} }}"#
            ))
            .unwrap();
            assert_eq!(cfg.deep_optimizer_states.update_stride, want);
            // The wire form survives the round trip verbatim.
            let json = cfg.to_json();
            assert!(json.contains(&format!("\"update_stride\": {entry}")), "{json}");
            assert_eq!(RuntimeConfig::from_json(&json).unwrap().to_json(), json);
        }
    }

    #[test]
    fn disabling_the_middleware_restores_baseline_paths() {
        let cfg = RuntimeConfig::from_json(
            r#"{ "model": "13B", "deep_optimizer_states": { "enabled": false } }"#,
        )
        .unwrap();
        let train = cfg.resolve().unwrap();
        assert_eq!(train.gradient_path, GradientPath::LegacyFp16Flush);
        assert!(!train.overlap_backward);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "99B" }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Unknown { kind: "model", .. })));
        let cfg =
            RuntimeConfig::from_json(r#"{ "model": "7B", "profile": "nonexistent" }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Unknown { kind: "profile", .. })));
    }

    #[test]
    fn invalid_values_are_rejected() {
        let cfg =
            RuntimeConfig::from_json(r#"{ "model": "7B", "zero_stage": 4 }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Invalid { .. })));
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B", "gpu_resident_ratio": 1.5 }"#)
            .unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Invalid { .. })));
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B", "micro_batch": 0 }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Invalid { .. })));
        // A world of zero ranks has no rank 0 to simulate...
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B", "data_parallel": 0 }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Invalid { .. })));
        // ...and one-parameter subgroups of a 7B model are 1.7 billion ops.
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B", "subgroup_size": 1 }"#).unwrap();
        assert!(matches!(cfg.resolve(), Err(ConfigError::Invalid { .. })));
        let cfg =
            RuntimeConfig::from_json(r#"{ "model": "7B", "subgroup_size": 100000 }"#).unwrap();
        assert!(cfg.resolve().is_ok(), "17,000 subgroups per rank is slow, not malformed");
    }

    #[test]
    fn unknown_fields_fail_fast() {
        assert!(RuntimeConfig::from_json(r#"{ "model": "7B", "typo_field": 1 }"#).is_err());
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "20B", "gpu_resident_ratio": 0.2 }"#)
            .unwrap();
        let again = RuntimeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.model, "20B");
        assert_eq!(again.gpu_resident_ratio, 0.2);
    }

    #[test]
    fn profile_lookup_by_name() {
        let cfg = RuntimeConfig::from_json(r#"{ "model": "7B", "profile": "4xV100-32GB" }"#)
            .unwrap();
        let train = cfg.resolve().unwrap();
        assert_eq!(train.profile.name, "4xV100-32GB");
    }
}
