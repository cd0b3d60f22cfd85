//! # dos-runtime — trainer facade and JSON configuration
//!
//! The user-facing surface of the *Deep Optimizer States* reproduction,
//! mirroring §4.4's packaging ("enabled and configured through a single
//! JSON entry in the configuration file given to the training runtime"):
//!
//! * [`RuntimeConfig`] — a DeepSpeed-style JSON document with a
//!   `"deep_optimizer_states"` entry (the [`DosEntry`] `dos-train` owns;
//!   its `update_stride` is `dos_core::StridePolicy` itself);
//!   [`run_iteration`]/[`run_training`] resolve it onto the calibrated
//!   simulator with the right scheduler, and every out-of-range value —
//!   a zero `data_parallel`, a subgroup count no schedule could hold — is
//!   a typed [`ConfigError`], never a panic;
//! * [`train_functional`] — *real* data-parallel training: per-rank threads
//!   with `dos-nn` models, `dos-collectives` reduce-scatter/all-gather, and
//!   one `dos_train::Trainer` per rank stepping that rank's slice of the
//!   ZeRO-sharded optimizer state through the interleaved hybrid pipeline.
//!   This crate owns the multi-rank loop (data, collectives, checkpoints,
//!   elastic recovery, the adaptive tuner, the ranks' agreement to skip an
//!   overflowed loss-scaled step); the update step itself is the
//!   trainer's. Transport, deadlines and the rank-failure policy are typed
//!   [`FunctionalConfig`] fields — no JSON entry selects them.
//!
//! ```
//! use dos_runtime::{run_iteration, RuntimeConfig};
//! let cfg = RuntimeConfig::from_json(r#"{ "model": "7B" }"#)?;
//! let report = run_iteration(&cfg).unwrap();
//! assert!(report.total_secs > 0.0);
//! # Ok::<(), dos_runtime::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code on the fault-tolerant update path must surface failures as
// typed errors, never die on a stray unwrap; tests may assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod autotune;
mod chaos;
pub mod cli;
mod config;
mod functional;
mod monitor;
mod sim_trainer;

pub use autotune::{
    run_autotune, AutotuneOptions, AutotuneOutcome, AUTOTUNE_PARITY_TOLERANCE,
};
// Checkpointing moved down the stack into `dos-train` (so the serving
// control plane can preempt/resume without depending on this crate);
// re-exported here so existing `dos_runtime::CheckpointStore` paths hold.
pub use dos_train::checkpoint::{
    AsyncCheckpointer, CheckpointError, CheckpointStore, TrainingCheckpoint,
};
pub use chaos::{
    run_chaos, with_quiet_injected_panics, ChaosCheck, ChaosOptions, ChaosReport, FaultKind,
};
pub use config::{ConfigError, DosEntry, RuntimeConfig};
pub use functional::{
    evaluate, train_functional, FunctionalConfig, FunctionalReport, RankFailurePolicy, TrainError,
    TransportBackend,
};
pub use monitor::{run_monitor, MonitorOptions, MonitorOutcome};
pub use sim_trainer::{run_iteration, run_training, scheduler_for, trace_iteration};
