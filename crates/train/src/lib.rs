//! `dos-train`: the [`Trainer`] — the one owner of the functional update
//! step.
//!
//! The paper's middleware sits behind one optimizer `step()`, "enabled and
//! configured through a single JSON entry in the configuration file given
//! to the training runtime" (§4.4). [`Trainer`] is that call for the
//! *functional* stack: it assembles a [`dos_optim::MixedPrecisionState`]
//! shard, its subgroup partition, a per-trainer staging
//! [`dos_core::ArenaPool`], the pipeline configuration, the tracer and
//! (when configured) the ZenFlow driver once, and [`Trainer::step`] is the
//! only non-oracle caller of [`dos_core::hybrid_update_pooled`]. It is
//! built either from a [`TrainerConfig`] document (update rule, learning
//! rate, partitioning, the `"deep_optimizer_states"` entry, `"monitor"`,
//! `"scheduler"`) or, typed, over an existing shard ([`Trainer::new`]) —
//! which is how `dos-runtime`'s data-parallel loop holds one per rank.
//!
//! It sits *below* `dos-runtime` in the crate graph on purpose:
//! `dos-check`'s differential fuzzer drives its numerics arm through this
//! config surface (so a config-file typo or entry-resolution bug is a
//! fuzzable event, not just a unit-test concern), while `dos-runtime` —
//! which depends on `dos-check` for the CLI — re-exports the shared
//! [`DosEntry`] for its own simulator-facing `RuntimeConfig` document. The
//! entry's `update_stride` *is* `dos_core::StridePolicy`, which carries its
//! own wire form (`3` | `"auto"` | `"cpu_only"` | `"adaptive"`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod config;
pub mod trainer;

pub use checkpoint::{AsyncCheckpointer, CheckpointError, CheckpointStore, TrainingCheckpoint};
pub use config::{DosEntry, MonitorEntry, TrainerConfig, TrainerError};
pub use trainer::Trainer;
