//! # dos — Deep Optimizer States, the facade crate
//!
//! One-stop re-export of the *Deep Optimizer States* reproduction
//! (Maurya et al., MIDDLEWARE 2024). The workspace is layered:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`hal`] | `dos-hal` | discrete-event hardware simulator + calibrated profiles |
//! | [`tensor`] | `dos-tensor` | software f16, FP32↔FP16 conversion kernels, SIMD kernels |
//! | [`nn`] | `dos-nn` | from-scratch transformer with manual backprop |
//! | [`data`] | `dos-data` | synthetic corpus, BPE tokenizer, data loading |
//! | [`optim`] | `dos-optim` | Adam-family rules, mixed-precision sharded state |
//! | [`collectives`] | `dos-collectives` | thread collectives + ring cost models |
//! | [`zero`] | `dos-zero` | ZeRO stages, subgroups, memory estimation |
//! | [`sim`] | `dos-sim` | training-iteration simulator |
//! | [`core`] | `dos-core` | **the paper**: Eq. 1 perf model, Algorithm 1 schedulers, functional pipeline |
//! | [`check`] | `dos-check` | deterministic schedule exploration + differential fuzzing for the pipeline |
//! | [`control`] | `dos-control` | adaptive control plane: online Eq. 1 re-solving, resident sizing, degradation ladder |
//! | [`telemetry`] | `dos-telemetry` | tracer + metrics, timelines, Chrome/Perfetto export, overlap/stall analyzer, Gantt |
//! | [`train`] | `dos-train` | `Trainer`, the one owner of the functional update step (from JSON or over a shard) |
//! | [`runtime`] | `dos-runtime` | multi-rank `train_functional` driver + JSON config onto the simulator |
//! | [`oracle`] | `dos-oracle` | differential conformance harness (Eq. 1 vs simulator vs pipeline) |
//! | [`serve`] | `dos-serve` | multi-tenant control plane: admission, fair-share scheduling, checkpoint preemption |
//!
//! See the repository README for a quickstart and `DESIGN.md` for the full
//! system inventory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dos_check as check;
pub use dos_collectives as collectives;
pub use dos_control as control;
pub use dos_core as core;
pub use dos_data as data;
pub use dos_hal as hal;
pub use dos_nn as nn;
pub use dos_optim as optim;
pub use dos_oracle as oracle;
pub use dos_runtime as runtime;
pub use dos_serve as serve;
pub use dos_sim as sim;
pub use dos_telemetry as telemetry;
pub use dos_tensor as tensor;
pub use dos_train as train;
pub use dos_zero as zero;
