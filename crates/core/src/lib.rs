//! # dos-core — Deep Optimizer States
//!
//! The primary contribution of *"Deep Optimizer States: Towards Scalable
//! Training of Transformer Models Using Interleaved Offloading"* (Maurya,
//! Ye, Rafique, Cappello, Nicolae — MIDDLEWARE 2024), reproduced in Rust:
//!
//! * [`PerfModel`] — Equation 1's closed-form *update stride* `k`: how many
//!   subgroup updates to leave on the CPU for every one scheduled on the
//!   GPU, balancing CPU update + downscale time against PCIe staging and
//!   GPU update time (§4.2);
//! * [`StridePolicy`] and [`UpdatePlan`] — the two scheduling decisions,
//!   each written once for both clocks: [`StridePolicy::resolve`] is the
//!   only place a policy (`auto` / fixed `k` / `cpu_only` / `adaptive`)
//!   becomes a stride, and the plan the only place a stride becomes a
//!   placement — where subgroup `i` runs (every k-th dynamic subgroup and
//!   the static residents on the device) and how many run where;
//! * [`DeepOptimizerStates`] — Algorithm 1 as an update scheduler for the
//!   `dos-sim` engine: every k-th subgroup prefetched over dedicated
//!   p/m/v streams, updated on the GPU, and flushed back, fully overlapped
//!   with CPU updates, downscales, and parameter H2D copies; static
//!   residents placed at the tail (§4.1, §4.3, Figure 5 bottom);
//! * the baselines it is evaluated against — [`Zero3Offload`] (DeepSpeed
//!   ZeRO-3 CPU optimizer offload) and [`TwinFlow`] (ZeRO-Offload++ static
//!   GPU/CPU split, Figure 5 top);
//! * [`hybrid_update_pooled`] — the same interleaved schedule executed with
//!   *real threads and real Adam numerics*, demonstrating the §4.1
//!   correctness claim: out-of-order, cross-device subgroup updates are
//!   bitwise identical to a sequential CPU update. It is the one pipeline
//!   body (optional tracer, caller-owned [`ArenaPool`]) with a fresh FP16
//!   output; [`hybrid_update_into`] is the same body writing into an FP16
//!   buffer kept across steps, and [`hybrid_update`] the four-argument form
//!   for oracles and property tests. `dos_train::Trainer::step` is the one
//!   production caller, and keeps the FP16 buffer. The pool keeps
//!   the one device worker parked between steps (started by the first step
//!   that ships work, ended with the pool's last handle); a step lends it
//!   at most two subgroups at a time, which it updates in place — their own
//!   ranges of the state and the FP16 output, not staged copies (`lend`,
//!   the crate's one `unsafe` module, is why that is sound);
//! * [`ZenFlowPipeline`] — the cross-iteration bounded-staleness driver, a
//!   different algorithm kept beside the hybrid step rather than inside it.
//!
//! ```
//! use dos_core::PerfModel;
//! use dos_hal::PerfModelInputs;
//!
//! // The paper's V100 validation (§5.4): k = 2, i.e. every alternate
//! // subgroup updates on the GPU.
//! let model = PerfModel::new(PerfModelInputs {
//!     b: 3.0e9, ug: 35.0e9, uc: 2.0e9, dc: 8.7e9,
//! });
//! assert_eq!(model.optimal_stride(), Some(2));
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`, for the sake of exactly one module: see `lend`.
#![deny(unsafe_code)]
// Library code on the fault-tolerant update path must surface failures as
// typed errors, never die on a stray unwrap; tests may assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
mod calibration;
mod explain;
#[allow(unsafe_code)]
mod lend;
mod nvme;
mod perf_model;
mod pipeline;
mod schedulers;
mod zenflow;
pub use dos_sync as sync;

pub use arena::{ArenaPool, PooledF16, PooledF32};
pub use calibration::{calibrate, calibrate_with, CalibrationReport, CalibrationSpread};
pub use explain::{explain_schedule, ScheduleExplanation};
pub use nvme::NvmeOffload;
pub use perf_model::{PerfModel, SweepOutcome};
pub use pipeline::{
    hybrid_update, hybrid_update_into, hybrid_update_pooled, take_fp16_buffer, DeviceFault,
    PipelineConfig, CPU_TRACK, DEVICE_TRACK, PipelineDegradation, PipelineError, PipelineReport,
};
pub use schedulers::{
    DeepOptimizerStates, StridePolicy, TwinFlow, UpdatePlan, ZenFlowAsync, Zero3Offload,
    DEFAULT_STRIDE,
};
pub use zenflow::{zenflow_reference, ZenFlowConfig, ZenFlowPipeline, ZenFlowStepReport};
