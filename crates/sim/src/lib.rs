//! # dos-sim — training-iteration simulator
//!
//! Simulates whole training iterations of the *Deep Optimizer States*
//! evaluation on the calibrated hardware of `dos-hal`:
//!
//! * [`TrainConfig`] — model (Table 2 zoo), machine profile, ZeRO stage,
//!   micro-batching, offload configuration, and gradient path (Figure 6's
//!   legacy FP16 flush vs. the paper's FP32-on-GPU conversion);
//! * [`IterationScenario`] — submits the forward pass (ZeRO-3 all-gathers +
//!   GEMMs + activation tracking) and backward pass (recompute, backward
//!   GEMMs, reduce-scatter, gradient flush) and exposes the update-phase
//!   primitives (CPU/GPU subgroup updates, downscale, prefetch/flush over
//!   dedicated streams) that `dos-core`'s schedulers compose;
//! * [`UpdateScheduler`] + the two drivers — [`simulate_iteration_with`]
//!   (one iteration on a fresh engine; [`IterationOptions`] pick the rank,
//!   a fault plan and a tracer) and [`simulate_training_with`]
//!   (back-to-back iterations in one engine, optional checkpoint policy in,
//!   multi-iteration timeline out), with [`simulate_iteration`] /
//!   [`simulate_training`] as their short forms — producing
//!   [`IterationReport`]s with phase breakdowns, achieved TFLOP/s, update
//!   throughput, memory peaks/OOM, and utilization timelines — the raw
//!   material of Figures 2–4 and 7–17.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod report;
mod scenario;
mod runner;

pub use config::{GradientPath, TrainConfig};
pub use report::{IterationReport, ResourceUtilization, TrainingReport};
pub use runner::{
    simulate_iteration, simulate_iteration_with, simulate_training, simulate_training_with,
    CheckpointPolicy, IterationOptions, UpdateScheduler,
};
pub use scenario::{FlushHandles, IterationScenario};
