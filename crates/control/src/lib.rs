//! # dos-control — adaptive feedback control plane
//!
//! The paper solves Equation 1 *once*, from standalone calibration runs,
//! and pins the update stride `k` for the whole training job. This crate
//! closes the loop instead: it watches the spans every iteration actually
//! produced, maintains online estimates of Equation 1's four inputs, and
//! retunes the schedule while training runs.
//!
//! The control loop is a classic estimator → solver → hysteresis →
//! actuator pipeline:
//!
//! * [`InputEstimators`] — per-input EWMA estimators of `U_c`, `U_g`, `B`
//!   (per PCIe direction), and `D_c`, fed from either clock: simulated
//!   interval logs ([`InputEstimators::observe_sim_timeline`]) or
//!   wall-clock spans from a traced `dos_core::hybrid_update_pooled` step
//!   ([`InputEstimators::observe_wall_events`]), whose update spans fuse
//!   the downscale, so wall `D_c` is pinned. Observed CPU throughputs
//!   are divided by the known DRAM-contention factor while interleaving is
//!   active, so the estimates stay comparable to the paper's standalone
//!   measurements.
//! * [`RetuneLoop`] — the one "hold k → sweep → approve → move" loop: the
//!   held stride, the cooldown clock, and a move to the sweep's winner
//!   only when the *predicted* gain clears the [`SweepGate`]'s hysteresis
//!   band after its cooldown (so `k` never oscillates). The [`Controller`],
//!   the [`WallClockTuner`] and `dos-serve`'s per-tenant control all drive
//!   it; each keeps its own decision text and counters.
//! * [`Controller`] — implements the [`IterationController`] hook of
//!   [`simulate_training_controlled`] (a loop of fresh-engine
//!   `dos_sim::simulate_iteration_with` runs, one per planned iteration):
//!   re-sweeps Equation 1 on the current estimates each iteration, runs
//!   the retune loop on its `Dos` rung, sizes the GPU-resident tail
//!   against observed `MemoryPool` headroom ([`ResidentPolicy`]), and
//!   drives the degradation ladder ([`LadderRung`]: DOS → residents-only →
//!   CPU-only) as explicit state transitions *with recovery edges*.
//! * [`race_adaptive_vs_static`] — the experiment driver: races the
//!   adaptive controller against the paper's static `StridePolicy::Auto`
//!   under a pinned, iteration-indexed fault plan ([`DegradationSpec`])
//!   and reports both arms' update times plus the full decision log.
//! * [`WallClockTuner`] — the functional-trainer variant: the same
//!   retune loop fed purely from wall-clock pipeline spans (CPU-only is
//!   one of the strides it may hold), used by `dos-runtime` when a config
//!   selects `"adaptive"` stride.
//!
//! Every decision is recorded as a [`ControlDecision`] and, when a tracer
//! is attached, as a `control:*` instant on the dedicated `control` track
//! (`dos_telemetry::CONTROL_TRACK`), so retunes and ladder transitions are
//! visible next to the schedule they changed in the exported Perfetto
//! trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The control plane sits on the training path: failures must surface as
// values, not panics; tests may assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod controller;
mod driver;
mod estimator;
mod gate;

pub use controller::{
    ControlDecision, Controller, ControllerConfig, DecisionKind, LadderRung, ResidentPolicy,
    WallClockTuner, WallClockTunerConfig,
};
pub use driver::{
    fault_plan_for, race_adaptive_vs_static, simulate_training_controlled, ControlledIteration,
    DegradationSpec, IterationController, RaceReport,
};
pub use estimator::{Ewma, InputEstimators};
pub use gate::{RetuneLoop, StrideMove, SweepGate};
