//! # dos-optim — adaptive optimizers with mixed-precision, range-sharded state
//!
//! Optimizer substrate of the *Deep Optimizer States* reproduction. Three
//! things the paper depends on live here:
//!
//! * [`UpdateRule`] — Adam/AdamW/Adagrad/RMSProp as *element-wise* rules,
//!   which is the property (§4.1) that lets subgroups be updated in any
//!   order on any device without changing results;
//! * [`MixedPrecisionState`] — the host-resident FP32 master state
//!   (parameters, momentum, variance) with `update_range`,
//!   `snapshot_range`/`write_back_range` (Algorithm 1's prefetch/flush), and
//!   FP16 downscaling (`D_c` in the performance model);
//! * [`ModelOptimizer`] — the functional driver that trains real `dos-nn`
//!   models, with configurable gradient-precision paths mirroring Figure 6.
//!
//! The element-wise loops themselves live in [`kernels`]: chunked,
//! autovectorizable implementations (`U_c` in the performance model) that
//! are bit-identical to the retained scalar oracle
//! ([`UpdateRule::apply_reference`]), compiled at the baseline vector
//! width and again at AVX2 width, the host CPU choosing at run time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernels;
mod loss_scale;
mod model_opt;
mod rule;
mod schedule;
mod state;

pub use loss_scale::DynamicLossScaler;
pub use model_opt::{GradPrecision, ModelOptimizer};
pub use rule::UpdateRule;
pub use schedule::{clip_grad_norm, LrSchedule};
pub use state::MixedPrecisionState;
