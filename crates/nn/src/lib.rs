//! # dos-nn — from-scratch transformer with manual backprop
//!
//! The functional model substrate of the *Deep Optimizer States*
//! reproduction. The paper trains GPT-family decoder models with
//! Megatron-LM/DeepSpeed; this crate provides an equivalent (tiny-scale)
//! transformer implemented from scratch in Rust — embeddings, pre-LN blocks
//! with causal multi-head attention and GELU MLPs, cross-entropy loss — with
//! hand-written backward passes verified by finite-difference gradient
//! checks.
//!
//! Two things matter for the reproduction:
//!
//! * every parameter is a range of one **flat parameter space**
//!   ([`Params`]: one weight buffer, one gradient buffer, in a stable
//!   order), which `dos-zero` shards into the optimizer *subgroups* the
//!   paper schedules across CPU and GPU and the collectives reduce and
//!   gather in place ([`VisitParams`] borrows it);
//! * [`ModelSpec`] captures the paper's 7B–20B evaluation zoo (Table 2) with
//!   the parameter/activation/FLOP formulas the simulator uses — the real
//!   numerics run on [`GptConfig::tiny`]-sized models.
//!
//! ```
//! use dos_nn::{Gpt, GptConfig, ModelSpec, VisitParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Functional path: a real trainable model.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Gpt::new(GptConfig::tiny(), &mut rng);
//! let loss = model.loss_and_backward(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
//! assert!(loss.is_finite());
//!
//! // Accounting path: the paper's 20B model.
//! let spec = ModelSpec::by_name("20B").unwrap();
//! assert!(spec.param_count() > 20_000_000_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
mod attention;
mod block;
mod embedding;
mod layernorm;
mod linear;
mod loss;
pub mod math;
mod mlp;
mod model;
mod param;
#[doc(hidden)]
pub mod testutil;

pub use arch::ModelSpec;
pub use attention::CausalSelfAttention;
pub use block::Block;
pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use loss::cross_entropy;
pub use mlp::Mlp;
pub use model::{Gpt, GptConfig};
pub use param::{Param, Params, VisitParams};
