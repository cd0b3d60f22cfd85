//! # dos-tensor — tensors and mixed-precision numerics
//!
//! Storage substrate for the *Deep Optimizer States* reproduction: dense
//! row-major [`Tensor`]s backed by FP32, software-emulated IEEE [`F16`], or
//! [`Bf16`], plus the chunk-wise precision-conversion kernels
//! ([`convert`]) that the paper's optimized gradient path relies on
//! (§4.1 "PCIe transfers with higher precision", Figure 6, Table 1).
//!
//! The half-precision types are bit-exact (round-to-nearest-even, verified
//! exhaustively over all 65 536 bit patterns), so mixed-precision rounding
//! behaves as it would on real FP16 hardware. The [`kernels`] module holds
//! branchless, autovectorizable twins of the conversions, bit-identical to
//! the scalar oracle and used by every hot path; the scalar code remains
//! the reference the conformance harness checks against. Where the host
//! CPU reports AVX2 and F16C, the downscale (`D_c`) runs on `vcvtps2ph`
//! and the upscale on `vcvtph2ps` instead, and where it reports AVX-512F
//! and FMA, `dos-nn`'s matrix products run their full 4-row × 64-column
//! blocks on [`simd::gemm_tile`], and its `tanh` and `exp` run
//! lane-for-lane ports of glibc 2.36's `tanhf` and `expf` ([`simd::tanh`],
//! [`simd::exp`]) instead of libm — same bits, chosen at run time, both
//! named by [`kernels::dispatch_path`]. [`simd`] is this crate's one
//! module allowed to contain `unsafe`; everything it exports is safe.
//!
//! ```
//! use dos_tensor::{Tensor, DType, F16};
//!
//! // FP32 master weights -> FP16 device copy, as in mixed-precision training.
//! let master = Tensor::from_vec(&[4], vec![0.1, 0.2, 0.3, 0.4])?;
//! let device = master.to_dtype(DType::F16);
//! assert_eq!(device.size_bytes(), master.size_bytes() / 2);
//! # Ok::<(), dos_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`, for the sake of exactly one module: see `simd`.
#![deny(unsafe_code)]

mod bf16;
pub mod convert;
mod dtype;
mod error;
mod f16;
pub mod kernels;
#[allow(unsafe_code)]
pub mod simd;
mod tensor;

pub use bf16::Bf16;
pub use dtype::DType;
pub use error::TensorError;
pub use f16::F16;
pub use tensor::Tensor;
