//! # dos-tensor — mixed-precision numerics
//!
//! The numerics the *Deep Optimizer States* reproduction moves and updates
//! parameters with: FP32 optimizer state, FP16 parameters (the paper's §1;
//! §4.1 "PCIe transfers with higher precision", Figure 6, Table 1).
//! [`F16`] is a software IEEE half, bit-exact (round-to-nearest-even,
//! verified exhaustively over all 65 536 bit patterns), so mixed-precision
//! rounding behaves as it would on real FP16 hardware.
//!
//! The [`kernels`] module holds the FP32↔FP16 slice conversions every hot
//! path calls: branchless, autovectorizable twins of [`F16`]'s scalar
//! conversions, bit-identical to them, and the scalar code remains the
//! reference the conformance harness checks against. Where the host
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
//! use dos_tensor::{kernels, F16};
//!
//! // FP32 master weights -> FP16 device copy, as in mixed-precision training.
//! let master = [0.1f32, 0.2, 0.3, 0.4];
//! let mut device = [F16::ZERO; 4];
//! kernels::downscale(&master, &mut device);
//! assert_eq!(device[0], F16::from_f32(0.1));
//! assert_eq!(std::mem::size_of_val(&device), std::mem::size_of_val(&master) / 2);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`, for the sake of exactly one module: see `simd`.
#![deny(unsafe_code)]

mod f16;
pub mod kernels;
#[allow(unsafe_code)]
pub mod simd;

pub use f16::F16;
