//! Foundation crate for the Lightening-Transformer workspace.
//!
//! Everything that computes a matrix product in this repository — the
//! DPTC photonic tensor core, the MZI/MRR/PCM baselines, and the NN
//! stack's engines — shares two abstractions defined here:
//!
//! * [`Matrix`] / [`MatrixView`] — a single flat, contiguous, row-major
//!   matrix type (with [`Matrix64`] / [`Matrix32`] aliases), borrow-based
//!   views/slices, and a cache-friendly shared matmul kernel. This
//!   replaces the seed's two incompatible representations (ragged
//!   `Vec<Vec<f64>>` and a separate `f32` tensor).
//! * [`ComputeBackend`] — the pluggable GEMM provider trait. Fidelity and
//!   physics are selected by swapping the backend, not by calling a
//!   different method: `gemm(a, b, ctx)` is the whole contract, with
//!   batched ([`ComputeBackend::gemm_batch`]) and accumulating
//!   ([`ComputeBackend::gemm_accumulate`]) entry points layered on top.
//! * [`trace`] — the op-trace IR ([`Op`], [`Trace`]): a
//!   hardware-agnostic record of what a workload executed, emitted as
//!   a side effect of real execution (via [`RunCtx::recording`] and
//!   [`ComputeBackend::gemm_traced`]) or derived analytically, and
//!   replayed by `lt-arch`'s simulator to cost the run.
//!
//! The crate also hosts [`noise::GaussianSampler`], the deterministic
//! noise source every stochastic model draws from, and [`RunCtx`], the
//! seed-streaming context that keeps stochastic backends reproducible.
//!
//! # Example: one workload, two backends
//!
//! ```
//! use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
//!
//! let a = Matrix64::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 * 0.1).sin());
//! let b = Matrix64::from_fn(8, 8, |i, j| ((i + j) as f64 * 0.1).cos());
//!
//! // Any ComputeBackend can serve the product; swap freely.
//! let backends: Vec<Box<dyn ComputeBackend>> = vec![Box::new(NativeBackend)];
//! let mut ctx = RunCtx::new(42);
//! for be in &backends {
//!     let out = be.gemm(a.view(), b.view(), &mut ctx);
//!     assert_eq!(out.shape(), (8, 8));
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod kernel;
pub mod matrix;
pub mod noise;
pub mod quant;
pub mod trace;

pub use backend::{
    blocked_gemm, blocked_gemm_with_seed, row_blocks, split_seed, ComputeBackend, NativeBackend,
    RunCtx,
};
pub use matrix::{reference_gemm, Matrix, Matrix32, Matrix64, MatrixView, OperandMemo, Scalar};
pub use noise::GaussianSampler;
pub use quant::{quantized_gemm, GroupAxis, QuantizedMatrix, Quantizer};
pub use trace::{Module, NonGemmKind, Op, OpKind, OperandDynamics, Trace};
