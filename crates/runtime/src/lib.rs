//! `lt-runtime`: the multi-threaded batched-inference runtime.
//!
//! The paper's throughput story rests on exploiting parallelism — `Nt`
//! tiles x `Nc` DPTC cores operating concurrently with operand broadcast
//! (Section IV, Fig. 5) — while amortizing weight loading across a batch
//! of inputs. This crate is the software analogue of that execution
//! layer, built on `std` only (the container has no crates.io access):
//!
//! * [`BatchQueue`] — a FIFO request-coalescing queue: concurrent
//!   inference submissions drain in ticket order as batches, mirroring
//!   how the accelerator amortizes per-layer weight loading across a
//!   batch of requests.
//! * [`Workers`] — the one thread shell: `count` named threads draining
//!   one `BatchQueue`, closed and joined on drop. A [`Job`] carries its
//!   reply sender, and [`Workers::request`] returns a [`Pending`] reply.
//!   The pool below and both servers in `lt_nn::serve` run on it.
//! * [`ThreadPool`] — a fixed-size pool of `'static` jobs on `Workers`.
//! * [`ParallelBackend`] — wraps any [`lt_core::ComputeBackend`] and
//!   partitions every GEMM into the canonical
//!   [`lt_core::backend::row_blocks`] work items, dispatched across its
//!   own pool, which every clone shares. It is itself a
//!   `ComputeBackend`, so it drops into `lt_nn::BackendEngine` or the
//!   servers unchanged: a server given one fans every GEMM of every
//!   worker out over that one pool.
//! * [`loadgen`] — a seeded open/closed-loop load generator (Poisson
//!   and Markov-modulated bursty arrivals, mixed length and
//!   [`SloClass`] distributions) plus latency percentile helpers, for
//!   exercising the serving stack deterministically.
//!
//! # Determinism under parallelism
//!
//! Every row block of a GEMM owns a noise stream rooted at
//! [`lt_core::backend::split_seed`]`(call_seed, block_index)`, so results
//! never depend on which thread computes which block. For any backend
//! and thread count, [`ParallelBackend`] is bit-identical to the
//! sequential [`lt_core::blocked_gemm`]; for backends whose plain `gemm`
//! is itself the blocked loop (`lt_dptc::DptcBackend` at every
//! `Fidelity` variant, exact backends like [`lt_core::NativeBackend`])
//! it is bit-identical to the wrapped backend, enforced by
//! `tests/runtime_determinism.rs`.
//!
//! ```
//! use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
//! use lt_runtime::ParallelBackend;
//!
//! let a = Matrix64::from_fn(64, 32, |i, j| ((i + j) as f64 * 0.1).sin());
//! let b = Matrix64::from_fn(32, 48, |i, j| ((i * j) as f64 * 0.1).cos());
//! let parallel = ParallelBackend::new(NativeBackend, 4);
//! let got = parallel.gemm(a.view(), b.view(), &mut RunCtx::new(7));
//! let want = NativeBackend.gemm(a.view(), b.view(), &mut RunCtx::new(7));
//! assert_eq!(got, want, "parallel == sequential, bit for bit");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod loadgen;
pub mod parallel;
pub mod pool;

pub use batch::{BatchQueue, Job, Pending, Workers};
pub use loadgen::{ArrivalModel, GenRequest, LengthMix, LoadgenConfig, SloClass, SloMix};
pub use parallel::{ParallelBackend, MIN_PARALLEL_MACS};
pub use pool::ThreadPool;
