//! Pure-Rust neural network stack for the Lightening-Transformer accuracy
//! experiments (paper Section V-E, Figs. 14-15).
//!
//! The paper trains low-bit DeiT/BERT models with noise-aware training and
//! evaluates them with every GEMM routed through the noisy analytic DPTC
//! transform (Eq. 9). Reproducing that end to end needs a training stack,
//! so this crate implements one from scratch:
//!
//! * [`tensor`] — the `f32` tensor alias over the workspace-wide
//!   [`lt_core::Matrix`]
//! * [`layers`] — Linear / LayerNorm / GELU / softmax with hand-written
//!   backward passes
//! * [`attention`] — multi-head self-attention (forward + backward)
//! * [`model`] — a tiny ViT for images and a tiny bidirectional text
//!   classifier (the DeiT / BERT stand-ins; see DESIGN.md Substitution 2)
//! * [`quant`] — symmetric fake-quantization with straight-through
//!   estimators (QAT)
//! * [`train`] — Adam, seeded mini-batch training, noise-aware training
//! * [`engine`] — thin `f32` adapters over the workspace's pluggable
//!   [`lt_core::ComputeBackend`]s: the exact fp32 [`engine::ExactEngine`]
//!   and the generic [`engine::BackendEngine`], which runs any backend —
//!   photonic (tiled through [`lt_dptc::DptcBackend`] with Eq. 9 noise),
//!   quantized-exact, or a baseline
//! * [`data`] — deterministic synthetic vision / text datasets
//! * [`serve`] — a batching, multi-threaded inference server: mixed
//!   DeiT/BERT-style requests coalesced through
//!   [`lt_runtime::BatchQueue`] and executed on worker threads over any
//!   backend (wrap it in [`lt_runtime::ParallelBackend`] for intra-GEMM
//!   parallelism); every [`serve::Reply`] carries the request's recorded
//!   op trace and its hardware cost ([`lt_arch::RunReport`])
//!
//! Forward passes speak the op-trace IR: a recording
//! [`layers::ForwardCtx`] owns an [`lt_core::Trace`], and the pass
//! records every GEMM (with its workload role) and every non-GEMM
//! element count into it while computing — the record half of the
//! record→replay pipeline that `lt_arch::Simulator::run_trace` completes.
//!
//! # Example
//!
//! ```
//! use lt_dptc::{DptcBackend, DptcConfig, Fidelity};
//! use lt_nn::engine::{BackendEngine, ExactEngine, MatmulEngine};
//! use lt_nn::tensor::Tensor;
//!
//! let a = Tensor::from_fn(4, 8, |i, j| ((i + j) as f32 * 0.1).sin());
//! let b = Tensor::from_fn(8, 3, |i, j| ((i * j) as f32 * 0.1).cos());
//! let exact = ExactEngine.matmul(&a, &b);
//! // A 12x12 core on 12 wavelengths, paper noise, 4-bit DACs.
//! let core = DptcConfig::new(12, 12, 12);
//! let backend = DptcBackend::new(core, Fidelity::paper_noisy(7), 4);
//! let mut photonic = BackendEngine::new(backend, 7);
//! let noisy = photonic.matmul(&a, &b);
//! // The photonic result tracks the exact one to within analog error.
//! let err = exact.max_abs_diff(&noisy);
//! assert!(err < 0.8, "photonic matmul error {err}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![allow(clippy::needless_range_loop)] // index loops are the idiom for matrix kernels

pub mod attention;
pub mod checkpoint;
pub mod data;
pub mod decode;
pub mod engine;
pub mod kv;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod quant;
pub mod serve;
pub mod tensor;
pub mod train;

pub use decode::{
    DecodeReply, DecodeSession, DecoderConfig, DecoderLm, DraftLm, KvCache, SessionConfig,
    SpecOutcome, SpecSessionStats, SpecStepReport,
};
pub use engine::{BackendEngine, ExactEngine, MatmulEngine};
pub use kv::{BlockPool, KvLayer, ModelKv, PagedKvCache, PreemptPolicy, PrefixIndex};
pub use model::{TextClassifier, VisionTransformer};
pub use quant::{IntegerQuant, QuantConfig};
pub use serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer, SpecConfig};
pub use serve::lifecycle::{RequestLifecycle, RequestOutcome, ServingReport, SloFrontend};
pub use serve::sched::{KvScheduler, KvServeConfig};
pub use serve::{Reply, Request, ServeConfig, Server};
pub use tensor::Tensor;
