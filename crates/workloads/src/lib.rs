//! Transformer workload models for the Lightening-Transformer evaluation.
//!
//! The accelerator simulators in `lt-arch` and `lt-baselines` consume
//! op traces in the shared IR ([`lt_core::Trace`]): matrix
//! multiplications with shapes, instance counts and roles (which fix
//! their operand dynamics and Table V module), plus the digital
//! non-GEMM work. This crate generates those traces for the paper's
//! benchmarks — the DeiT vision Transformers on 224x224 ImageNet shapes
//! and BERT on configurable sequence lengths — plus the sparse-attention
//! and autoregressive-LLM extensions of the paper's Section VI.
//!
//! # Example
//!
//! ```
//! use lt_core::Module;
//! use lt_workloads::TransformerConfig;
//! let deit_t = TransformerConfig::deit_tiny();
//! let trace = deit_t.trace();
//! let mha_macs: u64 = trace.ops().iter()
//!     .filter(|op| op.module() == Module::Mha)
//!     .map(|op| op.total_macs())
//!     .sum();
//! assert!(mha_macs > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod llm;
pub mod model;
pub mod nonlinear;
pub mod sparse;

pub use llm::DecodeTrace;
pub use model::TransformerConfig;
pub use nonlinear::NonGemmProfile;
pub use sparse::WindowAttention;
