//! The Lightening-Transformer core contribution: **DDot** and **DPTC**.
//!
//! * [`DDot`] is a dynamically-operated, full-range optical dot-product
//!   engine (paper Section III-A): both operands are encoded as coherent
//!   WDM signals, interfere in a 50:50 directional coupler behind a -90
//!   degree phase shifter, and are read out by balanced photodetection.
//!   The differential photocurrent carries the signed dot product in one
//!   shot — no weight mapping, no device programming, no non-negative
//!   decomposition.
//! * [`Dptc`] tiles DDot units into a crossbar (Section III-B) that
//!   computes an `[Nh, N_lambda] x [N_lambda, Nv]` matrix product per cycle
//!   while broadcasting each modulated operand to a whole row/column of
//!   units, amortizing the encoding cost (Eq. 6).
//!
//! Simulation fidelity is a *value*, not a method: [`Fidelity`] selects
//! between exact arithmetic, the paper's analytic Eq. 9 noise transfer,
//! and circuit-level field propagation, all behind the same
//! [`Dptc::matmul`] / [`Dptc::gemm`] API. [`DptcBackend`] additionally
//! exposes the core as a pluggable [`lt_core::ComputeBackend`] so the
//! whole workspace (NN engines, baselines, experiments) can swap compute
//! physics without touching algorithm code.
//!
//! # Example
//!
//! ```
//! use lt_core::Matrix64;
//! use lt_dptc::{Dptc, DptcConfig, Fidelity, NoiseModel};
//!
//! let core = Dptc::new(DptcConfig::lt_paper()); // 12 x 12 x 12
//! let a = Matrix64::from_fn(12, 12, |_, _| 0.25);
//! let b = Matrix64::from_fn(12, 12, |_, _| -0.5);
//! let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
//! assert!((ideal.get(0, 0) - 12.0 * 0.25 * -0.5).abs() < 1e-12);
//!
//! let noisy = core.matmul(a.view(), b.view(), &Fidelity::paper_noisy(7));
//! let err = (noisy.get(0, 0) - ideal.get(0, 0)).abs();
//! assert!(err < 0.5, "noise is bounded at the paper's operating point");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![allow(clippy::needless_range_loop)] // index loops are the idiom for matrix kernels

pub mod backend;
pub mod circuit;
pub mod ddot;
pub mod dptc;
pub mod faults;
pub mod noise_model;

pub use backend::{DptcBackend, Fidelity};
pub use circuit::DdotCircuit;
pub use ddot::DDot;
pub use dptc::{Dptc, DptcConfig, EncodingCost};
pub use faults::{ChannelFault, FaultSet};
pub use noise_model::NoiseModel;
