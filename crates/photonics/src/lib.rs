//! Photonic device substrate for the Lightening-Transformer reproduction.
//!
//! This crate models the optical building blocks of the paper's accelerator
//! (HPCA 2024, arXiv:2305.19533): phase shifters, directional couplers,
//! Mach-Zehnder modulators, microring/microdisk resonators, photodetectors,
//! lasers, and the electrical converters (DAC/ADC/TIA) that surround them.
//!
//! Every device carries two things:
//!
//! 1. **Behaviour** — a complex-valued transfer function used by the
//!    circuit-level simulation in `lt-dptc` (our substitute for Lumerical
//!    INTERCONNECT), and
//! 2. **Cost** — the power / area / insertion-loss parameters of Table III of
//!    the paper, consumed by the architecture models in `lt-arch`.
//!
//! The crate also provides the WDM machinery (DWDM grid, coupling-length
//! dispersion, FSR-limited channel counts — Eq. 10 of the paper) and
//! optical link-budget accounting. The deterministic Gaussian noise
//! source lives in `lt-core` (`lt_core::GaussianSampler`).
//!
//! # Example
//!
//! ```
//! use lt_photonics::wdm::WavelengthGrid;
//! use lt_photonics::devices::DirectionalCoupler;
//!
//! // 12 DWDM channels at 0.4 nm spacing around 1550 nm, as in the paper.
//! let grid = WavelengthGrid::dwdm(12);
//! let dc = DirectionalCoupler::ideal_50_50();
//! // The coupling factor at the centre wavelength is exactly 1/2.
//! let kappa = dc.coupling_factor(grid.center_nm());
//! assert!((kappa - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod complex;
pub mod constants;
pub mod devices;
pub mod link_budget;
pub mod units;
pub mod wdm;

pub use complex::Complex;
pub use link_budget::LinkBudget;
pub use units::{Decibels, MilliWatts, Nanometers, SquareMicrometers};
pub use wdm::WavelengthGrid;
