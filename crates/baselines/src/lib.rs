//! Baseline accelerators for the Lightening-Transformer evaluation.
//!
//! * [`svd`] — one-sided Jacobi SVD, the operand-mapping step the MZI
//!   baseline must run for every weight tile (we *measure* it rather than
//!   assume it).
//! * [`mzi`] — the weight-static coherent MZI-array accelerator \[47\]:
//!   SVD + phase decomposition per tile, 2 us MEMS reconfiguration, laser
//!   power exponential in mesh depth, MVM-only.
//! * [`mrr`] — the weight-static incoherent MRR-bank accelerator \[52\]:
//!   per-ring locking power scaling with total computation, non-negative
//!   operands requiring 4-pass full-range decomposition, MVM-only.
//! * [`electronic`] — analytic models of the CPU/GPU/TPU/FPGA platforms of
//!   Fig. 13, calibrated to the paper's published ratios.
//! * [`comparison`] — the qualitative PTC feature matrix of Table I.
//! * [`backend`] — numeric [`lt_core::ComputeBackend`] implementations of
//!   every baseline, so baseline-vs-DPTC accuracy comparisons are a
//!   backend swap rather than a parallel code path.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod comparison;
pub mod electronic;
pub mod mrr;
pub mod mzi;
pub mod pcm;
pub mod svd;

pub use backend::{MrrBackend, MziBackend, PcmBackend, SvdBackend};
pub use comparison::{ptc_design_table, PtcDesign};
pub use electronic::ElectronicPlatform;
pub use mrr::MrrAccelerator;
pub use mzi::MziAccelerator;
pub use pcm::PcmAccelerator;
pub use svd::jacobi_svd;

use lt_core::{Module, Op, OpKind};
use lt_photonics::units::{MilliJoules, Milliseconds};
use lt_workloads::TransformerConfig;

/// A baseline's per-workload result in the paper's Table V quantities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineReport {
    /// Total energy.
    pub energy: MilliJoules,
    /// Total latency.
    pub latency: Milliseconds,
    /// Energy spent holding/locking the static operand (`op1-mod`).
    pub op1_mod: MilliJoules,
    /// Energy spent writing the static operand (`op1-DAC`).
    pub op1_dac: MilliJoules,
    /// Energy encoding the dynamic operand (`op2-DAC` + `op2-mod`).
    pub op2_encode: MilliJoules,
    /// Detection energy (photodetectors + TIAs).
    pub det: MilliJoules,
    /// A/D conversion energy.
    pub adc: MilliJoules,
    /// Laser energy.
    pub laser: MilliJoules,
    /// SRAM/HBM data movement energy.
    pub data_movement: MilliJoules,
    /// Time lost to operand mapping / device reprogramming.
    pub reconfig_latency: Milliseconds,
}

impl BaselineReport {
    /// Energy-delay product, mJ * ms.
    pub fn edp(&self) -> f64 {
        self.energy.value() * self.latency.value()
    }

    /// Merges another report (sequential execution).
    pub fn merge(&mut self, other: &BaselineReport) {
        self.energy += other.energy;
        self.latency += other.latency;
        self.op1_mod += other.op1_mod;
        self.op1_dac += other.op1_dac;
        self.op2_encode += other.op2_encode;
        self.det += other.det;
        self.adc += other.adc;
        self.laser += other.laser;
        self.data_movement += other.data_movement;
        self.reconfig_latency += other.reconfig_latency;
    }
}

/// A baseline's per-model result, split by module as in Table V
/// (mirroring `lt_arch::ModelReport`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineModelReport {
    /// The dynamic attention products (`Q K^T`, `A V`) only.
    pub mha: BaselineReport,
    /// The FFN linears only.
    pub ffn: BaselineReport,
    /// Projections, embeddings and the classifier.
    pub other: BaselineReport,
    /// Total.
    pub all: BaselineReport,
}

impl BaselineModelReport {
    /// Costs every GEMM of `model`'s analytical trace with `cost_op`, in
    /// trace order, and sums the costs per module. The baselines model
    /// the photonic datapath only, so the trace's digital ops are left
    /// out.
    pub(crate) fn of(
        model: &TransformerConfig,
        mut cost_op: impl FnMut(&Op) -> BaselineReport,
    ) -> Self {
        let mut r = BaselineModelReport::default();
        for op in model.trace().gemm_only().ops() {
            let cost = cost_op(op);
            match op.module() {
                Module::Mha => r.mha.merge(&cost),
                Module::Ffn => r.ffn.merge(&cost),
                Module::Other => r.other.merge(&cost),
            }
        }
        for part in [r.mha, r.ffn, r.other] {
            r.all.merge(&part);
        }
        r
    }
}

/// The role and `(m, k, n, instances)` of a GEMM op, widened to `u64`.
///
/// # Panics
///
/// Panics if `op` is not a GEMM: the baselines model the photonic
/// datapath only.
pub(crate) fn gemm_dims(op: &Op) -> (OpKind, u64, u64, u64, u64) {
    match *op {
        Op::Gemm {
            kind,
            m,
            k,
            n,
            instances,
        } => (kind, m as u64, k as u64, n as u64, instances as u64),
        Op::NonGemm { .. } => panic!("the photonic baselines cost GEMMs only, not {op:?}"),
    }
}
