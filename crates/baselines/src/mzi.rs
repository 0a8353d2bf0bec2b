//! The MZI-array baseline accelerator (\[47\], paper Section V-C).
//!
//! A weight-static *coherent* design: each `N x N` Clements mesh of MZIs
//! realizes a unitary; a weight block is programmed as `U S V^T` after an
//! SVD + phase decomposition. Its handicaps, all modeled here:
//!
//! 1. **Mapping cost** — every weight block needs an SVD (we measure our
//!    own Jacobi SVD; the paper quotes ~1.5 ms per 12x12 on a CPU). For
//!    dynamic attention operands this is unaffordable, so the paper (and
//!    this model) delegates MHA to an MRR bank.
//! 2. **Reconfiguration stalls** — programming the low-loss MEMS phase
//!    shifters takes 2 us per block, ~10,000 photonic cycles.
//! 3. **Laser power** — insertion loss grows linearly in dB (so
//!    exponentially in power) with mesh depth: ~2N cascaded stages make
//!    the laser >75% of total energy (Fig. 11 right).
//! 4. **MVM only, single wavelength** — far fewer MACs per cycle per area.

use crate::mrr::MrrAccelerator;
use crate::{gemm_dims, BaselineModelReport, BaselineReport};
use lt_core::{Module, Op, OperandDynamics};
use lt_photonics::constants::PTC_CLOCK_GHZ;
use lt_photonics::devices::{Adc, Dac, Laser, MemsPhaseShifter, Photodetector, Tia};
use lt_photonics::units::{Decibels, GigaHertz, MilliJoules, MilliWatts, Milliseconds};
use lt_workloads::TransformerConfig;

/// Insertion loss of one MZI stage (two couplers + two phase shifters).
pub const MZI_STAGE_LOSS_DB: f64 = 1.32;

/// System loss margin, dB (same margin class as the LT link budget).
const MARGIN_DB: f64 = 8.0;

/// Area of one MZI-array core *system* (mesh + converters + buffers),
/// mm^2. MZIs are bulky (~300 x 100 um each; ~2 N^2 of them per mesh),
/// which is why only a few cores fit (paper Section V-C).
pub const CORE_SYSTEM_MM2: f64 = 10.0;

/// SRAM traffic energy per operand byte.
const OPERAND_PJ_PER_BYTE: f64 = 1.5;
/// HBM energy per byte.
const HBM_PJ_PER_BYTE: f64 = 40.0;

/// The MZI-array accelerator model (with an embedded MRR bank for the
/// attention products it cannot run).
///
/// ```
/// use lt_baselines::MziAccelerator;
/// let mzi = MziAccelerator::paper_baseline(4);
/// assert_eq!(mzi.cores(), 6); // area-matched to LT-B
/// // Mesh loss: ~2N stages of 1.32 dB.
/// assert!(mzi.mesh_loss().value() > 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct MziAccelerator {
    n: usize,
    cores: usize,
    bits: u32,
    clock: GigaHertz,
    dac: Dac,
    adc: Adc,
    tia: Tia,
    pd: Photodetector,
    laser: Laser,
    mems: MemsPhaseShifter,
    mha_fallback: MrrAccelerator,
}

impl MziAccelerator {
    /// The paper's baseline: 12x12 meshes, area-matched to LT-B
    /// (~60.3 mm^2 => 6 core systems), MHA delegated to the MRR bank.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 16]`.
    pub fn paper_baseline(bits: u32) -> Self {
        Self::area_matched(12, 60.3, bits)
    }

    /// Builds an accelerator with as many core systems as fit in
    /// `target_mm2`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, no cores fit, or `bits` is out of range.
    pub fn area_matched(n: usize, target_mm2: f64, bits: u32) -> Self {
        assert!(n > 0, "mesh size must be positive");
        assert!((2..=16).contains(&bits), "precision {bits} out of range");
        let cores = (target_mm2 / CORE_SYSTEM_MM2).floor() as usize;
        assert!(cores > 0, "target area {target_mm2} mm^2 fits no cores");
        MziAccelerator {
            n,
            cores,
            bits,
            clock: GigaHertz(PTC_CLOCK_GHZ),
            dac: Dac::paper(),
            adc: Adc::paper(),
            tia: Tia::paper(),
            pd: Photodetector::paper(),
            laser: Laser::paper(),
            mems: MemsPhaseShifter::paper(),
            mha_fallback: MrrAccelerator::paper_baseline(bits),
        }
    }

    /// Number of core systems.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// End-to-end mesh insertion loss: `U` and `V^T` sections of `N`
    /// stages each, plus the diagonal.
    pub fn mesh_loss(&self) -> Decibels {
        Decibels((2 * self.n + 1) as f64 * MZI_STAGE_LOSS_DB)
    }

    /// Electrical laser power: every input port must deliver the detector
    /// sensitivity through the full mesh loss (single wavelength — no WDM
    /// sharing of the sensitivity floor).
    pub fn laser_power(&self) -> MilliWatts {
        let loss = Decibels(self.mesh_loss().value() + MARGIN_DB);
        let precision = 2f64.powi(self.bits as i32 - 4);
        let per_port = self.pd.sensitivity().value() / loss.to_linear();
        let optical = (self.cores * self.n) as f64 * per_port * precision;
        self.laser.electrical_power(MilliWatts(optical))
    }

    /// Simulates one *weight-static* GEMM on the meshes.
    ///
    /// # Panics
    ///
    /// Panics if called with a dynamic (attention) op — those must go to
    /// [`MziAccelerator::run_model`], which delegates them to the MRR bank
    /// — or with a non-GEMM op.
    pub fn run_static_op(&self, op: &Op) -> BaselineReport {
        let (kind, m, d, n, count) = gemm_dims(op);
        assert_eq!(
            kind.dynamics(),
            OperandDynamics::WeightStatic,
            "MZI meshes cannot execute dynamic MMs (paper Challenge 1)"
        );
        let nn = self.n as u64;
        let period = self.clock.period();

        // Weight blocks to program; each serves all m input rows (MVM).
        let blocks = d.div_ceil(nn) * n.div_ceil(nn) * count;
        let compute_cycles = (blocks * m).div_ceil(self.cores as u64);
        let compute_ms = compute_cycles as f64 * period.value() * 1e-9;
        // MEMS reconfiguration stalls: blocks programmed round-robin over
        // the cores; programming cannot overlap its own core's compute.
        let reconfig_ms =
            blocks.div_ceil(self.cores as u64) as f64 * self.mems.response_time_s * 1e3;
        let latency = Milliseconds(compute_ms + reconfig_ms);

        // Laser burns during compute (gated during reconfig - generous).
        let laser = MilliJoules(self.laser_power().value() / 1e3 * compute_ms);

        // Static operand: 2 N^2 phases per block (U and V), DAC-written.
        let e_dac = self.dac.scaled_power(self.bits, self.clock) * period;
        let phase_writes = (blocks * 2 * nn * nn) as f64;
        let op1_dac = MilliJoules(phase_writes * e_dac.value() * 1e-9);
        // MEMS holds at zero power: no locking term (its cost is latency).
        let op1_mod = MilliJoules(0.0);

        // Dynamic input: re-streamed per column-block group.
        let input_loads = (m * d * n.div_ceil(nn) * count) as f64;
        let e_mod = lt_photonics::devices::MachZehnderModulator::paper().tuning_power() * period;
        let op2_encode = MilliJoules(input_loads * (e_dac.value() + e_mod.value()) * 1e-9);

        // Detection and conversion: coherent full-range => single pass.
        let outputs = (m * n * d.div_ceil(nn) * count) as f64;
        let e_pd = self.pd.power * period;
        let e_tia = self.tia.power * period;
        let e_adc = self.adc.scaled_power(self.bits, self.clock) * period;
        let det = MilliJoules(outputs * (e_pd.value() + e_tia.value()) * 1e-9);
        let adc = MilliJoules(outputs * e_adc.value() * 1e-9);

        let byte = self.bits as f64 / 8.0;
        let dm_pj = input_loads * byte * OPERAND_PJ_PER_BYTE
            + (d * n * count) as f64 * byte * HBM_PJ_PER_BYTE
            + (m * n * count) as f64 * 2.0 * OPERAND_PJ_PER_BYTE;
        let data_movement = MilliJoules(dm_pj * 1e-9);

        let energy = laser + op1_dac + op1_mod + op2_encode + det + adc + data_movement;
        BaselineReport {
            energy,
            latency,
            op1_mod,
            op1_dac,
            op2_encode,
            det,
            adc,
            laser,
            data_movement,
            reconfig_latency: Milliseconds(reconfig_ms),
        }
    }

    /// Simulates a model: weight-static GEMMs on the meshes, dynamic
    /// attention products on the embedded MRR bank (as the paper assumes).
    pub fn run_model(&self, model: &TransformerConfig) -> BaselineModelReport {
        BaselineModelReport::of(model, |op| match op.module() {
            Module::Mha => self.mha_fallback.simulate_op(op),
            Module::Ffn | Module::Other => self.run_static_op(op),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::OpKind;

    #[test]
    fn deit_t_4bit_matches_table_v_bands() {
        // Paper Table V (MZI, 4-bit, DeiT-T): FFN 1.47 mJ / 6.27 ms,
        // All 2.98 mJ / 12.37 ms.
        let mzi = MziAccelerator::paper_baseline(4);
        let r = mzi.run_model(&TransformerConfig::deit_tiny());
        let ffn = r.ffn.energy.value();
        let all = r.all.energy.value();
        assert!((0.7..3.2).contains(&ffn), "FFN {ffn} mJ");
        assert!((1.5..6.0).contains(&all), "All {all} mJ");
        let ffn_ms = r.ffn.latency.value();
        let all_ms = r.all.latency.value();
        assert!((3.0..13.0).contains(&ffn_ms), "FFN latency {ffn_ms} ms");
        assert!((6.0..26.0).contains(&all_ms), "All latency {all_ms} ms");
    }

    #[test]
    fn reconfiguration_dominates_latency() {
        // 2 us MEMS programming x thousands of blocks >> compute time.
        let mzi = MziAccelerator::paper_baseline(4);
        let op = Op::gemm_n(OpKind::Ffn1, 197, 192, 768, 12);
        let r = mzi.run_static_op(&op);
        assert!(
            r.reconfig_latency.value() / r.latency.value() > 0.9,
            "reconfig share {}",
            r.reconfig_latency.value() / r.latency.value()
        );
    }

    #[test]
    fn laser_dominates_energy() {
        // Fig. 11 right: laser > 75% of the MZI linear-layer energy.
        let mzi = MziAccelerator::paper_baseline(4);
        let op = Op::gemm(OpKind::Ffn1, 197, 192, 768);
        let r = mzi.run_static_op(&op);
        let share = r.laser.value() / r.energy.value();
        assert!(share > 0.6, "laser share {share}");
    }

    #[test]
    fn eight_bit_explodes_laser_energy() {
        // Paper: MZI DeiT-T all-energy goes 2.98 -> 37.18 mJ (12.5x) from
        // 4-bit to 8-bit, driven by the exponential laser scaling.
        let e4 = MziAccelerator::paper_baseline(4)
            .run_model(&TransformerConfig::deit_tiny())
            .all
            .energy
            .value();
        let e8 = MziAccelerator::paper_baseline(8)
            .run_model(&TransformerConfig::deit_tiny())
            .all
            .energy
            .value();
        let ratio = e8 / e4;
        assert!((5.0..16.0).contains(&ratio), "8/4-bit energy ratio {ratio}");
    }

    #[test]
    fn mesh_loss_grows_linearly_in_db() {
        let small = MziAccelerator::area_matched(8, 60.0, 4).mesh_loss().value();
        let large = MziAccelerator::area_matched(16, 60.0, 4)
            .mesh_loss()
            .value();
        assert!((large - small - 8.0 * 2.0 * MZI_STAGE_LOSS_DB).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot execute dynamic")]
    fn dynamic_ops_rejected_on_meshes() {
        let mzi = MziAccelerator::paper_baseline(4);
        mzi.run_static_op(&Op::gemm(OpKind::AttnQk, 8, 8, 8));
    }
}
