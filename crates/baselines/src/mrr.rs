//! The MRR-bank baseline accelerator (\[52\], paper Section V-C).
//!
//! A weight-static incoherent design: each `k x k` bank of microring
//! resonators holds one weight block as intensity transmissions and
//! multiplies streamed input chunks (MVM). Its two structural handicaps
//! versus DPTC, both modeled here:
//!
//! 1. **Locking power** — every ring burns static locking power for the
//!    whole execution; the total locking energy scales with the total
//!    computation `m*d*n` and cannot be amortized (Fig. 11's dominant
//!    `op1-mod` bar).
//! 2. **Non-negative operands** — intensity modulation cannot encode
//!    signs, so full-range GEMMs decompose into
//!    `(X+ - X-)(Y+ - Y-)` and execute as **4 passes** with extra
//!    accumulation (the paper's ">2-4x hardware cost").

use crate::{gemm_dims, BaselineModelReport, BaselineReport};
use lt_core::Op;
use lt_photonics::constants::PTC_CLOCK_GHZ;
use lt_photonics::devices::{
    Adc, Dac, MachZehnderModulator, MicroringResonator, Photodetector, Tia,
};
use lt_photonics::units::{GigaHertz, MilliJoules, MilliWatts, Milliseconds};
use lt_workloads::TransformerConfig;

/// Full-range decomposition passes for signed x signed operands.
pub const FULL_RANGE_PASSES: u64 = 4;

/// Average per-ring locking power (half the 1.2 mW/0.5-FSR worst case,
/// assuming uniformly distributed weight detunings).
pub const AVG_LOCKING_MW: f64 = 0.6;

/// Chip area per bank *system* (bank + converters + buffers + control),
/// mm^2 — used to area-match against LT-B as the paper does.
pub const BANK_SYSTEM_MM2: f64 = 2.0;

/// SRAM traffic energy per operand byte (same hierarchy class as LT-B).
const OPERAND_PJ_PER_BYTE: f64 = 1.5;
/// HBM energy per byte.
const HBM_PJ_PER_BYTE: f64 = 40.0;

/// The MRR-bank accelerator model.
///
/// ```
/// use lt_baselines::MrrAccelerator;
/// let mrr = MrrAccelerator::paper_baseline(4);
/// assert_eq!(mrr.banks(), 30); // area-matched to LT-B's ~60 mm^2
/// ```
#[derive(Debug, Clone)]
pub struct MrrAccelerator {
    k: usize,
    banks: usize,
    bits: u32,
    clock: GigaHertz,
    dac: Dac,
    adc: Adc,
    tia: Tia,
    pd: Photodetector,
    mrr: MicroringResonator,
    input_mod: MachZehnderModulator,
}

impl MrrAccelerator {
    /// The paper's baseline: bank size 12, area-matched to LT-B
    /// (~60.3 mm^2 => 30 bank systems), at the given precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 16]`.
    pub fn paper_baseline(bits: u32) -> Self {
        Self::area_matched(12, 60.3, bits)
    }

    /// Builds an accelerator with as many bank systems as fit in
    /// `target_mm2`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, the target area fits no banks, or `bits` is out
    /// of range.
    pub fn area_matched(k: usize, target_mm2: f64, bits: u32) -> Self {
        assert!(k > 0, "bank size must be positive");
        assert!((2..=16).contains(&bits), "precision {bits} out of range");
        let banks = (target_mm2 / BANK_SYSTEM_MM2).floor() as usize;
        assert!(banks > 0, "target area {target_mm2} mm^2 fits no banks");
        MrrAccelerator {
            k,
            banks,
            bits,
            clock: GigaHertz(PTC_CLOCK_GHZ),
            dac: Dac::paper(),
            adc: Adc::paper(),
            tia: Tia::paper(),
            pd: Photodetector::paper(),
            mrr: MicroringResonator::paper(),
            input_mod: MachZehnderModulator::paper(),
        }
    }

    /// Bank (weight block) size `k`.
    pub fn bank_size(&self) -> usize {
        self.k
    }

    /// The numeric [`lt_core::ComputeBackend`] matching this
    /// accelerator's precision (4-pass non-negative decomposition), for
    /// accuracy experiments.
    pub fn compute_backend(&self) -> crate::backend::MrrBackend {
        crate::backend::MrrBackend::new(self.bits)
    }

    /// Number of bank systems.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Useful MACs per cycle after the 4-pass decomposition.
    pub fn effective_macs_per_cycle(&self) -> f64 {
        (self.banks * self.k * self.k) as f64 / FULL_RANGE_PASSES as f64
    }

    /// Simulates one GEMM (weights = the `k x n` right operand held in
    /// rings; inputs streamed), all of its instances.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a GEMM.
    pub fn simulate_op(&self, op: &Op) -> BaselineReport {
        let (_, m, d, n, count) = gemm_dims(op);
        let k = self.k as u64;
        let period = self.clock.period();

        let blocks = d.div_ceil(k) * n.div_ceil(k);
        let bank_invocations = blocks * m * FULL_RANGE_PASSES * count;
        let cycles = bank_invocations.div_ceil(self.banks as u64);
        let time = Milliseconds(cycles as f64 * period.value() * 1e-9);

        // Locking: every ring of every bank, for the whole execution.
        let lock_w = self.banks as f64 * (self.k * self.k) as f64 * AVG_LOCKING_MW / 1e3;
        let op1_mod = MilliJoules(lock_w * time.value());

        // Weight writes: W+ / W- sub-banks, rewritten per execution
        // (cheap for static weights, unavoidable for attention operands).
        let e_dac = self.dac.scaled_power(self.bits, self.clock) * period;
        let e_tune = self.mrr.tuning_power * period;
        let weight_writes = (d * n * 2 * count) as f64;
        let op1_dac = MilliJoules(weight_writes * (e_dac.value() + e_tune.value()) * 1e-9);

        // Input streaming: each input chunk re-modulated per column-block
        // and per decomposition pass.
        let e_mod = self.input_mod.tuning_power() * period;
        let input_loads = (m * d * n.div_ceil(k) * FULL_RANGE_PASSES * count) as f64;
        let op2_encode = MilliJoules(input_loads * (e_dac.value() + e_mod.value()) * 1e-9);

        // Detection + conversion: every pass produces partial outputs that
        // must be digitized (no analog accumulation in a WS design).
        let e_pd = self.pd.power * period;
        let e_tia = self.tia.power * period;
        let e_adc = self.adc.scaled_power(self.bits, self.clock) * period;
        let outputs = (m * n * d.div_ceil(k) * FULL_RANGE_PASSES * count) as f64;
        let det = MilliJoules(outputs * (e_pd.value() + e_tia.value()) * 1e-9);
        let adc = MilliJoules(outputs * e_adc.value() * 1e-9);

        // Incoherent link budget is short; laser is minor (Fig. 11).
        let laser_w = self.laser_power().value() / 1e3;
        let laser = MilliJoules(laser_w * time.value());

        // Data movement: inputs through SRAM, weights from HBM once,
        // outputs written back at accumulator width.
        let byte = self.bits as f64 / 8.0;
        let dm_pj = input_loads * byte * OPERAND_PJ_PER_BYTE
            + (d * n * count) as f64 * byte * HBM_PJ_PER_BYTE
            + (m * n * count) as f64 * 2.0 * OPERAND_PJ_PER_BYTE;
        let data_movement = MilliJoules(dm_pj * 1e-9);

        let energy = op1_mod + op1_dac + op2_encode + det + adc + laser + data_movement;
        BaselineReport {
            energy,
            latency: time,
            op1_mod,
            op1_dac,
            op2_encode,
            det,
            adc,
            laser,
            data_movement,
            reconfig_latency: Milliseconds(0.0),
        }
    }

    /// Simulates a model, split by module as in Table V.
    pub fn run_model(&self, model: &TransformerConfig) -> BaselineModelReport {
        BaselineModelReport::of(model, |op| self.simulate_op(op))
    }

    /// Electrical laser power (short incoherent link; sensitivity-limited).
    pub fn laser_power(&self) -> MilliWatts {
        let sens_per_ch = self.pd.sensitivity().value() / self.k as f64;
        let loss_db = 12.0; // modulator + ring + bus + margin
        let precision = 2f64.powi(self.bits as i32 - 4);
        let optical =
            (self.banks * self.k) as f64 * sens_per_ch * 10f64.powf(loss_db / 10.0) * precision;
        MilliWatts(optical / 0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deit_t_4bit_matches_table_v_bands() {
        // Paper Table V (MRR, 4-bit, DeiT-T): MHA 0.17 mJ / 0.03 ms,
        // FFN 0.89 mJ / 0.14 ms, All 1.54 mJ / 0.24 ms.
        let mrr = MrrAccelerator::paper_baseline(4);
        let r = mrr.run_model(&TransformerConfig::deit_tiny());
        let mha = r.mha.energy.value();
        let ffn = r.ffn.energy.value();
        let all = r.all.energy.value();
        assert!((0.07..0.4).contains(&mha), "MHA {mha} mJ");
        assert!((0.4..1.8).contains(&ffn), "FFN {ffn} mJ");
        assert!((0.7..3.0).contains(&all), "All {all} mJ");
        assert!(
            (0.015..0.06).contains(&r.mha.latency.value()),
            "MHA {} ms",
            r.mha.latency.value()
        );
        assert!(
            (0.07..0.28).contains(&r.ffn.latency.value()),
            "FFN {} ms",
            r.ffn.latency.value()
        );
        assert!(
            (0.12..0.48).contains(&r.all.latency.value()),
            "All {} ms",
            r.all.latency.value()
        );
    }

    #[test]
    fn locking_dominates_attention_energy() {
        // Fig. 11: op1-mod (locking) > 40% of the MRR attention energy.
        let mrr = MrrAccelerator::paper_baseline(4);
        let r = mrr.simulate_op(&Op::gemm_n(lt_core::OpKind::AttnQk, 197, 64, 197, 36));
        let share = r.op1_mod.value() / r.energy.value();
        assert!(share > 0.30, "locking share {share}");
    }

    #[test]
    fn decomposition_quadruples_bank_work() {
        let mrr = MrrAccelerator::paper_baseline(4);
        let macs_per_cycle = mrr.effective_macs_per_cycle();
        assert!((macs_per_cycle - 30.0 * 144.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn eight_bit_increases_energy_modestly() {
        // MRR has no laser explosion; 8-bit mostly raises DAC/ADC energy.
        // Paper: 1.54 -> 3.20 mJ (~2.1x).
        let m4 = MrrAccelerator::paper_baseline(4)
            .run_model(&TransformerConfig::deit_tiny())
            .all
            .energy
            .value();
        let m8 = MrrAccelerator::paper_baseline(8)
            .run_model(&TransformerConfig::deit_tiny())
            .all
            .energy
            .value();
        let ratio = m8 / m4;
        assert!((1.3..3.5).contains(&ratio), "8/4-bit ratio {ratio}");
    }

    #[test]
    fn latency_is_independent_of_precision() {
        let m4 = MrrAccelerator::paper_baseline(4).run_model(&TransformerConfig::deit_tiny());
        let m8 = MrrAccelerator::paper_baseline(8).run_model(&TransformerConfig::deit_tiny());
        assert!((m4.all.latency.value() - m8.all.latency.value()).abs() < 1e-12);
    }

    #[test]
    fn modules_sum_to_all() {
        let r = MrrAccelerator::paper_baseline(4).run_model(&TransformerConfig::deit_tiny());
        let sum = r.mha.energy.value() + r.ffn.energy.value() + r.other.energy.value();
        assert!((sum - r.all.energy.value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fits no banks")]
    fn tiny_area_rejected() {
        MrrAccelerator::area_matched(12, 0.5, 4);
    }
}
