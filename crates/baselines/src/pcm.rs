//! The PCM-crossbar baseline accelerator (\[16\], Table I row 2) — an
//! *extension*: the paper compares against it qualitatively (Table I) but
//! not quantitatively; we model it so the full Table I can be evaluated.
//!
//! Phase-change-material crossbars store weights as non-volatile
//! transmission states: unlike the MRR bank there is **zero** static
//! locking power, and the crossbar computes one-shot MM. The structural
//! handicaps (per Table I):
//!
//! 1. **Positive-only operands on both sides** — full-range GEMMs need the
//!    4-pass `(X+ - X-)(Y+ - Y-)` decomposition.
//! 2. **Medium mapping cost** — PCM programming is non-volatile but slow
//!    (10 ns - 10 us per cell, paper Section II-C) and costs real write
//!    energy, so *dynamic* operands (attention) stall the machine the same
//!    way the MZI mesh does.

use crate::{gemm_dims, BaselineModelReport, BaselineReport};
use lt_core::{Op, OperandDynamics};
use lt_photonics::constants::PTC_CLOCK_GHZ;
use lt_photonics::devices::{Adc, Dac, MachZehnderModulator, Photodetector, Tia};
use lt_photonics::units::{GigaHertz, MilliJoules, Milliseconds};
use lt_workloads::TransformerConfig;

/// Full-range decomposition passes (both operands positive-only).
pub const FULL_RANGE_PASSES: u64 = 4;

/// PCM cell programming time, seconds (mid of the paper's 10 ns - 10 us
/// range; a whole block programs its rows in parallel).
pub const PCM_WRITE_TIME_S: f64 = 100e-9;

/// PCM cell write energy, picojoules (amorphization/crystallization pulse).
pub const PCM_WRITE_PJ: f64 = 50.0;

/// Area per crossbar system (crossbar + converters + buffers), mm^2.
pub const CROSSBAR_SYSTEM_MM2: f64 = 1.5;

/// SRAM traffic energy per operand byte.
const OPERAND_PJ_PER_BYTE: f64 = 1.5;
/// HBM energy per byte.
const HBM_PJ_PER_BYTE: f64 = 40.0;

/// The PCM-crossbar accelerator model.
///
/// ```
/// use lt_baselines::PcmAccelerator;
/// let pcm = PcmAccelerator::paper_matched(4);
/// assert_eq!(pcm.crossbars(), 40); // area-matched to LT-B
/// ```
#[derive(Debug, Clone)]
pub struct PcmAccelerator {
    k: usize,
    crossbars: usize,
    bits: u32,
    clock: GigaHertz,
    dac: Dac,
    adc: Adc,
    tia: Tia,
    pd: Photodetector,
    input_mod: MachZehnderModulator,
}

impl PcmAccelerator {
    /// Area-matched to LT-B (~60.3 mm^2), crossbar size 12.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 16]`.
    pub fn paper_matched(bits: u32) -> Self {
        Self::area_matched(12, 60.3, bits)
    }

    /// Builds an accelerator with as many crossbar systems as fit in
    /// `target_mm2`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, no crossbars fit, or `bits` is out of range.
    pub fn area_matched(k: usize, target_mm2: f64, bits: u32) -> Self {
        assert!(k > 0, "crossbar size must be positive");
        assert!((2..=16).contains(&bits), "precision {bits} out of range");
        let crossbars = (target_mm2 / CROSSBAR_SYSTEM_MM2).floor() as usize;
        assert!(
            crossbars > 0,
            "target area {target_mm2} mm^2 fits no crossbars"
        );
        PcmAccelerator {
            k,
            crossbars,
            bits,
            clock: GigaHertz(PTC_CLOCK_GHZ),
            dac: Dac::paper(),
            adc: Adc::paper(),
            tia: Tia::paper(),
            pd: Photodetector::paper(),
            input_mod: MachZehnderModulator::paper(),
        }
    }

    /// Crossbar (weight block) size `k`.
    pub fn crossbar_size(&self) -> usize {
        self.k
    }

    /// The numeric [`lt_core::ComputeBackend`] matching this
    /// accelerator's precision (discrete conductance levels + programming
    /// variability), for accuracy experiments.
    pub fn compute_backend(&self) -> crate::backend::PcmBackend {
        crate::backend::PcmBackend::paper(self.bits)
    }

    /// Number of crossbar systems.
    pub fn crossbars(&self) -> usize {
        self.crossbars
    }

    /// Simulates one GEMM. Static weights amortize their (slow, costly)
    /// programming across the whole inference; dynamic operands must be
    /// reprogrammed at runtime and stall the machine.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a GEMM.
    pub fn simulate_op(&self, op: &Op) -> BaselineReport {
        let (kind, m, d, n, count) = gemm_dims(op);
        let k = self.k as u64;
        let period = self.clock.period();

        // One-shot MM: a crossbar multiplies a [k, k] block by a [k, k]
        // input chunk per cycle.
        let blocks = d.div_ceil(k) * n.div_ceil(k);
        let invocations = blocks * m.div_ceil(k) * FULL_RANGE_PASSES * count;
        let compute_cycles = invocations.div_ceil(self.crossbars as u64);
        let compute_ms = compute_cycles as f64 * period.value() * 1e-9;

        // Programming: W+/W- sub-arrays per block. Static weights program
        // once per inference pass over the blocks; dynamic operands
        // reprogram for every fresh operand value (every execution).
        let writes = blocks * 2 * count;
        let write_stall_ms = match kind.dynamics() {
            // Writes round-robin across crossbars; each stalls its own
            // array only, but attention cannot hide them behind compute
            // because the operand is needed immediately.
            OperandDynamics::BothDynamic => {
                writes.div_ceil(self.crossbars as u64) as f64 * PCM_WRITE_TIME_S * 1e3
            }
            // Static weights: programmed while the previous block computes
            // (double buffering amortizes all but the first).
            OperandDynamics::WeightStatic => {
                (writes.div_ceil(self.crossbars as u64) as f64 * PCM_WRITE_TIME_S * 1e3)
                    .max(compute_ms)
                    - compute_ms
            }
        };
        let latency = Milliseconds(compute_ms + write_stall_ms);

        // Write energy is charged per programmed cell regardless.
        let cell_writes = (d * n * 2 * count) as f64;
        let op1_mod = MilliJoules(cell_writes * PCM_WRITE_PJ * 1e-9);
        let e_dac = self.dac.scaled_power(self.bits, self.clock) * period;
        let op1_dac = MilliJoules(cell_writes * e_dac.value() * 1e-9);

        // Input streaming, 4 passes.
        let e_mod = self.input_mod.tuning_power() * period;
        let input_loads = (m * d * n.div_ceil(k) * FULL_RANGE_PASSES * count) as f64;
        let op2_encode = MilliJoules(input_loads * (e_dac.value() + e_mod.value()) * 1e-9);

        // Detection/conversion, 4 passes.
        let e_pd = self.pd.power * period;
        let e_tia = self.tia.power * period;
        let e_adc = self.adc.scaled_power(self.bits, self.clock) * period;
        let outputs = (m * n * d.div_ceil(k) * FULL_RANGE_PASSES * count) as f64;
        let det = MilliJoules(outputs * (e_pd.value() + e_tia.value()) * 1e-9);
        let adc = MilliJoules(outputs * e_adc.value() * 1e-9);

        // Short incoherent link; laser minor.
        let laser = MilliJoules(0.01 * compute_ms);

        let byte = self.bits as f64 / 8.0;
        let dm_pj = input_loads * byte * OPERAND_PJ_PER_BYTE
            + (d * n * count) as f64 * byte * HBM_PJ_PER_BYTE
            + (m * n * count) as f64 * 2.0 * OPERAND_PJ_PER_BYTE;
        let data_movement = MilliJoules(dm_pj * 1e-9);

        let energy = op1_mod + op1_dac + op2_encode + det + adc + laser + data_movement;
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
            reconfig_latency: Milliseconds(write_stall_ms),
        }
    }

    /// Simulates a model, split by module.
    pub fn run_model(&self, model: &TransformerConfig) -> BaselineModelReport {
        BaselineModelReport::of(model, |op| self.simulate_op(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::OpKind;

    #[test]
    fn attention_is_stall_dominated() {
        // Dynamic operands force runtime PCM writes: reprogramming must
        // dominate MHA latency (Table I's "no dynamic MM support").
        let pcm = PcmAccelerator::paper_matched(4);
        let r = pcm.run_model(&TransformerConfig::deit_tiny());
        let share = r.mha.reconfig_latency.value() / r.mha.latency.value();
        assert!(share > 0.5, "MHA write-stall share {share}");
    }

    #[test]
    fn static_weights_overlap_writes_with_compute() {
        // Same shape, static vs dynamic: the static op overlaps PCM writes
        // with compute (latency = max), the dynamic op serializes them
        // (latency = sum), so static must be strictly faster.
        let pcm = PcmAccelerator::paper_matched(4);
        let stat = pcm.simulate_op(&Op::gemm_n(OpKind::Ffn1, 197, 192, 768, 12));
        let dynamic = pcm.simulate_op(&Op::gemm_n(OpKind::AttnAv, 197, 192, 768, 12));
        assert!(
            stat.latency.value() < dynamic.latency.value(),
            "static {} ms vs dynamic {} ms",
            stat.latency.value(),
            dynamic.latency.value()
        );
    }

    #[test]
    fn writes_bound_short_workloads() {
        // With only 197 reuse rows per block, Transformer linears are
        // *write-bandwidth-bound* on PCM: the stall exceeds half the total
        // latency. (CNN kernels with huge reuse would amortize this; the
        // Transformer shapes don't - another reason PCM fits CNNs better.)
        let pcm = PcmAccelerator::paper_matched(4);
        let op = Op::gemm_n(OpKind::Ffn1, 197, 192, 768, 12);
        let r = pcm.simulate_op(&op);
        let share = r.reconfig_latency.value() / r.latency.value();
        assert!(share > 0.5, "FFN write-stall share {share}");
    }

    #[test]
    fn no_locking_power_but_write_energy_instead() {
        // PCM pays per write, not per cycle: op1_mod must scale with the
        // weight volume, not with runtime.
        let pcm = PcmAccelerator::paper_matched(4);
        let small = pcm.simulate_op(&Op::gemm(OpKind::Ffn1, 10, 48, 48));
        let big = pcm.simulate_op(&Op::gemm(OpKind::Ffn1, 100_000, 48, 48));
        assert!(
            (small.op1_mod.value() - big.op1_mod.value()).abs() < 1e-12,
            "write energy is independent of the streamed rows"
        );
        assert!(big.latency.value() > small.latency.value());
    }

    #[test]
    fn four_pass_decomposition_applies() {
        // Use a compute-bound shape (huge reuse) so the cycle count is
        // visible, then check the 4-pass invocation math.
        let pcm = PcmAccelerator::paper_matched(4);
        let m = 48_000u64;
        let op = Op::gemm(OpKind::Ffn1, m as usize, 48, 48);
        let r = pcm.simulate_op(&op);
        let invocations = 4u64 * 4 * m.div_ceil(12) * 4; // blocks * m-chunks * passes
        let cycles = invocations.div_ceil(40);
        let expect_ms = cycles as f64 * 200e-12 * 1e3;
        assert!(
            (r.latency.value() - expect_ms).abs() / expect_ms < 0.05,
            "latency {} vs expected {}",
            r.latency.value(),
            expect_ms
        );
    }

    #[test]
    fn worse_than_nothing_on_attention_vs_mrr() {
        // The MRR bank (dynamic-capable) must beat PCM on attention latency.
        use crate::mrr::MrrAccelerator;
        let pcm = PcmAccelerator::paper_matched(4).run_model(&TransformerConfig::deit_tiny());
        let mrr = MrrAccelerator::paper_baseline(4).run_model(&TransformerConfig::deit_tiny());
        assert!(pcm.mha.latency.value() > mrr.mha.latency.value());
    }

    #[test]
    #[should_panic(expected = "fits no crossbars")]
    fn tiny_area_rejected() {
        PcmAccelerator::area_matched(12, 0.1, 4);
    }
}
