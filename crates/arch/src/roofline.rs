//! Roofline analysis: is a workload compute-bound on the photonic cores
//! or memory-bound on HBM?
//!
//! The paper's LLM discussion (Section VI-B) hinges on exactly this:
//! autoregressive decoding has such low arithmetic intensity that the
//! ultra-fast photonic cores sit idle behind the memory system. This
//! module computes the accelerator's ridge point and classifies traces.
//!
//! Two classification routes exist since the tile-schedule refactor:
//! the a-priori one here (arithmetic intensity vs. the ridge point,
//! from shapes alone) and the a-posteriori one on every simulator
//! report ([`crate::schedule::StallBreakdown::bound`], from where the
//! schedule actually spent its time). They agree on clear-cut
//! workloads; the stall route additionally sees dataflow-induced
//! refetch traffic the intensity route cannot.

use crate::config::ArchConfig;
use lt_core::Trace;

/// Which resource limits a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// The photonic cores are the bottleneck (good: optics paid off).
    Compute,
    /// The HBM link is the bottleneck (optics underutilized).
    Memory,
}

/// Roofline placement of one trace on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Arithmetic intensity of the trace, MACs per HBM byte.
    pub intensity: f64,
    /// The machine's ridge point, MACs per byte.
    pub ridge: f64,
    /// Attainable throughput, GMAC/s.
    pub attainable_gmacs: f64,
    /// Peak compute throughput, GMAC/s.
    pub peak_gmacs: f64,
    /// The binding resource.
    pub bound: Bound,
}

impl RooflinePoint {
    /// Fraction of peak compute the workload can reach.
    pub fn compute_utilization(&self) -> f64 {
        self.attainable_gmacs / self.peak_gmacs
    }
}

/// Places a trace on the configuration's roofline. Its HBM bytes are
/// its weights, once per op instance ([`Trace::weight_elems`]);
/// dynamic operands are assumed on-chip, matching the simulator's
/// model, and non-GEMM ops add neither MACs nor bytes. Note that a
/// batched [`lt_workloads::DecodeTrace`] represents the batch as extra
/// GEMM rows sharing one KV operand, so for per-sequence KV traffic use
/// [`lt_workloads::DecodeTrace::arithmetic_intensity`] instead.
///
/// # Panics
///
/// Panics if the trace contains no GEMM work.
pub fn analyze_trace(config: &ArchConfig, trace: &Trace) -> RooflinePoint {
    let macs = trace.total_macs();
    assert!(macs > 0, "cannot analyze a trace with no GEMM work");
    let bytes = (trace.weight_elems() as f64 * config.precision_bits as f64 / 8.0).max(1.0);
    place(config, macs as f64, bytes)
}

fn place(config: &ArchConfig, macs: f64, bytes: f64) -> RooflinePoint {
    let intensity = macs / bytes;
    let peak_macs_per_s = config.macs_per_cycle() as f64 * config.clock.to_hz();
    let ridge = peak_macs_per_s / config.hbm_bytes_per_s;

    let attainable = peak_macs_per_s.min(intensity * config.hbm_bytes_per_s);
    RooflinePoint {
        intensity,
        ridge,
        attainable_gmacs: attainable / 1e9,
        peak_gmacs: peak_macs_per_s / 1e9,
        bound: if intensity >= ridge {
            Bound::Compute
        } else {
            Bound::Memory
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_workloads::{DecodeTrace, TransformerConfig};

    fn decode_step(batch: usize) -> Trace {
        DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, batch).op_trace()
    }

    #[test]
    fn ridge_point_is_about_69_macs_per_byte() {
        // LT-B: 13824 MACs/cycle * 5 GHz = 69.1 TMAC/s over 1 TB/s.
        let cfg = ArchConfig::lt_base(4);
        let p = analyze_trace(&cfg, &TransformerConfig::deit_tiny().trace());
        assert!((p.ridge - 69.12).abs() < 0.1, "ridge {}", p.ridge);
    }

    #[test]
    fn batch_1_deit_inference_is_compute_bound() {
        // Activations are reused across all 197 tokens: intensity is high
        // enough that the photonic cores are the bottleneck.
        let cfg = ArchConfig::lt_base(4);
        let p = analyze_trace(&cfg, &TransformerConfig::deit_tiny().trace());
        assert_eq!(p.bound, Bound::Compute, "intensity {}", p.intensity);
        assert!(p.compute_utilization() > 0.99);
    }

    #[test]
    fn batch_1_decode_is_memory_bound() {
        // The paper's Section VI-B claim, now as a roofline fact.
        let p = analyze_trace(&ArchConfig::lt_base(8), &decode_step(1));
        assert_eq!(p.bound, Bound::Memory, "intensity {}", p.intensity);
        assert!(
            p.compute_utilization() < 0.05,
            "decode should waste >95% of the optics: {}",
            p.compute_utilization()
        );
    }

    #[test]
    fn batching_crosses_the_ridge() {
        let cfg = ArchConfig::lt_base(8);
        let b1 = analyze_trace(&cfg, &decode_step(1));
        let b256 = analyze_trace(&cfg, &decode_step(256));
        assert!(b256.intensity > 50.0 * b1.intensity);
        assert!(b256.compute_utilization() > b1.compute_utilization());
    }

    #[test]
    fn digital_ops_move_no_roofline_point() {
        let cfg = ArchConfig::lt_base(4);
        let trace = TransformerConfig::deit_tiny().trace();
        assert_eq!(
            analyze_trace(&cfg, &trace),
            analyze_trace(&cfg, &trace.gemm_only())
        );
    }

    #[test]
    fn infinite_bandwidth_makes_everything_compute_bound() {
        let cfg = ArchConfig::lt_base(8).unconstrained_memory();
        let p = analyze_trace(&cfg, &decode_step(1));
        assert_eq!(p.bound, Bound::Compute);
        assert_eq!(p.ridge, 0.0, "ridge collapses with no memory wall");
    }

    #[test]
    #[should_panic(expected = "no GEMM work")]
    fn ir_trace_without_gemms_rejected() {
        analyze_trace(&ArchConfig::lt_base(4), &Trace::new());
    }
}
