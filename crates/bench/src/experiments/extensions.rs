//! Extension experiments beyond the paper's printed figures: the
//! wavelength-scaling discussion of Section V-B, an ablation of the
//! analog temporal-accumulation depth (Section IV-C2), the heterogeneous
//! core search of Section VI-A, and a quantitative evaluation of the PCM
//! crossbar that Table I only compares qualitatively.

use lt_arch::search::search_core_geometry;
use lt_arch::{ArchConfig, PowerBreakdown, Simulator};
use lt_baselines::PcmAccelerator;
use lt_core::{OperandDynamics, Trace};
use lt_dptc::DptcConfig;
use lt_workloads::{DecodeTrace, TransformerConfig};
use std::fmt::Write;

/// Wavelength scaling (paper Section V-B): widen the core's spectral
/// parallelism up to the 112-channel FSR bound and watch latency fall.
pub fn ext_lambda() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Wavelength scaling: LT-B with N_lambda up to the 112-channel FSR bound"
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "Nlambda", "latency (ms)", "energy (mJ)", "power (W)", "EDP"
    )
    .unwrap();
    let model = TransformerConfig::deit_tiny();
    let mut prev_latency = f64::INFINITY;
    for nlambda in [12usize, 24, 48, 96, 112] {
        let mut cfg = ArchConfig::lt_base(4);
        cfg.name = format!("LT-B/{nlambda}lambda");
        cfg.core = DptcConfig::new(12, 12, nlambda);
        let power = PowerBreakdown::for_config(&cfg).total().value();
        let r = Simulator::new(cfg).run_model(&model);
        writeln!(
            out,
            "{nlambda:>8} {:>12.5} {:>12.3} {:>12.2} {:>12.5}",
            r.all.latency.value(),
            r.all.energy.total().value(),
            power,
            r.all.edp()
        )
        .unwrap();
        assert!(r.all.latency.value() <= prev_latency + 1e-12);
        prev_latency = r.all.latency.value();
    }
    writeln!(
        out,
        "(more wavelengths -> fewer inner-dimension tiles -> lower latency; the\n\
         robustness to dispersion shown in Fig. 3/14 is what makes this scaling safe)"
    )
    .unwrap();
    out
}

/// Ablation: analog temporal-accumulation depth (paper uses depth 3).
pub fn ext_accum() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: analog temporal accumulation depth (A/D fires once per window)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>7} {:>14} {:>16} {:>14}",
        "depth", "ADC power (W)", "ADC energy (mJ)", "total (mJ)"
    )
    .unwrap();
    let model = TransformerConfig::deit_tiny();
    let mut prev_adc = f64::INFINITY;
    for depth in [1u32, 2, 3, 4, 6, 8] {
        let mut cfg = ArchConfig::lt_base(8); // 8-bit: ADC cost is visible
        cfg.opts.analog_temporal_accum = depth > 1;
        cfg.opts.temporal_accum_depth = depth;
        let power = PowerBreakdown::for_config(&cfg);
        let r = Simulator::new(cfg).run_model(&model);
        writeln!(
            out,
            "{depth:>7} {:>14.3} {:>16.4} {:>14.3}",
            power.adc.value(),
            r.all.energy.adc.value(),
            r.all.energy.total().value()
        )
        .unwrap();
        assert!(r.all.energy.adc.value() <= prev_adc + 1e-12);
        prev_adc = r.all.energy.adc.value();
    }
    writeln!(
        out,
        "(each extra accumulation step divides conversions; returns diminish once\n\
         the ADC stops being a bottleneck - the paper picks depth 3)"
    )
    .unwrap();
    out
}

/// Heterogeneous core search (paper Section VI-A): dense DeiT vs a
/// decode attention trace prefer very different geometries.
pub fn ext_search() -> String {
    let mut out = String::new();
    let budget = 120.0;

    writeln!(
        out,
        "Core-geometry search (area budget {budget} mm^2, N_lambda = 12)"
    )
    .unwrap();
    writeln!(out, "\ndense DeiT-T trace:").unwrap();
    let dense = TransformerConfig::deit_tiny().trace().gemm_only();
    writeln!(
        out,
        "{:<16} {:>10} {:>12} {:>12} {:>8}",
        "core", "area", "latency(ms)", "EDP", "util"
    )
    .unwrap();
    for c in search_core_geometry(&dense, budget, 12, 4).iter().take(5) {
        writeln!(
            out,
            "{:<16} {:>10.1} {:>12.5} {:>12.5} {:>7.0}%",
            c.config.name,
            c.area_mm2,
            c.latency_ms,
            c.edp,
            c.utilization * 100.0
        )
        .unwrap();
    }

    writeln!(
        out,
        "\ndecode attention trace (GPT-like q.K^T / a.V against a 512-token KV, m = 1):"
    )
    .unwrap();
    let step = DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, 1).op_trace();
    let decode = Trace::from_ops(
        step.ops()
            .iter()
            .filter(|op| op.dynamics() == Some(OperandDynamics::BothDynamic))
            .copied()
            .collect(),
    );
    writeln!(
        out,
        "{:<16} {:>10} {:>12} {:>12} {:>8}",
        "core", "area", "latency(ms)", "EDP", "util"
    )
    .unwrap();
    for c in search_core_geometry(&decode, budget, 12, 4).iter().take(5) {
        writeln!(
            out,
            "{:<16} {:>10.1} {:>12.6} {:>12.6} {:>7.0}%",
            c.config.name,
            c.area_mm2,
            c.latency_ms,
            c.edp,
            c.utilization * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "(dense GEMMs want a big square core; m = 1 decode wants the paper's\n\
         narrow-Nh vector-matrix engine - heterogeneous DPTCs cover both)"
    )
    .unwrap();
    out
}

/// Quantitative PCM-crossbar evaluation (Table I row 2, not in the paper's
/// numeric tables).
pub fn ext_pcm() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "PCM crossbar vs LT-B on DeiT-T (4-bit) - quantifying Table I row 2"
    )
    .unwrap();
    let model = TransformerConfig::deit_tiny();
    let pcm = PcmAccelerator::paper_matched(4).run_model(&model);
    let lt = Simulator::new(ArchConfig::lt_base(4)).run_model(&model);
    writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>14}",
        "module", "PCM E (mJ)", "PCM L (ms)", "write-stall %"
    )
    .unwrap();
    for (name, r) in [("MHA", &pcm.mha), ("FFN", &pcm.ffn), ("All", &pcm.all)] {
        writeln!(
            out,
            "{:<8} {:>12.3} {:>12.4} {:>13.0}%",
            name,
            r.energy.value(),
            r.latency.value(),
            r.reconfig_latency.value() / r.latency.value() * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "vs LT-B: {:.1}x energy, {:.0}x latency",
        pcm.all.energy.value() / lt.all.energy.total().value(),
        pcm.all.latency.value() / lt.all.latency.value()
    )
    .unwrap();
    writeln!(
        out,
        "(non-volatile cells avoid MRR-style locking power, but runtime PCM writes\n\
         stall attention and the 4-pass positive-only decomposition taxes everything -\n\
         consistent with Table I scoring PCM 'no' on both dynamic and full-range MM)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_scaling_reduces_latency() {
        let t = ext_lambda();
        assert!(t.contains("112"));
    }

    #[test]
    fn accumulation_depth_cuts_adc_energy() {
        let t = ext_accum();
        assert!(t.contains("depth 3"));
    }

    #[test]
    fn search_reports_both_traces() {
        let t = ext_search();
        assert!(t.contains("dense DeiT-T trace"));
        assert!(t.contains("decode attention trace"));
    }

    #[test]
    fn pcm_report_quantifies_stalls() {
        let t = ext_pcm();
        assert!(t.contains("write-stall"));
        assert!(t.contains("vs LT-B"));
    }
}
