//! Device- and circuit-level experiments (Table I, Fig. 3, Fig. 6,
//! Eq. 6, Eq. 10, and the SVD mapping-cost measurement).

use lt_baselines::comparison::{ptc_design_table, MappingCost, OperationType};
use lt_baselines::svd::{jacobi_svd, measure_mapping_seconds, reconstruct};
use lt_core::{GaussianSampler, Quantizer};
use lt_dptc::{DdotCircuit, Dptc, DptcConfig, NoiseModel};
use lt_photonics::units::{Nanometers, TeraHertz};
use lt_photonics::wdm::{max_channels_in_fsr, DispersionModel, WavelengthGrid};
use std::fmt::Write;

/// Table I: qualitative PTC design comparison.
pub fn table1() -> String {
    let mut out = String::new();
    writeln!(out, "Table I: PTC design comparison").unwrap();
    writeln!(
        out,
        "{:<20} {:>24} {:>24} {:>8} {:>5} {:>11} {:>11}",
        "design", "operand 1", "operand 2", "mapping", "op", "dynamic MM", "full range"
    )
    .unwrap();
    for d in ptc_design_table() {
        writeln!(
            out,
            "{:<20} {:>24} {:>24} {:>8} {:>5} {:>11} {:>11}",
            d.name,
            d.operand1.to_string(),
            d.operand2.to_string(),
            match d.mapping_cost {
                MappingCost::High => "High",
                MappingCost::Medium => "Medium",
                MappingCost::Low => "Low",
            },
            match d.operation {
                OperationType::Mm => "MM",
                OperationType::Mvm => "MVM",
            },
            if d.supports_dynamic_mm() { "yes" } else { "NO" },
            if d.supports_full_range_without_overhead() {
                "yes"
            } else {
                "NO"
            },
        )
        .unwrap();
    }
    out
}

/// Fig. 3: coupling factor and phase-shifter response across a
/// 25-wavelength DWDM sweep.
pub fn fig3() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 3: dispersion across 25 DWDM channels (0.4 nm spacing)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>10} {:>12}",
        "lambda (nm)", "kappa", "phase (deg)"
    )
    .unwrap();
    let grid = WavelengthGrid::dwdm(25);
    let d = DispersionModel::paper();
    let mut max_kappa_rel = 0.0f64;
    let mut max_phase_err = 0.0f64;
    for &lambda in grid.wavelengths_nm() {
        let kappa = d.coupling_factor(lambda);
        let phase = d
            .phase_shift(-std::f64::consts::FRAC_PI_2, lambda)
            .to_degrees();
        max_kappa_rel = max_kappa_rel.max((kappa - 0.5).abs() / 0.5);
        max_phase_err = max_phase_err.max((phase + 90.0).abs());
        writeln!(out, "{lambda:>12.2} {kappa:>10.5} {phase:>12.3}").unwrap();
    }
    writeln!(
        out,
        "max relative kappa deviation: {:.2}% (paper: ~1.8%)",
        max_kappa_rel * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "max dispersion-induced phase error: {max_phase_err:.3} deg (paper: 0.28 deg)"
    )
    .unwrap();
    out
}

/// Fig. 6: circuit-level random length-12 dot products at the paper's
/// noise point, 4-bit and 8-bit.
pub fn fig6() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 6: optical simulation of random length-12 dot products"
    )
    .unwrap();
    writeln!(
        out,
        "(circuit-level DDot, sigma_mag = 0.03, sigma_phase = 2 deg, dispersion on)"
    )
    .unwrap();
    let circuit = DdotCircuit::paper(12);
    let nm = NoiseModel::paper_default();
    let mut rng = GaussianSampler::new(2024);
    for bits in [4u32, 8] {
        let q = Quantizer::new(bits);
        let trials = 2000;
        let mut ratios: Vec<f64> = Vec::with_capacity(trials);
        let mut err_sum = 0.0;
        for t in 0..trials {
            let x: Vec<f64> = (0..12)
                .map(|_| q.quantize_unit(rng.uniform_in(-1.0, 1.0)))
                .collect();
            let y: Vec<f64> = (0..12)
                .map(|_| q.quantize_unit(rng.uniform_in(-1.0, 1.0)))
                .collect();
            let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = circuit.dot_noisy(&x, &y, &nm, 7000 + t as u64);
            err_sum += (got - exact).abs();
            if exact.abs() > 0.25 {
                ratios.push(got / exact);
            }
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| ratios[((ratios.len() - 1) as f64 * p) as usize];
        let mean_err_pct = err_sum / trials as f64 / 12.0 * 100.0;
        writeln!(
            out,
            "{bits}-bit: sim/ideal ratio p5 {:.3}  median {:.3}  p95 {:.3}; mean |err|/N = {:.2}% (paper: {}%)",
            pct(0.05),
            pct(0.5),
            pct(0.95),
            mean_err_pct,
            if bits == 4 { "2.6" } else { "3.4" },
        )
        .unwrap();
    }
    out
}

/// Eq. 6: intra-core operand-sharing gain.
pub fn eq6() -> String {
    let mut out = String::new();
    writeln!(out, "Eq. 6: encoding cost per one-shot MM").unwrap();
    writeln!(
        out,
        "{:>4} {:>4} {:>4} {:>14} {:>14} {:>8}",
        "Nh", "Nv", "Nl", "shared", "unshared", "saving"
    )
    .unwrap();
    for (nh, nv, nl) in [
        (12, 12, 12),
        (8, 8, 8),
        (24, 24, 24),
        (12, 24, 12),
        (1, 12, 12),
    ] {
        let core = Dptc::new(DptcConfig::new(nh, nv, nl));
        let c = core.encoding_cost();
        writeln!(
            out,
            "{nh:>4} {nv:>4} {nl:>4} {:>14} {:>14} {:>7.2}x",
            c.shared,
            c.unshared,
            c.saving_factor()
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: Nh = Nv = Nl = 12 gives 12x less encoding cost)"
    )
    .unwrap();
    out
}

/// Eq. 10: how many DWDM channels fit inside the microdisk FSR.
pub fn eq10() -> String {
    let b = max_channels_in_fsr(TeraHertz(5.6), Nanometers(1550.0), Nanometers(0.4));
    format!(
        "Eq. 10: FSR = 5.6 THz around 1550 nm\n\
         lambda_l = {:.2} nm (paper: 1527.88), lambda_r = {:.2} nm (paper: 1572.76)\n\
         channels at 0.4 nm spacing: {} (paper: up to 112)\n",
        b.lambda_left_nm, b.lambda_right_nm, b.channels
    )
}

/// Measures the MZI baseline's per-tile operand-mapping cost with our own
/// Jacobi SVD, and relates it to the photonic cycle time.
pub fn svd_mapping() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "MZI operand mapping cost (one-sided Jacobi SVD, 12x12)"
    )
    .unwrap();
    // Correctness spot check first.
    let a: Vec<f64> = (0..144)
        .map(|i| ((i * 37 % 100) as f64 / 50.0) - 1.0)
        .collect();
    let svd = jacobi_svd(&a, 12, 12);
    let back = reconstruct(&svd, 12, 12);
    let max_err = a
        .iter()
        .zip(&back)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    writeln!(
        out,
        "reconstruction max error: {max_err:.2e} ({} sweeps)",
        svd.sweeps
    )
    .unwrap();
    let secs = measure_mapping_seconds(12, 200);
    let cycles = secs / 200e-12;
    writeln!(
        out,
        "measured SVD time: {:.1} us/tile = {:.0} photonic cycles at 5 GHz",
        secs * 1e6,
        cycles
    )
    .unwrap();
    writeln!(
        out,
        "(paper reports ~1.5 ms/tile incl. phase decomposition on a CPU; even our\n\
         optimized in-process SVD costs thousands of lost cycles per remap, and the\n\
         2 us MEMS programming adds 10,000 cycles on top - dynamic MM is infeasible)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_marks_dptc_as_the_only_full_solution() {
        let t = table1();
        assert!(t.contains("DPTC (ours)"));
        let dptc_line = t.lines().find(|l| l.contains("DPTC")).unwrap();
        assert_eq!(dptc_line.matches("yes").count(), 2);
    }

    #[test]
    fn fig3_reports_paper_deviations() {
        let t = fig3();
        assert!(t.contains("paper: ~1.8%"));
        assert!(t.lines().count() > 25, "one row per wavelength");
    }

    #[test]
    fn fig6_errors_in_paper_band() {
        let t = fig6();
        // Extract the mean errors and check they are low single digits.
        for line in t.lines().filter(|l| l.contains("mean |err|")) {
            let pct: f64 = line
                .split("mean |err|/N = ")
                .nth(1)
                .unwrap()
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(pct > 0.2 && pct < 6.0, "mean error {pct}%");
        }
    }

    #[test]
    fn eq6_shows_12x() {
        assert!(eq6().contains("12.00x"));
    }

    #[test]
    fn eq10_shows_112_channels() {
        assert!(eq10().contains("channels at 0.4 nm spacing: 112"));
    }

    #[test]
    fn svd_mapping_reports_microseconds() {
        let t = svd_mapping();
        assert!(t.contains("photonic cycles"));
        assert!(t.contains("reconstruction max error"));
    }
}
