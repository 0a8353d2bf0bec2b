//! Circuit-level DDot simulation: field propagation through real device
//! transfer matrices.
//!
//! This is the repository's substitute for the paper's Lumerical
//! INTERCONNECT functional validation (Section V-A): every optical element
//! is instantiated from [`lt_photonics::devices`], fields are propagated
//! per wavelength, and detection squares and subtracts — the same signal
//! path as the commercial simulator, in pure Rust.

use crate::ddot::perturb_magnitude;
use crate::noise_model::NoiseModel;
use lt_core::GaussianSampler;
use lt_photonics::devices::{
    BalancedPhotodetector, DirectionalCoupler, MachZehnderModulator, PhaseShifter,
};
use lt_photonics::wdm::WavelengthGrid;
use lt_photonics::Complex;

/// A netlist-level DDot: two MZM encoders, a -90 degree phase shifter on
/// the `y` arm, a directional coupler, and a balanced photodetector pair.
///
/// The output is calibrated (as a receiver's TIA gain would be) so that the
/// ideal design point returns exactly the dot product; deviations then come
/// only from physics: dispersion, loss asymmetry, and injected noise.
///
/// ```
/// use lt_dptc::DdotCircuit;
/// let circuit = DdotCircuit::paper(12);
/// let x = vec![0.5; 12];
/// let y = vec![-0.25; 12];
/// let out = circuit.dot(&x, &y);
/// let exact: f64 = 12.0 * 0.5 * -0.25;
/// assert!((out - exact).abs() < 0.01 * exact.abs());
/// ```
#[derive(Debug, Clone)]
pub struct DdotCircuit {
    grid: WavelengthGrid,
    mzm: MachZehnderModulator,
    ps: PhaseShifter,
    dc: DirectionalCoupler,
    bpd: BalancedPhotodetector,
    /// Receiver gain normalizing the ideal design point to `x . y`.
    calibration: f64,
}

impl DdotCircuit {
    /// Builds the paper's DDot with real device parameters (losses and
    /// dispersion from Table III) over `n` DWDM channels.
    pub fn paper(n: usize) -> Self {
        Self::assemble(
            WavelengthGrid::dwdm(n),
            MachZehnderModulator::paper(),
            PhaseShifter::ddot_paper(),
            DirectionalCoupler::paper(),
        )
    }

    /// Builds an idealized circuit: lossless, dispersion-free devices.
    pub fn ideal(n: usize) -> Self {
        Self::assemble(
            WavelengthGrid::dwdm(n),
            MachZehnderModulator::ideal(),
            PhaseShifter::ideal(-std::f64::consts::FRAC_PI_2),
            DirectionalCoupler::ideal_50_50(),
        )
    }

    fn assemble(
        grid: WavelengthGrid,
        mzm: MachZehnderModulator,
        ps: PhaseShifter,
        dc: DirectionalCoupler,
    ) -> Self {
        // Field attenuation of the two arms (x: MZM only; y: MZM + PS) and
        // the coupler's common loss; the receiver calibrates these out.
        let a_x = mzm.insertion_loss().to_linear().sqrt();
        let a_y = a_x * ps.insertion_loss().to_linear().sqrt();
        let a_dc2 = dc.insertion_loss().to_linear();
        let calibration = 1.0 / (2.0 * a_x * a_y * a_dc2);
        DdotCircuit {
            grid,
            mzm,
            ps,
            dc,
            bpd: BalancedPhotodetector::matched(),
            calibration,
        }
    }

    /// Number of WDM channels.
    pub fn capacity(&self) -> usize {
        self.grid.len()
    }

    /// The wavelength grid used by this circuit.
    pub fn grid(&self) -> &WavelengthGrid {
        &self.grid
    }

    /// Deterministic propagation (device dispersion and losses only).
    ///
    /// # Panics
    ///
    /// Panics if operand lengths differ, exceed capacity, or fall outside
    /// the MZM's `[-1, 1]` encoding range.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        self.propagate(x, y, &NoiseModel::noiseless(), &mut GaussianSampler::new(0))
    }

    /// Propagation with encoding noise injected on the modulated fields and
    /// systematic noise on the detected output.
    ///
    /// # Panics
    ///
    /// Panics if operand lengths differ or exceed capacity.
    pub fn dot_noisy(&self, x: &[f64], y: &[f64], noise: &NoiseModel, seed: u64) -> f64 {
        let mut rng = GaussianSampler::new(seed);
        self.propagate(x, y, noise, &mut rng)
    }

    /// As [`DdotCircuit::dot_noisy`] but drawing from a caller-managed RNG
    /// — used by [`crate::Dptc::matmul`] at `Fidelity::Circuit` so that a
    /// whole crossbar shares one reproducible noise stream.
    pub fn dot_noisy_with(
        &self,
        x: &[f64],
        y: &[f64],
        noise: &NoiseModel,
        rng: &mut GaussianSampler,
    ) -> f64 {
        self.propagate(x, y, noise, rng)
    }

    fn propagate(
        &self,
        x: &[f64],
        y: &[f64],
        noise: &NoiseModel,
        rng: &mut GaussianSampler,
    ) -> f64 {
        assert_eq!(x.len(), y.len(), "operands must have equal length");
        assert!(
            x.len() <= self.capacity(),
            "vector length {} exceeds wavelength capacity {}",
            x.len(),
            self.capacity()
        );
        let wavelengths = self.grid.wavelengths_nm();
        let mut port0 = Vec::with_capacity(x.len());
        let mut port1 = Vec::with_capacity(x.len());
        // One relative-phase draw per DDot: the drift lives on the shared
        // operand paths, so every wavelength in this coupler sees the
        // same realization (matching the analytic fidelity).
        let dphi_d = if noise.sigma_phase_rad > 0.0 {
            rng.normal(0.0, noise.sigma_phase_rad)
        } else {
            0.0
        };
        for i in 0..x.len() {
            let lambda = wavelengths[i];
            let xh = perturb_magnitude(x[i], noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
            let yh = perturb_magnitude(y[i], noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
            // Encode. The relative phase drift between the arms is folded
            // into the y field (the paper's single equivalent drift term,
            // Section III-C). Negative values carry a pi phase.
            let a_mzm = self.mzm.insertion_loss().to_linear().sqrt();
            let ex = Complex::real(xh) * a_mzm;
            let sign_phase = if yh < 0.0 { std::f64::consts::PI } else { 0.0 };
            let ey = Complex::from_polar(yh.abs() * a_mzm, sign_phase + dphi_d);
            // -90 degree phase shifter on the y arm (dispersion-aware).
            let ey = self.ps.apply(ey, lambda);
            // Interference in the coupler (dispersion-aware).
            let (z0, z1) = self.dc.couple(ex, ey, lambda);
            port0.push(z0);
            port1.push(z1);
        }
        // Balanced detection accumulates across wavelengths for free.
        let raw = self.bpd.detect(&port0, &port1);
        let calibrated = raw * self.calibration;
        crate::ddot::apply_systematic(calibrated, noise, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddot::DDot;

    fn rand_vec(rng: &mut GaussianSampler, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
    }

    #[test]
    fn ideal_circuit_is_exact() {
        let c = DdotCircuit::ideal(12);
        let mut rng = GaussianSampler::new(1);
        for _ in 0..50 {
            let x = rand_vec(&mut rng, 12);
            let y = rand_vec(&mut rng, 12);
            let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((c.dot(&x, &y) - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_circuit_close_to_exact() {
        // Dispersion + loss asymmetry only: sub-percent deviation.
        let c = DdotCircuit::paper(12);
        let mut rng = GaussianSampler::new(2);
        for _ in 0..50 {
            let x = rand_vec(&mut rng, 12);
            let y = rand_vec(&mut rng, 12);
            let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = c.dot(&x, &y);
            assert!(
                (got - exact).abs() < 0.02 * 12f64.sqrt(),
                "got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn circuit_matches_analytic_model_statistics() {
        // The analytic Eq. 9 path and the netlist path must agree on the
        // noise-free deterministic bias (dispersion-induced), which
        // validates the analytic model the accuracy experiments rely on.
        let circuit = DdotCircuit::paper(25);
        let analytic = DDot::new(25);
        let noise =
            NoiseModel::noiseless().with_dispersion(lt_photonics::wdm::DispersionModel::paper());
        let mut rng = GaussianSampler::new(3);
        for _ in 0..50 {
            let x = rand_vec(&mut rng, 25);
            let y = rand_vec(&mut rng, 25);
            let c = circuit.dot(&x, &y);
            let a = analytic.dot_noisy(&x, &y, &noise, 0);
            assert!(
                (c - a).abs() < 5e-3,
                "circuit {c} vs analytic {a}: port conventions must line up"
            );
        }
    }

    #[test]
    fn noisy_circuit_is_seed_deterministic() {
        let c = DdotCircuit::paper(12);
        let x = vec![0.4; 12];
        let y = vec![-0.6; 12];
        let nm = NoiseModel::paper_default();
        assert_eq!(c.dot_noisy(&x, &y, &nm, 7), c.dot_noisy(&x, &y, &nm, 7));
    }

    #[test]
    fn fig6_error_band_4bit_and_8bit() {
        // Reproduce the Fig. 6 experiment shape: random length-12 dot
        // products with the paper's noise at 4-bit/8-bit quantization.
        use lt_core::Quantizer;
        let c = DdotCircuit::paper(12);
        let nm = NoiseModel::paper_default();
        let mut rng = GaussianSampler::new(4);
        for bits in [4u32, 8] {
            let q = Quantizer::new(bits);
            let mut errs = Vec::new();
            for t in 0..200 {
                let x: Vec<f64> = rand_vec(&mut rng, 12)
                    .into_iter()
                    .map(|v| q.quantize_unit(v))
                    .collect();
                let y: Vec<f64> = rand_vec(&mut rng, 12)
                    .into_iter()
                    .map(|v| q.quantize_unit(v))
                    .collect();
                let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                let got = c.dot_noisy(&x, &y, &nm, 1000 + t);
                errs.push((got - exact).abs() / 12.0);
            }
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            assert!(
                mean > 0.001 && mean < 0.06,
                "{bits}-bit mean normalized error {mean} outside plausible band"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_operands() {
        DdotCircuit::ideal(4).dot(&[0.0; 4], &[0.0; 3]);
    }
}
