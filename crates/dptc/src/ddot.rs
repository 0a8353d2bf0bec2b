//! DDot: the dynamically-operated full-range optical dot-product engine
//! (paper Section III-A).

use crate::noise_model::NoiseModel;
use lt_core::GaussianSampler;
use lt_photonics::wdm::{DispersionModel, WavelengthGrid};

use std::f64::consts::FRAC_PI_2;

/// Per-wavelength device coefficients entering the noisy transfer function
/// (paper Eq. 8/9): the coupler's through/cross amplitudes and the
/// dispersion-induced phase error of the -90 degree shifter.
#[derive(Debug, Clone, PartialEq)]
pub struct WavelengthCoefficients {
    /// Through amplitude `t_i = sqrt(1 - kappa(lambda_i))`.
    pub t: Vec<f64>,
    /// Cross amplitude `k_i = sqrt(kappa(lambda_i))`.
    pub k: Vec<f64>,
    /// Dispersion-induced phase error `delta_phi_lambda_i`, radians.
    pub dphi: Vec<f64>,
    /// Precomputed zero-phase-drift multiplier
    /// `2 t_i k_i (-sin(-pi/2 + dphi_i)) = 2 t_i k_i cos(dphi_i)` — the
    /// whole multiplicative term of Eq. 9 when no per-DDot phase noise
    /// is drawn. Hoisting it out of the per-element loop removes the
    /// `sin` from every deterministic MAC (the quantized digital
    /// reference and every zero-sigma tile).
    pub mult0: Vec<f64>,
    /// Precomputed drift-quadrature multiplier `2 t_i k_i sin(dphi_i)`.
    /// With a per-DDot phase drift `g`, the Eq. 9 multiplier expands by
    /// the angle-addition identity to
    /// `2 t k cos(dphi_i + g) = mult0_i cos(g) - msin_i sin(g)`, so one
    /// `sin_cos` per DDot output covers every wavelength and the MAC
    /// loop stays free of transcendentals.
    pub msin: Vec<f64>,
    /// Precomputed coupler-imbalance coefficient `(t_i^2 - k_i^2) / 2`
    /// multiplying the additive `(x^2 - y^2)` term of Eq. 9.
    pub imbalance: Vec<f64>,
}

impl WavelengthCoefficients {
    /// Computes the coefficients of `grid` under `dispersion`.
    pub fn compute(grid: &WavelengthGrid, dispersion: &DispersionModel) -> Self {
        let mut t = Vec::with_capacity(grid.len());
        let mut k = Vec::with_capacity(grid.len());
        let mut dphi = Vec::with_capacity(grid.len());
        let mut mult0 = Vec::with_capacity(grid.len());
        let mut msin = Vec::with_capacity(grid.len());
        let mut imbalance = Vec::with_capacity(grid.len());
        for &lambda in grid.wavelengths_nm() {
            let ti = dispersion.through_coefficient(lambda);
            let ki = dispersion.cross_coefficient(lambda);
            let dphi_i = dispersion.phase_error(-FRAC_PI_2, lambda);
            t.push(ti);
            k.push(ki);
            dphi.push(dphi_i);
            mult0.push(2.0 * ti * ki * (-(dphi_i - FRAC_PI_2).sin()));
            msin.push(2.0 * ti * ki * dphi_i.sin());
            imbalance.push((ti * ti - ki * ki) / 2.0);
        }
        WavelengthCoefficients {
            t,
            k,
            dphi,
            mult0,
            msin,
            imbalance,
        }
    }

    /// Number of wavelengths covered.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the coefficient set is empty.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }
}

/// A DDot engine processing up to `n` WDM channels.
///
/// Each input pair `(x_i, y_i)` rides its own wavelength; all pairs
/// interfere in parallel in the shared coupler and sum for free on the
/// photodetectors. Both operands switch at modulation speed (~10 ps), so
/// there is no weight-mapping or device-programming latency — the property
/// that makes attention workloads viable (paper Insight 1).
///
/// ```
/// use lt_dptc::{DDot, NoiseModel};
/// let ddot = DDot::new(12);
/// let x: Vec<f64> = (0..12).map(|i| (i as f64 / 11.0) - 0.5).collect();
/// let y: Vec<f64> = (0..12).map(|i| 0.5 - (i as f64 / 11.0)).collect();
/// let exact = ddot.dot_ideal(&x, &y);
/// let noisy = ddot.dot_noisy(&x, &y, &NoiseModel::paper_default(), 1);
/// assert!((exact - noisy).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct DDot {
    grid: WavelengthGrid,
}

impl DDot {
    /// Creates an engine with `n` DWDM channels (0.4 nm spacing around
    /// 1550 nm, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        DDot {
            grid: WavelengthGrid::dwdm(n),
        }
    }

    /// The underlying wavelength grid.
    pub fn grid(&self) -> &WavelengthGrid {
        &self.grid
    }

    /// Maximum vector length (number of wavelengths).
    pub fn capacity(&self) -> usize {
        self.grid.len()
    }

    /// The exact dot product — the functional contract of the engine.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or exceed the
    /// wavelength capacity.
    pub fn dot_ideal(&self, x: &[f64], y: &[f64]) -> f64 {
        self.check_lengths(x, y);
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    /// The noisy analytic transfer (paper Eq. 9): encoding magnitude and
    /// phase drift, per-wavelength dispersion, and systematic output noise.
    ///
    /// Operands are expected to be normalized into `[-1, 1]` (values
    /// outside are accepted but the noise statistics assume normalization).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or exceed capacity.
    pub fn dot_noisy(&self, x: &[f64], y: &[f64], noise: &NoiseModel, seed: u64) -> f64 {
        let mut rng = GaussianSampler::new(seed);
        let coeffs = WavelengthCoefficients::compute(&self.grid, &noise.dispersion);
        self.dot_noisy_with(x, y, &coeffs, noise, &mut rng)
    }

    /// The noisy analytic transfer with precomputed coefficients and an
    /// externally managed RNG — the hot path used by [`crate::Dptc`].
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or exceed capacity.
    pub fn dot_noisy_with(
        &self,
        x: &[f64],
        y: &[f64],
        coeffs: &WavelengthCoefficients,
        noise: &NoiseModel,
        rng: &mut GaussianSampler,
    ) -> f64 {
        self.check_lengths(x, y);
        // One relative-phase draw per DDot invocation: all wavelength
        // pairs interfere in the same physical coupler, so the operand
        // paths' drift is common to every channel (the noise model's
        // "at each DDot"). The angle-addition tables then fold the draw
        // into the precomputed multipliers — one `sin_cos` per output,
        // no transcendentals in the MAC loop.
        let (sg, cg) = if noise.sigma_phase_rad > 0.0 {
            rng.normal(0.0, noise.sigma_phase_rad).sin_cos()
        } else {
            (0.0, 1.0)
        };
        let mut io = 0.0;
        for i in 0..x.len() {
            let xh = perturb_magnitude(x[i], noise.sigma_magnitude, rng);
            let yh = perturb_magnitude(y[i], noise.sigma_magnitude, rng);
            let mult = coeffs.mult0[i] * cg - coeffs.msin[i] * sg;
            io += mult * xh * yh + coeffs.imbalance[i] * (xh * xh - yh * yh);
        }
        apply_systematic(io, noise, rng)
    }

    fn check_lengths(&self, x: &[f64], y: &[f64]) {
        assert_eq!(
            x.len(),
            y.len(),
            "dot-product operands must have equal length"
        );
        assert!(
            x.len() <= self.capacity(),
            "vector length {} exceeds wavelength capacity {}",
            x.len(),
            self.capacity()
        );
    }
}

/// One wavelength's contribution to the differential photocurrent,
/// normalized so that the ideal design point returns exactly `x * y`.
///
/// With the coupler at `t, k` and the total relative phase
/// `phi = dphi_d - pi/2 + dphi_lambda`, field propagation gives
///
/// ```text
/// I = 2 t k (-sin phi) x y  +  (t^2 - k^2) (x^2 - y^2) / 2
/// ```
///
/// At the design point (`t = k = sqrt(2)/2`, `phi = -pi/2`) the
/// multiplicative factor is at a local optimum (robustness argument of
/// Section III-C) and the additive term vanishes. The sign of the additive
/// term differs from the paper's printed Eq. 9 only by output-port
/// labeling; it is zero-mean either way.
pub fn ddot_term(x: f64, y: f64, t: f64, k: f64, dphi_lambda: f64, dphi_d: f64) -> f64 {
    let phi = dphi_d - FRAC_PI_2 + dphi_lambda;
    2.0 * t * k * (-phi.sin()) * x * y + (t * t - k * k) * (x * x - y * y) / 2.0
}

// The noise model's Gaussian terms as functions of one standard-normal
// draw `z`. Callers that draw per term and callers that draw a whole
// tile's noise with one `fill_normal` (the tiled GEMM in `crate::dptc`)
// evaluate these same expressions, so they compute the same bits.

/// `N(0, std_dev^2)` for the draw `z`, spelled the way
/// `GaussianSampler::normal(0.0, std_dev)` computes it (the `0.0 +`
/// turns a `-0.0` product into `+0.0`, so it is not a no-op).
#[inline(always)]
pub(crate) fn zero_mean_normal(std_dev: f64, z: f64) -> f64 {
    0.0 + std_dev * z
}

/// Magnitude noise: `v + N(0, (sigma |v|)^2)`.
#[inline(always)]
pub(crate) fn magnitude_noise(v: f64, sigma: f64, z: f64) -> f64 {
    v + zero_mean_normal(sigma * v.abs(), z)
}

/// Systematic output noise: `io * (1 + N(0, sigma^2))`.
#[inline(always)]
pub(crate) fn systematic_noise(io: f64, sigma: f64, z: f64) -> f64 {
    io * (1.0 + zero_mean_normal(sigma, z))
}

pub(crate) fn perturb_magnitude(v: f64, sigma: f64, rng: &mut GaussianSampler) -> f64 {
    if sigma > 0.0 {
        magnitude_noise(v, sigma, rng.sample())
    } else {
        v
    }
}

pub(crate) fn apply_systematic(io: f64, noise: &NoiseModel, rng: &mut GaussianSampler) -> f64 {
    if noise.sigma_systematic > 0.0 {
        systematic_noise(io, noise.sigma_systematic, rng.sample())
    } else {
        io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64)
            .collect()
    }

    #[test]
    fn ideal_matches_plain_dot() {
        let ddot = DDot::new(12);
        let x = ramp(12, -1.0, 1.0);
        let y = ramp(12, 1.0, -0.5);
        let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((ddot.dot_ideal(&x, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn noiseless_model_is_exact_without_dispersion() {
        let ddot = DDot::new(12);
        let x = ramp(12, -0.9, 0.9);
        let y = ramp(12, 0.3, -0.8);
        let out = ddot.dot_noisy(&x, &y, &NoiseModel::noiseless(), 0);
        assert!((out - ddot.dot_ideal(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn angle_addition_tables_match_ddot_term() {
        // The hot path folds a per-DDot drift `g` into the precomputed
        // mult0/msin tables; this must agree exactly with evaluating the
        // Eq. 9 transfer directly at that drift.
        let grid = WavelengthGrid::dwdm(8);
        let coeffs = WavelengthCoefficients::compute(&grid, &DispersionModel::paper());
        let (x, y) = (0.62, -0.47);
        for &g in &[0.0f64, 0.0371, -0.2] {
            let (sg, cg) = g.sin_cos();
            for i in 0..coeffs.len() {
                let via_tables = (coeffs.mult0[i] * cg - coeffs.msin[i] * sg) * x * y
                    + coeffs.imbalance[i] * (x * x - y * y);
                let direct = ddot_term(x, y, coeffs.t[i], coeffs.k[i], coeffs.dphi[i], g);
                assert!((via_tables - direct).abs() < 1e-14, "lambda {i}, g {g}");
            }
        }
    }

    #[test]
    fn design_point_term_is_exact() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let v = ddot_term(0.7, -0.4, s, s, 0.0, 0.0);
        assert!((v - 0.7 * -0.4).abs() < 1e-12);
    }

    #[test]
    fn dispersion_only_bias_is_small() {
        // Dispersion alone (no stochastic noise) must introduce only a tiny
        // deterministic bias — the robustness claim of Fig. 3.
        let ddot = DDot::new(25);
        let x = ramp(25, -1.0, 1.0);
        let y = ramp(25, 0.5, -1.0);
        let noise =
            NoiseModel::noiseless().with_dispersion(lt_photonics::wdm::DispersionModel::paper());
        let out = ddot.dot_noisy(&x, &y, &noise, 0);
        let exact = ddot.dot_ideal(&x, &y);
        let rel = (out - exact).abs() / exact.abs().max(1e-9);
        assert!(rel < 0.01, "dispersion bias {rel} should be < 1%");
    }

    #[test]
    fn noisy_output_is_deterministic_per_seed() {
        let ddot = DDot::new(12);
        let x = ramp(12, -1.0, 1.0);
        let y = ramp(12, -0.2, 0.9);
        let nm = NoiseModel::paper_default();
        let a = ddot.dot_noisy(&x, &y, &nm, 99);
        let b = ddot.dot_noisy(&x, &y, &nm, 99);
        assert_eq!(a, b);
        let c = ddot.dot_noisy(&x, &y, &nm, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_error_band_on_random_vectors() {
        // Average relative error at the paper's noise point should be a few
        // percent (Fig. 6 reports 2.6% at 4-bit, 3.4% at 8-bit).
        let ddot = DDot::new(12);
        let nm = NoiseModel::paper_default();
        let mut rng = GaussianSampler::new(2024);
        let mut rel_sum = 0.0;
        let trials = 400;
        for t in 0..trials {
            let x: Vec<f64> = (0..12).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let y: Vec<f64> = (0..12).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let exact = ddot.dot_ideal(&x, &y);
            let noisy = ddot.dot_noisy(&x, &y, &nm, t as u64);
            // Normalize by the vector-length scale (as the paper's relative
            // error does) rather than the possibly tiny exact value.
            rel_sum += (noisy - exact).abs() / 12.0f64.sqrt();
        }
        let mean_rel = rel_sum / trials as f64;
        assert!(
            mean_rel > 0.001 && mean_rel < 0.08,
            "mean normalized error {mean_rel} out of the plausible band"
        );
    }

    #[test]
    fn full_range_signs_preserved_under_noise() {
        let ddot = DDot::new(12);
        let nm = NoiseModel::paper_default();
        let x = vec![0.9; 12];
        let yp = vec![0.9; 12];
        let yn = vec![-0.9; 12];
        let pos = ddot.dot_noisy(&x, &yp, &nm, 5);
        let neg = ddot.dot_noisy(&x, &yn, &nm, 5);
        assert!(pos > 0.0 && neg < 0.0, "signed outputs survive the noise");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        DDot::new(4).dot_ideal(&[1.0; 4], &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds wavelength capacity")]
    fn over_capacity_rejected() {
        DDot::new(4).dot_ideal(&[1.0; 8], &[1.0; 8]);
    }
}
