//! Fidelity selection and the [`ComputeBackend`] implementation for the
//! DPTC core.
//!
//! The seed's "method zoo" (`matmul_ideal` / `matmul_noisy` /
//! `matmul_circuit`, each a separate code path) collapses into one
//! polymorphic API: pick a [`Fidelity`], hand it to [`Dptc::matmul`] /
//! [`Dptc::gemm`], or wrap the core in a [`DptcBackend`] and use it
//! anywhere a [`ComputeBackend`] is accepted — the NN engines, the
//! baseline comparisons, the experiment harness.

use crate::ddot::WavelengthCoefficients;
use crate::dptc::{Dptc, DptcConfig};
use crate::noise_model::NoiseModel;
use lt_core::backend::split_seed;
use lt_core::{blocked_gemm, ComputeBackend, Matrix64, MatrixView, RunCtx};
use std::sync::Arc;

/// Simulation fidelity of a DPTC matrix product.
///
/// Fidelity is a *value*, not a method: the same [`Dptc::gemm`] call
/// serves exact, analytic-noisy, and circuit-level simulation.
///
/// ```
/// use lt_core::Matrix64;
/// use lt_dptc::{Dptc, DptcConfig, Fidelity, NoiseModel};
///
/// let core = Dptc::new(DptcConfig::lt_paper());
/// let a = Matrix64::from_fn(20, 14, |i, j| ((i + j) as f64 * 0.1).sin());
/// let b = Matrix64::from_fn(14, 9, |i, j| ((i * j) as f64 * 0.1).cos());
///
/// let exact = core.gemm(a.view(), b.view(), 8, &Fidelity::Ideal);
/// assert_eq!(exact, a.matmul(&b), "Ideal is the exact contract");
///
/// let noisy = core.gemm(a.view(), b.view(), 8, &Fidelity::paper_noisy(42));
/// let rel = noisy.max_abs_diff(&exact) / exact.max_abs();
/// assert!(rel > 0.0 && rel < 0.5, "analog error is small but nonzero");
///
/// assert_eq!(Fidelity::paper_noisy(42).name(), "analytic-noisy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Exact arithmetic — the functional contract of the hardware. No
    /// tiling, quantization, or noise; bit-for-bit identical to
    /// [`lt_core::NativeBackend`].
    Ideal,
    /// The paper's analytic Eq. 9 transfer: encoding magnitude/phase
    /// noise, per-wavelength dispersion, and systematic output noise.
    /// This is the model used for all accuracy experiments.
    AnalyticNoisy {
        /// The injected non-idealities.
        noise: NoiseModel,
        /// Root seed of the noise stream.
        seed: u64,
    },
    /// Field propagation through the actual device netlist
    /// ([`crate::DdotCircuit`]) — our substitute for the paper's
    /// Lumerical INTERCONNECT validation. Roughly an order of magnitude
    /// slower than the analytic model.
    Circuit {
        /// The injected non-idealities.
        noise: NoiseModel,
        /// Root seed of the noise stream.
        seed: u64,
    },
}

impl Fidelity {
    /// The analytic model at the paper's operating point.
    pub fn paper_noisy(seed: u64) -> Self {
        Fidelity::AnalyticNoisy {
            noise: NoiseModel::paper_default(),
            seed,
        }
    }

    /// The analytic model with all stochastic terms disabled — the
    /// quantized-but-noiseless digital reference of the accuracy
    /// experiments (tiling and DAC quantization still apply in
    /// [`Dptc::gemm`]).
    pub fn quantized_reference() -> Self {
        Fidelity::AnalyticNoisy {
            noise: NoiseModel::noiseless(),
            seed: 0,
        }
    }

    /// A short human-readable fidelity name.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Ideal => "ideal",
            Fidelity::AnalyticNoisy { .. } => "analytic-noisy",
            Fidelity::Circuit { .. } => "circuit",
        }
    }

    /// Returns a copy whose noise stream is re-rooted by mixing `salt`
    /// into the seed (used by [`DptcBackend`] to give every backend call
    /// a fresh, reproducible realization).
    pub fn resalted(&self, salt: u64) -> Self {
        match *self {
            Fidelity::Ideal => Fidelity::Ideal,
            Fidelity::AnalyticNoisy { noise, seed } => Fidelity::AnalyticNoisy {
                noise,
                seed: seed ^ salt,
            },
            Fidelity::Circuit { noise, seed } => Fidelity::Circuit {
                noise,
                seed: seed ^ salt,
            },
        }
    }
}

/// The DPTC core as a pluggable [`ComputeBackend`].
///
/// Every call tiles the product through the crossbar at the configured
/// fidelity and bit-width; stochastic fidelities draw a fresh noise
/// realization per call from the [`RunCtx`] seed stream (so a run is
/// reproducible from its root seed, but no two GEMMs share a
/// realization).
///
/// ```
/// use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
/// use lt_dptc::{DptcBackend, DptcConfig};
///
/// let a = Matrix64::from_fn(20, 30, |i, j| ((i + j) as f64 * 0.07).sin());
/// let b = Matrix64::from_fn(30, 10, |i, j| ((i * j) as f64 * 0.05).cos());
/// let mut ctx = RunCtx::new(7);
///
/// let exact = NativeBackend.gemm(a.view(), b.view(), &mut ctx);
/// let photonic = DptcBackend::paper(8, 42).gemm(a.view(), b.view(), &mut ctx);
/// // The photonic result tracks the exact one to within analog error.
/// assert!(photonic.max_abs_diff(&exact) < 0.5 * exact.max_abs().max(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DptcBackend {
    core: Dptc,
    fidelity: Fidelity,
    bits: u32,
    /// Wavelength transfer coefficients for the analytic fidelity,
    /// precomputed once per backend: they depend only on the DWDM grid
    /// and the noise model's dispersion — both fixed at construction —
    /// yet used to be recomputed inside every GEMM call on the decode
    /// hot path. `None` for non-analytic fidelities.
    coeffs: Option<Arc<WavelengthCoefficients>>,
}

impl DptcBackend {
    /// Wraps a core geometry with an explicit fidelity and DAC bit-width.
    pub fn new(config: DptcConfig, fidelity: Fidelity, bits: u32) -> Self {
        let core = Dptc::new(config);
        let coeffs = Self::coeffs_for(&core, &fidelity);
        DptcBackend {
            core,
            fidelity,
            bits,
            coeffs,
        }
    }

    fn coeffs_for(core: &Dptc, fidelity: &Fidelity) -> Option<Arc<WavelengthCoefficients>> {
        match fidelity {
            Fidelity::AnalyticNoisy { noise, .. } => Some(Arc::new(
                WavelengthCoefficients::compute(core.ddot().grid(), &noise.dispersion),
            )),
            _ => None,
        }
    }

    /// The ideal backend: paper-geometry core, exact arithmetic. Matches
    /// the workspace's shared kernel bit-for-bit.
    pub fn ideal(config: DptcConfig) -> Self {
        DptcBackend::new(config, Fidelity::Ideal, 16)
    }

    /// The paper's noisy operating point on a 12x12x12 core.
    pub fn paper(bits: u32, seed: u64) -> Self {
        DptcBackend::new(DptcConfig::lt_paper(), Fidelity::paper_noisy(seed), bits)
    }

    /// The quantized-but-noiseless digital reference on the paper core.
    pub fn quantized(bits: u32) -> Self {
        DptcBackend::new(
            DptcConfig::lt_paper(),
            Fidelity::quantized_reference(),
            bits,
        )
    }

    /// The wrapped core.
    pub fn core(&self) -> &Dptc {
        &self.core
    }

    /// The configured fidelity.
    pub fn fidelity(&self) -> &Fidelity {
        &self.fidelity
    }

    /// The DAC/ADC bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Returns a copy with a different noise model. Stochastic
    /// fidelities keep their kind and seed; an `Ideal` backend becomes
    /// `AnalyticNoisy` (attaching a noise model to an exact backend
    /// asks for the noisy analytic simulation — note this also enables
    /// tiling and DAC quantization in `gemm`, so results are no longer
    /// bit-for-bit the exact kernel even with a noiseless model).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.fidelity = match self.fidelity {
            Fidelity::Ideal => Fidelity::AnalyticNoisy { noise, seed: 0 },
            Fidelity::AnalyticNoisy { seed, .. } => Fidelity::AnalyticNoisy { noise, seed },
            Fidelity::Circuit { seed, .. } => Fidelity::Circuit { noise, seed },
        };
        self.coeffs = Self::coeffs_for(&self.core, &self.fidelity);
        self
    }
}

impl ComputeBackend for DptcBackend {
    fn name(&self) -> &str {
        match self.fidelity {
            Fidelity::Ideal => "dptc-ideal",
            Fidelity::AnalyticNoisy { .. } => "dptc-analytic",
            Fidelity::Circuit { .. } => "dptc-circuit",
        }
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64 {
        // The plain GEMM *is* the canonical blocked execution: one
        // call-level seed, one noise stream per `Nh`-row strip (see
        // `gemm_block`). That makes `lt-runtime`'s `ParallelBackend`
        // bit-identical to this backend at every thread count and
        // fidelity — thread scheduling cannot reorder noise draws,
        // because no two strips share a stream.
        blocked_gemm(self, a, b, ctx)
    }

    fn gemm_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
        out: &mut Matrix64,
    ) {
        // A product of at most one row block (every per-token decode
        // GEMM) is the single block `blocked_gemm` would run under
        // `split_seed(call_seed, 0)`; the analytic loop writes it straight
        // into `out`, with no zeroed full-size output, strip matrix, row
        // copy or block list around it.
        if let (Fidelity::AnalyticNoisy { noise, seed }, Some(coeffs)) =
            (self.fidelity, &self.coeffs)
        {
            if a.rows() <= self.preferred_block_rows() {
                let block_seed = split_seed(ctx.next_seed(), 0);
                self.core.gemm_tiled_analytic_into(
                    a,
                    b,
                    self.bits,
                    &noise,
                    seed ^ block_seed,
                    coeffs,
                    out,
                );
                return;
            }
        }
        *out = self.gemm(a, b, ctx);
    }

    fn preferred_block_rows(&self) -> usize {
        // Blocks stay a whole number of `Nh`-row hardware strips, but
        // span several of them: every `gemm_block` call redraws the
        // full right operand's encoding noise (and re-encodes its tiles
        // unless a memo holds their codes), so wider blocks amortize
        // that DAC work across more output rows (the tiled loop reuses
        // B tiles for every strip in the block).
        self.core.config().nh * 4
    }

    fn gemm_block(
        &self,
        a_rows: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        block_seed: u64,
    ) -> Matrix64 {
        // The analytic hot path reuses the backend's precomputed
        // wavelength coefficients instead of re-deriving them per call.
        if let Fidelity::AnalyticNoisy { noise, seed } = self.fidelity {
            let coeffs = self.coeffs.as_ref().expect("analytic backend has coeffs");
            return self.core.gemm_tiled_analytic(
                a_rows,
                b,
                self.bits,
                &noise,
                seed ^ block_seed,
                coeffs,
            );
        }
        let fidelity = self.fidelity.resalted(block_seed);
        self.core.gemm(a_rows, b, self.bits, &fidelity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::{GaussianSampler, NativeBackend, OperandMemo};

    fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix64, Matrix64) {
        let mut rng = GaussianSampler::new(seed);
        (
            Matrix64::from_fn(m, k, |_, _| rng.uniform_in(-1.0, 1.0)),
            Matrix64::from_fn(k, n, |_, _| rng.uniform_in(-1.0, 1.0)),
        )
    }

    #[test]
    fn ideal_backend_matches_native_bit_for_bit() {
        let (a, b) = rand_pair(18, 25, 14, 1);
        let mut ctx = RunCtx::new(0);
        let ideal = DptcBackend::ideal(DptcConfig::lt_paper()).gemm(a.view(), b.view(), &mut ctx);
        let native = NativeBackend.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(ideal, native);
    }

    #[test]
    fn noisy_backend_draws_fresh_realizations_per_call() {
        let (a, b) = rand_pair(12, 12, 12, 2);
        let backend = DptcBackend::paper(8, 5);
        let mut ctx = RunCtx::new(3);
        let first = backend.gemm(a.view(), b.view(), &mut ctx);
        let second = backend.gemm(a.view(), b.view(), &mut ctx);
        assert!(first.max_abs_diff(&second) > 0.0, "fresh noise per call");
    }

    #[test]
    fn noisy_backend_runs_are_reproducible() {
        let (a, b) = rand_pair(12, 24, 12, 3);
        let backend = DptcBackend::paper(8, 5);
        let r1 = backend.gemm(a.view(), b.view(), &mut RunCtx::new(3));
        let r2 = backend.gemm(a.view(), b.view(), &mut RunCtx::new(3));
        assert_eq!(r1, r2);
    }

    #[test]
    fn quantized_backend_is_deterministic_and_close() {
        let (a, b) = rand_pair(10, 20, 10, 4);
        let backend = DptcBackend::quantized(8);
        let mut ctx = RunCtx::new(0);
        let q1 = backend.gemm(a.view(), b.view(), &mut ctx);
        let q2 = backend.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(q1, q2, "noiseless path ignores the seed stream");
        let exact = a.matmul(&b);
        assert!(q1.max_abs_diff(&exact) < 0.1 * exact.max_abs().max(1.0));
    }

    #[test]
    fn strip_noise_streams_are_independent() {
        // Each Nh-row strip owns a seed-partitioned noise stream, so
        // perturbing one strip's operand rows cannot change another
        // strip's output — the property that makes parallel row-block
        // execution bit-identical to sequential.
        let backend = DptcBackend::paper(8, 5);
        let (a, b) = rand_pair(24, 12, 12, 9);
        let r1 = backend.gemm(a.view(), b.view(), &mut RunCtx::new(1));
        let mut a2 = a.clone();
        for i in 12..24 {
            for j in 0..12 {
                a2.set(i, j, -a2.get(i, j));
            }
        }
        let r2 = backend.gemm(a2.view(), b.view(), &mut RunCtx::new(1));
        for i in 0..12 {
            assert_eq!(r1.row(i), r2.row(i), "strip 0 must not see strip 1");
        }
        assert!(
            (12..24).any(|i| r1.row(i) != r2.row(i)),
            "strip 1 did change"
        );
    }

    #[test]
    fn gemm_is_the_canonical_blocked_execution() {
        let (a, b) = rand_pair(30, 20, 15, 6);
        for backend in [
            DptcBackend::ideal(DptcConfig::lt_paper()),
            DptcBackend::quantized(8),
            DptcBackend::paper(8, 3),
        ] {
            let plain = backend.gemm(a.view(), b.view(), &mut RunCtx::new(11));
            let blocked = blocked_gemm(&backend, a.view(), b.view(), &mut RunCtx::new(11));
            assert_eq!(plain, blocked, "{}", ComputeBackend::name(&backend));
        }
    }

    #[test]
    fn gemm_into_equals_gemm_on_a_reused_buffer() {
        // Single-block products take the in-place analytic path, taller
        // ones the blocked fallback; both must equal `gemm` bit for bit,
        // advance the seed stream alike, and fully overwrite the buffer.
        let mut out = Matrix64::from_fn(50, 50, |_, _| f64::NAN);
        for backend in [
            DptcBackend::paper(8, 3),
            DptcBackend::quantized(4),
            DptcBackend::ideal(DptcConfig::lt_paper()),
        ] {
            let (mut want_ctx, mut got_ctx) = (RunCtx::new(21), RunCtx::new(21));
            for (i, &(m, k, n)) in [(1, 32, 32), (48, 17, 9), (4, 8, 8), (49, 13, 30), (0, 5, 3)]
                .iter()
                .enumerate()
            {
                let (a, b) = rand_pair(m, k, n, 40 + i as u64);
                let want = backend.gemm(a.view(), b.view(), &mut want_ctx);
                backend.gemm_into(a.view(), b.view(), &mut got_ctx, &mut out);
                assert_eq!(out, want, "{} {m}x{k}x{n}", ComputeBackend::name(&backend));
                assert_eq!(got_ctx, want_ctx, "seed stream position");
            }
        }
    }

    fn bits(m: &Matrix64) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_memo_never_changes_a_product() {
        let mut rng = GaussianSampler::new(17);
        let dims = [1, 11, 12, 13, 37];
        let mut bs: Vec<Matrix64> = Vec::new();
        for d in dims {
            for n in dims {
                bs.push(Matrix64::from_fn(d, n, |_, _| rng.uniform_in(-1.0, 1.0)));
            }
        }
        // An all-zero tile (rows and columns 12..24) and `-0.0` entries.
        bs.push(Matrix64::from_fn(37, 37, |i, j| match (i, j) {
            (12..24, 12..24) => 0.0,
            _ if (i + j) % 5 == 0 => -0.0,
            _ => rng.uniform_in(-1.0, 1.0),
        }));
        let (mut want, mut got) = (Matrix64::zeros(0, 0), Matrix64::zeros(0, 0));
        for backend in [
            DptcBackend::paper(8, 3),
            DptcBackend::paper(4, 3),
            DptcBackend::quantized(8),
        ] {
            for b in &bs {
                let memo = OperandMemo::new();
                let staged = b.view().with_memo(&memo);
                let (mut plain_ctx, mut memo_ctx) = (RunCtx::new(9), RunCtx::new(9));
                for m in [0, 1, 4, 48, 49, 97] {
                    let name = ComputeBackend::name(&backend);
                    let label = format!("{name} {}-bit {m} x {:?}", backend.bits(), b.shape());
                    let a = Matrix64::from_fn(m, b.rows(), |_, _| rng.uniform_in(-1.0, 1.0));
                    backend.gemm_into(a.view(), b.view(), &mut plain_ctx, &mut want);
                    backend.gemm_into(a.view(), staged, &mut memo_ctx, &mut got);
                    assert_eq!(bits(&got), bits(&want), "gemm_into {label}");
                    assert!(memo.get().is_some() || m == 0, "filled by {label}");
                    let want = backend.gemm(a.view(), b.view(), &mut plain_ctx);
                    let got = backend.gemm(a.view(), staged, &mut memo_ctx);
                    assert_eq!(bits(&got), bits(&want), "gemm {label}");
                    assert_eq!(memo_ctx, plain_ctx, "seed stream {label}");
                }
            }
        }

        // A 4-bit entry stays, and an 8-bit backend encodes beside it.
        let (a, b) = (Matrix64::from_fn(5, 37, |i, j| (i * j) as f64), &bs[25]);
        let memo = OperandMemo::new();
        let staged = b.view().with_memo(&memo);
        DptcBackend::paper(4, 3).gemm(a.view(), staged, &mut RunCtx::new(1));
        let entry = Arc::clone(memo.get().expect("filled"));
        let paper8 = DptcBackend::paper(8, 3);
        let want = paper8.gemm(a.view(), b.view(), &mut RunCtx::new(2));
        let mut got = paper8.gemm(a.view(), staged, &mut RunCtx::new(2));
        assert_eq!(bits(&got), bits(&want));
        assert!(Arc::ptr_eq(memo.get().expect("kept"), &entry));

        let memo = OperandMemo::new();
        let staged = b.view().with_memo(&memo);
        let ideal = DptcBackend::ideal(DptcConfig::lt_paper());
        ideal.gemm_into(a.view(), staged, &mut RunCtx::new(3), &mut got);
        ideal.gemm(a.view(), staged, &mut RunCtx::new(3));
        assert!(memo.get().is_none(), "the exact product keeps no codes");
    }

    #[test]
    fn fidelity_helpers() {
        assert_eq!(Fidelity::Ideal.name(), "ideal");
        assert_eq!(Fidelity::quantized_reference().name(), "analytic-noisy");
        assert_eq!(
            Fidelity::paper_noisy(7).resalted(0),
            Fidelity::paper_noisy(7)
        );
        assert_eq!(Fidelity::Ideal.resalted(99), Fidelity::Ideal);
    }

    #[test]
    fn backend_with_noise_overrides_model() {
        let quiet = NoiseModel::noiseless();
        let backend = DptcBackend::paper(8, 1).with_noise(quiet);
        match backend.fidelity() {
            Fidelity::AnalyticNoisy { noise, .. } => assert!(noise.is_deterministic()),
            other => panic!("unexpected fidelity {other:?}"),
        }
    }
}
