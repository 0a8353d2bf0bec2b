//! DPTC: the dynamically-operated photonic tensor core (paper Section
//! III-B).
//!
//! A `Nv x Nh` crossbar of [`DDot`] units computes an
//! `[Nh, N_lambda] x [N_lambda, Nv]` matrix product in one cycle. Each
//! modulated WDM signal is broadcast to an entire row or column of units
//! ("intra-core optical broadcast"), so a one-shot MM costs only
//! `Nh*N_lambda + N_lambda*Nv` signal encodings instead of
//! `2*Nh*Nv*N_lambda` (Eq. 6).
//!
//! Simulation fidelity is selected by [`Fidelity`], not by calling a
//! different method: [`Dptc::matmul`] (one-shot, core-geometry operands)
//! and [`Dptc::gemm`] (tiled, arbitrary shapes) are the whole compute
//! API. The seed's legacy ragged-`Vec<Vec<f64>>`
//! shims were removed once nothing in-tree used them.

use crate::backend::Fidelity;
use crate::circuit::DdotCircuit;
use crate::ddot::{
    magnitude_noise, perturb_magnitude, systematic_noise, zero_mean_normal, DDot,
    WavelengthCoefficients,
};
use crate::noise_model::NoiseModel;
use lt_core::{GaussianSampler, Matrix64, MatrixView, Quantizer};
use std::sync::Arc;

/// Geometry of a DPTC crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DptcConfig {
    /// Number of horizontal input waveguides (rows of the left operand).
    pub nh: usize,
    /// Number of vertical input waveguides (columns of the right operand).
    pub nv: usize,
    /// Number of WDM wavelengths (the shared inner dimension).
    pub nlambda: usize,
}

impl DptcConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nh: usize, nv: usize, nlambda: usize) -> Self {
        assert!(
            nh > 0 && nv > 0 && nlambda > 0,
            "DPTC dimensions must be positive (got {nh} x {nv} x {nlambda})"
        );
        DptcConfig { nh, nv, nlambda }
    }

    /// The paper's core geometry: `Nh = Nv = N_lambda = 12` (Table IV).
    pub fn lt_paper() -> Self {
        DptcConfig::new(12, 12, 12)
    }

    /// A square core of size `n` (used for the Fig. 9/10 scaling sweeps).
    pub fn square(n: usize) -> Self {
        DptcConfig::new(n, n, n)
    }

    /// Multiply-accumulate operations performed per cycle.
    pub fn macs_per_cycle(&self) -> usize {
        self.nh * self.nv * self.nlambda
    }

    /// Number of DDot units in the crossbar.
    pub fn num_ddots(&self) -> usize {
        self.nh * self.nv
    }

    /// Number of tiles `T = ceil(m/Nh) * ceil(d/N_lambda) * ceil(n/Nv)`
    /// needed for an `m x d` by `d x n` GEMM (the `T` of Eq. 11).
    pub fn tiles_for(&self, m: usize, d: usize, n: usize) -> usize {
        m.div_ceil(self.nh) * d.div_ceil(self.nlambda) * n.div_ceil(self.nv)
    }

    /// Hardware utilization of a tiled GEMM: useful MACs over issued MACs.
    pub fn utilization(&self, m: usize, d: usize, n: usize) -> f64 {
        let useful = (m * d * n) as f64;
        let issued = (self.tiles_for(m, d, n) * self.macs_per_cycle()) as f64;
        useful / issued
    }
}

/// The per-invocation operand encoding cost of Eq. 6, in units of
/// "scalar signals that need a DAC + MZM drive".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingCost {
    /// Encodings with crossbar sharing: `Nh*N_lambda + N_lambda*Nv`.
    pub shared: usize,
    /// Encodings without sharing (separate dot-product engines):
    /// `2 * Nh * Nv * N_lambda`.
    pub unshared: usize,
}

impl EncodingCost {
    /// The encoding-cost saving factor `2 Nh Nv / (Nh + Nv)` enabled by the
    /// intra-core optical broadcast.
    pub fn saving_factor(&self) -> f64 {
        self.unshared as f64 / self.shared as f64
    }
}

/// A dynamically-operated photonic tensor core.
///
/// ```
/// use lt_dptc::{Dptc, DptcConfig};
/// let core = Dptc::new(DptcConfig::lt_paper());
/// // Eq. 6: a 12x12x12 core saves 12x encoding cost.
/// assert!((core.encoding_cost().saving_factor() - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Dptc {
    config: DptcConfig,
    ddot: DDot,
}

impl Dptc {
    /// Creates a core with the given geometry over the paper's DWDM grid.
    pub fn new(config: DptcConfig) -> Self {
        Dptc {
            config,
            ddot: DDot::new(config.nlambda),
        }
    }

    /// The core geometry.
    pub fn config(&self) -> DptcConfig {
        self.config
    }

    /// The underlying DDot engine (shared wavelength grid).
    pub fn ddot(&self) -> &DDot {
        &self.ddot
    }

    /// The Eq. 6 encoding cost of one one-shot MM.
    pub fn encoding_cost(&self) -> EncodingCost {
        let DptcConfig { nh, nv, nlambda } = self.config;
        EncodingCost {
            shared: nh * nlambda + nlambda * nv,
            unshared: 2 * nh * nv * nlambda,
        }
    }

    /// One-shot matrix product at the selected [`Fidelity`]: `a` is
    /// `[Nh, N_lambda]`, `b` is `[N_lambda, Nv]`, the result is
    /// `[Nh, Nv]`.
    ///
    /// * [`Fidelity::Ideal`] — the functional contract: the exact product
    ///   through the workspace's shared kernel.
    /// * [`Fidelity::AnalyticNoisy`] — the paper's Eq. 9 transfer with
    ///   encoding magnitude/phase noise, per-wavelength dispersion, and
    ///   systematic output noise. Noise realizations follow the
    ///   hardware's sharing structure: each operand element is *encoded
    ///   once* and broadcast, so its magnitude drift is shared by every
    ///   DDot in its row/column; relative phase drift is drawn once per
    ///   DDot (all wavelengths interfere in the same coupler, so they
    ///   share its operand-path drift); systematic noise per detected
    ///   output.
    /// * [`Fidelity::Circuit`] — field propagation through the actual
    ///   device netlist ([`DdotCircuit`]); roughly an order of magnitude
    ///   slower, use for validation.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not match the core geometry.
    pub fn matmul(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        fidelity: &Fidelity,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        match *fidelity {
            Fidelity::Ideal => a.matmul(&b),
            Fidelity::AnalyticNoisy { noise, seed } => {
                let mut rng = GaussianSampler::new(seed);
                let coeffs = WavelengthCoefficients::compute(self.ddot.grid(), &noise.dispersion);
                self.mm_noisy_with(a, b, &noise, &coeffs, &mut rng)
            }
            Fidelity::Circuit { noise, seed } => {
                let mut rng = GaussianSampler::new(seed);
                let circuit = DdotCircuit::paper(self.config.nlambda);
                self.mm_circuit_with(a, b, &noise, &circuit, &mut rng)
            }
        }
    }

    /// Tiled GEMM of arbitrary dimensions at the selected [`Fidelity`],
    /// with per-tile operand normalization (`beta = max|.|`, paper
    /// Section III-C) and `bits`-bit operand quantization.
    ///
    /// Partial sums accumulate at full precision, mirroring the analog
    /// photocurrent summation and temporal accumulation of Section IV
    /// (A/D conversion happens after analog accumulation, so no
    /// intermediate quantization is modeled).
    ///
    /// [`Fidelity::Ideal`] bypasses tiling and quantization entirely and
    /// returns the exact product — the functional contract, bit-for-bit
    /// identical to [`lt_core::NativeBackend`]. Use
    /// [`Dptc::gemm_quantized`] for the quantized-but-noiseless digital
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn gemm(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
        fidelity: &Fidelity,
    ) -> Matrix64 {
        assert_eq!(
            a.cols(),
            b.rows(),
            "gemm shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        match *fidelity {
            Fidelity::Ideal => a.matmul(&b),
            Fidelity::AnalyticNoisy { noise, seed } => {
                let coeffs = WavelengthCoefficients::compute(self.ddot.grid(), &noise.dispersion);
                self.gemm_tiled_analytic(a, b, bits, &noise, seed, &coeffs)
            }
            Fidelity::Circuit { noise, seed } => {
                let quant = Quantizer::new(bits);
                let mut rng = GaussianSampler::new(seed);
                self.gemm_tiled_circuit(a, b, &quant, &noise, &mut rng)
            }
        }
    }

    /// Exact tiled GEMM (same tiling and quantization as the noisy path,
    /// no analog noise) — the "quantized digital" reference the accuracy
    /// experiments compare against.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn gemm_quantized(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
    ) -> Matrix64 {
        self.gemm(
            a,
            b,
            bits,
            &Fidelity::AnalyticNoisy {
                noise: NoiseModel::noiseless(),
                seed: 0,
            },
        )
    }

    /// The analytic Eq. 9 one-shot MM with precomputed coefficients and a
    /// caller-managed RNG — the hot path shared by [`Dptc::gemm`] and the
    /// fault-injection entry points.
    pub(crate) fn mm_noisy_with(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        noise: &NoiseModel,
        coeffs: &WavelengthCoefficients,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        let DptcConfig { nh, nv, nlambda } = self.config;

        // Encode each operand element once (shared noise realization).
        let mut a_hat = a.to_matrix();
        for v in a_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng);
        }
        // Transposed so each DDot's wavelength column is contiguous.
        let bt = b.to_matrix().transpose();
        let mut b_hat = bt;
        for v in b_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng);
        }

        let mut out = Matrix64::zeros(nh, nv);
        noisy_mm_rows(
            a_hat.data(),
            b_hat.data(),
            nh,
            nv,
            nv,
            nlambda,
            nlambda,
            noise,
            coeffs,
            rng,
            &mut vec![0.0; 2 * nh * nv],
            out.data_mut(),
        );
        out
    }

    /// Circuit-level one-shot MM: every DDot output is obtained by
    /// propagating fields through the device netlist.
    pub(crate) fn mm_circuit_with(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        noise: &NoiseModel,
        circuit: &DdotCircuit,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        let DptcConfig { nh, nv, nlambda } = self.config;

        // Shared encoding noise, exactly as in `mm_noisy_with`, clamped to
        // the MZM's encoding range.
        let mut a_hat = a.to_matrix();
        for v in a_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
        }
        let mut b_hat = b.to_matrix();
        for v in b_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
        }

        // The per-DDot netlist then only adds phase drift + systematic
        // noise (magnitudes were already perturbed above).
        let ddot_noise = NoiseModel {
            sigma_magnitude: 0.0,
            ..*noise
        };
        let mut out = Matrix64::zeros(nh, nv);
        let mut y = vec![0.0; nlambda];
        for i in 0..nh {
            let a_row = a_hat.row(i);
            let out_row = out.row_mut(i);
            for (j, out_ij) in out_row.iter_mut().enumerate().take(nv) {
                for (l, yl) in y.iter_mut().enumerate() {
                    *yl = b_hat.get(l, j);
                }
                *out_ij = circuit.dot_noisy_with(a_row, &y, &ddot_noise, rng);
            }
        }
        out
    }

    /// The shared tiled-GEMM loop ([`Dptc::gemm_tiled_analytic_into`])
    /// into a fresh matrix.
    pub(crate) fn gemm_tiled_analytic(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
        noise: &NoiseModel,
        seed: u64,
        coeffs: &WavelengthCoefficients,
    ) -> Matrix64 {
        let mut out = Matrix64::zeros(0, 0);
        self.gemm_tiled_analytic_into(a, b, bits, noise, seed, coeffs, &mut out);
        out
    }

    /// The shared tiled-GEMM loop.
    ///
    /// The analytic path is the workspace's hottest loop (every recorded
    /// forward pass lands here), so it is organized around three
    /// invariants: every `B` tile is magnitude-perturbed exactly once per
    /// call (stored transposed so each DDot reads its wavelength column
    /// contiguously), every `A` tile once per row strip, and each tile's
    /// noise-free DAC codes are computed at most once per call. Encoding
    /// noise is drawn at gather time because that is when the DAC drives
    /// the modulator: a tile loaded once and reused against many partners
    /// carries one encoding realization — the same operand-reuse
    /// structure the paper's Eq. 6 counts DAC conversions by. The
    /// per-output noise model then needs one `sin_cos` and two Gaussians
    /// per DDot, with a branch-free multiply-add MAC loop in between.
    /// Noise work is confined to the *valid* tile region: edge tiles (and
    /// especially the `m = 1` matrix-vector products of autoregressive
    /// decode, which occupy one row of a 12-row strip) never pay
    /// DAC-encoding or per-DDot draws for zero-padded rows, columns, or
    /// wavelengths — padding is never encoded, carries no signal, and its
    /// detector outputs are discarded, so the model draws nothing for it.
    /// The circuit fidelity keeps the straightforward gather-per-tile
    /// structure — it is a validation path, not a hot one.
    ///
    /// A weight reaches the DAC as stored codes: only the drive and its
    /// noise are per use. So when `b` carries a memo
    /// ([`MatrixView::with_memo`]) the first product fills it with `B`'s
    /// codes ([`Dptc::encode_b`]), keyed by the core geometry, `bits` and
    /// `B`'s shape, and every later product reads them back instead of
    /// re-encoding; the first writer wins, and a call whose key differs
    /// encodes into scratch as an operand without a memo does. Encoding
    /// draws nothing, so the memo moves no draw and no bit.
    ///
    /// Gaussians are drawn in bulk: one [`GaussianSampler::fill_normal`]
    /// per encoded tile and one per tile product, each in the order the
    /// per-draw formulation consumed them, and the draws are then
    /// applied through the same expressions (`crate::ddot`'s
    /// `magnitude_noise`, `zero_mean_normal` and `systematic_noise`). The
    /// stream, the number and order of draws, and every rounding step
    /// are those of one `sample()` call per term, so the output is the
    /// same bit for bit; `tests/backend_equivalence.rs` pins it.
    ///
    /// Per-call fixed costs are hoisted out of this loop: the wavelength
    /// transfer coefficients are passed in precomputed (the backend
    /// caches them — the dispersion model is a config constant, not a
    /// per-call quantity), and every tile staging buffer lives in
    /// thread-local scratch so a decode token's ~25 matrix-vector calls
    /// allocate nothing. Scratch reuse is sound without re-zeroing
    /// because every loop below reads only the valid region it just
    /// wrote (`rows_used x cols_used x lambda_used`). The product is
    /// written into `out`, reshaped in place.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `bits` is outside the
    /// quantizer's `2..=16`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_tiled_analytic_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
        noise: &NoiseModel,
        seed: u64,
        coeffs: &WavelengthCoefficients,
        out: &mut Matrix64,
    ) {
        assert_eq!(
            a.cols(),
            b.rows(),
            "gemm shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        let (m, d) = a.shape();
        let n = b.cols();
        let levels = f64::from(Quantizer::new(bits).positive_levels());
        let mut rng = GaussianSampler::new(seed);
        let DptcConfig { nh, nv, nlambda } = self.config;
        out.reset_zeroed(m, n);
        if m == 0 || n == 0 || d == 0 {
            return;
        }

        let nd = d.div_ceil(nlambda);
        let nn = n.div_ceil(nv);
        let tlen_a = nh * nlambda;
        let tlen_b = nv * nlambda;
        let sigma = noise.sigma_magnitude;
        // One tile's encoding draws, or one tile product's (phase,
        // systematic) pairs, whichever is larger.
        let draws = (nh.max(nv) * nlambda).max(2 * nh * nv);
        let key = (self.config, bits, d, n);
        let staged = b.memo().and_then(|memo| {
            memo.get_or_init(|| {
                let mut codes = vec![0.0; nn * nd * tlen_b];
                let mut betas = vec![0.0; nn * nd];
                self.encode_b(b, levels, &mut codes, &mut betas);
                Arc::new(BCodes { key, codes, betas })
            })
            .downcast_ref::<BCodes>()
            .filter(|staged| staged.key == key)
        });

        TILE_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let s = &mut *scratch;
            let (b_codes, beta_b): (&[f64], &[f64]) = match staged {
                Some(staged) => (&staged.codes, &staged.betas),
                None => {
                    let codes = grow(&mut s.b_codes, nn * nd * tlen_b);
                    let betas = grow(&mut s.beta_b, nn * nd);
                    self.encode_b(b, levels, codes, betas);
                    (codes, betas)
                }
            };
            let z = grow(&mut s.z, draws);
            // B's magnitude noise, one realization per tile and call, in
            // encoding order; beta == 0 marks an all-zero tile (never
            // encoded, so it draws nothing and is skipped below).
            let b_tiles: &[f64] = if sigma > 0.0 {
                let noisy = grow(&mut s.b_noisy, nn * nd * tlen_b);
                for (nj, ni) in (0..n).step_by(nv).enumerate() {
                    for (dj, di) in (0..d).step_by(nlambda).enumerate() {
                        let t = nj * nd + dj;
                        if beta_b[t] != 0.0 {
                            perturb_tile(
                                &b_codes[t * tlen_b..][..tlen_b],
                                &mut noisy[t * tlen_b..][..tlen_b],
                                nv.min(n - ni),
                                nlambda.min(d - di),
                                nlambda,
                                sigma,
                                &mut rng,
                                z,
                            );
                        }
                    }
                }
                noisy
            } else {
                b_codes
            };
            let a_codes = grow(&mut s.a_codes, nd * tlen_a);
            let a_noisy = grow(&mut s.a_noisy, nd * tlen_a);
            let beta_a = grow(&mut s.beta_a, nd);
            let tile_out = grow(&mut s.tile_out, nh * nv);

            // Per-row-strip A tiles (encoded once per strip, reused by every
            // column strip — one DAC drive per load) and the tile output.
            for mi in (0..m).step_by(nh) {
                let rows_used = nh.min(m - mi);
                for (dj, di) in (0..d).step_by(nlambda).enumerate() {
                    let lambda_used = nlambda.min(d - di);
                    let tile = &mut a_codes[dj * tlen_a..][..tlen_a];
                    for ti in 0..rows_used {
                        tile[ti * nlambda..][..lambda_used]
                            .copy_from_slice(&a.row(mi + ti)[di..di + lambda_used]);
                    }
                    beta_a[dj] = quantize_tile(tile, rows_used, lambda_used, nlambda, levels);
                    if sigma > 0.0 && beta_a[dj] != 0.0 {
                        let noisy = &mut a_noisy[dj * tlen_a..][..tlen_a];
                        perturb_tile(
                            tile,
                            noisy,
                            rows_used,
                            lambda_used,
                            nlambda,
                            sigma,
                            &mut rng,
                            z,
                        );
                    }
                }
                let a_tiles: &[f64] = if sigma > 0.0 { a_noisy } else { a_codes };
                for nj in 0..nn {
                    let ni = nj * nv;
                    let cols_used = nv.min(n - ni);
                    for dj in 0..nd {
                        let (ba, bb) = (beta_a[dj], beta_b[nj * nd + dj]);
                        if ba == 0.0 || bb == 0.0 {
                            continue; // all-zero tile contributes nothing
                        }
                        let lambda_used = nlambda.min(d - dj * nlambda);
                        let at = &a_tiles[dj * tlen_a..][..tlen_a];
                        let btile = &b_tiles[(nj * nd + dj) * tlen_b..][..tlen_b];
                        noisy_mm_rows(
                            at,
                            btile,
                            rows_used,
                            cols_used,
                            nv,
                            nlambda,
                            lambda_used,
                            noise,
                            coeffs,
                            &mut rng,
                            z,
                            tile_out,
                        );
                        // Rescale and accumulate (analog-domain accumulation).
                        let scale = ba * bb;
                        for ti in 0..rows_used {
                            let src = &tile_out[ti * nv..(ti + 1) * nv];
                            let dst = out.row_mut(mi + ti);
                            for (tj, &v) in src[..cols_used].iter().enumerate() {
                                dst[ni + tj] += v * scale;
                            }
                        }
                    }
                }
            }
        });
    }

    /// Encodes every `N_lambda x Nv` tile of the right operand `b`: the
    /// noise-free half of its DAC drive. Each tile is gathered transposed
    /// (wavelength-contiguous columns), normalized by its `beta = max|v|`
    /// and quantized ([`quantize_tile`]) into `codes`, `Nv * N_lambda`
    /// entries per tile with column strips outer and wavelength blocks
    /// inner, and its `beta` lands in `betas`. Nothing is drawn, so the
    /// codes depend only on `b`, the geometry and `levels`.
    fn encode_b(&self, b: MatrixView<'_, f64>, levels: f64, codes: &mut [f64], betas: &mut [f64]) {
        let DptcConfig { nv, nlambda, .. } = self.config;
        let (d, n) = b.shape();
        let nd = d.div_ceil(nlambda);
        let tlen_b = nv * nlambda;
        for (nj, ni) in (0..n).step_by(nv).enumerate() {
            let cols_used = nv.min(n - ni);
            for (dj, di) in (0..d).step_by(nlambda).enumerate() {
                let lambda_used = nlambda.min(d - di);
                let tile = &mut codes[(nj * nd + dj) * tlen_b..][..tlen_b];
                for tl in 0..lambda_used {
                    let brow = b.row(di + tl);
                    for (tj, &v) in brow[ni..ni + cols_used].iter().enumerate() {
                        tile[tj * nlambda + tl] = v;
                    }
                }
                betas[nj * nd + dj] = quantize_tile(tile, cols_used, lambda_used, nlambda, levels);
            }
        }
    }

    /// Circuit-fidelity tiled GEMM: gather-per-tile, field propagation
    /// per DDot. Kept structurally simple — this is the validation path.
    fn gemm_tiled_circuit(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        quant: &Quantizer,
        noise: &NoiseModel,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        let (m, d) = a.shape();
        let n = b.cols();
        let circuit = DdotCircuit::paper(self.config.nlambda);
        let DptcConfig { nh, nv, nlambda } = self.config;
        let mut out = Matrix64::zeros(m, n);

        let mut tile_a = Matrix64::zeros(nh, nlambda);
        let mut tile_b = Matrix64::zeros(nlambda, nv);
        for mi in (0..m).step_by(nh) {
            for ni in (0..n).step_by(nv) {
                for di in (0..d).step_by(nlambda) {
                    // Gather tiles (zero-padded at the edges).
                    let mut beta_a = 0.0f64;
                    for ti in 0..nh {
                        let gi = mi + ti;
                        let row = tile_a.row_mut(ti);
                        for (tl, v) in row.iter_mut().enumerate() {
                            let gl = di + tl;
                            *v = if gi < m && gl < d { a.get(gi, gl) } else { 0.0 };
                            beta_a = beta_a.max(v.abs());
                        }
                    }
                    let mut beta_b = 0.0f64;
                    for tl in 0..nlambda {
                        let gl = di + tl;
                        let row = tile_b.row_mut(tl);
                        for (tj, v) in row.iter_mut().enumerate() {
                            let gj = ni + tj;
                            *v = if gl < d && gj < n { b.get(gl, gj) } else { 0.0 };
                            beta_b = beta_b.max(v.abs());
                        }
                    }
                    if beta_a == 0.0 || beta_b == 0.0 {
                        continue; // all-zero tile contributes nothing
                    }
                    // Normalize into [-1, 1] and quantize (the DAC).
                    for v in tile_a.data_mut() {
                        *v = quant.quantize_unit(*v / beta_a);
                    }
                    for v in tile_b.data_mut() {
                        *v = quant.quantize_unit(*v / beta_b);
                    }
                    let tile_out =
                        self.mm_circuit_with(tile_a.view(), tile_b.view(), noise, &circuit, rng);
                    // Rescale and accumulate (analog-domain accumulation).
                    let scale = beta_a * beta_b;
                    for ti in 0..nh {
                        let gi = mi + ti;
                        if gi >= m {
                            break;
                        }
                        let src = tile_out.row(ti);
                        let dst = out.row_mut(gi);
                        for tj in 0..nv {
                            let gj = ni + tj;
                            if gj >= n {
                                break;
                            }
                            dst[gj] += src[tj] * scale;
                        }
                    }
                }
            }
        }
        out
    }

    fn check_shapes(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>) {
        let DptcConfig { nh, nv, nlambda } = self.config;
        assert_eq!(a.rows(), nh, "left operand must have Nh = {nh} rows");
        assert_eq!(
            a.cols(),
            nlambda,
            "left operand rows must have N_lambda = {nlambda} entries"
        );
        assert_eq!(
            b.rows(),
            nlambda,
            "right operand must have N_lambda = {nlambda} rows"
        );
        assert_eq!(
            b.cols(),
            nv,
            "right operand rows must have Nv = {nv} entries"
        );
    }
}

/// Reusable tile staging buffers for [`Dptc::gemm_tiled_analytic_into`].
///
/// One instance per thread (see [`TILE_SCRATCH`]): the analytic GEMM is
/// called hundreds of times per decoded token with identical small
/// shapes, and per-call `Vec` allocation was a measurable slice of the
/// decode hot path. Buffers only ever grow ([`grow`]); callers must not
/// read beyond the region they wrote (stale data from earlier calls is
/// deliberately left in place).
#[derive(Default)]
struct TileScratch {
    /// DAC codes and scales of a right operand without memo'd codes.
    b_codes: Vec<f64>,
    beta_b: Vec<f64>,
    b_noisy: Vec<f64>,
    a_codes: Vec<f64>,
    a_noisy: Vec<f64>,
    beta_a: Vec<f64>,
    tile_out: Vec<f64>,
    /// Standard-normal draws of one tile encoding or one tile product.
    z: Vec<f64>,
}

/// Grows `buf` to at least `len` entries and returns its first `len`.
fn grow(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A right operand's DAC codes ([`Dptc::encode_b`]) as a staged weight's
/// memo keeps them, with the `(geometry, bits, rows, cols)` they were
/// encoded for.
struct BCodes {
    key: (DptcConfig, u32, usize, usize),
    codes: Vec<f64>,
    betas: Vec<f64>,
}

thread_local! {
    /// Per-thread tile scratch — parallel row-block workers each get
    /// their own, so the hot path stays contention-free.
    static TILE_SCRATCH: std::cell::RefCell<TileScratch> =
        std::cell::RefCell::new(TileScratch::default());
}

/// The DAC: quantizes a value normalized to `[-1, 1]` onto `levels`
/// positive levels. Equal to [`Quantizer::quantize_unit`] bit for bit
/// for every input, without its libm `round` call, so the loops that
/// call it vectorize under the baseline SSE2 target.
///
/// NaN propagates, as it does in `quantize_unit`. The lookup table this
/// replaced (`floor(|x| + 0.5)` as an index) encoded NaN as `±0`, and it
/// also rounded the one scaled value `|x| = 0.5 - 2^-54` up, because
/// `|x| + 0.5` rounds to 1.0 there; those are the only inputs whose
/// code changed.
///
/// The clamped, scaled `x` has `|x| <= levels < 2^15`. Adding and then
/// subtracting `2^52` rounds `|x|` to the nearest integer with ties to
/// even, exactly (the sum's unit in the last place is 1). `round`
/// breaks ties away from zero instead, so an exact tie (`|x| - r ==
/// 0.5`, itself computed exactly) moves up by one. Dividing by `levels`
/// is the division `quantize_unit` performs, and `copysign` restores the
/// sign, including `round`'s `-0.0` for small negative inputs.
#[inline(always)]
fn dac_quantize(u: f64, levels: f64) -> f64 {
    const ROUND: f64 = (1u64 << 52) as f64;
    let x = u.clamp(-1.0, 1.0) * levels;
    let a = x.abs();
    let r = (a + ROUND) - ROUND;
    let r = r + if a - r == 0.5 { 1.0 } else { 0.0 };
    (r / levels).copysign(x)
}

/// The row runs of a tile's valid region: `outer` rows of `inner`
/// entries at stride `stride`, or one run when the rows fill the stride.
fn runs(outer: usize, inner: usize, stride: usize) -> (usize, usize) {
    if inner == stride {
        (1, outer * inner)
    } else {
        (outer, inner)
    }
}

/// Normalizes a gathered tile into `[-1, 1]` and quantizes it (the DAC).
/// Returns the tile scale `beta = max |v|`; `0` marks an all-zero tile,
/// which is left as gathered.
///
/// Only the valid region is encoded: `outer` rows of `inner` entries at
/// stride `stride` (`stride = N_lambda` for both the row-major `A` tile
/// and the transposed `B` tile). Zero-padded entries are never driven
/// onto a modulator, so they consume no DAC work and no noise draws.
///
/// `beta` is the maximum of four independent running maxima instead of
/// one serial chain; `max` is exact and does not depend on order, so
/// the value is the same.
fn quantize_tile(tile: &mut [f64], outer: usize, inner: usize, stride: usize, levels: f64) -> f64 {
    let (outer, inner) = runs(outer, inner, stride);
    // `max(m, |v|)` as a compare-and-select (one `maxpd` lane): it
    // equals `f64::max` here because `m` starts at 0 and is never NaN.
    let mut lanes = [0.0f64; 4];
    for o in 0..outer {
        for quad in tile[o * stride..][..inner].chunks(4) {
            for (m, &v) in lanes.iter_mut().zip(quad) {
                *m = if v.abs() > *m { v.abs() } else { *m };
            }
        }
    }
    let beta = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    if beta == 0.0 {
        return beta;
    }
    let inv = 1.0 / beta;
    for o in 0..outer {
        for v in &mut tile[o * stride..][..inner] {
            *v = dac_quantize(*v * inv, levels);
        }
    }
    beta
}

/// Draws one encoded tile's magnitude-noise realization, shared by every
/// product the loaded tile participates in, and writes the noisy valid
/// region: `noisy = magnitude_noise(code, σ, z)`. The region's
/// `outer x inner` draws come from one `fill_normal` into `z`, in the
/// row-major order a per-element loop would draw them.
#[allow(clippy::too_many_arguments)]
fn perturb_tile(
    codes: &[f64],
    noisy: &mut [f64],
    outer: usize,
    inner: usize,
    stride: usize,
    sigma_magnitude: f64,
    rng: &mut GaussianSampler,
    z: &mut [f64],
) {
    let (outer, inner) = runs(outer, inner, stride);
    let z = &mut z[..outer * inner];
    rng.fill_normal(z);
    for (o, zrow) in z.chunks_exact(inner).enumerate() {
        let codes = &codes[o * stride..][..inner];
        for ((v, &c), &zv) in noisy[o * stride..][..inner].iter_mut().zip(codes).zip(zrow) {
            *v = magnitude_noise(c, sigma_magnitude, zv);
        }
    }
}

/// The per-output DDot loop shared by the one-shot MM and the tiled
/// GEMM hot path. Operands are already magnitude-perturbed: `a_rows` is
/// row-major with `nlambda`-entry rows, `bt_rows` is the *transposed*
/// right operand (`nlambda`-entry rows), so both stream contiguously.
/// Only `rows x cols` outputs are detected — a decode-style `m = 1`
/// strip computes one row, not the full `Nh x Nv` crossbar — and each
/// output draws one phase realization (folded into the precomputed
/// angle-addition tables — see [`WavelengthCoefficients::msin`]) and
/// one systematic realization, in that order, output by output; all of
/// them come from one `fill_normal` into `z` (`2 * rows * cols`
/// entries at most). The wavelength loop is a branch-free multiply-add
/// chain over two interleaved accumulators (the strict single-chain
/// version serializes on FP-add latency). `out` keeps row stride
/// `out_stride` (`>= cols`); entries beyond `rows x cols` are left
/// untouched.
#[allow(clippy::too_many_arguments)]
fn noisy_mm_rows(
    a_rows: &[f64],
    bt_rows: &[f64],
    rows: usize,
    cols: usize,
    out_stride: usize,
    nlambda: usize,
    lambda_used: usize,
    noise: &NoiseModel,
    coeffs: &WavelengthCoefficients,
    rng: &mut GaussianSampler,
    z: &mut [f64],
    out: &mut [f64],
) {
    let drift = noise.sigma_phase_rad > 0.0;
    let systematic = noise.sigma_systematic > 0.0;
    let per_output = usize::from(drift) + usize::from(systematic);
    let z = &mut z[..rows * cols * per_output];
    rng.fill_normal(z);
    let mult0 = &coeffs.mult0[..lambda_used];
    let msin = &coeffs.msin[..lambda_used];
    let imb = &coeffs.imbalance[..lambda_used];
    for i in 0..rows {
        let a_row = &a_rows[i * nlambda..i * nlambda + lambda_used];
        let out_row = &mut out[i * out_stride..i * out_stride + cols];
        for (j, out_ij) in out_row.iter_mut().enumerate() {
            let b_col = &bt_rows[j * nlambda..j * nlambda + lambda_used];
            let zij = &z[(i * cols + j) * per_output..][..per_output];
            let (sg, cg) = if drift {
                zero_mean_normal(noise.sigma_phase_rad, zij[0]).sin_cos()
            } else {
                (0.0, 1.0)
            };
            let (mut io0, mut io1) = (0.0, 0.0);
            let mut l = 0;
            while l + 1 < lambda_used {
                let (x0, y0) = (a_row[l], b_col[l]);
                let (x1, y1) = (a_row[l + 1], b_col[l + 1]);
                io0 += (mult0[l] * cg - msin[l] * sg) * x0 * y0 + imb[l] * (x0 * x0 - y0 * y0);
                io1 += (mult0[l + 1] * cg - msin[l + 1] * sg) * x1 * y1
                    + imb[l + 1] * (x1 * x1 - y1 * y1);
                l += 2;
            }
            if l < lambda_used {
                let (x, y) = (a_row[l], b_col[l]);
                io0 += (mult0[l] * cg - msin[l] * sg) * x * y + imb[l] * (x * x - y * y);
            }
            *out_ij = if systematic {
                systematic_noise(io0 + io1, noise.sigma_systematic, zij[per_output - 1])
            } else {
                io0 + io1
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(rng: &mut GaussianSampler, r: usize, c: usize) -> Matrix64 {
        Matrix64::from_fn(r, c, |_, _| rng.uniform_in(-1.0, 1.0))
    }

    fn rand_scaled(rng: &mut GaussianSampler, r: usize, c: usize, scale: f64) -> Matrix64 {
        Matrix64::from_fn(r, c, |_, _| rng.uniform_in(-scale, scale))
    }

    fn paper_noisy(seed: u64) -> Fidelity {
        Fidelity::AnalyticNoisy {
            noise: NoiseModel::paper_default(),
            seed,
        }
    }

    #[test]
    fn ideal_matches_reference_matmul() {
        let core = Dptc::new(DptcConfig::new(3, 5, 4));
        let mut rng = GaussianSampler::new(1);
        let a = rand_matrix(&mut rng, 3, 4);
        let b = rand_matrix(&mut rng, 4, 5);
        let out = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let reference = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn eq6_saving_factor() {
        // Nh = Nv = N_lambda = 12 => 12x less encoding cost (paper text).
        let core = Dptc::new(DptcConfig::lt_paper());
        let cost = core.encoding_cost();
        assert_eq!(cost.shared, 12 * 12 + 12 * 12);
        assert_eq!(cost.unshared, 2 * 12 * 12 * 12);
        assert!((cost.saving_factor() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_general_formula() {
        let core = Dptc::new(DptcConfig::new(8, 24, 12));
        let cost = core.encoding_cost();
        let expect = 2.0 * 8.0 * 24.0 / (8.0 + 24.0);
        assert!((cost.saving_factor() - expect).abs() < 1e-12);
    }

    #[test]
    fn tiles_match_eq11() {
        let cfg = DptcConfig::lt_paper();
        // DeiT-T QK^T per head: [197, 64] x [64, 197].
        let t = cfg.tiles_for(197, 64, 197);
        assert_eq!(t, 17 * 6 * 17);
        assert!(cfg.utilization(197, 64, 197) < 1.0);
        // Perfectly divisible workload has utilization 1.
        assert!((cfg.utilization(24, 24, 24) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_matmul_tracks_ideal() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(5);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let noisy = core.matmul(a.view(), b.view(), &paper_noisy(7));
        let max_err = ideal.max_abs_diff(&noisy);
        // Errors stay in the few-percent band relative to the length-12
        // dot-product scale.
        assert!(max_err > 0.0 && max_err < 0.8, "max_err {max_err}");
    }

    #[test]
    fn circuit_level_matmul_tracks_ideal() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(21);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let circuit = core.matmul(
            a.view(),
            b.view(),
            &Fidelity::Circuit {
                noise: NoiseModel::paper_default(),
                seed: 9,
            },
        );
        let analytic = core.matmul(a.view(), b.view(), &paper_noisy(9));
        let max_circuit = circuit.max_abs_diff(&ideal);
        let max_analytic = analytic.max_abs_diff(&ideal);
        // Both fidelities stay in the same error envelope.
        assert!(
            max_circuit > 0.0 && max_circuit < 0.8,
            "circuit err {max_circuit}"
        );
        assert!(
            max_circuit < 3.0 * max_analytic.max(0.05),
            "circuit {max_circuit} vs analytic {max_analytic}"
        );
    }

    #[test]
    fn circuit_level_matmul_noiseless_has_only_dispersion_bias() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(23);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let noise =
            NoiseModel::noiseless().with_dispersion(lt_photonics::wdm::DispersionModel::paper());
        let circuit = core.matmul(a.view(), b.view(), &Fidelity::Circuit { noise, seed: 0 });
        assert!(
            circuit.max_abs_diff(&ideal) < 0.05,
            "max dispersion bias {}",
            circuit.max_abs_diff(&ideal)
        );
    }

    #[test]
    fn noiseless_gemm_equals_quantized_reference() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(9);
        let (m, d, n) = (20, 30, 17);
        let a = rand_scaled(&mut rng, m, d, 2.0);
        let b = rand_scaled(&mut rng, d, n, 3.0);
        let out = core.gemm_quantized(a.view(), b.view(), 8);
        // Compare against a straightforward f64 matmul; 8-bit quantization
        // keeps per-tile error small.
        let exact = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(
            out.max_abs_diff(&exact) < 0.3,
            "max quantization error {}",
            out.max_abs_diff(&exact)
        );
    }

    #[test]
    fn dac_quantizer_equals_quantize_unit_bit_for_bit() {
        let specials = [
            0.0,
            1.0,
            0.5,
            1.5,
            2.0,
            1e300,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1), // smallest subnormal
        ];
        for bits in 2..=16 {
            let quant = Quantizer::new(bits);
            let levels = f64::from(quant.positive_levels());
            // Every code boundary `(k + 0.5) / levels` and its neighbours
            // (at 2 bits, `levels == 1` puts `0.5.next_down()` here, whose
            // `|x| + 0.5` rounds up to 1.0), plus the specials, both signs.
            let boundaries = (0..quant.positive_levels())
                .map(|k| (f64::from(k) + 0.5) / levels)
                .flat_map(|u| [u.next_down(), u, u.next_up()]);
            for u in specials.into_iter().chain(boundaries) {
                for u in [u, -u] {
                    assert_eq!(
                        dac_quantize(u, levels).to_bits(),
                        quant.quantize_unit(u).to_bits(),
                        "{bits} bits, input {u:e}"
                    );
                }
            }
            assert!(dac_quantize(f64::NAN, levels).is_nan(), "{bits} bits");
            assert!(quant.quantize_unit(f64::NAN).is_nan(), "{bits} bits");
        }
    }

    #[test]
    fn ideal_gemm_is_bit_exact_with_shared_kernel() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(31);
        let a = rand_scaled(&mut rng, 19, 37, 2.0);
        let b = rand_scaled(&mut rng, 37, 23, 2.0);
        let out = core.gemm(a.view(), b.view(), 4, &Fidelity::Ideal);
        assert_eq!(out, a.matmul(&b), "Ideal fidelity is the exact contract");
    }

    #[test]
    fn gemm_handles_non_divisible_edges() {
        let core = Dptc::new(DptcConfig::new(4, 4, 4));
        let mut rng = GaussianSampler::new(11);
        let (m, d, n) = (5, 7, 3);
        let a = rand_matrix(&mut rng, m, d);
        let b = rand_matrix(&mut rng, d, n);
        let out = core.gemm(
            a.view(),
            b.view(),
            8,
            &Fidelity::AnalyticNoisy {
                noise: NoiseModel::noiseless(),
                seed: 0,
            },
        );
        assert_eq!(out.shape(), (m, n));
        let exact = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(out.max_abs_diff(&exact) < 0.1);
    }

    #[test]
    fn zero_tiles_are_skipped() {
        let core = Dptc::new(DptcConfig::new(4, 4, 4));
        let a = Matrix64::zeros(4, 4);
        let b = Matrix64::from_fn(4, 4, |_, _| 1.0);
        let out = core.gemm(a.view(), b.view(), 4, &paper_noisy(3));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemm_noise_is_seed_deterministic() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(13);
        let a = rand_matrix(&mut rng, 24, 24);
        let b = rand_matrix(&mut rng, 24, 24);
        let o1 = core.gemm(a.view(), b.view(), 4, &paper_noisy(42));
        let o2 = core.gemm(a.view(), b.view(), 4, &paper_noisy(42));
        assert_eq!(o1, o2);
    }

    #[test]
    #[should_panic(expected = "must have Nh")]
    fn wrong_shapes_rejected() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let a = Matrix64::zeros(5, 12);
        let b = Matrix64::zeros(12, 12);
        core.matmul(a.view(), b.view(), &Fidelity::Ideal);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_config_rejected() {
        DptcConfig::new(0, 12, 12);
    }
}
