//! Matmul execution engines — thin `f32` adapters over the workspace's
//! pluggable [`ComputeBackend`]s.
//!
//! Inference can execute every matrix product on any backend: the exact
//! shared kernel at fp32 ([`ExactEngine`]), or *any* [`ComputeBackend`]
//! via the generic [`BackendEngine`] — the noisy photonic DPTC of
//! Figs. 14-15 (`lt_dptc::DptcBackend`), the quantized-but-noiseless
//! digital reference (`DptcBackend::quantized`) and the MZI/MRR/PCM
//! baselines alike. [`BackendEngine`] only widens `f32 -> f64`,
//! delegates, and narrows back; all compute semantics live in the
//! backends.

use crate::tensor::Tensor;
use lt_core::{ComputeBackend, Matrix64, MatrixView, OperandMemo, RunCtx};
use std::fmt;
use std::sync::OnceLock;

/// A pluggable matrix-multiplication engine for the `f32` NN stack.
///
/// Engines may be stateful (stochastic backends advance their noise
/// stream every call), hence `&mut self`.
pub trait MatmulEngine: fmt::Debug {
    /// Computes `a x b`.
    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor;

    /// Computes `a x w` for a model weight `w` staged in `staged`. An
    /// engine that computes in `f64` reads the staged copy, building it
    /// from `w` on first use, instead of widening `w` on every call, and
    /// hands the backend the staging's memo with it; the result is
    /// bit-identical to [`MatmulEngine::matmul`]. The default is plain
    /// `matmul`, which leaves the staging empty.
    ///
    /// The caller keeps the staging current: once built the copy must
    /// equal `w.to_f64()` and the memo must hold only work derived from
    /// it, so every change to `w` must empty both first.
    fn matmul_staged(&mut self, a: &Tensor, w: &Tensor, staged: &StagedWeight) -> Tensor {
        let _ = staged;
        self.matmul(a, w)
    }

    /// Computes `a x b`, or `a x bᵀ` when `transpose_b`, for operands
    /// that may be blocks of wider tensors — an attention head's column
    /// range of Q, K and V. The result, and the engine's state after the
    /// call, are bit-identical to [`MatmulEngine::matmul`] on owned
    /// copies of `a` and of `b` (or its transpose). The default makes
    /// those copies; an engine that stages its operands anyway reads the
    /// blocks in place.
    fn matmul_blocks(
        &mut self,
        a: MatrixView<'_, f32>,
        b: MatrixView<'_, f32>,
        transpose_b: bool,
    ) -> Tensor {
        let (a, b) = block_copies(a, b, transpose_b);
        self.matmul(&a, &b)
    }

    /// A short human-readable backend name.
    fn name(&self) -> &str;
}

/// A model weight's `f64` staging: its widened copy and a memo the
/// backend may fill with work derived from that copy (the analytic DPTC
/// keeps the weight's DAC codes there). Both stay empty until an `f64`
/// engine needs them.
#[derive(Debug, Clone, Default)]
pub struct StagedWeight {
    pub(crate) w64: OnceLock<Matrix64>,
    pub(crate) memo: OperandMemo,
}

impl StagedWeight {
    /// The staged copy of `w`, built from it on first use, as a view
    /// that carries `w` as its f32 source and this staging's memo.
    pub(crate) fn view<'a>(&'a self, w: &'a Tensor) -> MatrixView<'a, f64> {
        let w64 = self.w64.get_or_init(|| w.to_f64());
        w64.view().with_f32_source(w.view()).with_memo(&self.memo)
    }

    /// Empties the copy and the memo.
    pub(crate) fn clear(&mut self) {
        self.w64.take();
        self.memo.take();
    }
}

/// Owned copies of the operands of [`MatmulEngine::matmul_blocks`]: `a`,
/// and `b` or its transpose.
pub(crate) fn block_copies(
    a: MatrixView<'_, f32>,
    b: MatrixView<'_, f32>,
    transpose_b: bool,
) -> (Tensor, Tensor) {
    let b = if transpose_b {
        b.to_matrix().transpose()
    } else {
        b.to_matrix()
    };
    (a.to_matrix(), b)
}

/// Adapts any [`ComputeBackend`] into a [`MatmulEngine`], carrying the
/// [`RunCtx`] that keeps stochastic backends reproducible per-run: every
/// call advances its seed stream, so noise realizations are fresh but
/// the whole run replays bit for bit.
///
/// ```
/// use lt_core::NativeBackend;
/// use lt_nn::engine::{BackendEngine, MatmulEngine};
/// use lt_nn::Tensor;
///
/// let mut engine = BackendEngine::new(NativeBackend, 0);
/// let a = Tensor::from_fn(2, 3, |i, j| (i + j) as f32);
/// let b = Tensor::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
/// assert_eq!(engine.matmul(&a, &b), a.matmul(&b));
/// assert_eq!(engine.name(), "native");
/// ```
#[derive(Debug, Clone)]
pub struct BackendEngine<B> {
    backend: B,
    ctx: RunCtx,
    /// Reused f64 staging buffers (widened operands + backend output).
    /// Per-token decode issues the same shapes every step, so after the
    /// first pass the widen/narrow adapter allocates nothing beyond the
    /// returned f32 tensor ([`lt_core::kernel::tiled_gemm_into`]).
    /// Layer weights skip `b64`: their copy is staged once per layer
    /// ([`MatmulEngine::matmul_staged`]).
    a64: Matrix64,
    b64: Matrix64,
    out64: Matrix64,
}

impl<B: ComputeBackend> BackendEngine<B> {
    /// Wraps a backend with a root seed for its noise stream.
    pub fn new(backend: B, seed: u64) -> Self {
        BackendEngine {
            backend,
            ctx: RunCtx::new(seed),
            a64: Matrix64::zeros(0, 0),
            b64: Matrix64::zeros(0, 0),
            out64: Matrix64::zeros(0, 0),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Per-call seeds the wrapped backend has drawn from the engine's
    /// stream so far ([`RunCtx::calls`]). A stochastic backend draws one
    /// per product; a deterministic one, such as
    /// [`lt_core::NativeBackend`], draws none, so this reads 0 however
    /// many products it ran.
    pub fn seed_draws(&self) -> u64 {
        self.ctx.calls()
    }
}

impl<B: ComputeBackend> MatmulEngine for BackendEngine<B> {
    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul_blocks(a.view(), b.view(), false)
    }

    fn matmul_blocks(
        &mut self,
        a: MatrixView<'_, f32>,
        b: MatrixView<'_, f32>,
        transpose_b: bool,
    ) -> Tensor {
        // Stage through the engine-owned scratch: widen in place (a
        // block straight out of its wider tensor, transposing `b` on the
        // way when asked), run the backend's `gemm_into`, narrow into
        // the returned tensor. The staged operands are exactly the
        // widened block copies, so the result is bit-identical to `gemm`
        // on them (gemm_into's contract); the only allocation left in
        // steady state is the f32 result.
        a.to_f64_into(&mut self.a64);
        if transpose_b {
            b.to_f64_transposed_into(&mut self.b64);
        } else {
            b.to_f64_into(&mut self.b64);
        }
        self.backend.gemm_into(
            self.a64.view(),
            self.b64.view(),
            &mut self.ctx,
            &mut self.out64,
        );
        self.out64.to_f32()
    }

    fn matmul_staged(&mut self, a: &Tensor, w: &Tensor, staged: &StagedWeight) -> Tensor {
        // The staged copy carries `w` as its f32 source, which the exact
        // kernel may stream instead, and the memo, where the analytic
        // DPTC keeps the weight's DAC codes; both give the same bits.
        let w64 = staged.view(w);
        a.to_f64_into(&mut self.a64);
        self.backend
            .gemm_into(self.a64.view(), w64, &mut self.ctx, &mut self.out64);
        self.out64.to_f32()
    }

    fn name(&self) -> &str {
        self.backend.name()
    }
}

/// Exact execution on the shared kernel at fp32 (the "GPU" reference).
///
/// This is the one engine that stays in single precision end to end:
/// it runs `lt_core`'s shared kernel directly on the `f32` tensors, so
/// the "digital fp32 reference" accuracies keep fp32 accumulation
/// semantics and the training hot path pays no widening copies. Wrap
/// [`lt_core::NativeBackend`] in a [`BackendEngine`] when `f64`
/// reference numerics are wanted instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEngine;

impl MatmulEngine for ExactEngine {
    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        a.matmul(b)
    }

    fn name(&self) -> &str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::{GaussianSampler, NativeBackend};
    use lt_dptc::{DptcBackend, DptcConfig, Fidelity};

    /// The photonic accuracy engine of Figs. 14-15: a 12x12 DPTC with
    /// `n_lambda` wavelengths, the paper's noise and `bits`-bit DACs.
    fn photonic(bits: u32, n_lambda: usize, seed: u64) -> BackendEngine<DptcBackend> {
        let config = DptcConfig::new(12, 12, n_lambda);
        let backend = DptcBackend::new(config, Fidelity::paper_noisy(seed), bits);
        BackendEngine::new(backend, seed)
    }

    fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = GaussianSampler::new(seed);
        (
            Tensor::randn(m, k, 0.5, &mut rng),
            Tensor::randn(k, n, 0.5, &mut rng),
        )
    }

    #[test]
    fn exact_engine_is_plain_matmul() {
        let (a, b) = rand_pair(5, 7, 3, 1);
        assert_eq!(ExactEngine.matmul(&a, &b), a.matmul(&b));
    }

    #[test]
    fn quantized_backend_engine_tracks_exact() {
        let (a, b) = rand_pair(8, 16, 8, 2);
        let exact = a.matmul(&b);
        let q = BackendEngine::new(DptcBackend::quantized(8), 0).matmul(&a, &b);
        let scale = exact.max_abs();
        assert!(q.max_abs_diff(&exact) < 0.1 * scale.max(1.0));
    }

    #[test]
    fn photonic_engine_tracks_exact_with_bounded_error() {
        let (a, b) = rand_pair(12, 24, 12, 3);
        let exact = a.matmul(&b);
        let got = photonic(8, 12, 11).matmul(&a, &b);
        // Relative to the output scale, analog error is a few percent.
        let rel = got.max_abs_diff(&exact) / exact.max_abs().max(1e-3);
        assert!(rel < 0.35, "relative photonic error {rel}");
    }

    #[test]
    fn photonic_noise_advances_between_calls() {
        let (a, b) = rand_pair(4, 12, 4, 4);
        let mut eng = photonic(8, 12, 5);
        let first = eng.matmul(&a, &b);
        let second = eng.matmul(&a, &b);
        assert!(first.max_abs_diff(&second) > 0.0, "fresh noise per call");
        assert_eq!(eng.seed_draws(), 2);
    }

    #[test]
    fn photonic_runs_are_reproducible() {
        let (a, b) = rand_pair(4, 12, 4, 6);
        let r1 = photonic(8, 12, 7).matmul(&a, &b);
        let r2 = photonic(8, 12, 7).matmul(&a, &b);
        assert_eq!(r1, r2);
    }

    #[test]
    fn fewer_wavelengths_still_work() {
        let (a, b) = rand_pair(6, 20, 6, 8);
        let exact = a.matmul(&b);
        let got = photonic(8, 6, 9).matmul(&a, &b);
        let rel = got.max_abs_diff(&exact) / exact.max_abs().max(1e-3);
        assert!(rel < 0.4, "6-wavelength relative error {rel}");
    }

    #[test]
    fn generic_backend_engine_swaps_compute() {
        // The same workload runs on the exact kernel and the photonic
        // core by swapping the wrapped backend — the API redesign's whole
        // point.
        let (a, b) = rand_pair(10, 15, 9, 10);
        let mut native = BackendEngine::new(NativeBackend, 0);
        let mut photonic = BackendEngine::new(DptcBackend::paper(8, 3), 3);
        let exact = native.matmul(&a, &b);
        let noisy = photonic.matmul(&a, &b);
        assert_eq!(native.name(), "native");
        assert_eq!(photonic.name(), "dptc-analytic");
        let rel = noisy.max_abs_diff(&exact) / exact.max_abs().max(1e-3);
        assert!(rel < 0.5, "relative error across backends {rel}");
    }
}
