//! Trainable layers with hand-written backward passes.

use crate::engine::{block_copies, MatmulEngine, StagedWeight};
use crate::quant::{IntegerQuant, QuantConfig};
use crate::tanh::tanhf;
use crate::tensor::Tensor;
use lt_core::trace::{NonGemmKind, Op, OpKind, Trace};
use lt_core::GaussianSampler;
use lt_core::{quantized_gemm, MatrixView, QuantizedMatrix};

/// A trainable parameter with its gradient and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
    m: Tensor,
    v: Tensor,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        }
    }

    /// Clears the gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.rows(), self.value.cols());
    }

    /// One Adam update (`t` is the 1-based step count).
    pub fn adam_step(&mut self, lr: f32, beta1: f32, beta2: f32, eps: f32, t: u64) {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for i in 0..self.value.data().len() {
            let g = self.grad.data()[i];
            let m = beta1 * self.m.data()[i] + (1.0 - beta1) * g;
            let v = beta2 * self.v.data()[i] + (1.0 - beta2) * g * g;
            self.m.data_mut()[i] = m;
            self.v.data_mut()[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            self.value.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.data().len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.data().is_empty()
    }
}

/// Noise-aware training's output perturbation (§V-E): every routed
/// product's output is scaled element-wise by `1 + std · N(0, 1)`, drawn
/// from `rng`, to mimic Eq. 9's systematic term.
#[derive(Debug)]
pub struct TrainNoise<'a> {
    /// Relative std-dev of the multiplicative Gaussian noise.
    pub std: f32,
    /// The noise source.
    pub rng: &'a mut GaussianSampler,
}

/// Per-forward execution context: which backend multiplies matrices, how
/// operands are quantized, whether training-time noise is injected, and
/// — optionally — the trace of the executed ops.
///
/// An inference pass draws no randomness of its own: a noisy backend
/// draws from its engine's stream. Only noise-aware training carries a
/// sampler ([`TrainNoise`]).
///
/// A recording context ([`ForwardCtx::recording`]) owns a [`Trace`]:
/// every routed matmul is appended with its workload role and the
/// layers report their non-GEMM element counts, so a forward pass
/// leaves behind a trace of what it actually executed
/// ([`ForwardCtx::take_trace`]) — the input to
/// `lt_arch::Simulator::run_trace`. Recording is pure observability: it
/// changes no numerics and costs one `Vec::push` per op when enabled,
/// one branch when not.
#[derive(Debug)]
pub struct ForwardCtx<'a> {
    /// Matmul backend (exact for training, photonic for noisy inference).
    pub engine: &'a mut dyn MatmulEngine,
    /// Operand fake-quantization (QAT).
    pub quant: QuantConfig,
    /// Noise-aware training's output noise; `None` at inference.
    pub train_noise: Option<TrainNoise<'a>>,
    /// The pass's op trace; `Some` while recording.
    pub trace: Option<Trace>,
}

impl<'a> ForwardCtx<'a> {
    /// An inference context (no training noise, no recording).
    pub fn inference(engine: &'a mut dyn MatmulEngine, quant: QuantConfig) -> Self {
        ForwardCtx {
            engine,
            quant,
            train_noise: None,
            trace: None,
        }
    }

    /// Turns recording on: the context owns an empty trace.
    pub fn recording(mut self) -> Self {
        self.trace = Some(Trace::new());
        self
    }

    /// Drains and returns everything recorded so far (empty when not
    /// recording). Recording stays on.
    pub fn take_trace(&mut self) -> Trace {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Appends one op to the trace when recording; a no-op otherwise.
    pub fn record(&mut self, op: Op) {
        if let Some(trace) = &mut self.trace {
            trace.push(op);
        }
    }

    /// Reports a non-GEMM digital op (softmax / LayerNorm / GELU /
    /// residual) over `elems` elements.
    pub fn record_non_gemm(&mut self, kind: NonGemmKind, elems: u64) {
        self.record(Op::non_gemm(kind, elems));
    }

    /// Executes a (possibly noisy, possibly quantized) matmul, recorded
    /// under the given workload role. Without fake quantization the
    /// operands go to the engine as borrowed; nothing is copied on the
    /// way.
    pub fn matmul_as(&mut self, kind: OpKind, a: &Tensor, b: &Tensor) -> Tensor {
        let aq = self.quant.apply(a);
        let bq = self.quant.apply(b);
        self.matmul_prequantized_as(kind, &aq, &bq)
    }

    /// As [`ForwardCtx::matmul_as`] for `a x b`, or `a x bᵀ` when
    /// `transpose_b`, on operands that may be blocks of wider tensors (an
    /// attention head's column range of Q, K and V; see
    /// [`MatmulEngine::matmul_blocks`]). Records the product's effective
    /// `[m, k] x [k, n]` shape and returns exactly what `matmul_as` on
    /// copies of the blocks would. Fake quantization scales per tensor,
    /// over the block, so a quantizing context makes those copies.
    pub fn matmul_blocks_as(
        &mut self,
        kind: OpKind,
        a: MatrixView<'_, f32>,
        b: MatrixView<'_, f32>,
        transpose_b: bool,
    ) -> Tensor {
        if self.quant.bits.is_some() {
            let (a, b) = block_copies(a, b, transpose_b);
            return self.matmul_as(kind, &a, &b);
        }
        let n = if transpose_b { b.rows() } else { b.cols() };
        self.record(Op::gemm(kind, a.rows(), a.cols(), n));
        let y = self.engine.matmul_blocks(a, b, transpose_b);
        self.apply_train_noise(y)
    }

    /// As [`ForwardCtx::matmul_as`] but for operands the caller has
    /// already fake-quantized (e.g. to cache them for backward) — skips
    /// the redundant re-quantization, still injects training noise.
    /// Quantization is idempotent, so the result is identical to
    /// [`ForwardCtx::matmul_as`] on the raw operands.
    pub fn matmul_prequantized_as(&mut self, kind: OpKind, aq: &Tensor, bq: &Tensor) -> Tensor {
        self.record(Op::gemm(kind, aq.rows(), aq.cols(), bq.cols()));
        let y = self.engine.matmul(aq, bq);
        self.apply_train_noise(y)
    }

    /// As [`ForwardCtx::matmul_as`] for a layer weight `w` staged in
    /// `staged` ([`MatmulEngine::matmul_staged`]). Fake quantization
    /// replaces `w` with its quantized value, which the staged copy is
    /// not, so a quantizing context takes `matmul_as` and leaves the
    /// staging alone.
    pub(crate) fn matmul_weight_as(
        &mut self,
        kind: OpKind,
        x: &Tensor,
        w: &Tensor,
        staged: &StagedWeight,
    ) -> Tensor {
        if self.quant.bits.is_some() {
            return self.matmul_as(kind, x, w);
        }
        self.record(Op::gemm(kind, x.rows(), x.cols(), w.cols()));
        let y = self.engine.matmul_staged(x, w, staged);
        self.apply_train_noise(y)
    }

    /// Executes a true integer matmul on pre-encoded operands: i8/i4
    /// codes with grouped per-channel scales, f32 accumulation
    /// ([`lt_core::quantized_gemm`]). Recorded under the given workload
    /// role exactly like the float paths, so integer traces carry the
    /// same op vocabulary; training noise (if any) is still injected on
    /// the accumulated output.
    pub fn matmul_integer_as(
        &mut self,
        kind: OpKind,
        aq: &QuantizedMatrix,
        bq: &QuantizedMatrix,
    ) -> Tensor {
        self.record(Op::gemm(kind, aq.rows(), aq.cols(), bq.cols()));
        let y = quantized_gemm(aq, bq);
        self.apply_train_noise(y)
    }

    fn apply_train_noise(&mut self, y: Tensor) -> Tensor {
        match &mut self.train_noise {
            Some(TrainNoise { std, rng }) => {
                let std = *std;
                y.map(|v| v * (1.0 + rng.sample() as f32 * std))
            }
            None => y,
        }
    }
}

/// Encodes a `Linear` product's operands for the integer path:
/// activations per-row, weights per-column, grouped along the shared
/// reduction dimension.
fn encode_integer_operands(
    x: &Tensor,
    w: &Tensor,
    iq: IntegerQuant,
) -> (QuantizedMatrix, QuantizedMatrix) {
    (
        QuantizedMatrix::quantize_rows(&x.view(), iq.bits, iq.group),
        QuantizedMatrix::quantize_cols(&w.view(), iq.bits, iq.group),
    )
}

/// A fully connected layer `y = x W + b`.
///
/// The weight is private so that every change to it goes through
/// [`Linear::w_mut`] (or [`Linear::visit_params`]), which empties the
/// layer's staging of the weight ([`StagedWeight`]). An `f64` engine
/// builds the staged `f64` copy on the layer's first fp32 inference
/// ([`Linear::infer`]) and reuses it after, instead of widening the
/// weight on every call; it costs 8 bytes per weight element while it
/// exists. On an analytic DPTC backend the staging also keeps the
/// weight's DAC codes, about as many bytes again (more where the
/// weight's edges pad out to whole 12 x 12 tiles: 1.27x at 32 x 32).
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    /// `w.value` widened to `f64`, and the backend's memo of it.
    pub(crate) staged: StagedWeight,
    /// Bias, `1 x out`.
    pub b: Param,
    /// Workload role this linear's product records as (defaults to
    /// [`OpKind::Other`]; set via [`Linear::with_role`]).
    pub role: OpKind,
    cache_x: Option<Tensor>,
    cache_w: Option<Tensor>,
}

impl Linear {
    /// Xavier-style initialization.
    pub fn new(inputs: usize, outputs: usize, rng: &mut GaussianSampler) -> Self {
        let std = (2.0 / (inputs + outputs) as f32).sqrt();
        Linear {
            w: Param::new(Tensor::randn(inputs, outputs, std, rng)),
            staged: StagedWeight::default(),
            b: Param::new(Tensor::zeros(1, outputs)),
            role: OpKind::Other,
            cache_x: None,
            cache_w: None,
        }
    }

    /// Tags the layer with its workload role, so recorded traces carry
    /// the same op vocabulary as the analytical ones.
    pub fn with_role(mut self, role: OpKind) -> Self {
        self.role = role;
        self
    }

    /// The weight, `in x out`.
    pub fn w(&self) -> &Param {
        &self.w
    }

    /// The weight, mutably. Empties the staging, so the next inference
    /// on an `f64` engine widens and encodes the weight as changed.
    pub fn w_mut(&mut self) -> &mut Param {
        self.staged.clear();
        &mut self.w
    }

    /// Forward pass; caches (quantized) operands for backward.
    ///
    /// Under an integer [`QuantConfig`] the product runs on i8/i4 codes
    /// via [`ForwardCtx::matmul_integer_as`]; the *dequantized* operands
    /// are cached, so backward remains a straight-through estimator
    /// through the integer encoder.
    pub fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        if let Some(iq) = ctx.quant.integer {
            let (xq, wq) = encode_integer_operands(x, &self.w.value, iq);
            let y = ctx
                .matmul_integer_as(self.role, &xq, &wq)
                .add_row_broadcast(&self.b.value);
            self.cache_x = Some(xq.dequantize());
            self.cache_w = Some(wq.dequantize());
            return y;
        }
        let xq = ctx.quant.apply(x).into_owned();
        let wq = ctx.quant.apply(&self.w.value).into_owned();
        let y = ctx
            .matmul_prequantized_as(self.role, &xq, &wq)
            .add_row_broadcast(&self.b.value);
        self.cache_x = Some(xq);
        self.cache_w = Some(wq);
        y
    }

    /// Inference-only forward pass: same numerics as [`Linear::forward`]
    /// (quantization, recording, training noise) but caches nothing, so
    /// it takes `&self` — the entry point the autoregressive decode path
    /// uses to let many concurrent sessions share one set of weights.
    pub fn infer(&self, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut y = if let Some(iq) = ctx.quant.integer {
            let (xq, wq) = encode_integer_operands(x, &self.w.value, iq);
            ctx.matmul_integer_as(self.role, &xq, &wq)
        } else {
            ctx.matmul_weight_as(self.role, x, &self.w.value, &self.staged)
        };
        y.add_row_broadcast_assign(&self.b.value);
        y
    }

    /// Backward pass: accumulates `dW`, `db`, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("Linear::forward not called");
        let w = self.cache_w.as_ref().expect("Linear::forward not called");
        self.w.grad.add_assign(&x.transpose().matmul(dy));
        self.b.grad.add_assign(&dy.col_sum());
        dy.matmul(&w.transpose())
    }

    /// Visits the layer's parameters (the weight through
    /// [`Linear::w_mut`]).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(self.w_mut());
        f(&mut self.b);
    }
}

/// Row-wise layer normalization with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale `gamma`, `1 x dim`.
    pub gamma: Param,
    /// Shift `beta`, `1 x dim`.
    pub beta: Param,
    eps: f32,
    cache_xhat: Option<Tensor>,
    cache_inv_std: Option<Vec<f32>>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm over `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::from_fn(1, dim, |_, _| 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            eps: 1e-5,
            cache_xhat: None,
            cache_inv_std: None,
        }
    }

    /// The shared normalization core of the training and the decode
    /// path, so their numerics can never drift apart: normalizes one row,
    /// `xhat = (x - mean) / std`, writing `emit(j, xhat)` into `out[j]`,
    /// and returns the row's `1/std`.
    fn normalize_row(
        &self,
        row: &[f32],
        out: &mut [f32],
        mut emit: impl FnMut(usize, f32) -> f32,
    ) -> f32 {
        let cols = row.len();
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + self.eps).sqrt();
        for (j, (o, &v)) in out.iter_mut().zip(row).enumerate() {
            *o = emit(j, (v - mean) * inv_std);
        }
        inv_std
    }

    /// The learned scale and shift of normalized element `xhat` in
    /// column `j`.
    fn scale_shift(&self, j: usize, xhat: f32) -> f32 {
        xhat * self.gamma.value.data()[j] + self.beta.value.data()[j]
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (rows, cols) = x.shape();
        let mut xhat = Tensor::zeros(rows, cols);
        let inv_stds = (0..rows)
            .map(|i| self.normalize_row(x.row(i), xhat.row_mut(i), |_, v| v))
            .collect();
        let y = Tensor::from_fn(rows, cols, |i, j| self.scale_shift(j, xhat.get(i, j)));
        self.cache_xhat = Some(xhat);
        self.cache_inv_std = Some(inv_stds);
        y
    }

    /// Inference-only forward pass: identical numerics to
    /// [`LayerNorm::forward`] (same normalization core), normalizing,
    /// scaling and shifting each row in one pass into one output. Caches
    /// nothing, so it takes `&self` (shared weights across concurrent
    /// decode sessions).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (rows, cols) = x.shape();
        let mut y = Tensor::zeros(rows, cols);
        for i in 0..rows {
            self.normalize_row(x.row(i), y.row_mut(i), |j, v| self.scale_shift(j, v));
        }
        y
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let xhat = self
            .cache_xhat
            .as_ref()
            .expect("LayerNorm::forward not called");
        let inv_std = self
            .cache_inv_std
            .as_ref()
            .expect("LayerNorm::forward not called");
        let (rows, cols) = dy.shape();
        self.gamma.grad.add_assign(&xhat.hadamard(dy).col_sum());
        self.beta.grad.add_assign(&dy.col_sum());
        let mut dx = Tensor::zeros(rows, cols);
        for i in 0..rows {
            // dL/dxhat = dy * gamma
            let g: Vec<f32> = (0..cols)
                .map(|j| dy.get(i, j) * self.gamma.value.get(0, j))
                .collect();
            let mean_g = g.iter().sum::<f32>() / cols as f32;
            let mean_gx = (0..cols).map(|j| g[j] * xhat.get(i, j)).sum::<f32>() / cols as f32;
            for j in 0..cols {
                let v = (g[j] - mean_g - xhat.get(i, j) * mean_gx) * inv_std[i];
                dx.set(i, j, v);
            }
        }
        dx
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// GELU activation (tanh approximation, as used by Transformers):
/// `0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))`.
///
/// Its `tanh` is this crate's transcription of fdlibm's `tanhf`, the
/// routine glibc's libm ships: for every input it returns the bits
/// `f32::tanh` returns with that libm, whatever libm the host has (see
/// the `tanh` module). Every pass
/// runs one elementwise loop, which vectorizes; on an x86-64 CPU with
/// AVX2 it runs as compiled for AVX2 (checked at run time), elsewhere as
/// compiled for the build's baseline target. Both builds perform the
/// same IEEE operations per element, so they produce the same bits.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_x: Option<Tensor>,
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanhf(GELU_C * (x + 0.044715 * x * x * x)))
}

#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    let u = GELU_C * (x + 0.044715 * x * x * x);
    let t = tanhf(u);
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GELU's elementwise loop, in place: `v[i] = gelu(v[i])`, or, given
/// `dy`, the backward pass `v[i] = gelu'(v[i]) * dy[i]`, `v` holding the
/// forward input.
fn gelu_map(v: &mut [f32], dy: Option<&[f32]>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gelu_map_avx2` needs nothing but a CPU that executes
        // AVX2 instructions, which the feature check above established.
        unsafe { gelu_map_avx2(v, dy) };
        return;
    }
    gelu_map_body(v, dy);
}

/// [`gelu_map_body`] compiled with AVX2 enabled (and FMA not), so the
/// compiler may widen its loops to 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gelu_map_avx2(v: &mut [f32], dy: Option<&[f32]>) {
    gelu_map_body(v, dy);
}

/// The loop itself. Always inlined, like the scalar functions it calls,
/// so each caller compiles its own copy for its own target features.
#[inline(always)]
fn gelu_map_body(v: &mut [f32], dy: Option<&[f32]>) {
    match dy {
        None => {
            for x in v {
                *x = gelu_scalar(*x);
            }
        }
        Some(dy) => {
            for (x, &d) in v.iter_mut().zip(dy) {
                *x = gelu_grad_scalar(*x) * d;
            }
        }
    }
}

impl Gelu {
    /// Creates the activation.
    pub fn new() -> Self {
        Gelu::default()
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_x = Some(x.clone());
        self.infer(x.clone())
    }

    /// Inference-only forward pass (no backward cache, `&self`), in
    /// place.
    pub fn infer(&self, mut x: Tensor) -> Tensor {
        gelu_map(x.data_mut(), None);
        x
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or if `dy`'s shape is not the
    /// forward input's.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("Gelu::forward not called");
        assert_eq!(x.shape(), dy.shape(), "Gelu::backward shape mismatch");
        let mut dx = x.clone();
        gelu_map(dx.data_mut(), Some(dy.data()));
        dx
    }
}

/// Row-wise softmax (used for attention probabilities).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// As [`softmax_rows`], in place: each row's exponentials go straight
/// into the row, then divide by their sum.
pub fn softmax_rows_in_place(x: &mut Tensor) {
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut denom = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
}

/// Backward of row-wise softmax: given `s = softmax(x)` and `ds`, returns
/// `dx`.
pub fn softmax_rows_backward(s: &Tensor, ds: &Tensor) -> Tensor {
    let (rows, cols) = s.shape();
    let mut dx = Tensor::zeros(rows, cols);
    for i in 0..rows {
        let dot: f32 = (0..cols).map(|j| ds.get(i, j) * s.get(i, j)).sum();
        for j in 0..cols {
            dx.set(i, j, s.get(i, j) * (ds.get(i, j) - dot));
        }
    }
    dx
}

/// Cross-entropy loss over logits `[batch, classes]`; returns the mean
/// loss and the gradient w.r.t. the logits.
///
/// # Panics
///
/// Panics if a label is out of range or the batch is empty.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (batch, classes) = logits.shape();
    assert_eq!(batch, labels.len(), "label count mismatch");
    assert!(batch > 0, "empty batch");
    let probs = softmax_rows(logits);
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(batch, classes);
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        loss -= probs.get(i, label).max(1e-12).ln();
        for j in 0..classes {
            let indicator = if j == label { 1.0 } else { 0.0 };
            grad.set(i, j, (probs.get(i, j) - indicator) / batch as f32);
        }
    }
    (loss / batch as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendEngine, ExactEngine};
    use lt_core::{ComputeBackend, NativeBackend};
    use lt_dptc::DptcBackend;

    /// Finite-difference check of a scalar loss w.r.t. one tensor entry.
    fn numerical_grad(f: &mut dyn FnMut(f32) -> f32, x0: f32) -> f32 {
        let h = 1e-3;
        (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = GaussianSampler::new(1);
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        let dy = Tensor::randn(3, 2, 1.0, &mut rng);
        let mut layer = Linear::new(4, 2, &mut rng);
        let w0 = layer.w.value.clone();

        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        let _ = layer.forward(&x, &mut ctx);
        let dx = layer.backward(&dy);

        // Loss L = sum(y * dy); dL/dw and dL/dx should match numerics.
        let loss =
            |w: &Tensor, x: &Tensor| -> f32 { x.matmul(w).hadamard(&dy).data().iter().sum() };
        // Check one weight entry and one input entry.
        let got_dw = layer.w.grad.get(1, 0);
        let num_dw = numerical_grad(
            &mut |v| {
                let mut w = w0.clone();
                w.set(1, 0, v);
                loss(&w, &x)
            },
            w0.get(1, 0),
        );
        assert!((got_dw - num_dw).abs() < 1e-2, "dw {got_dw} vs {num_dw}");

        let got_dx = dx.get(2, 1);
        let num_dx = numerical_grad(
            &mut |v| {
                let mut xx = x.clone();
                xx.set(2, 1, v);
                loss(&w0, &xx)
            },
            x.get(2, 1),
        );
        assert!((got_dx - num_dx).abs() < 1e-2, "dx {got_dx} vs {num_dx}");
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut rng = GaussianSampler::new(2);
        let x = Tensor::randn(4, 16, 3.0, &mut rng).map(|v| v + 5.0);
        let mut ln = LayerNorm::new(16);
        let y = ln.forward(&x);
        for i in 0..4 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / 16.0;
            let var: f32 = y
                .row(i)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 16.0;
            assert!(mean.abs() < 1e-4, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {i} var {var}");
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_differences() {
        let mut rng = GaussianSampler::new(3);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let dy = Tensor::randn(2, 8, 1.0, &mut rng);
        let mut ln = LayerNorm::new(8);
        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);

        let loss = |x: &Tensor| -> f32 {
            let mut ln2 = LayerNorm::new(8);
            ln2.forward(x).hadamard(&dy).data().iter().sum()
        };
        let got = dx.get(1, 3);
        let num = numerical_grad(
            &mut |v| {
                let mut xx = x.clone();
                xx.set(1, 3, v);
                loss(&xx)
            },
            x.get(1, 3),
        );
        assert!((got - num).abs() < 1e-2, "dx {got} vs {num}");
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ~ identity, large negative ~ 0.
        assert!((gelu_scalar(6.0) - 6.0).abs() < 1e-3);
        assert!(gelu_scalar(-6.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_gradient_matches_finite_differences() {
        for x0 in [-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let got = gelu_grad_scalar(x0);
            let num = numerical_grad(&mut |v| gelu_scalar(v), x0);
            assert!((got - num).abs() < 1e-3, "x={x0}: {got} vs {num}");
        }
    }

    /// FNV-1a over the bits of `values`, every NaN mapped to one pattern.
    fn fnv1a(values: &[f32]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in values {
            let bits = if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() };
            for byte in bits.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    /// GELU's pinned inputs: a strided sweep of about 1 M bit patterns,
    /// which reaches every exponent of both signs, then every branch
    /// threshold of `tanhf` on `|x|` and of `expm1f` on `2|x|` (halved),
    /// each with its neighbours one ulp away, in both signs, and the
    /// special values.
    fn gelu_pin_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4099).collect();
        let half = 1 << 23;
        for t in [
            0x7f80_0000,
            0x41b0_0000,
            0x3f80_0000,
            0x2400_0000,
            0x3eb1_7218 - half,
            0x3f85_1592 - half,
            0x3300_0000 - half,
        ] {
            for b in [t - 1, t, t + 1] {
                bits.extend([b, b | 0x8000_0000]);
            }
        }
        bits.extend([0, 0x8000_0000, 0xff80_0000, 0x7fc0_0000]);
        bits.extend([f32::MAX.to_bits(), f32::MIN.to_bits(), 1, 0x8000_0001]);
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// The upstream gradients the pin's backward passes take.
    fn gelu_pin_dy(len: usize) -> Vec<f32> {
        (0..len).map(|i| 1.0 + (i % 4) as f32 * 0.5).collect()
    }

    /// Row widths the pin lays its inputs out in: every vector tail of
    /// both builds, and the FFN widths the models run.
    const GELU_PIN_WIDTHS: [usize; 7] = [1, 7, 8, 9, 64, 256, 3072];

    /// GELU's outputs and input gradients over `xs`, laid out in rows of
    /// `width`, through the layer's own passes.
    fn gelu_through_layer(xs: &[f32], dy: &[f32], width: usize) -> (Vec<f32>, Vec<f32>) {
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        for (x, dy) in xs.chunks(width).zip(dy.chunks(width)) {
            let x = Tensor::from_vec(1, x.len(), x.to_vec());
            let mut gelu = Gelu::new();
            let inferred = gelu.infer(x.clone());
            let forward = gelu.forward(&x);
            assert_eq!(fnv1a(inferred.data()), fnv1a(forward.data()));
            y.extend_from_slice(inferred.data());
            let dy = Tensor::from_vec(1, dy.len(), dy.to_vec());
            dx.extend_from_slice(gelu.backward(&dy).data());
        }
        (y, dx)
    }

    /// One build of GELU's elementwise loop: the portable or the AVX2 copy.
    type GeluLoop = fn(&mut [f32], Option<&[f32]>);

    /// As [`gelu_through_layer`], through one build of the elementwise
    /// loop.
    fn gelu_through_build(
        xs: &[f32],
        dy: &[f32],
        width: usize,
        body: GeluLoop,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut y = xs.to_vec();
        y.chunks_mut(width).for_each(|y| body(y, None));
        let mut dx = xs.to_vec();
        for (dx, dy) in dx.chunks_mut(width).zip(dy.chunks(width)) {
            body(dx, Some(dy));
        }
        (y, dx)
    }

    #[test]
    fn gelu_bits_are_pinned() {
        // Digests taken with the host libm's `tanhf` (glibc 2.36) before
        // GELU's tanh moved in-repo, in debug and in release builds.
        const TANH: u64 = 0xdd74_dfee_1957_6fdd;
        const GELU: u64 = 0x67ad_a15f_83f8_92c9;
        const GELU_GRAD: u64 = 0xbc80_3422_91c4_f651;
        let xs = gelu_pin_inputs();
        let tanh: Vec<f32> = xs.iter().map(|&x| tanhf(x)).collect();
        assert_eq!(fnv1a(&tanh), TANH, "tanh moved");
        let dy = gelu_pin_dy(xs.len());
        for width in GELU_PIN_WIDTHS {
            let (y, dx) = gelu_through_layer(&xs, &dy, width);
            assert_eq!(fnv1a(&y), GELU, "Gelu::infer, rows of {width}");
            assert_eq!(fnv1a(&dx), GELU_GRAD, "Gelu::backward, rows of {width}");
        }
        let check_build = |build: &str, body: GeluLoop| {
            for width in GELU_PIN_WIDTHS {
                let (y, dx) = gelu_through_build(&xs, &dy, width, body);
                assert_eq!(fnv1a(&y), GELU, "{build} build, rows of {width}");
                assert_eq!(fnv1a(&dx), GELU_GRAD, "{build} backward, rows of {width}");
            }
        };
        check_build("portable", gelu_map_body);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2 (checked just above).
            check_build("AVX2", |v, dy| unsafe { gelu_map_avx2(v, dy) });
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_backward_matches_finite_differences() {
        let mut rng = GaussianSampler::new(4);
        let x = Tensor::randn(1, 5, 1.0, &mut rng);
        let ds = Tensor::randn(1, 5, 1.0, &mut rng);
        let s = softmax_rows(&x);
        let dx = softmax_rows_backward(&s, &ds);
        let loss = |x: &Tensor| softmax_rows(x).hadamard(&ds).data().iter().sum::<f32>();
        for j in 0..5 {
            let num = numerical_grad(
                &mut |v| {
                    let mut xx = x.clone();
                    xx.set(0, j, v);
                    loss(&xx)
                },
                x.get(0, j),
            );
            assert!((dx.get(0, j) - num).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_basics() {
        // A confidently correct prediction has near-zero loss.
        let logits = Tensor::from_vec(1, 3, vec![10.0, -5.0, -5.0]);
        let (loss, grad) = cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
        assert!(grad.get(0, 0) < 0.0 || grad.get(0, 0).abs() < 1e-3);
        // Uniform logits: loss = ln(classes).
        let logits = Tensor::zeros(1, 4);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn adam_reduces_quadratic_loss() {
        // Minimize ||w||^2 with Adam; it must shrink monotonically-ish.
        let mut p = Param::new(Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        for t in 1..=200 {
            p.zero_grad();
            p.grad = p.value.scale(2.0);
            p.adam_step(0.05, 0.9, 0.999, 1e-8, t);
        }
        assert!(p.value.max_abs() < 0.05, "residual {}", p.value.max_abs());
    }

    #[test]
    fn integer_path_tracks_fp32_and_is_deterministic() {
        let mut rng = GaussianSampler::new(6);
        let x = Tensor::randn(3, 16, 1.0, &mut rng);
        let mut layer = Linear::new(16, 8, &mut rng);

        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        let y_fp = layer.forward(&x, &mut ctx);

        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::int8());
        let y_i8 = layer.forward(&x, &mut ctx);
        // i8 with grouped scales stays close to fp32 on unit-scale data.
        assert!(
            y_fp.max_abs_diff(&y_i8) < 0.05,
            "i8 drift {}",
            y_fp.max_abs_diff(&y_i8)
        );
        // forward and infer share the encoder: bit-identical outputs.
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::int8());
        assert_eq!(layer.infer(&x, &mut ctx), y_i8);
        // 4-bit is coarser but still bounded.
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::int4());
        let y_i4 = layer.infer(&x, &mut ctx);
        assert!(y_fp.max_abs_diff(&y_i4) < 0.8);
        assert!(y_fp.max_abs_diff(&y_i4) > y_fp.max_abs_diff(&y_i8));
    }

    #[test]
    fn integer_path_records_gemm_ops() {
        let mut rng = GaussianSampler::new(7);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let layer = Linear::new(8, 4, &mut rng).with_role(OpKind::Ffn1);
        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::int8()).recording();
        let _ = layer.infer(&x, &mut ctx);
        let trace = ctx.take_trace();
        assert_eq!(trace.ops(), &[Op::gemm(OpKind::Ffn1, 2, 8, 4)]);
    }

    #[test]
    fn integer_backward_uses_dequantized_cache() {
        let mut rng = GaussianSampler::new(8);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let dy = Tensor::randn(2, 4, 1.0, &mut rng);
        let mut layer = Linear::new(8, 4, &mut rng);
        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::int8());
        let _ = layer.forward(&x, &mut ctx);
        let dx = layer.backward(&dy);
        // STE gradient through the dequantized weights: close to fp32's.
        let dx_ref = dy.matmul(&layer.w.value.transpose());
        assert!(dx.max_abs_diff(&dx_ref) < 0.05);
    }

    /// Infers two inputs through `layer` (the first call stages the
    /// weight, the second reuses it) and the same two through the
    /// unstaged `matmul_as` plus bias, each side on its own engine over
    /// `backend`, and asserts that the outputs and the engines' seed
    /// draws agree (none on a deterministic backend).
    fn assert_staged_matches_unstaged<B: ComputeBackend + Clone>(backend: B, layer: &Linear) {
        let mut rng = GaussianSampler::new(21);
        let xs = [
            Tensor::randn(3, layer.w().value.rows(), 1.0, &mut rng),
            Tensor::randn(1, layer.w().value.rows(), 1.0, &mut rng),
        ];
        let mut staged = BackendEngine::new(backend.clone(), 5);
        let mut unstaged = BackendEngine::new(backend, 5);
        for x in &xs {
            let mut ctx = ForwardCtx::inference(&mut staged, QuantConfig::fp32());
            let got = layer.infer(x, &mut ctx);
            let mut ctx = ForwardCtx::inference(&mut unstaged, QuantConfig::fp32());
            let want = ctx
                .matmul_as(layer.role, x, &layer.w().value)
                .add_row_broadcast(&layer.b.value);
            assert_eq!(got, want);
        }
        assert_eq!(staged.seed_draws(), unstaged.seed_draws());
        assert!(layer.staged.w64.get().is_some(), "an f64 engine stages");
    }

    /// Below and above the exact kernel's source-fold gate (32 KiB of
    /// f64 weight): a 24 x 10 and a 128 x 96 weight.
    #[test]
    fn staged_weight_inference_is_bit_identical_to_the_unstaged_product() {
        let mut rng = GaussianSampler::new(20);
        for (inputs, outputs) in [(24, 10), (128, 96)] {
            let mut layer = Linear::new(inputs, outputs, &mut rng);
            layer.b.value = Tensor::randn(1, outputs, 0.5, &mut rng);
            assert_staged_matches_unstaged(NativeBackend, &layer);
            assert!(layer.staged.memo.get().is_none(), "no codes on exact");
            layer.staged.clear();
            assert_staged_matches_unstaged(DptcBackend::paper(8, 13), &layer);
            assert!(layer.staged.memo.get().is_some(), "DPTC codes");
        }
    }

    #[test]
    fn f32_and_quantizing_inference_leave_the_weight_unstaged() {
        let mut rng = GaussianSampler::new(22);
        let layer = Linear::new(8, 4, &mut rng);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        let _ = layer.infer(&x, &mut ctx);
        assert!(layer.staged.w64.get().is_none(), "ExactEngine is f32");
        assert!(layer.staged.memo.get().is_none(), "ExactEngine is f32");
        // Fake quantization feeds the engine a quantized weight, which the
        // staged copy is not; the integer path never calls the engine.
        for quant in [QuantConfig::low_bit(8), QuantConfig::int8()] {
            let mut eng = BackendEngine::new(NativeBackend, 0);
            let mut ctx = ForwardCtx::inference(&mut eng, quant);
            let _ = layer.infer(&x, &mut ctx);
            assert!(layer.staged.w64.get().is_none(), "{quant:?}");
        }
    }

    #[test]
    fn training_noise_perturbs_outputs() {
        let mut rng = GaussianSampler::new(5);
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        let mut layer = Linear::new(4, 4, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        ctx.train_noise = Some(TrainNoise {
            std: 0.05,
            rng: &mut nrng,
        });
        let y1 = layer.forward(&x, &mut ctx);
        let y2 = layer.forward(&x, &mut ctx);
        assert!(y1.max_abs_diff(&y2) > 0.0, "noise must differ per call");
    }
}
