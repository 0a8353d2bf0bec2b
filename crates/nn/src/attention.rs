//! Multi-head self-attention with a hand-written backward pass.
//!
//! This is the workload the whole paper is about: `Q K^T` and `A V` are
//! *dynamic* matrix products whose operands are activations. When executed
//! with the photonic engine, both operands of those products go through
//! DPTC encoding, quantization, and noise — exactly the scenario prior
//! weight-static photonic accelerators cannot serve.

use crate::kv::{kv_write_traffic, KvLayer};
use crate::layers::{
    softmax_rows, softmax_rows_backward, softmax_rows_in_place, ForwardCtx, Linear, Param,
};
use crate::tensor::Tensor;
use lt_core::trace::{NonGemmKind, OpKind};
use lt_core::GaussianSampler;
use lt_core::MatrixView;

/// Multi-head self-attention over a `[tokens, dim]` sequence.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    dim: usize,
    heads: usize,
    /// Q projection.
    pub wq: Linear,
    /// K projection.
    pub wk: Linear,
    /// V projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>, // per head
}

/// One layer's KV cache for autoregressive decode (paper Section VI-B):
/// the K and V projections of every token seen so far, all heads
/// concatenated (`[context, dim]` each), appended one token at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnKvCache {
    k: Tensor,
    v: Tensor,
}

impl AttnKvCache {
    /// An empty cache for a `dim`-wide layer.
    pub fn new(dim: usize) -> Self {
        AttnKvCache {
            k: Tensor::zeros(0, dim),
            v: Tensor::zeros(0, dim),
        }
    }

    /// Context length in tokens.
    pub fn len(&self) -> usize {
        self.k.rows()
    }

    /// Whether no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached K rows, `[context, dim]`.
    pub fn keys(&self) -> &Tensor {
        &self.k
    }

    /// The cached V rows, `[context, dim]`.
    pub fn values(&self) -> &Tensor {
        &self.v
    }

    /// Appends the K/V rows of newly seen tokens (in place — a decode
    /// step pays for its own row, not for recopying the whole context).
    ///
    /// # Panics
    ///
    /// Panics if `k` and `v` shapes disagree with each other or the cache.
    pub fn append(&mut self, k: &Tensor, v: &Tensor) {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        self.k.extend_rows(k);
        self.v.extend_rows(v);
    }

    /// Rolls the cache back to its first `len` tokens, discarding the
    /// K/V rows of rejected speculative positions (no-op when already
    /// that short).
    pub fn truncate(&mut self, len: usize) {
        self.k.truncate_rows(len);
        self.v.truncate_rows(len);
    }
}

impl MultiHeadAttention {
    /// Creates an attention module.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut GaussianSampler) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim {dim} not divisible by heads {heads}"
        );
        MultiHeadAttention {
            dim,
            heads,
            wq: Linear::new(dim, dim, rng).with_role(OpKind::QkvProj),
            wk: Linear::new(dim, dim, rng).with_role(OpKind::QkvProj),
            wv: Linear::new(dim, dim, rng).with_role(OpKind::QkvProj),
            wo: Linear::new(dim, dim, rng).with_role(OpKind::OutProj),
            cache: None,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Forward pass over `x: [tokens, dim]`.
    pub fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let q = self.wq.forward(x, ctx);
        let k = self.wk.forward(x, ctx);
        let v = self.wv.forward(x, ctx);

        let tokens = x.rows();
        let mut concat = Tensor::zeros(tokens, self.dim);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = q.col_slice(h * dh, dh);
            let kh = k.col_slice(h * dh, dh);
            let vh = v.col_slice(h * dh, dh);
            // Q K^T — a dynamic-dynamic product (through the engine).
            let scores = ctx
                .matmul_as(OpKind::AttnQk, &qh, &kh.transpose())
                .scale(scale);
            ctx.record_non_gemm(NonGemmKind::Softmax, (scores.rows() * scores.cols()) as u64);
            let a = softmax_rows(&scores);
            // A V — the second dynamic product.
            let oh = ctx.matmul_as(OpKind::AttnAv, &a, &vh);
            concat.set_col_slice(h * dh, &oh);
            probs.push(a);
        }
        self.cache = Some(AttnCache { q, k, v, probs });
        self.wo.forward(&concat, ctx)
    }

    /// Causal (masked) prefill over a whole prompt `x: [tokens, dim]`,
    /// filling `cache` with every token's K/V rows. Inference-only
    /// (`&self`): concurrent decode sessions share one set of weights.
    ///
    /// Records the same GEMM shapes as [`MultiHeadAttention::forward`]
    /// (the mask changes values, not dims) plus the KV-cache append
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is non-empty (prefill starts a sequence).
    pub fn prefill(&self, x: &Tensor, cache: &mut dyn KvLayer, ctx: &mut ForwardCtx<'_>) -> Tensor {
        assert_eq!(cache.context_len(), 0, "prefill expects an empty KV cache");
        let (q, k, v) = self.project_and_append(x, cache, ctx);
        let concat = self.attend(&q, &k, &v, 0, ctx);
        self.wo.infer(&concat, ctx)
    }

    /// Causal prefill of one *chunk* of a prompt (`x: [t, dim]`, the
    /// tokens at positions `prior .. prior + t` where `prior` is the
    /// cache's current context length): appends the chunk's K/V rows
    /// and attends each chunk query over the whole cached context under
    /// the causal mask. Chunked prefill interleaves these pieces with
    /// decode ticks so a long prompt cannot monopolize the engine.
    ///
    /// On an empty cache with `t` = the whole prompt this computes
    /// bit-identically to [`MultiHeadAttention::prefill`] for
    /// deterministic backends (same per-row GEMMs, same mask); the
    /// *recorded trace* differs in that prior context streams back as
    /// [`NonGemmKind::KvRead`] (there is none when `prior == 0`) and
    /// attention reads K/V through the cache rather than the fresh
    /// projections — which is why [`MultiHeadAttention::prefill`]
    /// remains the whole-prompt fast path.
    pub fn prefill_chunk(
        &self,
        x: &Tensor,
        cache: &mut dyn KvLayer,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let prior = cache.context_len();
        let (q, _, _) = self.project_and_append(x, cache, ctx);
        // Only the *prior* context streams back from HBM; the chunk's
        // own K/V rows were just produced on-chip.
        if prior > 0 {
            ctx.record_non_gemm(NonGemmKind::KvRead, 2 * (prior * self.dim) as u64);
        }
        debug_assert_eq!(cache.context_len(), prior + x.rows());
        let (keys, values) = cache.lend_context();
        let concat = self.attend(&q, &keys, &values, prior, ctx);
        self.wo.infer(&concat, ctx)
    }

    /// One autoregressive decode step: appends the new token's K/V to
    /// `cache` and attends its query over the whole cached context —
    /// the per-token matrix-vector regime of paper Section VI-B. The
    /// recorded `Q K^T` is `[1, dh] x [dh, context]` and `A V` is
    /// `[1, context] x [context, dh]` per head, exactly the analytical
    /// `DecodeTrace` shapes at batch 1.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a single `[1, dim]` token row.
    pub fn decode_step(
        &self,
        x: &Tensor,
        cache: &mut dyn KvLayer,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        assert_eq!(x.shape(), (1, self.dim), "decode step takes one token");
        let (q, _, _) = self.project_and_append(x, cache, ctx);
        let context = cache.context_len();
        // Decode attends over the whole cached context: every cached
        // K and V row streams back through HBM each step.
        ctx.record_non_gemm(NonGemmKind::KvRead, 2 * (context * self.dim) as u64);
        let (keys, values) = cache.lend_context();
        let concat = self.attend(&q, &keys, &values, context - 1, ctx);
        self.wo.infer(&concat, ctx)
    }

    /// The Q/K/V projections of `x`, with K and V appended to `cache`
    /// and the cache's actual write traffic recorded: a shared prefix
    /// skips its rows' writes, a copy-on-write pays for the block copy.
    fn project_and_append(
        &self,
        x: &Tensor,
        cache: &mut dyn KvLayer,
        ctx: &mut ForwardCtx<'_>,
    ) -> (Tensor, Tensor, Tensor) {
        let q = self.wq.infer(x, ctx);
        let k = self.wk.infer(x, ctx);
        let v = self.wv.infer(x, ctx);
        let write = cache.append(&k, &v);
        for (kind, elems) in kv_write_traffic(write, self.dim) {
            ctx.record_non_gemm(kind, elems);
        }
        (q, k, v)
    }

    /// Causal attention of the `[t, dim]` queries `q` over `[context,
    /// dim]` keys and values, head by head: query row `i` sits at
    /// position `prior + i` and may not attend past itself. Each head's
    /// `Q K^T` and `A V` run on its column range of Q, K and V in place
    /// ([`ForwardCtx::matmul_blocks_as`]); returns the concatenated head
    /// outputs, `[t, dim]`.
    fn attend(
        &self,
        q: &Tensor,
        keys: &Tensor,
        values: &Tensor,
        prior: usize,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let (tokens, context) = (q.rows(), keys.rows());
        fn head(t: &Tensor, h: usize, dh: usize) -> MatrixView<'_, f32> {
            t.view().block(0, h * dh, t.rows(), dh)
        }
        let mut concat = Tensor::zeros(tokens, self.dim);
        for h in 0..self.heads {
            // Q K^T — a dynamic-dynamic product (through the engine).
            let mut scores =
                ctx.matmul_blocks_as(OpKind::AttnQk, head(q, h, dh), head(keys, h, dh), true);
            scores.map_in_place(|v| v * scale);
            for i in 0..tokens {
                scores.row_mut(i)[prior + i + 1..].fill(f32::NEG_INFINITY);
            }
            ctx.record_non_gemm(NonGemmKind::Softmax, (tokens * context) as u64);
            softmax_rows_in_place(&mut scores);
            // A V — the second dynamic product.
            let oh =
                ctx.matmul_blocks_as(OpKind::AttnAv, scores.view(), head(values, h, dh), false);
            concat.set_col_slice(h * dh, &oh);
        }
        concat
    }

    /// Backward pass; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("MultiHeadAttention::forward not called");
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let tokens = dconcat.rows();
        let mut dq = Tensor::zeros(tokens, self.dim);
        let mut dk = Tensor::zeros(tokens, self.dim);
        let mut dv = Tensor::zeros(tokens, self.dim);
        for h in 0..self.heads {
            let doh = dconcat.col_slice(h * dh, dh);
            let a = &cache.probs[h];
            let qh = cache.q.col_slice(h * dh, dh);
            let kh = cache.k.col_slice(h * dh, dh);
            let vh = cache.v.col_slice(h * dh, dh);

            let da = doh.matmul(&vh.transpose());
            let dvh = a.transpose().matmul(&doh);
            let dscores = softmax_rows_backward(a, &da).scale(scale);
            let dqh = dscores.matmul(&kh);
            let dkh = dscores.transpose().matmul(&qh);

            dq.set_col_slice(h * dh, &dqh);
            dk.set_col_slice(h * dh, &dkh);
            dv.set_col_slice(h * dh, &dvh);
        }
        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }

    /// Visits all parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::quant::QuantConfig;

    fn forward_loss(attn: &mut MultiHeadAttention, x: &Tensor, dy: &Tensor) -> f32 {
        let mut eng = ExactEngine;
        let mut rng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut rng);
        attn.forward(x, &mut ctx).hadamard(dy).data().iter().sum()
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = GaussianSampler::new(1);
        let mut attn = MultiHeadAttention::new(16, 4, &mut rng);
        let x = Tensor::randn(7, 16, 1.0, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let y = attn.forward(&x, &mut ctx);
        assert_eq!(y.shape(), (7, 16));
    }

    #[test]
    fn attention_probabilities_are_row_stochastic() {
        let mut rng = GaussianSampler::new(2);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn(5, 8, 1.0, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let _ = attn.forward(&x, &mut ctx);
        for a in &attn.cache.as_ref().unwrap().probs {
            assert_eq!(a.shape(), (5, 5));
            for i in 0..5 {
                let sum: f32 = a.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = GaussianSampler::new(3);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn(4, 8, 0.8, &mut rng);
        let dy = Tensor::randn(4, 8, 1.0, &mut rng);

        let _ = forward_loss(&mut attn, &x, &dy);
        let dx = attn.backward(&dy);

        let h = 1e-2f32;
        for &(i, j) in &[(0usize, 0usize), (1, 3), (3, 7), (2, 5)] {
            let mut xp = x.clone();
            xp.set(i, j, x.get(i, j) + h);
            let mut xm = x.clone();
            xm.set(i, j, x.get(i, j) - h);
            let lp = forward_loss(&mut attn.clone(), &xp, &dy);
            let lm = forward_loss(&mut attn.clone(), &xm, &dy);
            let num = (lp - lm) / (2.0 * h);
            let got = dx.get(i, j);
            assert!(
                (got - num).abs() < 0.05 * num.abs().max(1.0),
                "dx[{i},{j}] = {got} vs numeric {num}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = GaussianSampler::new(4);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn(4, 8, 0.8, &mut rng);
        let dy = Tensor::randn(4, 8, 1.0, &mut rng);
        let _ = forward_loss(&mut attn, &x, &dy);
        let _ = attn.backward(&dy);
        let got = attn.wq.w().grad.get(2, 3);

        let h = 1e-2f32;
        let w0 = attn.wq.w().value.get(2, 3);
        let mut ap = attn.clone();
        ap.wq.w_mut().value.set(2, 3, w0 + h);
        let mut am = attn.clone();
        am.wq.w_mut().value.set(2, 3, w0 - h);
        let num = (forward_loss(&mut ap, &x, &dy) - forward_loss(&mut am, &x, &dy)) / (2.0 * h);
        assert!(
            (got - num).abs() < 0.05 * num.abs().max(1.0),
            "dWq = {got} vs numeric {num}"
        );
    }

    /// Runs every head's `Q K^T` and `A V` of `[rows, heads * dh]`
    /// queries over `[context, heads * dh]` keys and values twice, on two
    /// engines from `make`: once copy-free through
    /// [`ForwardCtx::matmul_blocks_as`], once through `matmul_as` on
    /// `col_slice`/`transpose` copies. Asserts equal outputs bit for
    /// bit, equal recorded traces, and returns both engines.
    fn assert_head_products_match<E: crate::engine::MatmulEngine>(
        mut make: impl FnMut() -> E,
        quant: QuantConfig,
    ) -> (E, E) {
        use lt_core::Trace;
        let dh = 8;
        let (mut blocks, mut copies) = (make(), make());
        for rows in [1, 5] {
            for context in [1, 17] {
                for heads in [1, 4] {
                    let mut rng = GaussianSampler::new((rows * 100 + context * 10 + heads) as u64);
                    let q = Tensor::randn(rows, heads * dh, 1.0, &mut rng);
                    let k = Tensor::randn(context, heads * dh, 1.0, &mut rng);
                    let v = Tensor::randn(context, heads * dh, 1.0, &mut rng);
                    let probs = Tensor::randn(rows, context, 1.0, &mut rng);
                    let mut traces: Vec<(Vec<Tensor>, Trace)> = Vec::new();
                    for copy_free in [true, false] {
                        let engine = if copy_free { &mut blocks } else { &mut copies };
                        let mut nrng = GaussianSampler::new(0);
                        let mut ctx = ForwardCtx::inference(engine, quant, &mut nrng).recording();
                        let mut outs = Vec::new();
                        for h in 0..heads {
                            let head = |t: &Tensor| t.col_slice(h * dh, dh);
                            if copy_free {
                                let qh = q.view().block(0, h * dh, rows, dh);
                                let kh = k.view().block(0, h * dh, context, dh);
                                let vh = v.view().block(0, h * dh, context, dh);
                                outs.push(ctx.matmul_blocks_as(OpKind::AttnQk, qh, kh, true));
                                outs.push(ctx.matmul_blocks_as(
                                    OpKind::AttnAv,
                                    probs.view(),
                                    vh,
                                    false,
                                ));
                            } else {
                                outs.push(ctx.matmul_as(
                                    OpKind::AttnQk,
                                    &head(&q),
                                    &head(&k).transpose(),
                                ));
                                outs.push(ctx.matmul_as(OpKind::AttnAv, &probs, &head(&v)));
                            }
                        }
                        traces.push((outs, ctx.take_trace()));
                    }
                    assert_eq!(
                        traces[0], traces[1],
                        "rows {rows} context {context} heads {heads}"
                    );
                }
            }
        }
        (blocks, copies)
    }

    #[test]
    fn copy_free_head_products_match_the_copying_products_bit_for_bit() {
        use crate::engine::{BackendEngine, ExactEngine};
        use lt_core::NativeBackend;
        use lt_dptc::DptcBackend;
        let fp32 = QuantConfig::fp32();
        let (a, b) = assert_head_products_match(|| BackendEngine::new(NativeBackend, 1), fp32);
        assert_eq!(a.calls(), b.calls());
        for quant in [fp32, QuantConfig::low_bit(8)] {
            let (a, b) = assert_head_products_match(
                || BackendEngine::new(DptcBackend::paper(8, 3), 2),
                quant,
            );
            assert_eq!(a.calls(), b.calls(), "{quant:?}");
        }
        assert_head_products_match(|| ExactEngine, fp32);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_head_count_rejected() {
        let mut rng = GaussianSampler::new(5);
        MultiHeadAttention::new(10, 3, &mut rng);
    }
}
