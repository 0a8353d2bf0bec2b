//! Model assemblies: the encoder block, a tiny ViT (the DeiT stand-in),
//! and a tiny bidirectional text classifier (the BERT stand-in).
//!
//! The encoder block is also the decoder's block: its cache-driven
//! passes (`prefill`, `prefill_chunk`, `decode_step`) read and write one
//! layer of a [`crate::kv::PagedKvCache`] through a borrowed
//! [`PagedKvLayer`].

use crate::attention::MultiHeadAttention;
use crate::kv::PagedKvLayer;
use crate::layers::{ForwardCtx, Gelu, LayerNorm, Linear, Param};
use crate::tensor::Tensor;
use lt_core::trace::{NonGemmKind, OpKind};
use lt_core::GaussianSampler;

/// A pre-LN Transformer encoder block (paper Eq. 1):
/// `x' = x + MHA(LN(x)); y = x' + FFN(LN(x'))`.
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn1: Linear,
    gelu: Gelu,
    ffn2: Linear,
}

impl EncoderBlock {
    /// Creates a block with the given width, head count, and FFN width.
    pub fn new(dim: usize, heads: usize, ffn_dim: usize, rng: &mut GaussianSampler) -> Self {
        EncoderBlock {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, rng),
            ln2: LayerNorm::new(dim),
            ffn1: Linear::new(dim, ffn_dim, rng).with_role(OpKind::Ffn1),
            gelu: Gelu::new(),
            ffn2: Linear::new(ffn_dim, dim, rng).with_role(OpKind::Ffn2),
        }
    }

    /// Scales this block's *residual contribution* by `gain`: the
    /// attention out-projection and the FFN down-projection (weights
    /// and biases), leaving the skip path untouched, so the block
    /// computes `x + gain * delta(x)` in both halves. Used to give
    /// synthetic random-weight decoders the trained-LM property that
    /// deeper blocks refine rather than overhaul the prediction (see
    /// `DecoderLm::taper_deep_blocks`).
    pub fn scale_residual(&mut self, gain: f32) {
        for lin in [&mut self.attn.wo, &mut self.ffn2] {
            for v in lin.w_mut().value.data_mut() {
                *v *= gain;
            }
            for v in lin.b.value.data_mut() {
                *v *= gain;
            }
        }
    }

    /// Forward pass over `[tokens, dim]`. Non-GEMM work (the two
    /// LayerNorms, the GELU, and both residual additions) reports its
    /// element counts to the context's trace, if it records.
    pub fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let elems = (x.rows() * x.cols()) as u64;
        let attn_out = {
            ctx.record_non_gemm(NonGemmKind::LayerNorm, elems);
            let normed = self.ln1.forward(x);
            self.attn.forward(&normed, ctx)
        };
        ctx.record_non_gemm(NonGemmKind::Residual, elems);
        let x1 = x.add(&attn_out);
        let ffn_out = {
            ctx.record_non_gemm(NonGemmKind::LayerNorm, elems);
            let normed = self.ln2.forward(&x1);
            let h = self.ffn1.forward(&normed, ctx);
            ctx.record_non_gemm(NonGemmKind::Gelu, (h.rows() * h.cols()) as u64);
            let h = self.gelu.forward(&h);
            self.ffn2.forward(&h, ctx)
        };
        ctx.record_non_gemm(NonGemmKind::Residual, elems);
        x1.add(&ffn_out)
    }

    /// Causal prefill of a whole prompt, filling this layer's view of a
    /// [`crate::kv::PagedKvCache`] — the block body of the
    /// autoregressive decode path (inference-only, `&self`, so
    /// concurrent decode sessions share one set of weights).
    pub fn prefill(
        &self,
        x: &Tensor,
        cache: &mut PagedKvLayer<'_>,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        self.decode_pass(x, ctx, |attn, normed, ctx| attn.prefill(normed, cache, ctx))
    }

    /// Causal prefill of one chunk of a prompt against this layer's KV
    /// cache (`x: [t, dim]` holding the tokens at positions
    /// `cache.context_len() ..`); see
    /// [`MultiHeadAttention::prefill_chunk`].
    pub fn prefill_chunk(
        &self,
        x: &Tensor,
        cache: &mut PagedKvLayer<'_>,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        self.decode_pass(x, ctx, |attn, normed, ctx| {
            attn.prefill_chunk(normed, cache, ctx)
        })
    }

    /// One single-token decode step against this layer's KV cache
    /// (`x: [1, dim]`, inference-only).
    pub fn decode_step(
        &self,
        x: &Tensor,
        cache: &mut PagedKvLayer<'_>,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        self.decode_pass(x, ctx, |attn, normed, ctx| {
            attn.decode_step(normed, cache, ctx)
        })
    }

    /// The shared pre-LN block body of the cache-driven passes; only
    /// the attention inner call differs. Both residuals add into the
    /// branch output in place (`a + b == b + a` exactly in IEEE
    /// arithmetic, so this is `forward`'s `x + delta`).
    fn decode_pass(
        &self,
        x: &Tensor,
        ctx: &mut ForwardCtx<'_>,
        attend: impl FnOnce(&MultiHeadAttention, &Tensor, &mut ForwardCtx<'_>) -> Tensor,
    ) -> Tensor {
        let elems = (x.rows() * x.cols()) as u64;
        ctx.record_non_gemm(NonGemmKind::LayerNorm, elems);
        let mut x1 = attend(&self.attn, &self.ln1.infer(x), ctx);
        ctx.record_non_gemm(NonGemmKind::Residual, elems);
        x1.add_assign(x);
        ctx.record_non_gemm(NonGemmKind::LayerNorm, elems);
        let h = self.ffn1.infer(&self.ln2.infer(&x1), ctx);
        ctx.record_non_gemm(NonGemmKind::Gelu, (h.rows() * h.cols()) as u64);
        let mut y = self.ffn2.infer(&self.gelu.infer(h), ctx);
        ctx.record_non_gemm(NonGemmKind::Residual, elems);
        y.add_assign(&x1);
        y
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        // y = x1 + ffn(ln2(x1))
        let dffn = self.ffn2.backward(dy);
        let dgelu = self.gelu.backward(&dffn);
        let dnorm2 = self.ffn1.backward(&dgelu);
        let mut dx1 = self.ln2.backward(&dnorm2);
        dx1.add_assign(dy);
        // x1 = x + attn(ln1(x))
        let dattn = self.attn.backward(&dx1);
        let mut dx = self.ln1.backward(&dattn);
        dx.add_assign(&dx1);
        dx
    }

    /// Visits all parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.ffn1.visit_params(f);
        self.ffn2.visit_params(f);
    }
}

/// A model that classifies an input into one of `classes`.
///
/// Implemented by [`VisionTransformer`] (input: patch matrix) and
/// [`TextClassifier`] (input: token ids); the shared training loop in
/// [`crate::train`] is generic over this trait.
pub trait Classifier<I: ?Sized> {
    /// Computes `[1, classes]` logits.
    fn forward(&mut self, input: &I, ctx: &mut ForwardCtx<'_>) -> Tensor;
    /// Backpropagates from the logits gradient.
    fn backward(&mut self, dlogits: &Tensor);
    /// Visits every trainable parameter.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total trainable parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Geometry of the tiny experiment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Embedding width.
    pub dim: usize,
    /// Encoder blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN hidden width.
    pub ffn_dim: usize,
    /// Output classes.
    pub classes: usize,
}

impl ModelConfig {
    /// The default vision stand-in: dim 32, 2 layers, 4 heads, FFN 64.
    pub fn tiny_vision() -> Self {
        ModelConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            ffn_dim: 64,
            classes: 4,
        }
    }

    /// The default text stand-in: dim 32, 2 layers, 4 heads, FFN 64.
    pub fn tiny_text() -> Self {
        ModelConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            ffn_dim: 64,
            classes: 2,
        }
    }
}

/// A tiny Vision Transformer: patch embedding, CLS token, learned
/// positional embedding, encoder blocks, and a classification head.
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    config: ModelConfig,
    patch_embed: Linear,
    cls_token: Param,
    pos_embed: Param,
    blocks: Vec<EncoderBlock>,
    ln_f: LayerNorm,
    head: Linear,
    cache_tokens: usize,
}

impl VisionTransformer {
    /// Creates a ViT for inputs of `num_patches` patches of `patch_dim`
    /// values each.
    pub fn new(
        config: ModelConfig,
        num_patches: usize,
        patch_dim: usize,
        rng: &mut GaussianSampler,
    ) -> Self {
        VisionTransformer {
            config,
            patch_embed: Linear::new(patch_dim, config.dim, rng).with_role(OpKind::PatchEmbed),
            cls_token: Param::new(Tensor::randn(1, config.dim, 0.02, rng)),
            pos_embed: Param::new(Tensor::randn(num_patches + 1, config.dim, 0.02, rng)),
            blocks: (0..config.layers)
                .map(|_| EncoderBlock::new(config.dim, config.heads, config.ffn_dim, rng))
                .collect(),
            ln_f: LayerNorm::new(config.dim),
            head: Linear::new(config.dim, config.classes, rng).with_role(OpKind::Classifier),
            cache_tokens: 0,
        }
    }

    /// The model geometry.
    pub fn config(&self) -> ModelConfig {
        self.config
    }
}

impl Classifier<Tensor> for VisionTransformer {
    fn forward(&mut self, patches: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let embedded = self.patch_embed.forward(patches, ctx);
        // Prepend the CLS token and add positions.
        let tokens = embedded.rows() + 1;
        self.cache_tokens = tokens;
        let mut x = Tensor::zeros(tokens, self.config.dim);
        for j in 0..self.config.dim {
            x.set(0, j, self.cls_token.value.get(0, j));
        }
        for i in 0..embedded.rows() {
            for j in 0..self.config.dim {
                x.set(i + 1, j, embedded.get(i, j));
            }
        }
        let x = x.add(&self.pos_embed.value);
        let mut h = x;
        for block in &mut self.blocks {
            h = block.forward(&h, ctx);
        }
        ctx.record_non_gemm(NonGemmKind::LayerNorm, (h.rows() * h.cols()) as u64);
        let h = self.ln_f.forward(&h);
        // Classify from the CLS token.
        let cls = Tensor::from_fn(1, self.config.dim, |_, j| h.get(0, j));
        self.head.forward(&cls, ctx)
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let dcls = self.head.backward(dlogits);
        let tokens = self.cache_tokens;
        let mut dh = Tensor::zeros(tokens, self.config.dim);
        for j in 0..self.config.dim {
            dh.set(0, j, dcls.get(0, j));
        }
        let mut dx = self.ln_f.backward(&dh);
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        // Positions and CLS.
        self.pos_embed.grad.add_assign(&dx);
        for j in 0..self.config.dim {
            let g = self.cls_token.grad.get(0, j) + dx.get(0, j);
            self.cls_token.grad.set(0, j, g);
        }
        // Patch embedding.
        let dembed = Tensor::from_fn(tokens - 1, self.config.dim, |i, j| dx.get(i + 1, j));
        let _ = self.patch_embed.backward(&dembed);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.patch_embed.visit_params(f);
        f(&mut self.cls_token);
        f(&mut self.pos_embed);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }
}

/// A tiny bidirectional text classifier: token embedding table, learned
/// positions, encoder blocks, mean pooling, and a classification head.
#[derive(Debug, Clone)]
pub struct TextClassifier {
    config: ModelConfig,
    /// Embedding table, `vocab x dim`.
    pub embed: Param,
    pos_embed: Param,
    blocks: Vec<EncoderBlock>,
    ln_f: LayerNorm,
    head: Linear,
    cache_tokens: Vec<usize>,
}

impl TextClassifier {
    /// Creates a classifier for sequences of exactly `seq_len` tokens over
    /// a `vocab`-symbol alphabet.
    pub fn new(
        config: ModelConfig,
        vocab: usize,
        seq_len: usize,
        rng: &mut GaussianSampler,
    ) -> Self {
        TextClassifier {
            config,
            embed: Param::new(Tensor::randn(vocab, config.dim, 0.1, rng)),
            pos_embed: Param::new(Tensor::randn(seq_len, config.dim, 0.02, rng)),
            blocks: (0..config.layers)
                .map(|_| EncoderBlock::new(config.dim, config.heads, config.ffn_dim, rng))
                .collect(),
            ln_f: LayerNorm::new(config.dim),
            head: Linear::new(config.dim, config.classes, rng).with_role(OpKind::Classifier),
            cache_tokens: Vec::new(),
        }
    }

    /// The model geometry.
    pub fn config(&self) -> ModelConfig {
        self.config
    }
}

impl Classifier<[usize]> for TextClassifier {
    fn forward(&mut self, tokens: &[usize], ctx: &mut ForwardCtx<'_>) -> Tensor {
        assert_eq!(
            tokens.len(),
            self.pos_embed.value.rows(),
            "sequence length mismatch"
        );
        self.cache_tokens = tokens.to_vec();
        let x = Tensor::from_fn(tokens.len(), self.config.dim, |i, j| {
            self.embed.value.get(tokens[i], j) + self.pos_embed.value.get(i, j)
        });
        let mut h = x;
        for block in &mut self.blocks {
            h = block.forward(&h, ctx);
        }
        ctx.record_non_gemm(NonGemmKind::LayerNorm, (h.rows() * h.cols()) as u64);
        let h = self.ln_f.forward(&h);
        // First-token pooling (BERT's [CLS]-style readout).
        let pooled = Tensor::from_fn(1, self.config.dim, |_, j| h.get(0, j));
        self.head.forward(&pooled, ctx)
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let dpooled = self.head.backward(dlogits);
        let n = self.cache_tokens.len();
        let dh = Tensor::from_fn(n, self.config.dim, |i, j| {
            if i == 0 {
                dpooled.get(0, j)
            } else {
                0.0
            }
        });
        let mut dx = self.ln_f.backward(&dh);
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        self.pos_embed.grad.add_assign(&dx);
        for (i, &tok) in self.cache_tokens.iter().enumerate() {
            for j in 0..self.config.dim {
                let g = self.embed.grad.get(tok, j) + dx.get(i, j);
                self.embed.grad.set(tok, j, g);
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed);
        f(&mut self.pos_embed);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendEngine, ExactEngine, MatmulEngine};
    use crate::quant::QuantConfig;
    use lt_core::NativeBackend;
    use lt_dptc::DptcBackend;

    #[test]
    fn vit_forward_shapes() {
        let mut rng = GaussianSampler::new(1);
        let mut vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
        let patches = Tensor::randn(16, 16, 1.0, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let logits = vit.forward(&patches, &mut ctx);
        assert_eq!(logits.shape(), (1, 4));
    }

    #[test]
    fn text_forward_shapes() {
        let mut rng = GaussianSampler::new(2);
        let mut model = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
        let tokens = vec![1usize, 5, 3, 9, 0, 2, 7, 7, 4, 11, 6, 8];
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let logits = model.forward(&tokens, &mut ctx);
        assert_eq!(logits.shape(), (1, 2));
    }

    #[test]
    fn param_counts_are_sane() {
        let mut rng = GaussianSampler::new(3);
        let mut vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
        let n = vit.param_count();
        // dim 32, 2 blocks: ~30-40k parameters.
        assert!((15_000..60_000).contains(&n), "ViT params {n}");
    }

    #[test]
    fn vit_gradients_flow_to_every_param() {
        let mut rng = GaussianSampler::new(4);
        let mut vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
        let patches = Tensor::randn(16, 16, 1.0, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let logits = vit.forward(&patches, &mut ctx);
        let (_, dlogits) = crate::layers::cross_entropy(&logits, &[1]);
        vit.backward(&dlogits);
        let mut zero_grads = 0;
        let mut total = 0;
        vit.visit_params(&mut |p| {
            total += 1;
            if p.grad.max_abs() == 0.0 {
                zero_grads += 1;
            }
        });
        assert!(total > 20, "should visit many params, got {total}");
        assert!(
            zero_grads <= 1, // cls-token grad can be tiny but not zero; allow one straggler
            "{zero_grads}/{total} params received no gradient"
        );
    }

    #[test]
    fn encoder_block_gradient_matches_finite_differences() {
        let mut rng = GaussianSampler::new(5);
        let mut block = EncoderBlock::new(8, 2, 16, &mut rng);
        let x = Tensor::randn(5, 8, 0.7, &mut rng);
        let dy = Tensor::randn(5, 8, 1.0, &mut rng);

        let loss = |b: &mut EncoderBlock, x: &Tensor| -> f32 {
            let mut eng = ExactEngine;
            let mut nrng = GaussianSampler::new(0);
            let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
            b.forward(x, &mut ctx).hadamard(&dy).data().iter().sum()
        };
        let _ = loss(&mut block, &x);
        let dx = block.backward(&dy);

        let h = 1e-2f32;
        for &(i, j) in &[(0usize, 0usize), (2, 3), (4, 7)] {
            let mut xp = x.clone();
            xp.set(i, j, x.get(i, j) + h);
            let mut xm = x.clone();
            xm.set(i, j, x.get(i, j) - h);
            let num = (loss(&mut block.clone(), &xp) - loss(&mut block.clone(), &xm)) / (2.0 * h);
            let got = dx.get(i, j);
            assert!(
                (got - num).abs() < 0.05 * num.abs().max(1.0),
                "dx[{i},{j}] {got} vs numeric {num}"
            );
        }
    }

    /// `lin.infer(x)` on the f64 native engine, which stages the weight,
    /// and on the analytic DPTC, which also keeps its codes.
    fn infer_f64(lin: &Linear, x: &Tensor) -> [Tensor; 2] {
        let infer = |engine: &mut dyn MatmulEngine| {
            let mut nrng = GaussianSampler::new(0);
            let mut ctx = ForwardCtx::inference(engine, QuantConfig::fp32(), &mut nrng);
            lin.infer(x, &mut ctx)
        };
        [
            infer(&mut BackendEngine::new(NativeBackend, 0)),
            infer(&mut BackendEngine::new(DptcBackend::paper(8, 3), 0)),
        ]
    }

    /// Asserts that `lin` infers exactly like a freshly built layer with
    /// its current weight and bias (which has nothing staged), and
    /// differently from `before`, its outputs before the change, and
    /// that the copy it staged is its weight widened. Above the exact
    /// kernel's source-fold gate the native backend reads the weight
    /// itself, so only that last check sees a stale copy there; the
    /// DPTC sees stale codes at every width.
    fn assert_follows_new_weight(lin: &Linear, x: &Tensor, before: &[Tensor; 2]) {
        let (rows, cols) = lin.w().value.shape();
        let mut fresh = Linear::new(rows, cols, &mut GaussianSampler::new(0));
        *fresh.w_mut() = lin.w().clone();
        fresh.b = lin.b.clone();
        let got = infer_f64(lin, x);
        assert_eq!(got, infer_f64(&fresh, x));
        for (got, before) in got.iter().zip(before) {
            assert_ne!(got, before, "the change must show in the output");
        }
        assert_eq!(lin.staged.w64.get(), Some(&lin.w().value.to_f64()));
    }

    /// Every `&mut` route to a weight empties its staging, in a block
    /// whose weights are below the source-fold gate (8 wide) and in one
    /// whose weights are above it (servebench `serve_open`'s 128 wide,
    /// 64-256 KiB in f64).
    #[test]
    fn every_weight_change_drops_the_staged_copy() {
        for (dim, ffn) in [(8, 16), (128, 256)] {
            let mut rng = GaussianSampler::new(7);
            let mut block = EncoderBlock::new(dim, 2, ffn, &mut rng);
            let x = Tensor::randn(2, dim, 1.0, &mut rng);
            let h = Tensor::randn(2, ffn, 1.0, &mut rng);

            let (wo, ffn2) = (infer_f64(&block.attn.wo, &x), infer_f64(&block.ffn2, &h));
            block.scale_residual(0.5);
            assert_follows_new_weight(&block.attn.wo, &x, &wo);
            assert_follows_new_weight(&block.ffn2, &h, &ffn2);

            let ffn1 = infer_f64(&block.ffn1, &x);
            block.ffn1.w_mut().value.data_mut()[3] += 1.0;
            assert_follows_new_weight(&block.ffn1, &x, &ffn1);

            let wq = infer_f64(&block.attn.wq, &x);
            block.visit_params(&mut |p| p.value = p.value.map(|v| v * 1.5 + 0.25));
            assert_follows_new_weight(&block.attn.wq, &x, &wq);
        }
    }

    #[test]
    #[should_panic(expected = "sequence length mismatch")]
    fn wrong_sequence_length_rejected() {
        let mut rng = GaussianSampler::new(6);
        let mut model = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
        let mut eng = ExactEngine;
        let mut nrng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut nrng);
        let _ = model.forward(&[1usize, 2, 3], &mut ctx);
    }
}
