//! Autoregressive LLM decode workloads (paper Section VI-B).
//!
//! Token-by-token generation turns the attention GEMMs into small
//! matrix-vector products against the KV cache, collapsing arithmetic
//! intensity and making decoding memory-bound — the exact challenge the
//! paper discusses for photonic acceleration of LLMs. This module builds
//! per-token decode traces and quantifies intensity, KV-cache footprint,
//! and the batching remedy.

use crate::model::TransformerConfig;
use lt_core::{Op, OpKind, Trace};

/// A single-token decode step against a KV cache of `context_len` tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeTrace {
    model: TransformerConfig,
    context_len: usize,
    batch: usize,
}

impl DecodeTrace {
    /// Creates a decode-step trace.
    ///
    /// # Panics
    ///
    /// Panics if `context_len == 0` or `batch == 0`.
    pub fn new(model: TransformerConfig, context_len: usize, batch: usize) -> Self {
        assert!(context_len > 0, "context length must be positive");
        assert!(batch > 0, "batch must be positive");
        DecodeTrace {
            model,
            context_len,
            batch,
        }
    }

    /// The model being decoded.
    pub fn model(&self) -> &TransformerConfig {
        &self.model
    }

    /// Current context (KV cache) length in tokens.
    pub fn context_len(&self) -> usize {
        self.context_len
    }

    /// The GEMMs of generating one token for the whole batch, in the
    /// shared trace IR, so the same `lt_arch::Simulator::run_trace`
    /// entry point that replays recorded execution can replay the
    /// analytical decode step. The executable decode path
    /// (`lt_nn::decode`) records exactly these shapes at batch 1 —
    /// pinned by `tests/trace_crossval.rs`. It is
    /// [`DecodeTrace::spec_trace`] with no draft tokens.
    pub fn op_trace(&self) -> Trace {
        self.spec_trace(0)
    }

    /// The GEMMs of one batched speculative *verify* pass: the last
    /// committed token plus `k` draft proposals run through the target
    /// in a single chunked pass, every GEMM row-stacked `k + 1` high
    /// and the attention context grown by the `k` extra speculated
    /// positions. With `context_len` counting the attended tokens at
    /// the first verified position (as in [`DecodeTrace::op_trace`]),
    /// `spec_trace(0)` *is* the plain decode step.
    ///
    /// This is the analytic twin of `lt_nn::DecoderLm::verify_step`
    /// (pinned by `tests/trace_crossval.rs`) and the whole bandwidth
    /// argument for speculation: the weights stream over HBM once per
    /// `k + 1` candidate positions instead of once per token.
    pub fn spec_trace(&self, k: usize) -> Trace {
        let d = self.model.dim;
        let h = self.model.heads;
        let dh = self.model.head_dim();
        let f = self.model.ffn_dim;
        let layers = self.model.layers;
        let rows = self.batch * (k + 1);
        let ctx = self.context_len + k;
        Trace::from_ops(vec![
            // Q/K/V projections for the new tokens (batched rows).
            Op::gemm_n(OpKind::QkvProj, rows, d, d, 3 * layers),
            // q . K^T against the cache, per head: [rows, dh] x [dh, ctx].
            Op::gemm_n(OpKind::AttnQk, rows, dh, ctx, h * layers),
            // a . V: [rows, ctx] x [ctx, dh].
            Op::gemm_n(OpKind::AttnAv, rows, ctx, dh, h * layers),
            Op::gemm_n(OpKind::OutProj, rows, d, d, layers),
            Op::gemm_n(OpKind::Ffn1, rows, d, f, layers),
            Op::gemm_n(OpKind::Ffn2, rows, f, d, layers),
        ])
    }

    /// MACs for one generated token.
    pub fn macs_per_token(&self) -> u64 {
        self.op_trace().total_macs()
    }

    /// KV-cache footprint in bytes at `bits` precision (keys + values, all
    /// layers, all heads, whole batch).
    pub fn kv_cache_bytes(&self, bits: u32) -> u64 {
        let per_token = 2 * self.model.layers as u64 * self.model.dim as u64;
        per_token * self.context_len as u64 * self.batch as u64 * bits as u64 / 8
    }

    /// Arithmetic intensity in MACs per byte touched (weights + KV cache
    /// read once per token at `bits` precision). Low intensity (< compute
    /// to bandwidth ratio) means the decode step is memory-bound.
    pub fn arithmetic_intensity(&self, bits: u32) -> f64 {
        let bytes_weights = self.model.param_count() * bits as u64 / 8;
        let bytes_kv = self.kv_cache_bytes(bits);
        self.macs_per_token() as f64 / (bytes_weights + bytes_kv) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt_like() -> TransformerConfig {
        // A small GPT-style decoder reusing the BERT-base geometry.
        TransformerConfig::gpt2_small(1)
    }

    #[test]
    fn decode_trace_shapes() {
        let ops = DecodeTrace::new(gpt_like(), 512, 1).op_trace();
        assert!(ops
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnQk, 1, 64, 512, 144)));
        assert!(ops
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnAv, 1, 512, 64, 144)));
    }

    #[test]
    fn decode_is_memory_bound_at_batch_1() {
        let t = DecodeTrace::new(gpt_like(), 512, 1);
        // ~1 MAC/byte at batch 1: decisively memory-bound against any
        // accelerator with > 10 MACs/byte of compute-to-bandwidth ratio.
        let ai = t.arithmetic_intensity(8);
        assert!(ai < 4.0, "batch-1 decode intensity {ai}");
    }

    #[test]
    fn batching_raises_intensity() {
        let b1 = DecodeTrace::new(gpt_like(), 512, 1).arithmetic_intensity(8);
        let b16 = DecodeTrace::new(gpt_like(), 512, 16).arithmetic_intensity(8);
        assert!(
            b16 > 5.0 * b1,
            "batching must amortize weight reads: {b1} -> {b16}"
        );
    }

    #[test]
    fn batched_steps_stack_rows() {
        let ir = DecodeTrace::new(gpt_like(), 512, 4).op_trace();
        assert_eq!(ir.len(), 6);
        assert_eq!(
            ir.total_macs(),
            4 * DecodeTrace::new(gpt_like(), 512, 1).macs_per_token()
        );
    }

    #[test]
    fn spec_trace_stacks_rows_and_grows_the_context() {
        let t = DecodeTrace::new(gpt_like(), 512, 1);
        let ops = t.spec_trace(4);
        assert!(ops
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnQk, 5, 64, 516, 144)));
        assert!(ops
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnAv, 5, 516, 64, 144)));
        // The speculation economics: 5 positions of projection/FFN MACs
        // against ONE weight stream (same k x n operands as a step).
        let (proj, step_proj) = (ops.ops()[0], t.op_trace().ops()[0]);
        assert_eq!(proj, Op::gemm_n(OpKind::QkvProj, 5, 768, 768, 36));
        assert_eq!(proj.total_macs(), 5 * step_proj.total_macs());
        assert_eq!(proj.weight_elems(), step_proj.weight_elems());
    }

    #[test]
    fn kv_cache_grows_linearly() {
        let a = DecodeTrace::new(gpt_like(), 256, 1).kv_cache_bytes(8);
        let b = DecodeTrace::new(gpt_like(), 512, 1).kv_cache_bytes(8);
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn recompute_tradeoff_is_visible() {
        // Recalculating K/V (paper's suggestion, ref [61]) trades MACs for
        // memory: the recompute MACs exceed the cached-read bytes saved.
        let t = DecodeTrace::new(gpt_like(), 512, 1);
        let cache_bytes = t.kv_cache_bytes(8);
        let recompute_macs = 2u64 // K and V projections
            * t.model().layers as u64
            * (t.context_len() as u64)
            * (t.model().dim as u64)
            * (t.model().dim as u64);
        assert!(
            recompute_macs > cache_bytes,
            "optics buys compute, not bytes"
        );
    }
}
