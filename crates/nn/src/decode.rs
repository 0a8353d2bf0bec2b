//! Executable autoregressive decode (paper Section VI-B): a KV-cached
//! decoder LM, incremental per-token forward passes, and per-token
//! hardware costing through the trace IR.
//!
//! The paper argues LLM decoding is memory-bound at batch 1 and that
//! batching is the remedy — but until this module the repo only modeled
//! that analytically (`lt_workloads::DecodeTrace`). Here the decode loop
//! actually runs, on one cache pass: [`DecoderLm::prefill_chunk`] feeds
//! new tokens through every block, appending their K/V to a
//! [`PagedKvCache`] and attending over the cached context. A whole
//! prompt's [`DecoderLm::prefill`], a [`DecoderLm::verify_step`] and a
//! [`DecoderLm::decode_step`] are that pass plus the LM head; a decode
//! step is a one-row pass that also reads back its own K/V row. Every
//! pass records its op trace (the matrix-vector `[1, dh] x [dh,
//! context]` attention shapes, the `[1, d] x [d, d]` projections, the
//! KV-append traffic) so [`lt_arch::Simulator::run_trace`] can cost
//! each generated token.
//! `tests/trace_crossval.rs` pins the recorded decode-step trace against
//! the analytical `DecodeTrace::op_trace()` dims and MACs.
//!
//! [`DecodeSession`] wraps one request's full lifecycle (prefill, then
//! token-by-token steps with greedy sampling) with the same per-ticket
//! seed discipline as the classifier server, so token streams are
//! bit-identical no matter how sessions are scheduled — the property the
//! continuous-batching server in [`crate::serve::decode`] relies on.
//!
//! Every cache is a [`PagedKvCache`]: a scheduler's sessions draw blocks
//! from its shared pool, while [`DecodeSession::new`] and the
//! speculative draft get [`DecoderLm::empty_cache`], a private pool of
//! one `max_seq`-token block. Gathers are exact, so a session decodes
//! the same bits on either.

use crate::engine::BackendEngine;
use crate::kv::{kv_write_traffic, BlockPool, KvWrite, PagedKvCache};
use crate::layers::{ForwardCtx, Linear, Param};
use crate::model::EncoderBlock;
use crate::quant::QuantConfig;
use crate::tensor::Tensor;
use lt_arch::{RunReport, Simulator, StallBreakdown};
use lt_core::backend::split_seed;
use lt_core::trace::{NonGemmKind, OpKind};
use lt_core::{ComputeBackend, GaussianSampler, Op, Trace};

/// Geometry of a decoder-only language model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Embedding width.
    pub dim: usize,
    /// Decoder blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN hidden width.
    pub ffn_dim: usize,
    /// Vocabulary size (embedding rows and LM-head columns).
    pub vocab: usize,
    /// Maximum sequence length (positions the model knows).
    pub max_seq: usize,
}

impl DecoderConfig {
    /// The default tiny GPT-style stand-in: dim 32, 2 layers, 4 heads,
    /// FFN 64, 16-symbol vocabulary, 48 positions.
    pub fn tiny() -> Self {
        DecoderConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            ffn_dim: 64,
            vocab: 16,
            max_seq: 48,
        }
    }

    /// The self-speculative draft geometry: the first half of the
    /// decoder stack (at least one block) over the *same* embedding
    /// width, head count, vocabulary, and context window. Sharing the
    /// vocabulary keeps draft proposals in the target's token space (one
    /// tokenizer), and sharing the width lets [`DecoderLm::draft`]
    /// reuse the target's own embeddings and LM head, which is what
    /// makes greedy agreement high enough for speculation to pay.
    pub fn draft(&self) -> Self {
        DecoderConfig {
            layers: (self.layers / 2).max(1),
            ..*self
        }
    }

    /// Checks a request for `max_new_tokens` after `prompt` against this
    /// geometry: exactly the conditions under which
    /// [`DecodeSession::new`] or [`DecoderLm::prefill`] would panic, so
    /// a server can fail a malformed request instead of catching the
    /// panic.
    pub fn check_request(
        &self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<(), RequestError> {
        if prompt.is_empty() {
            return Err(RequestError::EmptyPrompt);
        }
        if max_new_tokens == 0 {
            return Err(RequestError::NoNewTokens);
        }
        if let Some(&token) = prompt.iter().find(|&&t| t >= self.vocab) {
            return Err(RequestError::TokenOutOfVocab {
                token,
                vocab: self.vocab,
            });
        }
        // The last new token is sampled but never fed back.
        if prompt.len() + max_new_tokens - 1 > self.max_seq {
            return Err(RequestError::ContextOverflow {
                prompt: prompt.len(),
                max_new_tokens,
                max_seq: self.max_seq,
            });
        }
        Ok(())
    }

    /// The op trace an *unchunked* causal prefill of `tokens` prompt
    /// tokens records, built analytically from the geometry (no forward
    /// pass, no weights). Prefill cost is a pure function of shapes, so
    /// replaying this trace through a simulator yields exactly the cost
    /// [`DecodeSession::prefill`] would report on a cache that borrows
    /// no prefix — which makes it the exact minimum
    /// time-to-first-token an admission controller can promise
    /// (`tests/trace_crossval.rs`-style pinning lives in this module's
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero or exceeds `max_seq`.
    pub fn prefill_trace(&self, tokens: usize) -> Trace {
        assert!(
            tokens > 0 && tokens <= self.max_seq,
            "prefill of {tokens} tokens outside 1..={}",
            self.max_seq
        );
        self.pass_trace(tokens, 0, 1, 0)
    }

    /// The op trace one [`DecoderLm::verify_step`] over `rows` positions
    /// records against `prior` cached tokens, built from the geometry:
    /// `[rows, d]` projections and LM head, `[rows, dh] x [dh, prior +
    /// rows]` attention, the prior context read back, `rows` K/V rows
    /// appended, and `cow_elems` of copy-on-write traffic (the block copy
    /// the pass's first append pays on a shared tail block, as
    /// [`crate::kv::kv_write_traffic`] records it; see
    /// [`PagedKvCache::tail_cow_elems`]). This is the
    /// trace [`DecodeSession::spec_step`] charges for its verify pass;
    /// this module's tests pin it op for op against the recorded pass.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `prior` is zero or `prior + rows` exceeds
    /// `max_seq`.
    pub fn verify_trace(&self, rows: usize, prior: usize, cow_elems: u64) -> Trace {
        assert!(
            rows > 0 && prior > 0 && prior + rows <= self.max_seq,
            "verify of {rows} rows after {prior} outside 1..={}",
            self.max_seq
        );
        self.pass_trace(rows, prior, rows, cow_elems)
    }

    /// The coalesced trace of one causal pass over `rows` new positions
    /// after `prior` cached ones, with the final LayerNorm and LM head
    /// over `head_rows` of them.
    fn pass_trace(&self, rows: usize, prior: usize, head_rows: usize, cow_elems: u64) -> Trace {
        let (t, dim, layers) = (rows, self.dim, self.layers);
        let context = prior + rows;
        let dh = dim / self.heads;
        let per_heads = self.heads * layers;
        let elems = (t * dim) as u64;
        let mut trace = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, t, dim, dim, 3 * layers),
            Op::gemm_n(OpKind::AttnQk, t, dh, context, per_heads),
            Op::gemm_n(OpKind::AttnAv, t, context, dh, per_heads),
            Op::gemm_n(OpKind::OutProj, t, dim, dim, layers),
            Op::gemm_n(OpKind::Ffn1, t, dim, self.ffn_dim, layers),
            Op::gemm_n(OpKind::Ffn2, t, self.ffn_dim, dim, layers),
            Op::gemm(OpKind::LmHead, head_rows, dim, self.vocab),
            Op::non_gemm(NonGemmKind::Softmax, (t * context * per_heads) as u64),
            // Two LayerNorms per block plus the final head norm.
            Op::non_gemm(
                NonGemmKind::LayerNorm,
                2 * elems * layers as u64 + (head_rows * dim) as u64,
            ),
            Op::non_gemm(NonGemmKind::Residual, 2 * elems * layers as u64),
            Op::non_gemm(NonGemmKind::Gelu, (t * self.ffn_dim * layers) as u64),
        ]);
        if prior > 0 {
            // Only the prior context streams back from HBM.
            trace.push(Op::non_gemm(
                NonGemmKind::KvRead,
                2 * (prior * dim * layers) as u64,
            ));
        }
        let write = KvWrite {
            rows_written: t * layers,
            cow_elems,
        };
        trace.extend(
            kv_write_traffic(write, dim)
                .into_iter()
                .map(|(kind, elems)| Op::non_gemm(kind, elems)),
        );
        trace.coalesce()
    }
}

/// Why a decode request cannot run on a model
/// ([`DecoderConfig::check_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The prompt holds no tokens.
    EmptyPrompt,
    /// The request asks for no new tokens.
    NoNewTokens,
    /// A prompt token lies outside the vocabulary.
    TokenOutOfVocab {
        /// The first such token.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The prompt plus every new token but the last overflows the
    /// context window.
    ContextOverflow {
        /// Prompt tokens.
        prompt: usize,
        /// Requested new tokens.
        max_new_tokens: usize,
        /// The model's context window.
        max_seq: usize,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RequestError::EmptyPrompt => write!(f, "empty prompt"),
            RequestError::NoNewTokens => write!(f, "must generate at least one token"),
            RequestError::TokenOutOfVocab { token, vocab } => {
                write!(
                    f,
                    "prompt token {token} out of vocabulary ({vocab} symbols)"
                )
            }
            RequestError::ContextOverflow {
                prompt,
                max_new_tokens,
                max_seq,
            } => write!(
                f,
                "prompt {prompt} + {max_new_tokens} new tokens overflows max_seq {max_seq}"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// A decoder-only (GPT-style) language model over the same tiny-layer
/// stack as the classifiers: token + learned positional embedding,
/// pre-LN causal blocks, final LayerNorm, and a vocabulary LM head.
///
/// All forward entry points are inference-only (`&self`), so one model
/// value can be shared by many concurrent [`DecodeSession`]s.
#[derive(Debug, Clone)]
pub struct DecoderLm {
    config: DecoderConfig,
    /// Token embedding table, `vocab x dim`.
    pub embed: Param,
    pos_embed: Param,
    blocks: Vec<EncoderBlock>,
    ln_f: crate::layers::LayerNorm,
    lm_head: Linear,
}

impl DecoderLm {
    /// Creates a model with Xavier-style random weights.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads` or any size is zero.
    pub fn new(config: DecoderConfig, rng: &mut GaussianSampler) -> Self {
        assert!(
            config.vocab > 0 && config.max_seq > 0,
            "vocab and max_seq must be positive"
        );
        DecoderLm {
            config,
            embed: Param::new(Tensor::randn(config.vocab, config.dim, 0.1, rng)),
            pos_embed: Param::new(Tensor::randn(config.max_seq, config.dim, 0.02, rng)),
            blocks: (0..config.layers)
                .map(|_| EncoderBlock::new(config.dim, config.heads, config.ffn_dim, rng))
                .collect(),
            ln_f: crate::layers::LayerNorm::new(config.dim),
            lm_head: Linear::new(config.dim, config.vocab, rng).with_role(OpKind::LmHead),
        }
    }

    /// The model geometry.
    pub fn config(&self) -> DecoderConfig {
        self.config
    }

    /// Tapers the residual gain of the blocks the self-speculative
    /// draft drops (everything past [`DecoderConfig::draft`]`.layers`)
    /// by `gain`, via [`EncoderBlock::scale_residual`].
    ///
    /// Trained transformers have the property that deeper blocks
    /// *refine* the next-token argmax rather than overhaul it — the
    /// property layer-truncated drafting's acceptance rate rests on.
    /// Random init lacks that structure entirely (truncation agrees at
    /// chance level), so speculation workloads in this repo build it in
    /// explicitly with this knob and then *report* the resulting
    /// acceptance rate, never assume it. Speculation's correctness
    /// contract (bit-identity to plain greedy decoding) holds at any
    /// gain, including 1.0 (untapered).
    pub fn taper_deep_blocks(&mut self, gain: f32) {
        let keep = self.config.draft().layers;
        for block in &mut self.blocks[keep..] {
            block.scale_residual(gain);
        }
    }

    /// A fresh, empty KV cache sized for this model: a private pool of
    /// one block that holds the whole `max_seq`-token window.
    pub fn empty_cache(&self) -> PagedKvCache {
        let c = self.config;
        PagedKvCache::new(&BlockPool::new(1, c.layers, c.dim, c.max_seq))
    }

    /// Embeds `tokens` starting at position `start`.
    fn embed_at(&self, tokens: &[usize], start: usize) -> Tensor {
        Tensor::from_fn(tokens.len(), self.config.dim, |i, j| {
            self.embed.value.get(tokens[i], j) + self.pos_embed.value.get(start + i, j)
        })
    }

    /// Causal prefill over a whole prompt: one
    /// [`DecoderLm::prefill_chunk`] over every prompt token, then
    /// [`DecoderLm::logits_at_last`]. Fills `cache` with every prompt
    /// token's K/V and returns the `[1, vocab]` logits of the *last*
    /// position (the distribution of the first generated token).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty, exceeds `max_seq`, a token id is
    /// out of vocabulary, or `cache` is non-empty.
    pub fn prefill(
        &self,
        prompt: &[usize],
        cache: &mut PagedKvCache,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        assert!(cache.is_empty(), "prefill expects an empty KV cache");
        let h = self.prefill_chunk(prompt, cache, ctx);
        self.logits_at_last(&h, ctx)
    }

    /// The one cache pass of the decode path: feeds the tokens at
    /// positions `cache.len() .. cache.len() + tokens.len()` through
    /// every block's [`EncoderBlock::extend`], appending their K/V, and
    /// returns their `[t, dim]` final hidden states. Whole-prompt
    /// prefill, a prefill chunk, recompute, [`DecoderLm::verify_step`]
    /// and [`DecoderLm::decode_step`] all run it. It does *not* run the
    /// LM head: only the last chunk of a prompt needs logits; call
    /// [`DecoderLm::logits_at_last`] on the returned hidden states then.
    ///
    /// For deterministic backends without per-tensor fake quantization,
    /// feeding a prompt in any chunking produces a cache and logits
    /// bit-identical to one whole-prompt [`DecoderLm::prefill`] (every
    /// layer computes row-independently and the causal mask hides the
    /// missing future either way).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is empty or would overflow `max_seq`.
    pub fn prefill_chunk(
        &self,
        tokens: &[usize],
        cache: &mut PagedKvCache,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        assert!(!tokens.is_empty(), "empty prefill chunk");
        let start = cache.len();
        assert!(
            start + tokens.len() <= self.config.max_seq,
            "chunk at {} + {} exceeds max_seq {}",
            start,
            tokens.len(),
            self.config.max_seq
        );
        let mut h = self.embed_at(tokens, start);
        for (i, block) in self.blocks.iter().enumerate() {
            h = block.extend(&h, &mut cache.layer_mut(i), ctx);
        }
        h
    }

    /// `[1, vocab]` logits of the last row of `h` (final LayerNorm +
    /// LM head) — the step that turns a prefill's hidden states into
    /// the first generated token's distribution.
    pub fn logits_at_last(&self, h: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let last = Tensor::from_fn(1, self.config.dim, |_, j| h.get(h.rows() - 1, j));
        self.head_logits(&last, ctx)
    }

    /// One decode step: a one-row [`DecoderLm::prefill_chunk`] of
    /// `token` at the next position plus the LM head, returning
    /// `[1, vocab]` logits. Its logits, noise draws and trace equal a
    /// one-row [`DecoderLm::verify_step`]'s, but for one
    /// [`NonGemmKind::KvRead`] of the new row itself.
    ///
    /// # Panics
    ///
    /// Panics if the context is full (`cache.len() == max_seq`), the
    /// cache is empty (prefill first), or the token is out of vocabulary.
    pub fn decode_step(
        &self,
        token: usize,
        cache: &mut PagedKvCache,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let pos = cache.len();
        assert!(pos > 0, "decode_step before prefill");
        assert!(pos < self.config.max_seq, "context window full at {pos}");
        let h = self.prefill_chunk(&[token], cache, ctx);
        // A step also reads back its own new K/V row in every layer,
        // which a one-row chunk does not charge. Whether it should is the
        // open question of ROADMAP.md item 2; this line is the only place
        // the decode path applies that rule.
        let (dim, layers) = (self.config.dim, self.config.layers);
        ctx.record_non_gemm(NonGemmKind::KvRead, 2 * (dim * layers) as u64);
        self.head_logits(&h, ctx)
    }

    /// Final LayerNorm + LM head over a `[1, dim]` hidden state.
    fn head_logits(&self, h: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        ctx.record_non_gemm(NonGemmKind::LayerNorm, (h.rows() * h.cols()) as u64);
        self.lm_head.infer(&self.ln_f.infer(h), ctx)
    }

    /// One batched *verification* pass of speculative decoding: feeds
    /// the `k + 1` positions in `tokens` (the last committed token
    /// followed by the draft's `k` proposals) through the decoder in a
    /// single chunked pass and returns their `[k + 1, vocab]` logits.
    /// Row `i` is the target's next-token distribution after
    /// `tokens[..=i]` — exactly what `k + 1` successive
    /// [`DecoderLm::decode_step`] calls would produce (bit-identical on
    /// deterministic backends: every layer computes row-independently
    /// under the causal mask).
    ///
    /// The hardware payoff is the recorded shapes: one
    /// `[k+1, dh] x [dh, ctx]` QK, one `[k+1, ctx] x [ctx, dh]` AV, and
    /// a row-stacked `[k+1, dim] x [dim, vocab]` LM head per pass, so
    /// the target's weights stream over HBM once per `k + 1` positions
    /// instead of once per token — the whole point on a decode path
    /// that is ~81% bandwidth-stalled at batch 1.
    ///
    /// All `k + 1` K/V rows are appended to `cache`; the caller rolls
    /// rejected positions back with [`PagedKvCache::truncate`].
    ///
    /// [`DecodeSession::spec_step`] charges this pass without running
    /// it: [`DecoderConfig::verify_trace`] is its trace, and this
    /// function is the executable reference that trace is pinned
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, `cache` is empty (prefill first),
    /// or the pass would overflow `max_seq`.
    pub fn verify_step(
        &self,
        tokens: &[usize],
        cache: &mut PagedKvCache,
        ctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        assert!(!cache.is_empty(), "verify_step before prefill");
        let h = self.prefill_chunk(tokens, cache, ctx);
        self.head_logits(&h, ctx)
    }

    /// The *self-speculative* draft of speculative decoding: the first
    /// [`DecoderConfig::draft`]`.layers` blocks of this model with its
    /// embeddings, final LayerNorm, and LM head, weights copied. Because
    /// the decoder is residual, the truncated stack's hidden states
    /// track the full stack's closely, so greedy agreement stays high
    /// without training a separate model.
    pub fn draft(&self) -> DecoderLm {
        let config = self.config.draft();
        DecoderLm {
            config,
            embed: self.embed.clone(),
            pos_embed: self.pos_embed.clone(),
            blocks: self.blocks[..config.layers].to_vec(),
            ln_f: self.ln_f.clone(),
            lm_head: self.lm_head.clone(),
        }
    }
}

/// Greedy (argmax) sampling over `[1, vocab]` logits; ties resolve to
/// the lowest token id, so sampling is fully deterministic.
///
/// # Panics
///
/// Panics if `logits` has no columns.
pub fn greedy(logits: &Tensor) -> usize {
    let row = logits.row(0);
    assert!(!row.is_empty(), "empty logits");
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// The longest-prefix greedy agreement of one speculative step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecOutcome {
    /// Draft proposals accepted (`0..=k`).
    pub accepted: usize,
    /// The token emitted at the first non-agreeing position: the
    /// target's correction when a proposal is rejected, or the free
    /// "bonus" token from the extra verified position when every
    /// proposal is accepted.
    pub bonus_token: usize,
    /// Rejected draft positions (`k - accepted`): rolled back in the
    /// draft's cache, never written to the target's.
    pub rollback: usize,
}

impl SpecOutcome {
    /// Tokens this speculative step emitted (`accepted + 1`).
    pub fn emitted(&self) -> usize {
        self.accepted + 1
    }
}

/// One speculative step's outcome plus its itemized hardware cost:
/// the draft model's recorded trace (the overhead a real deployment
/// pays) and the target's batched verify trace, built from the pass's
/// shape ([`DecoderConfig::verify_trace`]), each replayed on the
/// simulator.
#[derive(Debug, Clone)]
pub struct SpecStepReport {
    /// Longest-prefix agreement outcome.
    pub outcome: SpecOutcome,
    /// Draft-model ops: cache catch-up plus the `k` draft steps.
    pub draft_trace: Trace,
    /// Target-model ops: the one batched verify pass (or the recorded
    /// plain decode step when speculation degenerated to `k_eff = 0`).
    pub verify_trace: Trace,
    /// [`SpecStepReport::draft_trace`] replayed on the simulator.
    pub draft_cost: RunReport,
    /// [`SpecStepReport::verify_trace`] replayed on the simulator.
    pub verify_cost: RunReport,
}

impl SpecStepReport {
    /// The counter increments this one step contributes — what a
    /// scheduler folds into an aggregate [`SpecSessionStats`] without
    /// waiting for the session to retire.
    pub fn stats_delta(&self) -> SpecSessionStats {
        SpecSessionStats {
            spec_steps: 1,
            proposed: (self.outcome.accepted + self.outcome.rollback) as u64,
            accepted: self.outcome.accepted as u64,
            emitted: self.outcome.emitted() as u64,
            rolled_back: self.outcome.rollback as u64,
            draft_cycles: self.draft_cost.cycles,
            verify_cycles: self.verify_cost.cycles,
        }
    }
}

/// Speculation counters: one step's ([`SpecStepReport::stats_delta`]),
/// or the merged acceptance accounting that
/// [`crate::serve::sched::KvSchedStats`] and the serving report keep
/// across steps and requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecSessionStats {
    /// Speculative steps taken (including `k_eff = 0` fallbacks).
    pub spec_steps: u64,
    /// Draft tokens proposed.
    pub proposed: u64,
    /// Draft tokens accepted.
    pub accepted: u64,
    /// Tokens emitted by speculative steps (accepted + bonus/correction).
    pub emitted: u64,
    /// K/V rows rolled back (rejected positions).
    pub rolled_back: u64,
    /// Replayed draft-model cycles — the speculation overhead,
    /// itemized, never folded into the target's cycles.
    pub draft_cycles: u64,
    /// Replayed target-model cycles (verify passes + fallback steps).
    pub verify_cycles: u64,
}

impl SpecSessionStats {
    /// Merges another step's or session's counters into this one.
    pub fn merge(&mut self, other: &SpecSessionStats) {
        self.spec_steps += other.spec_steps;
        self.proposed += other.proposed;
        self.accepted += other.accepted;
        self.emitted += other.emitted;
        self.rolled_back += other.rolled_back;
        self.draft_cycles += other.draft_cycles;
        self.verify_cycles += other.verify_cycles;
    }

    /// Fraction of draft proposals the target accepted (0 when none
    /// were proposed).
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// Per-session draft-model state: the draft's own KV cache (a private
/// pool, [`DecoderLm::empty_cache`]) and engine, whose noise stream is
/// salted off the session's, kept in sync with the committed token
/// stream.
#[derive(Debug)]
struct SpecState<B: ComputeBackend + Clone> {
    engine: BackendEngine<B>,
    cache: PagedKvCache,
}

/// Seed salt separating the draft model's noise stream from the
/// session's own (both still derive from `(seed, ticket)` only, so
/// speculation stays deterministic under any scheduling).
const DRAFT_SEED_SALT: u64 = 0xD12A_F75E_C0DE_CAFE;

/// The served result of one decode request: the generated tokens plus
/// the hardware cost of every forward pass that produced them — one
/// [`RunReport`] for the prefill and one per decoded token, each the
/// replay of that pass's recorded op trace through the accelerator
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReply {
    /// The prompt that was served.
    pub prompt: Vec<usize>,
    /// Generated tokens, in order (`max_new_tokens` of them).
    pub tokens: Vec<usize>,
    /// Cost of the causal prompt pass (covers the first generated token).
    pub prefill: RunReport,
    /// Per-token costs of the decode steps (tokens 2..): `steps[i]` is
    /// the replayed cost of generating `tokens[i + 1]` against a context
    /// of `prompt.len() + i + 1` cached tokens.
    pub steps: Vec<RunReport>,
    /// Final KV-cache footprint in bytes at the serving precision.
    pub kv_cache_bytes: u64,
}

impl DecodeReply {
    /// Photonic cycles of the decode steps only (the per-token regime).
    pub fn decode_cycles(&self) -> u64 {
        self.steps.iter().map(|r| r.cycles).sum()
    }

    /// Merged cost of everything (prefill + every decode step).
    pub fn total(&self) -> RunReport {
        let mut all = self.prefill;
        for step in &self.steps {
            all.merge(step);
        }
        all
    }

    /// Merged cost of the decode steps only — the memory-bound
    /// per-token regime the paper's Section VI-B is about, without the
    /// compute-bound prefill averaging it away.
    pub fn decode_total(&self) -> RunReport {
        let mut all = RunReport::default();
        for step in &self.steps {
            all.merge(step);
        }
        all
    }

    /// Stall itemization of the decode steps: *why* each generated
    /// token took its cycles (photonic compute vs. HBM bandwidth vs.
    /// pipeline fill), summed over the per-token regime.
    pub fn decode_stalls(&self) -> StallBreakdown {
        self.decode_total().stalls
    }

    /// Achieved MAC utilization over the decode steps (time-weighted).
    pub fn decode_utilization(&self) -> f64 {
        self.decode_total().utilization
    }
}

/// Per-session execution settings shared by every session of one
/// serving run: the root seed, operand quantization, and the precision
/// the KV footprint is reported at.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Root seed; the session's stream derives via `split_seed(seed, ticket)`.
    pub seed: u64,
    /// Operand fake-quantization applied to every forward pass.
    pub quant: QuantConfig,
    /// Operand precision (bits) used for the KV-cache byte accounting.
    pub kv_bits: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 0,
            quant: QuantConfig::fp32(),
            kv_bits: 8,
        }
    }
}

/// One request's decode lifecycle: prefill once, then step until
/// `max_new_tokens` are generated, recording and costing every pass.
///
/// Everything stochastic flows from `split_seed(seed, ticket)` — the
/// same discipline as the classifier server. A session draws from
/// exactly two streams: its engine's, seeded with that value, and the
/// speculative draft's, salted off it. So the token stream and every
/// attached cost are bit-identical regardless of how many other
/// sessions run interleaved with this one, on how many workers.
#[derive(Debug)]
pub struct DecodeSession<B: ComputeBackend + Clone> {
    ticket: u64,
    prompt: Vec<usize>,
    max_new_tokens: usize,
    quant: QuantConfig,
    engine: BackendEngine<B>,
    cache: PagedKvCache,
    tokens: Vec<usize>,
    /// Merged cost of the prefill chunks fed so far.
    prefill_cost: Option<RunReport>,
    /// Prompt tokens already prefilled via [`DecodeSession::prefill_partial`].
    prefill_fed: usize,
    step_costs: Vec<RunReport>,
    kv_bits: u32,
    /// Root seed (pre-split), kept to derive the draft's stream lazily.
    seed: u64,
    /// Draft-model state, created on the first [`DecodeSession::spec_step`].
    spec: Option<SpecState<B>>,
}

impl<B: ComputeBackend + Clone> DecodeSession<B> {
    /// Creates a session for `prompt`, generating `max_new_tokens`, on a
    /// private cache ([`DecoderLm::empty_cache`]).
    ///
    /// # Panics
    ///
    /// Panics if [`DecoderConfig::check_request`] rejects the request:
    /// the prompt is empty or holds a token outside the vocabulary,
    /// `max_new_tokens` is zero, or the full sequence would overflow the
    /// model's context window.
    pub fn new(
        model: &DecoderLm,
        ticket: u64,
        prompt: Vec<usize>,
        max_new_tokens: usize,
        backend: B,
        config: SessionConfig,
    ) -> Self {
        let cache = model.empty_cache();
        Self::new_paged(
            model,
            ticket,
            prompt,
            max_new_tokens,
            backend,
            config,
            cache,
        )
    }

    /// Creates a session whose KV lives in `cache` — a block table over
    /// a shared pool (possibly seeded with a shared prefix). Seeds,
    /// sampling, and costs follow the exact same discipline as
    /// [`DecodeSession::new`], so for a pool large enough to avoid
    /// preemption the reply is bit-identical to a private cache's.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DecodeSession::new`].
    pub fn new_paged(
        model: &DecoderLm,
        ticket: u64,
        prompt: Vec<usize>,
        max_new_tokens: usize,
        backend: B,
        config: SessionConfig,
        cache: PagedKvCache,
    ) -> Self {
        if let Err(e) = model.config().check_request(&prompt, max_new_tokens) {
            panic!("{e}");
        }
        DecodeSession {
            ticket,
            prompt,
            max_new_tokens,
            quant: config.quant,
            engine: BackendEngine::new(backend, split_seed(config.seed, ticket)),
            cache,
            tokens: Vec::with_capacity(max_new_tokens),
            prefill_cost: None,
            prefill_fed: 0,
            step_costs: Vec::new(),
            kv_bits: config.kv_bits,
            seed: config.seed,
            spec: None,
        }
    }

    /// The session's queue ticket.
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// The session's prompt (what a prefix-sharing index keys on).
    pub fn prompt(&self) -> &[usize] {
        &self.prompt
    }

    /// Tokens generated so far.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Tokens still to generate (`max_new_tokens` minus what is out) —
    /// what a speculative scheduler clamps `k` against.
    pub fn remaining_tokens(&self) -> usize {
        self.max_new_tokens - self.tokens.len()
    }

    /// The session's KV cache — the handle the memory-pressure
    /// scheduler drives for reservation ([`PagedKvCache::blocks_needed`])
    /// and preemption.
    pub fn paged_kv(&self) -> &PagedKvCache {
        &self.cache
    }

    /// Mutable access to the KV cache (swap-out / resume).
    pub fn paged_kv_mut(&mut self) -> &mut PagedKvCache {
        &mut self.cache
    }

    /// Rebuilds a KV cache that was dropped by a
    /// [`crate::kv::PreemptPolicy::Recompute`] preemption: re-runs the
    /// causal prefill over everything fed so far (prompt plus all but
    /// the last sampled token) on a *clone* of the session's engine, so
    /// the session's own noise stream is untouched. Returns the recorded
    /// recompute trace (real work — the scheduler costs it).
    ///
    /// Exact for deterministic backends; a noisy engine re-rolls the
    /// cached values (which is why the swap-out policy is the default).
    ///
    /// A session preempted *mid-prefill* (chunked prefill) recomputes
    /// only the chunks fed so far, without the LM head (the first token
    /// has not been sampled yet); chunking then continues from where it
    /// stopped. Either way the recompute is one
    /// [`DecoderLm::prefill_chunk`] pass.
    ///
    /// # Panics
    ///
    /// Panics if the session has fed nothing yet, or its cache is not
    /// empty (recompute resumes a dropped cache).
    pub fn resume_by_recompute(&mut self, model: &DecoderLm) -> Trace {
        assert!(self.prefill_fed > 0, "recompute before any prefill chunk");
        let done = self.prefill_done();
        let mut fed = self.prompt[..self.prefill_fed].to_vec();
        if done {
            fed.extend_from_slice(&self.tokens[..self.tokens.len() - 1]);
        }
        let quant = self.quant;
        let mut engine = self.engine.clone();
        let cache = &mut self.cache;
        assert!(cache.is_empty(), "recompute expects a dropped cache");
        let mut ctx = ForwardCtx::inference(&mut engine, quant).recording();
        let h = model.prefill_chunk(&fed, cache, &mut ctx);
        if done {
            model.logits_at_last(&h, &mut ctx);
        }
        ctx.take_trace().coalesce()
    }

    /// Whether all `max_new_tokens` have been generated.
    pub fn is_done(&self) -> bool {
        self.tokens.len() >= self.max_new_tokens
    }

    /// Runs the causal prompt pass: one
    /// [`DecodeSession::prefill_partial`] over the whole prompt, which
    /// fills the KV cache, samples the first token, and costs the
    /// recorded trace on `sim`. Returns the coalesced prefill trace (for
    /// schedulers that aggregate tick traffic).
    ///
    /// # Panics
    ///
    /// Panics if the prefill already finished.
    pub fn prefill(&mut self, model: &DecoderLm, sim: &Simulator) -> Trace {
        self.prefill_partial(model, sim, self.prompt.len())
    }

    /// Whether the prefill (whole or chunked) has completed and the
    /// first token has been sampled.
    pub fn prefill_done(&self) -> bool {
        self.prefill_fed == self.prompt.len()
    }

    /// Prompt tokens not yet prefilled (the whole prompt before any
    /// prefill ran; zero once [`DecodeSession::prefill_done`]).
    pub fn prefill_remaining(&self) -> usize {
        self.prompt.len() - self.prefill_fed
    }

    /// Feeds the next chunk of up to `chunk_tokens` prompt tokens —
    /// the unit of *chunked prefill*, letting a scheduler interleave a
    /// long prompt with decode steps of running sessions instead of
    /// stalling them for the whole prompt pass. On the final chunk the
    /// first token is sampled; the session's prefill cost is the merged
    /// cost of every chunk. Until then [`DecodeSession::prefill_done`]
    /// stays false. Returns the chunk's coalesced trace.
    ///
    /// For deterministic backends without per-tensor fake quantization
    /// the sampled tokens are bit-identical in any chunking; the *cost*
    /// legitimately differs (smaller GEMMs plus prior-context KV
    /// re-reads).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens` is zero or the prefill already finished.
    pub fn prefill_partial(
        &mut self,
        model: &DecoderLm,
        sim: &Simulator,
        chunk_tokens: usize,
    ) -> Trace {
        assert!(chunk_tokens > 0, "chunk must hold at least one token");
        assert!(!self.prefill_done(), "prefill already ran");
        let prompt = std::mem::take(&mut self.prompt);
        let end = (self.prefill_fed + chunk_tokens).min(prompt.len());
        let chunk = &prompt[self.prefill_fed..end];
        let is_final = end == prompt.len();
        let (out, trace) = self.recorded_pass(model, |model, ctx, cache| {
            let h = model.prefill_chunk(chunk, cache, ctx);
            if is_final {
                model.logits_at_last(&h, ctx)
            } else {
                h
            }
        });
        self.prompt = prompt;
        self.prefill_fed = end;
        let cost = sim.run_trace(&trace);
        match &mut self.prefill_cost {
            Some(acc) => acc.merge(&cost),
            None => self.prefill_cost = Some(cost),
        }
        if is_final {
            self.tokens.push(greedy(&out));
        }
        trace
    }

    /// Runs one decode step (feeding the last sampled token), samples
    /// the next token, and appends the step's replayed cost. Returns the
    /// coalesced step trace.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DecodeSession::prefill`] or after the
    /// session [`DecodeSession::is_done`].
    pub fn step(&mut self, model: &DecoderLm, sim: &Simulator) -> Trace {
        assert!(self.prefill_done(), "step before prefill");
        assert!(!self.is_done(), "session already finished");
        let last = *self.tokens.last().expect("prefill sampled a token");
        let (logits, trace) = self.recorded_pass(model, |model, ctx, cache| {
            model.decode_step(last, cache, ctx)
        });
        self.step_costs.push(sim.run_trace(&trace));
        self.tokens.push(greedy(&logits));
        trace
    }

    /// One *speculative* decode step: the draft proposes up to `k`
    /// tokens, the target verifies them all (plus the bonus position)
    /// in one batched `[k_eff + 1, d]` pass, and `accepted + 1` tokens
    /// are emitted.
    ///
    /// The emitted stream is bit-identical to plain
    /// [`DecodeSession::step`] decoding for any `k`, on any backend —
    /// the pinned lossless-greedy contract. The tokens come from
    /// per-position target steps replayed on the session's own engine
    /// (the identical call sequence — hence identical noise stream — as
    /// non-speculative decoding), stopping at the first token that
    /// disagrees with the draft; only those positions reach the cache.
    ///
    /// The batched verify pass is what speculative hardware executes
    /// and what the step is charged for, but the host does not run it:
    /// its trace is built from its shape
    /// ([`DecoderConfig::verify_trace`]), which this module's tests pin
    /// op for op against what [`DecoderLm::verify_step`] records. On
    /// exact backends that pass's rows equal the replayed steps' bit
    /// for bit (`verify_step_rows_match_successive_decode_steps`), so
    /// the charged pass yields the committed tokens; on noisy backends
    /// the replay defines them. The copy-on-write the pass's first append
    /// would pay on a shared tail block
    /// ([`PagedKvCache::tail_cow_elems`]) is charged to the verify
    /// trace; the first replayed step's own append makes and records
    /// it, as plain decoding's first step does, so a reply's per-token
    /// costs equal plain decoding's for any `k`.
    ///
    /// `k` clamps to `min(k, remaining - 1)` near the end of the
    /// request so the session never over-generates; at zero this falls
    /// back to one plain step (costed as such).
    ///
    /// Call with the same `draft` every step; the draft's KV cache and
    /// engine persist inside the session, its noise stream seeded from
    /// `(seed, ticket)` only, so speculation is deterministic under any
    /// scheduling.
    ///
    /// # Panics
    ///
    /// Panics if called before the prefill finished or after the
    /// session [`DecodeSession::is_done`].
    pub fn spec_step(
        &mut self,
        model: &DecoderLm,
        draft: &DecoderLm,
        sim: &Simulator,
        k: usize,
    ) -> SpecStepReport {
        assert!(self.prefill_done(), "spec_step before prefill");
        assert!(!self.is_done(), "session already finished");
        let remaining = self.max_new_tokens - self.tokens.len();
        let k_eff = k.min(remaining - 1);
        if k_eff == 0 {
            let verify_trace = self.step(model, sim);
            let verify_cost = *self.step_costs.last().expect("step recorded its cost");
            return SpecStepReport {
                outcome: SpecOutcome {
                    accepted: 0,
                    bonus_token: *self.tokens.last().expect("step sampled a token"),
                    rollback: 0,
                },
                draft_trace: Trace::new(),
                verify_trace,
                draft_cost: RunReport::default(),
                verify_cost,
            };
        }

        // --- Draft: propose k_eff tokens on the draft's own stream.
        if self.spec.is_none() {
            self.spec = Some(SpecState {
                engine: BackendEngine::new(
                    self.engine.backend().clone(),
                    split_seed(self.seed ^ DRAFT_SEED_SALT, self.ticket),
                ),
                cache: draft.empty_cache(),
            });
        }
        // The draft cache must hold everything committed but the last
        // token (which the first draft step feeds). After the first
        // catch-up this is maintained incrementally by the truncate at
        // the end of every spec step, so the chunk is usually empty.
        let synced = self.prompt.len() + self.tokens.len() - 1;
        let last = *self.tokens.last().expect("prefill sampled a token");
        let (drafts, draft_trace) = {
            let spec = self.spec.as_mut().expect("just initialized");
            let mut ctx = ForwardCtx::inference(&mut spec.engine, self.quant).recording();
            if spec.cache.len() < synced {
                let seq: Vec<usize> = self
                    .prompt
                    .iter()
                    .chain(&self.tokens)
                    .copied()
                    .take(synced)
                    .collect();
                draft.prefill_chunk(&seq[spec.cache.len()..], &mut spec.cache, &mut ctx);
            }
            let mut cur = last;
            let mut drafts = Vec::with_capacity(k_eff);
            for _ in 0..k_eff {
                let logits = draft.decode_step(cur, &mut spec.cache, &mut ctx);
                cur = greedy(&logits);
                drafts.push(cur);
            }
            (drafts, ctx.take_trace().coalesce())
        };

        // --- Verify, costed from its shape: one batched pass over the
        // last committed token and the k_eff proposals. Executing it
        // would repeat the replay below (on exact backends its rows are
        // the replayed steps' bit for bit), so it is not run.
        let base = self.cache.len();
        let cow_elems = self.cache.tail_cow_elems();
        let verify_trace = model.config().verify_trace(k_eff + 1, base, cow_elems);

        // --- Commit: per-position target steps on the session's own
        // engine, stopping at the first token that disagrees with the
        // draft (that token is the correction) or after the bonus
        // position when every proposal agreed.
        let mut accepted = 0;
        let mut emitted = 0;
        let bonus_token = loop {
            let fed = *self.tokens.last().expect("stream is non-empty");
            let (logits, trace) = self.recorded_pass(model, |model, ctx, cache| {
                model.decode_step(fed, cache, ctx)
            });
            // Per-token cost attribution stays the batch-1 replay of the
            // authoritative step — equal to plain decoding's, so a
            // reply's `steps` do not depend on `k`. The speculative
            // execution's own cost is itemized in the returned report.
            self.step_costs.push(sim.run_trace(&trace));
            let token = greedy(&logits);
            self.tokens.push(token);
            emitted += 1;
            if emitted <= k_eff && token == drafts[emitted - 1] {
                accepted += 1;
                continue;
            }
            break token;
        };

        // Keep the agreeing prefix of the draft's speculated rows, drop
        // the rest (rollback of the draft's private cache). The
        // kept rows are exactly the committed tokens, so the draft is
        // already synced for the next step.
        let spec = self.spec.as_mut().expect("spec state exists");
        spec.cache.truncate(synced + emitted);

        let draft_cost = sim.run_trace(&draft_trace);
        let verify_cost = sim.run_trace(&verify_trace);
        SpecStepReport {
            outcome: SpecOutcome {
                accepted,
                bonus_token,
                rollback: k_eff - accepted,
            },
            draft_trace,
            verify_trace,
            draft_cost,
            verify_cost,
        }
    }

    /// Runs one recorded forward pass and returns its logits and
    /// coalesced trace.
    fn recorded_pass(
        &mut self,
        model: &DecoderLm,
        pass: impl FnOnce(&DecoderLm, &mut ForwardCtx<'_>, &mut PagedKvCache) -> Tensor,
    ) -> (Tensor, Trace) {
        let mut ctx = ForwardCtx::inference(&mut self.engine, self.quant).recording();
        let logits = pass(model, &mut ctx, &mut self.cache);
        (logits, ctx.take_trace().coalesce())
    }

    /// Consumes the session into its reply.
    ///
    /// # Panics
    ///
    /// Panics if the session has not finished.
    pub fn into_reply(self) -> DecodeReply {
        assert!(self.is_done(), "session not finished");
        DecodeReply {
            kv_cache_bytes: self.cache.bytes(self.kv_bits),
            prompt: self.prompt,
            tokens: self.tokens,
            prefill: self.prefill_cost.expect("prefill ran"),
            steps: self.step_costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{BlockPool, PrefixIndex};
    use lt_arch::ArchConfig;
    use lt_core::{NativeBackend, Op};
    use lt_dptc::DptcBackend;

    fn model() -> DecoderLm {
        let mut rng = GaussianSampler::new(9);
        DecoderLm::new(DecoderConfig::tiny(), &mut rng)
    }

    fn run_session(seed: u64, prompt: Vec<usize>, n: usize) -> DecodeReply {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            3,
            prompt,
            n,
            DptcBackend::paper(8, 5),
            SessionConfig {
                seed,
                ..SessionConfig::default()
            },
        );
        s.prefill(&m, &sim);
        while !s.is_done() {
            s.step(&m, &sim);
        }
        s.into_reply()
    }

    #[test]
    fn decode_generates_the_requested_tokens_with_per_token_costs() {
        let reply = run_session(1, vec![1, 2, 3, 4], 5);
        assert_eq!(reply.tokens.len(), 5);
        assert!(reply.tokens.iter().all(|&t| t < 16), "tokens in vocab");
        assert_eq!(reply.steps.len(), 4, "one step per token after prefill");
        assert!(reply.prefill.cycles > 0);
        for step in &reply.steps {
            assert!(step.cycles > 0, "every token carries replayed cycles");
            assert!(step.energy.total().value() > 0.0);
            assert!(step.energy.digital.value() > 0.0, "KV/softmax traffic");
        }
        // Context grows every step, so later steps can never get cheaper
        // in cycles than the first (monotone attention context).
        assert!(reply.steps.last().unwrap().cycles >= reply.steps[0].cycles);
        // 4 prompt + 5 generated - 1 unfed final token = 8 cached.
        assert_eq!(reply.kv_cache_bytes, 2 * 2 * 8 * 32 * 8 / 8);
        assert_eq!(
            reply.total().cycles,
            reply.prefill.cycles + reply.decode_cycles()
        );
    }

    #[test]
    fn replies_itemize_why_the_tokens_took_their_cycles() {
        let reply = run_session(2, vec![1, 2, 3, 4], 4);
        // Every window is fully accounted: compute + bandwidth + fill.
        for r in std::iter::once(&reply.prefill).chain(&reply.steps) {
            let total = r.stalls.total().value();
            assert!(
                (total - r.latency.value()).abs() <= 1e-9 * total.max(1e-12),
                "stall slices must partition the window"
            );
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        }
        let decode = reply.decode_total();
        assert_eq!(decode.cycles, reply.decode_cycles());
        assert_eq!(decode.stalls, reply.decode_stalls());
        assert_eq!(decode.utilization, reply.decode_utilization());
        // The tiny validation decoder keeps its weights tiny, so the
        // per-token regime stays classifiable either way — but the
        // numbers must be present and self-consistent.
        assert!(reply.decode_stalls().total().value() > 0.0);
    }

    #[test]
    fn same_seed_is_bit_identical_and_different_seeds_diverge_in_cost_free_ways() {
        let a = run_session(7, vec![1, 2, 3], 4);
        let b = run_session(7, vec![1, 2, 3], 4);
        assert_eq!(a, b, "same seed: identical tokens and costs");
        let c = run_session(8, vec![1, 2, 3], 4);
        // Different noise realization may change tokens, but the trace
        // geometry (hence the cost) depends only on shapes.
        assert_eq!(a.prefill, c.prefill, "cost is a function of shape");
        assert_eq!(a.steps, c.steps);
    }

    #[test]
    fn recorded_step_trace_has_matrix_vector_attention_shapes() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            0,
            vec![1, 2, 3, 4, 5],
            2,
            NativeBackend,
            SessionConfig::default(),
        );
        s.prefill(&m, &sim);
        let trace = s.step(&m, &sim);
        // The step attends over 6 cached tokens (5 prompt + 1 new).
        let cfg = m.config();
        let dh = cfg.dim / cfg.heads;
        let expect_qk = Op::gemm_n(OpKind::AttnQk, 1, dh, 6, cfg.heads * cfg.layers);
        let expect_av = Op::gemm_n(OpKind::AttnAv, 1, 6, dh, cfg.heads * cfg.layers);
        assert!(trace.ops().contains(&expect_qk), "{:?}", trace.ops());
        assert!(trace.ops().contains(&expect_av), "{:?}", trace.ops());
        assert!(trace.ops().contains(&Op::gemm_n(
            OpKind::QkvProj,
            1,
            cfg.dim,
            cfg.dim,
            3 * cfg.layers
        )));
        assert!(trace
            .ops()
            .contains(&Op::gemm(OpKind::LmHead, 1, cfg.dim, cfg.vocab)));
        let kv: u64 = trace
            .ops()
            .iter()
            .filter_map(|op| match *op {
                Op::NonGemm {
                    kind: NonGemmKind::KvAppend,
                    elems,
                } => Some(elems),
                _ => None,
            })
            .sum();
        assert_eq!(kv, 2 * (cfg.dim as u64) * cfg.layers as u64);
    }

    #[test]
    fn recorded_prefill_trace_has_full_prompt_shapes() {
        // Pins prefill's recorded ops so the causal prompt pass cannot
        // silently drift from the encoder-style attention recording
        // (the cache pass re-implements the forward loop with masking +
        // cache filling; this test names any divergence).
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            0,
            vec![1, 2, 3, 4, 5],
            2,
            NativeBackend,
            SessionConfig::default(),
        );
        let trace = s.prefill(&m, &sim);
        let cfg = m.config();
        let (t, dh) = (5, cfg.dim / cfg.heads);
        let per_heads = cfg.heads * cfg.layers;
        for expect in [
            Op::gemm_n(OpKind::QkvProj, t, cfg.dim, cfg.dim, 3 * cfg.layers),
            Op::gemm_n(OpKind::AttnQk, t, dh, t, per_heads),
            Op::gemm_n(OpKind::AttnAv, t, t, dh, per_heads),
            Op::gemm_n(OpKind::OutProj, t, cfg.dim, cfg.dim, cfg.layers),
            Op::gemm_n(OpKind::Ffn1, t, cfg.dim, cfg.ffn_dim, cfg.layers),
            Op::gemm_n(OpKind::Ffn2, t, cfg.ffn_dim, cfg.dim, cfg.layers),
            Op::gemm(OpKind::LmHead, 1, cfg.dim, cfg.vocab),
            Op::non_gemm(NonGemmKind::Softmax, (t * t * per_heads) as u64),
            Op::non_gemm(NonGemmKind::KvAppend, 2 * (t * cfg.dim * cfg.layers) as u64),
        ] {
            assert!(
                trace.ops().contains(&expect),
                "missing {expect:?} in {:?}",
                trace.ops()
            );
        }
    }

    #[test]
    fn prefill_matches_step_by_step_decoding() {
        // Decoding with a cache must equal recomputing from scratch: the
        // logits after prefill(p) + k steps equal prefill(p ++ generated[..k])
        // on a fresh cache (causality makes the suffix irrelevant).
        let m = model();
        let quant = QuantConfig::fp32();
        let mut eng = crate::engine::ExactEngine;
        let prompt = vec![3usize, 1, 4, 1, 5];

        let mut cache = m.empty_cache();
        let mut ctx = ForwardCtx::inference(&mut eng, quant);
        let l0 = m.prefill(&prompt, &mut cache, &mut ctx);
        let t0 = greedy(&l0);
        let l1 = m.decode_step(t0, &mut cache, &mut ctx);

        let mut full = prompt.clone();
        full.push(t0);
        let mut fresh = m.empty_cache();
        let mut ctx2 = ForwardCtx::inference(&mut eng, quant);
        let l1_scratch = m.prefill(&full, &mut fresh, &mut ctx2);
        assert!(
            l1.max_abs_diff(&l1_scratch) < 1e-4,
            "incremental vs from-scratch logits diverged: {}",
            l1.max_abs_diff(&l1_scratch)
        );
    }

    #[test]
    fn recording_changes_no_logit_and_no_noise_draw() {
        // Recording is pure observability: the same passes with and
        // without a trace return equal logits and leave the engines at
        // the same point of their noise streams.
        let m = model();
        let quant = QuantConfig::fp32();
        let mut runs = Vec::new();
        for record in [true, false] {
            let mut engine = BackendEngine::new(DptcBackend::paper(8, 3), 4);
            let mut ctx = ForwardCtx::inference(&mut engine, quant);
            if record {
                ctx = ctx.recording();
            }
            let mut cache = m.empty_cache();
            let mut logits = vec![m.prefill(&[3, 1, 4, 1, 5], &mut cache, &mut ctx)];
            for _ in 0..2 {
                let next = greedy(logits.last().expect("prefill logits"));
                logits.push(m.decode_step(next, &mut cache, &mut ctx));
            }
            let trace = ctx.take_trace();
            assert_eq!(trace.is_empty(), !record, "record {record}");
            runs.push((logits, engine.seed_draws()));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn chunked_prefill_is_bit_identical_to_whole_prompt_prefill() {
        // The chunked-prefill contract: for a deterministic backend at
        // fp32, feeding the prompt in any chunking yields the same
        // first token, the same subsequent stream, and the same KV
        // footprint as the one-shot prefill — bit for bit.
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let prompt: Vec<usize> = (0..17).map(|i| (i * 5 + 2) % 16).collect();
        let run = |chunk: Option<usize>| {
            let mut s = DecodeSession::new(
                &m,
                11,
                prompt.clone(),
                6,
                NativeBackend,
                SessionConfig::default(),
            );
            match chunk {
                None => {
                    s.prefill(&m, &sim);
                }
                Some(c) => {
                    assert_eq!(s.prefill_remaining(), prompt.len());
                    while !s.prefill_done() {
                        s.prefill_partial(&m, &sim, c);
                    }
                    assert_eq!(s.prefill_remaining(), 0);
                }
            }
            while !s.is_done() {
                s.step(&m, &sim);
            }
            s.into_reply()
        };
        let whole = run(None);
        for chunk in [1, 3, 4, 16, 17, 64] {
            let chunked = run(Some(chunk));
            assert_eq!(chunked.tokens, whole.tokens, "chunk {chunk}: tokens");
            assert_eq!(chunked.steps, whole.steps, "chunk {chunk}: step costs");
            assert_eq!(
                chunked.kv_cache_bytes, whole.kv_cache_bytes,
                "chunk {chunk}: KV footprint"
            );
        }
        // A chunk >= the prompt records the same trace as the one-shot
        // path bar the KvRead of prior context (there is none), so even
        // the prefill cost agrees.
        assert_eq!(run(Some(64)).prefill, whole.prefill);
    }

    #[test]
    fn chunked_prefill_cost_is_the_sum_of_its_chunks() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            0,
            vec![1, 2, 3, 4, 5, 6, 7],
            2,
            NativeBackend,
            SessionConfig::default(),
        );
        let mut chunk_costs = RunReport::default();
        while !s.prefill_done() {
            let trace = s.prefill_partial(&m, &sim, 3);
            chunk_costs.merge(&sim.run_trace(&trace));
            assert!(s.tokens().len() <= 1, "no token before the final chunk");
        }
        let reply = {
            while !s.is_done() {
                s.step(&m, &sim);
            }
            s.into_reply()
        };
        assert_eq!(reply.prefill, chunk_costs, "prefill cost = sum of chunks");
        assert!(reply.prefill.cycles > 0);
    }

    #[test]
    fn analytic_prefill_trace_costs_exactly_like_the_recorded_pass() {
        // The admission controller's deadline check rests on this:
        // DecoderConfig::prefill_trace(t) replayed through the simulator
        // equals the real unchunked prefill cost of any t-token prompt.
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        for t in [1usize, 2, 5, 13, 40] {
            let mut s = DecodeSession::new(
                &m,
                0,
                (0..t).map(|i| i % 16).collect(),
                1,
                NativeBackend,
                SessionConfig::default(),
            );
            let recorded = s.prefill(&m, &sim);
            let analytic = m.config().prefill_trace(t);
            assert_eq!(
                analytic.ops(),
                recorded.ops(),
                "analytic trace must match the recorded coalesced ops at t={t}"
            );
            assert_eq!(sim.run_trace(&analytic), sim.run_trace(&recorded));
        }
    }

    /// Records [`DecoderLm::verify_step`] over `rows` positions on
    /// `cache`, rolls the rows back, and checks the recorded trace
    /// against [`DecoderConfig::verify_trace`], op for op and replayed.
    fn assert_verify_trace_matches(
        m: &DecoderLm,
        sim: &Simulator,
        cache: &mut PagedKvCache,
        quant: QuantConfig,
        rows: usize,
        cow_elems: u64,
    ) {
        let prior = cache.len();
        let mut eng = crate::engine::ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, quant).recording();
        let tokens: Vec<usize> = (0..rows).map(|i| (prior + 3 * i) % 16).collect();
        m.verify_step(&tokens, cache, &mut ctx);
        let recorded = ctx.take_trace().coalesce();
        cache.truncate(prior);
        let analytic = m.config().verify_trace(rows, prior, cow_elems);
        assert_eq!(
            recorded.ops(),
            analytic.ops(),
            "{quant:?}: rows {rows}, prior {prior}, cow {cow_elems}"
        );
        assert_eq!(sim.run_trace(&recorded), sim.run_trace(&analytic));
    }

    #[test]
    fn analytic_verify_trace_costs_exactly_like_the_recorded_pass() {
        // spec_step charges DecoderConfig::verify_trace for a pass it
        // never runs, so the trace must be exactly what verify_step
        // records: 1..=9 rows against every legal prior, on the private
        // one-block cache (fp32 and int8) and on shared pools of 1-, 3-,
        // 4- and 16-token blocks.
        let m = model();
        let cfg = m.config();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut eng = crate::engine::ExactEngine;
        let caches = [
            (None, QuantConfig::fp32()),
            (None, QuantConfig::int8()),
            (Some(1), QuantConfig::fp32()),
            (Some(3), QuantConfig::fp32()),
            (Some(4), QuantConfig::fp32()),
            (Some(16), QuantConfig::fp32()),
        ];
        for (block_tokens, quant) in caches {
            for rows in 1..=9 {
                let mut cache = match block_tokens {
                    None => m.empty_cache(),
                    Some(bt) => {
                        PagedKvCache::new(&BlockPool::new(cfg.max_seq + 1, cfg.layers, cfg.dim, bt))
                    }
                };
                let mut ctx = ForwardCtx::inference(&mut eng, quant);
                m.prefill(&[1], &mut cache, &mut ctx);
                for prior in 1..=cfg.max_seq - rows {
                    assert_verify_trace_matches(&m, &sim, &mut cache, quant, rows, 0);
                    let mut ctx = ForwardCtx::inference(&mut eng, quant);
                    m.decode_step(prior % 16, &mut cache, &mut ctx);
                }
            }
        }

        // A borrower of a 6-token prompt shares its partial second
        // 4-token block, so the pass's first append copies that block,
        // and tail_cow_elems says so beforehand.
        let pool = BlockPool::new(32, cfg.layers, cfg.dim, 4);
        let prompt = [3, 1, 4, 1, 5, 9];
        let quant = QuantConfig::fp32();
        let mut owner = PagedKvCache::new(&pool);
        m.prefill(
            &prompt,
            &mut owner,
            &mut ForwardCtx::inference(&mut eng, quant),
        );
        let mut index = PrefixIndex::new();
        index.register(&pool, &prompt, owner.block_refs(prompt.len()));
        let cow = 2 * pool.block_elems();
        for rows in 1..=9 {
            let prefix = index.lookup(&pool, &prompt).expect("owner is live");
            let mut cache = PagedKvCache::with_shared_prefix(&pool, prefix);
            m.prefill(
                &prompt,
                &mut cache,
                &mut ForwardCtx::inference(&mut eng, quant),
            );
            assert_eq!(cache.tail_cow_elems(), cow, "rows {rows}");
            assert_verify_trace_matches(&m, &sim, &mut cache, quant, rows, cow);
        }
    }

    fn spec_session(
        seed: u64,
        prompt: Vec<usize>,
        n: usize,
        k: usize,
    ) -> (DecodeReply, SpecSessionStats) {
        let m = model();
        let draft = m.draft();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            3,
            prompt,
            n,
            DptcBackend::paper(8, 5),
            SessionConfig {
                seed,
                ..SessionConfig::default()
            },
        );
        s.prefill(&m, &sim);
        let mut stats = SpecSessionStats::default();
        while !s.is_done() {
            stats.merge(&s.spec_step(&m, &draft, &sim, k).stats_delta());
        }
        (s.into_reply(), stats)
    }

    #[test]
    fn speculative_stream_is_bit_identical_to_plain_decoding_on_a_noisy_backend() {
        // The pinned lossless contract: greedy speculation emits the
        // same tokens as plain greedy decoding for every k, even on the
        // stochastic DPTC backend, and leaves the same KV footprint.
        for seed in [1, 7] {
            let base = run_session(seed, vec![1, 2, 3, 4], 9);
            for k in [1, 2, 4, 8] {
                let (reply, stats) = spec_session(seed, vec![1, 2, 3, 4], 9, k);
                assert_eq!(reply.tokens, base.tokens, "seed {seed} k {k}: tokens");
                assert_eq!(
                    reply.kv_cache_bytes, base.kv_cache_bytes,
                    "seed {seed} k {k}: KV footprint"
                );
                // One token per emission, every step accounted.
                assert_eq!(stats.emitted as usize, reply.tokens.len() - 1);
                assert!(stats.accepted <= stats.proposed);
                assert_eq!(stats.rolled_back, stats.proposed - stats.accepted);
                assert!(stats.verify_cycles > 0);
            }
        }
    }

    #[test]
    fn the_self_speculative_draft_earns_its_keep_on_a_tapered_model() {
        // On a depth-tapered model (the trained-LM refinement stand-in,
        // see `taper_deep_blocks`) the weight-shared half-depth draft
        // must agree with the target often enough for speculation to
        // pay — and its cycles must be itemized, not hidden.
        let mut rng = GaussianSampler::new(9);
        let mut m = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
        m.taper_deep_blocks(0.25);
        let draft = m.draft();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut s = DecodeSession::new(
            &m,
            3,
            vec![1, 2, 3, 4],
            30,
            NativeBackend,
            SessionConfig::default(),
        );
        s.prefill(&m, &sim);
        let mut stats = SpecSessionStats::default();
        while !s.is_done() {
            stats.merge(&s.spec_step(&m, &draft, &sim, 4).stats_delta());
        }
        assert!(stats.proposed > 0);
        assert!(
            stats.acceptance_rate() > 0.25,
            "draft agreement too low to speculate: {}",
            stats.acceptance_rate()
        );
        assert!(stats.draft_cycles > 0, "draft overhead is accounted");
        assert!(stats.verify_cycles > 0);
    }

    #[test]
    fn verify_step_rows_match_successive_decode_steps() {
        // One batched verify pass produces the same per-position logits
        // and cached K/V as the same positions fed as successive
        // matrix-vector decode steps — row independence under the causal
        // mask. Within 1e-5 on ExactEngine; bit for bit on the serving
        // engine (BackendEngine<NativeBackend>), in the tiny, tapered
        // tiny and serve_open geometries. The bit equality is what makes
        // the verify pass spec_step charges without running yield the
        // tokens its replay commits on exact backends.
        let serve_open = DecoderConfig {
            dim: 128,
            layers: 2,
            heads: 4,
            ffn_dim: 256,
            vocab: 64,
            max_seq: 32,
        };
        let mut tapered = model();
        tapered.taper_deep_blocks(0.25);
        let models = [
            ("tiny", model()),
            ("tapered tiny", tapered),
            (
                "serve_open",
                DecoderLm::new(serve_open, &mut GaussianSampler::new(3)),
            ),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (label, m) in &models {
            let vocab = m.config().vocab;
            for prompt_len in [1usize, 5, 13] {
                let prompt: Vec<usize> = (0..prompt_len).map(|i| (i * 7 + 2) % vocab).collect();
                for rows in 1..=5 {
                    let toks: Vec<usize> = (0..rows).map(|i| (i * 5 + 1) % vocab).collect();
                    let mut exact = crate::engine::ExactEngine;
                    let mut serving = BackendEngine::new(NativeBackend, 1);
                    for (bit_exact, engine) in [
                        (false, &mut exact as &mut dyn crate::engine::MatmulEngine),
                        (true, &mut serving),
                    ] {
                        let mut ctx = ForwardCtx::inference(engine, QuantConfig::fp32());
                        let mut batched_cache = m.empty_cache();
                        m.prefill(&prompt, &mut batched_cache, &mut ctx);
                        let batched = m.verify_step(&toks, &mut batched_cache, &mut ctx);
                        assert_eq!(batched.shape(), (rows, vocab));
                        let mut stepped_cache = m.empty_cache();
                        m.prefill(&prompt, &mut stepped_cache, &mut ctx);
                        let at = format!("{label}: prompt {prompt_len}, rows {rows}");
                        for (i, &t) in toks.iter().enumerate() {
                            let row = m.decode_step(t, &mut stepped_cache, &mut ctx);
                            let verified = Tensor::from_fn(1, vocab, |_, j| batched.get(i, j));
                            if bit_exact {
                                assert_eq!(bits(&row), bits(&verified), "{at}: logit row {i}");
                            } else {
                                let diff = row.max_abs_diff(&verified);
                                assert!(diff < 1e-5, "{at}: row {i} diverged by {diff}");
                            }
                        }
                        assert_eq!(batched_cache.len(), stepped_cache.len());
                        if bit_exact {
                            for l in 0..m.config().layers {
                                let (ka, va) = batched_cache.layer_mut(l).context();
                                let (kb, vb) = stepped_cache.layer_mut(l).context();
                                assert_eq!(bits(&ka), bits(&kb), "{at}: layer {l} K");
                                assert_eq!(bits(&va), bits(&vb), "{at}: layer {l} V");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Prefills twin engines from `make` to each of a few contexts, then
    /// feeds one token as a [`DecoderLm::decode_step`] on one twin and a
    /// one-row [`DecoderLm::verify_step`] on the other. Asserts equal
    /// logits bit for bit, equal seed draws, and coalesced traces that
    /// differ only in `KvRead`, by the step's own row in every layer.
    fn assert_step_is_a_one_row_verify<B: ComputeBackend + Clone>(
        m: &DecoderLm,
        make: impl Fn() -> BackendEngine<B>,
    ) {
        let cfg = m.config();
        let own_row = 2 * (cfg.dim * cfg.layers) as u64;
        for context in [1usize, 2, 7, 31] {
            let prompt: Vec<usize> = (0..context).map(|i| (i * 7 + 2) % cfg.vocab).collect();
            let token = (context * 5 + 1) % cfg.vocab;
            let mut runs = Vec::new();
            for one_row_verify in [false, true] {
                let mut engine = make();
                let mut cache = m.empty_cache();
                let (logits, trace) = {
                    let mut ctx = ForwardCtx::inference(&mut engine, QuantConfig::fp32());
                    m.prefill(&prompt, &mut cache, &mut ctx);
                    let mut ctx = ctx.recording();
                    let logits = if one_row_verify {
                        m.verify_step(&[token], &mut cache, &mut ctx)
                    } else {
                        m.decode_step(token, &mut cache, &mut ctx)
                    };
                    (logits, ctx.take_trace().coalesce())
                };
                let bits: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
                runs.push((bits, engine.seed_draws(), trace));
            }
            let (step, verify) = (&runs[0], &runs[1]);
            assert_eq!(step.0, verify.0, "context {context}: logits");
            assert_eq!(step.1, verify.1, "context {context}: seed draws");
            let expect: Vec<Op> = verify
                .2
                .ops()
                .iter()
                .map(|&op| match op {
                    Op::NonGemm {
                        kind: NonGemmKind::KvRead,
                        elems,
                    } => Op::non_gemm(NonGemmKind::KvRead, elems + own_row),
                    op => op,
                })
                .collect();
            assert_eq!(step.2.ops(), &expect[..], "context {context}: traces");
        }
    }

    #[test]
    fn a_decode_step_is_a_one_row_verify_pass_plus_its_own_row_read() {
        // The decode path runs one cache pass: a decode step is a one-row
        // verify pass (the same projections, append and attention over
        // the prior context), plus the read of its own new K/V row that
        // DecoderLm::decode_step charges. On the exact and the noisy
        // backend alike.
        let m = model();
        assert_step_is_a_one_row_verify(&m, || BackendEngine::new(NativeBackend, 1));
        assert_step_is_a_one_row_verify(&m, || BackendEngine::new(DptcBackend::paper(8, 3), 2));
    }

    #[test]
    fn spec_rollback_restores_the_private_cache_bit_exactly() {
        let m = model();
        let quant = QuantConfig::fp32();
        let mut eng = crate::engine::ExactEngine;
        let mut cache = m.empty_cache();
        let mut ctx = ForwardCtx::inference(&mut eng, quant);
        let contexts = |cache: &mut PagedKvCache| -> Vec<(Tensor, Tensor)> {
            (0..m.config().layers)
                .map(|l| cache.layer_mut(l).context())
                .collect()
        };
        m.prefill(&[1, 2, 3], &mut cache, &mut ctx);
        let before = contexts(&mut cache);
        m.verify_step(&[4, 5, 6], &mut cache, &mut ctx);
        assert_eq!(cache.len(), 6);
        cache.truncate(3);
        assert_eq!(contexts(&mut cache), before, "rollback must be bit-exact");
    }

    #[test]
    fn draft_geometry_halves_the_stack_and_shares_the_token_space() {
        let cfg = DecoderConfig::tiny();
        let d = cfg.draft();
        assert_eq!(d.layers, 1);
        assert_eq!((d.dim, d.heads, d.vocab, d.max_seq), (32, 4, 16, 48));
        // Depth-1 configs cannot shrink to zero layers.
        assert_eq!(d.draft().layers, 1);
        let m = model();
        let draft = m.draft();
        assert_eq!(draft.config().layers, 1);
        assert_eq!(draft.config().vocab, m.config().vocab);
    }

    #[test]
    fn greedy_is_argmax_with_lowest_index_ties() {
        let l = Tensor::from_vec(1, 4, vec![0.1, 0.9, 0.9, 0.2]);
        assert_eq!(greedy(&l), 1);
        let l = Tensor::from_vec(1, 3, vec![-1.0, -2.0, -0.5]);
        assert_eq!(greedy(&l), 2);
    }

    #[test]
    #[should_panic(expected = "overflows max_seq")]
    fn context_overflow_rejected_at_session_creation() {
        let m = model();
        let _ = DecodeSession::new(
            &m,
            0,
            vec![0; 40],
            20,
            NativeBackend,
            SessionConfig::default(),
        );
    }
}
