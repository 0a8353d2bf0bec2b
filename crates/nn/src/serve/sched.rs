//! Memory-pressure-aware decode scheduling over the paged KV pool: the
//! policy layer between the continuous-batching server and
//! [`crate::kv`]'s mechanism.
//!
//! [`KvScheduler`] owns one worker's [`BlockPool`] and decides, between
//! token ticks, which sessions are *resident*. Each [`KvScheduler::tick`]
//! runs four phases:
//!
//! 1. **Resume** — paused (preempted) sessions come back first, in
//!    ticket order, as soon as the pool can hold their blocks again; a
//!    recompute resume's re-prefill is charged as this tick's prefill.
//! 2. **Admit** — backlog requests enter strictly FIFO while the pool
//!    has room for their prompt (`ceil(prompt/block_tokens) + 1`
//!    blocks); prefix sharing, when enabled, lets a newcomer borrow the
//!    already-cached blocks of an identical prompt prefix instead of
//!    allocating fresh ones.
//! 3. **Reserve** — before stepping, the pool must cover every active
//!    session's worst-case next-token allocation; while it cannot, the
//!    *highest-ticket* (most recently admitted) session is preempted
//!    under the configured [`PreemptPolicy`].
//! 4. **Step + retire** — every resident session decodes one token
//!    (recording its trace) and finished sessions retire.
//!
//! Because paused tickets are always lower than backlog tickets (the
//! queue is monotonic) resume-before-admit is strict ticket priority,
//! and because preemption under [`PreemptPolicy::SwapOut`] neither
//! draws randomness nor touches a session's engine, a preempted-and
//! resumed session's reply is bit-identical to an uninterrupted run —
//! memory pressure changes *when* tokens are produced, never *which*.

use crate::decode::{
    DecodeReply, DecodeSession, DecoderConfig, DecoderLm, RequestError, SessionConfig,
    SpecSessionStats,
};
use crate::kv::{BlockPool, PagedKvCache, PreemptPolicy, PrefixIndex};
use crate::serve::decode::DecodeRequest;
use lt_arch::{ArchConfig, RunReport, Simulator};
use lt_core::{ComputeBackend, Trace};
use std::collections::VecDeque;

/// Paged-KV serving knobs (the `kv` section of
/// [`crate::serve::decode::DecodeServeConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct KvServeConfig {
    /// Tokens per KV block.
    pub block_tokens: usize,
    /// Blocks in each worker's pool; `0` derives the count from the
    /// architecture's `kv_pool_bytes` budget at the serving precision.
    pub pool_blocks: usize,
    /// Share identical prompt prefixes between overlapping sessions
    /// (copy-on-write protected). Off by default: exact only for
    /// deterministic engines, where recomputing a prefix equals
    /// reading its cached blocks.
    pub prefix_sharing: bool,
    /// What happens to a preempted session's blocks.
    pub preempt: PreemptPolicy,
}

impl Default for KvServeConfig {
    fn default() -> Self {
        KvServeConfig {
            block_tokens: 16,
            pool_blocks: 0,
            prefix_sharing: false,
            preempt: PreemptPolicy::SwapOut,
        }
    }
}

impl KvServeConfig {
    /// One KV block's byte footprint for `model` at `bits` precision.
    pub fn block_bytes(&self, model: &DecoderConfig, bits: u32) -> u64 {
        2 * (model.layers * self.block_tokens * model.dim) as u64 * bits as u64 / 8
    }

    /// The pool size in blocks: `pool_blocks` if set, else the
    /// architecture's `kv_pool_bytes` budget divided by the block size.
    pub fn resolved_pool_blocks(&self, model: &DecoderConfig, arch: &ArchConfig) -> usize {
        if self.pool_blocks > 0 {
            self.pool_blocks
        } else {
            (arch.kv_pool_bytes as u64 / self.block_bytes(model, arch.precision_bits).max(1))
                as usize
        }
    }

    /// Validates the configuration against a model and architecture and
    /// returns the resolved pool size — called at server construction
    /// so a pool that cannot hold even one full-context session is
    /// rejected before any worker starts.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero, or if the resolved pool is
    /// smaller than `ceil(max_seq / block_tokens) + 1` blocks (one
    /// maximal session plus a copy-on-write spare — the minimum that
    /// guarantees the reserve phase can always make one session
    /// resident).
    pub fn validate(&self, model: &DecoderConfig, arch: &ArchConfig) -> usize {
        assert!(self.block_tokens > 0, "kv.block_tokens must be positive");
        let blocks = self.resolved_pool_blocks(model, arch);
        let min = model.max_seq.div_ceil(self.block_tokens) + 1;
        assert!(
            blocks >= min,
            "KV pool of {blocks} blocks cannot hold one max_seq={} session \
             (needs at least {min} blocks of {} tokens)",
            model.max_seq,
            self.block_tokens
        );
        blocks
    }
}

/// One preemption, for the record: who was evicted and who was resident
/// when the pool ran dry. The victim is always the highest ticket —
/// `tests/kv_properties.rs` pins that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreemptionEvent {
    /// Ticket of the evicted session.
    pub victim: u64,
    /// Tickets resident at the moment of eviction (victim included).
    pub resident: Vec<u64>,
}

/// Cumulative [`KvScheduler`] counters: plain `Copy` numbers, so a
/// snapshot is a copy and snapshots of several schedulers
/// [merge](KvSchedStats::merge).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KvSchedStats {
    /// Ticks that stepped at least one session.
    pub ticks: u64,
    /// Tokens produced by decode steps.
    pub decoded_tokens: u64,
    /// Sessions admitted (prefilled successfully).
    pub admitted: u64,
    /// Sessions evicted under memory pressure.
    pub preemptions: u64,
    /// Paused sessions brought back.
    pub resumes: u64,
    /// K/V elements copied out by swap-out preemptions.
    pub swapped_out_elems: u64,
    /// K/V elements copied back by resumes.
    pub swapped_in_elems: u64,
    /// Tokens re-prefilled by recompute resumes.
    pub recompute_tokens: u64,
    /// Admissions that borrowed a cached prefix.
    pub prefix_hits: u64,
    /// Blocks borrowed across all prefix hits (allocation savings).
    pub prefix_shared_blocks: u64,
    /// Tokens covered by borrowed prefixes (skipped KV writes).
    pub prefix_shared_tokens: u64,
    /// High-water mark of simultaneously resident sessions.
    pub peak_resident_sessions: usize,
    /// Aggregated speculation counters across every stepped session —
    /// acceptance accounting for the serving report (all zeros unless
    /// [`KvScheduler::with_speculation`] is on).
    pub spec: SpecSessionStats,
}

impl KvSchedStats {
    /// Adds another scheduler's counters to these; the residency
    /// high-water mark is the larger of the two (one pool's peak, not
    /// a sum over pools).
    pub fn merge(&mut self, other: &KvSchedStats) {
        self.ticks += other.ticks;
        self.decoded_tokens += other.decoded_tokens;
        self.admitted += other.admitted;
        self.preemptions += other.preemptions;
        self.resumes += other.resumes;
        self.swapped_out_elems += other.swapped_out_elems;
        self.swapped_in_elems += other.swapped_in_elems;
        self.recompute_tokens += other.recompute_tokens;
        self.prefix_hits += other.prefix_hits;
        self.prefix_shared_blocks += other.prefix_shared_blocks;
        self.prefix_shared_tokens += other.prefix_shared_tokens;
        self.peak_resident_sessions = self
            .peak_resident_sessions
            .max(other.peak_resident_sessions);
        self.spec.merge(&other.spec);
    }
}

/// What one [`KvScheduler::tick`] did: the traces it executed (for
/// [`TickOutcome::cost`]) and which tickets crossed a lifecycle
/// boundary — everything a serving frontend needs to stamp per-request
/// TTFT and inter-token latency on a simulated clock.
#[derive(Debug)]
pub struct TickOutcome {
    /// One recorded decode-step trace per stepped session, ticket order
    /// (aligned with [`TickOutcome::stepped`]).
    pub step_traces: Vec<Trace>,
    /// Prefill work this tick executed, in execution order: the
    /// recompute passes of resumed sessions, whole-prompt admission
    /// prefills, then chunk pieces of still-prefilling sessions.
    pub prefill_traces: Vec<Trace>,
    /// Tickets admitted this tick (session created, prefill started).
    pub admitted: Vec<u64>,
    /// Tickets whose *first token* was sampled this tick (prefill
    /// completed) — the TTFT boundary.
    pub first_tokens: Vec<u64>,
    /// Tickets that ran a decode step this tick — each an inter-token
    /// latency boundary (aligned with [`TickOutcome::step_traces`]).
    pub stepped: Vec<u64>,
    /// Tokens each stepped session emitted this tick, aligned with
    /// [`TickOutcome::stepped`] — always `1` in plain mode, up to
    /// `k + 1` when a speculative step's proposals were accepted.
    pub emitted: Vec<usize>,
    /// Draft-model traces of this tick's speculative steps, aligned
    /// with [`TickOutcome::stepped`] (empty unless speculation is on;
    /// a `k_eff = 0` fallback step contributes an empty trace).
    pub draft_traces: Vec<Trace>,
    /// Whether the tick came from a speculative scheduler, whose
    /// sessions verify at different contexts and depths.
    ragged: bool,
}

impl TickOutcome {
    /// The tick's modeled cost: its prefill and step traces merged
    /// into one batched trace and replayed on `sim` — the batching
    /// remedy of the paper's Section VI-B. Each session's `[1, k] x
    /// [k, n]` products stack into `[rows, k] x [k, n]` GEMMs
    /// ([`Trace::batch_rows`]), so weights load once per batched op
    /// instead of once per session and the stacked rows fill tile rows
    /// a lone token would leave idle. A speculative tick stacks its
    /// verify rows with [`Trace::batch_rows_ragged`] (shorter contexts
    /// causally padded and charged) and its draft traces ride along as
    /// distinct ops. `None` when the tick executed nothing.
    pub fn cost(&self, sim: &Simulator) -> Option<RunReport> {
        if self.prefill_traces.is_empty() && self.step_traces.is_empty() {
            return None;
        }
        let traces = self.prefill_traces.iter().chain(&self.step_traces);
        let merged = if self.ragged {
            Trace::batch_rows_ragged(traces.chain(&self.draft_traces))
        } else {
            Trace::batch_rows(traces)
        };
        Some(sim.run_trace(&merged.coalesce()))
    }
}

/// The per-worker paged-KV decode scheduler. See the [module
/// docs](self).
pub struct KvScheduler<'m, B: ComputeBackend + Clone> {
    model: &'m DecoderLm,
    sim: &'m Simulator,
    backend: B,
    session_config: SessionConfig,
    preempt: PreemptPolicy,
    /// Chunked-prefill size in tokens; `0` = whole-prompt prefill at
    /// admission (the original behavior).
    prefill_chunk: usize,
    /// Speculative decoding: `(k, draft model)` when enabled. Running
    /// sessions then advance by [`DecodeSession::spec_step`] instead of
    /// plain steps, and the reserve phase books the `k_eff + 1` rows of
    /// each session's modeled verify pass.
    spec: Option<(usize, DecoderLm)>,
    pool: BlockPool,
    prefix: Option<PrefixIndex>,
    max_active: usize,
    active: Vec<DecodeSession<B>>,
    paused: Vec<DecodeSession<B>>,
    backlog: VecDeque<(u64, DecodeRequest)>,
    finished: Vec<(u64, DecodeReply)>,
    failed: Vec<u64>,
    stats: KvSchedStats,
    preemption_events: Vec<PreemptionEvent>,
}

impl<B: ComputeBackend + Clone> std::fmt::Debug for KvScheduler<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvScheduler")
            .field("active", &self.active.len())
            .field("paused", &self.paused.len())
            .field("backlog", &self.backlog.len())
            .field("pool_free", &self.pool.free_blocks())
            .finish_non_exhaustive()
    }
}

impl<'m, B: ComputeBackend + Clone> KvScheduler<'m, B> {
    /// Creates a scheduler with its own block pool, validated against
    /// the model and the simulator's architecture (see
    /// [`KvServeConfig::validate`]).
    pub fn new(
        model: &'m DecoderLm,
        sim: &'m Simulator,
        backend: B,
        session_config: SessionConfig,
        kv: KvServeConfig,
        max_active: usize,
    ) -> Self {
        let cfg = model.config();
        let blocks = kv.validate(&cfg, sim.config());
        KvScheduler {
            model,
            sim,
            backend,
            session_config,
            preempt: kv.preempt,
            prefill_chunk: 0,
            spec: None,
            pool: BlockPool::new(blocks, cfg.layers, cfg.dim, kv.block_tokens),
            prefix: kv.prefix_sharing.then(PrefixIndex::new),
            max_active: max_active.max(1),
            active: Vec::new(),
            paused: Vec::new(),
            backlog: VecDeque::new(),
            finished: Vec::new(),
            failed: Vec::new(),
            stats: KvSchedStats::default(),
            preemption_events: Vec::new(),
        }
    }

    /// Enables chunked prefill: admission feeds at most `chunk_tokens`
    /// prompt tokens, and each subsequent tick advances every
    /// still-prefilling session by one more chunk *alongside* the
    /// decode steps of running sessions — so a long prompt costs any
    /// running session at most one chunk of extra latency per token
    /// instead of its whole prefill. `0` restores whole-prompt prefill
    /// at admission.
    ///
    /// For deterministic backends without per-tensor fake quantization,
    /// replies are bit-identical to the unchunked path (see
    /// [`DecoderLm::prefill_chunk`]); only the latency schedule changes.
    pub fn with_prefill_chunk(mut self, chunk_tokens: usize) -> Self {
        self.prefill_chunk = chunk_tokens;
        self
    }

    /// Enables speculative decoding with a *self-speculative* draft —
    /// the target's own bottom half ([`DecoderLm::draft`]). Each
    /// tick then advances every running session by one
    /// [`DecodeSession::spec_step`]: the draft proposes up to `k`
    /// tokens and the target verifies them all in one batched pass, so
    /// a session can emit up to `k + 1` tokens per tick while its
    /// reply stays bit-identical to plain decoding.
    ///
    /// The reserve phase books `k_eff + 1` rows per session *before*
    /// any session steps. The host writes only the `accepted + 1`
    /// replayed rows (the verify pass is costed from its shape, not
    /// run), but the verify pass each step is charged for appends all
    /// `k_eff + 1` before rejection rolls them back, so the modeled
    /// pool must hold them: booking them keeps every admission and
    /// preemption decision that of the costed schedule, and the replay
    /// can never find the pool dry. `k = 0` leaves speculation off.
    pub fn with_speculation(mut self, k: usize) -> Self {
        self.spec = (k > 0).then(|| (k, self.model.draft()));
        self
    }

    /// The scheduler's block pool.
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &KvSchedStats {
        &self.stats
    }

    /// Every preemption so far, in order.
    pub fn preemption_events(&self) -> &[PreemptionEvent] {
        &self.preemption_events
    }

    /// Queues a request (admission happens inside [`KvScheduler::tick`],
    /// when the pool has room).
    pub fn submit(&mut self, ticket: u64, request: DecodeRequest) {
        self.backlog.push_back((ticket, request));
    }

    /// Whether any session is resident, paused, or waiting.
    pub fn has_work(&self) -> bool {
        !self.active.is_empty() || !self.paused.is_empty() || !self.backlog.is_empty()
    }

    /// In-flight slots still available (how many more submissions this
    /// scheduler wants before a tick).
    pub fn free_slots(&self) -> usize {
        self.max_active
            .saturating_sub(self.active.len() + self.paused.len() + self.backlog.len())
    }

    /// Takes the replies of every session that finished.
    pub fn drain_finished(&mut self) -> Vec<(u64, DecodeReply)> {
        std::mem::take(&mut self.finished)
    }

    /// Takes the tickets of requests that failed (malformed, or needing
    /// more KV blocks than the whole pool).
    pub fn drain_failed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.failed)
    }

    /// One scheduling round: resume, admit, reserve (preempting if the
    /// pool cannot cover every resident session's next work), then
    /// advance every resident session — still-prefilling sessions by
    /// one chunk, running sessions by one decode step — and retire the
    /// finished. Returns `None` if nothing was admitted or resident.
    pub fn tick(&mut self) -> Option<TickOutcome> {
        let mut prefill_traces = self.resume_paused();
        let (admitted, mut first_tokens) = self.admit(&mut prefill_traces);
        if self.active.is_empty() && admitted.is_empty() {
            return None;
        }
        self.stats.peak_resident_sessions =
            self.stats.peak_resident_sessions.max(self.active.len());
        self.reserve_for_step();

        let mut step_traces = Vec::with_capacity(self.active.len());
        let mut stepped = Vec::with_capacity(self.active.len());
        let mut emitted = Vec::with_capacity(self.active.len());
        let mut draft_traces = Vec::new();
        let spec = self.spec.as_ref();
        for session in self.active.iter_mut() {
            let ticket = session.ticket();
            if !session.prefill_done() {
                // Chunked prefill: one bounded piece this tick, so the
                // decode steps below never wait out a whole prompt.
                prefill_traces.push(session.prefill_partial(
                    self.model,
                    self.sim,
                    self.prefill_chunk,
                ));
                if session.prefill_done() {
                    first_tokens.push(ticket);
                }
            } else if let Some((k, draft)) = spec {
                // Speculative step: the verify trace is the target's
                // costed work this tick (built from the pass's shape;
                // the host replays only the accepted positions); the
                // draft trace is its itemized overhead. The reserve
                // phase above booked the pass's k_eff + 1 rows, which
                // the modeled pass holds even though the host writes
                // fewer.
                let report = session.spec_step(self.model, draft, self.sim, *k);
                self.stats.spec.merge(&report.stats_delta());
                step_traces.push(report.verify_trace);
                draft_traces.push(report.draft_trace);
                stepped.push(ticket);
                emitted.push(report.outcome.emitted());
            } else {
                step_traces.push(session.step(self.model, self.sim));
                stepped.push(ticket);
                emitted.push(1);
            }
        }
        self.stats.decoded_tokens += emitted.iter().sum::<usize>() as u64;
        if !step_traces.is_empty() {
            self.stats.ticks += 1;
        }

        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].is_done() {
                let session = self.active.remove(i);
                self.finished.push((session.ticket(), session.into_reply()));
            } else {
                i += 1;
            }
        }
        Some(TickOutcome {
            step_traces,
            prefill_traces,
            admitted,
            first_tokens,
            stepped,
            emitted,
            draft_traces,
            ragged: self.spec.is_some(),
        })
    }

    /// Tokens the pool must absorb when `session` next runs: one decode
    /// token for a running session, the next chunk for a prefilling
    /// one. In speculative mode a running session books `k_eff + 1`:
    /// the verify pass it is charged for appends that many rows before
    /// rejection rolls them back. The host no longer runs that pass,
    /// but the modeled pool holds its rows, so they stay booked and no
    /// preemption decision moves.
    fn next_tokens(&self, session: &DecodeSession<B>) -> usize {
        if session.prefill_done() {
            match &self.spec {
                Some((k, _)) => (*k).min(session.remaining_tokens().saturating_sub(1)) + 1,
                None => 1,
            }
        } else {
            session.prefill_remaining().min(self.prefill_chunk)
        }
    }

    /// Blocks a paused session needs to become resident again (restore
    /// plus one decode step).
    fn resume_need(&self, session: &DecodeSession<B>) -> usize {
        let kv = session.paged_kv();
        let pending = self.next_tokens(session);
        if kv.is_swapped() {
            kv.blocks_needed(pending)
        } else {
            // Recompute: the cache is empty; the resume re-prefills
            // everything fed so far, then the tick appends its next work.
            (self.fed_tokens(session) + pending).div_ceil(self.pool.block_tokens())
        }
    }

    /// Tokens already in (or owed to) `session`'s KV cache: the full
    /// context for a running session, the chunks fed so far for a
    /// still-prefilling one.
    fn fed_tokens(&self, session: &DecodeSession<B>) -> usize {
        if session.prefill_done() {
            session.prompt().len() + session.tokens().len() - 1
        } else {
            session.prompt().len() - session.prefill_remaining()
        }
    }

    /// Brings paused sessions back in ticket order while the pool can
    /// hold them; returns the recompute passes that rebuilt their
    /// caches (prefill work of this tick).
    fn resume_paused(&mut self) -> Vec<Trace> {
        let mut recomputed = Vec::new();
        self.paused.sort_by_key(DecodeSession::ticket);
        while let Some(front) = self.paused.first() {
            if self.resume_need(front) > self.pool.free_blocks() {
                break;
            }
            let mut session = self.paused.remove(0);
            match self.preempt {
                PreemptPolicy::SwapOut => {
                    let moved = session.paged_kv_mut().resume();
                    self.stats.swapped_in_elems += moved;
                }
                PreemptPolicy::Recompute => {
                    let fed = self.fed_tokens(&session);
                    if fed > 0 {
                        recomputed.push(session.resume_by_recompute(self.model));
                    }
                    self.stats.recompute_tokens += fed as u64;
                }
            }
            self.stats.resumes += 1;
            self.active.push(session);
            self.active.sort_by_key(DecodeSession::ticket);
        }
        recomputed
    }

    /// Admits backlog requests in FIFO order while the pool has room,
    /// appending unchunked admission prefills to `prefill_traces`;
    /// returns the admitted tickets and those whose first token was
    /// sampled.
    fn admit(&mut self, prefill_traces: &mut Vec<Trace>) -> (Vec<u64>, Vec<u64>) {
        let mut admitted = Vec::new();
        let mut first_tokens = Vec::new();
        while self.active.len() + self.paused.len() < self.max_active {
            let Some((_, request)) = self.backlog.front() else {
                break;
            };
            let need = request.prompt.len().div_ceil(self.pool.block_tokens()) + 1;
            if need > self.pool.total_blocks() {
                // Can never fit, even alone in an empty pool: fail it
                // (the client's reply channel drops) instead of
                // wedging the FIFO head forever.
                let (ticket, _) = self.backlog.pop_front().expect("front exists");
                self.failed.push(ticket);
                continue;
            }
            if need > self.pool.free_blocks() {
                break; // strict FIFO: no head-of-line bypass
            }
            let (ticket, request) = self.backlog.pop_front().expect("front exists");
            match self.admit_one(ticket, request) {
                Ok((session, trace)) => {
                    self.stats.admitted += 1;
                    admitted.push(ticket);
                    if let Some(trace) = trace {
                        // Unchunked: admission ran the whole prefill and
                        // sampled the first token right here.
                        prefill_traces.push(trace);
                        first_tokens.push(ticket);
                    }
                    if session.is_done() {
                        self.finished.push((session.ticket(), session.into_reply()));
                    } else {
                        self.active.push(session);
                        self.active.sort_by_key(DecodeSession::ticket);
                    }
                }
                Err(_) => self.failed.push(ticket),
            }
        }
        (admitted, first_tokens)
    }

    /// Builds one session and — in unchunked mode — runs its whole
    /// prefill, returning the recorded trace. The request is checked
    /// against the model first ([`DecoderConfig::check_request`]: empty
    /// prompt, no new tokens, a token outside the vocabulary, context
    /// overflow), before the prefix lookup retains any block, so a
    /// malformed request fails without touching the pool. In chunked
    /// mode the session is only created here (no trace);
    /// [`KvScheduler::tick`]'s step phase feeds its chunks, and prefix
    /// sharing is bypassed because a borrowed prefix would
    /// desynchronize the chunk cursor from the cache length.
    fn admit_one(
        &mut self,
        ticket: u64,
        request: DecodeRequest,
    ) -> Result<(DecodeSession<B>, Option<Trace>), RequestError> {
        let model = self.model;
        model
            .config()
            .check_request(&request.prompt, request.max_new_tokens)?;
        let chunked = self.prefill_chunk > 0;
        let shared = if chunked {
            None
        } else {
            self.prefix
                .as_mut()
                .and_then(|index| index.lookup(&self.pool, &request.prompt))
        };
        let cache = match shared {
            Some(prefix) => {
                self.stats.prefix_hits += 1;
                self.stats.prefix_shared_blocks += prefix.num_blocks() as u64;
                self.stats.prefix_shared_tokens += prefix.tokens() as u64;
                PagedKvCache::with_shared_prefix(&self.pool, prefix)
            }
            None => PagedKvCache::new(&self.pool),
        };
        let mut session = DecodeSession::new_paged(
            model,
            ticket,
            request.prompt,
            request.max_new_tokens,
            self.backend.clone(),
            self.session_config,
            cache,
        );
        let trace = (!chunked).then(|| session.prefill(model, self.sim));
        if !chunked {
            if let Some(index) = self.prefix.as_mut() {
                let refs = session.paged_kv().block_refs(session.prompt().len());
                index.register(&self.pool, session.prompt(), refs);
            }
        }
        Ok((session, trace))
    }

    /// Guarantees the pool can absorb every resident session's next
    /// token (a fresh block at a boundary, a copy-on-write of a shared
    /// block) by preempting the highest-ticket sessions until it can.
    fn reserve_for_step(&mut self) {
        loop {
            let need: usize = self
                .active
                .iter()
                .map(|s| s.paged_kv().blocks_needed(self.next_tokens(s)))
                .sum();
            if need <= self.pool.free_blocks() {
                return;
            }
            assert!(
                self.active.len() > 1,
                "KV pool cannot cover a single session's next token — \
                 KvServeConfig::validate should have rejected this pool"
            );
            let resident: Vec<u64> = self.active.iter().map(DecodeSession::ticket).collect();
            let victim_idx = self.active.len() - 1; // active is ticket-sorted
            let mut session = self.active.remove(victim_idx);
            match self.preempt {
                PreemptPolicy::SwapOut => {
                    let moved = session.paged_kv_mut().swap_out();
                    self.stats.swapped_out_elems += moved;
                }
                PreemptPolicy::Recompute => {
                    session.paged_kv_mut().drop_resident();
                }
            }
            self.stats.preemptions += 1;
            self.preemption_events.push(PreemptionEvent {
                victim: session.ticket(),
                resident,
            });
            self.paused.push(session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecoderConfig;
    use lt_core::{GaussianSampler, NativeBackend};

    fn model() -> DecoderLm {
        let mut rng = GaussianSampler::new(5);
        DecoderLm::new(DecoderConfig::tiny(), &mut rng)
    }

    fn run_to_completion<B: ComputeBackend + Clone>(
        sched: &mut KvScheduler<'_, B>,
    ) -> Vec<(u64, DecodeReply)> {
        let mut replies = Vec::new();
        while sched.has_work() {
            sched.tick();
            replies.extend(sched.drain_finished());
        }
        replies.sort_by_key(|&(t, _)| t);
        replies
    }

    #[test]
    #[should_panic(expected = "cannot hold one max_seq")]
    fn undersized_pool_is_rejected_at_construction() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        // tiny() has max_seq 48: 16-token blocks need ceil(48/16)+1 = 4.
        let kv = KvServeConfig {
            block_tokens: 16,
            pool_blocks: 3,
            ..KvServeConfig::default()
        };
        let _ = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 4);
    }

    #[test]
    #[should_panic(expected = "block_tokens must be positive")]
    fn zero_block_size_is_rejected() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let kv = KvServeConfig {
            block_tokens: 0,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let _ = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 4);
    }

    #[test]
    fn pool_blocks_derive_from_the_arch_kv_budget() {
        let cfg = DecoderConfig::tiny();
        let mut arch = ArchConfig::lt_base(8);
        arch.kv_pool_bytes = 1 << 20;
        let kv = KvServeConfig::default();
        // block = 2 * 2 layers * 16 tokens * 32 dim * 8 bits / 8 = 2048 B.
        assert_eq!(kv.block_bytes(&cfg, 8), 2048);
        assert_eq!(kv.resolved_pool_blocks(&cfg, &arch), 512);
    }

    #[test]
    fn a_starved_pool_preempts_highest_tickets_and_still_serves_everyone() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        // 13 blocks of 4 tokens; six 10-token decodes need 3 blocks each
        // once their contexts grow — more than the pool holds at once.
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 13,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 6);
        for t in 0..6u64 {
            sched.submit(
                t,
                DecodeRequest {
                    prompt: vec![1, 2, 3, 4, 5],
                    max_new_tokens: 6,
                },
            );
        }
        let replies = run_to_completion(&mut sched);
        assert_eq!(replies.len(), 6, "every session finishes despite eviction");
        for (_, r) in &replies {
            assert_eq!(r.tokens.len(), 6);
        }
        let stats = sched.stats();
        assert!(stats.preemptions > 0, "the pool must have run dry");
        assert_eq!(stats.preemptions, stats.resumes, "everyone came back");
        assert!(stats.swapped_out_elems > 0);
        assert_eq!(stats.swapped_out_elems, stats.swapped_in_elems);
        for ev in sched.preemption_events() {
            assert_eq!(
                Some(ev.victim),
                ev.resident.iter().copied().max(),
                "victim must be the most recently admitted resident"
            );
        }
        assert_eq!(sched.pool().used_blocks(), 0, "all blocks returned");
    }

    fn run_requests(
        chunk: usize,
        kv: KvServeConfig,
        max_active: usize,
        requests: &[(Vec<usize>, usize)],
    ) -> (Vec<(u64, DecodeReply)>, KvSchedStats) {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut sched = KvScheduler::new(
            &m,
            &sim,
            NativeBackend,
            SessionConfig::default(),
            kv,
            max_active,
        )
        .with_prefill_chunk(chunk);
        for (t, (prompt, max_new)) in requests.iter().enumerate() {
            sched.submit(
                t as u64,
                DecodeRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: *max_new,
                },
            );
        }
        let replies = run_to_completion(&mut sched);
        (replies, *sched.stats())
    }

    #[test]
    fn chunked_prefill_replies_are_bit_identical_to_unchunked() {
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let requests: Vec<(Vec<usize>, usize)> = (0..5)
            .map(|i| {
                (
                    (0..(7 + 5 * i)).map(|t| (t * 3 + i) % 16).collect(),
                    3 + i % 4,
                )
            })
            .collect();
        let (whole, _) = run_requests(0, kv, 4, &requests);
        for chunk in [1, 3, 16] {
            let (chunked, stats) = run_requests(chunk, kv, 4, &requests);
            assert_eq!(chunked.len(), whole.len());
            for ((t_a, a), (t_b, b)) in whole.iter().zip(&chunked) {
                assert_eq!(t_a, t_b);
                assert_eq!(
                    a.tokens, b.tokens,
                    "chunk={chunk} changed ticket {t_a}'s reply"
                );
                assert_eq!(a.kv_cache_bytes, b.kv_cache_bytes);
            }
            assert_eq!(stats.admitted, requests.len() as u64);
        }
    }

    #[test]
    fn chunked_prefill_interleaves_decode_steps_with_a_long_prompt() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 4)
            .with_prefill_chunk(2);
        // A short request gets running first…
        sched.submit(
            0,
            DecodeRequest {
                prompt: vec![1, 2, 3],
                max_new_tokens: 24,
            },
        );
        let first = sched.tick().expect("admission tick");
        assert_eq!(first.admitted, vec![0]);
        assert!(
            first.first_tokens.contains(&0) || !first.prefill_traces.is_empty(),
            "admission starts prefilling"
        );
        while !sched
            .tick()
            .expect("work remains")
            .first_tokens
            .contains(&0)
        {}
        // …then a 10x-longer prompt arrives mid-stream.
        sched.submit(
            1,
            DecodeRequest {
                prompt: (0..30).map(|t| t % 16).collect(),
                max_new_tokens: 2,
            },
        );
        let mut prefill_ticks = 0;
        loop {
            let out = sched.tick().expect("work remains");
            if out.first_tokens.contains(&1) {
                break;
            }
            if out.admitted.contains(&1) || !out.prefill_traces.is_empty() {
                prefill_ticks += 1;
                assert!(
                    out.stepped.contains(&0),
                    "session 0 must keep stepping while session 1 prefills in chunks"
                );
            }
        }
        assert!(
            prefill_ticks >= 10,
            "a 30-token prompt at chunk 2 needs >= 15 pieces, saw {prefill_ticks} ticks"
        );
        let replies = run_to_completion(&mut sched);
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn a_starved_pool_recovers_mid_prefill_sessions_under_both_policies() {
        for preempt in [PreemptPolicy::SwapOut, PreemptPolicy::Recompute] {
            let kv = KvServeConfig {
                block_tokens: 4,
                pool_blocks: 13,
                preempt,
                ..KvServeConfig::default()
            };
            let requests: Vec<(Vec<usize>, usize)> = (0..6)
                .map(|i| ((0..20).map(|t| (t + i) % 16).collect(), 4))
                .collect();
            let (whole, _) = run_requests(0, kv, 6, &requests);
            let (chunked, stats) = run_requests(3, kv, 6, &requests);
            assert!(stats.preemptions > 0, "{preempt:?}: pool must run dry");
            assert_eq!(whole.len(), 6);
            assert_eq!(chunked.len(), 6);
            for ((_, a), (_, b)) in whole.iter().zip(&chunked) {
                assert_eq!(a.tokens, b.tokens, "{preempt:?} broke chunked replies");
            }
        }
    }

    #[test]
    fn malformed_requests_fail_cleanly_chunked_or_not() {
        // Each malformed shape fails admission with its typed reason,
        // unchunked and chunked, with prefix sharing on: all but the
        // empty prompt extend a cached prompt, so a check made after the
        // prefix lookup would leak the borrowed blocks. The well-formed
        // neighbours are served and the pool ends empty.
        let m = model();
        let cfg = m.config();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let good = vec![1, 2, 3, 4, 5];
        let malformed = [
            (vec![], 4, RequestError::EmptyPrompt),
            (good.clone(), 0, RequestError::NoNewTokens),
            (
                vec![1, 2, 3, 4, 5, usize::MAX],
                4,
                RequestError::TokenOutOfVocab {
                    token: usize::MAX,
                    vocab: cfg.vocab,
                },
            ),
            (
                good.clone(),
                45,
                RequestError::ContextOverflow {
                    prompt: 5,
                    max_new_tokens: 45,
                    max_seq: cfg.max_seq,
                },
            ),
        ];
        for (prompt, max_new_tokens, reason) in malformed {
            assert_eq!(cfg.check_request(&prompt, max_new_tokens), Err(reason));
            for chunk in [0, 2] {
                let kv = KvServeConfig {
                    block_tokens: 4,
                    pool_blocks: 64,
                    prefix_sharing: true,
                    ..KvServeConfig::default()
                };
                let mut sched =
                    KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 4)
                        .with_prefill_chunk(chunk);
                for (t, prompt, max_new_tokens) in [
                    (0, good.clone(), 4),
                    (1, prompt.clone(), max_new_tokens),
                    (2, good.clone(), 4),
                ] {
                    sched.submit(
                        t,
                        DecodeRequest {
                            prompt,
                            max_new_tokens,
                        },
                    );
                }
                let replies = run_to_completion(&mut sched);
                let at = format!("{reason}, chunk {chunk}");
                assert_eq!(sched.drain_failed(), vec![1], "{at}");
                let served: Vec<u64> = replies.iter().map(|&(t, _)| t).collect();
                assert_eq!(served, vec![0, 2], "{at}");
                assert_eq!(sched.pool().used_blocks(), 0, "{at}: leaked blocks");
            }
        }
    }

    fn run_requests_spec(
        k: usize,
        kv: KvServeConfig,
        max_active: usize,
        requests: &[(Vec<usize>, usize)],
    ) -> (Vec<(u64, DecodeReply)>, KvSchedStats) {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut sched = KvScheduler::new(
            &m,
            &sim,
            NativeBackend,
            SessionConfig::default(),
            kv,
            max_active,
        )
        .with_speculation(k);
        for (t, (prompt, max_new)) in requests.iter().enumerate() {
            sched.submit(
                t as u64,
                DecodeRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: *max_new,
                },
            );
        }
        let replies = run_to_completion(&mut sched);
        assert_eq!(sched.pool().used_blocks(), 0, "all blocks returned");
        (replies, *sched.stats())
    }

    #[test]
    fn speculative_scheduling_replies_are_bit_identical_even_under_memory_pressure() {
        // The same starved pool as the preemption test: speculation must
        // coexist with eviction. The reserve phase books the modeled
        // verify pass's k_eff + 1 rows before any session steps, so the
        // replay, which writes at most that many, can never find the
        // pool dry. The replies (tokens AND per-token costs) must match
        // plain scheduling bit-exactly for every k.
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 13,
            ..KvServeConfig::default()
        };
        let requests: Vec<(Vec<usize>, usize)> = (0..6)
            .map(|i| ((0..5).map(|t| (t * 2 + i) % 16).collect(), 6))
            .collect();
        let (plain, plain_stats) = run_requests(0, kv, 6, &requests);
        assert_eq!(plain_stats.spec, SpecSessionStats::default());
        for k in [1, 2, 4] {
            let (spec, stats) = run_requests_spec(k, kv, 6, &requests);
            assert_eq!(plain, spec, "k={k} changed a reply");
            assert!(stats.preemptions > 0, "k={k}: pressure must stay real");
            assert!(stats.spec.spec_steps > 0, "k={k}: speculation must run");
            assert!(stats.spec.proposed > 0);
            assert_eq!(
                stats.spec.accepted + stats.spec.rolled_back,
                stats.spec.proposed,
                "every proposal is either accepted or rolled back"
            );
            assert_eq!(
                stats.spec.emitted, stats.decoded_tokens,
                "k={k}: every decoded token came from a speculative step"
            );
            assert_eq!(stats.decoded_tokens, plain_stats.decoded_tokens);
            assert!(stats.spec.draft_cycles > 0, "draft overhead is itemized");
        }
    }

    #[test]
    fn accepted_proposals_save_whole_scheduler_ticks() {
        // One session in a roomy pool: a speculative step emits
        // `accepted + 1` tokens per tick, so the run takes exactly
        // `accepted` fewer ticks than plain scheduling — the whole
        // point of speculation, in the scheduler's own currency.
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let requests = vec![(vec![1usize, 2, 3, 4, 5], 16)];
        let (plain, plain_stats) = run_requests(0, kv, 1, &requests);
        let (spec, stats) = run_requests_spec(4, kv, 1, &requests);
        assert_eq!(plain, spec, "speculation never changes the reply");
        assert_eq!(stats.spec.emitted, plain_stats.decoded_tokens);
        assert_eq!(
            stats.ticks + stats.spec.accepted,
            plain_stats.ticks,
            "each accepted proposal saves exactly one tick"
        );
    }

    #[test]
    fn a_speculative_tick_reports_per_session_emission_and_draft_traces() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 4)
            .with_speculation(3);
        for t in 0..2u64 {
            sched.submit(
                t,
                DecodeRequest {
                    prompt: vec![1, 2, 3],
                    max_new_tokens: 8,
                },
            );
        }
        // Unchunked admission prefills and then steps in the same tick,
        // so the first tick is already a speculative one.
        let out = sched.tick().expect("admission + first speculative tick");
        assert_eq!(out.admitted, vec![0, 1]);
        assert_eq!(out.stepped, vec![0, 1]);
        assert_eq!(
            out.emitted.len(),
            2,
            "one emission count per stepped session"
        );
        assert_eq!(
            out.draft_traces.len(),
            2,
            "one draft trace per stepped session"
        );
        assert!(out.emitted.iter().all(|&e| (1..=4).contains(&e)));
        assert!(
            out.draft_traces.iter().all(|t| !t.is_empty()),
            "k_eff > 0 here, so every session drafted"
        );
        assert_eq!(
            sched.stats().decoded_tokens,
            out.emitted.iter().sum::<usize>() as u64
        );
    }

    #[test]
    fn batched_ticks_cost_fewer_cycles_than_one_at_a_time() {
        // The Section VI-B claim in the replayed-cycle metric: sixteen
        // equal-geometry requests ticked as one continuous batch cost
        // well under the same requests' own prefill and steps replayed
        // one at a time.
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 16);
        for t in 0..16 {
            sched.submit(
                t,
                DecodeRequest {
                    prompt: vec![1, 2, 3, 4],
                    max_new_tokens: 4,
                },
            );
        }
        let mut batched = 0;
        while let Some(tick) = sched.tick() {
            batched += tick.cost(&sim).expect("every tick runs work").cycles;
        }
        let single: u64 = sched
            .drain_finished()
            .iter()
            .map(|(_, reply)| reply.total().cycles)
            .sum();
        assert!(
            single as f64 / batched as f64 > 2.0,
            "tile filling should be worth well over 2x: {single}/{batched}"
        );
    }

    #[test]
    fn prefix_sharing_skips_duplicate_prompt_blocks() {
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let kv = KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            prefix_sharing: true,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 8);
        let prompt = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
        for t in 0..4u64 {
            sched.submit(
                t,
                DecodeRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: 4,
                },
            );
        }
        let replies = run_to_completion(&mut sched);
        assert_eq!(replies.len(), 4);
        let stats = sched.stats();
        assert_eq!(
            stats.prefix_hits, 3,
            "sessions 1-3 borrow session 0's blocks"
        );
        assert_eq!(stats.prefix_shared_tokens, 3 * prompt.len() as u64);
        assert!(stats.prefix_shared_blocks >= 3 * 2, "two full blocks each");
        // Sharing must not change the tokens: all four replies agree
        // (deterministic backend, identical prompts, greedy sampling).
        for (_, r) in &replies[1..] {
            assert_eq!(r.tokens, replies[0].1.tokens);
        }
    }
}
