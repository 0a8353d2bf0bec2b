//! Continuous-batching decode serving (paper Section VI-B's remedy,
//! executed): worker threads interleave prefill and per-token decode
//! steps across many in-flight requests, admitting newcomers *between
//! token steps* — not at request boundaries — so the machine always has
//! a full batch of single-token work even though requests start and end
//! at different times.
//!
//! Every scheduler tick advances every active
//! [`crate::decode::DecodeSession`] and is costed by
//! [`TickOutcome::cost`], the one definition of a tick's modeled cost,
//! which [`crate::serve::lifecycle::SloFrontend`] uses too: the
//! sessions' prefill and step traces merge into one batched trace whose
//! replay is the batching argument of Section VI-B made executable.
//! The per-session matrix-vector products (`[1, d] x [d, d]`
//! projections, `[1, dh] x [dh, ctx]` attention) coalesce into
//! multi-instance ops that fill hardware tiles a lone token would leave
//! idle, so a tick costs fewer cycles than its sessions one at a time.
//! [`ServingStats::batched_cycles`] (the ticks) against
//! [`ServingStats::sequential_cycles`] (the same requests' own replayed
//! prefill and steps, [`DecodeReply::total`]) quantifies exactly that
//! on every run; both sides include prefill.
//!
//! [`TickOutcome::cost`]: crate::serve::sched::TickOutcome::cost
//!
//! # Determinism
//!
//! A reply (token stream *and* per-token costs) is a pure function of
//! the model weights, the prompt, and `split_seed(seed, ticket)`. The
//! scheduler changes which sessions share a tick, never what a session
//! computes, so serving the same stream with 1, 2, or 4 workers — or a
//! different `max_active` — returns bit-identical replies
//! (`tests/runtime_determinism.rs`).
//!
//! # Configuration
//!
//! [`DecodeServeConfig`] holds plain values, and
//! [`DecodeServeConfig::scheduler`] is the one mapping from them to a
//! [`KvScheduler`]: every [`DecodeServer`] worker and
//! [`crate::serve::lifecycle::SloFrontend`] build theirs with it.
//! Nothing here reads the environment: the `llm_serving_decode`
//! example maps `LT_THREADS` onto a [`lt_runtime::ParallelBackend`] it
//! passes in, and `llm_speculative` maps `LT_SPEC_K` onto
//! [`DecodeServeConfig::spec_k`].

use crate::decode::{DecodeReply, DecoderLm, SessionConfig};
use crate::quant::QuantConfig;
use crate::serve::sched::{KvSchedStats, KvScheduler, KvServeConfig};
use lt_arch::{ArchConfig, ScheduleCacheStats, Simulator};
use lt_core::ComputeBackend;
use lt_runtime::{BatchQueue, Job, Pending, Workers};
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// One autoregressive generation request.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// Prompt token ids (must fit the model's vocabulary and context).
    pub prompt: Vec<usize>,
    /// Number of tokens to generate (>= 1; the first comes from the
    /// prefill logits, the rest from decode steps).
    pub max_new_tokens: usize,
}

/// Decode-serving configuration.
#[derive(Debug, Clone)]
pub struct DecodeServeConfig {
    /// Worker threads, each holding its own clone of the weights and
    /// running its own continuous batch.
    pub workers: usize,
    /// Maximum sessions a worker keeps in flight at once (the
    /// continuous-batch width).
    pub max_active: usize,
    /// Root seed; session noise streams are `split_seed(seed, ticket)`.
    pub seed: u64,
    /// Operand fake-quantization applied to every forward pass.
    pub quant: QuantConfig,
    /// Accelerator model that costs every recorded trace (default:
    /// LT-B at 8 bits).
    pub arch: ArchConfig,
    /// Paged KV-cache knobs: block size, per-worker pool size (or `0`
    /// to derive it from `arch.kv_pool_bytes`), prefix sharing, and the
    /// preemption policy. Validated at [`DecodeServer::new`].
    pub kv: KvServeConfig,
    /// Chunked-prefill size in prompt tokens: `0` (default) prefills a
    /// whole prompt at admission; a positive chunk interleaves prefill
    /// pieces with running sessions' decode steps, bounding how long a
    /// long prompt can stall anyone else's next token (see
    /// [`KvScheduler::with_prefill_chunk`]). Replies are bit-identical
    /// either way for deterministic engines.
    pub prefill_chunk_tokens: usize,
    /// Speculative decoding: `spec_k > 0` makes every scheduler tick a
    /// draft-then-batched-verify round with the self-speculative draft
    /// ([`KvScheduler::with_speculation`]), emitting up to `spec_k + 1`
    /// tokens per session per tick with replies bit-identical to plain
    /// decoding. `0` (the default) leaves speculation off.
    pub spec_k: usize,
}

impl Default for DecodeServeConfig {
    fn default() -> Self {
        DecodeServeConfig {
            workers: 2,
            max_active: 8,
            seed: 0,
            quant: QuantConfig::fp32(),
            arch: ArchConfig::lt_base(8),
            kv: KvServeConfig::default(),
            prefill_chunk_tokens: 0,
            spec_k: 0,
        }
    }
}

impl DecodeServeConfig {
    /// The scheduler this configuration describes over `model`, costed
    /// by `sim` (built from `self.arch`) and running GEMMs through
    /// `backend`. `workers` belongs to the server, not the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `kv` is invalid for this model and architecture (see
    /// [`KvServeConfig::validate`]).
    pub fn scheduler<'m, B: ComputeBackend + Clone>(
        &self,
        model: &'m DecoderLm,
        sim: &'m Simulator,
        backend: B,
    ) -> KvScheduler<'m, B> {
        let session_config = SessionConfig {
            seed: self.seed,
            quant: self.quant,
            kv_bits: self.arch.precision_bits,
        };
        KvScheduler::new(
            model,
            sim,
            backend,
            session_config,
            self.kv,
            self.max_active,
        )
        .with_prefill_chunk(self.prefill_chunk_tokens)
        .with_speculation(self.spec_k)
    }
}

/// A snapshot of serving counters: one worker's, or every worker's
/// [merged](ServingStats::merge) by [`DecodeServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingStats {
    /// The scheduler's counters: ticks, decoded tokens, preemptions,
    /// resumes, prefix hits, peak residency, speculation.
    pub sched: KvSchedStats,
    /// Requests fully served (malformed ones are drained, not counted).
    pub served: u64,
    /// Replayed cycles of every tick's merged prefill and step traces
    /// ([`crate::serve::sched::TickOutcome::cost`]) — the requests
    /// served as batches.
    pub batched_cycles: u64,
    /// Replayed cycles of every served request's own prefill and steps
    /// ([`DecodeReply::total`]) — the same requests one at a time.
    pub sequential_cycles: u64,
    /// The simulators' schedule-cache counters: per-token replay
    /// repeats the same GEMM shapes, so after warmup nearly every op
    /// costs a map lookup instead of a tile-plan rebuild.
    pub schedule_cache: ScheduleCacheStats,
}

impl ServingStats {
    /// Adds another snapshot's counters to these.
    pub fn merge(&mut self, other: &ServingStats) {
        self.sched.merge(&other.sched);
        self.served += other.served;
        self.batched_cycles += other.batched_cycles;
        self.sequential_cycles += other.sequential_cycles;
        self.schedule_cache.merge(&other.schedule_cache);
    }
}

/// The continuous-batching decode server. See the [module docs](self).
///
/// ```
/// use lt_core::{GaussianSampler, NativeBackend};
/// use lt_nn::decode::{DecoderConfig, DecoderLm};
/// use lt_nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
///
/// let mut rng = GaussianSampler::new(1);
/// let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
/// let server = DecodeServer::new(model, NativeBackend, DecodeServeConfig::default());
/// let pending = server.submit(DecodeRequest { prompt: vec![1, 2, 3], max_new_tokens: 4 });
/// let reply = pending.wait();
/// assert_eq!(reply.tokens.len(), 4);
/// assert_eq!(reply.steps.len(), 3, "prefill covers the first token");
/// assert!(reply.steps.iter().all(|s| s.cycles > 0), "per-token replayed cost");
/// ```
#[derive(Debug)]
pub struct DecodeServer {
    workers: Workers<Job<DecodeRequest, DecodeReply>>,
    /// One snapshot per worker, overwritten after each of its ticks.
    slots: Arc<[Mutex<ServingStats>]>,
}

impl DecodeServer {
    /// Starts `config.workers` continuous-batching workers, each with
    /// its own clone of the model weights and its own paged KV block
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.kv` is invalid for this model and architecture
    /// (zero block size, or a pool too small to hold one full-context
    /// session — see [`KvServeConfig::validate`]).
    pub fn new<B: ComputeBackend + Clone + Send + 'static>(
        model: DecoderLm,
        backend: B,
        config: DecodeServeConfig,
    ) -> Self {
        // Reject impossible pools on the caller's thread, before any
        // worker starts.
        config.kv.validate(&model.config(), &config.arch);
        let slots: Arc<[Mutex<ServingStats>]> = (0..config.workers.max(1))
            .map(|_| Mutex::default())
            .collect();
        let workers = Workers::spawn(config.workers, config.max_active, "lt-decode-worker", |w| {
            let slots = Arc::clone(&slots);
            let model = model.clone();
            let backend = backend.clone();
            let config = config.clone();
            move |queue: &BatchQueue<Job<DecodeRequest, DecodeReply>>| {
                worker_loop(&model, &backend, &config, queue, &slots[w]);
            }
        });
        DecodeServer { workers, slots }
    }

    /// Enqueues a request; returns immediately with a reply handle
    /// whose [`Pending::wait`] yields the tokens plus prefill and
    /// per-token costs.
    ///
    /// # Panics
    ///
    /// `wait` panics if the server shut down before serving this
    /// request, or if the request was malformed (empty prompt, no new
    /// tokens, context overflow, out-of-vocabulary token; see
    /// [`crate::decode::DecoderConfig::check_request`]) and failed
    /// admission — other requests and the worker are unaffected.
    pub fn submit(&self, request: DecodeRequest) -> Pending<DecodeReply> {
        self.workers.request(request)
    }

    /// Every worker's latest snapshot, merged. A worker publishes its
    /// snapshot after each tick and before it routes that tick's
    /// replies, so a client holding its reply already sees it counted.
    pub fn stats(&self) -> ServingStats {
        let mut total = ServingStats::default();
        for slot in self.slots.iter() {
            total.merge(&slot.lock().expect("stats slot poisoned"));
        }
        total
    }

    /// Drains outstanding requests, stops the workers, and returns the
    /// number of requests served.
    pub fn shutdown(mut self) -> u64 {
        self.workers.join();
        self.stats().served
    }
}

/// The continuous-batching worker: a [`KvScheduler`] over this worker's
/// own block pool does the admission, reservation, preemption, and
/// stepping; the loop feeds it from the shared queue (blocking only
/// when the scheduler is idle), costs every tick, publishes its stats
/// snapshot to `slot`, and routes finished replies back to their
/// clients. Malformed requests (empty prompt, no new tokens, context
/// overflow, out-of-vocabulary token) fail the scheduler's admission
/// check — the offending client's sender is dropped, its `wait` panics
/// with a clear message, and the worker survives.
fn worker_loop<B: ComputeBackend + Clone>(
    model: &DecoderLm,
    backend: &B,
    config: &DecodeServeConfig,
    queue: &BatchQueue<Job<DecodeRequest, DecodeReply>>,
    slot: &Mutex<ServingStats>,
) {
    let sim = Simulator::new(config.arch.clone());
    let mut sched = config.scheduler(model, &sim, backend.clone());
    let mut replies: HashMap<u64, Sender<DecodeReply>> = HashMap::new();
    let mut stats = ServingStats::default();
    loop {
        // Intake: block only when there is nothing to step or resume;
        // top up free in-flight slots without blocking otherwise.
        let admitted = if sched.has_work() {
            queue.try_take(sched.free_slots()).unwrap_or_default()
        } else {
            match queue.next_batch() {
                Some(batch) => batch,
                None => break, // closed and drained
            }
        };
        for (ticket, (request, tx)) in admitted {
            replies.insert(ticket, tx);
            sched.submit(ticket, request);
        }

        // A tick that did nothing is fine only if failed admissions
        // emptied the scheduler; with work left it would spin forever.
        let outcome = sched.tick();
        assert!(
            outcome.is_some() || !sched.has_work(),
            "{}: {sched:?} has work but cannot make progress",
            std::thread::current().name().unwrap_or("decode worker")
        );
        if let Some(cost) = outcome.and_then(|o| o.cost(&sim)) {
            stats.batched_cycles += cost.cycles;
        }
        let finished = sched.drain_finished();
        stats.served += finished.len() as u64;
        stats.sequential_cycles += finished
            .iter()
            .map(|(_, reply)| reply.total().cycles)
            .sum::<u64>();
        stats.sched = *sched.stats();
        stats.schedule_cache = sim.schedule_cache_stats();
        *slot.lock().expect("stats slot poisoned") = stats;

        for (ticket, reply) in finished {
            // A client that dropped its handle just doesn't read it.
            if let Some(tx) = replies.remove(&ticket) {
                let _ = tx.send(reply);
            }
        }
        for ticket in sched.drain_failed() {
            replies.remove(&ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecoderConfig;
    use lt_core::{GaussianSampler, NativeBackend};
    use lt_dptc::DptcBackend;

    fn model() -> DecoderLm {
        let mut rng = GaussianSampler::new(5);
        DecoderLm::new(DecoderConfig::tiny(), &mut rng)
    }

    fn mixed_requests(n: usize) -> Vec<DecodeRequest> {
        (0..n)
            .map(|i| DecodeRequest {
                prompt: (0..(3 + i % 4)).map(|t| (i + t) % 16).collect(),
                max_new_tokens: 2 + i % 5,
            })
            .collect()
    }

    fn serve_all<B: ComputeBackend + Clone + Send + 'static>(
        backend: B,
        cfg: DecodeServeConfig,
        requests: &[DecodeRequest],
    ) -> Vec<DecodeReply> {
        let server = DecodeServer::new(model(), backend, cfg);
        let pending: Vec<Pending<DecodeReply>> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies: Vec<DecodeReply> = pending.into_iter().map(Pending::wait).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    }

    #[test]
    fn serves_mixed_decode_requests_with_per_token_costs() {
        let requests = mixed_requests(9);
        let replies = serve_all(NativeBackend, DecodeServeConfig::default(), &requests);
        for (req, r) in requests.iter().zip(&replies) {
            assert_eq!(r.tokens.len(), req.max_new_tokens);
            assert_eq!(r.steps.len(), req.max_new_tokens - 1);
            assert!(r.tokens.iter().all(|&t| t < 16));
            assert!(r.prefill.cycles > 0);
            assert!(r.steps.iter().all(|s| s.cycles > 0 && s.edp() > 0.0));
            assert!(r.kv_cache_bytes > 0);
            // Every per-token report says where its window went.
            assert!(r
                .steps
                .iter()
                .all(|s| s.utilization > 0.0 && s.stalls.total().value() > 0.0));
        }
    }

    #[test]
    fn replies_do_not_depend_on_worker_count_or_batch_width() {
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let base = serve_all(
            backend.clone(),
            DecodeServeConfig {
                workers: 1,
                max_active: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        for (workers, max_active) in [(2, 4), (4, 8)] {
            let got = serve_all(
                backend.clone(),
                DecodeServeConfig {
                    workers,
                    max_active,
                    ..DecodeServeConfig::default()
                },
                &requests,
            );
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a, b, "workers={workers} max_active={max_active}");
            }
        }
    }

    #[test]
    fn a_malformed_request_does_not_poison_the_batch_or_the_worker() {
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
        );
        let good_before = server.submit(DecodeRequest {
            prompt: vec![1, 2],
            max_new_tokens: 2,
        });
        let bad = server.submit(DecodeRequest {
            prompt: vec![],
            max_new_tokens: 2,
        });
        let overflow = server.submit(DecodeRequest {
            prompt: vec![0; 40],
            max_new_tokens: 20,
        });
        let good_after = server.submit(DecodeRequest {
            prompt: vec![3, 4, 5],
            max_new_tokens: 3,
        });
        assert_eq!(good_before.wait().tokens.len(), 2);
        assert_eq!(good_after.wait().tokens.len(), 3, "worker survived");
        assert!(std::panic::catch_unwind(move || bad.wait()).is_err());
        assert!(std::panic::catch_unwind(move || overflow.wait()).is_err());
        assert_eq!(server.shutdown(), 2, "only the good requests count");
    }

    #[test]
    fn speculative_serving_replies_are_bit_identical_on_a_noisy_backend() {
        // The whole serving stack at k = 4 against the plain path, on
        // the noisy DPTC backend: speculation must change cycles and
        // counters, never replies — tokens, per-token costs, KV bytes.
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let plain = serve_all(
            backend.clone(),
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        let server = DecodeServer::new(
            model(),
            backend,
            DecodeServeConfig {
                workers: 1,
                spec_k: 4,
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<Pending<DecodeReply>> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let spec: Vec<DecodeReply> = pending.into_iter().map(Pending::wait).collect();
        assert_eq!(plain, spec, "speculation never changes a reply");
        let stats = server.stats().sched;
        assert!(stats.spec.proposed > 0, "speculation must have run");
        assert!(stats.spec.accepted <= stats.spec.proposed);
        assert!(stats.spec.draft_cycles > 0, "draft overhead is itemized");
        assert_eq!(
            stats.decoded_tokens,
            plain.iter().map(|r| r.steps.len() as u64).sum()
        );
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "cannot hold one max_seq")]
    fn a_pool_too_small_for_one_session_is_rejected_before_workers_start() {
        let _ = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                kv: KvServeConfig {
                    block_tokens: 16,
                    pool_blocks: 2, // tiny() needs ceil(48/16) + 1 = 4
                    ..KvServeConfig::default()
                },
                ..DecodeServeConfig::default()
            },
        );
    }

    #[test]
    fn a_pressured_server_preempts_but_replies_are_unchanged() {
        // Same requests through an ample pool and a starved pool: the
        // starved server must preempt (memory pressure is real) yet
        // reply bit-identically (swap-out moves bytes, not values).
        // Small prompts admit cheaply, then every context grows to 7
        // blocks — 8 x 7 = 56 blocks against a 25-block pool.
        let requests: Vec<DecodeRequest> = (0..8)
            .map(|i| DecodeRequest {
                prompt: vec![i % 16, (i + 3) % 16],
                max_new_tokens: 12,
            })
            .collect();
        let roomy = serve_all(
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                kv: KvServeConfig {
                    block_tokens: 2,
                    pool_blocks: 25,
                    ..KvServeConfig::default()
                },
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<Pending<DecodeReply>> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let tight: Vec<DecodeReply> = pending.into_iter().map(Pending::wait).collect();
        let stats = server.stats().sched;
        assert!(stats.preemptions > 0, "the small pool must evict");
        assert_eq!(stats.preemptions, stats.resumes);
        assert!(stats.peak_resident_sessions >= 2, "still batching");
        server.shutdown();
        assert_eq!(
            roomy, tight,
            "preemption may delay tokens, never change them"
        );
    }

    #[test]
    fn continuous_admission_interleaves_requests_mid_flight() {
        // One worker, wide batch: submit a long request, then while it
        // decodes, short ones join and finish — continuous batching (the
        // realized batch width exceeds 1 even with a single worker).
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                max_active: 8,
                ..DecodeServeConfig::default()
            },
        );
        let long = server.submit(DecodeRequest {
            prompt: vec![1, 2, 3],
            max_new_tokens: 12,
        });
        let shorts: Vec<_> = (0..6)
            .map(|i| {
                server.submit(DecodeRequest {
                    prompt: vec![i % 16, (i + 1) % 16],
                    max_new_tokens: 3,
                })
            })
            .collect();
        assert_eq!(long.wait().tokens.len(), 12);
        for s in shorts {
            assert_eq!(s.wait().tokens.len(), 3);
        }
        let stats = server.stats();
        assert_eq!(stats.served, 7);
        assert!(stats.sched.ticks > 0);
        assert!(
            stats.sched.decoded_tokens >= stats.sched.ticks,
            "width >= 1"
        );
        assert!(stats.batched_cycles <= stats.sequential_cycles);
        server.shutdown();
    }
}
