//! Property-style tests for the paged KV-cache subsystem (`lt_nn::kv`)
//! and its memory-pressure scheduler.
//!
//! Like `tests/properties.rs`, these sweep seeded random cases instead
//! of using a property-testing crate (no crates.io in the container):
//! every failure prints the seed/case that produced it.
//!
//! The invariants:
//! 1. block-pool alloc/retain/release bookkeeping matches a trivial
//!    mirror model under random operation sequences;
//! 2. copy-on-write never lets one session's writes reach another
//!    session's view of a shared prefix;
//! 3. pool exhaustion always evicts the *highest-ticket* (most recently
//!    admitted) resident session;
//! 4. a preempted-and-resumed decode is bit-identical to an
//!    uninterrupted one — under swap-out for a *noisy* backend, and
//!    under recompute for a deterministic one;
//! 5. a session decodes bit-identically on its private one-block cache
//!    (`DecoderLm::empty_cache`) and on a shared pool of any block size
//!    large enough to avoid preemption, up to a session that fills the
//!    whole context window (the acceptance cross-validation);
//! 6. every token written to a session's KV cache, recomputed ones
//!    included, is charged to a tick's traces exactly once.

use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::core::{ComputeBackend, NonGemmKind, Op};
use lightening_transformer::core::{GaussianSampler, NativeBackend};
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{
    DecodeReply, DecodeSession, DecoderConfig, DecoderLm, SessionConfig,
};
use lightening_transformer::nn::kv::{BlockPool, PagedKvCache, PreemptPolicy, PrefixIndex};
use lightening_transformer::nn::serve::decode::DecodeRequest;
use lightening_transformer::nn::serve::sched::{KvScheduler, KvServeConfig};
use lightening_transformer::nn::Tensor;

fn model() -> DecoderLm {
    let mut rng = GaussianSampler::new(17);
    DecoderLm::new(DecoderConfig::tiny(), &mut rng)
}

/// Invariant 1: the pool's refcount/free bookkeeping matches a mirror
/// model under random alloc/retain/release sequences.
#[test]
fn pool_bookkeeping_matches_a_mirror_model_under_random_ops() {
    for seed in 0..10u64 {
        let mut rng = GaussianSampler::new(300 + seed);
        let total = 4 + rng.below(12);
        let pool = BlockPool::new(total, 2, 4, 3);
        let mut mirror = vec![0u32; total];
        // Handles we hold, with multiplicity (a block appears once per
        // reference we own).
        let mut held: Vec<usize> = Vec::new();
        for step in 0..400 {
            match rng.below(3) {
                0 => match pool.alloc() {
                    Some(id) => {
                        assert_eq!(mirror[id], 0, "seed {seed} step {step}: reused live block");
                        mirror[id] = 1;
                        held.push(id);
                    }
                    None => {
                        assert!(
                            mirror.iter().all(|&c| c > 0),
                            "seed {seed} step {step}: alloc failed with free blocks"
                        );
                    }
                },
                1 if !held.is_empty() => {
                    let id = held[rng.below(held.len())];
                    pool.retain(id);
                    mirror[id] += 1;
                    held.push(id);
                }
                2 if !held.is_empty() => {
                    let i = rng.below(held.len());
                    let id = held.swap_remove(i);
                    let freed = pool.release(id);
                    mirror[id] -= 1;
                    assert_eq!(freed, mirror[id] == 0, "seed {seed} step {step}");
                }
                _ => {}
            }
            let free = mirror.iter().filter(|&&c| c == 0).count();
            assert_eq!(pool.free_blocks(), free, "seed {seed} step {step}");
            assert_eq!(pool.used_blocks(), total - free, "seed {seed} step {step}");
            for (id, &c) in mirror.iter().enumerate() {
                assert_eq!(pool.refcount(id), c, "seed {seed} step {step} block {id}");
            }
        }
    }
}

/// Invariant 2: once a prefix is shared, neither the owner's nor the
/// borrower's further writes can change what the other reads.
#[test]
fn cow_never_aliases_writes_into_a_shared_prefix() {
    for seed in 0..12u64 {
        let mut rng = GaussianSampler::new(400 + seed);
        let dim = 4;
        let pool = BlockPool::new(64, 1, dim, 3);
        let mut index = PrefixIndex::new();

        let shared_tokens = 4 + rng.below(7);
        let prompt: Vec<usize> = (0..shared_tokens).map(|i| i % 16).collect();
        let mut a = PagedKvCache::new(&pool);
        let rows = Tensor::from_fn(shared_tokens, dim, |i, j| {
            (seed * 100) as f32 + (i * dim + j) as f32
        });
        a.layer_mut(0).append(&rows, &rows);
        index.register(&pool, &prompt, a.block_refs(shared_tokens));

        let prefix = index.lookup(&pool, &prompt).expect("registered and live");
        let mut b = PagedKvCache::with_shared_prefix(&pool, prefix);
        let skipped = Tensor::from_fn(shared_tokens, dim, |_, _| -1.0);
        let w = b.layer_mut(0).append(&skipped, &skipped);
        assert_eq!(w.rows_written, 0, "seed {seed}: borrowed rows rewritten");

        let snapshot = a.layer_mut(0).context().0;
        // Interleave random appends from both sessions.
        for step in 0..(2 + rng.below(6)) {
            let (who, mark) = if rng.below(2) == 0 {
                (&mut a, 1000.0)
            } else {
                (&mut b, 2000.0)
            };
            let t = 1 + rng.below(2);
            if who.len() + t > 24 {
                continue;
            }
            let x = Tensor::from_fn(t, dim, |i, j| mark + (step * 10 + i * dim + j) as f32);
            who.layer_mut(0).append(&x, &x);
        }
        // The shared prefix reads back unchanged from both sides.
        let a_now = a.layer_mut(0).context().0;
        let b_now = b.layer_mut(0).context().0;
        for pos in 0..shared_tokens {
            for j in 0..dim {
                assert_eq!(
                    a_now.get(pos, j),
                    snapshot.get(pos, j),
                    "seed {seed}: owner prefix"
                );
                assert_eq!(
                    b_now.get(pos, j),
                    snapshot.get(pos, j),
                    "seed {seed}: borrower prefix"
                );
            }
        }
        // Past the prefix, each session sees only its own marks.
        for (label, t) in [("owner", &mut a), ("borrower", &mut b)] {
            let keys = t.layer_mut(0).context().0;
            let own_mark = if label == "owner" { 1000.0 } else { 2000.0 };
            for pos in shared_tokens..t.len() {
                let v = keys.get(pos, 0);
                assert!(
                    (own_mark..own_mark + 100.0).contains(&v),
                    "seed {seed}: {label} row {pos} holds foreign value {v}"
                );
            }
        }
    }
}

/// Invariant 3: whenever the reserve phase must evict, the victim is
/// the highest-ticket resident session — under random loads, block
/// sizes, and pool sizes.
#[test]
fn exhaustion_always_evicts_the_highest_ticket_resident() {
    let m = model();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let mut saw_pressure = false;
    for seed in 0..6u64 {
        let mut rng = GaussianSampler::new(500 + seed);
        let block_tokens = [1, 2, 4][rng.below(3)];
        let min_blocks = DecoderConfig::tiny().max_seq.div_ceil(block_tokens) + 1;
        let kv = KvServeConfig {
            block_tokens,
            pool_blocks: min_blocks + rng.below(6),
            preempt: PreemptPolicy::SwapOut,
            ..KvServeConfig::default()
        };
        let mut sched = KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 8);
        let n = 5 + rng.below(5);
        for t in 0..n as u64 {
            let plen = 1 + rng.below(6);
            sched.submit(
                t,
                DecodeRequest {
                    prompt: (0..plen).map(|i| (i + seed as usize) % 16).collect(),
                    max_new_tokens: 2 + rng.below(10),
                },
            );
        }
        let mut finished = 0;
        while sched.has_work() {
            sched.tick();
            finished += sched.drain_finished().len();
        }
        assert_eq!(finished, n, "seed {seed}: every request must complete");
        saw_pressure |= sched.stats().preemptions > 0;
        for ev in sched.preemption_events() {
            assert_eq!(
                Some(ev.victim),
                ev.resident.iter().copied().max(),
                "seed {seed}: eviction must take the most recent admission"
            );
        }
        assert_eq!(sched.pool().used_blocks(), 0, "seed {seed}: blocks leaked");
    }
    assert!(saw_pressure, "the sweep never exercised pool exhaustion");
}

fn serve_through_pool<B: ComputeBackend + Clone>(
    m: &DecoderLm,
    sim: &Simulator,
    backend: B,
    kv: KvServeConfig,
    requests: &[DecodeRequest],
) -> (Vec<DecodeReply>, u64) {
    let mut sched = KvScheduler::new(m, sim, backend, SessionConfig::default(), kv, 16);
    for (t, r) in requests.iter().enumerate() {
        sched.submit(t as u64, r.clone());
    }
    let mut replies = Vec::new();
    while sched.has_work() {
        sched.tick();
        replies.extend(sched.drain_finished());
    }
    replies.sort_by_key(|&(t, _)| t);
    let preemptions = sched.stats().preemptions;
    (replies.into_iter().map(|(_, r)| r).collect(), preemptions)
}

/// Invariant 4: preemption changes scheduling, never results. A starved
/// pool (which must evict) serves the same replies as an ample one —
/// swap-out restores a noisy backend's cache bit for bit, and recompute
/// rebuilds a deterministic backend's cache exactly.
#[test]
fn preempted_decode_is_bit_identical_to_uninterrupted_decode() {
    let m = model();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let requests: Vec<DecodeRequest> = (0..7)
        .map(|i| DecodeRequest {
            prompt: vec![(i * 2) % 16, (i + 5) % 16],
            max_new_tokens: 10,
        })
        .collect();
    let roomy = KvServeConfig {
        block_tokens: 2,
        pool_blocks: 512,
        ..KvServeConfig::default()
    };
    for (label, preempt) in [
        ("swap-out under a noisy backend", PreemptPolicy::SwapOut),
        (
            "recompute under a deterministic backend",
            PreemptPolicy::Recompute,
        ),
    ] {
        let tight = KvServeConfig {
            block_tokens: 2,
            pool_blocks: 25, // min for max_seq 48 — guaranteed pressure
            preempt,
            ..KvServeConfig::default()
        };
        let (base, tight_replies, evictions) = match preempt {
            PreemptPolicy::SwapOut => {
                let backend = DptcBackend::paper(8, 3);
                let (base, p0) = serve_through_pool(&m, &sim, backend.clone(), roomy, &requests);
                assert_eq!(p0, 0, "the roomy pool must not evict");
                let (tight_replies, p1) = serve_through_pool(&m, &sim, backend, tight, &requests);
                (base, tight_replies, p1)
            }
            PreemptPolicy::Recompute => {
                let (base, p0) = serve_through_pool(&m, &sim, NativeBackend, roomy, &requests);
                assert_eq!(p0, 0, "the roomy pool must not evict");
                let (tight_replies, p1) =
                    serve_through_pool(&m, &sim, NativeBackend, tight, &requests);
                (base, tight_replies, p1)
            }
        };
        assert!(evictions > 0, "{label}: the tight pool must evict");
        assert_eq!(base, tight_replies, "{label}: replies must not change");
    }
}

/// One request decoded at depth `k` (plain steps at 0) twice: on the
/// private one-block cache of `DecodeSession::new` and on a cache over
/// the shared `pool`. Checks that the pool drains.
fn private_and_shared_replies<B: ComputeBackend + Clone>(
    m: &DecoderLm,
    backend: B,
    (ticket, prompt, max_new): (u64, &[usize], usize),
    k: usize,
    pool: &BlockPool,
) -> [DecodeReply; 2] {
    let draft = m.draft();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let config = SessionConfig::default();
    let sessions = [
        DecodeSession::new(m, ticket, prompt.to_vec(), max_new, backend.clone(), config),
        DecodeSession::new_paged(
            m,
            ticket,
            prompt.to_vec(),
            max_new,
            backend,
            config,
            PagedKvCache::new(pool),
        ),
    ];
    let replies = sessions.map(|mut s| {
        s.prefill(m, &sim);
        while !s.is_done() {
            if k == 0 {
                s.step(m, &sim);
            } else {
                s.spec_step(m, &draft, &sim, k);
            }
        }
        s.into_reply()
    });
    assert_eq!(pool.used_blocks(), 0, "the shared pool drains");
    replies
}

/// Invariant 5 (the acceptance cross-validation): for any block size,
/// a session on a shared pool large enough to avoid preemption is
/// bit-identical to the same session on its private one-block cache
/// (`DecodeSession::new`) — tokens, per-token costs, and KV byte
/// accounting.
#[test]
fn a_shared_pool_is_bit_identical_to_the_private_cache_for_every_block_size() {
    let m = model();
    let cfg = m.config();
    for block_tokens in [1, 3, 16] {
        let pool = BlockPool::new(200, cfg.layers, cfg.dim, block_tokens);
        for request in [(0u64, &[1usize, 2, 3, 4, 5][..], 6), (9, &[7, 7, 1], 12)] {
            let backend = DptcBackend::paper(8, 5);
            let [private, shared] = private_and_shared_replies(&m, backend, request, 0, &pool);
            assert_eq!(private, shared, "block_tokens={block_tokens}");
        }
    }
}

/// Invariant 5 at the window's edge: a request that fills the whole
/// context window (`prompt + max_new - 1 == max_seq`: 40 + 9 on the
/// tiny decoder) fits the private cache's one block exactly, plain and
/// speculative (the draft keeps a private cache too), on the exact and
/// the noisy backend, and decodes as on a shared pool of 4-token blocks
/// exactly that large.
#[test]
fn a_session_that_fills_the_window_decodes_alike_on_private_and_shared_caches() {
    let m = model();
    let cfg = m.config();
    let prompt: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let request = (5, &prompt[..], cfg.max_seq + 1 - prompt.len());
    let pool = BlockPool::new(cfg.max_seq / 4, cfg.layers, cfg.dim, 4);
    for k in [0, 4] {
        let [private, shared] = private_and_shared_replies(&m, NativeBackend, request, k, &pool);
        assert_eq!(private.tokens.len(), 9);
        assert_eq!(private, shared, "exact backend, k {k}");
        let noisy = DptcBackend::paper(8, 5);
        let [private, shared] = private_and_shared_replies(&m, noisy, request, k, &pool);
        assert_eq!(private, shared, "noisy backend, k {k}");
    }
}

/// Invariant 6: the `KvAppend` elements of every tick's prefill and step
/// traces add up to two K/V rows per layer for every token a session
/// feeds (`prompt + max_new - 1`) plus every token a recompute resume
/// feeds again — on a starved pool, under both preemption policies,
/// unchunked and chunked. Plain decoding with prefix sharing off: a
/// borrowed prefix skips writes, and a charged verify pass appends rows
/// that rejection rolls back.
#[test]
fn every_kv_write_is_charged_to_exactly_one_tick() {
    let m = model();
    let cfg = m.config();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let requests: Vec<DecodeRequest> = (0..7)
        .map(|i| DecodeRequest {
            prompt: (0..5).map(|t| (i * 3 + t) % 16).collect(),
            max_new_tokens: 10,
        })
        .collect();
    let fed: u64 = requests
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens - 1) as u64)
        .sum();
    for preempt in [PreemptPolicy::SwapOut, PreemptPolicy::Recompute] {
        for chunk in [0, 3] {
            let kv = KvServeConfig {
                block_tokens: 2,
                pool_blocks: 25,
                preempt,
                ..KvServeConfig::default()
            };
            let mut sched =
                KvScheduler::new(&m, &sim, NativeBackend, SessionConfig::default(), kv, 16)
                    .with_prefill_chunk(chunk);
            for (t, r) in requests.iter().enumerate() {
                sched.submit(t as u64, r.clone());
            }
            let mut appended = 0;
            while sched.has_work() {
                let tick = sched.tick().expect("a starved pool still makes progress");
                for op in tick
                    .prefill_traces
                    .iter()
                    .chain(&tick.step_traces)
                    .flat_map(|t| t.ops())
                {
                    if let Op::NonGemm {
                        kind: NonGemmKind::KvAppend,
                        elems,
                    } = *op
                    {
                        appended += elems;
                    }
                }
                sched.drain_finished();
            }
            let stats = sched.stats();
            assert!(
                stats.preemptions > 0,
                "{preempt:?} chunk {chunk}: no pressure"
            );
            let want = 2 * (cfg.dim * cfg.layers) as u64 * (fed + stats.recompute_tokens);
            assert_eq!(appended, want, "{preempt:?} chunk {chunk}");
        }
    }
}
