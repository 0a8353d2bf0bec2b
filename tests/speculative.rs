//! The speculative-decoding contract, end to end.
//!
//! Greedy draft + greedy verify + KV rollback must leave the output
//! stream **bit-identical** to plain greedy decode — for every
//! speculation depth, every backend (deterministic native and noisy
//! photonic), a session's private one-block cache and a shared block
//! pool, and any `ParallelBackend` thread count. Speculation may only
//! change *how fast* tokens are produced (scheduler ticks, replayed
//! cycles), never *which* tokens. These tests pin that contract plus
//! the rollback bookkeeping: a speculative session's paged cache never
//! leaks a block — after every step the `BlockPool` free count matches
//! the committed context exactly, and a drained pool ends full — and
//! the copy-on-write of a shared tail block, charged once to the
//! verify pass.

mod common;

use common::{fnv1a, trace_words};
use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::core::{ComputeBackend, GaussianSampler, NativeBackend};
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{
    DecodeReply, DecodeSession, DecoderConfig, DecoderLm, SessionConfig, SpecSessionStats,
};
use lightening_transformer::nn::kv::{BlockPool, PagedKvCache};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig};
use lightening_transformer::nn::serve::lifecycle::SloFrontend;
use lightening_transformer::nn::serve::sched::{KvScheduler, KvServeConfig};
use lightening_transformer::runtime::loadgen::LoadgenConfig;
use lightening_transformer::runtime::ParallelBackend;

const SPEC_KS: [usize; 4] = [1, 2, 4, 8];
const PROMPT: [usize; 5] = [3, 1, 4, 1, 5];
const MAX_NEW: usize = 10;

/// The tapered target (deep blocks scaled so the self-speculative
/// draft agrees at a useful rate; bit-identity must hold regardless).
fn tapered_model(seed: u64) -> DecoderLm {
    let mut rng = GaussianSampler::new(seed);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    model.taper_deep_blocks(0.25);
    model
}

/// Runs one session to completion — plain steps at `k == 0`,
/// speculative steps otherwise — on a cache over the shared `pool`, or
/// on the session's private cache (`DecoderLm::empty_cache`, what
/// `DecodeSession::new` uses) when `pool` is `None`.
fn run<B: ComputeBackend + Clone>(
    model: &DecoderLm,
    backend: B,
    k: usize,
    pool: Option<&BlockPool>,
) -> DecodeReply {
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let draft = model.draft();
    let cache = pool.map_or_else(|| model.empty_cache(), PagedKvCache::new);
    let mut session = DecodeSession::new_paged(
        model,
        0,
        PROMPT.to_vec(),
        MAX_NEW,
        backend,
        SessionConfig::default(),
        cache,
    );
    session.prefill(model, &sim);
    while !session.is_done() {
        if k == 0 {
            session.step(model, &sim);
        } else {
            session.spec_step(model, &draft, &sim, k);
        }
    }
    session.into_reply()
}

#[test]
fn speculative_decode_is_bit_identical_on_private_caches() {
    // Full-reply equality (tokens AND per-token replayed costs AND KV
    // footprint) across seeds, depths, and both backend families.
    for seed in [1u64, 9, 23] {
        let model = tapered_model(seed);
        let exact = run(&model, NativeBackend, 0, None);
        let noisy = run(&model, DptcBackend::paper(8, 3), 0, None);
        assert_eq!(exact.tokens.len(), MAX_NEW);
        for k in SPEC_KS {
            assert_eq!(
                run(&model, NativeBackend, k, None),
                exact,
                "native backend diverged at seed {seed}, k={k}"
            );
            assert_eq!(
                run(&model, DptcBackend::paper(8, 3), k, None),
                noisy,
                "noisy DPTC backend diverged at seed {seed}, k={k}"
            );
        }
    }
}

#[test]
fn speculative_decode_is_bit_identical_on_paged_caches() {
    let config = DecoderConfig::tiny();
    for seed in [5u64, 17] {
        let model = tapered_model(seed);
        // A roomy pool: the contract under pressure is the scheduler
        // tests' business; here the session on the shared pool must
        // match both its plain sibling there and its private-cache one.
        let pool = BlockPool::new(64, config.layers, config.dim, 4);
        let exact = run(&model, NativeBackend, 0, Some(&pool));
        assert_eq!(
            exact,
            run(&model, NativeBackend, 0, None),
            "plain decode on the shared pool must match the private cache (seed {seed})"
        );
        let noisy = run(&model, DptcBackend::paper(8, 3), 0, Some(&pool));
        for k in SPEC_KS {
            assert_eq!(
                run(&model, NativeBackend, k, Some(&pool)),
                exact,
                "native paged diverged at seed {seed}, k={k}"
            );
            assert_eq!(
                run(&model, DptcBackend::paper(8, 3), k, Some(&pool)),
                noisy,
                "noisy paged diverged at seed {seed}, k={k}"
            );
        }
        assert_eq!(
            pool.used_blocks(),
            0,
            "finished sessions must free all blocks"
        );
    }
}

#[test]
fn rollback_restores_the_block_pool_free_count_exactly() {
    // After every speculative step the session's cache must hold
    // exactly the committed context — only the replayed positions were
    // written, so no rejected row and no speculative tail block
    // survives — and the pool's free count must be the total minus what
    // that context needs. No leak, no slack.
    let config = DecoderConfig::tiny();
    // Untapered target on the noisy backend, on purpose: draft and
    // target greedy streams disagree often, so rounds have tail blocks
    // to roll back (bit-identity is the other tests' subject). Seed 5
    // yields both accepted and rolled-back proposals.
    let mut rng = GaussianSampler::new(5);
    let model = DecoderLm::new(config, &mut rng);
    let draft = model.draft();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let pool = BlockPool::new(64, config.layers, config.dim, 4);
    let cache = PagedKvCache::new(&pool);
    let mut session = DecodeSession::new_paged(
        &model,
        0,
        PROMPT.to_vec(),
        MAX_NEW,
        DptcBackend::paper(8, 9),
        SessionConfig::default(),
        cache,
    );
    session.prefill(&model, &sim);
    let mut stats = SpecSessionStats::default();
    while !session.is_done() {
        let report = session.spec_step(&model, &draft, &sim, 4);
        stats.merge(&report.stats_delta());
        assert!(
            report.outcome.rollback <= 4,
            "at most k proposals roll back"
        );
        let kv = session.paged_kv();
        // The cache holds everything *fed*: the prompt plus all sampled
        // tokens except the newest, which is fed by the next step.
        let context = PROMPT.len() + session.tokens().len() - 1;
        assert_eq!(kv.len(), context, "cache must hold exactly the context");
        let needed = context.div_ceil(pool.block_tokens());
        assert_eq!(
            kv.resident_blocks(),
            needed,
            "no speculative tail block survives"
        );
        assert_eq!(
            pool.free_blocks(),
            pool.total_blocks() - needed,
            "rollback must restore the pool free count exactly"
        );
    }
    assert!(stats.rolled_back > 0, "the sweep must exercise rollback");
    assert!(
        stats.accepted > 0,
        "and partial acceptance, not just misses"
    );
    drop(session);
    assert_eq!(pool.free_blocks(), pool.total_blocks(), "pool drains full");
}

#[test]
fn the_spec_serving_report_is_invariant_to_gemm_thread_count() {
    // The whole speculative ServingReport — acceptance counters, draft
    // overhead, percentiles, every timestamp — must not move when the
    // photonic GEMMs fan out across 1/2/4/8 threads.
    let trace = LoadgenConfig::smoke(11, 10).generate();
    let model = tapered_model(3);
    let arch = ArchConfig::lt_base(8);
    let sim = Simulator::new(arch.clone());
    let config = DecodeServeConfig {
        max_active: 4,
        arch: arch.clone(),
        kv: KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        },
        spec_k: 4,
        ..DecodeServeConfig::default()
    };
    let run = |threads: usize| {
        let backend =
            ParallelBackend::new(DptcBackend::paper(8, 17), threads).with_min_parallel_macs(0);
        SloFrontend::new(&model, &sim, backend, &config).run_open(&trace)
    };
    let (base_records, base_report) = run(1);
    let spec = base_report.spec;
    assert!(spec.spec_steps > 0, "speculation must actually run");
    assert!(spec.proposed > 0);
    assert!(spec.draft_cycles > 0);
    for threads in [2usize, 4, 8] {
        let (records, report) = run(threads);
        assert_eq!(report, base_report, "report diverged at {threads} threads");
        assert_eq!(
            records, base_records,
            "records diverged at {threads} threads"
        );
    }
}

/// Runs six requests through a prefix-sharing scheduler at speculation
/// depth `k` (`0` = plain steps) over a pool of `pool_blocks` 4-token
/// blocks. Their 6-token prompts come in two groups of three, so every
/// borrower shares its group's partial second block and the first KV
/// write past the prompt pays a copy-on-write. Returns the digest of
/// every tick's cost and step traces and of every reply, the replies,
/// and the pool's copy-on-write and the scheduler's preemption counts.
fn run_shared_tail(k: usize, pool_blocks: usize) -> (u64, Vec<(u64, DecodeReply)>, u64, u64) {
    let model = tapered_model(13);
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let kv = KvServeConfig {
        block_tokens: 4,
        pool_blocks,
        prefix_sharing: true,
        ..KvServeConfig::default()
    };
    let mut sched = KvScheduler::new(&model, &sim, NativeBackend, SessionConfig::default(), kv, 6)
        .with_speculation(k);
    for ticket in 0..6u64 {
        let group = ticket as usize % 2;
        sched.submit(
            ticket,
            DecodeRequest {
                prompt: (0..6).map(|t| (t * 5 + 3 * group + 1) % 16).collect(),
                max_new_tokens: 12 + ticket as usize,
            },
        );
    }
    let mut words = Vec::new();
    let mut replies = Vec::new();
    while let Some(tick) = sched.tick() {
        let cost = tick.cost(&sim).expect("every tick runs work");
        words.extend(format!("{cost:?}").bytes().map(u64::from));
        for trace in &tick.step_traces {
            words.extend(trace_words(trace));
        }
        replies.extend(sched.drain_finished());
    }
    assert!(!sched.has_work(), "the run drains");
    replies.sort_by_key(|&(ticket, _)| ticket);
    words.extend(format!("{replies:?}").bytes().map(u64::from));
    assert_eq!(sched.pool().used_blocks(), 0, "all blocks returned");
    let cow = sched.pool().stats().cow_copies;
    (fnv1a(words), replies, cow, sched.stats().preemptions)
}

#[test]
fn speculation_over_a_shared_tail_block_is_pinned_bit_for_bit() {
    // Prefix sharing plus speculation: every session's first write past
    // its prompt lands in a shared partial block, so its first
    // speculative step pays a copy-on-write. The tick is charged the
    // copy once, in that step's verify trace; the reply charges it to
    // the first replayed step, as plain decoding does, so on the roomy
    // pool whole replies equal plain decoding's. On a 20-block pool
    // that preempts, a shared tail can be swapped out before its first
    // write (and come back private), so there only tokens and
    // footprints are compared. The digests were taken when the reply
    // first charged the copy.
    let want: [((usize, usize), u64); 6] = [
        ((2, 64), 0x5740_2889_451a_d6ba),
        ((3, 64), 0x77d0_e4fc_1001_d9f0),
        ((4, 64), 0xb31f_eadc_9b36_fc9d),
        ((2, 20), 0xe8a5_54b9_7852_d6cc),
        ((3, 20), 0xacc8_2602_d14c_b6ef),
        ((4, 20), 0x80ee_5ee3_7883_1c40),
    ];
    let mut got = Vec::new();
    for pool_blocks in [64, 20] {
        let (_, plain, plain_cow, _) = run_shared_tail(0, pool_blocks);
        assert_eq!(plain.len(), 6);
        assert!(
            plain_cow > 0,
            "pool {pool_blocks}: the tail block is shared"
        );
        for k in [2, 3, 4] {
            let (digest, replies, cow, preemptions) = run_shared_tail(k, pool_blocks);
            if pool_blocks == 64 {
                assert_eq!(replies, plain, "k {k}: a reply differs from plain decoding");
            }
            for ((_, a), (_, b)) in replies.iter().zip(&plain) {
                assert_eq!(
                    a.tokens, b.tokens,
                    "k {k}, pool {pool_blocks}: a token moved"
                );
                assert_eq!(a.kv_cache_bytes, b.kv_cache_bytes);
            }
            assert!(cow > 0, "k {k}, pool {pool_blocks}: no copy-on-write ran");
            assert_eq!(
                preemptions > 0,
                pool_blocks == 20,
                "k {k}, pool {pool_blocks}: only the small pool preempts"
            );
            got.push(((k, pool_blocks), digest));
        }
    }
    assert_eq!(got, want, "speculative ticks or replies moved");
}
