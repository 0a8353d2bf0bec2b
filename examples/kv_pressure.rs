//! Paged KV cache under memory pressure, end to end: the same request
//! stream served twice through [`DecodeServer`] — once with a roomy
//! block pool (nothing is ever evicted) and once with a pool squeezed
//! to the legal minimum, where sessions' growing contexts force the
//! scheduler to preempt (swap out) and later resume residents.
//!
//! The run asserts the subsystem's core promise: preemption changes
//! *scheduling*, never *results*. Every reply from the starved server —
//! token streams, per-token replayed costs, KV footprints — is
//! bit-identical to the roomy server's, even though the noisy photonic
//! backend makes any recompute-style shortcut detectable.
//!
//! ```sh
//! cargo run --release --example kv_pressure
//! LT_KV_SESSIONS=8 cargo run --release --example kv_pressure   # bounded (CI smoke)
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
use lightening_transformer::nn::serve::sched::{KvSchedStats, KvServeConfig};

/// Concurrent sessions; override with `LT_KV_SESSIONS` (CI smoke runs 8).
fn total_sessions() -> usize {
    std::env::var("LT_KV_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
        .max(2)
}

/// Short prompts, long generations: admission is cheap, but every
/// session's context grows well past its prompt — the shape that turns
/// a tight pool into genuine eviction pressure instead of mere
/// admission back-pressure.
fn make_request(i: usize) -> DecodeRequest {
    DecodeRequest {
        prompt: vec![(i * 5) % 16, (i + 3) % 16],
        max_new_tokens: 12,
    }
}

fn serve(label: &str, kv: KvServeConfig, total: usize) -> (Vec<DecodeReply>, KvSchedStats) {
    let mut rng = GaussianSampler::new(42);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let server = DecodeServer::new(
        model,
        DptcBackend::paper(8, 7),
        DecodeServeConfig {
            workers: 1,
            max_active: total,
            seed: 7,
            kv,
            ..DecodeServeConfig::default()
        },
    );
    let pending: Vec<_> = (0..total).map(|i| server.submit(make_request(i))).collect();
    let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
    let stats = server.stats().sched;
    println!(
        "{label}: {} blocks x {} tokens -> peak {} resident, {} preemptions, {} resumes",
        kv.pool_blocks,
        kv.block_tokens,
        stats.peak_resident_sessions,
        stats.preemptions,
        stats.resumes,
    );
    server.shutdown();
    (replies, stats)
}

fn main() {
    let total = total_sessions();
    let block_tokens = 2;
    let max_seq = DecoderConfig::tiny().max_seq;
    // The legal minimum: one max-length session plus one spare block.
    let min_blocks = max_seq.div_ceil(block_tokens) + 1;

    println!("serving {total} concurrent sessions twice (LT-B 8-bit, swap-out preemption):");
    let roomy = KvServeConfig {
        block_tokens,
        pool_blocks: min_blocks * total,
        ..KvServeConfig::default()
    };
    let (base, roomy_stats) = serve("  roomy pool", roomy, total);
    assert_eq!(
        roomy_stats.preemptions, 0,
        "the roomy pool must never evict"
    );

    let tight = KvServeConfig {
        block_tokens,
        pool_blocks: min_blocks,
        ..KvServeConfig::default()
    };
    let (pressured, stats) = serve("  tight pool", tight, total);
    assert!(
        stats.preemptions > 0,
        "the tight pool must evict under load"
    );
    assert_eq!(
        stats.preemptions, stats.resumes,
        "every eviction must be resumed"
    );
    assert!(
        stats.peak_resident_sessions >= 2,
        "pressure must still batch sessions"
    );

    for (i, (a, b)) in base.iter().zip(&pressured).enumerate() {
        assert_eq!(
            a, b,
            "session {i}: preemption must not change tokens or costs"
        );
    }
    let tokens: usize = base.iter().map(|r| r.tokens.len()).sum();
    println!(
        "bit-identical: all {total} replies ({tokens} tokens, costs, KV footprints) match \
         across a {}x pool squeeze",
        roomy.pool_blocks / tight.pool_blocks
    );
}
