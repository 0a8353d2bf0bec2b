//! Speculative decoding, end to end: a draft LM proposes `k` tokens,
//! the target verifies all of them in ONE batched pass, mismatches are
//! rolled back out of the KV cache — and the output stream stays
//! bit-identical to plain greedy decode, even on the noisy photonic
//! backend.
//!
//! The example serves the same request mix twice through
//! [`DecodeServer`] (plain vs. speculative at `LT_SPEC_K`, default 4)
//! and asserts every reply matches token for token and cost for cost.
//! Then it prints the `repro spec` sweep: replayed target-model cycles
//! per generated token for k∈{0,2,4,8} at batch 1 and 8, with the
//! draft's own cycles itemized separately.
//!
//! ```sh
//! cargo run --release --example llm_speculative
//! LT_SPEC_K=8 cargo run --release --example llm_speculative   # deeper speculation
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm, SpecSessionStats};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
use lightening_transformer::nn::serve::sched::KvServeConfig;

/// Varied prompts and generation lengths over the tiny vocabulary.
fn make_request(i: usize) -> DecodeRequest {
    DecodeRequest {
        prompt: (0..3 + i % 4).map(|t| (i * 5 + t * 3) % 16).collect(),
        max_new_tokens: 6 + i % 5,
    }
}

/// Serves the fixed mix once and returns the replies plus the server's
/// speculation counters.
fn serve(spec_k: usize, total: usize) -> (Vec<DecodeReply>, SpecSessionStats) {
    let mut rng = GaussianSampler::new(42);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    // The synthetic stand-in for a trained LM's layer-wise refinement:
    // without it a random-init target disagrees with its own first half
    // at chance level (see `DecoderLm::taper_deep_blocks`).
    model.taper_deep_blocks(0.25);
    let server = DecodeServer::new(
        model,
        DptcBackend::paper(8, 3),
        DecodeServeConfig {
            workers: 1,
            max_active: 4,
            seed: 7,
            kv: KvServeConfig {
                block_tokens: 4,
                pool_blocks: 64,
                ..KvServeConfig::default()
            },
            spec_k,
            ..DecodeServeConfig::default()
        },
    );
    let pending: Vec<_> = (0..total).map(|i| server.submit(make_request(i))).collect();
    let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
    let out = (replies, server.stats().sched.spec);
    server.shutdown();
    out
}

fn main() {
    // Unset, empty, zero or unparsable `LT_SPEC_K` means k = 4.
    let k = std::env::var("LT_SPEC_K")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&k| k > 0)
        .unwrap_or(4);
    let total = 8;

    println!("== Speculative decoding (LT_SPEC_K={k}, noisy DPTC backend) ==\n");
    let (base, plain) = serve(0, total);
    assert_eq!(
        plain,
        SpecSessionStats::default(),
        "plain serving must not speculate"
    );
    let (spec, stats) = serve(k, total);
    let (proposed, accepted, draft_cycles) = (stats.proposed, stats.accepted, stats.draft_cycles);

    assert!(proposed > 0, "speculation must propose");
    assert!(accepted <= proposed);
    assert!(draft_cycles > 0, "draft overhead must be accounted");
    for (i, (a, b)) in base.iter().zip(&spec).enumerate() {
        assert_eq!(
            a, b,
            "request {i}: speculation must not change tokens or costs"
        );
    }
    let tokens: usize = base.iter().map(|r| r.tokens.len()).sum();
    println!(
        "bit-identical: all {total} replies ({tokens} tokens, per-token costs, KV footprints)\n\
         match plain greedy decode at k={k}; acceptance {}/{} = {:.3}, draft overhead \
         {draft_cycles} replayed cycles\n",
        accepted,
        proposed,
        accepted as f64 / proposed as f64,
    );

    print!("{}", lt_bench::experiments::spec::spec());
}
