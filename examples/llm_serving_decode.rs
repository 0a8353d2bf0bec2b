//! Continuous-batching LLM decode serving (paper Section VI-B, made
//! executable): concurrent generation requests stream through
//! [`DecodeServer`], whose workers interleave prefill and per-token
//! decode steps across all in-flight requests — newcomers join between
//! token steps, finished requests leave, and every generated token
//! carries the hardware cost of its recorded op trace replayed through
//! the LT-B model.
//!
//! The run prints the batching remedy in the replayed-cycle metric:
//! each scheduler tick's per-session prefill and matrix-vector step
//! traces are row-stacked into one batched trace
//! ([`lt_nn::serve::sched::TickOutcome::cost`]), and the merged cycles
//! come out well below the one-request-at-a-time cost of the same
//! requests.
//!
//! ```sh
//! cargo run --release --example llm_serving_decode
//! LT_DECODE_REQUESTS=4 cargo run --release --example llm_serving_decode   # bounded (CI smoke)
//! LT_DECODE_QUANT=int8 cargo run --release --example llm_serving_decode   # true i8 weight path
//! LT_THREADS=4 cargo run --release --example llm_serving_decode           # row-block GEMM pool
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
use lightening_transformer::nn::QuantConfig;
use lightening_transformer::runtime::ParallelBackend;
use std::time::Instant;

/// Total requests; override with `LT_DECODE_REQUESTS` (CI smoke runs 4).
fn total_requests() -> usize {
    std::env::var("LT_DECODE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
        .max(1)
}

/// Layer quantization mode; `LT_DECODE_QUANT` selects `fp32` (default),
/// `int8`, or `int4` — the latter two execute weight-bearing layers on
/// true integer codes ([`lt_core::quantized_gemm`]).
fn quant_mode() -> QuantConfig {
    match std::env::var("LT_DECODE_QUANT").as_deref() {
        Ok("int8") => QuantConfig::int8(),
        Ok("int4") => QuantConfig::int4(),
        Ok("fp32") | Err(_) => QuantConfig::fp32(),
        Ok(other) => panic!("LT_DECODE_QUANT must be fp32|int8|int4, got {other:?}"),
    }
}

/// Row-block GEMM threads; `LT_THREADS` above 1 fans every GEMM out
/// over the backend's pool, which all workers share. Unset, empty or
/// unparsable means 1 (sequential).
fn gemm_threads() -> usize {
    std::env::var("LT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

fn make_request(i: usize) -> DecodeRequest {
    DecodeRequest {
        prompt: (0..(3 + i % 5)).map(|t| (i * 7 + t * 3) % 16).collect(),
        max_new_tokens: 4 + i % 6,
    }
}

fn main() {
    let total = total_requests();
    let quant = quant_mode();
    let mut rng = GaussianSampler::new(42);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let threads = gemm_threads();
    let config = DecodeServeConfig {
        workers: 2,
        max_active: 8,
        seed: 7,
        quant,
        ..DecodeServeConfig::default()
    };
    let clock_ghz = config.arch.clock.value();
    let backend = ParallelBackend::new(DptcBackend::paper(8, 7), threads);
    let server = DecodeServer::new(model.clone(), backend, config);
    if threads > 1 {
        println!("parallel GEMM dispatch: LT_THREADS={threads} (replies stay bit-identical)");
    }

    let start = Instant::now();
    let pending: Vec<_> = (0..total).map(|i| server.submit(make_request(i))).collect();
    let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
    let elapsed = start.elapsed();

    let tokens: usize = replies.iter().map(|r| r.tokens.len()).sum();
    println!(
        "decoded {tokens} tokens across {total} requests in {:.1} ms ({:.0} tokens/s wall)",
        elapsed.as_secs_f64() * 1e3,
        tokens as f64 / elapsed.as_secs_f64()
    );
    let stats = server.stats();
    println!(
        "continuous batching: {} decode ticks, realized batch width {:.2}",
        stats.sched.ticks,
        stats.sched.decoded_tokens as f64 / stats.sched.ticks.max(1) as f64
    );
    println!(
        "schedule cache: {} hits / {} misses ({:.1}% hit rate) — \
         per-token replay reuses memoized tile plans",
        stats.schedule_cache.hits,
        stats.schedule_cache.misses,
        100.0 * stats.schedule_cache.hit_rate()
    );

    // The Section VI-B claim, measured on this very stream: the merged
    // per-tick prefill and step traces replay to fewer photonic cycles
    // than the same requests served one at a time.
    let (batched, sequential) = (stats.batched_cycles, stats.sequential_cycles);
    let tokens_per_s = |cycles: u64| tokens as f64 * clock_ghz * 1e9 / cycles.max(1) as f64;
    println!(
        "replayed prefill + decode cost (LT-B 8-bit): batched {batched} cycles vs {sequential} \
         one-at-a-time ({:.2}x fewer)",
        sequential as f64 / batched.max(1) as f64
    );
    println!(
        "replayed throughput: {:.3e} tokens/s batched vs {:.3e} tokens/s at batch 1",
        tokens_per_s(batched),
        tokens_per_s(sequential)
    );

    // Every reply carries prefill + per-token costs and its KV footprint.
    let sample = &replies[0];
    println!(
        "sample reply (ticket 0): prompt {:?} -> tokens {:?}",
        sample.prompt, sample.tokens
    );
    println!(
        "  prefill: {} cycles; steps: {:?} cycles; KV cache {} bytes",
        sample.prefill.cycles,
        sample.steps.iter().map(|s| s.cycles).collect::<Vec<_>>(),
        sample.kv_cache_bytes
    );

    // Determinism: replay the stream one request at a time on one
    // worker — token streams and costs must be bit-identical.
    let replay_server = DecodeServer::new(
        model,
        DptcBackend::paper(8, 7),
        DecodeServeConfig {
            workers: 1,
            max_active: 1,
            seed: 7,
            quant,
            ..DecodeServeConfig::default()
        },
    );
    let replay_pending: Vec<_> = (0..total)
        .map(|i| replay_server.submit(make_request(i)))
        .collect();
    for (i, (p, original)) in replay_pending.into_iter().zip(&replies).enumerate() {
        let replayed = p.wait();
        assert_eq!(
            &replayed, original,
            "request {i} must replay bit-identically on 1 worker / width 1"
        );
    }
    println!("determinism: all {total} replies replayed bit-identically on 1 worker / width 1");
    replay_server.shutdown();
    server.shutdown();
}
