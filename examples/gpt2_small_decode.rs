//! Executable decode at the paper's LLM geometry (Section VI-B): a
//! randomly initialized GPT2-small-shaped `DecoderLm` (dim 768, 12
//! layers, 12 heads, FFN 3072; a 64-symbol vocabulary, so no weights are
//! downloaded) decodes one 64-token session on `NativeBackend`.
//!
//! Prints the host time of the prefill and of the decode steps, host
//! milliseconds per decoded token, and the modeled LT-B cost of the same
//! tokens. Every GEMM of a decode step is a `[1, d] x [d, n]`
//! matrix-vector product, so the host rate here is the exact kernel's
//! skinny-row path plus the per-op costs around it.
//!
//! ```sh
//! cargo run --release --example gpt2_small_decode
//! ```

use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::core::{GaussianSampler, NativeBackend};
use lightening_transformer::nn::decode::{DecodeSession, DecoderConfig, DecoderLm, SessionConfig};
use std::time::Instant;

/// Tokens the session generates (the first comes from the prefill).
const NEW_TOKENS: usize = 64;
/// Prompt length.
const PROMPT: usize = 8;

fn main() {
    let config = DecoderConfig {
        dim: 768,
        layers: 12,
        heads: 12,
        ffn_dim: 3072,
        vocab: 64,
        max_seq: PROMPT + NEW_TOKENS,
    };
    let start = Instant::now();
    let model = DecoderLm::new(config, &mut GaussianSampler::new(7));
    let init_s = start.elapsed().as_secs_f64();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let prompt: Vec<usize> = (0..PROMPT).map(|i| (i * 7 + 3) % config.vocab).collect();
    let mut session = DecodeSession::new(
        &model,
        0,
        prompt,
        NEW_TOKENS,
        NativeBackend,
        SessionConfig::default(),
    );

    let start = Instant::now();
    session.prefill(&model, &sim);
    let prefill_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    while !session.is_done() {
        session.step(&model, &sim);
    }
    let decode_s = start.elapsed().as_secs_f64();
    let reply = session.into_reply();
    let steps = reply.steps.len();
    assert_eq!(reply.tokens.len(), NEW_TOKENS);

    println!(
        "GPT2-small geometry (dim {}, {} layers, {} heads, FFN {}), vocab {}, random init",
        config.dim, config.layers, config.heads, config.ffn_dim, config.vocab
    );
    println!("model init            {:>9.1} ms", init_s * 1e3);
    println!(
        "prefill ({PROMPT} tokens)    {:>9.1} ms host",
        prefill_s * 1e3
    );
    println!(
        "decode ({steps} steps)     {:>9.1} ms host, {:.1} ms/token",
        decode_s * 1e3,
        decode_s * 1e3 / steps as f64
    );
    let modeled = reply.decode_total();
    println!(
        "modeled on LT-B 8-bit  {:.2} us/token, {:.0} cycles/token, utilization {:.1}%",
        modeled.latency.value() * 1e3 / steps as f64,
        reply.decode_cycles() as f64 / steps as f64,
        modeled.utilization * 100.0
    );
    println!("tokens: {:?}", reply.tokens);
}
