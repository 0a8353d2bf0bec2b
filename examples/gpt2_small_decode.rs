//! Executable decode at the paper's LLM geometry (Section VI-B): a
//! randomly initialized GPT2-small-shaped `DecoderLm` (dim 768, 12
//! layers, 12 heads, FFN 3072; a 64-symbol vocabulary, so no weights are
//! downloaded) decodes one 64-token session on `NativeBackend`.
//!
//! Prints the host time of the prefill and of the decode steps, host
//! milliseconds per decoded token, the process's peak resident memory,
//! and the modeled LT-B cost of the same tokens. Every GEMM of a decode
//! step is a `[1, d] x [d, n]` matrix-vector product, so the host rate
//! here is the exact kernel's single pass over each weight plus the
//! per-op costs around it. That pass reads each weight's own `f32`
//! values (4 bytes per weight parameter), widened in register, with the
//! bits of the `f64` product. Peak memory still includes the `f64` copy
//! of every weight that the engine stages on first use (8 bytes per
//! weight parameter), which non-exact backends read.
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

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is unavailable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

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
    let peak = peak_rss_mib().map_or("n/a".to_string(), |m| format!("{m:.0} MiB"));
    println!(
        "decode ({steps} steps)     {:>9.1} ms host, {:.1} ms/token, peak RSS {peak}",
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
