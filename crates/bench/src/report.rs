//! `BENCH_repro.json` — the machine-readable cost snapshot the `repro`
//! binary emits so the trajectory of cycles, energy, and EDP is tracked
//! across PRs (diff two checkouts' files to see what a change cost or
//! saved).
//!
//! The workspace has no serde (no crates.io access), so the JSON is
//! assembled by hand from a fixed, flat schema:
//!
//! ```json
//! {
//!   "schema": 8,
//!   "config": "LT-B",
//!   "precision_bits": 4,
//!   "models": [ { "name", "cycles", "energy_mj", "latency_ms",
//!                 "edp_mj_ms", "fps", "gmacs", "utilization",
//!                 "bandwidth_stall_ms", "fill_ms" }, ... ],
//!   "compute_path": { "recorded_ops", "recorded_gemm_macs" },
//!   "kernel": { ... }, "decode": { ... }, "kv": { ... },
//!   "schedule_cache": { ... }, "serving": { ... },
//!   "speculation": { ... }
//! }
//! ```
//!
//! Schema 3 added the tile scheduler's self-explanation to both the
//! prefill (`models`) and `decode` sections: `utilization` (achieved
//! fraction of peak MACs over the scheduled window) and the stall
//! breakdown (`bandwidth_stall_ms` / `fill_ms`; the remainder of the
//! latency is compute).
//!
//! Schema 4 added the `kv` section: the paged KV-cache pressure run
//! (see [`crate::experiments::kv`]) — peak resident sessions on a
//! starved pool, preemption rate, prefix-sharing block savings, and the
//! KV-traffic share of decode bandwidth stalls. All of it deterministic
//! and gated.
//!
//! Schema 5 added the `kernel` section for the shared GEMM kernel and
//! the true integer execution path: the kernel's blocking
//! (`micro_tile`, `RBxKxN`: rows per block, each block over all of B),
//! the int8 forward's recorded op/MAC counts (integer execution must be
//! workload-transparent), i8/i4 code bytes for a reference weight
//! (i4 really halves memory), and the int8 logit deviation on the
//! exact engine (pure quantization error, no noise).
//!
//! Schema 6 added the `schedule_cache` section: the memoized op-schedule
//! cache's hit/miss/entry counters over a fixed replay workload (every
//! paper benchmark plus the analytical decode trace) — deterministic,
//! since the op sequence is fixed.
//!
//! Schema 7 added the `serving` section: the SLO frontend's fixed
//! open-loop scenario (see [`crate::experiments::serving`]) run
//! unchunked and with chunked prefill. Every timestamp is *simulated*
//! picoseconds on a deterministic clock: completion/rejection counts,
//! TTFT and inter-token-latency percentiles, goodput.
//!
//! Schema 8 added the `speculation` section: the speculative-decoding
//! sweep (see [`crate::experiments::spec`]) — k∈{0,2,4,8} at batch 1
//! and batch 8 through the tapered tiny decoder, with the target's
//! verify cycles and the draft's proposal cycles replayed and gated
//! *separately*, plus acceptance rates and the batch-1 k=4 headline
//! reduction in target cycles per generated token. Exact backend,
//! fixed seeds: fully deterministic, fully gated.
//!
//! `models` replays every paper benchmark's analytical trace through the
//! LT-B 4-bit model (the Table V / Fig. 13 methodology). `compute_path`
//! counts what the *real* record pipeline records: a tiny ViT forward
//! pass on the photonic DPTC backend in a recording context. `decode`
//! replays the autoregressive decode step (paper Section VI-B) at batch
//! 1/4/16 — cycles and energy per token, replayed tokens/s, KV-cache
//! footprint vs. context.
//!
//! Every field is deterministic, so `repro check` can diff this file
//! against a committed baseline with a tight tolerance and fail CI on
//! any drift. Host time is servebench's to measure, not this file's.

use lt_arch::{ArchConfig, Simulator};
use lt_core::{GaussianSampler, Trace};
use lt_dptc::DptcBackend;
use lt_nn::layers::ForwardCtx;
use lt_nn::model::{Classifier, ModelConfig, VisionTransformer};
use lt_nn::quant::QuantConfig;
use lt_nn::{BackendEngine, Tensor};
use lt_workloads::{DecodeTrace, TransformerConfig};

/// Formats an f64 for JSON (finite, fixed notation, enough digits to
/// diff meaningfully).
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.6e}")
    }
}

/// Builds the `BENCH_repro.json` document.
pub fn bench_repro_json() -> String {
    let bits = 4;
    let arch = ArchConfig::lt_base(bits);
    let sim = Simulator::new(arch.clone());

    let mut models = Vec::new();
    for model in TransformerConfig::paper_benchmarks() {
        let r = sim.run_model(&model);
        models.push(format!(
            concat!(
                "    {{ \"name\": \"{}\", \"cycles\": {}, \"energy_mj\": {}, ",
                "\"latency_ms\": {}, \"edp_mj_ms\": {}, \"fps\": {}, \"gmacs\": {}, ",
                "\"utilization\": {}, \"bandwidth_stall_ms\": {}, \"fill_ms\": {} }}"
            ),
            model.name,
            r.all.cycles,
            num(r.all.energy.total().value()),
            num(r.all.latency.value()),
            num(r.all.edp()),
            num(r.fps()),
            num(model.total_macs() as f64 / 1e9),
            num(r.all.utilization),
            num(r.all.stalls.bandwidth.value()),
            num(r.all.stalls.fill.value()),
        ));
    }

    // The real compute path: record a tiny ViT forward on the photonic
    // backend.
    let mut rng = GaussianSampler::new(7);
    let mut vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let patches = Tensor::randn(16, 16, 1.0, &mut rng);
    let mut engine = BackendEngine::new(DptcBackend::paper(8, 7), 42);
    let mut ctx = ForwardCtx::inference(&mut engine, QuantConfig::fp32()).recording();
    vit.forward(&patches, &mut ctx);
    let trace = ctx.take_trace().coalesce();

    format!(
        "{{\n  \"schema\": 8,\n  \"config\": \"{}\",\n  \"precision_bits\": {},\n  \
         \"models\": [\n{}\n  ],\n  \"compute_path\": {{ \"recorded_ops\": {}, \
         \"recorded_gemm_macs\": {} }},\n\
         {},\n{},\n{},\n{},\n{},\n{}\n}}\n",
        arch.name,
        bits,
        models.join(",\n"),
        trace.len(),
        trace.total_macs(),
        kernel_section(),
        decode_section(),
        kv_section(),
        schedule_cache_section(),
        serving_section(),
        speculation_section(),
    )
}

/// The `speculation` section (schema 8): the speculative-decoding
/// sweep's per-(batch, k) rows — target cycles per token, itemized
/// draft cycles per token, acceptance rate, bandwidth-stall share —
/// plus the batch-1 k=4 headline reduction. All modeled/deterministic,
/// all gated.
fn speculation_section() -> String {
    let r = crate::experiments::spec::measure();
    let rows = |rows: &[crate::experiments::spec::SpecRow]| {
        rows.iter()
            .map(|row| {
                format!(
                    "      {{ \"k\": {}, \"ticks\": {}, \"decoded_tokens\": {}, \
                     \"target_cycles_per_token\": {}, \"draft_cycles_per_token\": {}, \
                     \"total_cycles_per_token\": {}, \"acceptance_rate\": {}, \
                     \"bandwidth_stall_frac\": {} }}",
                    row.k,
                    row.ticks,
                    row.decoded_tokens,
                    num(row.target_cycles_per_token()),
                    num(row.draft_cycles_per_token()),
                    num(row.total_cycles_per_token()),
                    num(row.acceptance_rate()),
                    num(row.bandwidth_stall_frac()),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "  \"speculation\": {{\n    \"taper_gain\": {}, \"max_new_tokens\": {},\n    \
         \"batch1\": [\n{}\n    ],\n    \"batch8\": [\n{}\n    ],\n    \
         \"b1_k4_target_reduction\": {}\n  }}",
        num(crate::experiments::spec::TAPER_GAIN as f64),
        crate::experiments::spec::MAX_NEW_TOKENS,
        rows(&r.batch1),
        rows(&r.batch8),
        num(r.b1_k4_target_reduction()),
    )
}

/// The `serving` section (schema 7): the SLO frontend's fixed scenario,
/// whole-prompt vs. chunked prefill. All simulated-time integers —
/// fully gated.
fn serving_section() -> String {
    let r = crate::experiments::serving::measure(24);
    let side = |name: &str, s: &lt_nn::ServingReport| {
        format!(
            "    \"{name}\": {{ \"completed\": {}, \"rejected\": {}, \"failed\": {}, \
             \"deadline_hits\": {}, \"deadline_misses\": {}, \
             \"ttft_p50_ps\": {}, \"ttft_p95_ps\": {}, \"ttft_p99_ps\": {}, \"ttft_max_ps\": {}, \
             \"itl_p50_ps\": {}, \"itl_p95_ps\": {}, \"itl_p99_ps\": {}, \"itl_max_ps\": {}, \
             \"generated_tokens\": {}, \"elapsed_ps\": {}, \"tokens_per_s\": {}, \
             \"goodput_tokens_per_s\": {}, \"preemptions\": {}, \"ticks\": {} }}",
            s.completed,
            s.rejected,
            s.failed,
            s.deadline_hits,
            s.deadline_misses,
            s.ttft_ps.p50,
            s.ttft_ps.p95,
            s.ttft_ps.p99,
            s.ttft_ps.max,
            s.itl_ps.p50,
            s.itl_ps.p95,
            s.itl_ps.p99,
            s.itl_ps.max,
            s.generated_tokens,
            s.elapsed_ps,
            s.tokens_per_s,
            s.goodput_tokens_per_s,
            s.preemptions,
            s.ticks,
        )
    };
    format!(
        "  \"serving\": {{\n    \"requests\": {},\n    \"loadgen_seed\": {},\n    \
         \"prefill_chunk_tokens\": {},\n{},\n{}\n  }}",
        r.requests,
        r.seed,
        crate::experiments::serving::PREFILL_CHUNK_TOKENS,
        side("unchunked", &r.unchunked),
        side("chunked", &r.chunked),
    )
}

/// The `schedule_cache` section (schema 6): the memoized op-schedule
/// cache's counters over a fixed replay — every paper benchmark's
/// analytical trace plus the batch-1 decode trace through one LT-B
/// simulator. The op sequence is fixed, so hits/misses/entries (and
/// their ratio) are deterministic and gated.
fn schedule_cache_section() -> String {
    // Two passes over the fixed workload: the first populates (all
    // misses once coalesced traces are deduped by shape x dataflow),
    // the second replays warm — the steady-state serving regime.
    let sim = Simulator::new(ArchConfig::lt_base(4));
    for _ in 0..2 {
        for model in TransformerConfig::paper_benchmarks() {
            sim.run_trace(&model.trace());
        }
        sim.run_trace(&DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, 1).op_trace());
    }
    let stats = sim.schedule_cache_stats();
    format!(
        "  \"schedule_cache\": {{ \"hits\": {}, \"misses\": {}, \"entries\": {}, \
         \"hit_rate\": {} }}",
        stats.hits,
        stats.misses,
        stats.entries,
        num(stats.hit_rate()),
    )
}

/// The `kernel` section (schema 5): the kernel's blocking and the
/// integer path's deterministic footprint.
fn kernel_section() -> String {
    use lt_core::kernel::RB;
    use lt_core::{Matrix32, QuantizedMatrix};

    // Code bytes depend only on the reference weight's shape.
    let b32 = Matrix32::randn(256, 96, 1.0, &mut GaussianSampler::new(3));
    let bq = QuantizedMatrix::quantize_cols(&b32.view(), 8, 32);
    let wq4 = QuantizedMatrix::quantize_cols(&b32.view(), 4, 32);

    // Deterministic integer-path footprint: an int8 tiny-ViT forward on
    // the exact engine — recorded trace (must match fp32's: integer
    // execution is workload-transparent) and pure quantization error.
    let mut mrng = GaussianSampler::new(7);
    let vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut mrng);
    let patches = Tensor::randn(16, 16, 1.0, &mut mrng);
    let forward = |quant: QuantConfig| -> (Tensor, Trace) {
        let mut model = vit.clone();
        let mut engine = lt_nn::ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut engine, quant).recording();
        let logits = model.forward(&patches, &mut ctx);
        (logits, ctx.take_trace())
    };
    let (int8_logits, int8_trace) = forward(QuantConfig::int8());
    let int8_trace = int8_trace.coalesce();
    let (fp32_logits, _) = forward(QuantConfig::fp32());
    let logit_err = int8_logits.max_abs_diff(&fp32_logits);

    format!(
        "  \"kernel\": {{ \"micro_tile\": \"{RB}xKxN\", \
         \"int8_forward_ops\": {}, \"int8_forward_macs\": {}, \
         \"i8_weight_code_bytes\": {}, \"i4_weight_code_bytes\": {}, \
         \"int8_logit_err\": {} }}",
        int8_trace.len(),
        int8_trace.total_macs(),
        bq.code_bytes(),
        wq4.code_bytes(),
        num(logit_err as f64),
    )
}

/// The `kv` section: the paged KV-cache memory-pressure run. Every
/// field is deterministic (exact backend, fixed request mix), so the
/// baseline check gates them all.
fn kv_section() -> String {
    let r = crate::experiments::kv::measure();
    let s = &r.stats;
    format!(
        "  \"kv\": {{ \"pool_blocks\": {}, \"block_tokens\": {}, \"sessions\": {}, \
         \"max_resident_sessions\": {}, \"preemptions\": {}, \"preemption_rate\": {}, \
         \"prefix_hits\": {}, \"prefix_shared_blocks\": {}, \"prefix_shared_tokens\": {}, \
         \"kv_hbm_mb\": {}, \"kv_bandwidth_stall_frac\": {}, \"decoded_tokens\": {} }}",
        r.pool_blocks,
        r.block_tokens,
        r.sessions,
        s.peak_resident_sessions,
        s.preemptions,
        num(r.preemption_rate()),
        s.prefix_hits,
        s.prefix_shared_blocks,
        s.prefix_shared_tokens,
        num(r.kv_hbm_bytes / 1e6),
        num(r.kv_bandwidth_stall_frac()),
        s.decoded_tokens,
    )
}

/// The `decode` section: the paper's Section VI-B decode regime,
/// GPT2-small at context 512, batch 1/4/16, replayed through LT-B
/// 8-bit, and the KV-cache footprint against context.
fn decode_section() -> String {
    let bits = 8;
    let sim = Simulator::new(ArchConfig::lt_base(bits));
    let model = TransformerConfig::gpt2_small(1);
    let context = 512;

    let mut batches = Vec::new();
    for batch in [1usize, 4, 16] {
        let trace = DecodeTrace::new(model.clone(), context, batch);
        let r = sim.run_trace(&trace.op_trace());
        let tokens_per_s = batch as f64 / (r.latency.value() * 1e-3);
        batches.push(format!(
            concat!(
                "      {{ \"batch\": {}, \"cycles_per_token\": {}, ",
                "\"energy_per_token_mj\": {}, \"tokens_per_s\": {}, ",
                "\"kv_cache_bytes\": {}, \"utilization\": {}, ",
                "\"bandwidth_stall_frac\": {} }}"
            ),
            batch,
            num(r.cycles as f64 / batch as f64),
            num(r.energy.total().value() / batch as f64),
            num(tokens_per_s),
            trace.kv_cache_bytes(bits),
            num(r.utilization),
            num(r.stalls.bandwidth_fraction()),
        ));
    }

    let kv_rows: Vec<String> = [128usize, 512, 2048]
        .iter()
        .map(|&ctx| {
            let kv = |b: usize| DecodeTrace::new(model.clone(), ctx, b).kv_cache_bytes(bits);
            format!(
                "      {{ \"context\": {ctx}, \"kv_bytes_b1\": {}, \"kv_bytes_b4\": {}, \
                 \"kv_bytes_b16\": {} }}",
                kv(1),
                kv(4),
                kv(16)
            )
        })
        .collect();

    format!(
        "  \"decode\": {{\n    \"model\": \"{}\",\n    \"context\": {},\n    \
         \"batches\": [\n{}\n    ],\n    \"kv_vs_context\": [\n{}\n    ]\n  }}",
        model.name,
        context,
        batches.join(",\n"),
        kv_rows.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_every_benchmark_and_balances_braces() {
        let json = bench_repro_json();
        for name in [
            "DeiT-T-224",
            "DeiT-S-224",
            "DeiT-B-224",
            "BERT-base-128",
            "BERT-large-320",
        ] {
            assert!(json.contains(name), "missing {name}");
        }
        for key in [
            "\"schema\"",
            "\"cycles\"",
            "\"energy_mj\"",
            "\"edp_mj_ms\"",
            "\"decode\"",
            "\"cycles_per_token\"",
            "\"tokens_per_s\"",
            "\"kv_vs_context\"",
            "\"utilization\"",
            "\"bandwidth_stall_ms\"",
            "\"fill_ms\"",
            "\"bandwidth_stall_frac\"",
            "\"kv\"",
            "\"max_resident_sessions\"",
            "\"preemption_rate\"",
            "\"prefix_shared_blocks\"",
            "\"kv_bandwidth_stall_frac\"",
            "\"kernel\"",
            "\"micro_tile\"",
            "\"int8_forward_macs\"",
            "\"i4_weight_code_bytes\"",
            "\"int8_logit_err\"",
            "\"schedule_cache\"",
            "\"hits\"",
            "\"misses\"",
            "\"entries\"",
            "\"hit_rate\"",
            "\"serving\"",
            "\"prefill_chunk_tokens\"",
            "\"unchunked\"",
            "\"chunked\"",
            "\"ttft_p99_ps\"",
            "\"itl_max_ps\"",
            "\"goodput_tokens_per_s\"",
            "\"deadline_hits\"",
            "\"speculation\"",
            "\"taper_gain\"",
            "\"batch1\"",
            "\"batch8\"",
            "\"target_cycles_per_token\"",
            "\"draft_cycles_per_token\"",
            "\"acceptance_rate\"",
            "\"b1_k4_target_reduction\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"schema\": 8"), "schema bumped");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
