//! Recorded-vs-analytical trace cross-validation.
//!
//! The simulator used to be fed only by the hand-maintained analytical
//! trace (`TransformerConfig::trace`), which could silently diverge
//! from what the `lt-nn` models actually execute. These tests close the
//! loop: for every paper benchmark, a *real* forward pass of the
//! corresponding `lt-nn` model (at the benchmark's structurally
//! identical `tiny_validation` geometry, where weights can actually be
//! instantiated) is recorded through the op-trace IR, and the recorded
//! GEMMs must agree with the analytical generator — same dims, same
//! instance counts, same MACs — and cost the same when replayed through
//! the accelerator model.

use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::core::trace::OpKind;
use lightening_transformer::core::{GaussianSampler, NativeBackend, Op, Trace};
use lightening_transformer::nn::decode::{DecodeSession, DecoderConfig, DecoderLm, SessionConfig};
use lightening_transformer::nn::layers::ForwardCtx;
use lightening_transformer::nn::model::{Classifier, ModelConfig};
use lightening_transformer::nn::quant::QuantConfig;
use lightening_transformer::nn::{ExactEngine, Tensor, TextClassifier, VisionTransformer};
use lightening_transformer::workloads::model::InputKind;
use lightening_transformer::workloads::{DecodeTrace, TransformerConfig};

/// Builds the `lt-nn` model matching `spec`'s geometry, runs one real
/// forward pass with a recording context under the given quantization
/// mode, and returns the recorded trace.
fn record_forward_quant(spec: &TransformerConfig, quant: QuantConfig) -> Trace {
    let cfg = ModelConfig {
        dim: spec.dim,
        layers: spec.layers,
        heads: spec.heads,
        ffn_dim: spec.ffn_dim,
        classes: spec.num_classes,
    };
    let mut rng = GaussianSampler::new(42);
    let mut engine = ExactEngine;
    let mut nrng = GaussianSampler::new(0);
    let mut ctx = ForwardCtx::inference(&mut engine, quant, &mut nrng).recording();
    match spec.input {
        InputKind::VisionPatches { patch_size, .. } => {
            let patch_dim = 3 * patch_size * patch_size;
            let mut model = VisionTransformer::new(cfg, spec.seq_len - 1, patch_dim, &mut rng);
            let patches = Tensor::randn(spec.seq_len - 1, patch_dim, 1.0, &mut rng);
            let logits = model.forward(&patches, &mut ctx);
            assert_eq!(logits.shape(), (1, spec.num_classes));
        }
        InputKind::TextTokens => {
            let vocab = 16;
            let mut model = TextClassifier::new(cfg, vocab, spec.seq_len, &mut rng);
            let tokens: Vec<usize> = (0..spec.seq_len).map(|i| (i * 7 + 3) % vocab).collect();
            let logits = model.forward(&tokens, &mut ctx);
            assert_eq!(logits.shape(), (1, spec.num_classes));
        }
    }
    ctx.take_trace()
}

/// `record_forward_quant` at the default fp32 mode.
fn record_forward(spec: &TransformerConfig) -> Trace {
    record_forward_quant(spec, QuantConfig::fp32())
}

#[test]
fn recorded_gemms_match_the_analytical_trace_for_every_paper_benchmark() {
    for model in TransformerConfig::paper_benchmarks() {
        let tiny = model.tiny_validation();
        let recorded = record_forward(&tiny).gemm_only().coalesce();
        let analytical = tiny.trace().gemm_only().coalesce();
        assert_eq!(
            recorded, analytical,
            "{}: recorded execution and analytical generator disagree on \
             GEMM dims or instance counts",
            model.name
        );
        assert_eq!(
            recorded.total_macs(),
            tiny.total_macs(),
            "{}: MAC accounting drifted",
            model.name
        );
    }
}

#[test]
fn quantized_recorded_gemms_match_the_analytical_work_mode_traces() {
    // The true integer execution path must be *workload-transparent*:
    // a forward pass whose weight-bearing layers execute on i8/i4 codes
    // records exactly the GEMM trace the analytical generator predicts
    // — same dims, same instance counts, same MACs — because the
    // paper's 8-bit/4-bit work modes change operand precision, never
    // the computation graph. And replaying the recorded trace through
    // the matching-precision accelerator model must cost the same as
    // replaying the analytical one.
    for (bits, quant) in [(8u32, QuantConfig::int8()), (4, QuantConfig::int4())] {
        let sim = Simulator::new(ArchConfig::lt_base(bits));
        for model in TransformerConfig::paper_benchmarks() {
            let tiny = model.tiny_validation();
            let recorded = record_forward_quant(&tiny, quant).gemm_only().coalesce();
            let analytical = tiny.trace().gemm_only().coalesce();
            assert_eq!(
                recorded, analytical,
                "{} [{bits}-bit]: integer execution changed the recorded \
                 GEMM dims or instance counts",
                model.name
            );
            assert_eq!(
                recorded.total_macs(),
                tiny.total_macs(),
                "{} [{bits}-bit]: MAC accounting drifted",
                model.name
            );
            assert_eq!(
                sim.run_trace(&recorded),
                sim.run_trace(&analytical),
                "{} [{bits}-bit]: recorded and analytical traces must cost \
                 identically",
                model.name
            );
        }
    }
}

#[test]
fn recorded_and_analytical_traces_cost_identically_in_the_simulator() {
    let sim = Simulator::new(ArchConfig::lt_base(4));
    for model in TransformerConfig::paper_benchmarks() {
        let tiny = model.tiny_validation();
        let recorded = record_forward(&tiny).gemm_only().coalesce();
        let analytical = tiny.trace().gemm_only().coalesce();
        let r = sim.run_trace(&recorded);
        let a = sim.run_trace(&analytical);
        assert_eq!(r, a, "{}: equal traces must cost identically", model.name);
        assert!(
            r.cycles > 0 && r.energy.total().value() > 0.0,
            "{}",
            model.name
        );
        // And the simulator itself is deterministic: replaying the same
        // trace twice is bit-identical.
        assert_eq!(r, sim.run_trace(&recorded), "{}", model.name);
    }
}

/// Builds a decoder LM at the structurally identical executable tiny
/// geometry of a decoder benchmark spec.
fn decoder_at(spec: &TransformerConfig, vocab: usize) -> DecoderLm {
    let cfg = DecoderConfig {
        dim: spec.dim,
        layers: spec.layers,
        heads: spec.heads,
        ffn_dim: spec.ffn_dim,
        vocab,
        max_seq: spec.seq_len,
    };
    let mut rng = GaussianSampler::new(42);
    DecoderLm::new(cfg, &mut rng)
}

/// The transformer-body GEMMs of a recorded decode trace: everything
/// except the LM head, which the analytical `DecodeTrace` (like the
/// paper's Section VI-B accounting) leaves out of the per-token body.
fn body_gemms(trace: &Trace) -> Trace {
    Trace::from_ops(
        trace
            .gemm_only()
            .ops()
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    Op::Gemm {
                        kind: OpKind::LmHead,
                        ..
                    }
                )
            })
            .copied()
            .collect(),
    )
}

#[test]
fn recorded_decode_step_trace_matches_the_analytical_decode_trace() {
    // Real token-by-token decoding at the executable GPT2-small tiny
    // geometry: every decode step's recorded GEMMs must equal
    // `DecodeTrace::op_trace()` at batch 1 — same dims, same instance
    // counts, same MACs — for every context length the session visits.
    for spec in [
        TransformerConfig::gpt2_small(16).tiny_validation(),
        TransformerConfig::gpt2_medium(12).tiny_validation(),
    ] {
        let model = decoder_at(&spec, 16);
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let prompt = vec![3usize, 1, 4, 1];
        let mut session = DecodeSession::new(
            &model,
            0,
            prompt.clone(),
            6,
            NativeBackend,
            SessionConfig::default(),
        );
        session.prefill(&model, &sim);
        let mut context = prompt.len();
        while !session.is_done() {
            let recorded = body_gemms(&session.step(&model, &sim)).coalesce();
            context += 1; // the step appended its token before attending
            let analytical_ops = DecodeTrace::new(spec.clone(), context, 1);
            let analytical = analytical_ops.op_trace().coalesce();
            assert_eq!(
                recorded, analytical,
                "{}: recorded decode step and analytical DecodeTrace disagree \
                 at context {context}",
                spec.name
            );
            assert_eq!(
                recorded.total_macs(),
                analytical_ops.macs_per_token(),
                "{}: per-token MAC accounting drifted at context {context}",
                spec.name
            );
        }
    }
}

#[test]
fn a_recorded_decode_step_at_full_gpt2_small_width_matches_the_analytical_decode_trace() {
    // The tiny geometry above pins instance counts per layer; this pins
    // the dims and MACs at the real width (dim 768, 12 heads, FFN 3072),
    // where every body GEMM is a `[1, d] x [d, n]` skinny-row product.
    // Two layers keep the executed weights small.
    let spec = TransformerConfig {
        layers: 2,
        ..TransformerConfig::gpt2_small(8)
    };
    let model = decoder_at(&spec, 16);
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let prompt = vec![3usize, 1, 4, 1];
    let mut session = DecodeSession::new(
        &model,
        0,
        prompt.clone(),
        2,
        NativeBackend,
        SessionConfig::default(),
    );
    session.prefill(&model, &sim);
    let recorded = body_gemms(&session.step(&model, &sim)).coalesce();
    let analytical_ops = DecodeTrace::new(spec.clone(), prompt.len() + 1, 1);
    assert_eq!(recorded, analytical_ops.op_trace().coalesce());
    assert_eq!(recorded.total_macs(), analytical_ops.macs_per_token());
}

#[test]
fn recorded_verify_step_traces_match_the_analytical_spec_trace() {
    // Speculative decoding's batched verify pass at the executable tiny
    // GPT2-small geometry: every spec step's recorded verify GEMMs must
    // equal `DecodeTrace::spec_trace(k)` — row-stacked `k+1` high, the
    // attention context grown by the speculated positions — and cost
    // the same when replayed through the accelerator model.
    use lightening_transformer::nn::decode::DraftLm;
    let spec = TransformerConfig::gpt2_small(16).tiny_validation();
    let model = decoder_at(&spec, 16);
    let draft = DraftLm::from_target(&model);
    let sim = Simulator::new(ArchConfig::lt_base(8));
    for k in [1usize, 2, 4] {
        let prompt = vec![3usize, 1, 4, 1];
        let max_new = 8usize;
        let mut session = DecodeSession::new(
            &model,
            0,
            prompt.clone(),
            max_new,
            NativeBackend,
            SessionConfig::default(),
        );
        session.prefill(&model, &sim);
        while !session.is_done() {
            let committed = session.tokens().len();
            let k_eff = k.min(max_new - committed - 1);
            let base = prompt.len() + committed - 1;
            let report = session.spec_step(&model, &draft, &sim, k);
            if k_eff == 0 {
                // Degenerate tail: a plain step, covered by the
                // decode-step crossval above.
                continue;
            }
            let recorded = body_gemms(&report.verify_trace).coalesce();
            // The first verified position attends over base + 1 tokens.
            let analytical_ops = DecodeTrace::new(spec.clone(), base + 1, 1);
            let analytical = analytical_ops.spec_trace(k_eff).coalesce();
            assert_eq!(
                recorded, analytical,
                "{}: recorded verify step and analytical spec_trace disagree \
                 at base {base}, k_eff {k_eff}",
                spec.name
            );
            assert_eq!(
                sim.run_trace(&recorded),
                sim.run_trace(&analytical),
                "{}: verify trace must cost like its analytic twin",
                spec.name
            );
        }
    }
}

#[test]
fn quantized_recorded_decode_steps_match_the_analytical_decode_trace() {
    // Token-by-token decoding with the weight-bearing layers on true
    // i8 / i4 codes: each step's recorded body GEMMs must still equal
    // the analytical per-token `DecodeTrace` at every context length —
    // the integer path feeds the same record→replay pipeline, so the
    // paged-KV serving stack costs quantized tokens correctly.
    let spec = TransformerConfig::gpt2_small(16).tiny_validation();
    let model = decoder_at(&spec, 16);
    for (bits, quant) in [(8u32, QuantConfig::int8()), (4, QuantConfig::int4())] {
        let sim = Simulator::new(ArchConfig::lt_base(bits));
        let prompt = vec![3usize, 1, 4, 1];
        let mut session = DecodeSession::new(
            &model,
            0,
            prompt.clone(),
            5,
            NativeBackend,
            SessionConfig {
                quant,
                ..SessionConfig::default()
            },
        );
        session.prefill(&model, &sim);
        let mut context = prompt.len();
        while !session.is_done() {
            let recorded = body_gemms(&session.step(&model, &sim)).coalesce();
            context += 1;
            let analytical_ops = DecodeTrace::new(spec.clone(), context, 1);
            assert_eq!(
                recorded,
                analytical_ops.op_trace().coalesce(),
                "[{bits}-bit] recorded decode step and analytical DecodeTrace \
                 disagree at context {context}"
            );
            assert_eq!(
                recorded.total_macs(),
                analytical_ops.macs_per_token(),
                "[{bits}-bit] per-token MAC accounting drifted at context {context}"
            );
        }
    }
}

#[test]
fn batched_decode_tick_matches_the_analytical_batched_decode_trace() {
    // Sixteen equal-geometry sessions stepped as one continuous-batch
    // tick, row-stacked by the scheduler's merge, must equal the
    // analytical batch-16 DecodeTrace — and replay to fewer cycles than
    // sixteen batch-1 steps (the Section VI-B batching remedy in the
    // replayed-cycle metric).
    let spec = TransformerConfig::gpt2_small(16).tiny_validation();
    let model = decoder_at(&spec, 16);
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let prompt = vec![2usize, 7, 1, 8];
    let mut sessions: Vec<DecodeSession<NativeBackend>> = (0..16)
        .map(|ticket| {
            DecodeSession::new(
                &model,
                ticket,
                prompt.clone(),
                3,
                NativeBackend,
                SessionConfig {
                    seed: 9,
                    ..SessionConfig::default()
                },
            )
        })
        .collect();
    for s in sessions.iter_mut() {
        s.prefill(&model, &sim);
    }
    let step_bodies: Vec<Trace> = sessions
        .iter_mut()
        .map(|s| body_gemms(&s.step(&model, &sim)))
        .collect();
    let context = prompt.len() + 1;
    let batched = Trace::batch_rows(step_bodies.iter()).coalesce();
    let analytical = DecodeTrace::new(spec.clone(), context, 16)
        .op_trace()
        .coalesce();
    assert_eq!(
        batched, analytical,
        "scheduler merge == analytical batch-16 trace"
    );

    let batch1_cycles: u64 = step_bodies.iter().map(|t| sim.run_trace(t).cycles).sum();
    let batch16_cycles = sim.run_trace(&batched).cycles;
    assert!(
        batch16_cycles < batch1_cycles,
        "batch 16 must beat 16x batch 1 in replayed cycles: {batch16_cycles} vs {batch1_cycles}"
    );
}

/// The six traces the scheduler-vs-closed-form oracle runs over: every
/// paper benchmark's full-size analytical trace plus the batch-1
/// autoregressive decode trace (GPT2-small at context 512).
fn oracle_traces() -> Vec<(String, Trace)> {
    let mut traces: Vec<(String, Trace)> = TransformerConfig::paper_benchmarks()
        .into_iter()
        .map(|m| (m.name.clone(), m.trace()))
        .collect();
    traces.push((
        "GPT2-small decode ctx=512 b=1".to_string(),
        DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, 1).op_trace(),
    ));
    traces
}

#[test]
fn scheduler_equals_the_closed_form_oracle_under_unconstrained_memory() {
    // With unlimited SRAM and infinite HBM bandwidth there is nothing
    // to stage, stall on, or refetch: the tile schedule must collapse
    // to the closed-form per-op model exactly — same cycles, and in
    // fact the same report bit for bit (shared energy/stall/utilization
    // arithmetic).
    for bits in [4, 8] {
        let sim = Simulator::new(ArchConfig::lt_base(bits).unconstrained_memory());
        for (name, trace) in oracle_traces() {
            let scheduled = sim.run_trace(&trace);
            let analytic = sim.analytic_report(&trace);
            assert_eq!(
                scheduled.cycles, analytic.cycles,
                "{name} [{bits}-bit]: scheduled cycles must equal the closed form"
            );
            assert_eq!(
                scheduled, analytic,
                "{name} [{bits}-bit]: unconstrained memory is the exact oracle"
            );
        }
    }
}

#[test]
fn scheduler_only_improves_on_the_closed_form_under_real_configs() {
    // Under the real LT-B / LT-L memory systems the schedule may only
    // improve on the closed form: per-op overlap (the next op's weights
    // prefetching under the current op's compute) hides traffic the
    // closed form charges in full. Cycles are schedule-invariant.
    for config in [ArchConfig::lt_base(4), ArchConfig::lt_large(4)] {
        let sim = Simulator::new(config.clone());
        for (name, trace) in oracle_traces() {
            let scheduled = sim.run_trace(&trace);
            let analytic = sim.analytic_report(&trace);
            assert_eq!(
                scheduled.cycles, analytic.cycles,
                "{name} on {}",
                config.name
            );
            assert!(
                scheduled.latency.value() <= analytic.latency.value() * (1.0 + 1e-9),
                "{name} on {}: scheduled {} ms must not exceed closed-form {} ms",
                config.name,
                scheduled.latency.value(),
                analytic.latency.value()
            );
        }
    }
}

#[test]
fn memory_bound_decode_ops_report_nonzero_stalls() {
    // The decode trace is the memory wall made concrete (Section VI-B):
    // at least its weight-streaming matrix-vector products must surface
    // a nonzero bandwidth stall, classified memory-bound, on both
    // paper configurations.
    let trace = DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, 1).op_trace();
    for config in [ArchConfig::lt_base(8), ArchConfig::lt_large(8)] {
        let sim = Simulator::new(config.clone());
        let sched = sim.schedule_trace(&trace, sim.config().dataflow);
        assert!(
            sched.stalled_ops() > 0,
            "{}: no op reported a bandwidth stall",
            config.name
        );
        let worst = sched
            .per_op
            .iter()
            .max_by(|a, b| {
                a.stalls
                    .bandwidth
                    .value()
                    .partial_cmp(&b.stalls.bandwidth.value())
                    .unwrap()
            })
            .unwrap();
        assert_eq!(
            worst.stalls.bound(),
            lightening_transformer::arch::roofline::Bound::Memory,
            "{}: the worst-stalled op must classify memory-bound",
            config.name
        );
        assert!(
            sched.total.stalls.bandwidth.value() > 0.0,
            "{}: the trace total must carry the stall",
            config.name
        );
        // And the same trace under unconstrained memory reports none.
        let free = Simulator::new(config.clone().unconstrained_memory());
        let unconstrained = free.run_trace(&trace);
        assert_eq!(unconstrained.stalls.bandwidth.value(), 0.0);
    }
}

#[test]
fn recorded_non_gemm_counts_cover_the_analytical_profile() {
    // The recorded trace counts *all* executed digital work; it must be
    // at least the analytical per-block profile (it also sees the final
    // LayerNorm the analytical profile omits) and exactly match it on
    // softmax and GELU, which exist only inside blocks.
    for model in TransformerConfig::paper_benchmarks() {
        let tiny = model.tiny_validation();
        let prof = tiny.non_gemm_profile();
        let recorded = record_forward(&tiny);
        let sum = |kind: lightening_transformer::core::NonGemmKind| -> u64 {
            recorded
                .ops()
                .iter()
                .filter_map(|op| match *op {
                    Op::NonGemm { kind: k, elems } if k == kind => Some(elems),
                    _ => None,
                })
                .sum()
        };
        use lightening_transformer::core::NonGemmKind::*;
        assert_eq!(sum(Softmax), prof.softmax_elems, "{}", model.name);
        assert_eq!(sum(Gelu), prof.gelu_elems, "{}", model.name);
        assert_eq!(sum(Residual), prof.residual_elems, "{}", model.name);
        let ln_f = (tiny.seq_len * tiny.dim) as u64;
        assert_eq!(
            sum(LayerNorm),
            prof.layernorm_elems + ln_f,
            "{}: recorded = per-block norms + the final LayerNorm",
            model.name
        );
    }
}
