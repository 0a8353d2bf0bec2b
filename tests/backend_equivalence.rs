//! Backend-equivalence properties for the unified `Matrix` /
//! `ComputeBackend` API.
//!
//! These pin the two contracts the API redesign rests on:
//!
//! 1. The ideal DPTC backend is *bit-for-bit* the workspace's shared
//!    exact kernel (`lt_core::NativeBackend`) — "ideal photonics computes
//!    the exact product" is an identity, not an approximation.
//! 2. The analytic-noisy fidelity at the paper's operating point stays
//!    inside the error bound asserted by `lt_dptc`'s crate-level
//!    doc-test (`err < 0.5` on paper-geometry one-shot products).
//!
//! It also pins the noisy DPTC's outputs bit for bit (digests of the
//! tiled GEMM, the one-shot MM and a starved-pool scheduler run), so a
//! speed change to the Eq. 9 loop cannot move a single noise draw, and
//! the decode path's outputs, costs and recorded traces on three
//! backends, so a host-speed change above the backends cannot either,
//! and the logits of every photonic engine the accuracy experiments
//! evaluate on, the outcome of exact-engine training, and the replies
//! of the classifier server.

mod common;

use common::{fnv1a, trace_words};
use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::baselines::{MrrBackend, MziBackend, PcmBackend, SvdBackend};
use lightening_transformer::core::{
    reference_gemm, ComputeBackend, GaussianSampler, Matrix64, NativeBackend, RunCtx,
};
use lightening_transformer::dptc::{Dptc, DptcBackend, DptcConfig, Fidelity, NoiseModel};
use lightening_transformer::nn::data;
use lightening_transformer::nn::decode::{
    greedy, DecodeReply, DecodeSession, DecoderConfig, DecoderLm, SessionConfig,
};
use lightening_transformer::nn::kv::{BlockPool, PagedKvCache, PreemptPolicy};
use lightening_transformer::nn::layers::ForwardCtx;
use lightening_transformer::nn::model::{
    Classifier, ModelConfig, TextClassifier, VisionTransformer,
};
use lightening_transformer::nn::quant::QuantConfig;
use lightening_transformer::nn::serve::decode::DecodeRequest;
use lightening_transformer::nn::serve::sched::{KvScheduler, KvServeConfig};
use lightening_transformer::nn::serve::{Request, ServeConfig, Server};
use lightening_transformer::nn::train::{evaluate, train, TrainConfig};
use lightening_transformer::nn::{BackendEngine, ExactEngine, Tensor};
use std::borrow::Borrow;

fn rand_pair(rng: &mut GaussianSampler, m: usize, k: usize, n: usize) -> (Matrix64, Matrix64) {
    (
        Matrix64::from_fn(m, k, |_, _| rng.uniform_in(-1.0, 1.0)),
        Matrix64::from_fn(k, n, |_, _| rng.uniform_in(-1.0, 1.0)),
    )
}

/// Property: over random shapes and operands, `DptcBackend::ideal`
/// returns exactly (`==`, not approximately) what the shared reference
/// kernel returns.
#[test]
fn ideal_backend_is_bit_for_bit_the_reference_matmul() {
    let mut rng = GaussianSampler::new(1);
    let backend = DptcBackend::ideal(DptcConfig::lt_paper());
    for case in 0..40 {
        let m = 1 + rng.below(40);
        let k = 1 + rng.below(40);
        let n = 1 + rng.below(40);
        let (a, b) = rand_pair(&mut rng, m, k, n);
        let mut ctx = RunCtx::new(case);
        let ideal = backend.gemm(a.view(), b.view(), &mut ctx);
        let native = NativeBackend.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(ideal, native, "case {case} ({m}x{k}x{n})");
        // And the kernel itself agrees with the naive reference to
        // floating-point accumulation-order tolerance.
        let reference = reference_gemm(&a.view(), &b.view());
        assert!(ideal.max_abs_diff(&reference) < 1e-10, "case {case}");
    }
}

/// Property: the paper-default analytic noise respects the error bound
/// the `lt_dptc` crate doc-test asserts — the doc-test's exact operand
/// pattern (constant 0.25 x -0.5 paper-geometry matrices, observed
/// element error < 0.5) must hold for *every* seed, not just the one the
/// doc-test happens to use; and on random unit-range operands the
/// max-over-all-elements error stays inside the unit-test envelope
/// (< 0.8).
#[test]
fn analytic_noisy_respects_the_doc_test_error_bound() {
    let core = Dptc::new(DptcConfig::lt_paper());

    // The doc-test's setup, swept over seeds.
    let a_doc = Matrix64::from_fn(12, 12, |_, _| 0.25);
    let b_doc = Matrix64::from_fn(12, 12, |_, _| -0.5);
    let ideal_doc = core.matmul(a_doc.view(), b_doc.view(), &Fidelity::Ideal);
    for seed in 0..200 {
        let noisy = core.matmul(a_doc.view(), b_doc.view(), &Fidelity::paper_noisy(seed));
        let err = (noisy.get(0, 0) - ideal_doc.get(0, 0)).abs();
        assert!(
            err < 0.5,
            "seed {seed}: element error {err} breaks the documented bound"
        );
    }

    // Random unit-range operands: whole-matrix envelope.
    let mut rng = GaussianSampler::new(2);
    for seed in 0..60 {
        let (a, b) = rand_pair(&mut rng, 12, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let noisy = core.matmul(a.view(), b.view(), &Fidelity::paper_noisy(seed));
        let err = noisy.max_abs_diff(&ideal);
        assert!(
            err > 0.0 && err < 0.8,
            "seed {seed}: max element error {err}"
        );
    }
}

/// Every backend in the workspace serves the same workload through the
/// same trait — a pure backend swap — and stays within its class's
/// documented error envelope.
#[test]
fn every_backend_serves_the_same_workload() {
    let mut rng = GaussianSampler::new(3);
    let (a, b) = rand_pair(&mut rng, 18, 24, 15);
    let exact = a.matmul(&b);
    let scale = exact.max_abs();

    let backends: Vec<(Box<dyn ComputeBackend>, f64)> = vec![
        (Box::new(NativeBackend), 1e-12),
        (Box::new(DptcBackend::ideal(DptcConfig::lt_paper())), 1e-12),
        (Box::new(DptcBackend::quantized(8)), 0.10),
        (Box::new(DptcBackend::paper(8, 7)), 0.50),
        (Box::new(MziBackend::paper(8)), 0.15),
        (Box::new(MrrBackend::paper(8)), 0.15),
        (Box::new(PcmBackend::paper(8)), 0.25),
        (Box::new(SvdBackend::new(15)), 1e-6),
    ];
    let mut ctx = RunCtx::new(11);
    for (backend, bound) in &backends {
        let got = backend.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(got.shape(), exact.shape(), "{}", backend.name());
        let rel = got.max_abs_diff(&exact) / scale;
        assert!(
            rel < *bound,
            "{}: relative error {rel} exceeds its {bound} envelope",
            backend.name()
        );
    }
}

/// The batched entry point agrees with per-pair calls for deterministic
/// backends.
#[test]
fn batched_gemm_matches_sequential_for_deterministic_backends() {
    let mut rng = GaussianSampler::new(4);
    let (a, b) = rand_pair(&mut rng, 9, 13, 7);
    let (c, d) = rand_pair(&mut rng, 7, 11, 9);
    let backend = DptcBackend::ideal(DptcConfig::lt_paper());
    let outs = backend.gemm_batch(
        &[(a.view(), b.view()), (c.view(), d.view())],
        &mut RunCtx::new(0),
    );
    assert_eq!(outs.len(), 2);
    assert_eq!(outs[0], a.matmul(&b));
    assert_eq!(outs[1], c.matmul(&d));
}

fn digest(values: &[f64]) -> u64 {
    fnv1a(values.iter().map(|v| v.to_bits()))
}

/// The `[m, k] x [k, n]` products of servebench's `dptc_pressure` pass
/// (tiny decoder, dim 32, chunked prefill of 4).
const PRESSURE_SHAPES: [(usize, usize, usize); 8] = [
    (1, 32, 32),
    (4, 32, 32),
    (1, 32, 64),
    (1, 64, 32),
    (1, 32, 16),
    (1, 8, 17),
    (1, 17, 8),
    (4, 8, 8),
];

/// Ragged shapes: a lone element, partial tiles on every axis, and more
/// than one row strip and reduction tile.
const EDGE_SHAPES: [(usize, usize, usize); 3] = [(1, 1, 1), (3, 7, 5), (13, 25, 14)];

/// Operands at a few magnitudes. `edge` operands also get a zero row in
/// `a`, a zero column in `b`, and scattered `-0.0` entries, so all-zero
/// tiles, signed zeros and zero-magnitude encodings are all exercised.
fn pinned_operands(
    rng: &mut GaussianSampler,
    (m, k, n): (usize, usize, usize),
    edge: bool,
) -> (Matrix64, Matrix64) {
    let scale = [0.5, 1.0, 3.0][rng.below(3)];
    let mut a = Matrix64::from_fn(m, k, |_, _| rng.uniform_in(-scale, scale));
    let mut b = Matrix64::from_fn(k, n, |_, _| rng.uniform_in(-scale, scale));
    if edge {
        let zero_row = rng.below(m);
        let zero_col = rng.below(n);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i / k == zero_row || i % 5 == 2 {
                *v = -0.0;
            }
        }
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            if i % n == zero_col {
                *v = 0.0;
            } else if i % 7 == 3 {
                *v = -0.0;
            }
        }
    }
    (a, b)
}

/// One starved-pool scheduler run on the noisy DPTC, configured as
/// servebench's `dptc_pressure` (14 blocks of 4 tokens, swap-out,
/// chunked prefill of 4, 16 active sessions): the tokens of every
/// request in ticket order.
fn pressure_run_tokens(seed: u64, requests: usize) -> Vec<u64> {
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut GaussianSampler::new(17));
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let kv = KvServeConfig {
        block_tokens: 4,
        pool_blocks: DecoderConfig::tiny().max_seq.div_ceil(4) + 2,
        prefix_sharing: false,
        preempt: PreemptPolicy::SwapOut,
    };
    let session = SessionConfig {
        seed,
        kv_bits: 8,
        ..SessionConfig::default()
    };
    let mut sched = KvScheduler::new(&model, &sim, DptcBackend::paper(8, seed), session, kv, 16)
        .with_prefill_chunk(4);
    let mut rng = GaussianSampler::new(seed ^ 0x5EED);
    for t in 0..requests as u64 {
        let prompt_len = 8 + rng.below(9);
        sched.submit(
            t,
            DecodeRequest {
                prompt: (0..prompt_len).map(|_| rng.below(16)).collect(),
                max_new_tokens: 8 + rng.below(5),
            },
        );
    }
    let mut replies = Vec::new();
    while sched.has_work() {
        sched.tick().expect("a starved pool still makes progress");
        replies.extend(sched.drain_finished());
        assert!(
            sched.drain_failed().is_empty(),
            "seed {seed}: a request failed"
        );
    }
    assert_eq!(
        replies.len(),
        requests,
        "seed {seed}: every request completes"
    );
    assert!(
        sched.stats().preemptions > 0,
        "seed {seed}: the pool never ran dry"
    );
    replies.sort_by_key(|&(t, _)| t);
    replies
        .into_iter()
        .flat_map(|(_, r)| r.tokens)
        .map(|t| t as u64)
        .collect()
}

/// The noisy DPTC's outputs, pinned bit for bit. The digests were taken
/// from the per-draw analytic loop (one `sample()` call per Gaussian, a
/// table-driven DAC quantizer) before the loop moved to one bulk draw
/// per tile and a table-free quantizer. Any change to the Gaussian
/// stream, the number or order of draws, or the Eq. 9 arithmetic moves a
/// digest.
#[test]
fn noisy_dptc_outputs_are_pinned_bit_for_bit() {
    let want: [(&str, u64); 8] = [
        ("paper(4) tiled", 0xdde4_f165_e085_59e3),
        ("quantized(4) tiled", 0x1089_6baf_98ca_dc42),
        ("paper(8) tiled", 0xaaec_5259_6f84_ca36),
        ("quantized(8) tiled", 0xa421_d5d9_c8dc_39d2),
        ("paper_noisy one-shot", 0xf96c_80ce_cbb7_aa7b),
        ("scheduler seed 1", 0xe6e0_201c_b2d0_f429),
        ("scheduler seed 7", 0x682f_2e96_f544_b3ca),
        ("scheduler seed 606", 0xd3d0_408a_d474_30e2),
    ];
    let mut got = Vec::new();

    // 20 rounds over the 11 shapes: 220 products per backend and bit-width.
    for bits in [4, 8] {
        for backend in [DptcBackend::paper(bits, 5), DptcBackend::quantized(bits)] {
            let mut rng = GaussianSampler::new(u64::from(bits));
            let mut ctx = RunCtx::new(u64::from(bits) + 100);
            let mut outputs = Vec::new();
            for _ in 0..20 {
                for (i, &shape) in PRESSURE_SHAPES.iter().chain(&EDGE_SHAPES).enumerate() {
                    let (a, b) = pinned_operands(&mut rng, shape, i >= PRESSURE_SHAPES.len());
                    outputs.extend_from_slice(backend.gemm(a.view(), b.view(), &mut ctx).data());
                }
            }
            got.push(digest(&outputs));
        }
    }

    let core = Dptc::new(DptcConfig::lt_paper());
    let mut rng = GaussianSampler::new(12);
    let mut outputs = Vec::new();
    for seed in 0..200 {
        let (a, b) = pinned_operands(&mut rng, (12, 12, 12), seed % 4 == 0);
        let out = core.matmul(a.view(), b.view(), &Fidelity::paper_noisy(seed));
        outputs.extend_from_slice(out.data());
    }
    got.push(digest(&outputs));

    for seed in [1, 7, 606] {
        got.push(fnv1a(pressure_run_tokens(seed, 60)));
    }

    let got: Vec<(&str, u64)> = want.iter().map(|&(label, _)| label).zip(got).collect();
    assert_eq!(got, want, "noisy DPTC outputs moved");
}

/// The bits of an f32 tensor, one word per element.
fn tensor_words(t: &Tensor) -> impl Iterator<Item = u64> + '_ {
    t.data().iter().map(|v| u64::from(v.to_bits()))
}

/// A finished session's tokens, per-pass cycles and KV footprint.
fn reply_words(reply: &DecodeReply) -> Vec<u64> {
    let mut words: Vec<u64> = reply.tokens.iter().map(|&t| t as u64).collect();
    words.push(reply.prefill.cycles);
    words.extend(reply.steps.iter().map(|r| r.cycles));
    words.push(reply.kv_cache_bytes);
    words
}

/// Digest of everything the decode path produces for a decoder of
/// geometry `config` on one backend and quantization mode: the logits
/// of `DecoderLm`'s four passes driven directly through a `ForwardCtx`
/// (and the engine's seed draws after them), then the tokens, per-pass
/// cycles and coalesced traces of `DecodeSession` runs: whole and
/// chunked prefill, speculative steps on a tapered decoder, and
/// recompute-on-resume of a paged cache dropped after its prefill and
/// again mid-prefill.
fn decode_path_digest<B: ComputeBackend + Clone>(
    config: DecoderConfig,
    backend: B,
    quant: QuantConfig,
) -> u64 {
    let model = DecoderLm::new(config, &mut GaussianSampler::new(23));
    let cfg = model.config();
    let mut words = Vec::new();

    let mut engine = BackendEngine::new(backend.clone(), 5);
    {
        let mut ctx = ForwardCtx::inference(&mut engine, quant);
        let prompt = [3, 1, 4, 1, 5, 9, 2];
        let mut cache = model.empty_cache();
        let mut logits = model.prefill(&prompt, &mut cache, &mut ctx);
        words.extend(tensor_words(&logits));
        for _ in 0..3 {
            logits = model.decode_step(greedy(&logits), &mut cache, &mut ctx);
            words.extend(tensor_words(&logits));
        }
        let verify = model.verify_step(&[greedy(&logits), 2, 7, 1, 8], &mut cache, &mut ctx);
        words.extend(tensor_words(&verify));
        let mut chunked = model.empty_cache();
        for chunk in [&prompt[..3], &prompt[3..]] {
            let h = model.prefill_chunk(chunk, &mut chunked, &mut ctx);
            words.extend(tensor_words(&h));
            words.extend(tensor_words(&model.logits_at_last(&h, &mut ctx)));
        }
    }
    words.push(engine.seed_draws());

    let sim = Simulator::new(ArchConfig::lt_base(8));
    let config = SessionConfig {
        seed: 31,
        quant,
        ..SessionConfig::default()
    };
    let prompt: Vec<usize> = (0..9).map(|i| (i * 5 + 2) % 16).collect();
    for chunk in [None, Some(2), Some(4)] {
        let mut s = DecodeSession::new(&model, 4, prompt.clone(), 9, backend.clone(), config);
        match chunk {
            None => words.extend(trace_words(&s.prefill(&model, &sim))),
            Some(c) => {
                while !s.prefill_done() {
                    words.extend(trace_words(&s.prefill_partial(&model, &sim, c)));
                }
            }
        }
        while !s.is_done() {
            words.extend(trace_words(&s.step(&model, &sim)));
        }
        words.extend(reply_words(&s.into_reply()));
    }

    let mut tapered = model.clone();
    tapered.taper_deep_blocks(0.25);
    let draft = tapered.draft();
    let mut s = DecodeSession::new(&tapered, 5, prompt.clone(), 12, backend.clone(), config);
    words.extend(trace_words(&s.prefill(&tapered, &sim)));
    while !s.is_done() {
        let report = s.spec_step(&tapered, &draft, &sim, 4);
        let o = report.outcome;
        words.extend([o.accepted as u64, o.bonus_token as u64, o.rollback as u64]);
        words.extend(trace_words(&report.draft_trace));
        words.extend(trace_words(&report.verify_trace));
        words.extend([report.draft_cost.cycles, report.verify_cost.cycles]);
    }
    words.extend(reply_words(&s.into_reply()));

    let pool = BlockPool::new(32, cfg.layers, cfg.dim, 4);
    for mid_prefill in [false, true] {
        let cache = PagedKvCache::new(&pool);
        let mut s =
            DecodeSession::new_paged(&model, 6, prompt.clone(), 8, backend.clone(), config, cache);
        if mid_prefill {
            s.prefill_partial(&model, &sim, 4);
        } else {
            s.prefill(&model, &sim);
            for _ in 0..3 {
                s.step(&model, &sim);
            }
        }
        s.paged_kv_mut().drop_resident();
        words.extend(trace_words(&s.resume_by_recompute(&model)));
        while !s.prefill_done() {
            s.prefill_partial(&model, &sim, 4);
        }
        while !s.is_done() {
            words.extend(trace_words(&s.step(&model, &sim)));
        }
        words.extend(reply_words(&s.into_reply()));
    }
    fnv1a(words)
}

/// The decode path's outputs, pinned bit for bit on the exact, the
/// noisy and the quantized DPTC backend, plus a fake-quantized and an
/// integer context on the exact one (see [`decode_path_digest`]). The
/// digests were taken with per-thread sharded trace recorders, per-head
/// `col_slice`/`transpose` copies in attention and copying row ops,
/// before each pass got its own trace and attention its copy-free head
/// products. Any change to a logit, a sampled token, a cost, a recorded
/// op or the number of noise draws moves a digest.
#[test]
fn decode_path_outputs_are_pinned_bit_for_bit() {
    let want: [(&str, u64); 5] = [
        ("native fp32", 0x5db2_e8e5_7b64_6c73),
        ("dptc paper(8, 13) fp32", 0x083c_3202_5289_de3f),
        ("dptc quantized(8) fp32", 0x6b77_94ad_f645_3202),
        ("native low_bit(8)", 0x922d_f35e_0a81_bfcd),
        ("native int8", 0x90cc_835f_0898_5992),
    ];
    let tiny = DecoderConfig::tiny();
    let got = [
        decode_path_digest(tiny, NativeBackend, QuantConfig::fp32()),
        decode_path_digest(tiny, DptcBackend::paper(8, 13), QuantConfig::fp32()),
        decode_path_digest(tiny, DptcBackend::quantized(8), QuantConfig::fp32()),
        decode_path_digest(tiny, NativeBackend, QuantConfig::low_bit(8)),
        decode_path_digest(tiny, NativeBackend, QuantConfig::int8()),
    ];
    let got: Vec<(&str, u64)> = want.iter().map(|&(label, _)| label).zip(got).collect();
    assert_eq!(got, want, "decode path outputs moved");
}

/// The decode path at servebench `serve_open`'s geometry (dim 128, 2
/// layers, 4 heads, FFN 256, vocabulary 64), pinned bit for bit on the
/// exact backend at fp32 (see [`decode_path_digest`]). Every staged
/// weight there (64-256 KiB in f64) is above the 32 KiB gate at which
/// the exact kernel folds B from its f32 source, so this pins that fold
/// on the decode path; the digest was taken before the kernel had it.
#[test]
fn decode_path_at_serve_geometry_is_pinned_bit_for_bit() {
    let serve = DecoderConfig {
        dim: 128,
        layers: 2,
        heads: 4,
        ffn_dim: 256,
        vocab: 64,
        max_seq: 32,
    };
    assert_eq!(
        decode_path_digest(serve, NativeBackend, QuantConfig::fp32()),
        0x21d7_3987_9f46_14dd,
        "decode path outputs at serve geometry moved"
    );
}

/// The logits `evaluate` scores, pinned bit for bit on every photonic
/// engine the accuracy experiments build (figs. 14-15 and
/// `tests/accuracy_pipeline.rs`): a 12x12 DPTC with `n_lambda`
/// wavelengths, the paper's noisy fidelity seeded with `seed`, `bits`-bit
/// DACs and, at the noise sweeps' extremes, a swapped noise model. Each
/// runs seeded tiny vision and text models under 4-bit, 8-bit and fp32
/// quantization. The digests were taken on a dedicated photonic engine
/// that ran every product through `gemm` on fresh operand copies, before
/// those runs moved onto `BackendEngine` with its staged weights and
/// copy-free heads. `repro fig14` and `repro fig15` print 100.0 % on
/// every row, so their text cannot show a moved bit.
#[test]
fn photonic_accuracy_engines_are_pinned_bit_for_bit() {
    let magnitude = NoiseModel::paper_default().with_magnitude(0.08);
    let phase = NoiseModel::paper_default().with_phase_degrees(7.0);
    let both = magnitude.with_phase_degrees(7.0);
    // ((bits, n_lambda, seed, noise), digest)
    let want = [
        ((4, 6, 42, None), 0x3c03_0a0a_79a2_1df9),
        ((4, 12, 42, None), 0xfcfe_6fd6_7bea_a431),
        ((4, 26, 42, None), 0x4a10_b106_a089_a9da),
        ((8, 6, 43, None), 0x46f9_330c_8212_9770),
        ((8, 12, 43, None), 0x0f71_87e4_f5d6_4d65),
        ((8, 26, 43, None), 0xc646_077f_956d_40fc),
        ((4, 12, 44, Some(magnitude)), 0x126d_6f5c_25b8_9fcc),
        ((4, 12, 45, Some(phase)), 0xa52a_63a3_1a5d_dad6),
        ((4, 12, 5, Some(both)), 0x5864_f543_20d3_2007),
    ];
    let mut vision = VisionTransformer::new(
        ModelConfig::tiny_vision(),
        data::NUM_PATCHES,
        data::PATCH_DIM,
        &mut GaussianSampler::new(100),
    );
    let mut text = TextClassifier::new(
        ModelConfig::tiny_text(),
        data::VOCAB,
        data::SEQ_LEN,
        &mut GaussianSampler::new(200),
    );
    let images = data::vision_dataset(3, 3);
    let sentences = data::text_dataset(3, 4);

    let mut got = Vec::new();
    for &((bits, n_lambda, seed, noise), _) in &want {
        let new_engine = || {
            let core = DptcConfig::new(12, 12, n_lambda);
            let mut backend = DptcBackend::new(core, Fidelity::paper_noisy(seed), bits);
            if let Some(noise) = noise {
                backend = backend.with_noise(noise);
            }
            BackendEngine::new(backend, seed)
        };
        let mut words = Vec::new();
        for quant in [
            QuantConfig::low_bit(4),
            QuantConfig::low_bit(8),
            QuantConfig::fp32(),
        ] {
            // One engine and one sampler per sweep point, as `evaluate`.
            let mut engine = new_engine();
            for (image, _) in &images {
                let mut ctx = ForwardCtx::inference(&mut engine, quant);
                words.extend(tensor_words(&vision.forward(image, &mut ctx)));
            }
            words.push(engine.seed_draws());
            let mut engine = new_engine();
            for (sentence, _) in &sentences {
                let mut ctx = ForwardCtx::inference(&mut engine, quant);
                words.extend(tensor_words(&text.forward(sentence, &mut ctx)));
            }
            words.push(engine.seed_draws());
        }
        got.push(((bits, n_lambda, seed, noise), fnv1a(words)));
    }
    assert_eq!(got, want, "photonic accuracy engine outputs moved");
}

/// Digest of one seeded `train` run on the exact engine: every
/// parameter's bits afterwards, the per-epoch stats, then the logits
/// `evaluate` scores on `test_set` (one inference context per sample
/// over a sampler seeded 0, at the training quantization) and the
/// accuracy it reports.
fn trained_digest<I, M, S>(
    model: &mut M,
    train_set: &[(S, usize)],
    test_set: &[(S, usize)],
    cfg: &TrainConfig,
) -> u64
where
    I: ?Sized,
    M: Classifier<I>,
    S: Borrow<I>,
{
    let stats = train(model, train_set, cfg);
    let mut words = Vec::new();
    model.visit_params(&mut |p| words.extend(tensor_words(&p.value)));
    for s in &stats {
        words.extend([u64::from(s.loss.to_bits()), s.accuracy.to_bits()]);
    }
    let mut engine = ExactEngine;
    for (input, _) in test_set {
        let mut ctx = ForwardCtx::inference(&mut engine, cfg.quant);
        words.extend(tensor_words(&model.forward(input.borrow(), &mut ctx)));
    }
    words.push(evaluate(model, test_set, &mut ExactEngine, cfg.quant).to_bits());
    fnv1a(words)
}

/// `ExactEngine` training, pinned bit for bit: a tiny ViT under the
/// accuracy experiments' 4-bit noise-aware recipe and a tiny text model
/// under the plain fp32 recipe, each trained for two short epochs (see
/// [`trained_digest`]). Training issues the workspace's tall f32
/// products (forward and backward at 12-17 tokens), which the
/// accuracy tests check only against thresholds. The digests were
/// taken when the exact kernel still ran full four-row strips through
/// a packed `4 x 8` register tile.
#[test]
fn exact_training_is_pinned_bit_for_bit() {
    let want: [(&str, u64); 2] = [
        ("vision noise_aware(4)", 0x7ff2_02cb_06db_c383),
        ("text fp32", 0x0b99_9cf8_1afe_c95f),
    ];
    let mut vision = VisionTransformer::new(
        ModelConfig::tiny_vision(),
        data::NUM_PATCHES,
        data::PATCH_DIM,
        &mut GaussianSampler::new(300),
    );
    let vision_cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::noise_aware(4)
    };
    let mut text = TextClassifier::new(
        ModelConfig::tiny_text(),
        data::VOCAB,
        data::SEQ_LEN,
        &mut GaussianSampler::new(400),
    );
    let text_cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..TrainConfig::quick()
    };
    let got = [
        trained_digest(
            &mut vision,
            &data::vision_dataset(48, 11),
            &data::vision_dataset(16, 12),
            &vision_cfg,
        ),
        trained_digest(
            &mut text,
            &data::text_dataset(48, 13),
            &data::text_dataset(16, 14),
            &text_cfg,
        ),
    ];
    let got: Vec<(&str, u64)> = want.iter().map(|&(label, _)| label).zip(got).collect();
    assert_eq!(got, want, "exact training outputs moved");
}

/// The classifier server's replies, pinned bit for bit: one worker on
/// the noisy DPTC serves nine mixed vision and text requests in batches
/// of up to four, and the digest covers every reply's logits, cost
/// (cycles, latency, energy, utilization) and recorded trace, in ticket
/// order. The digest was taken while each request still seeded a
/// training-noise sampler it never drew from.
#[test]
fn classifier_server_replies_are_pinned_bit_for_bit() {
    let mut rng = GaussianSampler::new(51);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..9)
        .map(|i| {
            if i % 2 == 0 {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            } else {
                Request::Text((0..12).map(|t| (i * 5 + t * 3) % 16).collect())
            }
        })
        .collect();
    let config = ServeConfig {
        workers: 1,
        max_batch: 4,
        seed: 7,
        ..ServeConfig::default()
    };
    let server = Server::new(vision, text, DptcBackend::paper(8, 3), config);
    let pending: Vec<_> = requests.into_iter().map(|r| server.submit(r)).collect();
    let mut words = Vec::new();
    for reply in pending.into_iter().map(|p| p.wait()) {
        words.extend(tensor_words(&reply.logits));
        let cost = reply.cost;
        words.extend([
            cost.cycles,
            cost.latency.value().to_bits(),
            cost.energy.total().value().to_bits(),
            cost.utilization.to_bits(),
        ]);
        words.extend(trace_words(&reply.trace));
    }
    assert_eq!(server.shutdown(), 9);
    assert_eq!(
        fnv1a(words),
        0x76f4_d6f7_9ac0_c767,
        "classifier server replies moved"
    );
}
