//! Throughput of the shared GEMM micro-kernel and the true integer
//! execution path.
//!
//! ```sh
//! cargo bench -p lt-bench --bench kernel
//! ```
//!
//! Four comparisons:
//!
//! 1. **tiled vs naive** — the register-blocked, cache-tiled
//!    `lt_core::kernel::tiled_gemm` against the textbook triple loop
//!    (`reference_gemm`), for `f64` and `f32`. The two are bit-identical
//!    (`tests/kernel_equivalence.rs`); this bench shows what the
//!    identical answer costs. On a CPU with AVX2 the tiled rows run the
//!    kernel's AVX2 build, which it picks at run time.
//! 2. **decode GEMV** — the same comparison for `m = 1` products at
//!    decode-step weight shapes, which the kernel serves on its
//!    skinny-row path (no packing, no padded rows).
//! 3. **f64 vs i8** — the exact float kernel against `quantized_gemm`
//!    on pre-encoded i8 operands (the paper's 8-bit work mode executed
//!    on real integer codes, grouped per-channel scales).
//! 4. **fp32 vs int8 forward** — a whole tiny-ViT forward pass with the
//!    weight-bearing layers on fp32 vs on the integer path.
//!
//! See the RECORDED RESULTS block at the bottom for the captured table
//! from the reference build container.

use lt_bench::timing::bench_for;
use lt_core::kernel::tiled_gemm;
use lt_core::{
    quantized_gemm, reference_gemm, GaussianSampler, Matrix32, Matrix64, QuantizedMatrix,
};
use lt_nn::layers::ForwardCtx;
use lt_nn::model::{Classifier, ModelConfig, VisionTransformer};
use lt_nn::quant::QuantConfig;
use lt_nn::{ExactEngine, Tensor};
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(300);

fn tiled_vs_naive(m: usize, k: usize, n: usize) {
    let mut rng = GaussianSampler::new(1);
    let a64 = Matrix64::randn(m, k, 1.0, &mut rng);
    let b64 = Matrix64::randn(k, n, 1.0, &mut rng);
    let naive = bench_for(&format!("naive f64 {m}x{k}x{n}"), WINDOW, || {
        reference_gemm(&a64.view(), &b64.view())
    });
    println!("{}", naive.row());
    let tiled = bench_for(&format!("tiled f64 {m}x{k}x{n}"), WINDOW, || {
        tiled_gemm(&a64.view(), &b64.view())
    });
    println!(
        "{}  [{:.2}x vs naive]",
        tiled.row(),
        tiled.speedup_vs(&naive)
    );

    let a32 = Matrix32::randn(m, k, 1.0, &mut rng);
    let b32 = Matrix32::randn(k, n, 1.0, &mut rng);
    let naive32 = bench_for(&format!("naive f32 {m}x{k}x{n}"), WINDOW, || {
        reference_gemm(&a32.view(), &b32.view())
    });
    println!("{}", naive32.row());
    let tiled32 = bench_for(&format!("tiled f32 {m}x{k}x{n}"), WINDOW, || {
        tiled_gemm(&a32.view(), &b32.view())
    });
    println!(
        "{}  [{:.2}x vs naive]\n",
        tiled32.row(),
        tiled32.speedup_vs(&naive32)
    );
}

fn float_vs_integer(m: usize, k: usize, n: usize) {
    let mut rng = GaussianSampler::new(3);
    let a64 = Matrix64::randn(m, k, 1.0, &mut rng);
    let b64 = Matrix64::randn(k, n, 1.0, &mut rng);
    let f64_report = bench_for(&format!("tiled f64 {m}x{k}x{n}"), WINDOW, || {
        tiled_gemm(&a64.view(), &b64.view())
    });
    println!("{}", f64_report.row());

    let a32 = Matrix32::randn(m, k, 1.0, &mut rng);
    let b32 = Matrix32::randn(k, n, 1.0, &mut rng);
    for bits in [8u32, 4] {
        let aq = QuantizedMatrix::quantize_rows(&a32.view(), bits, 32);
        let bq = QuantizedMatrix::quantize_cols(&b32.view(), bits, 32);
        let int = bench_for(
            &format!("i{bits} gemm {m}x{k}x{n} (group 32)"),
            WINDOW,
            || quantized_gemm(&aq, &bq),
        );
        println!(
            "{}  [{:.2}x vs f64]",
            int.row(),
            int.speedup_vs(&f64_report)
        );
    }
    // Include the encode cost (quantize-at-call, the Linear layer's
    // actual per-forward work).
    let enc = bench_for(&format!("i8 encode+gemm {m}x{k}x{n}"), WINDOW, || {
        let aq = QuantizedMatrix::quantize_rows(&a32.view(), 8, 32);
        let bq = QuantizedMatrix::quantize_cols(&b32.view(), 8, 32);
        quantized_gemm(&aq, &bq)
    });
    println!(
        "{}  [{:.2}x vs f64]\n",
        enc.row(),
        enc.speedup_vs(&f64_report)
    );
}

fn forward_modes() {
    let mut rng = GaussianSampler::new(42);
    let vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let patches = Tensor::randn(16, 16, 1.0, &mut rng);
    let mut base = None;
    for (label, quant) in [
        ("fp32", QuantConfig::fp32()),
        ("int8", QuantConfig::int8()),
        ("int4", QuantConfig::int4()),
    ] {
        let report = bench_for(
            &format!("tiny-ViT forward {label} (exact engine)"),
            WINDOW,
            || {
                let mut model = vit.clone();
                let mut engine = ExactEngine;
                let mut nrng = GaussianSampler::new(0);
                let mut ctx = ForwardCtx::inference(&mut engine, quant, &mut nrng);
                model.forward(&patches, &mut ctx)
            },
        );
        match &base {
            None => {
                println!("{}", report.row());
                base = Some(report);
            }
            Some(b) => println!("{}  [{:.2}x vs fp32]", report.row(), report.speedup_vs(b)),
        }
    }
}

fn main() {
    println!("== shared GEMM micro-kernel & integer path ==");
    tiled_vs_naive(96, 256, 96);
    tiled_vs_naive(192, 192, 192);
    // Decode-step weight shapes: servebench's serve_open decoder (dim
    // 128, FFN 256) and GPT2-small (dim 768, FFN 3072).
    for (k, n) in [
        (128, 128),
        (128, 256),
        (256, 128),
        (768, 768),
        (768, 3072),
        (3072, 768),
    ] {
        tiled_vs_naive(1, k, n);
    }
    float_vs_integer(96, 256, 96);
    forward_modes();
}

// RECORDED RESULTS — 2-core Intel Xeon VM (shared; AVX2 and AVX-512),
// 2026-10-17, in a slow phase: the naive loops ran ~1.4x slower than on
// 2026-10-16; single-threaded data path only. Best of two runs per
// side, alternated. The `before` column is the parent build, where the
// kernel ran only as compiled for baseline x86-64 (SSE2); the `tiled`
// rows now run its AVX2 build, picked at run time on this CPU:
//
//                                       us/iter  vs naive    before
//   naive f64 96x256x96                    8025
//   tiled f64 96x256x96                     398    20.18x    1107 us
//   naive f32 96x256x96                    8134
//   tiled f32 96x256x96                     313    26.01x     383 us
//   naive f64 192x192x192                 25389
//   tiled f64 192x192x192                  1313    19.34x    3907 us
//   naive f32 192x192x192                 23778
//   tiled f32 192x192x192                   828    28.71x    1639 us
//   tiled f64 1x128x128                     3.4    16.36x     4.7 us
//   tiled f32 1x128x128                     1.6    32.92x     3.0 us
//   tiled f64 1x128x256                     6.1    16.43x    10.7 us
//   tiled f32 1x128x256                     3.6    29.19x     5.6 us
//   tiled f64 1x256x128                     6.3    18.38x    10.1 us
//   tiled f32 1x256x128                     3.8    26.55x     5.7 us
//   tiled f64 1x768x768                     213    10.80x     228 us
//   tiled f32 1x768x768                      95    23.41x     120 us
//   tiled f64 1x768x3072                    933    14.14x     942 us
//   tiled f32 1x768x3072                    438    28.88x     476 us
//   tiled f64 1x3072x768                    872    23.24x     924 us
//   tiled f32 1x3072x768                    443    31.46x     550 us
//   tiled f64 96x256x96                     327              1355 us
//   i8 gemm 96x256x96 (group 32)           1247     0.26x vs f64
//   i4 gemm 96x256x96 (group 32)           1438     0.23x vs f64
//   i8 encode+gemm 96x256x96               1280     0.26x vs f64
//   tiny-ViT forward fp32 (exact)           177               301 us
//   tiny-ViT forward int8 (exact)           599     0.30x vs fp32
//   tiny-ViT forward int4 (exact)           700     0.25x vs fp32
//
// (Numbers vary run to run on the shared container, by up to 2x between
// runs of the same binary; regenerate with the command above.) The AVX2
// build runs the packed register tile 2.8-4.1x faster in f64 and 1.2-2x in
// f32. The small `1 x k x n` rows (serve_open's decode shapes) run the
// skinny-row path 1.4-1.9x faster; at GPT2-small shapes, whose f64
// weights (4.5-18 MiB) do not fit in cache, the GEMV is bound by memory
// bandwidth and gains 1-26 %. The integer path is *slower* on the host
// — a scalar i8 loop can't beat the autovectorized float micro-kernel,
// and per-call encoding costs more than it saves — its win is on the
// modeled accelerator (the 4-bit work mode's cycle count) and in memory
// (i4 halves code bytes), both asserted deterministically in the test
// suites.
