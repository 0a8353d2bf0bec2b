//! Throughput of the shared GEMM kernel and the true integer execution
//! path.
//!
//! ```sh
//! cargo bench -p lt-bench --bench kernel
//! ```
//!
//! Five comparisons:
//!
//! 1. **tiled vs naive** — the cache-blocked `lt_core::kernel::tiled_gemm`
//!    against the textbook triple loop (`reference_gemm`), for `f64` and
//!    `f32`. The two are bit-identical (`tests/kernel_equivalence.rs`);
//!    this bench shows what the identical answer costs. On a CPU with
//!    AVX2 the tiled rows run the kernel's AVX2 build, which it picks at
//!    run time.
//! 2. **decode GEMV** — the same comparison for `m = 1` products at
//!    decode-step weight shapes, which walk B once, unblocked.
//! 3. **strip heights** — the kernel's GMAC/s at `m` ∈ {1, 2, 5, 8, 16,
//!    32, 197} rows over the weight shapes the workspace runs (serve_open,
//!    the tiny decoder and its attention heads, GPT2-small), `f32` and
//!    `f64`. This table is the evidence for the kernel's one unpacked
//!    loop and its `RB`-row blocks.
//! 4. **f64 vs i8** — the exact float kernel against `quantized_gemm`
//!    on pre-encoded i8 operands (the paper's 8-bit work mode executed
//!    on real integer codes, grouped per-channel scales).
//! 5. **fp32 vs int8 forward** — a whole tiny-ViT forward pass with the
//!    weight-bearing layers on fp32 vs on the integer path.
//! 6. **source fold** — GMAC/s of an `f64` B read as `f64` beside the
//!    same B carrying its `f32` source (`MatrixView::with_f32_source`),
//!    at `m` ∈ {1, 2, 5, 8, 16, 32, 197}, over serve_open's and the tiny
//!    decoder's weights, DeiT-T's FFN and GPT2-small's; both measured
//!    alternately, cell by cell. The kernel folds the source only above
//!    `SOURCE_FOLD_MIN_BYTES` (32 KiB of `f64`) and for at most `RB`
//!    rows, so the tiny decoder's rows, and every cell at m > 8, run the
//!    same code on both lines.
//! 7. **working-set sweep** — `m = 1` GEMVs cycled over 0.25-4 MiB of
//!    `f64` weights, the way a decode step streams every weight once:
//!    the L2 knee, with 128 x 128 weights (128 KiB, folded from their
//!    source) and 64 x 64 ones (32 KiB, at the gate, read as `f64`).
//!
//! See the RECORDED RESULTS block at the bottom for the captured table
//! from the reference build container.

use lt_bench::timing::bench_for;
use lt_core::kernel::{tiled_gemm, tiled_gemm_into, SOURCE_FOLD_MIN_BYTES};
use lt_core::{
    quantized_gemm, reference_gemm, GaussianSampler, Matrix, Matrix32, Matrix64, QuantizedMatrix,
    Scalar,
};
use lt_nn::layers::ForwardCtx;
use lt_nn::model::{Classifier, ModelConfig, VisionTransformer};
use lt_nn::quant::QuantConfig;
use lt_nn::{ExactEngine, Tensor};
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(300);

/// Row counts `m` of the strip-height table: a decode GEMV, a short
/// prefill chunk, a speculative verify pass (`k + 1 = 5`), one and two
/// row blocks, and taller products no workload issues yet (32 rows, and
/// the 197 tokens of a DeiT-T forward).
const STRIP_ROWS: [usize; 7] = [1, 2, 5, 8, 16, 32, 197];

/// Weight shapes `(k, n)` of the strip-height table: servebench's
/// `serve_open` decoder (dim 128, FFN 256, head 64), the tiny decoder
/// (dim 32, FFN 64), its attention heads (head dim 8, 17 positions) and
/// GPT2-small (dim 768, FFN 3072).
const STRIP_SHAPES: [(usize, usize); 11] = [
    (128, 128),
    (128, 256),
    (256, 128),
    (128, 64),
    (32, 32),
    (32, 64),
    (64, 32),
    (8, 17),
    (17, 8),
    (768, 768),
    (768, 3072),
];

/// Measurement window of one strip-height cell, short enough that the
/// 154-cell table stays a few seconds.
const STRIP_WINDOW: Duration = Duration::from_millis(25);

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

/// One line per weight shape: the kernel's throughput in GMAC/s (from
/// the median window) at each of [`STRIP_ROWS`], through
/// `tiled_gemm_into` with a reused output, as the decode path calls it.
fn strip_heights<T: Scalar>(label: &str) {
    let mut rng = GaussianSampler::new(5);
    for (k, n) in STRIP_SHAPES {
        let b = Matrix::<T>::randn(k, n, T::ONE, &mut rng);
        let mut line = format!("{label} {:>9}", format!("{k}x{n}"));
        for m in STRIP_ROWS {
            let a = Matrix::<T>::randn(m, k, T::ONE, &mut rng);
            let mut out = Matrix::zeros(0, 0);
            let report = bench_for(&format!("{label} {m}x{k}x{n}"), STRIP_WINDOW, || {
                tiled_gemm_into(&a.view(), &b.view(), &mut out);
                out.data()[0]
            });
            line += &format!(" {:>7.2}", (m * k * n) as f64 / report.median_ns);
        }
        println!("{line}");
    }
}

/// Weight shapes `(k, n)` of the source-fold table: serve_open's, the
/// tiny decoder's (below the fold gate), DeiT-T's FFN (dim 192, FFN 768)
/// and GPT2-small's.
const SOURCE_SHAPES: [(usize, usize); 11] = [
    (128, 128),
    (128, 256),
    (256, 128),
    (128, 64),
    (32, 32),
    (32, 64),
    (64, 32),
    (192, 768),
    (768, 192),
    (768, 768),
    (768, 3072),
];

/// Two lines per weight shape: GMAC/s of `tiled_gemm_into` at each of
/// [`STRIP_ROWS`] with B read as `f64`, and with the same B carrying
/// the `f32` values it was widened from. The two are timed alternately,
/// cell by cell.
fn source_fold() {
    let mut rng = GaussianSampler::new(6);
    for (k, n) in SOURCE_SHAPES {
        let source = Matrix32::randn(k, n, 1.0, &mut rng);
        let b = source.to_f64();
        let sourced = b.view().with_f32_source(source.view());
        let shape = format!("{k}x{n}");
        let (mut plain_line, mut source_line) =
            (format!("f64 {shape:>9}"), format!("src {shape:>9}"));
        for m in STRIP_ROWS {
            let a = Matrix64::randn(m, k, 1.0, &mut rng);
            let mut out = Matrix64::zeros(0, 0);
            for (line, b) in [(&mut plain_line, b.view()), (&mut source_line, sourced)] {
                let report = bench_for(&format!("{m}x{k}x{n}"), STRIP_WINDOW, || {
                    tiled_gemm_into(&a.view(), &b, &mut out);
                    out.data()[0]
                });
                *line += &format!(" {:>7.2}", (m * k * n) as f64 / report.median_ns);
            }
        }
        println!("{plain_line}\n{source_line}");
    }
}

/// Total `f64` weight bytes of the working-set sweep, in KiB.
const WORKING_SETS_KIB: [usize; 8] = [256, 512, 1024, 1536, 2048, 2560, 3072, 4096];

/// GMAC/s of `m = 1` GEMVs cycled over [`WORKING_SETS_KIB`] of `k x k`
/// weights, read as `f64` and folded from their `f32` source, timed
/// alternately, cell by cell; one line pair per weight width.
fn working_set_sweep() {
    let mut rng = GaussianSampler::new(8);
    for k in [128, 64] {
        let bytes = k * k * 8;
        let side = if bytes > SOURCE_FOLD_MIN_BYTES {
            "above"
        } else {
            "at"
        };
        let label = format!("{k}x{k} ({} KiB, {side} the gate)", bytes / 1024);
        let (mut plain_line, mut source_line) = (format!("f64 {label}"), format!("src {label}"));
        let a = Matrix64::randn(1, k, 1.0, &mut rng);
        for kib in WORKING_SETS_KIB {
            let sources: Vec<Matrix32> = (0..kib * 1024 / bytes)
                .map(|_| Matrix32::randn(k, k, 1.0, &mut rng))
                .collect();
            let weights: Vec<Matrix64> = sources.iter().map(Matrix32::to_f64).collect();
            let plain: Vec<_> = weights.iter().map(Matrix64::view).collect();
            let sourced: Vec<_> = weights
                .iter()
                .zip(&sources)
                .map(|(b, source)| b.view().with_f32_source(source.view()))
                .collect();
            let mut out = Matrix64::zeros(0, 0);
            for (line, set) in [(&mut plain_line, &plain), (&mut source_line, &sourced)] {
                let report = bench_for(&format!("{kib} KiB of {k}x{k}"), STRIP_WINDOW, || {
                    for b in set.iter() {
                        tiled_gemm_into(&a.view(), b, &mut out);
                    }
                    out.data()[0]
                });
                let macs = set.len() * k * k;
                *line += &format!(" {:>7.2}", macs as f64 / report.median_ns);
            }
        }
        println!("{plain_line}\n{source_line}");
    }
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
    println!("== shared GEMM kernel & integer path ==");
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
    println!("strip heights: tiled GMAC/s by rows m (median of 5 windows)");
    println!(
        "            k x n {}",
        STRIP_ROWS
            .map(|m| format!("{:>7}", format!("m={m}")))
            .join(" ")
    );
    strip_heights::<f64>("f64");
    strip_heights::<f32>("f32");
    println!();
    println!("source fold: tiled f64 GMAC/s by rows m, B read as f64 / from its f32 source");
    println!(
        "            k x n {}",
        STRIP_ROWS
            .map(|m| format!("{:>7}", format!("m={m}")))
            .join(" ")
    );
    source_fold();
    println!();
    println!("working-set sweep: m = 1 GEMV GMAC/s cycling over the f64 weight bytes");
    println!(
        "{:>37} {}",
        "",
        WORKING_SETS_KIB
            .map(|kib| format!("{:>7}", format!("{:.2}M", kib as f64 / 1024.0)))
            .join(" ")
    );
    working_set_sweep();
    println!();
    float_vs_integer(96, 256, 96);
    forward_modes();
}

// RECORDED RESULTS — 2-core Intel Xeon VM (shared; AVX2 and AVX-512),
// 2026-10-17. `before` is the parent build, whose kernel ran full
// four-row strips through a packed 4x8x256 register tile; `after` is
// this build's one unpacked loop. Both sides ran this bench source,
// alternated, ten runs each; every entry is the median over those runs
// of the row's median window (strip cells: GMAC/s). The `tiled` rows
// run the kernel's AVX2 build, picked at run time on this CPU.
//
//                                        before     after   us/iter
//   naive f64 96x256x96                      6901      6642
//   tiled f64 96x256x96                       327       280
//   naive f32 96x256x96                      6671      6972
//   tiled f32 96x256x96                       215       158
//   naive f64 192x192x192                   18384     21501
//   tiled f64 192x192x192                     896       960
//   naive f32 192x192x192                   20236     22254
//   tiled f32 192x192x192                     782       452
//   tiled f64 1x128x128                      2.89      2.66
//   tiled f32 1x128x128                      1.36      1.86
//   tiled f64 1x128x256                      3.96      5.10
//   tiled f32 1x128x256                      2.57      2.85
//   tiled f64 1x256x128                      4.25      4.35
//   tiled f32 1x256x128                      2.55      2.64
//   tiled f64 1x768x768                       211       217
//   tiled f32 1x768x768                      79.5      81.1
//   tiled f64 1x768x3072                      892       915
//   tiled f32 1x768x3072                      462       467
//   tiled f64 1x3072x768                      870       852
//   tiled f32 1x3072x768                      449       443
//   tiled f64 96x256x96                       278       276
//   i8 gemm 96x256x96 (group 32)              832       952
//   i4 gemm 96x256x96 (group 32)              976       999
//   i8 encode+gemm 96x256x96                 1390      1141
//   tiny-ViT forward fp32 (exact)             188       131
//   tiny-ViT forward int8 (exact)             648       509
//   tiny-ViT forward int4 (exact)             699       582
//
//                           m=1    m=2    m=5    m=8   m=16   m=32  m=197
//   f64 128x128   before   7.04   9.09   4.06   5.06   5.71   6.31   7.25
//                 after    7.59   9.62  10.41   9.63  10.09  10.48   9.41
//   f64 128x256   before   8.02   9.07   4.67   4.93   5.86   6.36   6.66
//                 after    8.10   9.02   9.88  10.18  10.85  10.61  11.12
//   f64 256x128   before   6.86   8.14   3.88   4.79   6.13   6.34   7.59
//                 after    8.10   8.66  10.01  10.27  11.16   9.96  10.23
//   f64 128x64    before   6.18   7.78   4.39   3.98   4.93   4.87   5.61
//                 after    6.81   8.28   9.53   8.82   9.25   8.98   9.27
//   f64 32x32     before   3.77   5.46   3.24   3.28   4.83   6.09   6.37
//                 after    4.54   5.69   6.89   7.55   7.61   7.71   7.32
//   f64 32x64     before   6.33   7.10   4.15   5.08   5.83   6.12   6.44
//                 after    6.57   7.58   7.96   8.38   8.61   8.59   8.57
//   f64 64x32     before   5.00   6.30   4.43   5.71   6.29   6.95   7.03
//                 after    5.30   6.50   7.58   7.79   7.58   7.61   7.78
//   f64 8x17      before   1.25   2.08   1.30   1.64   2.15   2.58   2.84
//                 after    1.47   2.31   3.49   3.29   3.67   3.71   4.54
//   f64 17x8      before   1.02   1.87   1.65   2.51   3.63   4.04   5.02
//                 after    0.98   1.37   2.65   2.83   2.61   2.78   3.71
//   f64 768x768   before   2.75   4.31   2.37   3.23   4.19   3.64   5.52
//                 after    2.90   4.11   6.29   6.73   6.00   6.75   7.08
//   f64 768x3072  before   2.71   3.95   1.29   1.81   2.77   4.01   5.43
//                 after    2.65   3.83   5.25   4.97   4.89   5.19   5.55
//   f32 128x128   before  12.07  14.36   5.50   6.72   8.54   9.72  10.04
//                 after   11.79  13.77  16.09  17.54  19.16  19.80  18.98
//   f32 128x256   before  13.91  14.52   5.19   6.26   8.34   8.37   9.04
//                 after   16.20  16.04  19.92  18.06  18.07  21.77  18.79
//   f32 256x128   before  10.79  12.62   4.18   4.93   7.49   8.61  11.57
//                 after   14.36  15.09  12.60  18.60  18.20  17.71  16.81
//   f32 128x64    before  10.18  12.87   5.62   7.04   7.60   7.26   7.85
//                 after    7.30   9.22   9.34  10.04  11.75  13.85  12.05
//   f32 32x32     before   4.01   5.65   3.30   4.08   4.75   5.48   6.17
//                 after    3.84   5.57   7.38   9.55   9.97  10.05  11.64
//   f32 32x64     before   6.00   7.46   3.25   4.04   6.04   5.65   6.06
//                 after    9.04  11.07  14.19  13.38  13.74  13.40  15.04
//   f32 64x32     before   4.33   5.66   3.22   4.38   5.39   5.99   6.97
//                 after    6.46   8.84   9.52   9.67   8.91   9.76   9.51
//   f32 8x17      before   1.09   1.77   1.08   1.50   1.73   2.11   2.50
//                 after    1.18   2.13   4.18   5.05   5.76   4.36   6.01
//   f32 17x8      before   0.83   1.35   1.50   2.55   3.61   4.60   5.50
//                 after    0.89   1.96   3.36   3.12   3.89   4.30   4.66
//   f32 768x768   before   6.70   9.21   3.44   4.20   5.29   5.84   6.91
//                 after    8.61  12.27  17.19  19.04  17.71  16.48  17.27
//   f32 768x3072  before   5.34   7.59   2.38   2.56   4.34   6.44   8.73
//                 after    5.43   8.14  11.66  13.14  12.09  11.31  13.42
//
// One run's cells swing by tens of percent: rows whose code this change
// does not touch (`naive`, i8/i4) moved by up to 18 % between the two
// columns. The `m = 1` and `m = 2` cells and the 300 ms GEMV rows run
// the same loop in both builds, and they are bimodal per process in
// both (e.g. f32 128x64 at m = 1 read 5.3-7.5 or 10.1-11.2 GMAC/s), so
// their medians count fast runs: the best run of each side puts every
// m = 1 cell at 0.91-1.11x the parent, 1.00-1.03x at serve_open's f64
// shapes. Whether those GEMVs are as fast as at the parent is
// unresolved here (ARCHITECTURE.md §9). Narrow outputs (n = 8) at
// m >= 16 are slower than on the packed tile. Regenerate with the
// command above.
//
// Source fold and working-set sweep, added with the fold: the same
// build on both lines, medians over three runs of each cell (GMAC/s),
// 2-core Intel Xeon VM, AVX2 build, 2026-10-18. Cells at m > 8 and on
// the tiny decoder's weights run the same code on both lines.
//
//                        m=1    m=2    m=5    m=8   m=16   m=32  m=197
//   f64 128x128         5.99   6.96   7.32   6.99   7.55   8.21   7.95
//   src 128x128         4.67   5.25   5.70   5.49   8.57   8.17   8.29
//   f64 128x256         8.11   7.35   7.73   7.53   7.09   7.30   7.88
//   src 128x256         5.83   5.31   5.59   5.55   7.15   7.40   7.90
//   f64 768x768         3.10   4.43   5.81   6.13   6.11   5.98   5.82
//   src 768x768         4.69   5.35   5.25   5.75   6.28   5.77   5.95
//   f64 768x3072        3.02   3.97   5.00   5.00   4.72   4.48   4.70
//   src 768x3072        5.42   5.95   6.92   6.70   4.68   4.54   4.56
//
//                      0.25M  0.50M  1.00M  1.50M  2.00M  2.50M  3.00M  4.00M
//   f64 128x128         5.06   5.19   5.07   5.10   3.98   3.44   3.08   3.11
//   src 128x128         4.56   4.58   4.59   4.61   4.60   4.52   4.37   4.02
//   f64 64x64           4.38   4.30   4.42   4.30   3.31   2.93   2.76   2.70
//   src 64x64           4.34   4.30   4.44   4.34   3.39   2.99   2.80   2.72
//
// A single weight multiplied again and again stays in L2, where the
// conversion costs more than the bytes it saves (0.7-0.8x at
// serve_open's shapes); GPT2-small's weights stream from L3 and gain
// 1.5-1.8x at m = 1. Cycling m = 1 GEMVs over 128x128 weights shows
// the L2 knee: past 1.5 MiB the f64 fold falls from 5.1 to 3.1 GMAC/s,
// the source fold holds 4.6 up to 2.5 MiB. The 64x64 weights (32 KiB,
// at the gate) run the f64 fold on both lines.
//
// The integer path is *slower* on the host — a scalar i8 loop can't
// beat the autovectorized float kernel, and per-call encoding costs
// more than it saves — its win is on the modeled accelerator (the 4-bit
// work mode's cycle count) and in memory (i4 halves code bytes), both
// asserted deterministically in the test suites.
