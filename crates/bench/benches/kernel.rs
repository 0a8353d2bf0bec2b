//! Throughput of the shared GEMM kernel and the true integer execution
//! path.
//!
//! ```sh
//! cargo bench -p lt-bench --bench kernel
//! ```
//!
//! Five comparisons:
//!
//! 1. **tiled vs naive** — the register-tiled `lt_core::kernel::tiled_gemm`
//!    against the textbook triple loop (`reference_gemm`), for `f64` and
//!    `f32`. The two are bit-identical (`tests/kernel_equivalence.rs`);
//!    this bench shows what the identical answer costs. On a CPU with
//!    AVX-512F (or AVX2) the tiled rows run the kernel's AVX-512 (or
//!    AVX2) build, which it picks at run time.
//! 2. **decode GEMV** — the same comparison for `m = 1` products at
//!    decode-step weight shapes, which walk B once.
//! 3. **strip heights** — the kernel's GMAC/s at `m` ∈ {1, 2, 4, 5, 8,
//!    16, 32, 197} rows over the weight shapes the workspace runs
//!    (serve_open, the tiny decoder and its attention heads, GPT2-small),
//!    `f32` and `f64`. This table is the evidence for the kernel's
//!    register tiles (four rows, then two, then one) and its `RB`-row
//!    blocks.
//! 4. **f64 vs i8** — the exact float kernel against `quantized_gemm`
//!    on pre-encoded i8 operands (the paper's 8-bit work mode executed
//!    on real integer codes, grouped per-channel scales).
//! 5. **fp32 vs int8 forward** — a whole tiny-ViT forward pass with the
//!    weight-bearing layers on fp32 vs on the integer path.
//! 6. **source fold** — GMAC/s of an `f64` B read as `f64` beside the
//!    same B carrying its `f32` source (`MatrixView::with_f32_source`),
//!    at the same `m` as the strip heights, over serve_open's and the tiny
//!    decoder's weights, DeiT-T's FFN and GPT2-small's; both measured
//!    alternately, cell by cell. The kernel folds the source only above
//!    `SOURCE_FOLD_MIN_BYTES` (32 KiB of `f64`) and for at most `RB`
//!    rows, so the tiny decoder's rows, and every cell at m > 8, run the
//!    same code on both lines.
//! 7. **working-set sweep** — products of `m` ∈ {1, 2, 8} rows cycled
//!    over 0.25-4 MiB of `f64` weights, the way a decode step (`m = 1`)
//!    or a prefill chunk streams every weight once: the L2 knee, with
//!    128 x 128 weights (128 KiB, folded from their source) and 64 x 64
//!    ones (32 KiB, at the gate, read as `f64`).
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
/// prefill chunk, one four-row tile, a speculative verify pass
/// (`k + 1 = 5`), one and two row blocks, and taller products no
/// workload issues yet (32 rows, and the 197 tokens of a DeiT-T
/// forward).
const STRIP_ROWS: [usize; 8] = [1, 2, 4, 5, 8, 16, 32, 197];

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
/// 176-cell table stays a few seconds.
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

/// Row counts of the working-set sweep: a decode GEMV, a short prefill
/// chunk and a full row block.
const SWEEP_ROWS: [usize; 3] = [1, 2, 8];

/// GMAC/s of `m`-row products cycled over [`WORKING_SETS_KIB`] of
/// `k x k` weights, read as `f64` and folded from their `f32` source,
/// timed alternately, cell by cell; one line pair per weight width and
/// row count.
fn working_set_sweep() {
    let mut rng = GaussianSampler::new(8);
    for (k, m) in [128, 64]
        .into_iter()
        .flat_map(|k| SWEEP_ROWS.map(|m| (k, m)))
    {
        let bytes = k * k * 8;
        let side = if bytes > SOURCE_FOLD_MIN_BYTES {
            "above"
        } else {
            "at"
        };
        let label = format!("m={m} {k}x{k} ({} KiB, {side} the gate)", bytes / 1024);
        let (mut plain_line, mut source_line) =
            (format!("f64 {label:<37}"), format!("src {label:<37}"));
        let a = Matrix64::randn(m, k, 1.0, &mut rng);
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
                let macs = set.len() * m * k * k;
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
                let mut ctx = ForwardCtx::inference(&mut engine, quant);
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
    println!("working-set sweep: m-row product GMAC/s cycling over the f64 weight bytes");
    println!(
        "{:>41} {}",
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

// RECORDED RESULTS — 2-core Intel Xeon VM (shared; AVX2 and AVX-512F),
// 2026-10-19. `before` is the parent build, whose kernel was one
// unpacked loop (each output row of an 8-row block folded B's rows in
// place, four reduction steps per load and store of an output element)
// in its AVX2 build; `after` is this build's register tiles in their
// AVX-512 build. Each side picks its build at run time on this CPU.
// Both sides ran this bench source, alternated, ten runs each; every
// entry is the median over those runs of the row's median window
// (table cells: GMAC/s).
//
//                                           before     after   us/iter
//   naive f64 96x256x96                       5318      5321
//   tiled f64 96x256x96                        227       105
//   naive f32 96x256x96                       5298      5272
//   tiled f32 96x256x96                        123      56.0
//   naive f64 192x192x192                    14592     14990
//   tiled f64 192x192x192                      651       325
//   naive f32 192x192x192                    15061     14829
//   tiled f32 192x192x192                      310       162
//   naive f64 1x128x128                       30.6      30.4
//   tiled f64 1x128x128                       1.89      1.15
//   naive f32 1x128x128                       31.8      30.5
//   tiled f32 1x128x128                       1.06      1.00
//   naive f64 1x128x256                       60.7      60.3
//   tiled f64 1x128x256                       3.15      3.58
//   naive f32 1x128x256                       62.8      59.8
//   tiled f32 1x128x256                       1.86      1.10
//   naive f64 1x256x128                       75.7      74.3
//   tiled f64 1x256x128                       3.44      3.35
//   naive f32 1x256x128                       73.9      73.5
//   tiled f32 1x256x128                       1.94      1.11
//   naive f64 1x768x768                       1612      1621
//   tiled f64 1x768x768                        163       165
//   naive f32 1x768x768                       1465      1477
//   tiled f32 1x768x768                       55.3      56.0
//   naive f64 1x768x3072                      8512      8654
//   tiled f64 1x768x3072                       679       673
//   naive f32 1x768x3072                      8326      8390
//   tiled f32 1x768x3072                       342       335
//   naive f64 1x3072x768                     10107     10282
//   tiled f64 1x3072x768                       621       650
//   naive f32 1x3072x768                      8698      8617
//   tiled f32 1x3072x768                       326       323
//   i8 gemm 96x256x96 (group 32)               648       644
//   i4 gemm 96x256x96 (group 32)               708       703
//   i8 encode+gemm 96x256x96                   853       855
//   tiny-ViT forward fp32 (exact engine)      80.1      69.0
//   tiny-ViT forward int8 (exact engine)       347       347
//   tiny-ViT forward int4 (exact engine)       421       421
//
//                           m=1    m=2    m=4    m=5    m=8   m=16   m=32  m=197
//   f64   128x128 before   9.04  11.20  12.64  11.57  12.39  12.60  13.09  12.25
//                 after   14.71  21.66  22.06  20.05  22.08  22.56  22.06  21.88
//   f64   128x256 before  10.57  11.10  11.86  11.69  12.10  13.34  13.18  13.16
//                 after    9.25  15.50  22.67  17.44  22.27  22.50  22.41  21.75
//   f64   256x128 before   9.80  11.54  11.11  11.43  11.91  12.94  11.78  11.91
//                 after    9.73  16.11  22.00  17.55  22.81  22.34  22.18  22.36
//   f64    128x64 before   8.16   9.80  10.44  11.40  11.43  11.09  10.72  11.13
//                 after   13.37  20.53  21.69  19.61  22.21  22.17  22.11  22.94
//   f64     32x32 before   5.46   6.76   7.93   8.29   8.70   9.05   9.18   8.88
//                 after    7.92  13.52  16.71  16.29  19.11  20.03  20.68  20.02
//   f64     32x64 before   7.82   9.00   9.21   9.37   9.70  10.17  10.38  10.19
//                 after   10.98  16.98  19.59  17.89  20.30  21.16  22.24  20.61
//   f64     64x32 before   6.25   7.62   8.84   8.71   9.01   9.38   9.00   9.47
//                 after   10.30  17.07  19.48  18.21  21.27  21.58  22.05  21.71
//   f64      8x17 before   1.83   2.91   4.12   4.46   5.21   5.59   6.14   6.58
//                 after    1.79   3.42   5.89   6.01   7.75   8.91  10.11  11.23
//   f64      17x8 before   1.50   2.40   3.50   3.79   4.23   4.60   4.71   4.89
//                 after    1.73   3.50   6.64   6.50   9.59  11.50  12.96  14.41
//   f64   768x768 before   3.76   5.82   7.98   8.78   9.36   8.70   9.46   9.29
//                 after    3.63   7.00  12.71  11.46  14.18  14.31  15.24  14.83
//   f64  768x3072 before   3.54   5.20   6.79   7.31   7.18   7.13   7.63   8.06
//                 after    3.52   6.87  11.77  10.54  13.57  13.50  14.65  14.62
//   f32   128x128 before  15.52  18.88  21.05  22.46  22.06  23.07  23.21  21.93
//                 after   28.20  42.28  44.59  40.88  44.48  44.96  44.59  43.47
//   f32   128x256 before  19.14  21.24  24.22  23.49  24.16  24.73  25.83  23.40
//                 after   29.66  43.41  45.09  41.98  44.50  44.63  44.21  43.98
//   f32   256x128 before  16.75  19.82  20.93  21.52  23.70  23.24  23.86  22.18
//                 after   29.82  43.88  44.58  41.18  45.50  45.30  46.50  44.71
//   f32    128x64 before  12.73  15.62  17.54  17.20  17.48  17.79  18.67  18.30
//                 after   24.84  39.74  40.78  38.02  42.95  44.42  44.68  44.16
//   f32     32x32 before   6.91   9.41  12.20  12.59  13.74  14.28  14.93  15.32
//                 after   10.13  18.12  26.52  25.06  33.10  36.62  38.28  39.77
//   f32     32x64 before  10.56  13.82  16.23  17.06  17.80  17.07  18.06  17.95
//                 after   15.74  26.91  33.16  32.61  39.19  39.87  41.54  39.84
//   f32     64x32 before   8.06  10.54  13.40  13.71  14.90  15.35  15.17  15.59
//                 after   13.96  26.12  33.83  30.52  38.33  41.23  42.59  43.19
//   f32      8x17 before   1.92   3.17   4.84   5.33   6.42   6.95   7.11   7.79
//                 after    1.85   3.53   6.11   6.43   9.04  10.88  11.81  13.29
//   f32      17x8 before   1.54   2.55   3.80   4.21   4.98   5.44   5.69   6.07
//                 after    2.02   3.90   6.95   7.23  10.35  13.26  14.61  15.54
//   f32   768x768 before  11.42  16.58  20.68  21.59  23.10  21.36  20.10  21.85
//                 after   10.73  20.00  29.68  28.99  34.77  30.85  30.81  33.73
//   f32  768x3072 before   6.97  10.56  14.25  15.34  17.30  15.04  15.07  17.34
//                 after    7.07  13.45  23.62  21.67  30.04  27.80  26.88  28.99
//
// Source fold (B read as f64 / folded from its f32 source; the kernel
// folds only above 32 KiB of f64 and at m <= 8, so the tiny decoder's
// rows, and every cell at m > 8, run the same code on both lines):
//
//                           m=1    m=2    m=4    m=5    m=8   m=16   m=32  m=197
//   f64   128x128 before   9.07  10.41  12.38  12.46  12.85  13.25  11.94  12.16
//                 after    9.55  15.57  22.02  18.16  22.06  22.56  22.17  22.02
//   src   128x128 before   8.68   9.39   9.75   9.86   9.93  13.23  11.89  11.95
//                 after   10.84  14.39  17.43  15.60  17.64  22.64  22.19  22.13
//   f64   128x256 before   9.77  11.03  12.80  12.88  13.29  10.45  10.94  13.02
//                 after    9.38  16.24  22.68  17.77  22.73  22.38  22.09  21.61
//   src   128x256 before   9.32   9.96   9.95  10.08  10.14  10.84  10.98  13.04
//                 after   10.95  14.80  18.13  15.96  18.36  22.91  21.75  21.68
//   f64   256x128 before   9.81  10.59  12.32  12.84  13.05  11.40  11.80  12.03
//                 after    9.69  15.84  22.56  17.97  22.06  22.31  22.40  22.10
//   src   256x128 before   8.94   9.42   9.94   9.98   9.96  11.43  11.83  11.95
//                 after   10.68  14.70  17.71  15.73  17.55  22.17  22.61  22.09
//   f64    128x64 before   8.03   9.73  10.25  10.47  10.91  11.55  11.73  11.06
//                 after   13.16  20.57  21.54  19.61  22.18  22.49  22.33  22.01
//   src    128x64 before   7.81   8.74   9.10   8.98   9.21  11.51  11.73  11.02
//                 after   10.17  14.02  16.83  15.40  17.48  22.41  23.02  22.29
//   f64     32x32 before   5.84   7.12   8.41   8.88   9.44   9.55   9.89   9.65
//                 after    9.96  14.12  17.35  17.72  19.22  19.77  20.44  20.09
//   src     32x32 before   5.78   7.08   8.43   8.84   9.52   9.62   9.83   9.77
//                 after    9.84  13.91  17.09  17.85  19.00  19.82  20.61  19.84
//   f64     32x64 before   8.21   9.81  10.64  10.36  11.05  11.93  12.06  11.57
//                 after   13.66  17.16  18.62  19.33  20.34  20.61  21.35  20.13
//   src     32x64 before   8.19   9.71  10.66  10.54  10.91  12.18  11.92  11.52
//                 after   13.58  17.16  18.83  19.54  20.07  20.98  21.91  20.09
//   f64     64x32 before   6.46   7.94   9.00   9.32   9.84   9.90  10.13   9.93
//                 after   13.55  17.12  19.90  20.26  20.84  22.03  22.14  21.54
//   src     64x32 before   6.42   7.81   9.01   9.37   9.79   9.84  10.15  10.11
//                 after   13.75  17.23  20.14  19.92  20.81  22.00  21.77  21.51
//   f64   192x768 before   6.88   8.84   9.73  10.06  10.31  10.43   9.99   9.41
//                 after    8.03  14.07  18.87  15.25  19.01  18.72  18.55  16.69
//   src   192x768 before  10.41  10.33  10.22  10.40  10.15  10.21  10.08   9.36
//                 after   10.98  15.06  17.73  15.44  17.65  18.13  18.53  16.55
//   f64   768x192 before   6.72   8.88  10.02  10.16  10.02  10.10  10.39   9.96
//                 after    8.37  15.37  20.88  19.91  20.38  19.52  21.59  19.52
//   src   768x192 before   9.27   9.75  10.00   9.87   9.97   9.95  10.58  10.15
//                 after   10.79  14.52  17.51  15.97  17.30  19.95  21.52  19.57
//   f64   768x768 before   3.60   5.62   7.20   7.84   8.16   8.38   7.71   7.86
//                 after    3.63   7.01  12.80  11.62  14.32  15.19  14.47  14.29
//   src   768x768 before   7.99   9.02   9.57   9.70   9.80   8.39   7.71   7.73
//                 after    8.99  11.93  15.74  14.26  15.31  15.01  14.45  14.27
//   f64  768x3072 before   3.47   4.62   5.58   5.77   5.81   5.94   5.59   5.83
//                 after    3.58   6.89  11.63  10.84  14.77  14.66  13.76  13.89
//   src  768x3072 before   6.67   8.02   8.98   9.22   9.62   5.91   5.47   5.74
//                 after    6.74  11.97  16.51  14.85  16.66  14.99  13.82  13.82
//
// Working-set sweep (products of m rows cycled over the f64 weight
// bytes):
//
//                                0.25M  0.50M  1.00M  1.50M  2.00M  2.50M  3.00M  4.00M
//   f64 m=1 128x128   before   7.56   7.49   7.55   7.19   6.10   4.72   4.00   3.62
//                     after   11.80  10.71  10.66   9.54   6.56   4.72   4.01   3.66
//   src m=1 128x128   before   8.63   8.73   8.77   8.88   8.67   8.48   8.01   7.11
//                     after   10.75  11.02  11.13  10.80  10.70  10.91  10.55   9.93
//   f64 m=2 128x128   before   9.41   9.17   9.18   8.63   7.83   6.98   6.46   6.02
//                     after   18.11  16.71  16.82  15.04  10.98   8.20   7.12   6.49
//   src m=2 128x128   before   9.32   9.32   9.16   9.17   9.28   9.12   8.79   8.33
//                     after   14.36  14.43  14.48  14.32  14.37  14.41  13.92  12.71
//   f64 m=8 128x128   before  10.63  10.82  10.83  10.59  10.05   9.64   9.54   9.81
//                     after   22.34  22.23  22.23  20.96  18.79  16.31  15.62  14.97
//   src m=8 128x128   before   9.57   9.59   9.63   9.86   9.59   9.66   9.68   9.37
//                     after   17.52  17.34  17.69  17.89  17.43  17.26  17.32  16.54
//   f64 m=1 64x64     before   6.97   6.97   7.01   6.77   5.59   4.53   4.01   3.77
//                     after    9.50   9.46   9.16   8.45   6.31   4.86   4.06   3.63
//   src m=1 64x64     before   6.97   7.03   6.94   6.39   5.58   4.54   4.04   3.74
//                     after    9.54   9.37   9.32   8.15   6.46   4.81   4.03   3.61
//   f64 m=2 64x64     before   8.87   9.29   8.98   8.35   7.36   6.49   6.32   6.06
//                     after   16.61  16.62  16.75  14.95  12.11   9.46   8.12   7.27
//   src m=2 64x64     before   8.91   8.98   8.70   8.40   7.38   6.66   6.34   6.16
//                     after   16.86  16.64  17.03  15.57  11.88   9.48   8.05   7.29
//   f64 m=8 64x64     before  10.71  10.84  10.06  10.52   9.96   9.70   9.62   9.50
//                     after   21.70  21.89  22.41  20.95  19.20  16.68  15.68  14.86
//   src m=8 64x64     before  10.66  10.89   9.96  10.29  10.14   9.71   9.64   9.57
//                     after   22.05  22.24  22.04  21.07  18.95  16.98  15.53  14.91
//
// An earlier ten-run table of the unpacked loop found the m = 1 and
// m = 2 cells bimodal per process (f32 128x64 at m = 1 read 5.3-7.5 or
// 10.1-11.2 GMAC/s). These twenty processes
// show no such modes: at serve_open's shapes each side's runs of those
// cells lie within 20 % of each other, except that one run per side
// read lower in most cells at once (a slow machine, not a cell's mode).
// Per process, min-max over ten runs, before | after: f64 m = 1
// 128x128 6.9-9.7 | 11.2-16.5, 128x256 7.0-11.5 | 8.6-10.8, 256x128
// 7.1-11.4 | 8.9-11.7, 128x64 5.2-9.3 | 11.3-14.9; f64 m = 2 7.2-12.4 |
// 14.6-25.4, 7.8-12.8 | 13.9-18.5, 8.0-13.6 | 13.5-19.2, 6.5-11.4 |
// 17.6-22.7; from the f32 source at m = 1 8.3-10.2 | 10.4-12.2,
// 9.2-10.7 | 10.6-11.8, 8.7-10.2 | 10.5-12.0, 7.7-9.2 | 7.2-11.5, and
// at m = 2 8.9-10.7 | 13.9-16.5, 9.6-11.2 | 14.2-16.0, 9.0-10.7 |
// 14.3-16.9, 8.4-9.7 | 13.7-15.7.
//
// The cells below 1.0x: f64 128x256 at m = 1 (0.88x; also the 1x128x256
// GEMV row), where the old loop's runs sat at 10.0-11.5 GMAC/s and a
// scratch harness with its buffers placed elsewhere read it at 6.2-6.6
// against the tiles' 9.0-9.3; serve_open folds that weight from its
// source, 1.17x. GPT2-small at m = 1: f64 768x768 0.97x and f32 768x768
// 0.94x (B streams from L3 in 8-row panels; the source lines read 1.13x
// and 1.01x, and they are what gpt2_small_decode runs). The tails: 8x17
// at m = 1 0.98x (f64) and 0.96x (f32). Narrow outputs (17x8) read
// 1.16-2.94x at every m, above the packed 4x8 tile the unpacked loop
// had replaced. Folding from the source now beats the f64 tiles at
// m = 1 on a single 128 or 256 KiB weight (1.10-1.17x); on the 64 KiB
// one, and from m = 2 on all four, it still loses while B stays in L2
// (0.68-0.93x). Cycled over 2-4 MiB of weights, as a decode step
// streams them, it reads 1.6-2.7x the f64 tiles at m = 1, 1.3-2.0x at
// m = 2 and 0.93-1.11x at m = 8. Regenerate with the command above.
//
// The integer path is *slower* on the host — a scalar i8 loop can't
// beat the autovectorized float kernel, and per-call encoding costs
// more than it saves — its win is on the modeled accelerator (the 4-bit
// work mode's cycle count) and in memory (i4 halves code bytes), both
// asserted deterministically in the test suites.
