//! The shared GEMM kernel's equivalence contract.
//!
//! Every exact matrix product runs on the one row-blocked kernel,
//! `lt_core::kernel::tiled_gemm`, and the true integer execution path
//! is `lt_core::quantized_gemm`. These properties pin what a rework of
//! either is allowed to mean:
//!
//! 1. **Tiled == naive, bit for bit.** Over seeded random sweeps and
//!    the edge shapes that straddle the row-block boundary (`RB`), the
//!    four-step unroll and the 256-deep, 256-wide blocks of a packed or
//!    panelled kernel, the tiled kernel returns *exactly* (`==`) what
//!    the textbook triple loop returns — for `f64` and `f32`, and for
//!    strided sub-views.
//! 2. **Every backend rides the same kernel.** The exact backends
//!    (`NativeBackend`, ideal DPTC) are bit-identical to the naive
//!    reference; every backend × fidelity is bit-identical under
//!    `ParallelBackend` at 1/2/4/8 threads (`split_seed` block streams
//!    make scheduling irrelevant).
//! 3. **Quantized error obeys the analytic per-group bound.** The
//!    i8/i4 integer GEMM's deviation from the exact `f64` product is
//!    bounded element-wise by the half-step triangle bound assembled
//!    from the operands' grouped scales.
//! 4. **Decode products are exact too.** Products of at most one row
//!    block (every decode GEMV, prefill chunk and verify pass) walk B
//!    once, unblocked. They are pinned at decode-step weight shapes,
//!    for a strided single-row view, and through an output buffer
//!    reused across shapes.
//! 5. **An `f32` source changes nothing.** A right operand that carries
//!    the `f32` values it was widened from (`with_f32_source`) multiplies
//!    to exactly the product without them on every exact backend, on
//!    both sides of the size above which, and of the row count up to
//!    which, the kernel folds the source.
//! 6. **A memo changes nothing.** A right operand that carries a memo
//!    slot (`with_memo`, where the analytic DPTC keeps a weight's DAC
//!    codes) multiplies to exactly the product without it on every
//!    backend that may read it, through the parallel wrapper too.

use lightening_transformer::baselines::{MrrBackend, MziBackend, PcmBackend};
use lightening_transformer::core::kernel::{
    folded_source, tiled_gemm, tiled_gemm_into, RB, SOURCE_FOLD_MIN_BYTES,
};
use lightening_transformer::core::{
    blocked_gemm, quantized_gemm, reference_gemm, ComputeBackend, GaussianSampler, Matrix32,
    Matrix64, NativeBackend, OperandMemo, QuantizedMatrix, RunCtx,
};
use lightening_transformer::dptc::{DptcBackend, DptcConfig, Fidelity, NoiseModel};
use lightening_transformer::runtime::ParallelBackend;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `(m, k, n)` shapes that land exactly on, just under, and just over
/// the kernel's row-block boundary and 256-deep, 256-wide blocks, plus
/// degenerate and vector shapes and the `4 x 8` register-tile
/// boundaries of a packed kernel.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 259, 1), // row vector x column vector
        (4, 8, 3),
        (3, 7, 2),
        (5, 9, 256),
        (12, 16, 255),
        (11, 29, 263),
        (17, 29, 513),
        (RB, 256, 256),        // exactly one row block and one 256 x 256 block
        (RB - 1, 255, 255),    // strictly inside one
        (RB + 1, 257, 257),    // one row, step and column past it
        (2 * RB + 3, 515, 17), // ragged blocks along the reduction
        (197, 5, 257),         // many row blocks, ragged width
    ]
}

#[test]
fn tiled_f64_is_bit_identical_to_naive_on_edge_shapes_and_random_sweeps() {
    let mut rng = GaussianSampler::new(101);
    for (case, &(m, k, n)) in edge_shapes().iter().enumerate() {
        let a = Matrix64::randn(m, k, 1.0, &mut rng);
        let b = Matrix64::randn(k, n, 1.0, &mut rng);
        assert_eq!(
            tiled_gemm(&a.view(), &b.view()),
            reference_gemm(&a.view(), &b.view()),
            "edge case {case}: ({m},{k},{n})"
        );
    }
    for case in 0..60 {
        let m = 1 + rng.below(50);
        let k = 1 + rng.below(512);
        let n = 1 + rng.below(50);
        let a = Matrix64::randn(m, k, 1.0, &mut rng);
        let b = Matrix64::randn(k, n, 1.0, &mut rng);
        assert_eq!(
            tiled_gemm(&a.view(), &b.view()),
            reference_gemm(&a.view(), &b.view()),
            "random case {case}: ({m},{k},{n})"
        );
    }
}

#[test]
fn tiled_f32_is_bit_identical_to_naive() {
    // The kernel is generic over the scalar; the f32 instantiation (the
    // NN stack's element type) must honor the same bit-identity.
    let mut rng = GaussianSampler::new(103);
    for &(m, k, n) in &edge_shapes() {
        let a = Matrix32::randn(m, k, 1.0, &mut rng);
        let b = Matrix32::randn(k, n, 1.0, &mut rng);
        assert_eq!(
            tiled_gemm(&a.view(), &b.view()),
            reference_gemm(&a.view(), &b.view()),
            "shape ({m},{k},{n})"
        );
    }
}

#[test]
fn tiled_handles_strided_views_bit_identically() {
    // Sub-views keep the parent's row stride, so the kernel's loops
    // must respect strides rather than assume contiguity.
    let mut rng = GaussianSampler::new(107);
    let parent = Matrix64::randn(64, 64, 1.0, &mut rng);
    for &(r0, c0, m, k, n) in &[(0usize, 0usize, 5usize, 9usize, 7usize), (3, 2, 31, 40, 13)] {
        let a = parent.view().block(r0, c0, m, k);
        let b = parent.view().block(c0, r0, k, n);
        assert_eq!(
            tiled_gemm(&a, &b),
            reference_gemm(&a.to_matrix().view(), &b.to_matrix().view()),
            "block ({r0},{c0},{m},{k},{n})"
        );
    }
}

/// Row counts of decode-step products: a GEMV, short prefill chunks, a
/// `k + 1 = 5`-row verify pass, and 11 rows, past one row block.
const SKINNY_ROWS: [usize; 5] = [1, 2, 3, 5, 11];

/// Decode-step weight shapes `(k, n)`: servebench's serve_open decoder
/// (dim 128, FFN 256) and GPT2-small (dim 768, FFN 3072).
const DECODE_WEIGHTS: [(usize, usize); 5] =
    [(128, 128), (128, 256), (256, 128), (768, 768), (768, 3072)];

#[test]
fn skinny_rows_at_decode_geometry_are_bit_identical_in_f32_and_f64() {
    let mut rng = GaussianSampler::new(137);
    for &(k, n) in &DECODE_WEIGHTS {
        let b64 = Matrix64::randn(k, n, 1.0, &mut rng);
        let b32 = Matrix32::randn(k, n, 1.0, &mut rng);
        for m in SKINNY_ROWS {
            let a64 = Matrix64::randn(m, k, 1.0, &mut rng);
            assert_eq!(
                tiled_gemm(&a64.view(), &b64.view()),
                reference_gemm(&a64.view(), &b64.view()),
                "f64 ({m},{k},{n})"
            );
            let a32 = Matrix32::randn(m, k, 1.0, &mut rng);
            assert_eq!(
                tiled_gemm(&a32.view(), &b32.view()),
                reference_gemm(&a32.view(), &b32.view()),
                "f32 ({m},{k},{n})"
            );
        }
    }
}

#[test]
fn a_strided_single_row_view_multiplies_bit_identically() {
    // One row cut out of a wider matrix (a decode query sliced from a
    // batch), against a strided B as well as a contiguous one.
    let mut rng = GaussianSampler::new(139);
    let parent = Matrix64::randn(9, 300, 1.0, &mut rng);
    let b_parent = Matrix64::randn(290, 40, 1.0, &mut rng);
    for &(r0, c0, k) in &[(4usize, 3usize, 257usize), (8, 0, 7), (0, 11, 1)] {
        let a = parent.view().block(r0, c0, 1, k);
        for b in [
            b_parent.view().block(2, 5, k, 29),
            b_parent.view().block(0, 0, k, 40),
        ] {
            assert_eq!(
                tiled_gemm(&a, &b),
                reference_gemm(&a.to_matrix().view(), &b.to_matrix().view()),
                "row {r0} from column {c0}, k {k}, n {}",
                b.cols()
            );
        }
    }
}

#[test]
fn a_reused_output_buffer_is_fully_overwritten_across_shapes() {
    // One dirty buffer cycled through shrinking and growing shapes, as a
    // decode loop's scratch output is: every product must still equal
    // the reference, so no stale element survives into a smaller shape.
    let mut rng = GaussianSampler::new(149);
    let mut out = Matrix64::from_fn(12, 40, |_, _| f64::NAN);
    for &(m, k, n) in &[
        (11, 33, 37),
        (1, 33, 37),
        (3, 300, 9),
        (1, 5, 40),
        (5, 257, 17),
        (2, 1, 1),
        (12, 12, 40),
        (1, 128, 256),
        (2 * RB + 3, 257, 257),
        (RB, 7, 3),
    ] {
        let a = Matrix64::randn(m, k, 1.0, &mut rng);
        let b = Matrix64::randn(k, n, 1.0, &mut rng);
        tiled_gemm_into(&a.view(), &b.view(), &mut out);
        assert_eq!(out, reference_gemm(&a.view(), &b.view()), "({m},{k},{n})");
    }
}

#[test]
fn exact_backends_are_bit_identical_to_the_naive_reference() {
    // NativeBackend and the ideal DPTC fidelity both delegate to the
    // tiled kernel — so they must equal the naive loop exactly, not
    // approximately.
    let mut rng = GaussianSampler::new(109);
    let ideal = DptcBackend::ideal(DptcConfig::lt_paper());
    for &(m, k, n) in &[(1, 1, 1), (5, 11, 5), (33, 41, 29)] {
        let a = Matrix64::randn(m, k, 1.0, &mut rng);
        let b = Matrix64::randn(k, n, 1.0, &mut rng);
        let want = reference_gemm(&a.view(), &b.view());
        let mut ctx = RunCtx::new(7);
        assert_eq!(NativeBackend.gemm(a.view(), b.view(), &mut ctx), want);
        assert_eq!(ideal.gemm(a.view(), b.view(), &mut ctx), want);
    }
}

#[test]
fn a_right_operand_carrying_its_f32_source_multiplies_bit_identically_on_every_exact_backend() {
    let mut rng = GaussianSampler::new(113);
    let ideal = DptcBackend::ideal(DptcConfig::lt_paper());
    // Each thread count inline where the pool would not pay (the view,
    // source and all, reaches the kernel) and with every block sent to
    // the pool (a copy of B without its source crosses it).
    let parallel: Vec<_> = [1, 2, 4]
        .into_iter()
        .flat_map(|t| {
            let inline = ParallelBackend::new(NativeBackend, t);
            let pooled = inline.clone().with_min_parallel_macs(0);
            [(t, inline), (t, pooled)]
        })
        .collect();
    let mut out = Matrix64::zeros(0, 0);
    // B at the fold gate (64 x 64 f64 = 32 KiB, read in f64), just above
    // it, and at a `serve_open` FFN weight's shape.
    assert_eq!(SOURCE_FOLD_MIN_BYTES, 64 * 64 * 8);
    for (k, n) in [(64, 64), (65, 64), (128, 256)] {
        let source_parent = Matrix32::randn(k + 3, n + 5, 1.0, &mut rng);
        let b_parent = source_parent.to_f64();
        let contiguous = source_parent.view().block(2, 3, k, n).to_matrix();
        let contiguous64 = contiguous.to_f64();
        let variants = [
            (contiguous64.view(), contiguous.view(), "contiguous"),
            (
                b_parent.view().block(2, 3, k, n),
                source_parent.view().block(2, 3, k, n),
                "strided",
            ),
        ];
        for (b, source, layout) in variants {
            let sourced = b.with_f32_source(source);
            assert_eq!(folded_source(1, &sourced).is_some(), k * n > 64 * 64);
            for m in [1, 2, 8, 9, 197] {
                let label = format!("{m} x {k} x {n}, {layout}");
                let a = Matrix64::randn(m, k, 1.0, &mut rng);
                let a = a.view();
                let mut ctx = RunCtx::new(7);
                let want = NativeBackend.gemm(a, b, &mut ctx);
                assert_eq!(want, reference_gemm(&a, &b), "{label}");
                assert_eq!(NativeBackend.gemm(a, sourced, &mut ctx), want, "{label}");
                out.data_mut().fill(f64::NAN);
                NativeBackend.gemm_into(a, sourced, &mut ctx, &mut out);
                assert_eq!(out, want, "gemm_into, {label}");
                let block = NativeBackend.gemm_block(a, sourced, 5);
                assert_eq!(block, want, "gemm_block, {label}");
                for (threads, backend) in &parallel {
                    let got = backend.gemm(a, sourced, &mut ctx);
                    assert_eq!(got, want, "parallel at {threads} threads, {label}");
                }
                assert_eq!(
                    ideal.gemm(a, sourced, &mut ctx),
                    want,
                    "ideal DPTC, {label}"
                );
            }
        }
    }
}

#[test]
fn a_memoized_right_operand_multiplies_bit_identically_on_every_backend() {
    let mut rng = GaussianSampler::new(127);
    let ideal = DptcBackend::ideal(DptcConfig::lt_paper());
    let mut backends: Vec<(String, Box<dyn ComputeBackend>)> = vec![
        ("native".into(), Box::new(NativeBackend)),
        ("ideal DPTC".into(), Box::new(ideal)),
    ];
    for (label, dptc) in [
        ("paper(8)", DptcBackend::paper(8, 5)),
        ("quantized(8)", DptcBackend::quantized(8)),
    ] {
        backends.push((label.into(), Box::new(dptc.clone())));
        // Products the wrapper runs inline reach the loop with B's memo;
        // those it sends to the pool carry a copy of B without one.
        for threads in [1, 2, 4] {
            let inline = ParallelBackend::new(dptc.clone(), threads);
            let pooled = inline.clone().with_min_parallel_macs(0);
            backends.push((format!("{label} inline x{threads}"), Box::new(inline)));
            backends.push((format!("{label} pooled x{threads}"), Box::new(pooled)));
        }
    }
    let bits = |m: &Matrix64| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut out = Matrix64::zeros(0, 0);
    for (k, n) in [(37, 29), (64, 64)] {
        let b = Matrix64::randn(k, n, 1.0, &mut rng);
        // One memo for every backend: paper(8) and quantized(8) share codes.
        let memo = OperandMemo::new();
        let staged = b.view().with_memo(&memo);
        for m in [1, 9, 48, 49, 97] {
            let a = Matrix64::randn(m, k, 1.0, &mut rng);
            for (label, backend) in &backends {
                let label = format!("{label}, {m} x {k} x {n}");
                let want = backend.gemm(a.view(), b.view(), &mut RunCtx::new(7));
                let got = backend.gemm(a.view(), staged, &mut RunCtx::new(7));
                assert_eq!(bits(&got), bits(&want), "{label}");
                backend.gemm_into(a.view(), staged, &mut RunCtx::new(7), &mut out);
                assert_eq!(bits(&out), bits(&want), "gemm_into, {label}");
            }
        }
        assert!(memo.get().is_some(), "the analytic DPTC fills the memo");
    }
}

/// parallel(B) == sequential blocked B at every thread count, with the
/// inline-execution shortcut disabled so every block really crosses the
/// worker pool.
fn assert_thread_count_invariant<B>(backend: B, m: usize, k: usize, n: usize, label: &str)
where
    B: ComputeBackend + Clone + Send + Sync + 'static,
{
    let mut rng = GaussianSampler::new(113);
    let a = Matrix64::randn(m, k, 1.0, &mut rng);
    let b = Matrix64::randn(k, n, 1.0, &mut rng);
    let want = blocked_gemm(&backend, a.view(), b.view(), &mut RunCtx::new(3));
    for threads in THREAD_COUNTS {
        let par = ParallelBackend::new(backend.clone(), threads).with_min_parallel_macs(0);
        let got = par.gemm(a.view(), b.view(), &mut RunCtx::new(3));
        assert_eq!(got, want, "{label}: diverged at {threads} threads");
    }
}

#[test]
fn every_backend_and_fidelity_is_thread_count_invariant() {
    // The reworked kernel and the reworked DPTC hot path must preserve
    // the runtime's core contract: what a GEMM computes never depends
    // on how many threads computed it.
    assert_thread_count_invariant(NativeBackend, 37, 23, 19, "native");
    assert_thread_count_invariant(
        DptcBackend::ideal(DptcConfig::lt_paper()),
        37,
        23,
        19,
        "dptc-ideal",
    );
    assert_thread_count_invariant(DptcBackend::paper(8, 5), 37, 23, 19, "dptc-analytic-8b");
    assert_thread_count_invariant(DptcBackend::paper(4, 5), 37, 23, 19, "dptc-analytic-4b");
    let circuit = DptcBackend::new(
        DptcConfig::lt_paper(),
        Fidelity::Circuit {
            noise: NoiseModel::paper_default(),
            seed: 11,
        },
        8,
    );
    // Circuit fidelity is ~10x slower; a smaller product still spans
    // several row blocks.
    assert_thread_count_invariant(circuit, 25, 13, 13, "dptc-circuit");
    assert_thread_count_invariant(MziBackend::paper(8), 37, 23, 19, "mzi");
    assert_thread_count_invariant(MrrBackend::paper(8), 37, 23, 19, "mrr");
    assert_thread_count_invariant(PcmBackend::paper(8), 37, 23, 19, "pcm");
}

/// The analytic element-wise error bound for `quantized_gemm(aq, bq)`
/// against the exact `f64` product: within each scale group the codes
/// deviate from the true operands by at most half a step, so
/// `|sum (a+ea)(b+eb) - sum a b| <= sum |a| sb/2 + |b| sa/2 + sa sb / 4`.
fn per_group_bound(
    a: &Matrix32,
    b: &Matrix32,
    aq: &QuantizedMatrix,
    bq: &QuantizedMatrix,
    i: usize,
    j: usize,
) -> f64 {
    let k = a.cols();
    let group = aq.group_size();
    let mut bound = 0.0f64;
    for l in 0..k {
        let g = l / group;
        let sa = aq.step(i, g) as f64 / 2.0;
        let sb = bq.step(j, g) as f64 / 2.0;
        let av = a.get(i, l).abs() as f64;
        let bv = b.get(l, j).abs() as f64;
        bound += av * sb + bv * sa + sa * sb;
    }
    bound
}

#[test]
fn quantized_gemm_error_stays_within_the_analytic_per_group_bound() {
    // Sweep both work modes (8-bit and 4-bit), several group sizes
    // (including one that doesn't divide k, leaving a ragged tail
    // group), and seeded random operands. The integer product must sit
    // inside the half-step triangle bound everywhere — plus a small
    // slack for the f32 cross-group accumulation itself.
    let mut rng = GaussianSampler::new(127);
    for &bits in &[8u32, 4] {
        for &group in &[8usize, 32, 13] {
            for case in 0..6 {
                let m = 1 + rng.below(8);
                let k = 1 + rng.below(64);
                let n = 1 + rng.below(8);
                let a = Matrix32::randn(m, k, 0.8, &mut rng);
                let b = Matrix32::randn(k, n, 0.6, &mut rng);
                let aq = QuantizedMatrix::quantize_rows(&a.view(), bits, group);
                let bq = QuantizedMatrix::quantize_cols(&b.view(), bits, group);
                let y = quantized_gemm(&aq, &bq);
                // Exact product in f64 — quantization is the only error
                // source we're bounding, so remove f32 accumulation
                // noise from the reference side.
                for i in 0..m {
                    for j in 0..n {
                        let exact: f64 = (0..k)
                            .map(|l| a.get(i, l) as f64 * b.get(l, j) as f64)
                            .sum();
                        let bound = per_group_bound(&a, &b, &aq, &bq, i, j);
                        let err = (y.get(i, j) as f64 - exact).abs();
                        let slack = 1e-4 * (1.0 + exact.abs());
                        assert!(
                            err <= bound + slack,
                            "{bits}-bit group {group} case {case} ({m},{k},{n}) \
                             element ({i},{j}): error {err} exceeds bound {bound}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn quantized_gemm_equals_the_dequantized_float_product_up_to_accumulation() {
    // Structural cross-check: the integer pipeline computes the same
    // mathematical product as dequantize-then-matmul; only the f32
    // summation order may differ, never group scaling or code decode.
    let mut rng = GaussianSampler::new(131);
    let a = Matrix32::randn(6, 40, 1.0, &mut rng);
    let b = Matrix32::randn(40, 5, 1.0, &mut rng);
    for &(bits, group) in &[(8u32, 16usize), (4, 10)] {
        let aq = QuantizedMatrix::quantize_rows(&a.view(), bits, group);
        let bq = QuantizedMatrix::quantize_cols(&b.view(), bits, group);
        let y = quantized_gemm(&aq, &bq);
        let float = aq.dequantize().matmul(&bq.dequantize());
        let err = y.max_abs_diff(&float);
        assert!(
            err < 1e-4,
            "{bits}-bit/group {group}: integer and dequantized paths tell \
             different products (diff {err})"
        );
    }
}
