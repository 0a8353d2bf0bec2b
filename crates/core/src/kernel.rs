//! The shared GEMM kernel: one unpacked loop.
//!
//! Every exact matrix product in the workspace — [`MatrixView::matmul`],
//! and through it `NativeBackend`, the ideal DPTC fidelity, the photonic
//! baselines, and the NN engines — lands in [`tiled_gemm`]. The kernel
//! is one loop: every output row folds B's rows, in place, into the
//! zeroed output (`out[i, :] += a[i, l] * b[l, :]`), four reduction
//! steps per load and store of an output element. The column loop runs
//! over contiguous slices whatever the operands' strides, and the
//! compiler vectorizes it for both `f32` and `f64`. The kernel performs
//! **zero heap allocations** beyond the output buffer, and
//! [`tiled_gemm_into`] removes even that one for callers that provide
//! (and reuse) the output matrix, e.g. per-token decode loops issuing
//! the same shapes every step.
//!
//! # Why unpacked
//!
//! Decode is matrix-vector work: each product of a decode step is
//! `[1, d] x [d, n]`, and prefill chunks and speculative verify passes
//! add only a handful of rows. A packed register tile copies B into a
//! panel buffer on every call and pays that copy back only across many
//! rows; at decode heights it costs more than it saves (ARCHITECTURE.md
//! §9 has the measured table). Folding B's rows in place reads every
//! weight once per row block and copies nothing.
//!
//! # Blocking
//!
//! The output is cut into blocks of [`RB`] full-width rows, and each
//! block walks all of B once. A product of at most `RB` rows — every
//! decode GEMV, prefill chunk and verify pass — is one block, so it
//! reads B once. B is not cut into panels: the tall products the
//! workspace's models issue (training, and the executable validation
//! models) have weights of at most 192 rows and 64 columns, which stay
//! in cache from one row block to the next, so a panel walk would run
//! once on each of them. At GPT2-small widths a tall product streams B
//! from outer cache once per row block.
//!
//! # Bit-identity contract
//!
//! The kernel is *bit-identical* to [`reference_gemm`]: every output
//! element accumulates its `k` products in strictly increasing reduction
//! order into a single accumulator that starts at zero. Four reduction
//! steps share one load and store of the element but are still added
//! one at a time, left to right. Row blocks choose only which elements
//! are updated when; no element sees its products in another order.
//! This is what lets `tests/` property suites assert `tiled == naive`
//! with `==` instead of a tolerance.
//!
//! # Instruction set
//!
//! The workspace builds for baseline x86-64 (SSE2, 128-bit lanes).
//! [`tiled_gemm_into`] checks once per call whether the CPU has AVX2 and,
//! if so, runs the same kernel body compiled with AVX2 enabled, whose
//! column loops use 256-bit lanes. FMA stays disabled, and Rust never
//! contracts a multiply and an add on its own, so every lane performs
//! the same IEEE multiply, then the same IEEE add, on the same operands
//! in the same order as the portable build: both builds are
//! bit-identical to [`reference_gemm`]. The unit tests check each build
//! the CPU can run. There is no AVX-512 build: enabling `avx512f` also
//! enables FMA (see ARCHITECTURE.md §9).
//!
//! # Folding B from its `f32` source
//!
//! A decode step streams every weight once, so at serving widths its
//! GEMVs are bound by the bytes of B. Model weights are `f32`; the `f64`
//! backends see them as staged `f64` copies, twice the bytes. When an
//! `f64` B carries the `f32` values it was widened from
//! ([`MatrixView::with_f32_source`]), is larger than
//! [`SOURCE_FOLD_MIN_BYTES`] and the product has at most [`RB`] rows,
//! the kernel folds B from that source and widens each element in
//! register. Widening `f32` to `f64` is exact, so every product and sum
//! is the same IEEE operation on the same operands in the same order as
//! the `f64` fold: the bits cannot move.
//!
//! Everywhere else the conversion is pure cost, so the kernel reads the
//! `f64` values: below the gate B stays in the L1 data cache, and a
//! product taller than one row block re-reads B once per block, from
//! cache after the first, widening every element again each time (at
//! `serve_open`'s weight shapes a 197-row product ran at 0.77-0.81x the
//! `f64` fold's GMAC/s).
//!
//! [`reference_gemm`]: crate::matrix::reference_gemm

use crate::matrix::{Matrix, MatrixView, Scalar};

/// Row-block height: the output rows that walk B together.
pub const RB: usize = 8;

/// Size of B, in bytes of its elements, above which the kernel folds B
/// from its `f32` source when it carries one: 32 KiB, the smallest L1
/// data cache the kernel targets. See the module docs.
pub const SOURCE_FOLD_MIN_BYTES: usize = 32 * 1024;

/// Row-blocked matrix product `a x b`.
///
/// Bit-identical to [`reference_gemm`](crate::matrix::reference_gemm)
/// on every shape (see the module docs for why), including 0-sized,
/// `1 x k`, `k x 1`, and non-multiple-of-block dimensions, and accepts
/// strided views on either operand.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn tiled_gemm<T: Scalar>(a: &MatrixView<'_, T>, b: &MatrixView<'_, T>) -> Matrix<T> {
    let mut out = Matrix::from_vec(0, 0, Vec::new());
    tiled_gemm_into(a, b, &mut out);
    out
}

/// As [`tiled_gemm`], but writes the product into a caller-provided
/// matrix — reshaped in place ([`Matrix::reset_zeroed`]), so a scratch
/// output cycled through a steady-state loop (per-token decode: the
/// same `[1, d] x [d, n]` shapes every step) performs zero heap
/// allocations once its buffer has grown to the largest shape seen.
///
/// The result is bit-identical to [`tiled_gemm`]: both run this one
/// function over a zeroed output buffer.
///
/// On an x86-64 CPU with AVX2 the kernel runs as compiled for AVX2
/// (checked at run time); otherwise it runs as compiled for the build's
/// baseline target. See the module docs for why both builds produce
/// the same bits, and why folding B from its `f32` source, which this
/// function does when [`folded_source`] says so, produces them too.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn tiled_gemm_into<T: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    out: &mut Matrix<T>,
) {
    match folded_source(a.rows(), b) {
        Some(source) => dispatch(a, &source, out, widen),
        None => dispatch(a, b, out, |x| x),
    }
}

/// The `f32` source [`tiled_gemm_into`] folds `b` from in a product of
/// `m` rows: `b`'s, when it carries one
/// ([`MatrixView::with_f32_source`]), its elements take more than
/// [`SOURCE_FOLD_MIN_BYTES`] and `m` is at most [`RB`].
pub fn folded_source<'a, T: Scalar>(
    m: usize,
    b: &MatrixView<'a, T>,
) -> Option<MatrixView<'a, f32>> {
    let bytes = b.rows() * b.cols() * std::mem::size_of::<T>();
    b.f32_source()
        .filter(|_| m <= RB && bytes > SOURCE_FOLD_MIN_BYTES)
}

/// Widens one `f32` element of a source exactly. Only `f64` views carry
/// a source, so only `T = f64` ever runs this.
#[inline(always)]
fn widen<T: Scalar>(x: f32) -> T {
    T::from_f64(f64::from(x))
}

/// Runs [`gemm_body`] in the AVX2 build when the CPU has AVX2, in the
/// portable build otherwise.
#[inline(always)]
fn dispatch<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` needs nothing but a CPU that executes
        // AVX2 instructions, which the feature check above established.
        unsafe { gemm_avx2(a, b, out, widen) };
        return;
    }
    gemm_body(a, b, out, widen);
}

/// [`gemm_body`] compiled with AVX2 enabled (and FMA not), so the
/// compiler may widen its column loops to 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    gemm_body(a, b, out, widen);
}

/// The kernel itself, over B's elements of type `U`, each `widen`ed to
/// `T` as it is read: `T` itself unchanged, or an `f32` source widened
/// to `f64`. Always inlined, like [`fold`], so each caller compiles its
/// own copy for its own target features.
#[inline(always)]
fn gemm_body<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.reset_zeroed(m, n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for (i, rows) in out.data_mut().chunks_mut(RB * n).enumerate() {
        fold(a, b, i * RB, rows, &widen);
    }
}

/// Folds every row of `b` into the output rows `first..` that `out`
/// holds, each `b.cols()` wide, back to back:
/// `out[r, :] += a[first + r, l] * widen(b[l, :])` for
/// `l = 0, 1, ..., a.cols() - 1` in order, reading `b` in place.
///
/// Each output element is its own accumulator. Four reduction steps
/// share one load/store of it; they are still added one at a time (left
/// to right), which keeps the reference order.
#[inline(always)]
fn fold<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    first: usize,
    out: &mut [T],
    widen: &impl Fn(U) -> T,
) {
    const UNROLL: usize = 4;
    let (k, n) = (a.cols(), b.cols());
    let mut l = 0;
    while l + UNROLL <= k {
        let (b0, b1, b2, b3) = (b.row(l), b.row(l + 1), b.row(l + 2), b.row(l + 3));
        for (r, orow) in out.chunks_exact_mut(n).enumerate() {
            let av = &a.row(first + r)[l..l + UNROLL];
            let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = *o + a0 * widen(x0) + a1 * widen(x1) + a2 * widen(x2) + a3 * widen(x3);
            }
        }
        l += UNROLL;
    }
    for l in l..k {
        let brow = b.row(l);
        for (r, orow) in out.chunks_exact_mut(n).enumerate() {
            let av = a.row(first + r)[l];
            for (o, &x) in orow.iter_mut().zip(brow) {
                *o += av * widen(x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{reference_gemm, Matrix32, Matrix64};
    use crate::noise::GaussianSampler;

    /// Row counts on both sides of every row-block boundary, up to 197
    /// (DeiT-T's tokens: many blocks and a ragged last one).
    const EDGE_M: [usize; 10] = [1, 2, 3, 4, 5, RB - 1, RB, RB + 1, 2 * RB + 3, 197];
    /// Reduction lengths on both sides of the four-step unroll, short
    /// and long (around 256, the depth at which a packed or panelled
    /// kernel splits the reduction, and past twice that).
    const EDGE_K: [usize; 8] = [1, 3, 4, 5, 255, 256, 257, 515];
    /// Output widths with every vector-tail length of both builds:
    /// narrow ones, and wide ones around 256.
    const EDGE_N: [usize; 7] = [1, 7, 8, 17, 255, 256, 257];

    /// Asserts that the portable build and, when this CPU has AVX2, the
    /// AVX2 build each equal the reference product under `==`, writing
    /// into `out`, which is filled with NaN before each. When `b`
    /// carries an `f32` source, both builds also fold it from there.
    fn assert_both_builds_exact<T: Scalar>(
        a: &MatrixView<'_, T>,
        b: &MatrixView<'_, T>,
        out: &mut Matrix<T>,
    ) {
        let want = reference_gemm(a, b);
        let label = format!("{:?} x {:?}", a.shape(), b.shape());
        each_build_exact(a, b, |x| x, out, &want, &label);
        if let Some(source) = b.f32_source() {
            each_build_exact(
                a,
                &source,
                widen,
                out,
                &want,
                &format!("{label}, f32 source"),
            );
        }
    }

    /// The two builds of [`assert_both_builds_exact`] over B's elements
    /// of type `U`.
    fn each_build_exact<T: Scalar, U: Scalar>(
        a: &MatrixView<'_, T>,
        b: &MatrixView<'_, U>,
        widen: impl Fn(U) -> T + Copy,
        out: &mut Matrix<T>,
        want: &Matrix<T>,
        label: &str,
    ) {
        let nan = T::from_f64(f64::NAN);
        out.data_mut().fill(nan);
        gemm_body(a, b, out, widen);
        assert_eq!(out, want, "portable build, {label}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.data_mut().fill(nan);
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { gemm_avx2(a, b, out, widen) };
            assert_eq!(out, want, "AVX2 build, {label}");
        }
    }

    /// As [`assert_both_builds_exact`], and the dispatching entry point
    /// into a fresh output as well.
    fn assert_every_build_exact<T: Scalar>(
        a: &MatrixView<'_, T>,
        b: &MatrixView<'_, T>,
        out: &mut Matrix<T>,
    ) {
        assert_eq!(tiled_gemm(a, b), reference_gemm(a, b), "dispatched");
        assert_both_builds_exact(a, b, out);
    }

    #[test]
    fn every_build_matches_reference_across_edge_shapes() {
        let mut rng = GaussianSampler::new(7);
        let (mut out64, mut out32) = (Matrix64::zeros(3, 3), Matrix32::zeros(3, 3));
        let shapes = [
            (0, 0, 0),
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
            (1, 1, 1),
            (1, 300, 1),
            (4, 8, 256),
            (5, 11, 261),
            (17, 9, 33),
            (65, 300, 7),
        ];
        for &(m, k, n) in &shapes {
            let a = Matrix64::randn(m, k, 1.0, &mut rng);
            let b = Matrix64::randn(k, n, 1.0, &mut rng);
            assert_every_build_exact(&a.view(), &b.view(), &mut out64);
            let a = Matrix32::randn(m, k, 1.0, &mut rng);
            let b = Matrix32::randn(k, n, 1.0, &mut rng);
            assert_every_build_exact(&a.view(), &b.view(), &mut out32);
        }
    }

    /// Every `m x k x n` of [`EDGE_M`], [`EDGE_K`] and [`EDGE_N`], in
    /// `f32` and `f64`, on views cut out of wider parents (row strides
    /// `k + 3` and `n + 5` at the largest shape) and on contiguous
    /// copies of them, through one output reused across every shape.
    #[test]
    fn both_builds_match_reference_at_every_block_boundary() {
        fn check<T: Scalar>(rng: &mut GaussianSampler) {
            let (m_max, k_max, n_max) = (EDGE_M[9], EDGE_K[7], EDGE_N[6]); // the largest
            let a_parent = Matrix::<T>::randn(m_max + 1, k_max + 3, T::ONE, rng);
            let b_parent = Matrix::<T>::randn(k_max + 2, n_max + 5, T::ONE, rng);
            let mut out = Matrix::zeros(0, 0);
            for m in EDGE_M {
                for k in EDGE_K {
                    for n in EDGE_N {
                        let a = a_parent.view().block(1, 2, m, k);
                        let b = b_parent.view().block(2, 3, k, n);
                        assert_both_builds_exact(&a, &b, &mut out);
                        let (a, b) = (a.to_matrix(), b.to_matrix());
                        assert_both_builds_exact(&a.view(), &b.view(), &mut out);
                    }
                }
            }
        }
        let mut rng = GaussianSampler::new(13);
        check::<f64>(&mut rng);
        check::<f32>(&mut rng);
    }

    /// As [`both_builds_match_reference_at_every_block_boundary`] in
    /// `f64`, with B widened from `f32` values: both builds, folding B
    /// from those values, equal the reference product of the `f64` ones.
    #[test]
    fn both_builds_fold_an_f32_source_exactly_at_every_block_boundary() {
        let mut rng = GaussianSampler::new(17);
        let (m_max, k_max, n_max) = (EDGE_M[9], EDGE_K[7], EDGE_N[6]); // the largest
        let a_parent = Matrix64::randn(m_max + 1, k_max + 3, 1.0, &mut rng);
        let b_source = Matrix32::randn(k_max + 2, n_max + 5, 1.0, &mut rng);
        let b_parent = b_source.to_f64();
        let mut out = Matrix64::zeros(0, 0);
        for m in EDGE_M {
            for k in EDGE_K {
                for n in EDGE_N {
                    let a = a_parent.view().block(1, 2, m, k);
                    let (source, b) = (b_source.view(), b_parent.view());
                    let (source, b) = (source.block(2, 3, k, n), b.block(2, 3, k, n));
                    let label = format!("{m} x {k} x {n}");
                    let want = reference_gemm(&a, &b);
                    each_build_exact(&a, &source, widen, &mut out, &want, &label);
                    let (a, source) = (a.to_matrix(), source.to_matrix());
                    let label = format!("{label}, contiguous");
                    each_build_exact(&a.view(), &source.view(), widen, &mut out, &want, &label);
                }
            }
        }
    }

    #[test]
    fn only_a_short_product_with_a_sourced_operand_above_the_gate_folds_the_source() {
        assert_eq!(SOURCE_FOLD_MIN_BYTES, 64 * 64 * 8);
        let source = Matrix32::from_fn(66, 70, |i, j| (i * 70 + j) as f32);
        let b = source.to_f64();
        let sourced = b.view().with_f32_source(source.view());
        assert!(folded_source(1, &b.view()).is_none(), "no source attached");
        let folded = folded_source(1, &sourced).expect("above the gate");
        assert_eq!(folded.to_matrix(), source);
        assert!(folded_source(RB, &sourced).is_some(), "one row block");
        assert!(folded_source(RB + 1, &sourced).is_none(), "two row blocks");
        // Exactly at the gate and below it, B is read in f64.
        let at_gate = sourced.block(0, 0, 64, 64);
        assert!(at_gate.f32_source().is_some(), "a block keeps its source");
        assert!(folded_source(1, &at_gate).is_none());
        assert!(folded_source(1, &sourced.block(0, 1, 63, 64)).is_none());
        // A strided block above the gate folds the source's own block.
        let block = sourced.block(1, 2, 65, 64);
        let want = source.view().block(1, 2, 65, 64).to_matrix();
        assert_eq!(folded_source(2, &block).expect("above").to_matrix(), want);
        // Copies hold the f64 values only.
        assert!(sourced.to_matrix().view().f32_source().is_none());
        // The dispatching entry point, on both sides of each gate.
        let mut out = Matrix64::zeros(0, 0);
        let a = Matrix64::randn(RB + 1, 66, 1.0, &mut GaussianSampler::new(3));
        for m in [1, RB, RB + 1] {
            let a = a.view().block(0, 0, m, 66);
            assert_every_build_exact(&a, &sourced, &mut out);
            assert_every_build_exact(&a.block(0, 0, m, 64), &at_gate, &mut out);
            assert_every_build_exact(&a.block(0, 1, m, 65), &block, &mut out);
        }
    }

    #[test]
    fn every_build_supports_strided_operands() {
        let mut rng = GaussianSampler::new(11);
        let (mut out64, mut out32) = (Matrix64::zeros(0, 0), Matrix32::zeros(0, 0));
        let m = Matrix64::randn(20, 20, 1.0, &mut rng);
        let (a, b) = (m.view().block(1, 2, 9, 13), m.view().block(3, 1, 13, 11));
        assert_every_build_exact(&a, &b, &mut out64);
        // A strided single row takes one unblocked pass over B.
        let (a, b) = (m.view().block(4, 3, 1, 13), m.view().block(2, 0, 13, 17));
        assert_every_build_exact(&a, &b, &mut out64);
        let m = Matrix32::randn(20, 20, 1.0, &mut rng);
        let (a, b) = (m.view().block(1, 2, 9, 13), m.view().block(3, 1, 13, 11));
        assert_every_build_exact(&a, &b, &mut out32);
        let (a, b) = (m.view().block(4, 3, 1, 13), m.view().block(2, 0, 13, 17));
        assert_every_build_exact(&a, &b, &mut out32);
    }
}
