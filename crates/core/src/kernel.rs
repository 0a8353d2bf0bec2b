//! The shared register-blocked, cache-tiled GEMM micro-kernel.
//!
//! Every exact matrix product in the workspace — [`MatrixView::matmul`],
//! and through it `NativeBackend`, the ideal DPTC fidelity, the photonic
//! baselines, and the NN engines — lands in [`tiled_gemm`]. The kernel
//! uses the classic three-level blocking scheme:
//!
//! * **Register micro-tile** — an `MR x NR` accumulator block lives in
//!   registers across the whole reduction; the innermost loop is a
//!   rank-1 update over fixed-size slices, which the compiler
//!   autovectorizes for both `f32` and `f64`.
//! * **Cache chunks** — the reduction dimension is walked in [`KC`]-wide
//!   chunks; each chunk of the `B` panel is packed once into a
//!   fixed-size stack buffer and reused by every row strip, so the hot
//!   loop streams contiguous memory regardless of the caller's stride.
//! * **Packing buffers** — both operand panels are packed into
//!   stack-allocated arrays (`[T; KC * NR]` / `[T; KC * MR]`), so the
//!   kernel performs **zero heap allocations** beyond the output buffer
//!   — and [`tiled_gemm_into`] removes even that one for callers that
//!   provide (and reuse) the output matrix, e.g. per-token decode loops
//!   issuing the same shapes every step.
//!
//! # Skinny rows
//!
//! Packing pays off only when a packed B panel is reused by `MR` rows.
//! A strip with fewer rows — every `m = 1` decode GEMV, and the
//! `m % MR` tail of a prefill or verify pass — would pad the register
//! tile with zero rows and re-pack all of B for one row of output. Such
//! strips skip packing: they stream B's rows in place and fold each one
//! into the output rows (`out[i, :] += a[i, l] * b[l, :]`), so a GEMV
//! reads every weight once and does no padded arithmetic. The choice
//! follows the strip height alone; `MR`, `NR` and `KC` are unchanged.
//!
//! # Bit-identity contract
//!
//! The kernel is *bit-identical* to [`reference_gemm`]: every output
//! element accumulates its `k` products in strictly increasing reduction
//! order into a single accumulator. Chunking does not break this —
//! between chunks the partial sum round-trips through the output buffer
//! (an exact operation for IEEE floats) and accumulation resumes in the
//! same order. Edge columns are zero-padded in the packing buffers, and
//! padded lanes are simply never stored, so padding can never
//! contaminate a valid output. Skinny rows accumulate straight into the
//! zeroed output, one reduction step at a time in increasing `k`. This
//! is what lets `tests/` property suites assert `tiled == naive` with
//! `==` instead of a tolerance.
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
//! [`reference_gemm`]: crate::matrix::reference_gemm

use crate::matrix::{Matrix, MatrixView, Scalar};

/// Register micro-tile height: output rows held in registers at once.
pub const MR: usize = 4;
/// Register micro-tile width: output columns held in registers at once.
pub const NR: usize = 8;
/// Cache-chunk depth: reduction elements packed per panel refill.
pub const KC: usize = 256;

/// The innermost register kernel: `kc` rank-1 updates of an `MR x NR`
/// accumulator block. `ap` is packed `l`-major (`MR` operands per step),
/// `bp` is packed `l`-major (`NR` operands per step).
#[inline(always)]
fn micro_kernel<T: Scalar>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; NR]; MR]) {
    for l in 0..kc {
        let av: &[T; MR] = ap[l * MR..l * MR + MR].try_into().unwrap();
        let bv: &[T; NR] = bp[l * NR..l * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let a = av[r];
            let row = &mut acc[r];
            for c in 0..NR {
                row[c] += a * bv[c];
            }
        }
    }
}

/// Register-blocked, cache-tiled matrix product `a x b`.
///
/// Bit-identical to [`reference_gemm`](crate::matrix::reference_gemm)
/// on every shape (see the module docs for why), including 0-sized,
/// `1 x k`, `k x 1`, and non-multiple-of-tile dimensions, and accepts
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
/// the same bits.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn tiled_gemm_into<T: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    out: &mut Matrix<T>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` needs nothing but a CPU that executes
        // AVX2 instructions, which the feature check above established.
        unsafe { gemm_avx2(a, b, out) };
        return;
    }
    gemm_body(a, b, out);
}

/// [`gemm_body`] compiled with AVX2 enabled (and FMA not), so the
/// compiler may widen its column loops to 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<T: Scalar>(a: &MatrixView<'_, T>, b: &MatrixView<'_, T>, out: &mut Matrix<T>) {
    gemm_body(a, b, out);
}

/// The kernel itself. Always inlined, like everything it calls, so each
/// caller compiles its own copy for its own target features.
#[inline(always)]
fn gemm_body<T: Scalar>(a: &MatrixView<'_, T>, b: &MatrixView<'_, T>, out: &mut Matrix<T>) {
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
    let out = out.data_mut();
    let full = m - m % MR;
    if full > 0 {
        packed_strips(a, b, full, out);
    }
    if full < m {
        skinny_rows(a, b, full, out);
    }
}

/// Rows `[0, full)` of the product (`full` a multiple of [`MR`]) through
/// the packed register tile.
#[inline(always)]
fn packed_strips<T: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    full: usize,
    out: &mut [T],
) {
    let (k, n) = (a.cols(), b.cols());
    // Fixed-size stack packing buffers, reused across all panels.
    let mut bp = [T::ZERO; KC * NR];
    let mut ap = [T::ZERO; KC * MR];

    let mut jb = 0;
    while jb < n {
        let nr = NR.min(n - jb);
        let mut l0 = 0;
        while l0 < k {
            let kc = KC.min(k - l0);
            // Pack the B chunk `[l0, l0+kc) x [jb, jb+nr)`, l-major,
            // zero-padding the column remainder once per chunk.
            for l in 0..kc {
                let src = &b.row(l0 + l)[jb..jb + nr];
                let dst = &mut bp[l * NR..(l + 1) * NR];
                dst[..nr].copy_from_slice(src);
                for d in dst[nr..].iter_mut() {
                    *d = T::ZERO;
                }
            }
            let mut ib = 0;
            while ib < full {
                // Pack the A chunk `[ib, ib+MR) x [l0, l0+kc)`, l-major.
                for (r, arow) in (ib..ib + MR).map(|i| a.row(i)).enumerate() {
                    for (l, &v) in arow[l0..l0 + kc].iter().enumerate() {
                        ap[l * MR + r] = v;
                    }
                }
                // Resume accumulation from the previous chunk's partial
                // sums: load, run the register kernel, store. The
                // load/store round-trip is exact, so the overall
                // reduction order per element is unchanged.
                let mut acc = [[T::ZERO; NR]; MR];
                if l0 > 0 {
                    for (r, row) in acc.iter_mut().enumerate() {
                        let o = &out[(ib + r) * n + jb..(ib + r) * n + jb + nr];
                        row[..nr].copy_from_slice(o);
                    }
                }
                micro_kernel(kc, &ap[..kc * MR], &bp[..kc * NR], &mut acc);
                for (r, row) in acc.iter().enumerate() {
                    let o = &mut out[(ib + r) * n + jb..(ib + r) * n + jb + nr];
                    o.copy_from_slice(&row[..nr]);
                }
                ib += MR;
            }
            l0 += KC;
        }
        jb += NR;
    }
}

/// Rows `[first, m)` of the product — fewer than [`MR`] of them — with
/// no packing: every row of B is read once, in place, and folded into
/// each output row as `out[i, :] += a[i, l] * b[l, :]`.
///
/// The output buffer arrives zeroed and each element is its own single
/// accumulator, updated for `l = 0, 1, ..., k-1` in order, so the result
/// is the reference sum bit for bit. Four reduction steps share one
/// load/store of the output element; they are still added one at a time
/// (left to right), which keeps that order.
#[inline(always)]
fn skinny_rows<T: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    first: usize,
    out: &mut [T],
) {
    const UNROLL: usize = 4;
    let (k, n) = (a.cols(), b.cols());
    let rows = &mut out[first * n..];
    let mut l = 0;
    while l + UNROLL <= k {
        let (b0, b1, b2, b3) = (b.row(l), b.row(l + 1), b.row(l + 2), b.row(l + 3));
        for (r, orow) in rows.chunks_exact_mut(n).enumerate() {
            let av = &a.row(first + r)[l..l + UNROLL];
            let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
            }
        }
        l += UNROLL;
    }
    for l in l..k {
        let brow = b.row(l);
        for (r, orow) in rows.chunks_exact_mut(n).enumerate() {
            let av = a.row(first + r)[l];
            for (o, &x) in orow.iter_mut().zip(brow) {
                *o += av * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{reference_gemm, Matrix32, Matrix64};
    use crate::noise::GaussianSampler;

    /// Asserts that the dispatching entry point, the portable build and,
    /// when this CPU has AVX2, the AVX2 build each equal the reference
    /// product under `==`.
    fn assert_every_build_exact<T: Scalar>(a: &MatrixView<'_, T>, b: &MatrixView<'_, T>) {
        let want = reference_gemm(a, b);
        let label = format!("{:?} x {:?}", a.shape(), b.shape());
        assert_eq!(tiled_gemm(a, b), want, "dispatched, {label}");
        let mut out = Matrix::zeros(0, 0);
        gemm_body(a, b, &mut out);
        assert_eq!(out, want, "portable build, {label}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { gemm_avx2(a, b, &mut out) };
            assert_eq!(out, want, "AVX2 build, {label}");
        }
    }

    #[test]
    fn every_build_matches_reference_across_edge_shapes() {
        let mut rng = GaussianSampler::new(7);
        let shapes = [
            (0, 0, 0),
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
            (1, 1, 1),
            (1, 300, 1),
            (MR, NR, KC),
            (MR + 1, NR + 3, KC + 5),
            (17, 9, 33),
            (65, 300, 7),
        ];
        for &(m, k, n) in &shapes {
            let a = Matrix64::randn(m, k, 1.0, &mut rng);
            let b = Matrix64::randn(k, n, 1.0, &mut rng);
            assert_every_build_exact(&a.view(), &b.view());
            let a = Matrix32::randn(m, k, 1.0, &mut rng);
            let b = Matrix32::randn(k, n, 1.0, &mut rng);
            assert_every_build_exact(&a.view(), &b.view());
        }
    }

    #[test]
    fn every_build_supports_strided_operands() {
        let mut rng = GaussianSampler::new(11);
        let m = Matrix64::randn(20, 20, 1.0, &mut rng);
        assert_every_build_exact(&m.view().block(1, 2, 9, 13), &m.view().block(3, 1, 13, 11));
        // A strided single row takes the skinny path.
        assert_every_build_exact(&m.view().block(4, 3, 1, 13), &m.view().block(2, 0, 13, 17));
        let m = Matrix32::randn(20, 20, 1.0, &mut rng);
        assert_every_build_exact(&m.view().block(1, 2, 9, 13), &m.view().block(3, 1, 13, 11));
        assert_every_build_exact(&m.view().block(4, 3, 1, 13), &m.view().block(2, 0, 13, 17));
    }
}
