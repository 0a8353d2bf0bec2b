//! The shared GEMM kernel: one register-tiled loop.
//!
//! Every exact matrix product in the workspace — [`MatrixView::matmul`],
//! and through it `NativeBackend`, the ideal DPTC fidelity, the photonic
//! baselines, and the NN engines — lands in [`tiled_gemm`]. The kernel
//! is one loop over register tiles: a tile of up to four output rows by
//! a few vectors of columns starts at zero in registers, adds
//! `a[i, l] * b[l, j]` for `l = 0, 1, ..., k - 1`, and is stored once.
//! Each segment of a B row is loaded once per tile and shared by the
//! tile's rows, and B is read in place whatever the operands' strides.
//! The compiler vectorizes the tile for both `f32` and `f64`. The kernel
//! performs **zero heap allocations** beyond the output buffer, and
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
//! §9 has the measured table). The tiles here load B's row segments
//! where they lie, so every weight is read once per row block and
//! nothing is copied; only the output stays in registers.
//!
//! # Blocking
//!
//! The output is cut into blocks of [`RB`] full-width rows, and each
//! block walks all of B once. A product of at most `RB` rows — every
//! decode GEMV, prefill chunk and verify pass — is one block, so it
//! reads B once. Inside a block, rows go four at a time, then two, then
//! one, and each group walks B in column strips, one register tile per
//! strip. Every tile holds the same number of accumulators: four rows
//! by `W4` columns, two by `2 W4` or one by `4 W4`, which is 16 of the
//! 32 registers of the AVX-512 build (`W4` = 32 `f64` or 64 `f32`) and
//! 8 of the 16 of the AVX2 and portable builds (`W4` = 8 and 4 `f64`).
//! A product of one or two rows, which cannot fill four, gets wider
//! strips instead: enough independent accumulators to hide the latency
//! of the adds. At the right edge the strips halve, down to one column.
//!
//! A B above 512 KiB is walked in panels of eight rows: each strip of a
//! panel reads eight row segments, and the next strip continues the
//! same eight rows, which the hardware prefetchers follow. A strip that
//! walks more rows streams from as many places at once; at GPT2-small's
//! weights, which stream from L3, 128-row panels read 0.5-0.75x the
//! throughput of 8-row ones at `m = 1`. Between panels a tile's partial
//! sums are stored to the output and loaded back.
//!
//! # Bit-identity contract
//!
//! The kernel is *bit-identical* to [`reference_gemm`]: every output
//! element accumulates its `k` products in strictly increasing reduction
//! order into a single accumulator that starts at zero, one IEEE
//! multiply and then one IEEE add per step. A tile holds each element
//! in one register lane for a whole panel, and between panels the store
//! and reload of a partial sum are exact. Row blocks, tiles and panels
//! choose only which elements are in registers when; no element sees
//! its products in another order. This is what lets `tests/` property
//! suites assert `tiled == naive` with `==` instead of a tolerance.
//!
//! # Instruction set
//!
//! The workspace builds for baseline x86-64 (SSE2, 128-bit lanes).
//! [`tiled_gemm_into`] checks on each call whether the CPU has AVX-512F,
//! then AVX2, and runs the same kernel body compiled for the first it
//! has: its tiles use 512-bit, 256-bit or 128-bit lanes. No build fuses
//! a multiply into an add. Enabling `avx512f` also enables `fma`, so the
//! AVX-512 build could emit fused multiply-adds, but the compiler fuses
//! only where the code allows it, and Rust never does: it emits
//! `a * b + c` as a separate multiply and add, with no `contract`
//! flag and no `fmuladd` intrinsic. So every lane performs the same IEEE
//! multiply, then the same IEEE add, on the same operands in the same
//! order in all three builds, and each is bit-identical to
//! [`reference_gemm`]. The unit tests check each build the CPU can run,
//! and `no_build_fuses_a_multiply_into_its_add` checks the argument with
//! operands whose every product reads zero unfused and not zero fused.
//!
//! # Folding B from its `f32` source
//!
//! A decode step streams every weight once, so at serving widths its
//! GEMVs are bound by the bytes of B. Model weights are `f32`; the `f64`
//! backends see them as staged `f64` copies, twice the bytes. When an
//! `f64` B carries the `f32` values it was widened from
//! ([`MatrixView::with_f32_source`]), is larger than
//! [`SOURCE_FOLD_MIN_BYTES`] and the product has at most [`RB`] rows,
//! the kernel folds B from that source and widens each segment in
//! register, once for all rows of a tile. Widening `f32` to `f64` is
//! exact, so every product and sum is the same IEEE operation on the
//! same operands in the same order as on the `f64` values: the bits
//! cannot move.
//!
//! Everywhere else the kernel reads the `f64` values. The widening costs
//! instructions and saves bytes, so it pays where B streams from beyond
//! L2, as a decode step's weights do once the model outgrows L2: below
//! the gate B stays in the L1 data cache, and a product taller than one
//! row block re-reads B once per block, from cache after the first.
//! Where a B above the gate stays in L2 and is multiplied again and
//! again, the `f64` values read faster from two rows up, and at one row
//! for a B of 64 KiB; the kernel sees only B, not the working set
//! (ARCHITECTURE.md §9 has both tables).
//!
//! [`reference_gemm`]: crate::matrix::reference_gemm

use crate::matrix::{Matrix, MatrixView, Scalar};

/// Row-block height: the output rows that walk B together.
pub const RB: usize = 8;

/// Size of B, in bytes of its elements, above which the kernel folds B
/// from its `f32` source when it carries one: 32 KiB, the smallest L1
/// data cache the kernel targets. See the module docs.
pub const SOURCE_FOLD_MIN_BYTES: usize = 32 * 1024;

/// Register-tiled, row-blocked matrix product `a x b`.
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
/// On an x86-64 CPU with AVX-512F or AVX2 the kernel runs as compiled
/// for that instruction set (checked at run time, AVX-512F first);
/// otherwise it runs as compiled for the build's baseline target. See
/// the module docs for why every build produces the same bits, and why
/// folding B from its `f32` source, which this function does when
/// [`folded_source`] says so, produces them too.
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

/// Runs [`gemm_body`] in the AVX-512 build when the CPU has AVX-512F,
/// in the AVX2 build when it has AVX2, in the portable build otherwise.
#[inline(always)]
fn dispatch<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512` needs nothing but a CPU that executes
            // AVX-512F instructions, which the feature check established.
            unsafe { gemm_avx512(a, b, out, widen) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            unsafe { gemm_avx2(a, b, out, widen) };
            return;
        }
    }
    gemm_portable(a, b, out, widen);
}

/// [`gemm_body`] compiled with AVX-512F enabled: 16 of its 32 512-bit
/// registers hold a tile's accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    if std::mem::size_of::<T>() == 4 {
        gemm_body::<T, U, 64, 128, 256>(a, b, out, widen);
    } else {
        gemm_body::<T, U, 32, 64, 128>(a, b, out, widen);
    }
}

/// [`gemm_body`] compiled with AVX2 enabled (and FMA not): 8 of its 16
/// 256-bit registers hold a tile's accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    if std::mem::size_of::<T>() == 4 {
        gemm_body::<T, U, 16, 32, 64>(a, b, out, widen);
    } else {
        gemm_body::<T, U, 8, 16, 32>(a, b, out, widen);
    }
}

/// [`gemm_body`] for the build's baseline target: 8 of its 16 128-bit
/// registers hold a tile's accumulators.
fn gemm_portable<T: Scalar, U: Scalar>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, U>,
    out: &mut Matrix<T>,
    widen: impl Fn(U) -> T,
) {
    if std::mem::size_of::<T>() == 4 {
        gemm_body::<T, U, 8, 16, 32>(a, b, out, widen);
    } else {
        gemm_body::<T, U, 4, 8, 16>(a, b, out, widen);
    }
}

/// Size of B, in bytes of the elements the kernel reads, above which a
/// row block walks B in panels of [`PANEL_ROWS`] rows: 512 KiB, a
/// quarter of the 2 MiB L2 the kernel targets, beyond which B streams
/// from L3 as soon as anything else shares the cache. See the module
/// docs.
const PANEL_MIN_BYTES: usize = 512 * 1024;

/// Rows of B per panel when B is above [`PANEL_MIN_BYTES`].
const PANEL_ROWS: usize = 8;

/// The operands of one row block over one panel of B's rows.
struct Panel<'p, 'a, T, U, W> {
    a: &'p MatrixView<'a, T>,
    b: &'p MatrixView<'a, U>,
    /// Index in `a` of the block's first row.
    first: usize,
    /// The panel's rows of B (columns of `a`).
    ls: std::ops::Range<usize>,
    widen: &'p W,
}

/// The kernel itself, over B's elements of type `U`, each `widen`ed to
/// `T` as it is read: `T` itself unchanged, or an `f32` source widened
/// to `f64`. Its tiles are four rows by `W4` columns, two by `W2` or one
/// by `W1`. Always inlined, like everything it calls, so each build
/// compiles its own copy for its own target features.
#[inline(always)]
fn gemm_body<T: Scalar, U: Scalar, const W4: usize, const W2: usize, const W1: usize>(
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
    let kc = if k * n * std::mem::size_of::<U>() > PANEL_MIN_BYTES {
        PANEL_ROWS
    } else {
        k
    };
    for (i, block) in out.data_mut().chunks_mut(RB * n).enumerate() {
        let rows = block.len() / n;
        for l0 in (0..k).step_by(kc) {
            let panel = Panel {
                a,
                b,
                first: i * RB,
                ls: l0..(l0 + kc).min(k),
                widen: &widen,
            };
            let mut r = 0;
            while r + 4 <= rows {
                row_tiles::<T, U, 4, W4>(&panel, block, n, r);
                r += 4;
            }
            if r + 2 <= rows {
                row_tiles::<T, U, 2, W2>(&panel, block, n, r);
                r += 2;
            }
            if r < rows {
                row_tiles::<T, U, 1, W1>(&panel, block, n, r);
            }
        }
    }
}

/// Runs the tiles of rows `r..r + H` of a row block `n` wide: `W`
/// columns at a time, then, at the right edge, tiles half as wide, and
/// half again, down to one column.
#[inline(always)]
fn row_tiles<T: Scalar, U: Scalar, const H: usize, const W: usize>(
    p: &Panel<'_, '_, T, U, impl Fn(U) -> T>,
    block: &mut [T],
    n: usize,
    r: usize,
) {
    let mut j = 0;
    while j + W <= n {
        tile::<T, U, H, W>(p, block, n, r, j);
        j += W;
    }
    macro_rules! narrower {
        ($($w:literal)*) => {$(
            if W > $w && j + $w <= n {
                tile::<T, U, H, $w>(p, block, n, r, j);
                j += $w;
            }
        )*};
    }
    narrower!(128 64 32 16 8 4 2);
    if j < n {
        tile::<T, U, H, 1>(p, block, n, r, j);
    }
}

/// One `H x V` tile at row `r` and column `j` of a row block `n` wide:
/// starts at zero on the first panel and from the stored partial sums
/// on later ones, adds `a[first + r + h, l] * widen(b[l, j + v])` for
/// every `l` of the panel in increasing order, and stores it. Each
/// output element is its own accumulator, and each B row segment is
/// widened once for all `H` rows.
#[inline(always)]
fn tile<T: Scalar, U: Scalar, const H: usize, const V: usize>(
    p: &Panel<'_, '_, T, U, impl Fn(U) -> T>,
    block: &mut [T],
    n: usize,
    r: usize,
    j: usize,
) {
    let mut acc = [[T::ZERO; V]; H];
    if p.ls.start > 0 {
        for (h, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&block[(r + h) * n + j..][..V]);
        }
    }
    let mut arows: [&[T]; H] = [&[]; H];
    for (h, row) in arows.iter_mut().enumerate() {
        *row = &p.a.row(p.first + r + h)[p.ls.start..p.ls.end];
    }
    let mut bv = [T::ZERO; V];
    for (t, l) in p.ls.clone().enumerate() {
        let seg = &p.b.row(l)[j..j + V];
        for v in 0..V {
            bv[v] = (p.widen)(seg[v]);
        }
        for h in 0..H {
            let x = arows[h][t];
            for v in 0..V {
                acc[h][v] += x * bv[v];
            }
        }
    }
    for (h, acc) in acc.iter().enumerate() {
        block[(r + h) * n + j..][..V].copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{reference_gemm, Matrix32, Matrix64};
    use crate::noise::GaussianSampler;

    /// Row counts on both sides of every tile height (4, 2, 1) and
    /// row-block boundary, up to 197 (DeiT-T's tokens: many blocks and a
    /// ragged last one).
    const EDGE_M: [usize; 10] = [1, 2, 3, 4, 5, RB - 1, RB, RB + 1, 2 * RB + 3, 197];
    /// Reduction lengths, short and long; at the widest outputs the long
    /// ones put B above the panel gate in `f64`, and 257 and 515 leave a
    /// ragged last panel.
    const EDGE_K: [usize; 8] = [1, 3, 4, 5, 255, 256, 257, 515];
    /// Output widths on both sides of every tile width of every build
    /// (4 to 256 columns), so every strip runs whole, and with every
    /// narrower strip after it, down to one column.
    const EDGE_N: [usize; 22] = [
        1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257,
    ];

    /// Asserts that every build this CPU runs equals the reference
    /// product under `==`, writing into `out`, which is filled with NaN
    /// before each. When `b` carries an `f32` source, every build also
    /// folds it from there.
    fn assert_each_build_exact<T: Scalar>(
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

    /// The builds of [`assert_each_build_exact`] over B's elements of
    /// type `U`: the portable one, and the AVX2 and AVX-512 ones where
    /// this CPU has them.
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
        gemm_portable(a, b, out, widen);
        assert_eq!(out, want, "portable build, {label}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.data_mut().fill(nan);
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { gemm_avx2(a, b, out, widen) };
            assert_eq!(out, want, "AVX2 build, {label}");
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.data_mut().fill(nan);
            // SAFETY: the CPU supports AVX-512F (checked just above).
            unsafe { gemm_avx512(a, b, out, widen) };
            assert_eq!(out, want, "AVX-512 build, {label}");
        }
    }

    /// As [`assert_each_build_exact`], and the dispatching entry point
    /// into a fresh output as well.
    fn assert_every_build_exact<T: Scalar>(
        a: &MatrixView<'_, T>,
        b: &MatrixView<'_, T>,
        out: &mut Matrix<T>,
    ) {
        assert_eq!(tiled_gemm(a, b), reference_gemm(a, b), "dispatched");
        assert_each_build_exact(a, b, out);
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
    fn every_build_matches_reference_at_every_tile_edge() {
        fn check<T: Scalar>(rng: &mut GaussianSampler) {
            let (m_max, k_max, n_max) = (EDGE_M[9], EDGE_K[7], EDGE_N[21]); // the largest
            let a_parent = Matrix::<T>::randn(m_max + 1, k_max + 3, T::ONE, rng);
            let b_parent = Matrix::<T>::randn(k_max + 2, n_max + 5, T::ONE, rng);
            let mut out = Matrix::zeros(0, 0);
            for m in EDGE_M {
                for k in EDGE_K {
                    for n in EDGE_N {
                        let a = a_parent.view().block(1, 2, m, k);
                        let b = b_parent.view().block(2, 3, k, n);
                        let want = reference_gemm(&a, &b);
                        let label = format!("{m} x {k} x {n}");
                        each_build_exact(&a, &b, |x| x, &mut out, &want, &label);
                        let (a, b) = (a.to_matrix(), b.to_matrix());
                        let label = format!("{label}, contiguous");
                        each_build_exact(&a.view(), &b.view(), |x| x, &mut out, &want, &label);
                    }
                }
            }
        }
        let mut rng = GaussianSampler::new(13);
        check::<f64>(&mut rng);
        check::<f32>(&mut rng);
    }

    /// As [`every_build_matches_reference_at_every_tile_edge`] in `f64`,
    /// with B widened from `f32` values: every build, folding B from
    /// those values, equals the reference product of the `f64` ones.
    #[test]
    fn every_build_folds_an_f32_source_exactly_at_every_tile_edge() {
        let mut rng = GaussianSampler::new(17);
        let (m_max, k_max, n_max) = (EDGE_M[9], EDGE_K[7], EDGE_N[21]); // the largest
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

    /// Products whose B is just above the panel gate, with `k` on both
    /// sides of one and two panels, and one exactly at the gate (a single
    /// panel): `f32` and `f64`, strided and contiguous, with and without
    /// an `f32` source, and through the dispatching entry point.
    #[test]
    fn every_build_matches_reference_across_panel_edges() {
        fn check<T: Scalar>(elem: usize, rng: &mut GaussianSampler) {
            let mut out = Matrix::zeros(0, 0);
            let ks = [
                PANEL_ROWS - 1,
                PANEL_ROWS,
                PANEL_ROWS + 1,
                2 * PANEL_ROWS + 1,
            ];
            for k in ks {
                let above = PANEL_MIN_BYTES / (k * elem) + 1;
                let at = PANEL_MIN_BYTES / (PANEL_ROWS * elem);
                for (k, n) in [(k, above), (PANEL_ROWS, at)] {
                    let a = Matrix::<T>::randn(RB + 2, k + 1, T::ONE, rng);
                    let b = Matrix::<T>::randn(k + 1, n + 3, T::ONE, rng);
                    for m in [1, 3, RB + 1] {
                        let (a, b) = (a.view().block(1, 1, m, k), b.view().block(1, 2, k, n));
                        assert_every_build_exact(&a, &b, &mut out);
                        let (a, b) = (a.to_matrix(), b.to_matrix());
                        assert_every_build_exact(&a.view(), &b.view(), &mut out);
                    }
                }
            }
        }
        let mut rng = GaussianSampler::new(19);
        check::<f64>(8, &mut rng);
        check::<f32>(4, &mut rng);
        // An f64 B carrying its f32 source, which the kernel reads at four
        // bytes an element: above the gate, and at it.
        let mut out = Matrix64::zeros(0, 0);
        for (k, n) in [
            (PANEL_ROWS + 1, PANEL_MIN_BYTES / 36 + 1),
            (PANEL_ROWS, 1 << 14),
        ] {
            let source = Matrix32::randn(k, n + 3, 1.0, &mut rng);
            let b64 = source.to_f64();
            let sourced = b64.view().with_f32_source(source.view());
            let a = Matrix64::randn(RB + 1, k, 1.0, &mut rng);
            for m in [1, 3, RB, RB + 1] {
                let a = a.view().block(0, 0, m, k);
                assert_every_build_exact(&a, &sourced.block(0, 1, k, n), &mut out);
            }
        }
    }

    /// Pairs of reduction steps whose second product is exact only when
    /// fused into the add after it: `1 * 1`, then `(1 + e) * -(1 - e)`,
    /// which rounds to `-1`. Unfused, each pair sums to zero; a fused
    /// multiply-add leaves `e^2` (2^-60 in `f64` with `e = 2^-30`, 2^-26
    /// in `f32` with `e = 2^-13`). The products are wide and tall enough
    /// to run every build's whole tiles, every narrower strip, every
    /// row-group height and, at `k = 514`, B above the panel gate.
    #[test]
    fn no_build_fuses_a_multiply_into_its_add() {
        fn check<T: Scalar, U: Scalar>(
            a_pair: [T; 2],
            b_pair: [U; 2],
            widen: impl Fn(U) -> T + Copy,
            label: &str,
        ) {
            let mut out = Matrix::zeros(0, 0);
            for k in [66, 514] {
                let (m, n) = (2 * RB + 3, 511);
                let a = Matrix::from_fn(m, k, |_, l| a_pair[l % 2]);
                let b = Matrix::from_fn(k, n, |l, _| b_pair[l % 2]);
                let zero = Matrix::zeros(m, n);
                let label = format!("{label}, {m} x {k} x {n}");
                each_build_exact(&a.view(), &b.view(), widen, &mut out, &zero, &label);
            }
        }
        let e64 = 2f64.powi(-30);
        check([1.0, 1.0 + e64], [1.0, -(1.0 - e64)], |x| x, "f64");
        let e32 = 2f32.powi(-13);
        check([1.0, 1.0 + e32], [1.0, -(1.0 - e32)], |x| x, "f32");
        // An f32 source needs the rounding in the second product:
        // (1 + 2^-30)(1 + 2^-23) = p + 2^-53 rounds (to even) to p.
        let p = 1.0 + 2f64.powi(-23) + e64;
        let (a_pair, b_pair) = ([-p, 1.0 + e64], [1.0, 1.0 + 2f32.powi(-23)]);
        check(a_pair, b_pair, widen, "f64 from an f32 source");

        // The dispatching entry point, on the f64 and f32 operands and on
        // an f64 B folded from its f32 source (at most `RB` rows, B above
        // `SOURCE_FOLD_MIN_BYTES`).
        let (m, k, n) = (RB, 514, 511);
        let a = Matrix64::from_fn(m, k, |_, l| [1.0, 1.0 + e64][l % 2]);
        let b = Matrix64::from_fn(k, n, |l, _| [1.0, -(1.0 - e64)][l % 2]);
        assert_eq!(tiled_gemm(&a.view(), &b.view()), Matrix64::zeros(m, n));
        let a = Matrix32::from_fn(m, k, |_, l| [1.0, 1.0 + e32][l % 2]);
        let b = Matrix32::from_fn(k, n, |l, _| [1.0, -(1.0 - e32)][l % 2]);
        assert_eq!(tiled_gemm(&a.view(), &b.view()), Matrix32::zeros(m, n));
        let a = Matrix64::from_fn(m, k, |_, l| a_pair[l % 2]);
        let source = Matrix32::from_fn(k, n, |l, _| b_pair[l % 2]);
        let b = source.to_f64();
        let sourced = b.view().with_f32_source(source.view());
        assert!(folded_source(m, &sourced).is_some());
        assert_eq!(tiled_gemm(&a.view(), &sourced), Matrix64::zeros(m, n));
        assert_eq!(reference_gemm(&a.view(), &b.view()), Matrix64::zeros(m, n));
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
