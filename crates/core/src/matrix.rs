//! A single flat, contiguous, row-major matrix type shared by the whole
//! compute stack.
//!
//! The workspace previously carried two incompatible representations —
//! ragged `Vec<Vec<f64>>` in the photonic simulators and a flat `f32`
//! tensor in the NN stack. [`Matrix`] replaces both: one contiguous
//! buffer, generic over the scalar ([`Matrix64`] for device physics,
//! [`Matrix32`] for NN workloads), with borrow-based [`MatrixView`]s for
//! zero-copy slicing and a cache-friendly tiled matmul kernel.

use crate::noise::GaussianSampler;
use std::any::Any;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::{Arc, OnceLock};

/// A memo slot an `f64` operand can carry ([`MatrixView::with_memo`]): a
/// backend may fill it once with work that depends only on the
/// operand's values, such as the DPTC's DAC codes of a staged weight,
/// and reuse that work on every later product with the same operand.
pub type OperandMemo = OnceLock<Arc<dyn Any + Send + Sync>>;

/// Scalar element types a [`Matrix`] can hold (`f32` and `f64`).
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

/// A dense 2-D matrix with flat, contiguous, row-major storage.
///
/// ```
/// use lt_core::Matrix;
/// let t = Matrix::<f32>::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// assert_eq!(t.get(1, 2), 5.0);
/// assert_eq!(t.transpose().get(2, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Double-precision matrix — the compute-backend interchange type.
pub type Matrix64 = Matrix<f64>;
/// Single-precision matrix — the NN stack's tensor type.
pub type Matrix32 = Matrix<f32>;

impl<T: Scalar> Matrix<T> {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Gaussian-initialized matrix (mean 0, the given std), deterministic
    /// per seed source.
    pub fn randn(rows: usize, cols: usize, std: T, rng: &mut GaussianSampler) -> Self {
        Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.sample()) * std)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Reshapes in place to `rows x cols` with every element zeroed,
    /// reusing the existing allocation whenever capacity allows. A
    /// scratch matrix cycled through a run's shapes stops allocating
    /// once it has seen the largest one — the reuse primitive behind
    /// [`MatrixView::matmul_into`].
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::ZERO);
    }

    /// A borrowed view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            data: &self.data,
            source: None,
            memo: None,
        }
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.cols + j] = v;
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self x rhs` through the shared tiled kernel.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.view().matmul(&rhs.view())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<T> {
        let mut data = Vec::with_capacity(self.data.len());
        // Row `j` of the transpose is column `j`: every `cols`-th element
        // starting at `j`.
        for j in 0..self.cols {
            data.extend(self.data.iter().skip(j).step_by(self.cols));
        }
        Matrix::from_vec(self.cols, self.rows, data)
    }

    /// Element-wise sum with another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place element-wise accumulate.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Adds a row vector to every row (broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.cols() != self.cols()` or `bias.rows() != 1`.
    pub fn add_row_broadcast(&self, bias: &Matrix<T>) -> Matrix<T> {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// As [`Matrix::add_row_broadcast`], in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.cols() != self.cols()` or `bias.rows() != 1`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix<T>) {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), self.cols, "bias width mismatch");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Scales every element.
    pub fn scale(&self, s: T) -> Matrix<T> {
        let data = self.data.iter().map(|&v| v * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Applies a function element-wise.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Matrix<T> {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// As [`Matrix::map`], in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Sums each column into a `1 x cols` row vector.
    pub fn col_sum(&self) -> Matrix<T> {
        let mut out = vec![T::ZERO; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        Matrix::from_vec(1, self.cols, out)
    }

    /// Extracts a contiguous block of columns `[start, start + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix width.
    pub fn col_slice(&self, start: usize, width: usize) -> Matrix<T> {
        assert!(start + width <= self.cols, "column slice out of bounds");
        let mut data = Vec::with_capacity(self.rows * width);
        for i in 0..self.rows {
            data.extend_from_slice(&self.row(i)[start..start + width]);
        }
        Matrix::from_vec(self.rows, width, data)
    }

    /// Writes a block into the given column offset.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_col_slice(&mut self, start: usize, block: &Matrix<T>) {
        assert_eq!(block.rows(), self.rows, "row count mismatch");
        assert!(
            start + block.cols() <= self.cols,
            "column slice out of bounds"
        );
        for i in 0..block.rows() {
            self.row_mut(i)[start..start + block.cols()].copy_from_slice(block.row(i));
        }
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> T {
        self.data
            .iter()
            .fold(T::ZERO, |m, v| if v.abs() > m { v.abs() } else { m })
    }

    /// Largest absolute difference from another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix<T>) -> T {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .fold(T::ZERO, |m, (&a, &b)| {
                let d = (a - b).abs();
                if d > m {
                    d
                } else {
                    m
                }
            })
    }

    /// Mean of all elements.
    pub fn mean(&self) -> T {
        if self.data.is_empty() {
            return T::ZERO;
        }
        let sum = self.data.iter().fold(T::ZERO, |acc, &v| acc + v);
        T::from_f64(sum.to_f64() / self.data.len() as f64)
    }
}

impl Matrix<f32> {
    /// Widens to a double-precision matrix (for the f64 compute backends).
    pub fn to_f64(&self) -> Matrix64 {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v as f64).collect(),
        }
    }

    /// As [`Matrix::<f32>::to_f64`], but widens into a caller-provided
    /// matrix (reshaped in place, allocation reused) — the staging step
    /// of an f32 frontend driving the f64 backends without a fresh
    /// buffer per call.
    pub fn to_f64_into(&self, out: &mut Matrix64) {
        self.view().to_f64_into(out);
    }
}

impl Matrix<f64> {
    /// Narrows to a single-precision matrix (back to the NN stack).
    pub fn to_f32(&self) -> Matrix32 {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v as f32).collect(),
        }
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>8.4} ", self.get(i, j).to_f64())?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        write!(f, "{}]", if self.rows > 6 { "  ...\n" } else { "" })
    }
}

/// A borrowed, possibly strided view of a [`Matrix`] block.
///
/// Views are `Copy` and cost nothing to take; the compute backends accept
/// views so callers can hand in whole matrices or sub-blocks without
/// copies.
///
/// An `f64` view may also carry the `f32` values its elements were
/// widened from ([`MatrixView::with_f32_source`]): the exact kernel can
/// then stream the right operand at half the bytes with the same bits.
/// It may also carry a memo slot ([`MatrixView::with_memo`]).
/// [`MatrixView::block`] keeps the source and drops the memo; every copy
/// out of the view ([`MatrixView::to_matrix`] and the like) holds the
/// `f64` values only.
///
/// ```
/// use lt_core::Matrix64;
/// let m = Matrix64::from_fn(4, 6, |i, j| (i * 6 + j) as f64);
/// let block = m.view().block(1, 2, 2, 3);
/// assert_eq!(block.shape(), (2, 3));
/// assert_eq!(block.get(0, 0), m.get(1, 2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T> {
    rows: usize,
    cols: usize,
    stride: usize,
    data: &'a [T],
    /// `f32` values laid out like `data` that widen to it exactly; only
    /// an `f64` view carries one ([`MatrixView::with_f32_source`]).
    source: Option<&'a [f32]>,
    /// A memo of work derived from the viewed values
    /// ([`MatrixView::with_memo`]); only an `f64` view carries one.
    memo: Option<&'a OperandMemo>,
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// Wraps a flat row-major slice as a view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &'a [T]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        MatrixView {
            rows,
            cols,
            stride: cols,
            data,
            source: None,
            memo: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.stride + j]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// A sub-block view `[r0, r0 + nrows) x [c0, c0 + ncols)` sharing the
    /// same storage.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the view bounds.
    pub fn block(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> MatrixView<'a, T> {
        assert!(
            r0 + nrows <= self.rows && c0 + ncols <= self.cols,
            "block [{r0}+{nrows}, {c0}+{ncols}] exceeds a {}x{} view",
            self.rows,
            self.cols
        );
        let start = r0 * self.stride + c0;
        let end = if nrows == 0 || ncols == 0 {
            start
        } else {
            start + (nrows - 1) * self.stride + ncols
        };
        MatrixView {
            rows: nrows,
            cols: ncols,
            stride: self.stride,
            data: &self.data[start..end],
            source: self.source.map(|source| &source[start..end]),
            memo: None,
        }
    }

    /// The `f32` values attached by [`MatrixView::with_f32_source`], as
    /// a view of the same block; `None` when the view carries none.
    pub(crate) fn f32_source(&self) -> Option<MatrixView<'a, f32>> {
        self.source.map(|data| MatrixView {
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            data,
            source: None,
            memo: None,
        })
    }

    /// Copies the viewed block into an owned matrix.
    pub fn to_matrix(&self) -> Matrix<T> {
        if self.stride == self.cols {
            return Matrix::from_vec(self.rows, self.cols, self.data.to_vec());
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Matrix product through the shared kernel: `self x rhs`.
    ///
    /// Delegates to the one register-tiled kernel in [`crate::kernel`],
    /// which accumulates tiles of the output in registers from B's rows,
    /// read in place, and is bit-identical to [`reference_gemm`] on
    /// every shape. All backends that advertise exact arithmetic route
    /// through this one kernel so "exact" is bit-for-bit reproducible
    /// across the workspace.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &MatrixView<'_, T>) -> Matrix<T> {
        crate::kernel::tiled_gemm(self, rhs)
    }

    /// As [`MatrixView::matmul`], but writes the product into a
    /// caller-provided matrix (reshaped in place via
    /// [`Matrix::reset_zeroed`], allocation reused), bit-identical to
    /// `matmul` — see [`crate::kernel::tiled_gemm_into`].
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &MatrixView<'_, T>, out: &mut Matrix<T>) {
        crate::kernel::tiled_gemm_into(self, rhs, out);
    }
}

impl<'a> MatrixView<'a, f64> {
    /// Attaches `source`, the `f32` values this view's elements were
    /// widened from, laid out alike (same shape and row stride). Widening
    /// is exact, so the exact kernel may fold the right operand from the
    /// source instead, converting each element in register: the same
    /// products and sums, half the bytes streamed
    /// ([`crate::kernel::tiled_gemm_into`]). Every other reader of the
    /// view still reads its `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if the shapes or strides differ, and, in debug builds, if
    /// an element of `source` does not widen to this view's element.
    pub fn with_f32_source(self, source: MatrixView<'a, f32>) -> Self {
        assert_eq!(
            (source.rows, source.cols, source.stride),
            (self.rows, self.cols, self.stride),
            "an f32 source must be laid out like its view"
        );
        debug_assert!(
            (0..self.rows).all(|i| {
                let widened = source.row(i).iter().map(|&v| f64::from(v).to_bits());
                widened.eq(self.row(i).iter().map(|v| v.to_bits()))
            }),
            "an f32 source must widen to its view's values"
        );
        MatrixView {
            source: Some(source.data),
            ..self
        }
    }

    /// Attaches `memo`, a slot a backend may fill with work derived from
    /// this view's values alone and reuse on every later product with
    /// them (the analytic DPTC keeps the right operand's DAC codes
    /// there). The caller keeps it current: whoever changes the values
    /// must empty the memo first. Products equal those without it, bit
    /// for bit.
    pub fn with_memo(self, memo: &'a OperandMemo) -> Self {
        MatrixView {
            memo: Some(memo),
            ..self
        }
    }

    /// The slot attached by [`MatrixView::with_memo`], if any.
    pub fn memo(&self) -> Option<&'a OperandMemo> {
        self.memo
    }
}

impl MatrixView<'_, f32> {
    /// Widens the viewed block into a caller-provided matrix (reshaped
    /// in place, allocation reused) — the staging step of an f32
    /// frontend handing a sub-block of a wider tensor to the f64
    /// backends without copying it out first.
    pub fn to_f64_into(&self, out: &mut Matrix64) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        for i in 0..self.rows {
            out.data.extend(self.row(i).iter().map(|&v| v as f64));
        }
    }

    /// As [`MatrixView::to_f64_into`], transposed: `out` becomes the
    /// `cols x rows` transpose of the viewed block.
    pub fn to_f64_transposed_into(&self, out: &mut Matrix64) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        for j in 0..self.cols {
            out.data
                .extend((0..self.rows).map(|i| self.data[i * self.stride + j] as f64));
        }
    }
}

/// Naive triple-loop reference GEMM, kept deliberately simple for
/// property tests to compare optimized kernels and backends against.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn reference_gemm<T: Scalar>(a: &MatrixView<'_, T>, b: &MatrixView<'_, T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "reference_gemm shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = T::ZERO;
        for l in 0..k {
            acc += a.get(i, l) * b.get(l, j);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_reference() {
        let a = Matrix64::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix64::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
        let r = reference_gemm(&a.view(), &b.view());
        assert_eq!(c, r);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = GaussianSampler::new(1);
        for (rows, cols) in [(5, 7), (1, 4), (4, 1), (0, 3), (3, 0), (0, 0)] {
            let t = Matrix32::randn(rows, cols, 1.0, &mut rng);
            let tt = t.transpose();
            assert_eq!(tt.shape(), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(tt.get(j, i), t.get(i, j));
                }
            }
            assert_eq!(tt.transpose(), t);
        }
    }

    #[test]
    fn views_slice_without_copying() {
        let m = Matrix64::from_fn(6, 8, |i, j| (i * 8 + j) as f64);
        let v = m.view();
        let b = v.block(2, 3, 3, 4);
        assert_eq!(b.shape(), (3, 4));
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(b.get(i, j), m.get(2 + i, 3 + j));
            }
        }
        // A block of a block still lands on the right elements.
        let bb = b.block(1, 1, 2, 2);
        assert_eq!(bb.get(0, 0), m.get(3, 4));
        assert_eq!(bb.to_matrix().get(1, 1), m.get(4, 5));
    }

    #[test]
    fn strided_view_matmul_matches_owned() {
        let m = Matrix64::from_fn(6, 6, |i, j| ((i * 6 + j) as f64 * 0.1).sin());
        let a = m.view().block(1, 1, 3, 4);
        let b = m.view().block(0, 2, 4, 3);
        let got = a.matmul(&b);
        let want = a.to_matrix().matmul(&b.to_matrix());
        assert_eq!(got, want);
    }

    #[test]
    fn broadcast_and_elementwise() {
        let x = Matrix32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix32::from_vec(1, 2, vec![10.0, 20.0]);
        assert_eq!(x.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(x.hadamard(&x).data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(x.col_sum().data(), &[4.0, 6.0]);
        assert_eq!(x.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        // Broadcasting onto no rows, or rows of no columns.
        let none = Matrix32::zeros(0, 2).add_row_broadcast(&b);
        assert_eq!(none.shape(), (0, 2));
        let empty = Matrix32::zeros(3, 0).add_row_broadcast(&Matrix32::zeros(1, 0));
        assert_eq!(empty.shape(), (3, 0));
    }

    #[test]
    fn col_slice_round_trip() {
        let x = Matrix32::from_fn(3, 8, |i, j| (i * 8 + j) as f32);
        let block = x.col_slice(2, 4);
        assert_eq!(block.shape(), (3, 4));
        assert_eq!(block.get(1, 0), 10.0);
        let mut y = Matrix32::zeros(3, 8);
        y.set_col_slice(2, &block);
        for i in 0..3 {
            for j in 0..8 {
                let want = if (2..6).contains(&j) {
                    x.get(i, j)
                } else {
                    0.0
                };
                assert_eq!(y.get(i, j), want, "({i},{j})");
            }
        }
        // Zero-width slices, and slices of a matrix with no rows.
        for (rows, start, width) in [(3, 5, 0), (3, 8, 0), (0, 2, 4), (0, 0, 0)] {
            let x = Matrix32::from_fn(rows, 8, |i, j| (i * 8 + j) as f32);
            let block = x.col_slice(start, width);
            assert_eq!(block.shape(), (rows, width));
            let mut y = x.clone();
            y.set_col_slice(start, &block);
            assert_eq!(y, x);
        }
        let x = Matrix32::zeros(3, 0);
        assert_eq!(x.col_slice(0, 0).shape(), (3, 0));
    }

    #[test]
    fn stats_helpers() {
        let x = Matrix32::from_vec(1, 4, vec![-3.0, 1.0, 2.0, -0.5]);
        assert_eq!(x.max_abs(), 3.0);
        assert!((x.mean() + 0.125).abs() < 1e-7);
    }

    #[test]
    fn blocks_widen_in_place_plain_and_transposed() {
        let m = Matrix32::from_fn(5, 12, |i, j| (i * 12 + j) as f32 * 0.5 - 7.0);
        let mut out = Matrix64::zeros(9, 9);
        for (c0, width) in [(0, 12), (4, 4), (11, 1)] {
            let block = m.view().block(0, c0, 5, width);
            block.to_f64_into(&mut out);
            assert_eq!(out, m.col_slice(c0, width).to_f64());
            block.to_f64_transposed_into(&mut out);
            assert_eq!(out, m.col_slice(c0, width).transpose().to_f64());
        }
        let mut x = m.clone();
        x.map_in_place(|v| v * 3.0);
        assert_eq!(x, m.map(|v| v * 3.0));
        let bias = Matrix32::from_fn(1, 12, |_, j| j as f32);
        x.add_row_broadcast_assign(&bias);
        assert_eq!(x, m.map(|v| v * 3.0).add_row_broadcast(&bias));
    }

    #[test]
    fn f32_f64_round_trip() {
        let mut rng = GaussianSampler::new(9);
        let x = Matrix32::randn(4, 5, 1.0, &mut rng);
        assert_eq!(x.to_f64().to_f32(), x);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn bad_matmul_rejected() {
        Matrix64::zeros(2, 3).matmul(&Matrix64::zeros(2, 3));
    }
}
