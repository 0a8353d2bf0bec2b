//! Symmetric uniform quantization for MZM operand encoding, and the
//! true integer execution path.
//!
//! Operands are normalized into `[-1, 1]` (by their per-tile maximum
//! absolute value, paper Section III-C) and driven onto the modulators by
//! `b`-bit DACs; outputs are digitized by `b`-bit ADCs. This module
//! provides the symmetric mid-tread quantizer used on both sides.
//!
//! On top of the scalar [`Quantizer`], the module hosts the executable
//! integer path for the paper's 8-bit/4-bit work modes:
//! [`QuantizedMatrix`] stores `i8`/`i4` codes (4-bit codes packed two
//! per byte) with grouped per-channel scales — each row (activations)
//! or column (weights) is split into [`QuantizedMatrix::group_size`]-wide
//! groups along the reduction dimension, each group carrying its own
//! scale, in the spirit of GPTQ-style grouped quantization — and
//! [`quantized_gemm`] multiplies two such matrices with exact `i32`
//! accumulation inside each group and `f32` accumulation across groups.

use crate::matrix::{Matrix32, MatrixView};

/// A symmetric uniform quantizer over `[-1, 1]` with `2^(bits-1) - 1`
/// positive levels (mid-tread, zero exactly representable).
///
/// ```
/// use lt_core::Quantizer;
/// let q = Quantizer::new(4);
/// assert_eq!(q.positive_levels(), 7);
/// assert_eq!(q.quantize_unit(1.0), 1.0);
/// assert_eq!(q.quantize_unit(0.0), 0.0);
/// // 4-bit step is 1/7.
/// assert!((q.quantize_unit(0.1) - 1.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// Creates a `bits`-bit quantizer.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "quantizer precision {bits} outside supported range [2, 16]"
        );
        Quantizer { bits }
    }

    /// The bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of positive quantization levels (`2^(bits-1) - 1`).
    pub fn positive_levels(&self) -> u32 {
        (1u32 << (self.bits - 1)) - 1
    }

    /// The quantization step size.
    pub fn step(&self) -> f64 {
        1.0 / self.positive_levels() as f64
    }

    /// Quantizes a value already normalized to `[-1, 1]`. Values outside
    /// the range are clamped (saturating quantization).
    pub fn quantize_unit(&self, v: f64) -> f64 {
        let levels = self.positive_levels() as f64;
        (v.clamp(-1.0, 1.0) * levels).round() / levels
    }

    /// Quantizes a general value given its scale (`max_abs`), returning the
    /// dequantized result. `scale <= 0` passes the value through unchanged
    /// (an all-zero tensor has nothing to quantize).
    pub fn fake_quantize(&self, v: f64, scale: f64) -> f64 {
        if scale <= 0.0 {
            return v;
        }
        self.quantize_unit(v / scale) * scale
    }

    /// Worst-case quantization error for normalized inputs (half a step).
    pub fn max_error(&self) -> f64 {
        self.step() / 2.0
    }

    /// Quantizes one scale group to signed integer codes, returning the
    /// dequantization step (`max_abs / positive_levels`): the value a
    /// code of 1 dequantizes to. An all-zero group returns step 0 and
    /// all-zero codes. Per-element error is bounded by half the
    /// returned step.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn quantize_group(&self, values: &[f32], codes: &mut [i8]) -> f32 {
        assert_eq!(values.len(), codes.len(), "group length mismatch");
        let scale = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            codes.fill(0);
            return 0.0;
        }
        let levels = self.positive_levels() as f32;
        let inv = levels / scale;
        for (c, &v) in codes.iter_mut().zip(values) {
            *c = (v * inv).round().clamp(-levels, levels) as i8;
        }
        scale / levels
    }
}

/// Which logical axis a [`QuantizedMatrix`]'s scale groups belong to.
///
/// Groups always run *along the reduction dimension* (`k`); the axis
/// names which side of the product owns the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupAxis {
    /// Channels are rows — the activation side of `x @ w` (an `m x k`
    /// matrix quantized per row, groups along `k`).
    PerRow,
    /// Channels are columns — the weight side of `x @ w` (a `k x n`
    /// matrix quantized per output channel, groups along `k`).
    PerCol,
}

/// An integer-quantized matrix: `i8` or packed `i4` codes with grouped
/// per-channel scales, the executable form of the paper's 8-bit/4-bit
/// work modes.
///
/// Codes are stored channel-major (each channel's `k` codes are
/// contiguous; a [`GroupAxis::PerCol`] matrix is therefore stored
/// transposed), so [`quantized_gemm`] walks both operands linearly.
/// 4-bit codes pack two per byte, halving weight memory for real.
///
/// ```
/// use lt_core::{quantized_gemm, Matrix32, QuantizedMatrix};
/// let x = Matrix32::from_fn(3, 8, |i, j| ((i * 8 + j) as f32 * 0.37).sin());
/// let w = Matrix32::from_fn(8, 5, |i, j| ((i + 2 * j) as f32 * 0.21).cos());
/// let xq = QuantizedMatrix::quantize_rows(&x.view(), 8, 4);
/// let wq = QuantizedMatrix::quantize_cols(&w.view(), 8, 4);
/// let y = quantized_gemm(&xq, &wq);
/// assert_eq!(y.shape(), (3, 5));
/// assert!(y.max_abs_diff(&x.matmul(&w)) < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    axis: GroupAxis,
    /// Number of channels (rows for `PerRow`, columns for `PerCol`).
    channels: usize,
    /// Reduction depth `k` (codes per channel).
    depth: usize,
    bits: u32,
    group: usize,
    /// Dequantization step per (channel, group): `scale / levels`.
    steps: Vec<f32>,
    /// Codes, channel-major. `i8`: one code per byte. `i4`: two codes
    /// per byte (low nibble = even `l`), each channel padded to a whole
    /// byte.
    codes: Vec<u8>,
}

impl QuantizedMatrix {
    fn quantize(view: &MatrixView<'_, f32>, axis: GroupAxis, bits: u32, group: usize) -> Self {
        assert!(
            bits == 4 || bits == 8,
            "integer execution supports 4 or 8 bits, got {bits}"
        );
        assert!(group > 0, "group size must be positive");
        let (channels, depth) = match axis {
            GroupAxis::PerRow => (view.rows(), view.cols()),
            GroupAxis::PerCol => (view.cols(), view.rows()),
        };
        let q = Quantizer::new(bits);
        let n_groups = depth.div_ceil(group);
        let mut steps = Vec::with_capacity(channels * n_groups);
        let mut flat = vec![0i8; depth];
        let mut chan = vec![0.0f32; depth];
        let bytes_per_channel = Self::bytes_per_channel(bits, depth);
        let mut codes = vec![0u8; channels * bytes_per_channel];
        for ch in 0..channels {
            match axis {
                GroupAxis::PerRow => chan.copy_from_slice(view.row(ch)),
                GroupAxis::PerCol => {
                    for (l, c) in chan.iter_mut().enumerate() {
                        *c = view.get(l, ch);
                    }
                }
            }
            let mut g0 = 0;
            while g0 < depth {
                let g1 = (g0 + group).min(depth);
                steps.push(q.quantize_group(&chan[g0..g1], &mut flat[g0..g1]));
                g0 += group;
            }
            let dst = &mut codes[ch * bytes_per_channel..(ch + 1) * bytes_per_channel];
            if bits == 8 {
                for (d, &c) in dst.iter_mut().zip(&flat) {
                    *d = c as u8;
                }
            } else {
                for (l, &c) in flat.iter().enumerate() {
                    let nib = (c as u8) & 0x0F;
                    if l % 2 == 0 {
                        dst[l / 2] = nib;
                    } else {
                        dst[l / 2] |= nib << 4;
                    }
                }
            }
        }
        QuantizedMatrix {
            axis,
            channels,
            depth,
            bits,
            group,
            steps,
            codes,
        }
    }

    fn bytes_per_channel(bits: u32, depth: usize) -> usize {
        if bits == 8 {
            depth
        } else {
            depth.div_ceil(2)
        }
    }

    /// Quantizes an `m x k` activation matrix per row, with `group`-wide
    /// scale groups along `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 4 or 8, or if `group == 0`.
    pub fn quantize_rows(view: &MatrixView<'_, f32>, bits: u32, group: usize) -> Self {
        Self::quantize(view, GroupAxis::PerRow, bits, group)
    }

    /// Quantizes a `k x n` weight matrix per output channel (column),
    /// with `group`-wide scale groups along `k` — GPTQ-style grouped
    /// per-channel scales. Stored transposed so the GEMM reads it
    /// linearly.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 4 or 8, or if `group == 0`.
    pub fn quantize_cols(view: &MatrixView<'_, f32>, bits: u32, group: usize) -> Self {
        Self::quantize(view, GroupAxis::PerCol, bits, group)
    }

    /// Which axis carries the channels.
    pub fn axis(&self) -> GroupAxis {
        self.axis
    }

    /// Logical rows of the original matrix.
    pub fn rows(&self) -> usize {
        match self.axis {
            GroupAxis::PerRow => self.channels,
            GroupAxis::PerCol => self.depth,
        }
    }

    /// Logical columns of the original matrix.
    pub fn cols(&self) -> usize {
        match self.axis {
            GroupAxis::PerRow => self.depth,
            GroupAxis::PerCol => self.channels,
        }
    }

    /// Code bit-width (4 or 8).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Scale-group width along the reduction dimension.
    pub fn group_size(&self) -> usize {
        self.group
    }

    /// Number of scale groups per channel.
    pub fn groups_per_channel(&self) -> usize {
        self.depth.div_ceil(self.group)
    }

    /// The dequantization step of one (channel, group): a code of 1
    /// dequantizes to this value, and per-element quantization error is
    /// bounded by half of it.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn step(&self, channel: usize, group_idx: usize) -> f32 {
        assert!(
            channel < self.channels && group_idx < self.groups_per_channel(),
            "step index out of bounds"
        );
        self.steps[channel * self.groups_per_channel() + group_idx]
    }

    /// Bytes of code storage (excludes scales) — `i4` really is half
    /// of `i8`.
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Decodes one channel's codes into `i8` values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != k` or the channel is out of bounds.
    pub fn unpack_channel(&self, channel: usize, out: &mut [i8]) {
        assert_eq!(out.len(), self.depth, "unpack buffer length mismatch");
        let bpc = Self::bytes_per_channel(self.bits, self.depth);
        let src = &self.codes[channel * bpc..(channel + 1) * bpc];
        if self.bits == 8 {
            for (o, &b) in out.iter_mut().zip(src) {
                *o = b as i8;
            }
        } else {
            for (l, o) in out.iter_mut().enumerate() {
                let b = src[l / 2];
                *o = if l % 2 == 0 {
                    ((b << 4) as i8) >> 4
                } else {
                    (b as i8) >> 4
                };
            }
        }
    }

    /// Decodes every channel, channel-major (`channels * k` values).
    pub fn unpack(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.channels * self.depth];
        for ch in 0..self.channels {
            self.unpack_channel(ch, &mut out[ch * self.depth..(ch + 1) * self.depth]);
        }
        out
    }

    /// Reconstructs the (lossy) matrix in its original orientation.
    pub fn dequantize(&self) -> Matrix32 {
        let vals = self.unpack();
        let gpc = self.groups_per_channel();
        let dequant = |ch: usize, l: usize| {
            vals[ch * self.depth + l] as f32 * self.steps[ch * gpc + l / self.group]
        };
        match self.axis {
            GroupAxis::PerRow => Matrix32::from_fn(self.channels, self.depth, dequant),
            GroupAxis::PerCol => {
                Matrix32::from_fn(self.depth, self.channels, |l, ch| dequant(ch, l))
            }
        }
    }
}

/// Integer matrix product `a x b` of a [`GroupAxis::PerRow`]-quantized
/// activation and a [`GroupAxis::PerCol`]-quantized weight.
///
/// Inside each scale group the `i8 x i8` products accumulate exactly in
/// `i32`; group partial sums are scaled by both operands' group steps
/// and accumulated across groups in `f32`. The whole computation is
/// deterministic — no rounding depends on execution order — so parallel
/// and sequential schedules agree bit-for-bit by construction.
///
/// # Panics
///
/// Panics if the axes are wrong, the reduction depths disagree, or the
/// group sizes differ (group boundaries must line up).
pub fn quantized_gemm(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Matrix32 {
    assert_eq!(a.axis, GroupAxis::PerRow, "lhs must be PerRow-quantized");
    assert_eq!(b.axis, GroupAxis::PerCol, "rhs must be PerCol-quantized");
    assert_eq!(
        a.depth,
        b.depth,
        "quantized_gemm shape mismatch: {}x{} x {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(a.group, b.group, "group size mismatch");
    let (m, k, n) = (a.channels, a.depth, b.channels);
    let group = a.group;
    let gpc = a.groups_per_channel();
    let a_vals = a.unpack();
    let b_vals = b.unpack();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a_vals[i * k..(i + 1) * k];
        let asteps = &a.steps[i * gpc..(i + 1) * gpc];
        for j in 0..n {
            let brow = &b_vals[j * k..(j + 1) * k];
            let bsteps = &b.steps[j * gpc..(j + 1) * gpc];
            let mut acc = 0.0f32;
            let mut g0 = 0;
            let mut g = 0;
            while g0 < k {
                let g1 = (g0 + group).min(k);
                let mut isum = 0i32;
                for (&qa, &qb) in arow[g0..g1].iter().zip(&brow[g0..g1]) {
                    isum += qa as i32 * qb as i32;
                }
                acc += isum as f32 * asteps[g] * bsteps[g];
                g0 += group;
                g += 1;
            }
            out[i * n + j] = acc;
        }
    }
    Matrix32::from_vec(m, n, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_bit_width() {
        assert_eq!(Quantizer::new(4).positive_levels(), 7);
        assert_eq!(Quantizer::new(8).positive_levels(), 127);
        assert_eq!(Quantizer::new(2).positive_levels(), 1);
    }

    #[test]
    fn quantization_is_idempotent() {
        let q = Quantizer::new(4);
        for i in -20..=20 {
            let v = i as f64 / 20.0;
            let once = q.quantize_unit(v);
            assert_eq!(q.quantize_unit(once), once);
        }
    }

    #[test]
    fn error_is_bounded_by_half_step() {
        let q = Quantizer::new(8);
        for i in -1000..=1000 {
            let v = i as f64 / 1000.0;
            assert!((q.quantize_unit(v) - v).abs() <= q.max_error() + 1e-12);
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let q = Quantizer::new(4);
        assert_eq!(q.quantize_unit(2.5), 1.0);
        assert_eq!(q.quantize_unit(-7.0), -1.0);
    }

    #[test]
    fn symmetric_around_zero() {
        let q = Quantizer::new(6);
        for i in 0..=100 {
            let v = i as f64 / 100.0;
            assert_eq!(q.quantize_unit(v), -q.quantize_unit(-v));
        }
    }

    #[test]
    fn fake_quantize_respects_scale() {
        let q = Quantizer::new(4);
        let v = 3.1;
        let scale = 4.0;
        let fq = q.fake_quantize(v, scale);
        assert!((fq - v).abs() <= q.max_error() * scale + 1e-12);
        // Zero scale passes through.
        assert_eq!(q.fake_quantize(v, 0.0), v);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn rejects_one_bit() {
        Quantizer::new(1);
    }

    use crate::noise::GaussianSampler;

    #[test]
    fn quantize_group_bounds_error_by_half_step() {
        let q = Quantizer::new(8);
        let vals: Vec<f32> = (0..16).map(|i| ((i * 7) as f32 * 0.13).sin()).collect();
        let mut codes = vec![0i8; 16];
        let step = q.quantize_group(&vals, &mut codes);
        for (&v, &c) in vals.iter().zip(&codes) {
            assert!((v - c as f32 * step).abs() <= step / 2.0 + 1e-6);
        }
        // All-zero group: zero step, zero codes.
        let step0 = q.quantize_group(&[0.0; 4], &mut codes[..4]);
        assert_eq!(step0, 0.0);
        assert!(codes[..4].iter().all(|&c| c == 0));
    }

    #[test]
    fn i4_pack_round_trips() {
        let mut rng = GaussianSampler::new(3);
        let m = crate::Matrix32::randn(5, 9, 1.0, &mut rng);
        let qm = QuantizedMatrix::quantize_rows(&m.view(), 4, 4);
        // Half the bytes of an i8 encoding (odd depth rounds up per row).
        assert_eq!(qm.code_bytes(), 5 * 5);
        let vals = qm.unpack();
        assert!(vals.iter().all(|&v| (-7..=7).contains(&v)));
        // Dequantize reconstructs within half a group step everywhere.
        let deq = qm.dequantize();
        for i in 0..5 {
            for j in 0..9 {
                let step = qm.step(i, j / 4);
                assert!((deq.get(i, j) - m.get(i, j)).abs() <= step / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn per_col_quantization_transposes_storage() {
        let w = crate::Matrix32::from_fn(6, 3, |i, j| (i * 3 + j) as f32 * 0.1 - 0.8);
        let qw = QuantizedMatrix::quantize_cols(&w.view(), 8, 2);
        assert_eq!((qw.rows(), qw.cols()), (6, 3));
        assert_eq!(qw.groups_per_channel(), 3);
        let deq = qw.dequantize();
        assert_eq!(deq.shape(), (6, 3));
        assert!(deq.max_abs_diff(&w) < 0.01);
    }

    #[test]
    fn quantized_gemm_tracks_exact_product() {
        let mut rng = GaussianSampler::new(17);
        let x = crate::Matrix32::randn(4, 24, 0.7, &mut rng);
        let w = crate::Matrix32::randn(24, 6, 0.5, &mut rng);
        let exact = x.matmul(&w);
        for &(bits, tol) in &[(8u32, 0.05f32), (4, 0.9)] {
            let xq = QuantizedMatrix::quantize_rows(&x.view(), bits, 8);
            let wq = QuantizedMatrix::quantize_cols(&w.view(), bits, 8);
            let y = quantized_gemm(&xq, &wq);
            assert!(
                y.max_abs_diff(&exact) < tol,
                "{bits}-bit drifted {}",
                y.max_abs_diff(&exact)
            );
        }
    }

    #[test]
    fn quantized_gemm_is_deterministic() {
        let mut rng = GaussianSampler::new(23);
        let x = crate::Matrix32::randn(3, 17, 1.0, &mut rng);
        let w = crate::Matrix32::randn(17, 5, 1.0, &mut rng);
        let xq = QuantizedMatrix::quantize_rows(&x.view(), 4, 5);
        let wq = QuantizedMatrix::quantize_cols(&w.view(), 4, 5);
        assert_eq!(quantized_gemm(&xq, &wq), quantized_gemm(&xq, &wq));
    }

    #[test]
    #[should_panic(expected = "lhs must be PerRow")]
    fn gemm_rejects_swapped_axes() {
        let m = crate::Matrix32::zeros(4, 4);
        let q = QuantizedMatrix::quantize_cols(&m.view(), 8, 4);
        let r = QuantizedMatrix::quantize_rows(&m.view(), 8, 4);
        quantized_gemm(&q, &r);
    }
}
