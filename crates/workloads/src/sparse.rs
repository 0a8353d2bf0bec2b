//! Structured sparse attention support (paper Section VI-A, Fig. 16).
//!
//! Window-based local attention restricts each token to attend to a window
//! of neighbours. The paper shows how to *blockify* the Q/K matrices so the
//! sparse computation becomes groups of small dense matrix products that
//! DPTC accelerates natively; this module performs that reformulation and
//! reports the resulting dense GEMM trace and compute savings.

use lt_core::{Op, OpKind};

/// A block-wise window local-attention pattern.
///
/// ```
/// use lt_core::{Op, OpKind};
/// use lt_workloads::WindowAttention;
/// let w = WindowAttention::new(192, 3, 16, 64);
/// // Each of ceil(192/16) = 12 Q blocks multiplies w = 3 K blocks.
/// assert_eq!(w.blockified_qk(), Op::gemm_n(OpKind::AttnQk, 16, 64, 16, 36));
/// assert!(w.density() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAttention {
    /// Number of tokens `n`.
    pub tokens: usize,
    /// Window size `w` in blocks: each Q block attends to `w` K blocks.
    pub window_blocks: usize,
    /// Block size `b` (tokens per block).
    pub block_size: usize,
    /// Per-head dimension.
    pub head_dim: usize,
}

impl WindowAttention {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the window exceeds the number of
    /// blocks.
    pub fn new(tokens: usize, window_blocks: usize, block_size: usize, head_dim: usize) -> Self {
        assert!(
            tokens > 0 && window_blocks > 0 && block_size > 0 && head_dim > 0,
            "window-attention parameters must be positive"
        );
        let num_blocks = tokens.div_ceil(block_size);
        assert!(
            window_blocks <= num_blocks,
            "window of {window_blocks} blocks exceeds the {num_blocks} available"
        );
        WindowAttention {
            tokens,
            window_blocks,
            block_size,
            head_dim,
        }
    }

    /// Number of token blocks `ceil(n / b)`.
    pub fn num_blocks(&self) -> usize {
        self.tokens.div_ceil(self.block_size)
    }

    /// The blockified `Q K^T`: each chunked Q (shape `[b, dh]`) multiplies
    /// its `w` neighbouring chunked K matrices — dense `[b, dh] x [dh, b]`
    /// products.
    pub fn blockified_qk(&self) -> Op {
        Op::gemm_n(
            OpKind::AttnQk,
            self.block_size,
            self.head_dim,
            self.block_size,
            self.num_blocks() * self.window_blocks,
        )
    }

    /// The blockified `A V`: after row-wise compression of the sparse
    /// attention map, each Q block's scores (shape `[b, w*b]`) multiply the
    /// corresponding rows of V (`[w*b, dh]`).
    pub fn blockified_av(&self) -> Op {
        Op::gemm_n(
            OpKind::AttnAv,
            self.block_size,
            self.window_blocks * self.block_size,
            self.head_dim,
            self.num_blocks(),
        )
    }

    /// Fraction of the dense `n x n` attention map actually computed.
    pub fn density(&self) -> f64 {
        let computed = (self.num_blocks() * self.window_blocks) as f64
            * (self.block_size * self.block_size) as f64;
        let full = (self.tokens * self.tokens) as f64;
        (computed / full).min(1.0)
    }

    /// MAC savings versus dense attention (`QK^T` + `AV`).
    pub fn mac_saving(&self) -> f64 {
        let dense_qk = (self.tokens * self.head_dim * self.tokens) as f64;
        let dense_av = (self.tokens * self.tokens * self.head_dim) as f64;
        let sparse = (self.blockified_qk().total_macs() + self.blockified_av().total_macs()) as f64;
        (dense_qk + dense_av) / sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blockification_preserves_shapes() {
        let w = WindowAttention::new(256, 3, 32, 64);
        assert_eq!(
            w.blockified_qk(),
            Op::gemm_n(OpKind::AttnQk, 32, 64, 32, 8 * 3)
        );
        assert_eq!(w.blockified_av(), Op::gemm_n(OpKind::AttnAv, 32, 96, 64, 8));
    }

    #[test]
    fn density_and_saving_are_consistent() {
        let w = WindowAttention::new(256, 2, 32, 64);
        let density = w.density();
        assert!((density - 2.0 * 32.0 / 256.0).abs() < 1e-12);
        // MAC saving is the inverse of density (QK and AV shrink equally).
        assert!((w.mac_saving() - 1.0 / density).abs() < 1e-9);
    }

    #[test]
    fn full_window_degenerates_to_dense() {
        let w = WindowAttention::new(128, 4, 32, 64);
        assert!((w.density() - 1.0).abs() < 1e-12);
        assert!((w.mac_saving() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vector_matrix_special_case() {
        // Setting block size 1 yields per-token vector-matrix products,
        // matching the paper's heterogeneous-core (Nh = 1) discussion.
        let w = WindowAttention::new(64, 5, 1, 32);
        assert_eq!(
            w.blockified_qk(),
            Op::gemm_n(OpKind::AttnQk, 1, 32, 1, 64 * 5)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_window_rejected() {
        WindowAttention::new(64, 10, 32, 64);
    }
}
