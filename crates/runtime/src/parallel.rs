//! [`ParallelBackend`]: row-block parallel execution of any
//! [`ComputeBackend`], bit-identical to sequential blocked execution.

use crate::pool::ThreadPool;
use lt_core::backend::{row_blocks, split_seed};
use lt_core::{blocked_gemm_with_seed, ComputeBackend, Matrix64, MatrixView, RunCtx};
use std::fmt;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Default for [`ParallelBackend::with_min_parallel_macs`]: below this
/// many multiply-accumulates a GEMM runs inline on the calling thread,
/// where dispatch overhead would exceed the work *for a native-speed
/// kernel*. Simulation backends that are orders of magnitude slower per
/// MAC (the DPTC's circuit fidelity especially) should lower the gate.
/// The inline path uses the same seed partition, so the threshold never
/// affects results.
pub const MIN_PARALLEL_MACS: usize = 32 * 32 * 32;

/// Wraps a [`ComputeBackend`] and executes every GEMM as the canonical
/// [`row_blocks`] work items on a [`ThreadPool`].
///
/// `ParallelBackend<B>` is itself a [`ComputeBackend`], so it drops into
/// `lt_nn::BackendEngine` — or any other consumer of the trait —
/// unchanged. Because every row block's noise stream is rooted at
/// [`split_seed`]`(call_seed, block_index)`, the output is bit-identical
/// to [`lt_core::blocked_gemm`] on the wrapped backend for **every** thread
/// count; thread scheduling can only change *when* a block is computed,
/// never *what* it computes.
///
/// ```
/// use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
/// use lt_runtime::ParallelBackend;
///
/// let a = Matrix64::from_fn(96, 64, |i, j| ((i * 64 + j) as f64 * 0.01).sin());
/// let b = Matrix64::from_fn(64, 80, |i, j| ((i + j) as f64 * 0.02).cos());
/// let seq = NativeBackend.gemm(a.view(), b.view(), &mut RunCtx::new(1));
/// for threads in [1, 2, 4, 8] {
///     let par = ParallelBackend::new(NativeBackend, threads)
///         .gemm(a.view(), b.view(), &mut RunCtx::new(1));
///     assert_eq!(par, seq);
/// }
/// ```
pub struct ParallelBackend<B> {
    backend: Arc<B>,
    pool: Arc<ThreadPool>,
    name: String,
    min_parallel_macs: usize,
}

// Manual impl: cloning is two `Arc` bumps and must not require
// `B: Clone` (a derive would add that needless bound).
impl<B> Clone for ParallelBackend<B> {
    fn clone(&self) -> Self {
        ParallelBackend {
            backend: Arc::clone(&self.backend),
            pool: Arc::clone(&self.pool),
            name: self.name.clone(),
            min_parallel_macs: self.min_parallel_macs,
        }
    }
}

impl<B: ComputeBackend + Send + Sync + 'static> ParallelBackend<B> {
    /// Wraps `backend` with a dedicated pool of `threads` workers,
    /// which every clone shares.
    pub fn new(backend: B, threads: usize) -> Self {
        let name = format!("parallel({})", backend.name());
        ParallelBackend {
            backend: Arc::new(backend),
            pool: Arc::new(ThreadPool::new(threads)),
            name,
            min_parallel_macs: MIN_PARALLEL_MACS,
        }
    }

    /// Overrides the inline-execution gate (default
    /// [`MIN_PARALLEL_MACS`]): GEMMs below `macs` multiply-accumulates
    /// run on the calling thread instead of the pool. Set it low (or to
    /// zero) for slow simulation backends — e.g. circuit-fidelity DPTC,
    /// where even a small product is worth fanning out — and leave the
    /// default for native-speed kernels. Results are identical either
    /// way; only wall-clock changes.
    pub fn with_min_parallel_macs(mut self, macs: usize) -> Self {
        self.min_parallel_macs = macs;
        self
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl<B: ComputeBackend> fmt::Debug for ParallelBackend<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelBackend")
            .field("backend", &self.backend)
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl<B: ComputeBackend + Send + Sync + 'static> ComputeBackend for ParallelBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn preferred_block_rows(&self) -> usize {
        self.backend.preferred_block_rows()
    }

    fn gemm_block(
        &self,
        a_rows: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        block_seed: u64,
    ) -> Matrix64 {
        // A single block is one work item; nothing to fan out.
        self.backend.gemm_block(a_rows, b, block_seed)
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64 {
        assert_eq!(
            a.cols(),
            b.rows(),
            "gemm shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        let call_seed = ctx.next_seed();
        let (m, k) = a.shape();
        let n = b.cols();
        let blocks = row_blocks(m, self.backend.preferred_block_rows());
        if self.pool.threads() <= 1 || blocks.len() <= 1 || m * k * n < self.min_parallel_macs {
            // Same partition, same seeds, executed inline: bit-identical.
            return blocked_gemm_with_seed(self.backend.as_ref(), a, b, call_seed);
        }
        // Jobs must be `'static`: share `b` once, copy each strip of `a`.
        let b_shared = Arc::new(b.to_matrix());
        let (tx, rx) = channel();
        for (idx, &(r0, nrows)) in blocks.iter().enumerate() {
            let a_block = a.block(r0, 0, nrows, k).to_matrix();
            let b_shared = Arc::clone(&b_shared);
            let backend = Arc::clone(&self.backend);
            let tx = tx.clone();
            let seed = split_seed(call_seed, idx as u64);
            self.pool.execute(move || {
                let strip = backend.gemm_block(a_block.view(), b_shared.view(), seed);
                // The receiver disappears only if the caller panicked.
                let _ = tx.send((idx, strip));
            });
        }
        drop(tx);
        let mut out = Matrix64::zeros(m, n);
        for _ in 0..blocks.len() {
            let (idx, strip) = rx
                .recv()
                .expect("a row-block job panicked in the worker pool");
            let (r0, nrows) = blocks[idx];
            assert_eq!(strip.shape(), (nrows, n), "gemm_block shape mismatch");
            for i in 0..nrows {
                out.row_mut(r0 + i).copy_from_slice(strip.row(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::GaussianSampler;

    fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix64, Matrix64) {
        let mut rng = GaussianSampler::new(seed);
        (
            Matrix64::randn(m, k, 1.0, &mut rng),
            Matrix64::randn(k, n, 1.0, &mut rng),
        )
    }

    #[test]
    fn parallel_native_is_bit_identical_across_thread_counts() {
        let (a, b) = rand_pair(70, 40, 33, 1);
        let seq = lt_core::NativeBackend.gemm(a.view(), b.view(), &mut RunCtx::new(9));
        for threads in [1, 2, 4, 8] {
            let par = ParallelBackend::new(lt_core::NativeBackend, threads).gemm(
                a.view(),
                b.view(),
                &mut RunCtx::new(9),
            );
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn small_products_bypass_the_pool_with_identical_results() {
        let (a, b) = rand_pair(4, 4, 4, 2);
        let par = ParallelBackend::new(lt_core::NativeBackend, 4);
        let got = par.gemm(a.view(), b.view(), &mut RunCtx::new(3));
        let want = lt_core::blocked_gemm(
            &lt_core::NativeBackend,
            a.view(),
            b.view(),
            &mut RunCtx::new(3),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn lowering_the_parallel_gate_does_not_change_results() {
        // Forcing even a tiny product through the pool (gate 0) must be
        // bit-identical to the inline bypass — only scheduling differs.
        let (a, b) = rand_pair(24, 8, 8, 7);
        let inline = ParallelBackend::new(lt_core::NativeBackend, 4);
        let pooled = inline.clone().with_min_parallel_macs(0);
        let want = inline.gemm(a.view(), b.view(), &mut RunCtx::new(9));
        let got = pooled.gemm(a.view(), b.view(), &mut RunCtx::new(9));
        assert_eq!(got, want);
    }

    #[test]
    fn batch_matches_the_sequential_default() {
        let (a, b) = rand_pair(40, 24, 40, 3);
        let (c, d) = rand_pair(48, 24, 16, 4);
        let pairs = [(a.view(), b.view()), (c.view(), d.view())];
        let par = ParallelBackend::new(lt_core::NativeBackend, 4);
        let got = par.gemm_batch(&pairs, &mut RunCtx::new(5));
        // The trait's default forwards to `gemm` per pair.
        let want_0 = par.gemm(a.view(), b.view(), &mut RunCtx::new(5));
        assert_eq!(got[0], want_0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], c.matmul(&d));
    }

    #[test]
    fn advances_one_call_seed_per_gemm() {
        let (a, b) = rand_pair(64, 32, 32, 6);
        let par = ParallelBackend::new(lt_core::NativeBackend, 2);
        let mut ctx = RunCtx::new(0);
        let _ = par.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(ctx.calls(), 1);
    }

    #[test]
    fn reports_pool_and_backend() {
        let par = ParallelBackend::new(lt_core::NativeBackend, 3);
        assert_eq!(par.name(), "parallel(native)");
        assert_eq!(par.threads(), 3);
        assert_eq!(par.backend(), &lt_core::NativeBackend);
        assert_eq!(par.clone().threads(), 3, "a clone shares the pool");
    }
}
