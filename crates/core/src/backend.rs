//! The pluggable compute-backend abstraction.
//!
//! Every matrix-multiplication provider in the workspace — the exact CPU
//! kernel, the DPTC photonic tensor core at its three fidelities, and the
//! MZI/MRR/PCM/SVD baseline accelerators — implements [`ComputeBackend`].
//! Swapping the physics under a workload is a backend swap, not a code
//! path: the algorithmic layers (`lt-nn`, experiments, examples) only see
//! `gemm(a, b, ctx)`.
//!
//! [`RunCtx`] carries the reproducibility state: a run seed and a call
//! counter from which stochastic backends derive fresh, deterministic
//! per-call noise streams.

use crate::matrix::{Matrix64, MatrixView};
use crate::trace::{Op, OpKind, Trace};
use std::fmt;

/// Derives the noise-stream seed of row block `index` of a backend call
/// whose call-level seed is `call_seed`.
///
/// This is the seed-partitioning contract that makes blocked (and
/// parallel) execution order-independent: every row block of a GEMM owns
/// a noise stream rooted at `split_seed(call_seed, block_index)`, so the
/// result of a blocked GEMM does not depend on which thread computes
/// which block, or in which order. [`blocked_gemm`] and the `lt-runtime`
/// parallel backend both use this exact derivation — that is what makes
/// them bit-identical.
///
/// ```
/// use lt_core::backend::split_seed;
/// assert_eq!(split_seed(42, 3), split_seed(42, 3), "deterministic");
/// assert_ne!(split_seed(42, 3), split_seed(42, 4), "fresh per block");
/// assert_ne!(split_seed(42, 0), split_seed(43, 0), "fresh per call");
/// ```
pub fn split_seed(call_seed: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over an odd-constant index mix. The increment
    // differs from `RunCtx::next_seed` so call-level and block-level
    // streams cannot collide.
    let mut z = call_seed ^ (index.wrapping_add(1)).wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical partition of `m` output rows into blocks of
/// `granularity` rows (the last block may be short). Returns
/// `(row_offset, rows)` pairs in order.
///
/// Blocked sequential execution ([`blocked_gemm`]) and the `lt-runtime`
/// thread pool partition work with this one function, so both walk
/// identical blocks with identical [`split_seed`] indices.
///
/// ```
/// use lt_core::backend::row_blocks;
/// assert_eq!(row_blocks(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
/// assert_eq!(row_blocks(3, 8), vec![(0, 3)]);
/// assert_eq!(row_blocks(0, 8), vec![]);
/// ```
pub fn row_blocks(m: usize, granularity: usize) -> Vec<(usize, usize)> {
    let g = granularity.max(1);
    (0..m.div_ceil(g))
        .map(|k| (k * g, g.min(m - k * g)))
        .collect()
}

/// Per-run execution context shared by every backend call.
///
/// Stochastic backends (analog noise, programming variability) must draw
/// their randomness from seeds produced by [`RunCtx::next_seed`] so that a
/// whole run is reproducible from one root seed while every call still
/// sees a fresh noise realization.
///
/// A context may also record ([`RunCtx::recording`]): it then owns a
/// [`Trace`], and callers that route products through
/// [`ComputeBackend::gemm_traced`] (or call [`RunCtx::record`] directly)
/// leave an op-trace IR of the run in it, drained by
/// [`RunCtx::take_trace`]. Recording is pure observability — it never
/// changes seeds, results, or equality.
///
/// ```
/// use lt_core::RunCtx;
/// let mut a = RunCtx::new(42);
/// let mut b = RunCtx::new(42);
/// assert_eq!(a.next_seed(), b.next_seed(), "same root seed, same stream");
/// assert_ne!(a.next_seed(), b.seed(), "per-call seeds differ from the root");
/// ```
#[derive(Debug, Clone)]
pub struct RunCtx {
    seed: u64,
    calls: u64,
    trace: Option<Trace>,
}

// Equality is the execution state (seed stream position) only; a
// recorded trace observes a run without being part of it.
impl PartialEq for RunCtx {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.calls == other.calls
    }
}

impl Eq for RunCtx {}

impl RunCtx {
    /// Creates a context from a root seed.
    pub fn new(seed: u64) -> Self {
        RunCtx {
            seed,
            calls: 0,
            trace: None,
        }
    }

    /// Turns recording on: from now on the context owns an op trace.
    pub fn recording(mut self) -> Self {
        self.trace = Some(Trace::new());
        self
    }

    /// Appends one op to the trace when recording; a no-op otherwise.
    pub fn record(&mut self, op: Op) {
        if let Some(trace) = &mut self.trace {
            trace.push(op);
        }
    }

    /// Drains and returns everything recorded so far (empty when not
    /// recording). Recording stays on.
    pub fn take_trace(&mut self) -> Trace {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of per-call seeds handed out so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Derives the next per-call seed (SplitMix64 over root seed and call
    /// index) and advances the call counter.
    pub fn next_seed(&mut self) -> u64 {
        self.calls += 1;
        let mut z = self
            .seed
            .wrapping_add(self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx::new(0)
    }
}

/// A pluggable matrix-multiplication provider.
///
/// The contract is shape-polymorphic: `gemm` accepts arbitrary `m x d`
/// by `d x n` operands; hardware-tiled backends do their own tiling
/// internally. Deterministic backends ignore the context; stochastic ones
/// must derive all randomness from [`RunCtx::next_seed`].
///
/// Swapping the physics under a workload is a value swap, not a code
/// path — and backends compose: `lt-runtime`'s `ParallelBackend`
/// implements this same trait over any inner backend.
///
/// ```
/// use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
///
/// fn run(backend: &dyn ComputeBackend, seed: u64) -> Matrix64 {
///     let a = Matrix64::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
///     let b = Matrix64::from_fn(4, 5, |i, j| (i as f64) - (j as f64));
///     backend.gemm(a.view(), b.view(), &mut RunCtx::new(seed))
/// }
///
/// // The algorithmic layer never names a concrete backend.
/// let out = run(&NativeBackend, 42);
/// assert_eq!(out.shape(), (6, 5));
/// ```
pub trait ComputeBackend: fmt::Debug {
    /// A short human-readable backend name (for reports and logs).
    fn name(&self) -> &str;

    /// Computes `a x b`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the inner dimensions disagree.
    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64;

    /// As [`ComputeBackend::gemm`], but writes the product into a
    /// caller-provided matrix (reshaped in place, allocation reused) —
    /// the steady-state entry point for loops that issue the same
    /// shapes every iteration, e.g. per-token decode. The default
    /// delegates to `gemm` and moves the result, so every backend's
    /// exact semantics (values, seed-stream advancement, panics) carry
    /// over unchanged; allocation-free backends override it
    /// ([`NativeBackend`] writes straight through the kernel's
    /// [`crate::kernel::tiled_gemm_into`]). Overrides must stay
    /// bit-identical to `gemm` — the result may never depend on which
    /// entry point computed it.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree (as `gemm` does).
    fn gemm_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
        out: &mut Matrix64,
    ) {
        *out = self.gemm(a, b, ctx);
    }

    /// As [`ComputeBackend::gemm`], but first records the product (with
    /// its workload role) into the context's trace when it is
    /// recording ([`RunCtx::recording`]). This is the raw-`lt-core` entry point
    /// of the op-trace IR: route products through it and the run leaves
    /// a replayable [`crate::trace::Trace`] behind. Plain `gemm` never
    /// records, so layered callers that do their own (role-aware)
    /// recording — e.g. `lt-nn`'s forward context — cannot double-count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree (as `gemm` does).
    fn gemm_traced(
        &self,
        kind: OpKind,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
    ) -> Matrix64 {
        ctx.record(Op::gemm(kind, a.rows(), a.cols(), b.cols()));
        self.gemm(a, b, ctx)
    }

    /// Computes a batch of independent products. The default forwards to
    /// [`ComputeBackend::gemm`] per pair; hardware backends may override
    /// to amortize setup (e.g. one wavelength-coefficient table per
    /// batch).
    fn gemm_batch(
        &self,
        pairs: &[(MatrixView<'_, f64>, MatrixView<'_, f64>)],
        ctx: &mut RunCtx,
    ) -> Vec<Matrix64> {
        pairs.iter().map(|&(a, b)| self.gemm(a, b, ctx)).collect()
    }

    /// The natural output-row granularity of this backend's kernel — the
    /// row-block size that blocked and parallel execution partition work
    /// at (e.g. the DPTC's `Nh` crossbar height). Must be stable for the
    /// lifetime of the backend value; defaults to one row.
    fn preferred_block_rows(&self) -> usize {
        1
    }

    /// Computes one row block `a_rows x b` with every stochastic draw
    /// rooted at `block_seed` (see [`split_seed`]).
    ///
    /// This is the unit of work the blocked/parallel execution paths
    /// dispatch: `a_rows` is a horizontal strip of the left operand (at
    /// most [`ComputeBackend::preferred_block_rows`] rows) and the result
    /// is the corresponding strip of output rows. The default runs the
    /// backend's plain [`ComputeBackend::gemm`] under a fresh context
    /// seeded with `block_seed`, which is correct for every backend
    /// whose `gemm` is a real implementation.
    ///
    /// **If you route `gemm` through [`blocked_gemm`]** (as the DPTC
    /// does, so its full-GEMM noise stream equals the blocked one) you
    /// **must also override `gemm_block`**: the default forwards to
    /// `gemm`, so leaving it in place would recurse
    /// `gemm -> blocked_gemm -> gemm_block -> gemm -> ...` until the
    /// stack overflows.
    ///
    /// # Panics
    ///
    /// Implementations panic if the inner dimensions disagree.
    fn gemm_block(
        &self,
        a_rows: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        block_seed: u64,
    ) -> Matrix64 {
        self.gemm(a_rows, b, &mut RunCtx::new(block_seed))
    }

    /// Computes `out += a x b` — the tiled/streaming entry point used when
    /// a caller accumulates partial products (e.g. blocked attention).
    /// The default computes the product and accumulates; backends with
    /// analog accumulation may override.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `a.rows() x b.cols()`.
    fn gemm_accumulate(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        out: &mut Matrix64,
        ctx: &mut RunCtx,
    ) {
        let partial = self.gemm(a, b, ctx);
        assert_eq!(
            out.shape(),
            partial.shape(),
            "gemm_accumulate output shape mismatch"
        );
        out.add_assign(&partial);
    }
}

/// The canonical blocked GEMM: one call-level seed from `ctx`, the
/// [`row_blocks`] partition at the backend's preferred granularity, one
/// [`ComputeBackend::gemm_block`] per block with its [`split_seed`]-
/// derived noise stream, results stacked in row order.
///
/// This sequential loop *defines* the reference output of parallel
/// execution: `lt-runtime`'s `ParallelBackend` runs exactly these work
/// items on a thread pool and is therefore bit-identical to this
/// function for every backend and thread count. Backends whose plain
/// `gemm` is itself routed through `blocked_gemm` (the DPTC) are in turn
/// bit-identical to their parallel wrapper.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
///
/// ```
/// use lt_core::{blocked_gemm, ComputeBackend, Matrix64, NativeBackend, RunCtx};
/// let a = Matrix64::from_fn(5, 4, |i, j| (i * 4 + j) as f64);
/// let b = Matrix64::from_fn(4, 3, |i, j| (i as f64) - (j as f64));
/// let blocked = blocked_gemm(&NativeBackend, a.view(), b.view(), &mut RunCtx::new(7));
/// // The exact kernel computes rows independently, so blocked == whole.
/// assert_eq!(blocked, a.matmul(&b));
/// ```
pub fn blocked_gemm<B: ComputeBackend + ?Sized>(
    backend: &B,
    a: MatrixView<'_, f64>,
    b: MatrixView<'_, f64>,
    ctx: &mut RunCtx,
) -> Matrix64 {
    blocked_gemm_with_seed(backend, a, b, ctx.next_seed())
}

/// [`blocked_gemm`] with the call-level seed already drawn — the single
/// canonical loop both the sequential and (for its inline path) the
/// parallel runtime execute, so the partition and seed schedule exist
/// in exactly one place.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn blocked_gemm_with_seed<B: ComputeBackend + ?Sized>(
    backend: &B,
    a: MatrixView<'_, f64>,
    b: MatrixView<'_, f64>,
    call_seed: u64,
) -> Matrix64 {
    assert_eq!(
        a.cols(),
        b.rows(),
        "blocked_gemm shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix64::zeros(m, n);
    for (idx, (r0, nrows)) in row_blocks(m, backend.preferred_block_rows())
        .into_iter()
        .enumerate()
    {
        let strip = backend.gemm_block(
            a.block(r0, 0, nrows, k),
            b,
            split_seed(call_seed, idx as u64),
        );
        assert_eq!(strip.shape(), (nrows, n), "gemm_block shape mismatch");
        for i in 0..nrows {
            out.row_mut(r0 + i).copy_from_slice(strip.row(i));
        }
    }
    out
}

/// The exact in-process backend: the shared tiled CPU kernel, full `f64`
/// precision, no noise. This is both the fastest backend and the
/// reference every physical backend is validated against.
///
/// ```
/// use lt_core::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
/// let a = Matrix64::from_fn(3, 4, |i, j| (i + j) as f64);
/// let b = Matrix64::from_fn(4, 2, |i, j| (i as f64) - (j as f64));
/// let out = NativeBackend.gemm(a.view(), b.view(), &mut RunCtx::new(0));
/// assert_eq!(out, a.matmul(&b));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeBackend;

impl ComputeBackend for NativeBackend {
    fn name(&self) -> &str {
        "native"
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, _ctx: &mut RunCtx) -> Matrix64 {
        a.matmul(&b)
    }

    fn gemm_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        _ctx: &mut RunCtx,
        out: &mut Matrix64,
    ) {
        // Exact kernel, caller's buffer: zero allocations in steady
        // state, bit-identical to `gemm` (one loop nest computes both).
        a.matmul_into(&b, out);
    }

    fn preferred_block_rows(&self) -> usize {
        // The kernel computes output rows independently, so any block
        // size is bit-identical; 16 rows keeps per-block dispatch
        // overhead negligible against the O(k*n) work per row.
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::reference_gemm;
    use crate::noise::GaussianSampler;

    #[test]
    fn native_backend_is_the_shared_kernel() {
        let mut rng = GaussianSampler::new(1);
        let a = Matrix64::randn(7, 5, 1.0, &mut rng);
        let b = Matrix64::randn(5, 9, 1.0, &mut rng);
        let mut ctx = RunCtx::new(0);
        let got = NativeBackend.gemm(a.view(), b.view(), &mut ctx);
        assert_eq!(got, a.matmul(&b), "bit-for-bit the shared kernel");
        let reference = reference_gemm(&a.view(), &b.view());
        assert!(got.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn batch_default_matches_individual_calls() {
        let mut rng = GaussianSampler::new(2);
        let a = Matrix64::randn(4, 3, 1.0, &mut rng);
        let b = Matrix64::randn(3, 4, 1.0, &mut rng);
        let c = Matrix64::randn(4, 2, 1.0, &mut rng);
        let outs = NativeBackend.gemm_batch(
            &[(a.view(), b.view()), (b.view(), c.view())],
            &mut RunCtx::new(0),
        );
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], a.matmul(&b));
        assert_eq!(outs[1], b.matmul(&c));
    }

    #[test]
    fn accumulate_adds_partials() {
        let a = Matrix64::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix64::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let mut out = Matrix64::zeros(2, 2);
        let mut ctx = RunCtx::new(0);
        NativeBackend.gemm_accumulate(a.view(), b.view(), &mut out, &mut ctx);
        NativeBackend.gemm_accumulate(a.view(), b.view(), &mut out, &mut ctx);
        assert_eq!(out, a.matmul(&b).scale(2.0));
    }

    #[test]
    fn blocked_gemm_matches_whole_gemm_on_exact_backends() {
        let mut rng = GaussianSampler::new(3);
        // Deliberately not a multiple of the block granularity.
        let a = Matrix64::randn(37, 19, 1.0, &mut rng);
        let b = Matrix64::randn(19, 11, 1.0, &mut rng);
        let blocked = blocked_gemm(&NativeBackend, a.view(), b.view(), &mut RunCtx::new(5));
        let whole = NativeBackend.gemm(a.view(), b.view(), &mut RunCtx::new(5));
        assert_eq!(blocked, whole, "row-independent kernel: bit-identical");
    }

    #[test]
    fn blocked_gemm_advances_the_call_counter_once() {
        let a = Matrix64::zeros(9, 4);
        let b = Matrix64::zeros(4, 2);
        let mut ctx = RunCtx::new(1);
        let _ = blocked_gemm(&NativeBackend, a.view(), b.view(), &mut ctx);
        assert_eq!(ctx.calls(), 1, "one call-level seed per blocked GEMM");
    }

    #[test]
    fn row_blocks_cover_every_row_exactly_once() {
        for m in [0usize, 1, 5, 12, 13, 100] {
            for g in [1usize, 4, 12, 200] {
                let blocks = row_blocks(m, g);
                let covered: usize = blocks.iter().map(|&(_, n)| n).sum();
                assert_eq!(covered, m, "m={m} g={g}");
                let mut next = 0;
                for &(r0, n) in &blocks {
                    assert_eq!(r0, next, "contiguous in order");
                    assert!(n >= 1 && n <= g);
                    next = r0 + n;
                }
            }
        }
    }

    #[test]
    fn split_seed_partitions_are_disjoint_across_blocks_and_calls() {
        let mut seen = std::collections::HashSet::new();
        for call in 0..16u64 {
            for block in 0..16u64 {
                assert!(seen.insert(split_seed(call, block)), "collision");
            }
        }
    }

    #[test]
    fn gemm_traced_records_without_changing_results_or_seeds() {
        use crate::trace::{Op, OpKind};
        let a = Matrix64::from_fn(3, 4, |i, j| (i + j) as f64);
        let b = Matrix64::from_fn(4, 2, |i, j| (i as f64) - (j as f64));
        let mut traced = RunCtx::new(9).recording();
        let mut plain = RunCtx::new(9);
        let got = NativeBackend.gemm_traced(OpKind::Ffn1, a.view(), b.view(), &mut traced);
        let want = NativeBackend.gemm(a.view(), b.view(), &mut plain);
        assert_eq!(got, want, "recording never perturbs the result");
        assert_eq!(traced, plain, "recording never perturbs the seed stream");
        assert_eq!(
            traced.take_trace().ops(),
            &[Op::gemm(OpKind::Ffn1, 3, 4, 2)]
        );
        // Without recording, gemm_traced degrades to plain gemm.
        let _ = NativeBackend.gemm_traced(OpKind::Ffn1, a.view(), b.view(), &mut plain);
        assert!(plain.take_trace().is_empty());
    }

    #[test]
    fn run_ctx_streams_are_deterministic_and_fresh() {
        let mut a = RunCtx::new(7);
        let mut b = RunCtx::new(7);
        let sa: Vec<u64> = (0..8).map(|_| a.next_seed()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_seed()).collect();
        assert_eq!(sa, sb);
        let unique: std::collections::HashSet<u64> = sa.iter().copied().collect();
        assert_eq!(unique.len(), sa.len(), "every call gets a fresh seed");
        assert_eq!(a.calls(), 8);
    }
}
