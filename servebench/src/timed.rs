//! A [`ComputeBackend`] wrapper around the `lt_core` backend layer. On a
//! traced pass it counts and times every call into the wrapped backend;
//! on an untraced pass it lets the pass's reference-clock timeline take
//! a kernel sample between two calls once a segment is due (see
//! `refclock`), so a long pass is normalized by the machine speed it
//! actually ran at.
//!
//! Every trait method is forwarded to the inner backend's own
//! implementation, so the wrapped backend computes exactly what the bare
//! one does (same values, same noise-stream advancement); the benchmark
//! checks that every pass reproduces the first one's tokens and
//! simulated metrics. Clones share one set of counters and one timeline,
//! because the scheduler clones the backend into every session.

use crate::refclock::SharedTimeline;
use lt_core::{ComputeBackend, Matrix64, MatrixView, OpKind, RunCtx};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Accumulated backend activity (shared by all clones of one wrapper).
#[derive(Debug, Default)]
pub struct BackendCounters {
    calls: Cell<u64>,
    macs: Cell<u64>,
    nanos: Cell<u64>,
}

impl BackendCounters {
    /// Top-level calls into the backend.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Multiply-accumulates requested by those calls.
    pub fn macs(&self) -> u64 {
        self.macs.get()
    }

    /// Host seconds spent inside the backend.
    pub fn host_s(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    fn add(&self, macs: u64, start: Instant) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.macs.set(self.macs.get() + macs);
        self.nanos.set(self.nanos.get() + nanos);
    }
}

/// The wrapper; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    counters: Option<Rc<BackendCounters>>,
    pacer: Option<SharedTimeline>,
}

impl<B> Timed<B> {
    /// Counts and times every call, with fresh counters (traced passes).
    pub fn counting(inner: B) -> Self {
        Timed {
            inner,
            counters: Some(Rc::default()),
            pacer: None,
        }
    }

    /// Gives `timeline` a chance to sample the reference kernel after
    /// every call (untraced passes).
    pub fn paced(inner: B, timeline: SharedTimeline) -> Self {
        Timed {
            inner,
            counters: None,
            pacer: Some(timeline),
        }
    }

    /// The shared counters of a counting wrapper.
    pub fn counters(&self) -> Option<Rc<BackendCounters>> {
        self.counters.clone()
    }

    fn call<T>(&self, macs: impl FnOnce() -> u64, f: impl FnOnce() -> T) -> T {
        let start = self.counters.as_ref().map(|_| Instant::now());
        let out = f();
        if let (Some(counters), Some(start)) = (&self.counters, start) {
            counters.add(macs(), start);
        }
        if let Some(timeline) = &self.pacer {
            timeline.borrow_mut().checkpoint_if_due();
        }
        out
    }
}

fn macs(a: &MatrixView<'_, f64>, b: &MatrixView<'_, f64>) -> u64 {
    (a.rows() * a.cols() * b.cols()) as u64
}

impl<B: ComputeBackend> ComputeBackend for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64 {
        self.call(|| macs(&a, &b), || self.inner.gemm(a, b, ctx))
    }

    fn gemm_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
        out: &mut Matrix64,
    ) {
        self.call(|| macs(&a, &b), || self.inner.gemm_into(a, b, ctx, out))
    }

    fn gemm_traced(
        &self,
        kind: OpKind,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
    ) -> Matrix64 {
        self.call(|| macs(&a, &b), || self.inner.gemm_traced(kind, a, b, ctx))
    }

    fn gemm_batch(
        &self,
        pairs: &[(MatrixView<'_, f64>, MatrixView<'_, f64>)],
        ctx: &mut RunCtx,
    ) -> Vec<Matrix64> {
        self.call(
            || pairs.iter().map(|(a, b)| macs(a, b)).sum(),
            || self.inner.gemm_batch(pairs, ctx),
        )
    }

    fn preferred_block_rows(&self) -> usize {
        self.inner.preferred_block_rows()
    }

    fn gemm_block(
        &self,
        a_rows: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        block_seed: u64,
    ) -> Matrix64 {
        self.call(
            || macs(&a_rows, &b),
            || self.inner.gemm_block(a_rows, b, block_seed),
        )
    }

    fn gemm_accumulate(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        out: &mut Matrix64,
        ctx: &mut RunCtx,
    ) {
        self.call(
            || macs(&a, &b),
            || self.inner.gemm_accumulate(a, b, out, ctx),
        )
    }
}
