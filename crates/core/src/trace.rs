//! The op-trace IR: a hardware-agnostic record of what a workload
//! actually executed.
//!
//! The paper evaluates the accelerator by running transformer GEMM
//! traces through its architectural model (Table V, Figs. 11-13). In
//! this workspace the trace is a first-class value: an [`Op`] is one
//! operation (a GEMM with its dimensions and instance count, or a
//! non-GEMM digital op with its element count), and a [`Trace`] is a
//! sequence of them. A recording execution context owns the trace of
//! its pass and appends to it *while actually computing*.
//!
//! Two producers speak this IR:
//!
//! * **recorded traces** — `lt-nn` forward passes append every routed
//!   matmul (with its [`OpKind`] role) and every softmax / LayerNorm /
//!   GELU / residual to the trace their forward context owns while
//!   recording, so the trace is a faithful side effect of real
//!   execution (raw `lt-core` callers get the same from a recording
//!   [`crate::RunCtx`] and [`crate::ComputeBackend::gemm_traced`]);
//! * **analytical traces** — `lt_workloads::TransformerConfig` derives
//!   the same IR from model hyper-parameters alone.
//!
//! One consumer replays them: `lt_arch::Simulator::run_trace` costs an
//! arbitrary `Trace` in cycles, itemized energy, latency, and EDP. The
//! recorded-vs-analytical agreement is pinned by
//! `tests/trace_crossval.rs`.

/// What role a GEMM plays inside the Transformer.
///
/// The role determines two things the hardware model cares about:
/// whether an operand is a fixed weight ([`OpKind::dynamics`] — the
/// distinction at the heart of the paper, Section II-C) and which
/// module the cost is attributed to ([`OpKind::module`], Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Patch embedding (vision models): flattened patches times projection.
    PatchEmbed,
    /// Q/K/V linear projections.
    QkvProj,
    /// The attention score product `Q K^T` — both operands dynamic.
    AttnQk,
    /// The attention aggregation `A V` — both operands dynamic.
    AttnAv,
    /// The attention output projection.
    OutProj,
    /// First FFN linear (expansion).
    Ffn1,
    /// Second FFN linear (contraction).
    Ffn2,
    /// The classification head.
    Classifier,
    /// The autoregressive language-model head (hidden state times the
    /// vocabulary projection — the per-token matrix-vector product of
    /// decode, paper Section VI-B).
    LmHead,
    /// Any other product (untagged matmuls record as this; treated as
    /// weight-static, attributed to [`Module::Other`]).
    Other,
}

impl OpKind {
    /// Whether both operands are runtime activations (see
    /// [`OperandDynamics`]).
    pub fn dynamics(&self) -> OperandDynamics {
        match self {
            OpKind::AttnQk | OpKind::AttnAv => OperandDynamics::BothDynamic,
            _ => OperandDynamics::WeightStatic,
        }
    }

    /// Module attribution per the paper's Table V.
    pub fn module(&self) -> Module {
        match self {
            OpKind::AttnQk | OpKind::AttnAv => Module::Mha,
            OpKind::Ffn1 | OpKind::Ffn2 => Module::Ffn,
            _ => Module::Other,
        }
    }
}

/// Whether both GEMM operands are runtime activations or one is a fixed
/// weight matrix — the distinction at the heart of the paper (Section II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandDynamics {
    /// One operand is a learned weight: weight-static PTCs can amortize its
    /// mapping cost across inputs.
    WeightStatic,
    /// Both operands are activations generated at runtime: weight-static
    /// PTCs must remap/reprogram per tile, which the paper shows is
    /// unaffordable.
    BothDynamic,
}

/// The module attribution used by the paper's Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    /// Multi-head attention — only the dynamic products `Q K^T` and `A V`.
    Mha,
    /// The feed-forward network linears.
    Ffn,
    /// Everything else (projections, embeddings, classifier, digital ops).
    Other,
}

/// A non-GEMM operation executed on the digital units (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NonGemmKind {
    /// Row-wise softmax over attention scores.
    Softmax,
    /// Layer normalization.
    LayerNorm,
    /// GELU activation.
    Gelu,
    /// Residual (shortcut) addition.
    Residual,
    /// Appending one token's K/V rows to the KV cache (autoregressive
    /// decode, paper Section VI-B) — pure memory traffic on the digital
    /// side, counted in elements written.
    KvAppend,
    /// Reading cached K/V rows back for decode attention (and
    /// block-granular copies of a paged KV cache, e.g. copy-on-write):
    /// pure memory traffic, counted in elements read. Together with
    /// [`NonGemmKind::KvAppend`] this makes the KV cache's growing
    /// context visible to the hardware model as scheduled HBM traffic.
    KvRead,
}

/// One operation of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `instances` independent executions of a `[m, k] x [k, n]` GEMM
    /// (e.g. the per-head attention products, or one linear repeated
    /// across layers). Independent instances matter to the hardware
    /// model: they fill tiles a single small product would leave idle.
    Gemm {
        /// Operation role.
        kind: OpKind,
        /// Rows of the left operand.
        m: usize,
        /// Shared (inner) dimension.
        k: usize,
        /// Columns of the right operand.
        n: usize,
        /// Number of independent executions.
        instances: usize,
    },
    /// A digital op over `elems` elements.
    NonGemm {
        /// Which digital unit runs it.
        kind: NonGemmKind,
        /// Elements processed.
        elems: u64,
    },
}

impl Op {
    /// A single-instance GEMM.
    pub fn gemm(kind: OpKind, m: usize, k: usize, n: usize) -> Self {
        Op::gemm_n(kind, m, k, n, 1)
    }

    /// A GEMM with an explicit instance count.
    pub fn gemm_n(kind: OpKind, m: usize, k: usize, n: usize, instances: usize) -> Self {
        Op::Gemm {
            kind,
            m,
            k,
            n,
            instances,
        }
    }

    /// A non-GEMM digital op.
    pub fn non_gemm(kind: NonGemmKind, elems: u64) -> Self {
        Op::NonGemm { kind, elems }
    }

    /// MACs of a single GEMM instance (0 for non-GEMM ops).
    pub fn macs(&self) -> u64 {
        match *self {
            Op::Gemm { m, k, n, .. } => (m as u64) * (k as u64) * (n as u64),
            Op::NonGemm { .. } => 0,
        }
    }

    /// MACs across all instances (0 for non-GEMM ops).
    pub fn total_macs(&self) -> u64 {
        match *self {
            Op::Gemm { instances, .. } => self.macs() * instances as u64,
            Op::NonGemm { .. } => 0,
        }
    }

    /// Weight-matrix elements this op must stage from off-chip memory,
    /// across all instances: `k * n` per instance for weight-static
    /// GEMMs (each instance is a distinct weight matrix — e.g. one per
    /// layer), zero for dynamic products and non-GEMM work, whose
    /// operands are runtime activations already on chip. This is the
    /// quantity the hardware model turns into HBM traffic; a tile
    /// scheduler further multiplies it by a dataflow-dependent refetch
    /// factor when the reuse window exceeds on-chip SRAM.
    pub fn weight_elems(&self) -> u64 {
        match *self {
            Op::Gemm {
                kind,
                k,
                n,
                instances,
                ..
            } if kind.dynamics() == OperandDynamics::WeightStatic => {
                (k as u64) * (n as u64) * instances as u64
            }
            _ => 0,
        }
    }

    /// Operand dynamics (GEMMs only).
    pub fn dynamics(&self) -> Option<OperandDynamics> {
        match self {
            Op::Gemm { kind, .. } => Some(kind.dynamics()),
            Op::NonGemm { .. } => None,
        }
    }

    /// Module attribution (non-GEMM work is digital, hence
    /// [`Module::Other`], matching the paper's Table V accounting).
    pub fn module(&self) -> Module {
        match self {
            Op::Gemm { kind, .. } => kind.module(),
            Op::NonGemm { .. } => Module::Other,
        }
    }
}

/// An ordered sequence of [`Op`]s — the unit the simulator replays.
///
/// ```
/// use lt_core::trace::{NonGemmKind, Op, OpKind, Trace};
/// let mut t = Trace::new();
/// t.push(Op::gemm(OpKind::AttnQk, 17, 2, 17));
/// t.push(Op::gemm(OpKind::AttnQk, 17, 2, 17));
/// t.push(Op::non_gemm(NonGemmKind::Softmax, 17 * 17));
/// assert_eq!(t.total_macs(), 2 * 17 * 2 * 17);
/// // Coalescing merges identical GEMMs into one multi-instance op.
/// let c = t.coalesce();
/// assert_eq!(c.ops(), &[
///     Op::gemm_n(OpKind::AttnQk, 17, 2, 17, 2),
///     Op::non_gemm(NonGemmKind::Softmax, 17 * 17),
/// ]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<Op>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps an op list.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Trace { ops }
    }

    /// Appends one op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends many ops.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.ops.extend(ops);
    }

    /// The recorded ops, in order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total multiply-accumulate count over all GEMM ops.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(Op::total_macs).sum()
    }

    /// Total weight elements staged from off-chip memory over the whole
    /// trace (see [`Op::weight_elems`]) — the denominator of the
    /// trace's arithmetic intensity (`lt_arch::roofline::analyze_trace`
    /// consumes it).
    pub fn weight_elems(&self) -> u64 {
        self.ops.iter().map(Op::weight_elems).sum()
    }

    /// Only the GEMM ops, preserving order.
    pub fn gemm_only(&self) -> Trace {
        Trace {
            ops: self
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Gemm { .. }))
                .copied()
                .collect(),
        }
    }

    /// The canonical coalesced form: GEMMs with identical
    /// `(kind, m, k, n)` merge into one op with summed `instances`;
    /// non-GEMM ops of the same kind merge with summed `elems`; ops are
    /// sorted by their IR ordering. Two traces describe the same batched
    /// workload iff their coalesced forms are equal — that is the form
    /// the cross-validation tests compare and the serving layer costs
    /// (merged instances fill hardware tiles exactly like the analytical
    /// per-head counts do).
    pub fn coalesce(&self) -> Trace {
        use std::collections::BTreeMap;
        let mut gemms: BTreeMap<(OpKind, usize, usize, usize), usize> = BTreeMap::new();
        let mut digital: BTreeMap<NonGemmKind, u64> = BTreeMap::new();
        for op in &self.ops {
            match *op {
                Op::Gemm {
                    kind,
                    m,
                    k,
                    n,
                    instances,
                } => *gemms.entry((kind, m, k, n)).or_insert(0) += instances,
                Op::NonGemm { kind, elems } => *digital.entry(kind).or_insert(0) += elems,
            }
        }
        let mut ops: Vec<Op> = gemms
            .into_iter()
            .map(|((kind, m, k, n), instances)| Op::gemm_n(kind, m, k, n, instances))
            .collect();
        ops.extend(
            digital
                .into_iter()
                .map(|(kind, elems)| Op::non_gemm(kind, elems)),
        );
        Trace { ops }
    }

    /// Merges per-sequence traces into their *batched* form: GEMMs
    /// identical in `(kind, k, n, instances)` stack their rows (`m`
    /// sums), and non-GEMM ops of one kind merge with summed `elems`.
    ///
    /// This is the decode-batching transform of paper Section VI-B: `b`
    /// concurrent sequences each executing a `[1, k] x [k, n]`
    /// matrix-vector product become one `[b, k] x [k, n]` GEMM — the
    /// weight matrix is loaded once for the whole batch (vs. once per
    /// sequence when the products are costed as independent instances),
    /// and the `b` rows fill hardware tile rows a single token would
    /// leave idle. It is a *cost-model* merge: for dynamic ops (each
    /// sequence attending its own KV cache) the stacked operands differ
    /// per row, but the tile mapping — and therefore the cost — is that
    /// of the analytical `DecodeTrace` batched shapes. Ops that differ
    /// in any of kind, `k`, `n`, or instance count (e.g. attention at
    /// different context lengths) stay separate.
    ///
    /// ```
    /// use lt_core::trace::{Op, OpKind, Trace};
    /// let per_seq = Trace::from_ops(vec![Op::gemm_n(OpKind::QkvProj, 1, 8, 8, 6)]);
    /// let batched = Trace::batch_rows([&per_seq, &per_seq.clone(), &per_seq.clone()]);
    /// assert_eq!(batched.ops(), &[Op::gemm_n(OpKind::QkvProj, 3, 8, 8, 6)]);
    /// ```
    pub fn batch_rows<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Trace {
        use std::collections::BTreeMap;
        let mut gemms: BTreeMap<(OpKind, usize, usize, usize), usize> = BTreeMap::new();
        let mut digital: BTreeMap<NonGemmKind, u64> = BTreeMap::new();
        for trace in traces {
            for op in &trace.ops {
                match *op {
                    Op::Gemm {
                        kind,
                        m,
                        k,
                        n,
                        instances,
                    } => *gemms.entry((kind, k, n, instances)).or_insert(0) += m,
                    Op::NonGemm { kind, elems } => *digital.entry(kind).or_insert(0) += elems,
                }
            }
        }
        let mut ops: Vec<Op> = gemms
            .into_iter()
            .map(|((kind, k, n, instances), m)| Op::gemm_n(kind, m, k, n, instances))
            .collect();
        ops.extend(
            digital
                .into_iter()
                .map(|(kind, elems)| Op::non_gemm(kind, elems)),
        );
        Trace { ops }
    }

    /// [`Trace::batch_rows`] with *ragged* attention support: dynamic
    /// attention products ([`OperandDynamics::BothDynamic`]) at
    /// different context lengths also merge, padding every row group to
    /// the longest context in the batch.
    ///
    /// This is the merge the speculative-verify tick needs: concurrent
    /// sessions verify `k+1`-row blocks against KV caches of different
    /// lengths, so their `Q K^T` ops are `[r, dh] x [dh, ctx_i]` with
    /// mixed `ctx_i` (and `A V` is `[r, ctx_i] x [ctx_i, dh]`). The
    /// physical batched GEMM runs all rows against the longest context
    /// with shorter rows causally masked, so the merged op charges
    /// `ctx_max` for every row — padding MACs are *charged*, not hidden,
    /// which is why this is a separate opt-in and `batch_rows` keeps
    /// mixed-context ops apart. Weight-static ops and non-GEMM work
    /// merge exactly as in `batch_rows`; with uniform context lengths
    /// the two transforms coalesce identically.
    pub fn batch_rows_ragged<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Trace {
        use std::collections::BTreeMap;
        let mut gemms: BTreeMap<(OpKind, usize, usize, usize), usize> = BTreeMap::new();
        // (kind, head dim, instances) -> (summed rows, max context).
        let mut dynamic: BTreeMap<(OpKind, usize, usize), (usize, usize)> = BTreeMap::new();
        let mut digital: BTreeMap<NonGemmKind, u64> = BTreeMap::new();
        for trace in traces {
            for op in &trace.ops {
                match *op {
                    Op::Gemm {
                        kind,
                        m,
                        k,
                        n,
                        instances,
                    } if kind.dynamics() == OperandDynamics::BothDynamic => {
                        // The context-length dimension is `n` for
                        // `Q K^T` (`[m, dh] x [dh, ctx]`) and `k` for
                        // `A V` (`[m, ctx] x [ctx, dh]`).
                        let (head, ctx) = if kind == OpKind::AttnAv {
                            (n, k)
                        } else {
                            (k, n)
                        };
                        let slot = dynamic.entry((kind, head, instances)).or_insert((0, 0));
                        slot.0 += m;
                        slot.1 = slot.1.max(ctx);
                    }
                    Op::Gemm {
                        kind,
                        m,
                        k,
                        n,
                        instances,
                    } => *gemms.entry((kind, k, n, instances)).or_insert(0) += m,
                    Op::NonGemm { kind, elems } => *digital.entry(kind).or_insert(0) += elems,
                }
            }
        }
        let mut ops: Vec<Op> = gemms
            .into_iter()
            .map(|((kind, k, n, instances), m)| Op::gemm_n(kind, m, k, n, instances))
            .collect();
        ops.extend(
            dynamic
                .into_iter()
                .map(|((kind, head, instances), (m, ctx))| match kind {
                    OpKind::AttnAv => Op::gemm_n(kind, m, ctx, head, instances),
                    _ => Op::gemm_n(kind, m, head, ctx, instances),
                }),
        );
        ops.extend(
            digital
                .into_iter()
                .map(|(kind, elems)| Op::non_gemm(kind, elems)),
        );
        Trace { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accounting() {
        let g = Op::gemm_n(OpKind::AttnQk, 197, 64, 197, 36);
        assert_eq!(g.macs(), 197 * 64 * 197);
        assert_eq!(g.total_macs(), 197 * 64 * 197 * 36);
        assert_eq!(g.dynamics(), Some(OperandDynamics::BothDynamic));
        assert_eq!(g.module(), Module::Mha);
        let d = Op::non_gemm(NonGemmKind::Gelu, 1000);
        assert_eq!(d.total_macs(), 0);
        assert_eq!(d.dynamics(), None);
        assert_eq!(d.module(), Module::Other);
    }

    #[test]
    fn kind_classification_matches_the_paper() {
        for kind in [
            OpKind::PatchEmbed,
            OpKind::QkvProj,
            OpKind::OutProj,
            OpKind::Ffn1,
            OpKind::Ffn2,
            OpKind::Classifier,
            OpKind::LmHead,
            OpKind::Other,
        ] {
            assert_eq!(kind.dynamics(), OperandDynamics::WeightStatic);
        }
        assert_eq!(OpKind::AttnQk.dynamics(), OperandDynamics::BothDynamic);
        assert_eq!(OpKind::AttnAv.module(), Module::Mha);
        assert_eq!(OpKind::Ffn1.module(), Module::Ffn);
        assert_eq!(OpKind::QkvProj.module(), Module::Other);
    }

    #[test]
    fn coalesce_merges_and_canonicalizes() {
        let mut a = Trace::new();
        a.push(Op::gemm(OpKind::AttnAv, 5, 5, 2));
        a.push(Op::gemm(OpKind::AttnQk, 5, 2, 5));
        a.push(Op::gemm(OpKind::AttnQk, 5, 2, 5));
        a.push(Op::non_gemm(NonGemmKind::Softmax, 25));
        a.push(Op::non_gemm(NonGemmKind::Softmax, 25));
        let mut b = Trace::new();
        b.push(Op::non_gemm(NonGemmKind::Softmax, 50));
        b.push(Op::gemm_n(OpKind::AttnQk, 5, 2, 5, 2));
        b.push(Op::gemm(OpKind::AttnAv, 5, 5, 2));
        assert_eq!(a.coalesce(), b.coalesce(), "order/merging is canonical");
        assert_eq!(a.coalesce().total_macs(), a.total_macs());
    }

    #[test]
    fn batch_rows_stacks_rows_and_preserves_macs() {
        let step = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, 1, 8, 8, 6),
            Op::gemm_n(OpKind::AttnQk, 1, 2, 5, 8),
            Op::non_gemm(NonGemmKind::KvAppend, 16),
        ]);
        let longer = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, 1, 8, 8, 6),
            Op::gemm_n(OpKind::AttnQk, 1, 2, 9, 8), // different context: stays separate
            Op::non_gemm(NonGemmKind::KvAppend, 16),
        ]);
        let batched = Trace::batch_rows([&step, &step.clone(), &longer]);
        assert!(batched
            .ops()
            .contains(&Op::gemm_n(OpKind::QkvProj, 3, 8, 8, 6)));
        assert!(batched
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnQk, 2, 2, 5, 8)));
        assert!(batched
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnQk, 1, 2, 9, 8)));
        assert!(batched
            .ops()
            .contains(&Op::non_gemm(NonGemmKind::KvAppend, 48)));
        let total: u64 = [&step, &step, &longer].iter().map(|t| t.total_macs()).sum();
        assert_eq!(batched.total_macs(), total, "batching moves no work");
    }

    #[test]
    fn ragged_batching_pads_mixed_contexts_to_the_longest() {
        // Two verify blocks against different KV lengths: Q K^T at
        // contexts 5 and 9, A V with the context on the inner dim.
        let short = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, 3, 8, 8, 6),
            Op::gemm_n(OpKind::AttnQk, 3, 2, 5, 8),
            Op::gemm_n(OpKind::AttnAv, 3, 5, 2, 8),
        ]);
        let long = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, 3, 8, 8, 6),
            Op::gemm_n(OpKind::AttnQk, 3, 2, 9, 8),
            Op::gemm_n(OpKind::AttnAv, 3, 9, 2, 8),
        ]);
        let ragged = Trace::batch_rows_ragged([&short, &long]);
        assert!(ragged
            .ops()
            .contains(&Op::gemm_n(OpKind::QkvProj, 6, 8, 8, 6)));
        assert!(
            ragged
                .ops()
                .contains(&Op::gemm_n(OpKind::AttnQk, 6, 2, 9, 8)),
            "mixed contexts merge to the longest: {:?}",
            ragged.ops()
        );
        assert!(ragged
            .ops()
            .contains(&Op::gemm_n(OpKind::AttnAv, 6, 9, 2, 8)));
        // Padding is charged: the merged MACs exceed the raw sum.
        let raw: u64 = [&short, &long].iter().map(|t| t.total_macs()).sum();
        assert!(ragged.total_macs() > raw, "padding MACs must be visible");
    }

    #[test]
    fn ragged_batching_equals_batch_rows_at_uniform_context() {
        let step = Trace::from_ops(vec![
            Op::gemm_n(OpKind::QkvProj, 1, 8, 8, 6),
            Op::gemm_n(OpKind::AttnQk, 1, 2, 5, 8),
            Op::gemm_n(OpKind::AttnAv, 1, 5, 2, 8),
            Op::non_gemm(NonGemmKind::KvAppend, 16),
        ]);
        let sessions = [&step, &step, &step];
        assert_eq!(
            Trace::batch_rows_ragged(sessions).coalesce(),
            Trace::batch_rows(sessions).coalesce(),
            "uniform contexts: ragged merge is exactly batch_rows"
        );
    }

    #[test]
    fn weight_elems_count_only_static_operands() {
        let qkv = Op::gemm_n(OpKind::QkvProj, 16, 8, 8, 36);
        assert_eq!(qkv.weight_elems(), 8 * 8 * 36);
        let qk = Op::gemm_n(OpKind::AttnQk, 16, 8, 16, 36);
        assert_eq!(qk.weight_elems(), 0, "dynamic operands live on chip");
        let digital = Op::non_gemm(NonGemmKind::Softmax, 99);
        assert_eq!(digital.weight_elems(), 0);
        let t = Trace::from_ops(vec![qkv, qk, digital]);
        assert_eq!(t.weight_elems(), 8 * 8 * 36);
    }

    #[test]
    fn gemm_only_strips_digital_ops() {
        let t = Trace::from_ops(vec![
            Op::gemm(OpKind::Ffn1, 2, 3, 4),
            Op::non_gemm(NonGemmKind::LayerNorm, 9),
        ]);
        assert_eq!(t.gemm_only().len(), 1);
        assert_eq!(t.gemm_only().total_macs(), t.total_macs());
    }

    #[test]
    fn a_recording_context_owns_its_trace_in_program_order() {
        use crate::{ComputeBackend, Matrix64, NativeBackend, RunCtx};
        // `record` and `gemm_traced` interleave into one trace, read
        // back exactly in the order the ops were issued.
        let a = Matrix64::from_fn(1, 8, |_, j| j as f64);
        let w = Matrix64::from_fn(8, 24, |i, j| (i + j) as f64);
        let mut ctx = RunCtx::new(3).recording();
        let ops = [
            Op::gemm(OpKind::QkvProj, 1, 8, 24),
            Op::non_gemm(NonGemmKind::Softmax, 64),
            Op::gemm(OpKind::AttnAv, 1, 9, 8),
        ];
        let _ = NativeBackend.gemm_traced(OpKind::QkvProj, a.view(), w.view(), &mut ctx);
        ctx.record(ops[1]);
        ctx.record(ops[2]);
        assert_eq!(ctx.take_trace().ops(), &ops);
        // Draining empties the trace and leaves the context recording.
        assert!(ctx.take_trace().is_empty());
        // Two recording contexts keep separate traces.
        let mut other = RunCtx::new(3).recording();
        other.record(ops[0]);
        ctx.record(ops[1]);
        assert_eq!(other.take_trace().ops(), &ops[..1]);
        assert_eq!(ctx.take_trace().ops(), &ops[1..2]);
    }
}
