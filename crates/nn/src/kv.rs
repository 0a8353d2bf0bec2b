//! Paged KV cache: a block-pool allocator, per-session block tables,
//! copy-on-write prefix sharing, and swap-out/recompute preemption —
//! the memory manager that turns decode's growing context into a
//! capacity question the hardware model can answer (how many sessions
//! fit a fixed pool before decode falls off the bandwidth cliff).
//!
//! The contiguous [`AttnKvCache`] grows
//! one flat buffer per layer per session: simple, but it can neither
//! share memory between sessions nor be preempted, and its reads were
//! invisible to the scheduler. This module replaces that path behind
//! two object-safe traits:
//!
//! * [`KvLayer`] — one layer's cache as attention sees it: append K/V
//!   rows (returning [`KvWrite`] stats so the caller can record the
//!   *actual* traffic, including copy-on-write and skipped shared
//!   rows), and gather the cached context back.
//! * [`ModelKv`] — the whole model's cache as the decoder sees it: one
//!   [`KvLayer`] per block of the stack.
//!
//! [`PagedKvCache`] implements both over a shared [`BlockPool`] of
//! fixed-size blocks. One block holds `block_tokens` tokens of K and V
//! for *every* layer (vLLM-style paging, one indirection per token
//! position), so allocation, sharing, copy-on-write, and swap all move
//! whole blocks — the block-granular traffic the op-trace records as
//! [`NonGemmKind::KvRead`]/`KvAppend` and `lt_arch::schedule` turns
//! into HBM bandwidth stalls.
//!
//! Prefix sharing is weak and self-correcting: a [`PrefixIndex`] entry
//! remembers `(block id, generation)` pairs; the pool bumps a block's
//! generation when it returns to the free list, so a stale entry can
//! never resurrect recycled memory. Borrowing retains the blocks
//! (refcount), and any write into a block with refcount > 1 copies it
//! first — copy-on-write never mutates memory another session can see.

use crate::attention::AttnKvCache;
use crate::tensor::Tensor;
use lt_core::trace::NonGemmKind;
use std::sync::{Arc, Mutex};

/// What one [`KvLayer::append`] actually did, in traffic terms: the
/// caller records `2 * rows_written * dim` elements of
/// [`NonGemmKind::KvAppend`] (skipped shared-prefix rows save their
/// write), plus `cow_elems` of both `KvRead` and `KvAppend` for every
/// block duplicated by copy-on-write (a copy reads and rewrites the
/// whole block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvWrite {
    /// Token rows whose K and V were actually written.
    pub rows_written: usize,
    /// Elements (K and V) duplicated by copy-on-write, block-granular.
    pub cow_elems: u64,
}

/// One layer's KV cache as the attention module drives it.
pub trait KvLayer {
    /// Tokens cached in this layer.
    fn context_len(&self) -> usize;
    /// Appends the K/V rows of newly seen tokens and reports the
    /// resulting memory traffic (see [`KvWrite`]).
    fn append(&mut self, k: &Tensor, v: &Tensor) -> KvWrite;
    /// The cached K and V rows, each materialized `[context, dim]`.
    fn context(&self) -> (Tensor, Tensor);
}

impl KvLayer for AttnKvCache {
    fn context_len(&self) -> usize {
        self.len()
    }

    fn append(&mut self, k: &Tensor, v: &Tensor) -> KvWrite {
        let rows = k.rows();
        AttnKvCache::append(self, k, v);
        KvWrite {
            rows_written: rows,
            cow_elems: 0,
        }
    }

    fn context(&self) -> (Tensor, Tensor) {
        (self.keys().clone(), self.values().clone())
    }
}

/// The whole model's KV cache as the decoder drives it: one layer view
/// per decoder block, a common context length, and the token-granular
/// byte accounting replies report (identical for the contiguous and
/// paged implementations, so replies stay comparable across paths).
pub trait ModelKv {
    /// Context length in tokens (identical across layers between passes).
    fn len(&self) -> usize;
    /// Whether no tokens are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Number of layers.
    fn num_layers(&self) -> usize;
    /// One layer's cache.
    fn layer_mut(&mut self, layer: usize) -> &mut dyn KvLayer;
    /// Token-granular footprint at `bits` operand precision: keys and
    /// values, every layer, the whole context.
    fn bytes(&self, bits: u32) -> u64;
}

/// What to do with a preempted session's KV blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptPolicy {
    /// Copy block contents to session-private swap storage and free the
    /// blocks; resume copies them back. Bit-exact for any backend (no
    /// recomputation), at the price of swap traffic.
    SwapOut,
    /// Drop the blocks; resume re-runs the prefill over everything fed
    /// so far. No swap traffic, but exact only for deterministic
    /// backends (a noisy engine re-rolls the cached values).
    Recompute,
}

/// Cumulative [`BlockPool`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks handed out.
    pub allocs: u64,
    /// Blocks returned to the free list.
    pub frees: u64,
    /// Copy-on-write block duplications.
    pub cow_copies: u64,
    /// High-water mark of simultaneously used blocks.
    pub peak_used_blocks: usize,
}

#[derive(Debug)]
struct BlockSlot {
    refcount: u32,
    /// Bumped every time the block returns to the free list, so weak
    /// [`PrefixIndex`] entries can detect recycling.
    generation: u64,
    /// `[layer][slot][dim]` flattened; allocated lazily on first use.
    k: Vec<f32>,
    v: Vec<f32>,
}

#[derive(Debug)]
struct PoolInner {
    slots: Vec<BlockSlot>,
    free: Vec<usize>,
    stats: PoolStats,
}

/// A shared, refcounted pool of fixed-size KV blocks. Cloning the
/// handle shares the pool; block data is allocated lazily, so a large
/// pool costs memory proportional to its high-water mark, not its
/// capacity.
#[derive(Debug, Clone)]
pub struct BlockPool {
    inner: Arc<Mutex<PoolInner>>,
    layers: usize,
    dim: usize,
    block_tokens: usize,
}

impl BlockPool {
    /// A pool of `blocks` blocks, each holding `block_tokens` tokens of
    /// K and V across `layers` layers of width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(blocks: usize, layers: usize, dim: usize, block_tokens: usize) -> Self {
        assert!(
            blocks > 0 && layers > 0 && dim > 0 && block_tokens > 0,
            "BlockPool dimensions must be positive"
        );
        BlockPool {
            inner: Arc::new(Mutex::new(PoolInner {
                slots: (0..blocks)
                    .map(|_| BlockSlot {
                        refcount: 0,
                        generation: 0,
                        k: Vec::new(),
                        v: Vec::new(),
                    })
                    .collect(),
                // LIFO reuse keeps the touched working set small.
                free: (0..blocks).rev().collect(),
                stats: PoolStats::default(),
            })),
            layers,
            dim,
            block_tokens,
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Layers per block.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Elements per block for K (and again for V): every layer's
    /// `block_tokens x dim` region.
    pub fn block_elems(&self) -> u64 {
        (self.layers * self.block_tokens * self.dim) as u64
    }

    /// One block's K+V footprint at `bits` operand precision.
    pub fn block_bytes(&self, bits: u32) -> u64 {
        2 * self.block_elems() * bits as u64 / 8
    }

    /// Total blocks in the pool.
    pub fn total_blocks(&self) -> usize {
        self.inner.lock().expect("pool poisoned").slots.len()
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> usize {
        self.inner.lock().expect("pool poisoned").free.len()
    }

    /// Blocks currently held by at least one table.
    pub fn used_blocks(&self) -> usize {
        let inner = self.inner.lock().expect("pool poisoned");
        inner.slots.len() - inner.free.len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("pool poisoned").stats
    }

    /// A block's current refcount (0 = free).
    pub fn refcount(&self, block: usize) -> u32 {
        self.inner.lock().expect("pool poisoned").slots[block].refcount
    }

    /// A block's current generation stamp.
    pub fn generation(&self, block: usize) -> u64 {
        self.inner.lock().expect("pool poisoned").slots[block].generation
    }

    /// Allocates one block (refcount 1), or `None` if the pool is
    /// exhausted — the signal the decode scheduler turns into
    /// admission back-pressure or preemption.
    pub fn alloc(&self) -> Option<usize> {
        let mut inner = self.inner.lock().expect("pool poisoned");
        self.alloc_locked(&mut inner)
    }

    fn alloc_locked(&self, inner: &mut PoolInner) -> Option<usize> {
        let id = inner.free.pop()?;
        let elems = self.block_elems() as usize;
        let slot = &mut inner.slots[id];
        debug_assert_eq!(slot.refcount, 0, "free block with live references");
        slot.refcount = 1;
        if slot.k.is_empty() {
            slot.k = vec![0.0; elems];
            slot.v = vec![0.0; elems];
        }
        inner.stats.allocs += 1;
        let used = inner.slots.len() - inner.free.len();
        inner.stats.peak_used_blocks = inner.stats.peak_used_blocks.max(used);
        Some(id)
    }

    /// Adds a reference to a live block.
    ///
    /// # Panics
    ///
    /// Panics if the block is free.
    pub fn retain(&self, block: usize) {
        let mut inner = self.inner.lock().expect("pool poisoned");
        assert!(inner.slots[block].refcount > 0, "retain of a free block");
        inner.slots[block].refcount += 1;
    }

    /// Drops a reference; when the last holder releases, the block
    /// returns to the free list and its generation bumps (staling any
    /// weak [`PrefixIndex`] entry that pointed at it). Returns whether
    /// the block was freed.
    ///
    /// # Panics
    ///
    /// Panics if the block is already free (double release).
    pub fn release(&self, block: usize) -> bool {
        let mut inner = self.inner.lock().expect("pool poisoned");
        let slot = &mut inner.slots[block];
        assert!(slot.refcount > 0, "double release of block {block}");
        slot.refcount -= 1;
        if slot.refcount == 0 {
            slot.generation += 1;
            inner.free.push(block);
            inner.stats.frees += 1;
            true
        } else {
            false
        }
    }

    /// Atomically validates that every `(block, generation)` pair is
    /// still live and un-recycled, and retains them all. Returns false
    /// (retaining nothing) if any pair is stale — the weak-borrow
    /// primitive behind prefix sharing.
    pub fn try_retain_all(&self, blocks: &[(usize, u64)]) -> bool {
        let mut inner = self.inner.lock().expect("pool poisoned");
        let valid = blocks.iter().all(|&(id, generation)| {
            inner
                .slots
                .get(id)
                .is_some_and(|s| s.refcount > 0 && s.generation == generation)
        });
        if valid {
            for &(id, _) in blocks {
                inner.slots[id].refcount += 1;
            }
        }
        valid
    }

    /// Duplicates a block into a fresh one (copy-on-write): allocates,
    /// copies the whole K/V payload, and releases the caller's
    /// reference to the original. Returns the new block id and the
    /// elements copied (K + V), or `None` if the pool is exhausted.
    pub fn cow(&self, block: usize) -> Option<(usize, u64)> {
        let mut inner = self.inner.lock().expect("pool poisoned");
        let new = self.alloc_locked(&mut inner)?;
        let (k, v) = {
            let src = &inner.slots[block];
            (src.k.clone(), src.v.clone())
        };
        inner.slots[new].k = k;
        inner.slots[new].v = v;
        let src = &mut inner.slots[block];
        assert!(src.refcount > 0, "copy-on-write of a free block");
        src.refcount -= 1;
        if src.refcount == 0 {
            src.generation += 1;
            inner.free.push(block);
            inner.stats.frees += 1;
        }
        inner.stats.cow_copies += 1;
        Some((new, 2 * self.block_elems()))
    }

    /// Writes one token row (K and V) of `layer` at `slot` within
    /// `block`.
    fn write_row(&self, block: usize, layer: usize, slot: usize, k: &[f32], v: &[f32]) {
        debug_assert_eq!(k.len(), self.dim);
        let mut inner = self.inner.lock().expect("pool poisoned");
        let base = (layer * self.block_tokens + slot) * self.dim;
        let s = &mut inner.slots[block];
        s.k[base..base + self.dim].copy_from_slice(k);
        s.v[base..base + self.dim].copy_from_slice(v);
    }

    /// Gathers `rows` tokens of `layer` from the block sequence into a
    /// contiguous `[rows, dim]` K and V pair — the materialization the
    /// attention step reads. Copies are exact (f32 to f32), so a paged
    /// gather is bit-identical to a contiguous cache read.
    fn gather(&self, blocks: &[usize], layer: usize, rows: usize) -> (Tensor, Tensor) {
        let inner = self.inner.lock().expect("pool poisoned");
        let mut k = vec![0.0f32; rows * self.dim];
        let mut v = vec![0.0f32; rows * self.dim];
        for pos in 0..rows {
            let block = blocks[pos / self.block_tokens];
            let slot = pos % self.block_tokens;
            let base = (layer * self.block_tokens + slot) * self.dim;
            let s = &inner.slots[block];
            k[pos * self.dim..(pos + 1) * self.dim].copy_from_slice(&s.k[base..base + self.dim]);
            v[pos * self.dim..(pos + 1) * self.dim].copy_from_slice(&s.v[base..base + self.dim]);
        }
        (
            Tensor::from_vec(rows, self.dim, k),
            Tensor::from_vec(rows, self.dim, v),
        )
    }

    /// Clones a block's full K/V payload (swap-out).
    fn export(&self, block: usize) -> (Vec<f32>, Vec<f32>) {
        let inner = self.inner.lock().expect("pool poisoned");
        (inner.slots[block].k.clone(), inner.slots[block].v.clone())
    }

    /// Allocates a block and restores a swapped payload into it.
    fn import(&self, k: Vec<f32>, v: Vec<f32>) -> Option<usize> {
        let mut inner = self.inner.lock().expect("pool poisoned");
        let id = self.alloc_locked(&mut inner)?;
        inner.slots[id].k = k;
        inner.slots[id].v = v;
        Some(id)
    }
}

/// Per-session table state shared by the cache and its layer views.
#[derive(Debug)]
struct TableState {
    /// Block ids covering the context, in sequence order.
    blocks: Vec<usize>,
    /// Tokens appended so far, per layer (layers advance one forward
    /// pass at a time, so fills differ at most transiently mid-pass).
    layer_fill: Vec<usize>,
    /// Leading tokens borrowed from a shared prefix: appends below this
    /// position skip their write (the rows are already cached).
    shared_tokens: usize,
    /// Swap-out storage (block payloads, in block order) when preempted.
    swapped: Option<Vec<(Vec<f32>, Vec<f32>)>>,
}

/// One layer's view of a [`PagedKvCache`] (the [`KvLayer`] the decoder
/// blocks drive).
#[derive(Debug)]
pub struct PagedKvLayer {
    pool: BlockPool,
    table: Arc<Mutex<TableState>>,
    layer: usize,
}

impl KvLayer for PagedKvLayer {
    fn context_len(&self) -> usize {
        self.table.lock().expect("table poisoned").layer_fill[self.layer]
    }

    fn append(&mut self, k: &Tensor, v: &Tensor) -> KvWrite {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        assert_eq!(k.cols(), self.pool.dim(), "K/V width mismatch");
        let bt = self.pool.block_tokens();
        let mut t = self.table.lock().expect("table poisoned");
        assert!(t.swapped.is_none(), "append to a swapped-out KV cache");
        let mut write = KvWrite::default();
        for r in 0..k.rows() {
            let pos = t.layer_fill[self.layer];
            let bi = pos / bt;
            if bi == t.blocks.len() {
                // First layer to reach a fresh block allocates it for
                // the whole stack (one indirection per position).
                let id = self.pool.alloc().expect(
                    "KV block pool exhausted mid-pass — the scheduler must reserve \
                     capacity before stepping",
                );
                t.blocks.push(id);
            }
            if pos >= t.shared_tokens {
                // Writing into a block another table can see would leak
                // our rows into their context: copy it first.
                if self.pool.refcount(t.blocks[bi]) > 1 {
                    let (new, copied) = self
                        .pool
                        .cow(t.blocks[bi])
                        .expect("KV block pool exhausted during copy-on-write");
                    t.blocks[bi] = new;
                    write.cow_elems += copied;
                }
                self.pool
                    .write_row(t.blocks[bi], self.layer, pos % bt, k.row(r), v.row(r));
                write.rows_written += 1;
            }
            t.layer_fill[self.layer] += 1;
        }
        write
    }

    fn context(&self) -> (Tensor, Tensor) {
        let t = self.table.lock().expect("table poisoned");
        self.pool
            .gather(&t.blocks, self.layer, t.layer_fill[self.layer])
    }
}

/// A prefix borrowed from the [`PrefixIndex`]: block references already
/// retained on behalf of the borrower.
#[derive(Debug)]
pub struct SharedPrefix {
    blocks: Vec<usize>,
    tokens: usize,
}

impl SharedPrefix {
    /// Tokens covered by the borrowed blocks.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Borrowed blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// The paged whole-model KV cache: a block table over a shared
/// [`BlockPool`], one [`PagedKvLayer`] view per decoder block.
#[derive(Debug)]
pub struct PagedKvCache {
    pool: BlockPool,
    table: Arc<Mutex<TableState>>,
    layers: Vec<PagedKvLayer>,
}

impl PagedKvCache {
    /// An empty paged cache for a model of `layers` blocks of width
    /// `dim`, drawing blocks from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the pool geometry disagrees with the model's.
    pub fn new(pool: &BlockPool, layers: usize, dim: usize) -> Self {
        assert_eq!(pool.layers(), layers, "pool/model layer mismatch");
        assert_eq!(pool.dim(), dim, "pool/model width mismatch");
        let table = Arc::new(Mutex::new(TableState {
            blocks: Vec::new(),
            layer_fill: vec![0; layers],
            shared_tokens: 0,
            swapped: None,
        }));
        let layer_views = (0..layers)
            .map(|layer| PagedKvLayer {
                pool: pool.clone(),
                table: Arc::clone(&table),
                layer,
            })
            .collect();
        PagedKvCache {
            pool: pool.clone(),
            table,
            layers: layer_views,
        }
    }

    /// An empty cache that starts with `prefix.tokens` leading tokens
    /// borrowed from already-cached blocks (see [`PrefixIndex::lookup`],
    /// which retained them). The context length starts at zero — the
    /// prefill still runs over the whole prompt — but appends below the
    /// shared position skip their writes, and any write into a still
    /// shared block copies it first.
    pub fn with_shared_prefix(
        pool: &BlockPool,
        layers: usize,
        dim: usize,
        prefix: SharedPrefix,
    ) -> Self {
        let cache = Self::new(pool, layers, dim);
        {
            let mut t = cache.table.lock().expect("table poisoned");
            t.blocks = prefix.blocks;
            t.shared_tokens = prefix.tokens;
        }
        cache
    }

    /// The pool this cache draws from.
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// Blocks currently resident (0 while swapped out).
    pub fn resident_blocks(&self) -> usize {
        self.table.lock().expect("table poisoned").blocks.len()
    }

    /// Block-granular resident footprint at `bits` precision (what the
    /// pool actually holds for this session, as opposed to the
    /// token-granular [`ModelKv::bytes`]).
    pub fn resident_block_bytes(&self, bits: u32) -> u64 {
        self.resident_blocks() as u64 * self.pool.block_bytes(bits)
    }

    /// Leading tokens borrowed from a shared prefix.
    pub fn shared_tokens(&self) -> usize {
        self.table.lock().expect("table poisoned").shared_tokens
    }

    /// Whether the cache is swapped out (preempted).
    pub fn is_swapped(&self) -> bool {
        self.table.lock().expect("table poisoned").swapped.is_some()
    }

    /// New blocks an append of `extra` tokens may allocate: fresh
    /// blocks past the table's end, plus one for a potential
    /// copy-on-write of the block the next write lands in. This is what
    /// the scheduler reserves before stepping.
    pub fn blocks_needed(&self, extra: usize) -> usize {
        let bt = self.pool.block_tokens();
        let t = self.table.lock().expect("table poisoned");
        if let Some(swapped) = &t.swapped {
            // Resuming restores every swapped block before any append.
            return swapped.len()
                + (t.len_max() + extra)
                    .div_ceil(bt)
                    .saturating_sub(swapped.len());
        }
        let len = t.len_max();
        let mut needed = (len + extra).div_ceil(bt).saturating_sub(t.blocks.len());
        if let Some(&block) = t.blocks.get(len / bt) {
            if self.pool.refcount(block) > 1 {
                needed += 1;
            }
        }
        needed
    }

    /// References to the blocks covering the first `tokens` positions,
    /// stamped with their current generations — what a
    /// [`PrefixIndex::register`] entry stores.
    pub fn block_refs(&self, tokens: usize) -> Vec<(usize, u64)> {
        let bt = self.pool.block_tokens();
        let t = self.table.lock().expect("table poisoned");
        let blocks = tokens.div_ceil(bt).min(t.blocks.len());
        t.blocks[..blocks]
            .iter()
            .map(|&id| (id, self.pool.generation(id)))
            .collect()
    }

    /// Preempts by copy: clones every resident block's payload into
    /// session-private storage and releases the blocks. Returns the
    /// elements moved (K + V) — swap traffic for the scheduler's
    /// bookkeeping. Resuming ([`PagedKvCache::resume`]) is bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if already swapped out.
    pub fn swap_out(&mut self) -> u64 {
        let mut t = self.table.lock().expect("table poisoned");
        assert!(t.swapped.is_none(), "double swap-out");
        let payloads: Vec<_> = t.blocks.iter().map(|&id| self.pool.export(id)).collect();
        let moved = 2 * self.pool.block_elems() * payloads.len() as u64;
        for id in t.blocks.drain(..) {
            self.pool.release(id);
        }
        // The payloads are now private copies: the shared-prefix link is
        // broken, so future appends must not skip writes.
        t.shared_tokens = 0;
        t.swapped = Some(payloads);
        moved
    }

    /// Preempts by discard: releases every resident block and resets
    /// the table to empty (context length returns to zero) so a
    /// recompute-on-resume can re-run the prefill. Returns the blocks
    /// released.
    pub fn drop_resident(&mut self) -> usize {
        let mut t = self.table.lock().expect("table poisoned");
        let dropped = t.blocks.len();
        for id in t.blocks.drain(..) {
            self.pool.release(id);
        }
        t.layer_fill.iter_mut().for_each(|f| *f = 0);
        t.shared_tokens = 0;
        t.swapped = None;
        dropped
    }

    /// Rolls the cache back to its first `len` tokens — the KV rollback
    /// of speculative decoding, discarding the rows of rejected draft
    /// positions. Clamps every layer's fill, releases now-empty tail
    /// blocks back to the pool (a freed block's generation bumps, so
    /// any weak [`PrefixIndex`] entry that pointed at it stales), and
    /// clamps the shared-prefix watermark. A tail block another table
    /// still shares only loses this table's reference — truncation
    /// writes nothing, so it is copy-on-write-safe by construction.
    /// Returns the blocks released. No-op when already at most `len`
    /// tokens long.
    ///
    /// # Panics
    ///
    /// Panics if the cache is swapped out.
    pub fn truncate(&mut self, len: usize) -> usize {
        let bt = self.pool.block_tokens();
        let mut t = self.table.lock().expect("table poisoned");
        assert!(t.swapped.is_none(), "truncate of a swapped-out KV cache");
        if len >= t.len_max() {
            return 0;
        }
        let keep = len.div_ceil(bt).min(t.blocks.len());
        let released = t.blocks.len() - keep;
        for id in t.blocks.drain(keep..) {
            self.pool.release(id);
        }
        for fill in t.layer_fill.iter_mut() {
            *fill = (*fill).min(len);
        }
        t.shared_tokens = t.shared_tokens.min(len);
        released
    }

    /// Restores a swapped-out cache: reallocates blocks and copies the
    /// payloads back. Returns the elements moved. The caller must have
    /// reserved capacity ([`PagedKvCache::blocks_needed`]).
    ///
    /// # Panics
    ///
    /// Panics if not swapped out, or if the pool cannot supply the
    /// blocks (the scheduler failed to reserve).
    pub fn resume(&mut self) -> u64 {
        let mut t = self.table.lock().expect("table poisoned");
        let payloads = t.swapped.take().expect("resume without swap-out");
        let moved = 2 * self.pool.block_elems() * payloads.len() as u64;
        for (k, v) in payloads {
            let id = self
                .pool
                .import(k, v)
                .expect("KV block pool exhausted during resume — reserve before resuming");
            t.blocks.push(id);
        }
        moved
    }
}

impl Drop for PagedKvCache {
    fn drop(&mut self) {
        let mut t = self.table.lock().expect("table poisoned");
        for id in t.blocks.drain(..) {
            self.pool.release(id);
        }
    }
}

impl TableState {
    /// Context length across layers (they agree between passes; mid-pass
    /// the earliest layers lead).
    fn len_max(&self) -> usize {
        self.layer_fill.iter().copied().max().unwrap_or(0)
    }
}

impl ModelKv for PagedKvCache {
    fn len(&self) -> usize {
        self.table.lock().expect("table poisoned").len_max()
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn layer_mut(&mut self, layer: usize) -> &mut dyn KvLayer {
        &mut self.layers[layer]
    }

    fn bytes(&self, bits: u32) -> u64 {
        2 * self.layers.len() as u64 * self.len() as u64 * self.pool.dim() as u64 * bits as u64 / 8
    }
}

/// Traffic a [`KvWrite`] implies at the recording layer, as
/// `(kind, elems)` pairs — shared by the attention module (which
/// records them) and tests (which pin them).
pub fn kv_write_traffic(write: KvWrite, dim: usize) -> Vec<(NonGemmKind, u64)> {
    let mut ops = Vec::new();
    let written = 2 * (write.rows_written * dim) as u64;
    if written > 0 {
        ops.push((NonGemmKind::KvAppend, written));
    }
    if write.cow_elems > 0 {
        // A copy-on-write reads the whole source block and writes the
        // whole destination block.
        ops.push((NonGemmKind::KvRead, write.cow_elems));
        ops.push((NonGemmKind::KvAppend, write.cow_elems));
    }
    ops
}

/// A weak index from prompt prefixes to the blocks that cache them.
/// Entries hold no references: they are validated against the pool's
/// generation stamps at lookup and pruned when stale, so the index can
/// never keep memory alive or resurrect recycled blocks.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    entries: Vec<PrefixEntry>,
}

#[derive(Debug)]
struct PrefixEntry {
    key: Vec<usize>,
    blocks: Vec<(usize, u64)>,
}

impl PrefixIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registered entries (live or stale — staleness is only discovered
    /// at lookup).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remembers that `prompt`'s tokens are cached in `blocks`
    /// (generation-stamped; see [`PagedKvCache::block_refs`]). An
    /// existing entry for the same prompt is replaced.
    pub fn register(&mut self, prompt: &[usize], blocks: Vec<(usize, u64)>) {
        if blocks.is_empty() {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == prompt) {
            e.blocks = blocks;
        } else {
            self.entries.push(PrefixEntry {
                key: prompt.to_vec(),
                blocks,
            });
        }
    }

    /// Finds the longest registered prefix of `prompt` whose blocks are
    /// all still live and un-recycled, retains them on behalf of the
    /// caller, and returns the borrow. Stale entries found on the way
    /// are pruned.
    pub fn lookup(&mut self, pool: &BlockPool, prompt: &[usize]) -> Option<SharedPrefix> {
        loop {
            let best = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.key.len() <= prompt.len() && prompt.starts_with(&e.key))
                .max_by_key(|(_, e)| e.key.len())
                .map(|(i, _)| i)?;
            if pool.try_retain_all(&self.entries[best].blocks) {
                let e = &self.entries[best];
                return Some(SharedPrefix {
                    blocks: e.blocks.iter().map(|&(id, _)| id).collect(),
                    tokens: e.key.len(),
                });
            }
            self.entries.remove(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tokens(cache: &mut PagedKvCache, layer: usize, tokens: usize, seed: f32) -> KvWrite {
        let dim = cache.pool.dim();
        let k = Tensor::from_fn(tokens, dim, |i, j| seed + (i * dim + j) as f32);
        let v = Tensor::from_fn(tokens, dim, |i, j| -seed - (i * dim + j) as f32);
        cache.layer_mut(layer).append(&k, &v)
    }

    #[test]
    fn paged_append_and_gather_round_trip() {
        let pool = BlockPool::new(8, 2, 4, 3);
        let mut cache = PagedKvCache::new(&pool, 2, 4);
        for layer in 0..2 {
            let w = write_tokens(&mut cache, layer, 7, 10.0 * layer as f32);
            assert_eq!(w.rows_written, 7);
            assert_eq!(w.cow_elems, 0);
        }
        assert_eq!(cache.len(), 7);
        assert_eq!(cache.resident_blocks(), 3, "ceil(7/3) blocks");
        for layer in 0..2 {
            let k = cache.layer_mut(layer).context().0;
            assert_eq!(k.shape(), (7, 4));
            assert_eq!(k.get(6, 3), 10.0 * layer as f32 + (6 * 4 + 3) as f32);
        }
        assert_eq!(pool.used_blocks(), 3);
        drop(cache);
        assert_eq!(pool.used_blocks(), 0, "drop releases every block");
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn prefix_sharing_skips_writes_and_cow_protects_the_owner() {
        let pool = BlockPool::new(8, 1, 2, 4);
        let mut index = PrefixIndex::new();
        let prompt = vec![1usize, 2, 3, 4, 5, 6]; // 6 tokens: 1.5 blocks

        let mut a = PagedKvCache::new(&pool, 1, 2);
        let w = write_tokens(&mut a, 0, 6, 0.0);
        assert_eq!(w.rows_written, 6);
        index.register(&prompt, a.block_refs(6));

        let shared = index.lookup(&pool, &prompt).expect("live entry");
        assert_eq!((shared.tokens(), shared.num_blocks()), (6, 2));
        let mut b = PagedKvCache::with_shared_prefix(&pool, 1, 2, shared);
        let w = write_tokens(&mut b, 0, 6, 99.0);
        assert_eq!(w.rows_written, 0, "all six rows already cached");
        assert_eq!(w.cow_elems, 0);
        assert_eq!(b.len(), 6);
        // B reads A's values, bit for bit.
        let (ka, kb) = (a.layer_mut(0).context().0, b.layer_mut(0).context().0);
        assert_eq!(ka, kb);
        assert_eq!(pool.used_blocks(), 2, "no extra blocks for B");

        // B continues past the prefix into the shared partial block:
        // copy-on-write, and A's view must not change.
        let before = a.layer_mut(0).context().0;
        let w = write_tokens(&mut b, 0, 1, 50.0);
        assert_eq!(w.rows_written, 1);
        assert_eq!(w.cow_elems, 2 * pool.block_elems(), "one block copied");
        assert_eq!(a.layer_mut(0).context().0, before, "A unchanged");
        assert_eq!(b.layer_mut(0).context().0.get(6, 0), 50.0);
        assert_eq!(pool.stats().cow_copies, 1);
    }

    #[test]
    fn stale_prefix_entries_are_pruned_not_resurrected() {
        let pool = BlockPool::new(4, 1, 2, 2);
        let mut index = PrefixIndex::new();
        let prompt = vec![7usize, 7, 7, 7];
        {
            let mut a = PagedKvCache::new(&pool, 1, 2);
            write_tokens(&mut a, 0, 4, 0.0);
            index.register(&prompt, a.block_refs(4));
        } // A drops: blocks freed, generations bumped.
        assert_eq!(pool.free_blocks(), 4);
        assert!(index.lookup(&pool, &prompt).is_none(), "stale entry");
        assert!(index.is_empty(), "pruned");
    }

    #[test]
    fn swap_out_and_resume_restore_contents_exactly() {
        let pool = BlockPool::new(6, 2, 4, 2);
        let mut cache = PagedKvCache::new(&pool, 2, 4);
        for layer in 0..2 {
            write_tokens(&mut cache, layer, 5, layer as f32);
        }
        let before: Vec<Tensor> = (0..2).map(|l| cache.layer_mut(l).context().0).collect();
        let moved = cache.swap_out();
        assert_eq!(moved, 2 * pool.block_elems() * 3);
        assert!(cache.is_swapped());
        assert_eq!(pool.used_blocks(), 0, "swap-out frees the blocks");
        assert_eq!(cache.len(), 5, "context length survives swap");
        assert_eq!(cache.blocks_needed(0), 3);
        let restored = cache.resume();
        assert_eq!(restored, moved);
        for (l, want) in before.iter().enumerate() {
            assert_eq!(&cache.layer_mut(l).context().0, want);
        }
    }

    #[test]
    fn blocks_needed_counts_fresh_blocks_and_cow() {
        let pool = BlockPool::new(8, 1, 2, 4);
        let mut cache = PagedKvCache::new(&pool, 1, 2);
        assert_eq!(cache.blocks_needed(1), 1, "first token needs a block");
        write_tokens(&mut cache, 0, 4, 0.0);
        assert_eq!(cache.blocks_needed(1), 1, "block boundary");
        write_tokens(&mut cache, 0, 1, 1.0);
        assert_eq!(cache.blocks_needed(1), 0, "room in the last block");
        // Share the table's blocks: the next write must budget a CoW.
        let mut index = PrefixIndex::new();
        index.register(&[1, 2, 3, 4, 5], cache.block_refs(5));
        let shared = index.lookup(&pool, &[1, 2, 3, 4, 5]).unwrap();
        let other = PagedKvCache::with_shared_prefix(&pool, 1, 2, shared);
        assert_eq!(cache.blocks_needed(1), 1, "CoW needs a spare block");
        drop(other);
    }

    #[test]
    fn truncate_frees_tail_blocks_and_restores_the_pool_exactly() {
        let pool = BlockPool::new(8, 2, 4, 3);
        let mut cache = PagedKvCache::new(&pool, 2, 4);
        for layer in 0..2 {
            write_tokens(&mut cache, layer, 4, layer as f32);
        }
        let free_before = pool.free_blocks();
        let kept: Vec<Tensor> = (0..2)
            .map(|l| {
                let k = cache.layer_mut(l).context().0;
                Tensor::from_fn(4, 4, |i, j| k.get(i, j))
            })
            .collect();
        // Speculate 5 tokens past the 4-token context: 9 tokens = 3 blocks.
        for layer in 0..2 {
            write_tokens(&mut cache, layer, 5, 100.0 + layer as f32);
        }
        assert_eq!(cache.resident_blocks(), 3);
        let released = cache.truncate(4);
        assert_eq!(released, 1, "ceil(4/3) = 2 blocks survive the rollback");
        assert_eq!(cache.len(), 4);
        assert_eq!(
            pool.free_blocks(),
            free_before,
            "rollback restores the pool free-count exactly"
        );
        for (l, want) in kept.iter().enumerate() {
            assert_eq!(&cache.layer_mut(l).context().0, want);
        }
        // And the cache keeps working: re-append after rollback.
        write_tokens(&mut cache, 0, 2, 7.0);
        assert_eq!(cache.layer_mut(0).context_len(), 6);
        assert_eq!(cache.truncate(6), 0, "no-op at or past the current length");
    }

    #[test]
    fn truncate_stales_prefix_entries_and_respects_sharing() {
        let pool = BlockPool::new(8, 1, 2, 2);
        let mut index = PrefixIndex::new();
        let prompt = vec![1usize, 2, 3, 4, 5, 6];
        let mut a = PagedKvCache::new(&pool, 1, 2);
        write_tokens(&mut a, 0, 6, 0.0);
        index.register(&prompt, a.block_refs(6));
        let shared = index.lookup(&pool, &prompt).expect("live entry");
        let mut b = PagedKvCache::with_shared_prefix(&pool, 1, 2, shared);
        write_tokens(&mut b, 0, 6, 9.0);

        // B rolls back into the shared region: its references go, A's
        // blocks stay live and untouched.
        let a_view = a.layer_mut(0).context().0;
        b.truncate(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.shared_tokens(), 2, "shared watermark clamps");
        assert_eq!(a.layer_mut(0).context().0, a_view, "A unchanged");
        {
            let still = index.lookup(&pool, &prompt);
            assert!(still.is_some(), "A's registration is still valid");
            // Route the borrow through a cache so its refs release again.
            drop(PagedKvCache::with_shared_prefix(
                &pool,
                1,
                2,
                still.unwrap(),
            ));
        }

        // A truncates to nothing: its blocks free, generations bump, and
        // the index entry built on them stales away.
        a.truncate(0);
        assert_eq!(a.len(), 0);
        assert!(index.lookup(&pool, &prompt).is_none(), "entry staled");
        assert!(index.is_empty(), "stale entry pruned");
    }

    #[test]
    fn kv_write_traffic_names_the_recorded_ops() {
        assert_eq!(
            kv_write_traffic(
                KvWrite {
                    rows_written: 3,
                    cow_elems: 0
                },
                8
            ),
            vec![(NonGemmKind::KvAppend, 48)]
        );
        assert_eq!(
            kv_write_traffic(
                KvWrite {
                    rows_written: 0,
                    cow_elems: 64
                },
                8
            ),
            vec![(NonGemmKind::KvRead, 64), (NonGemmKind::KvAppend, 64)]
        );
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_rejected() {
        let pool = BlockPool::new(2, 1, 1, 1);
        let id = pool.alloc().unwrap();
        pool.release(id);
        pool.release(id);
    }
}
