//! Paged KV cache: a block-pool allocator, per-session block tables,
//! copy-on-write prefix sharing, and swap-out/recompute preemption —
//! the memory manager that turns decode's growing context into a
//! capacity question the hardware model can answer (how many sessions
//! fit a fixed pool before decode falls off the bandwidth cliff).
//!
//! [`PagedKvCache`] is the one KV cache: every decode session and
//! every speculative draft keeps its K and V in a block table over a
//! [`BlockPool`] of fixed-size blocks. A scheduler's sessions share one
//! pool; [`crate::decode::DecoderLm::empty_cache`] gives a plain session
//! or a draft a private pool of a single `max_seq`-token block. One
//! block holds `block_tokens` tokens of K and V for *every* layer
//! (vLLM-style paging, one indirection per token position), so
//! allocation, sharing, copy-on-write, and swap all move whole blocks —
//! the block-granular traffic the op-trace records as
//! [`NonGemmKind::KvRead`]/`KvAppend` and `lt_arch::schedule` turns
//! into HBM bandwidth stalls.
//!
//! Attention drives one layer at a time through a [`PagedKvLayer`], a
//! view borrowed from the cache: it appends K/V rows (returning
//! [`KvWrite`] stats so the caller can record the *actual* traffic,
//! including copy-on-write and skipped shared rows) and gathers the
//! cached context back. A gather copies f32 to f32, so a session reads
//! the same bits at every block size, private pool or shared.
//!
//! Prefix sharing is weak and self-correcting: a [`PrefixIndex`] entry
//! remembers `(block id, generation)` pairs; the pool bumps a block's
//! generation when it returns to the free list, so a stale entry can
//! never resurrect recycled memory. Borrowing retains the blocks
//! (refcount), and any write into a block with refcount > 1 copies it
//! first — copy-on-write never mutates memory another session can see.

use crate::tensor::Tensor;
use lt_core::trace::NonGemmKind;
use std::sync::{Arc, Mutex};

/// What one [`PagedKvLayer::append`] actually did, in traffic terms: the
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

impl PoolInner {
    /// Whether every `(block, generation)` pair is still live and
    /// un-recycled. A block that returns to the free list bumps its
    /// generation, so once false this stays false.
    fn all_live(&self, blocks: &[(usize, u64)]) -> bool {
        blocks.iter().all(|&(id, generation)| {
            self.slots
                .get(id)
                .is_some_and(|s| s.refcount > 0 && s.generation == generation)
        })
    }
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
        let valid = inner.all_live(blocks);
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

    /// Replaces `*block` with a private copy if another table still
    /// holds it ([`BlockPool::cow`]); returns the elements copied, `0`
    /// when the block was already private.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot supply the copy.
    fn unshare(&self, block: &mut usize) -> u64 {
        if self.refcount(*block) <= 1 {
            return 0;
        }
        let (new, copied) = self
            .cow(*block)
            .expect("KV block pool exhausted during copy-on-write");
        *block = new;
        copied
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
    /// attention step reads. A layer's rows sit contiguously within a
    /// block, so each block contributes one copy per operand; copies are
    /// exact (f32 to f32), so the result is independent of the block
    /// size.
    fn gather(&self, blocks: &[usize], layer: usize, rows: usize) -> (Tensor, Tensor) {
        let (bt, dim) = (self.block_tokens, self.dim);
        let base = layer * bt * dim;
        let inner = self.inner.lock().expect("pool poisoned");
        let mut k = Vec::with_capacity(rows * dim);
        let mut v = Vec::with_capacity(rows * dim);
        for (i, &block) in blocks[..rows.div_ceil(bt)].iter().enumerate() {
            let end = base + (rows - i * bt).min(bt) * dim;
            let s = &inner.slots[block];
            k.extend_from_slice(&s.k[base..end]);
            v.extend_from_slice(&s.v[base..end]);
        }
        (
            Tensor::from_vec(rows, dim, k),
            Tensor::from_vec(rows, dim, v),
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

/// One layer's view of a [`PagedKvCache`], borrowed for a pass through
/// one decoder block ([`PagedKvCache::layer_mut`]).
#[derive(Debug)]
pub struct PagedKvLayer<'a> {
    cache: &'a mut PagedKvCache,
    layer: usize,
}

impl PagedKvLayer<'_> {
    /// Tokens cached in this layer.
    pub fn context_len(&self) -> usize {
        self.cache.layer_fill[self.layer]
    }

    /// Appends the K/V rows of newly seen tokens and reports the
    /// resulting memory traffic (see [`KvWrite`]). The first layer to
    /// reach a fresh block allocates it for the whole stack; rows below
    /// the shared-prefix watermark skip their write; a write into a
    /// block another table still holds copies it first.
    ///
    /// # Panics
    ///
    /// Panics if K and V disagree in shape or with the pool's width, if
    /// the cache is swapped out, or if the pool runs dry (the scheduler
    /// reserves capacity before stepping).
    pub fn append(&mut self, k: &Tensor, v: &Tensor) -> KvWrite {
        let cache = &mut *self.cache;
        let pool = &cache.pool;
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        assert_eq!(k.cols(), pool.dim(), "K/V width mismatch");
        assert!(cache.swapped.is_none(), "append to a swapped-out KV cache");
        let bt = pool.block_tokens();
        let mut write = KvWrite::default();
        for r in 0..k.rows() {
            let pos = cache.layer_fill[self.layer];
            let bi = pos / bt;
            if bi == cache.blocks.len() {
                let id = pool.alloc().expect(
                    "KV block pool exhausted mid-pass — the scheduler must reserve \
                     capacity before stepping",
                );
                cache.blocks.push(id);
            }
            if pos >= cache.shared_tokens {
                // Writing into a block another table can see would leak
                // our rows into their context: copy it first.
                write.cow_elems += pool.unshare(&mut cache.blocks[bi]);
                pool.write_row(cache.blocks[bi], self.layer, pos % bt, k.row(r), v.row(r));
                write.rows_written += 1;
            }
            cache.layer_fill[self.layer] += 1;
        }
        write
    }

    /// The cached K and V rows, each gathered into a `[context, dim]`
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if the cache is swapped out.
    pub fn context(&self) -> (Tensor, Tensor) {
        let cache = &*self.cache;
        assert!(cache.swapped.is_none(), "context of a swapped-out KV cache");
        cache
            .pool
            .gather(&cache.blocks, self.layer, self.context_len())
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

/// A whole model's KV cache: a block table over a [`BlockPool`], whose
/// `layers()` and `dim()` fix the geometry. Attention reaches one
/// layer at a time through [`PagedKvCache::layer_mut`].
#[derive(Debug)]
pub struct PagedKvCache {
    pool: BlockPool,
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

impl PagedKvCache {
    /// An empty cache drawing blocks from `pool`, whose `layers()` and
    /// `dim()` are the model's.
    pub fn new(pool: &BlockPool) -> Self {
        PagedKvCache {
            pool: pool.clone(),
            blocks: Vec::new(),
            layer_fill: vec![0; pool.layers()],
            shared_tokens: 0,
            swapped: None,
        }
    }

    /// An empty cache that starts with `prefix.tokens` leading tokens
    /// borrowed from already-cached blocks (see [`PrefixIndex::lookup`],
    /// which retained them). The context length starts at zero — the
    /// prefill still runs over the whole prompt — but appends below the
    /// shared position skip their writes, and any write into a still
    /// shared block copies it first.
    pub fn with_shared_prefix(pool: &BlockPool, prefix: SharedPrefix) -> Self {
        let mut cache = Self::new(pool);
        cache.blocks = prefix.blocks;
        cache.shared_tokens = prefix.tokens;
        cache
    }

    /// Context length in tokens: identical across layers between
    /// passes; mid-pass the earliest layers lead.
    pub fn len(&self) -> usize {
        self.layer_fill.iter().copied().max().unwrap_or(0)
    }

    /// Whether no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Layer `layer`'s view of the cache.
    pub fn layer_mut(&mut self, layer: usize) -> PagedKvLayer<'_> {
        PagedKvLayer { cache: self, layer }
    }

    /// Token-granular footprint at `bits` operand precision: keys and
    /// values, every layer, the whole context (what a reply reports; the
    /// pool holds whole blocks).
    pub fn bytes(&self, bits: u32) -> u64 {
        2 * self.layer_fill.len() as u64 * self.len() as u64 * self.pool.dim() as u64 * bits as u64
            / 8
    }

    /// Blocks currently resident (0 while swapped out).
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Leading tokens borrowed from a shared prefix.
    pub fn shared_tokens(&self) -> usize {
        self.shared_tokens
    }

    /// Whether the cache is swapped out (preempted).
    pub fn is_swapped(&self) -> bool {
        self.swapped.is_some()
    }

    /// New blocks an append of `extra` tokens may allocate: fresh
    /// blocks past the table's end, plus one for a potential
    /// copy-on-write of the block the next write lands in. This is what
    /// the scheduler reserves before stepping.
    pub fn blocks_needed(&self, extra: usize) -> usize {
        let bt = self.pool.block_tokens();
        let len = self.len();
        if let Some(swapped) = &self.swapped {
            // Resuming restores every swapped block before any append.
            return swapped.len() + (len + extra).div_ceil(bt).saturating_sub(swapped.len());
        }
        let mut needed = (len + extra).div_ceil(bt).saturating_sub(self.blocks.len());
        if let Some(&block) = self.blocks.get(len / bt) {
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
        let blocks = tokens
            .div_ceil(self.pool.block_tokens())
            .min(self.blocks.len());
        self.blocks[..blocks]
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
        assert!(self.swapped.is_none(), "double swap-out");
        let payloads: Vec<_> = self.blocks.iter().map(|&id| self.pool.export(id)).collect();
        let moved = 2 * self.pool.block_elems() * payloads.len() as u64;
        self.release_blocks();
        // The payloads are now private copies: the shared-prefix link is
        // broken, so future appends must not skip writes.
        self.shared_tokens = 0;
        self.swapped = Some(payloads);
        moved
    }

    /// Preempts by discard: releases every resident block and resets
    /// the table to empty (context length returns to zero) so a
    /// recompute-on-resume can re-run the prefill. Returns the blocks
    /// released.
    pub fn drop_resident(&mut self) -> usize {
        let dropped = self.release_blocks();
        self.layer_fill.fill(0);
        self.shared_tokens = 0;
        self.swapped = None;
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
        assert!(self.swapped.is_none(), "truncate of a swapped-out KV cache");
        if len >= self.len() {
            return 0;
        }
        let keep = len
            .div_ceil(self.pool.block_tokens())
            .min(self.blocks.len());
        let released = self.blocks.len() - keep;
        for id in self.blocks.drain(keep..) {
            self.pool.release(id);
        }
        for fill in &mut self.layer_fill {
            *fill = (*fill).min(len);
        }
        self.shared_tokens = self.shared_tokens.min(len);
        released
    }

    /// The elements (K + V) the next append's first row will copy: the
    /// whole block it lands in when that row is past the borrowed prefix
    /// and another table still holds the block, `0` otherwise (the row
    /// skips its write, opens a fresh block, or writes a private one).
    /// Speculative decoding charges it to the verify pass
    /// ([`crate::decode::DecoderConfig::verify_trace`]) whose first
    /// replayed step then makes the copy.
    pub fn tail_cow_elems(&self) -> u64 {
        let len = self.len();
        if len < self.shared_tokens {
            return 0;
        }
        match self.blocks.get(len / self.pool.block_tokens()) {
            Some(&block) if self.pool.refcount(block) > 1 => 2 * self.pool.block_elems(),
            _ => 0,
        }
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
        let payloads = self.swapped.take().expect("resume without swap-out");
        let moved = 2 * self.pool.block_elems() * payloads.len() as u64;
        for (k, v) in payloads {
            let id = self
                .pool
                .import(k, v)
                .expect("KV block pool exhausted during resume — reserve before resuming");
            self.blocks.push(id);
        }
        moved
    }

    /// Returns every resident block to the pool; returns how many.
    fn release_blocks(&mut self) -> usize {
        let released = self.blocks.len();
        for id in self.blocks.drain(..) {
            self.pool.release(id);
        }
        released
    }
}

impl Drop for PagedKvCache {
    fn drop(&mut self) {
        self.release_blocks();
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
/// generation stamps at register and lookup and pruned when stale, so
/// the index can never keep memory alive or resurrect recycled blocks.
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

    /// Registered entries (live or stale — staleness is discovered at
    /// the next register or lookup).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remembers that `prompt`'s tokens are cached in `blocks` of
    /// `pool` (generation-stamped; see [`PagedKvCache::block_refs`]).
    /// An existing entry for the same prompt is replaced. First it
    /// forgets every entry whose blocks are no longer all live at their
    /// stamped generations: such an entry can never be borrowed again,
    /// so lookups are unchanged, and the prompts of finished sessions
    /// do not pile up.
    pub fn register(&mut self, pool: &BlockPool, prompt: &[usize], blocks: Vec<(usize, u64)>) {
        if blocks.is_empty() {
            return;
        }
        {
            let inner = pool.inner.lock().expect("pool poisoned");
            self.entries.retain(|e| inner.all_live(&e.blocks));
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
        let mut cache = PagedKvCache::new(&pool);
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
        // The borrower, then the owner, writes past the shared prefix.
        for owner_writes in [false, true] {
            let pool = BlockPool::new(8, 1, 2, 4);
            let mut index = PrefixIndex::new();
            let prompt = vec![1usize, 2, 3, 4, 5, 6]; // 6 tokens: 1.5 blocks

            let mut a = PagedKvCache::new(&pool);
            let w = write_tokens(&mut a, 0, 6, 0.0);
            assert_eq!(w.rows_written, 6);
            index.register(&pool, &prompt, a.block_refs(6));

            let shared = index.lookup(&pool, &prompt).expect("live entry");
            assert_eq!((shared.tokens(), shared.num_blocks()), (6, 2));
            let mut b = PagedKvCache::with_shared_prefix(&pool, shared);
            assert_eq!(b.tail_cow_elems(), 0, "inside the borrowed prefix");
            let w = write_tokens(&mut b, 0, 6, 99.0);
            assert_eq!(w.rows_written, 0, "all six rows already cached");
            assert_eq!(w.cow_elems, 0);
            assert_eq!(b.len(), 6);
            // B reads A's values, bit for bit.
            let (ka, kb) = (a.layer_mut(0).context().0, b.layer_mut(0).context().0);
            assert_eq!(ka, kb);
            assert_eq!(pool.used_blocks(), 2, "no extra blocks for B");

            // Both tables end in the shared partial block, so either's
            // next append copies it; asking copies nothing.
            let copy = 2 * pool.block_elems();
            assert_eq!((a.tail_cow_elems(), b.tail_cow_elems()), (copy, copy));
            assert_eq!(pool.stats().cow_copies, 0);

            // One table continues past the prefix into the shared
            // partial block: copy-on-write, and the other's view must
            // not change.
            let (writer, other) = if owner_writes {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let before = other.layer_mut(0).context().0;
            let w = write_tokens(writer, 0, 1, 50.0);
            assert_eq!(w.rows_written, 1);
            assert_eq!(w.cow_elems, copy, "one block copied");
            assert_eq!(other.layer_mut(0).context().0, before, "other unchanged");
            assert_eq!(writer.layer_mut(0).context().0.get(6, 0), 50.0);
            assert_eq!(pool.stats().cow_copies, 1);
            assert_eq!((a.tail_cow_elems(), b.tail_cow_elems()), (0, 0));
        }
    }

    #[test]
    fn stale_prefix_entries_are_pruned_not_resurrected() {
        let pool = BlockPool::new(4, 1, 2, 2);
        let mut index = PrefixIndex::new();
        let prompt = vec![7usize, 7, 7, 7];
        {
            let mut a = PagedKvCache::new(&pool);
            write_tokens(&mut a, 0, 4, 0.0);
            index.register(&pool, &prompt, a.block_refs(4));
        } // A drops: blocks freed, generations bumped.
        assert_eq!(pool.free_blocks(), 4);
        assert!(index.lookup(&pool, &prompt).is_none(), "stale entry");
        assert!(index.is_empty(), "pruned");
    }

    #[test]
    fn registering_forgets_the_prompts_of_finished_sessions() {
        // A hundred sessions each register a distinct prompt and finish;
        // lookups of an unrelated prompt in between never meet their
        // entries. Each register drops the entries whose blocks were
        // freed, so the index holds only the newest.
        let pool = BlockPool::new(4, 1, 2, 2);
        let mut index = PrefixIndex::new();
        for i in 0..100 {
            let prompt = [i, i + 1];
            let mut cache = PagedKvCache::new(&pool);
            write_tokens(&mut cache, 0, 2, i as f32);
            index.register(&pool, &prompt, cache.block_refs(2));
            drop(cache);
            assert!(index.lookup(&pool, &[1000, 1001]).is_none());
        }
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(index.len(), 1, "only the last prompt's entry remains");
        assert!(index.lookup(&pool, &[99, 100]).is_none(), "and it is stale");
        assert!(index.is_empty());
    }

    #[test]
    fn swap_out_and_resume_restore_contents_exactly() {
        let pool = BlockPool::new(6, 2, 4, 2);
        let mut cache = PagedKvCache::new(&pool);
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
        let mut cache = PagedKvCache::new(&pool);
        assert_eq!(cache.blocks_needed(1), 1, "first token needs a block");
        write_tokens(&mut cache, 0, 4, 0.0);
        assert_eq!(cache.blocks_needed(1), 1, "block boundary");
        write_tokens(&mut cache, 0, 1, 1.0);
        assert_eq!(cache.blocks_needed(1), 0, "room in the last block");
        // Share the table's blocks: the next write must budget a CoW.
        let mut index = PrefixIndex::new();
        index.register(&pool, &[1, 2, 3, 4, 5], cache.block_refs(5));
        let shared = index.lookup(&pool, &[1, 2, 3, 4, 5]).unwrap();
        let other = PagedKvCache::with_shared_prefix(&pool, shared);
        assert_eq!(cache.blocks_needed(1), 1, "CoW needs a spare block");
        drop(other);
    }

    #[test]
    fn truncate_frees_tail_blocks_and_restores_the_pool_exactly() {
        let pool = BlockPool::new(8, 2, 4, 3);
        let mut cache = PagedKvCache::new(&pool);
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
        let mut a = PagedKvCache::new(&pool);
        write_tokens(&mut a, 0, 6, 0.0);
        index.register(&pool, &prompt, a.block_refs(6));
        let shared = index.lookup(&pool, &prompt).expect("live entry");
        let mut b = PagedKvCache::with_shared_prefix(&pool, shared);
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
            drop(PagedKvCache::with_shared_prefix(&pool, still.unwrap()));
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

    /// A paged cache of two tokens, swapped out.
    fn swapped_out_cache() -> PagedKvCache {
        let pool = BlockPool::new(4, 1, 2, 2);
        let mut cache = PagedKvCache::new(&pool);
        write_tokens(&mut cache, 0, 2, 0.0);
        cache.swap_out();
        cache
    }

    #[test]
    #[should_panic(expected = "context of a swapped-out KV cache")]
    fn context_of_a_swapped_out_cache_is_rejected() {
        let mut cache = swapped_out_cache();
        let _ = cache.layer_mut(0).context();
    }

    #[test]
    #[should_panic(expected = "append to a swapped-out KV cache")]
    fn append_to_a_swapped_out_cache_is_rejected() {
        let mut cache = swapped_out_cache();
        write_tokens(&mut cache, 0, 1, 1.0);
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
