//! Memoized per-op schedules.
//!
//! The tile scheduler's per-op work splits cleanly in two: a *pure*
//! part — tile-grid decomposition (`GemmMap`), the dataflow's segment
//! plan, and the energy model — that depends only on the op's canonical
//! shape, the dataflow policy, and the [`crate::ArchConfig`]; and a
//! cheap *stateful* timeline walk that threads the HBM-link and
//! double-buffer frontiers through the trace. Decode workloads replay
//! the same ctx-independent `[1, d] x [d, d]` shapes every token and
//! the same layer shapes across sessions, so the pure part is
//! recomputed thousands of times for a handful of distinct keys.
//! `ScheduleCache` memoizes it.
//!
//! Correctness contract: a cache hit must reproduce the uncached
//! schedule *bit for bit*. That holds because everything cached is a
//! deterministic pure function of `(op, policy, config)`: the cached
//! segments are walked by the same timeline code a fresh plan would
//! be, and the cached energy/report values are the very `f64`s the
//! fresh computation produced. `tests/schedule_cache.rs` pins this
//! across all three dataflows, the five paper benchmarks, and decode.
//!
//! The cache is keyed by `(Op, DataflowPolicy)`. It needs no config in
//! its key: a [`crate::Simulator`]'s config is fixed at construction,
//! and the cache is shared only by that simulator's clones.

use crate::schedule::{DataflowPolicy, GemmMap, Segment};
use crate::sim::RunReport;
use crate::EnergyBreakdown;
use lt_core::trace::Op;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The memoized pure part of one op's schedule under one dataflow.
#[derive(Debug, Clone)]
pub(crate) enum CachedOpSchedule {
    /// Degenerate op (a zero dimension): default report, no traffic.
    Free,
    /// State-independent schedule (no HBM traffic to stage, or an
    /// unconstrained link): the whole report is a constant; replay just
    /// advances the compute frontier by `active_ps`.
    Pure {
        report: RunReport,
        hbm_traffic: f64,
        active_ps: f64,
    },
    /// Staged schedule: the segment plan and energy are memoized, the
    /// cheap double-buffer timeline walk re-runs against live state.
    Staged {
        map: GemmMap,
        segments: Arc<[Segment]>,
        hbm_traffic: f64,
        energy: EnergyBreakdown,
    },
}

/// A concurrent memo table of per-op schedules, shared by every clone
/// of the owning [`crate::Simulator`].
///
/// Hit/miss counters are totals since construction. On a
/// single-threaded replay they are exactly reproducible (the coalesced
/// trace order is deterministic), which is what lets the benchmark
/// snapshot gate them; concurrent replays may split a first encounter
/// into several misses (each racing thread computes the entry once) —
/// the *results* stay bit-identical, only the hit/miss split moves.
pub(crate) struct ScheduleCache {
    entries: RwLock<HashMap<(Op, DataflowPolicy), CachedOpSchedule>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

impl ScheduleCache {
    /// An empty, enabled cache.
    pub(crate) fn new() -> Self {
        ScheduleCache {
            entries: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: true,
        }
    }

    /// A cache that never stores or returns anything — the always-miss
    /// reference path used to prove hits are bit-identical to fresh
    /// computation.
    pub(crate) fn disabled() -> Self {
        ScheduleCache {
            enabled: false,
            ..ScheduleCache::new()
        }
    }

    /// Looks up the memoized schedule for `key`, counting a hit or a
    /// miss.
    pub(crate) fn lookup(&self, key: (Op, DataflowPolicy)) -> Option<CachedOpSchedule> {
        if !self.enabled {
            return None;
        }
        let entries = self.entries.read().expect("schedule cache poisoned");
        let entry = entries.get(&key).cloned();
        let counter = if entry.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Stores a freshly computed schedule. No-op when disabled.
    pub(crate) fn insert(&self, key: (Op, DataflowPolicy), entry: CachedOpSchedule) {
        if self.enabled {
            let mut entries = self.entries.write().expect("schedule cache poisoned");
            entries.insert(key, entry);
        }
    }

    /// `(hits, misses)` since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct memoized `(op, dataflow)` keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.read().expect("schedule cache poisoned").len()
    }
}

impl fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("ScheduleCache")
            .field("enabled", &self.enabled)
            .field("entries", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// Hit/miss statistics of a [`crate::Simulator`]'s schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleCacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that computed (and stored) a fresh schedule.
    pub misses: u64,
    /// Distinct `(op, dataflow)` keys currently memoized.
    pub entries: usize,
}

impl ScheduleCacheStats {
    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another cache's counts to these (separate caches: their
    /// entries add too).
    pub fn merge(&mut self, other: &ScheduleCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }
}

impl fmt::Display for ScheduleCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} shapes)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::trace::OpKind;

    fn key(m: usize) -> (Op, DataflowPolicy) {
        (
            Op::Gemm {
                kind: OpKind::Ffn1,
                m,
                k: 8,
                n: 8,
                instances: 1,
            },
            DataflowPolicy::WeightStationary,
        )
    }

    #[test]
    fn miss_then_hit_with_counters() {
        let cache = ScheduleCache::new();
        assert!(cache.lookup(key(1)).is_none());
        cache.insert(key(1), CachedOpSchedule::Free);
        assert!(matches!(cache.lookup(key(1)), Some(CachedOpSchedule::Free)));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_never_stores_or_counts() {
        let cache = ScheduleCache::disabled();
        assert!(!cache.enabled);
        cache.insert(key(1), CachedOpSchedule::Free);
        assert!(cache.lookup(key(1)).is_none());
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn stats_hit_rate_and_display() {
        let stats = ScheduleCacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ScheduleCacheStats::default().hit_rate(), 0.0);
        let text = stats.to_string();
        assert!(text.contains("3 hits"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
    }
}
