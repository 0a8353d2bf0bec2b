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
//! The cache is keyed by `(Op, DataflowPolicy)` and guarded by the
//! owning config's [`crate::ArchConfig::fingerprint`]: presenting a different
//! fingerprint (a config change) clears all entries before the lookup
//! proceeds, so stale schedules can never leak across configurations.

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

struct CacheState {
    /// Fingerprint of the [`ArchConfig`] the entries were built under.
    fingerprint: u64,
    entries: HashMap<(Op, DataflowPolicy), CachedOpSchedule>,
}

/// A concurrent memo table of per-op schedules, shared by every clone
/// of the owning [`crate::Simulator`] (worker threads serving the same
/// config pool one cache).
///
/// Hit/miss counters are totals since construction. On a
/// single-threaded replay they are exactly reproducible (the coalesced
/// trace order is deterministic), which is what lets the benchmark
/// snapshot gate them; concurrent replays may split a first encounter
/// into several misses (each racing thread computes the entry once) —
/// the *results* stay bit-identical, only the hit/miss split moves.
pub(crate) struct ScheduleCache {
    state: RwLock<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

impl ScheduleCache {
    /// An empty, enabled cache bound to the given config fingerprint.
    pub(crate) fn new(fingerprint: u64) -> Self {
        ScheduleCache {
            state: RwLock::new(CacheState {
                fingerprint,
                entries: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: true,
        }
    }

    /// A cache that never stores or returns anything — the always-miss
    /// reference path used to prove hits are bit-identical to fresh
    /// computation.
    pub(crate) fn disabled(fingerprint: u64) -> Self {
        ScheduleCache {
            enabled: false,
            ..ScheduleCache::new(fingerprint)
        }
    }

    /// Looks up the memoized schedule for `key` under the config
    /// identified by `fingerprint`, counting a hit or a miss. A
    /// fingerprint mismatch invalidates every entry first.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        key: (Op, DataflowPolicy),
    ) -> Option<CachedOpSchedule> {
        if !self.enabled {
            return None;
        }
        {
            let state = self.state.read().expect("schedule cache poisoned");
            if state.fingerprint == fingerprint {
                if let Some(entry) = state.entries.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(entry.clone());
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        // Config changed under the cache: drop every entry, rebind.
        let mut state = self.state.write().expect("schedule cache poisoned");
        if state.fingerprint != fingerprint {
            state.entries.clear();
            state.fingerprint = fingerprint;
        }
        if let Some(entry) = state.entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly computed schedule. No-op when disabled or when
    /// the fingerprint no longer matches (a racing config rebind).
    pub(crate) fn insert(
        &self,
        fingerprint: u64,
        key: (Op, DataflowPolicy),
        entry: CachedOpSchedule,
    ) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.write().expect("schedule cache poisoned");
        if state.fingerprint == fingerprint {
            state.entries.insert(key, entry);
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
        self.state
            .read()
            .expect("schedule cache poisoned")
            .entries
            .len()
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
        let cache = ScheduleCache::new(7);
        assert!(cache.lookup(7, key(1)).is_none());
        cache.insert(7, key(1), CachedOpSchedule::Free);
        assert!(matches!(
            cache.lookup(7, key(1)),
            Some(CachedOpSchedule::Free)
        ));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprint_change_invalidates_everything() {
        let cache = ScheduleCache::new(7);
        cache.insert(7, key(1), CachedOpSchedule::Free);
        cache.insert(7, key(2), CachedOpSchedule::Free);
        assert_eq!(cache.len(), 2);
        // A different config fingerprint clears the table, then misses.
        assert!(cache.lookup(8, key(1)).is_none());
        assert_eq!(cache.len(), 0);
        // Entries inserted under the stale fingerprint are rejected.
        cache.insert(7, key(1), CachedOpSchedule::Free);
        assert_eq!(cache.len(), 0);
        cache.insert(8, key(1), CachedOpSchedule::Free);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_never_stores_or_counts() {
        let cache = ScheduleCache::disabled(7);
        assert!(!cache.enabled);
        cache.insert(7, key(1), CachedOpSchedule::Free);
        assert!(cache.lookup(7, key(1)).is_none());
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
