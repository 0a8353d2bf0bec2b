//! The schedule cache's correctness contract.
//!
//! `Simulator::new` memoizes each GEMM's tile plan (map, staged
//! segments, energy) keyed by op shape x dataflow, invalidated by the
//! `ArchConfig` fingerprint; `Simulator::uncached` is the always-miss
//! reference that rebuilds every op from scratch. These tests prove the
//! two are bit-for-bit identical across every dataflow policy, every
//! paper benchmark, and the autoregressive decode trace — and that the
//! hit/miss counters are deterministic, so `repro check` can gate them.

use lightening_transformer::arch::{ArchConfig, DataflowPolicy, Simulator};
use lightening_transformer::core::Trace;
use lightening_transformer::workloads::{DecodeTrace, TransformerConfig};

/// Every workload the cache must be transparent for: the five paper
/// benchmarks' full-size analytical traces plus the batch-1 decode
/// trace (GPT2-small at context 512) — the same set as the
/// scheduler-vs-closed-form oracle in `trace_crossval.rs`.
fn cache_workloads() -> Vec<(String, Trace)> {
    let mut traces: Vec<(String, Trace)> = TransformerConfig::paper_benchmarks()
        .into_iter()
        .map(|m| (m.name.clone(), m.trace()))
        .collect();
    traces.push((
        "GPT2-small decode ctx=512 b=1".to_string(),
        DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, 1).op_trace(),
    ));
    traces
}

#[test]
fn cached_schedules_equal_uncached_bit_for_bit() {
    // The memoized fast path must never change a number: for every
    // dataflow x workload, the cached simulator's per-op reports, trace
    // total, and HBM traffic equal the always-miss reference exactly.
    for config in [ArchConfig::lt_base(8), ArchConfig::lt_large(4)] {
        let cached = Simulator::new(config.clone());
        let uncached = Simulator::uncached(config);
        for policy in DataflowPolicy::ALL {
            for (name, trace) in cache_workloads() {
                let fast = cached.schedule_trace(&trace, policy);
                let slow = uncached.schedule_trace(&trace, policy);
                assert_eq!(
                    fast.per_op,
                    slow.per_op,
                    "{name} [{}]: cached per-op reports drifted",
                    policy.name()
                );
                assert_eq!(
                    fast.total,
                    slow.total,
                    "{name} [{}]: cached trace total drifted",
                    policy.name()
                );
                assert_eq!(
                    fast.hbm_traffic.to_bits(),
                    slow.hbm_traffic.to_bits(),
                    "{name} [{}]: cached HBM traffic drifted",
                    policy.name()
                );
            }
        }
        // The reference cache never stores or counts anything.
        let stats = uncached.schedule_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        // The real cache did real work, and every miss inserted exactly
        // one entry.
        let before = cached.schedule_cache_stats();
        assert!(before.entries > 0 && before.misses > 0);
        assert_eq!(
            before.misses as usize, before.entries,
            "every miss inserts exactly one entry"
        );
        // A replayed pass is served entirely from the cache.
        let (_, trace) = &cache_workloads()[0];
        cached.schedule_trace(trace, DataflowPolicy::ALL[0]);
        let after = cached.schedule_cache_stats();
        assert_eq!(after.misses, before.misses, "a replay must not miss");
        assert!(after.hits > before.hits, "a replay must hit");
    }
}

#[test]
fn run_trace_is_identical_with_and_without_the_cache() {
    // The public entry point (config's own dataflow): replaying through
    // `run_trace` on a warm cache equals the cold uncached run, and a
    // second replay on the same simulator — now served entirely from
    // the cache — is bit-identical to the first.
    for bits in [4, 8] {
        let config = ArchConfig::lt_base(bits);
        let cached = Simulator::new(config.clone());
        let uncached = Simulator::uncached(config);
        for (name, trace) in cache_workloads() {
            let first = cached.run_trace(&trace);
            assert_eq!(
                first,
                uncached.run_trace(&trace),
                "{name} [{bits}-bit]: cache changed a run_trace report"
            );
            let misses_before = cached.schedule_cache_stats().misses;
            let replay = cached.run_trace(&trace);
            assert_eq!(first, replay, "{name} [{bits}-bit]: warm replay drifted");
            assert_eq!(
                cached.schedule_cache_stats().misses,
                misses_before,
                "{name} [{bits}-bit]: a warm replay must not miss"
            );
        }
    }
}

#[test]
fn hit_and_miss_counts_are_deterministic_across_identical_runs() {
    // Two fresh simulators fed the identical op sequence must land on
    // identical counters — the property that lets BENCH_repro.json gate
    // the counts as deterministic fields.
    let run = || {
        let sim = Simulator::new(ArchConfig::lt_base(8));
        for (_, trace) in cache_workloads() {
            sim.run_trace(&trace);
            for policy in DataflowPolicy::ALL {
                sim.schedule_trace(&trace, policy);
            }
        }
        let stats = sim.schedule_cache_stats();
        (stats.hits, stats.misses, stats.entries)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "replaying the same workload must replay the counters");
    // `run_trace` walks the config's own dataflow, and the explicit
    // sweep revisits it — so the second pass over each trace hits.
    assert!(a.0 > 0, "the repeated dataflow pass must produce hits");
}

#[test]
fn clones_share_one_cache_and_its_counters() {
    // `Simulator` is cloned into worker threads by the serving stack;
    // the clone family shares a single cache, so warm workers never
    // rebuild schedules the first worker already planned.
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let (_, trace) = &cache_workloads()[0];
    let warm = sim.run_trace(trace);
    let misses = sim.schedule_cache_stats().misses;
    let clone = sim.clone();
    assert_eq!(warm, clone.run_trace(trace), "clone must reuse, not drift");
    assert_eq!(
        clone.schedule_cache_stats().misses,
        misses,
        "a clone replaying the same trace must be all hits"
    );
}
