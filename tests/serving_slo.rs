//! The SLO serving frontend's CI contract.
//!
//! `SloFrontend` stamps every request lifecycle in *simulated*
//! picoseconds, which makes its whole serving report a deterministic
//! integer function of (workload seed, model weights, config). These
//! tests pin that contract end to end through the public facade:
//!
//! * the seeded load generator replays the same arrival trace bit for
//!   bit, and the frontend turns it into the same per-request metrics;
//! * thread count is latency-invariant: `ParallelBackend` at 1/2/4/8
//!   threads produces identical lifecycles and reports (only wall
//!   clock changes, and wall clock is not part of the report);
//! * chunked prefill bounds starvation: a burst of 10x-length prompts
//!   admitted mid-stream cannot stretch a running session's worst
//!   inter-token gap much past its typical gap, while the unchunked
//!   path demonstrably blows through that bound — and both paths
//!   generate bit-identical token streams;
//! * admission control is SLO-aware: impossible TTFT deadlines are
//!   rejected at arrival, and interactive arrivals overtake queued
//!   batch work;
//! * open-loop runs (unchunked, chunked and speculative, each on a
//!   roomy and on a preempting pool) and a closed-loop run are pinned
//!   bit for bit by digests of every lifecycle and report.

#[allow(dead_code)] // this suite digests no traces
mod common;

use common::fnv1a;
use lightening_transformer::arch::Simulator;
use lightening_transformer::core::{GaussianSampler, NativeBackend};
use lightening_transformer::nn::decode::{DecoderConfig, DecoderLm};
use lightening_transformer::nn::kv::PreemptPolicy;
use lightening_transformer::nn::serve::decode::DecodeServeConfig;
use lightening_transformer::nn::serve::lifecycle::{
    RequestLifecycle, RequestOutcome, ServingReport, SloFrontend,
};
use lightening_transformer::nn::serve::sched::KvServeConfig;
use lightening_transformer::runtime::loadgen::{GenRequest, LoadgenConfig};
use lightening_transformer::runtime::{ParallelBackend, SloClass};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn model() -> DecoderLm {
    let mut rng = GaussianSampler::new(5);
    DecoderLm::new(DecoderConfig::tiny(), &mut rng)
}

fn config(prefill_chunk_tokens: usize) -> DecodeServeConfig {
    DecodeServeConfig {
        max_active: 4,
        kv: KvServeConfig {
            block_tokens: 4,
            pool_blocks: 64,
            ..KvServeConfig::default()
        },
        prefill_chunk_tokens,
        ..DecodeServeConfig::default()
    }
}

#[test]
fn the_seeded_workload_and_its_metrics_replay_bit_for_bit() {
    // Same seed, same arrival trace — every field of every request.
    let trace = LoadgenConfig::smoke(29, 16).generate();
    assert_eq!(trace, LoadgenConfig::smoke(29, 16).generate());
    assert_ne!(trace, LoadgenConfig::smoke(30, 16).generate());

    // Same trace, same per-request metrics and aggregate report.
    let m = model();
    let cfg = config(0);
    let sim = Simulator::new(cfg.arch.clone());
    let (rec_a, rep_a) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&trace);
    let (rec_b, rep_b) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&trace);
    assert_eq!(rec_a, rec_b, "lifecycles must replay bit for bit");
    assert_eq!(rep_a, rep_b, "the aggregate report must replay bit for bit");
    assert_eq!(rep_a.completed + rep_a.rejected + rep_a.failed, 16);
    assert!(rep_a.completed > 0);
}

#[test]
fn serving_metrics_do_not_depend_on_thread_count() {
    // The frontend is a single event loop; LT_THREADS-style parallelism
    // only changes how each GEMM's row blocks are dispatched, and
    // `ParallelBackend` is bit-identical to its wrapped backend. So the
    // serving report — TTFT, ITL, goodput, everything — must be the
    // same at every thread count, chunked and unchunked alike.
    let trace = LoadgenConfig::smoke(29, 12).generate();
    let m = model();
    for chunk in [0, 4] {
        let cfg = config(chunk);
        let sim = Simulator::new(cfg.arch.clone());
        let (rec_ref, rep_ref) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&trace);
        for threads in THREAD_COUNTS {
            let backend = ParallelBackend::new(NativeBackend, threads).with_min_parallel_macs(0);
            let (rec, rep) = SloFrontend::new(&m, &sim, backend, &cfg).run_open(&trace);
            assert_eq!(
                rec, rec_ref,
                "lifecycles diverged at {threads} threads (chunk {chunk})"
            );
            assert_eq!(
                rep, rep_ref,
                "report diverged at {threads} threads (chunk {chunk})"
            );
        }
    }
}

/// The starvation workload: one short interactive request decoding a
/// long reply, plus a burst of prompts 10x its length arriving behind
/// it. Prompt lengths are sized for [`starvation_model`]'s 256-token
/// context so a whole-prompt prefill genuinely dominates a tick.
fn starvation_burst() -> Vec<GenRequest> {
    let mut requests = vec![GenRequest {
        id: 0,
        arrival_us: 0,
        prompt: (0..12).map(|t| t % 16).collect(),
        max_new_tokens: 24,
        class: SloClass::Interactive,
        ttft_deadline_us: None,
    }];
    for id in 1..4 {
        requests.push(GenRequest {
            id,
            arrival_us: 0,
            prompt: (0..120).map(|t| (t * 7 + id) % 16).collect(),
            max_new_tokens: 2,
            class: SloClass::Batch,
            ttft_deadline_us: None,
        });
    }
    requests
}

/// The tiny decoder stretched to 256 positions, so a 120-token prompt
/// is legal and its prefill dwarfs a decode step.
fn starvation_model() -> DecoderLm {
    let mut rng = GaussianSampler::new(5);
    DecoderLm::new(
        DecoderConfig {
            max_seq: 256,
            ..DecoderConfig::tiny()
        },
        &mut rng,
    )
}

fn run_starvation(chunk: usize) -> Vec<RequestLifecycle> {
    let m = starvation_model();
    let mut cfg = config(chunk);
    // Two in-flight slots: the interactive session plus one long
    // prompt at a time, so every burst admission lands while request 0
    // is mid-decode. The pool comfortably fits both (no preemptions —
    // this test isolates the prefill-induced gaps).
    cfg.max_active = 2;
    cfg.kv.pool_blocks = 128;
    let sim = Simulator::new(cfg.arch.clone());
    let (records, report) =
        SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&starvation_burst());
    assert_eq!(report.completed, 4, "the whole burst must be served");
    records
}

#[test]
fn chunked_prefill_bounds_the_itl_a_long_prompt_burst_can_inflict() {
    const CHUNK: usize = 3;
    let unchunked = run_starvation(0);
    let chunked = run_starvation(CHUNK);

    // Chunking must never change *what* is generated, only *when*:
    // every request's token stream is bit-identical across the two runs.
    for (u, c) in unchunked.iter().zip(&chunked) {
        assert_eq!(u.outcome, RequestOutcome::Completed);
        assert_eq!(u.tokens, c.tokens, "request {} reply changed", u.id);
    }

    // Request 0 streams tokens while the 10x-length prompts prefill.
    // Unchunked, each burst admission runs a whole 30-token prefill
    // inside one tick, and that tick's full latency lands in request
    // 0's inter-token gap. Chunked, a tick carries at most CHUNK
    // prompt tokens, so the worst gap stays within a small factor of
    // the typical gap.
    let gaps = |records: &[RequestLifecycle]| {
        let itl = &records[0].itl_ps;
        assert!(!itl.is_empty());
        let mut sorted = itl.clone();
        sorted.sort_unstable();
        let p50 = sorted[sorted.len() / 2];
        (*itl.iter().max().unwrap(), p50)
    };
    let (max_unchunked, p50_unchunked) = gaps(&unchunked);
    let (max_chunked, p50_chunked) = gaps(&chunked);

    // The configured chunk bound: worst gap within 4x the typical gap.
    assert!(
        max_chunked <= 4 * p50_chunked,
        "chunked worst gap {max_chunked} ps blew past 4x the median {p50_chunked} ps"
    );
    // The bound is not vacuous: the unchunked path blows through it...
    assert!(
        max_unchunked > 4 * p50_unchunked,
        "unchunked worst gap {max_unchunked} ps should exceed 4x the median {p50_unchunked} ps"
    );
    // ...and chunking shrinks the absolute worst-case gap itself.
    assert!(
        2 * max_chunked <= max_unchunked,
        "chunked worst gap {max_chunked} ps should be well under unchunked {max_unchunked} ps"
    );
}

#[test]
fn admission_is_deadline_and_priority_aware() {
    let m = model();
    let mut cfg = config(0);
    cfg.max_active = 1; // serialize admissions so queue order is visible
    let sim = Simulator::new(cfg.arch.clone());
    let request = |id, class, deadline| GenRequest {
        id,
        arrival_us: 0,
        prompt: vec![4, 5, 6, 7],
        max_new_tokens: 3,
        class,
        ttft_deadline_us: deadline,
    };
    let requests = vec![
        request(0, SloClass::Batch, None),
        request(1, SloClass::Standard, None),
        // Impossible: prefill alone needs more than 0 us.
        request(2, SloClass::Interactive, Some(0)),
        request(3, SloClass::Interactive, Some(10_000_000)),
    ];
    let (records, report) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 3);
    assert_eq!(records[2].outcome, RequestOutcome::Rejected);
    assert_eq!(records[2].admitted_ps, None, "rejected before admission");
    assert!(records[3].met_deadline(), "a generous deadline is honored");
    let admitted = |id: usize| records[id].admitted_ps.expect("completed");
    assert!(
        admitted(3) <= admitted(1) && admitted(1) <= admitted(0),
        "interactive first, then standard, then batch"
    );
}

/// Ten requests of all three classes in two arrival waves (0 and 1 us);
/// each wave's contexts outgrow a 25-block pool of 2 tokens.
fn pin_workload() -> Vec<GenRequest> {
    (0..10)
        .map(|id| GenRequest {
            id,
            arrival_us: (id / 5) as u64,
            prompt: (0..2 + id % 4).map(|t| (id * 5 + t * 3) % 16).collect(),
            max_new_tokens: 10 + id % 5,
            class: [SloClass::Batch, SloClass::Standard, SloClass::Interactive][id % 3],
            ttft_deadline_us: (id % 3 == 2).then_some(1),
        })
        .collect()
}

/// Digests the `Debug` text of the records and the report. The pins
/// were taken when the report held its speculation counters as six
/// flat fields after `ticks`, so `report.spec` is rendered that way.
fn run_digest(records: &[RequestLifecycle], report: &ServingReport) -> u64 {
    let s = &report.spec;
    let nested = format!(", spec: {s:?} }}");
    let flat = format!(
        ", spec_steps: {}, spec_proposed: {}, spec_accepted: {}, spec_emitted: {}, \
         draft_cycles: {}, verify_cycles: {} }}",
        s.spec_steps, s.proposed, s.accepted, s.emitted, s.draft_cycles, s.verify_cycles
    );
    let report = format!("{report:?}");
    assert!(report.ends_with(&nested), "{report}");
    let report = report.replace(&nested, &flat);
    fnv1a(format!("{records:?}{report}").bytes().map(u64::from))
}

/// Every lifecycle and the report of seven frontend runs, digested:
/// the open loop unchunked, chunked and speculative, each on a roomy
/// pool and on a starved swap-out pool that preempts, plus one closed
/// loop. The digests were taken on the frontend that merged each tick's
/// traces itself and queued arrivals in a class-ordered `BatchQueue`.
/// The recompute policy is left out: its resumes are charged work.
#[test]
fn slo_frontend_runs_are_pinned_bit_for_bit() {
    let want: [(&str, u64); 7] = [
        ("open, chunk 0, roomy", 0x0913_a967_c379_2187),
        ("open, chunk 0, starved", 0x88f2_63a1_e872_fbd7),
        ("open, chunk 4, roomy", 0x461e_d9af_dfd0_a203),
        ("open, chunk 4, starved", 0x1744_8070_a455_1077),
        ("open, k = 4, roomy", 0xdd7a_adcc_6353_e503),
        ("open, k = 4, starved", 0x748a_b319_cd6c_6d19),
        ("closed x2, roomy", 0x6761_9148_fd3c_d722),
    ];
    let starved = |chunk| DecodeServeConfig {
        max_active: 6,
        kv: KvServeConfig {
            block_tokens: 2,
            pool_blocks: 25,
            preempt: PreemptPolicy::SwapOut,
            ..KvServeConfig::default()
        },
        prefill_chunk_tokens: chunk,
        ..DecodeServeConfig::default()
    };
    let spec = |config: DecodeServeConfig| DecodeServeConfig {
        spec_k: 4,
        ..config
    };
    let open = [
        config(0),
        starved(0),
        config(4),
        starved(4),
        spec(config(0)),
        spec(starved(0)),
    ];
    let m = model();
    let workload = pin_workload();
    let sim = Simulator::new(config(0).arch);
    let mut got: Vec<(&str, u64)> = Vec::new();
    let mut tokens = Vec::new();
    for (&(label, _), cfg) in want.iter().zip(&open) {
        let (records, report) = SloFrontend::new(&m, &sim, NativeBackend, cfg).run_open(&workload);
        assert_eq!(report.completed, 10, "{label}");
        assert_eq!(report.preemptions > 0, cfg.kv.pool_blocks == 25, "{label}");
        tokens.push(records.iter().map(|r| r.tokens.clone()).collect::<Vec<_>>());
        got.push((label, run_digest(&records, &report)));
    }
    assert!(
        tokens.windows(2).all(|w| w[0] == w[1]),
        "chunking, speculation or preemption changed a token"
    );
    let (records, report) =
        SloFrontend::new(&m, &sim, NativeBackend, &config(0)).run_closed(&workload, 2);
    got.push((want[6].0, run_digest(&records, &report)));
    assert_eq!(got, want, "frontend lifecycles or reports moved");
}
