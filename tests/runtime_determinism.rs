//! The parallel runtime's determinism contract.
//!
//! `ParallelBackend` partitions every GEMM into the canonical
//! `row_blocks` work items, each with a `split_seed`-derived noise
//! stream, so thread scheduling can change *when* a block runs but never
//! *what* it computes. These tests pin the contract:
//!
//! * parallel output is bit-identical to the wrapped `DptcBackend` for
//!   every `Fidelity` variant (Ideal / AnalyticNoisy / Circuit) at every
//!   thread count;
//! * the same holds for the exact `NativeBackend` and (relative to the
//!   blocked sequential reference) for a stochastic baseline backend;
//! * `BatchQueue` hands out requests in strict FIFO ticket order, so no
//!   request is starved or reordered;
//! * the batching inference server returns logits — and per-request
//!   hardware costs — that do not depend on worker count, batch size,
//!   or intra-GEMM thread count;
//! * both servers given a `ParallelBackend` return forward replies,
//!   decode token streams, and memory-pressured paged replies
//!   bit-identical to the unwrapped backend at 1/2/4/8 threads.

use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::baselines::PcmBackend;
use lightening_transformer::core::{
    blocked_gemm, ComputeBackend, GaussianSampler, Matrix64, NativeBackend, RunCtx,
};
use lightening_transformer::dptc::{DptcBackend, DptcConfig, Fidelity, NoiseModel};
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm, SessionConfig};
use lightening_transformer::nn::kv::PreemptPolicy;
use lightening_transformer::nn::layers::ForwardCtx;
use lightening_transformer::nn::model::{Classifier, ModelConfig};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
use lightening_transformer::nn::serve::sched::{KvScheduler, KvServeConfig};
use lightening_transformer::nn::serve::{Request, ServeConfig, Server};
use lightening_transformer::nn::{
    BackendEngine, QuantConfig, Tensor, TextClassifier, VisionTransformer,
};
use lightening_transformer::runtime::{BatchQueue, ParallelBackend};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix64, Matrix64) {
    let mut rng = GaussianSampler::new(seed);
    (
        Matrix64::randn(m, k, 1.0, &mut rng),
        Matrix64::randn(k, n, 1.0, &mut rng),
    )
}

/// parallel(B) == B, bit for bit, for every thread count — with the
/// inline-execution gate removed, so the multi-thread cases genuinely
/// dispatch every row block through the worker pool.
fn assert_parallel_matches_wrapped<B>(backend: B, m: usize, k: usize, n: usize, label: &str)
where
    B: ComputeBackend + Clone + Send + Sync + 'static,
{
    let (a, b) = rand_pair(m, k, n, 0xC0FFEE);
    let want = backend.gemm(a.view(), b.view(), &mut RunCtx::new(99));
    for threads in THREAD_COUNTS {
        let par = ParallelBackend::new(backend.clone(), threads).with_min_parallel_macs(0);
        let got = par.gemm(a.view(), b.view(), &mut RunCtx::new(99));
        assert_eq!(got, want, "{label} diverged at {threads} threads");
    }
}

#[test]
fn parallel_equals_wrapped_dptc_ideal() {
    assert_parallel_matches_wrapped(
        DptcBackend::ideal(DptcConfig::lt_paper()),
        61,
        40,
        27,
        "dptc-ideal",
    );
}

#[test]
fn parallel_equals_wrapped_dptc_analytic_noisy() {
    assert_parallel_matches_wrapped(DptcBackend::paper(8, 21), 61, 40, 27, "dptc-analytic");
}

#[test]
fn parallel_equals_wrapped_dptc_circuit() {
    // Circuit-level fidelity propagates fields through the device
    // netlist (~10x slower), so keep the product small: still multiple
    // row strips and edge tiles.
    let backend = DptcBackend::new(
        DptcConfig::lt_paper(),
        Fidelity::Circuit {
            noise: NoiseModel::paper_default(),
            seed: 4,
        },
        8,
    );
    assert_parallel_matches_wrapped(backend, 25, 13, 13, "dptc-circuit");
}

#[test]
fn parallel_equals_wrapped_native() {
    assert_parallel_matches_wrapped(NativeBackend, 73, 31, 44, "native");
}

#[test]
fn parallel_stochastic_baseline_is_thread_count_invariant() {
    // The PCM baseline's plain `gemm` is not the blocked loop, so the
    // reference here is the canonical blocked sequential execution —
    // which the parallel wrapper must reproduce at every thread count.
    let backend = PcmBackend::paper(8);
    let (a, b) = rand_pair(48, 32, 24, 7);
    let want = blocked_gemm(&backend, a.view(), b.view(), &mut RunCtx::new(5));
    for threads in THREAD_COUNTS {
        let par = ParallelBackend::new(backend, threads).with_min_parallel_macs(0);
        let got = par.gemm(a.view(), b.view(), &mut RunCtx::new(5));
        assert_eq!(got, want, "pcm diverged at {threads} threads");
    }
}

#[test]
fn parallel_backend_drops_into_an_engine_unchanged() {
    // ParallelBackend is itself a ComputeBackend: BackendEngine accepts
    // it like any other backend and produces identical results.
    use lightening_transformer::nn::engine::MatmulEngine;
    use lightening_transformer::nn::BackendEngine;
    let a = Tensor::from_fn(40, 36, |i, j| ((i + j) as f32 * 0.05).sin());
    let b = Tensor::from_fn(36, 40, |i, j| ((i * j) as f32 * 0.03).cos());
    let mut seq = BackendEngine::new(DptcBackend::paper(8, 3), 11);
    let mut par = BackendEngine::new(ParallelBackend::new(DptcBackend::paper(8, 3), 4), 11);
    assert_eq!(seq.matmul(&a, &b), par.matmul(&a, &b));
    assert_eq!(par.name(), "parallel(dptc-analytic)");
}

#[test]
fn quantized_forward_is_invariant_to_gemm_thread_count() {
    // The true integer path (i8/i4 weight-bearing layers) composes with
    // intra-GEMM parallelism: the quantized linear layers execute on
    // integer codes while attention QK/AV still flow through the
    // (parallel, noisy) backend, so the whole forward must stay
    // bit-identical at every thread count.
    let mut rng = GaussianSampler::new(41);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let patches = Tensor::randn(16, 16, 1.0, &mut rng);
    for quant in [QuantConfig::int8(), QuantConfig::int4()] {
        let run = |threads: usize| -> Tensor {
            let mut model = vision.clone();
            let backend =
                ParallelBackend::new(DptcBackend::paper(8, 17), threads).with_min_parallel_macs(0);
            let mut engine = BackendEngine::new(backend, 11);
            let mut ctx = ForwardCtx::inference(&mut engine, quant);
            model.forward(&patches, &mut ctx)
        };
        let base = run(1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                base,
                run(threads),
                "quantized ({quant:?}) forward diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn quantized_paged_decode_survives_memory_pressure_unchanged() {
    // One quantized pressure scenario through the paged-KV scheduler
    // (the `kv_properties.rs` harness): an i8 decode stream served from
    // a pool tight enough to force swap-out evictions must return the
    // same replies as the same stream served from an ample pool —
    // preemption may reschedule integer-path sessions, never change
    // what they generate.
    let mut rng = GaussianSampler::new(53);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let session = SessionConfig {
        quant: QuantConfig::int8(),
        ..SessionConfig::default()
    };
    let requests: Vec<DecodeRequest> = (0..7)
        .map(|i| DecodeRequest {
            prompt: vec![(i * 2) % 16, (i + 5) % 16],
            max_new_tokens: 10,
        })
        .collect();
    let serve = |kv: KvServeConfig| -> (Vec<DecodeReply>, u64) {
        let mut sched = KvScheduler::new(&model, &sim, DptcBackend::paper(8, 3), session, kv, 16);
        for (t, r) in requests.iter().enumerate() {
            sched.submit(t as u64, r.clone());
        }
        let mut replies = Vec::new();
        while sched.has_work() {
            sched.tick();
            replies.extend(sched.drain_finished());
        }
        replies.sort_by_key(|&(t, _)| t);
        let preemptions = sched.stats().preemptions;
        (replies.into_iter().map(|(_, r)| r).collect(), preemptions)
    };
    let (roomy, p0) = serve(KvServeConfig {
        block_tokens: 2,
        pool_blocks: 512,
        ..KvServeConfig::default()
    });
    assert_eq!(p0, 0, "the roomy pool must not evict");
    let (tight, p1) = serve(KvServeConfig {
        block_tokens: 2,
        pool_blocks: 25, // min for max_seq 48 — guaranteed pressure
        preempt: PreemptPolicy::SwapOut,
        ..KvServeConfig::default()
    });
    assert!(p1 > 0, "the tight pool must evict");
    assert_eq!(roomy, tight, "preemption changed an i8 decode's replies");
}

#[test]
fn batch_queue_is_fifo_and_fair_under_concurrency() {
    let queue = Arc::new(BatchQueue::new(5));
    let submitters: Vec<_> = (0..3u32)
        .map(|s| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for i in 0..40u32 {
                    queue.submit((s, i));
                }
            })
        })
        .collect();
    let consumer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let mut drained = Vec::new();
            while let Some(batch) = queue.next_batch() {
                assert!(batch.len() <= 5, "batch size must stay bounded");
                drained.extend(batch);
            }
            drained
        })
    };
    for s in submitters {
        s.join().unwrap();
    }
    queue.close();
    let drained = consumer.join().unwrap();
    assert_eq!(drained.len(), 120, "every request served exactly once");
    for pair in drained.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "global FIFO: tickets strictly increase"
        );
    }
    for s in 0..3u32 {
        let per_client: Vec<u32> = drained
            .iter()
            .filter(|&&(_, (owner, _))| owner == s)
            .map(|&(_, (_, i))| i)
            .collect();
        assert_eq!(
            per_client,
            (0..40).collect::<Vec<u32>>(),
            "client {s} requests reordered"
        );
    }
}

#[test]
fn decode_token_streams_are_invariant_to_worker_count_and_batch_width() {
    // Continuous-batching decode on the *noisy* photonic backend: the
    // generated token streams and every attached per-token cost must be
    // bit-identical whether the stream is served by 1, 2, or 4 workers
    // at any continuous-batch width — everything stochastic flows from
    // split_seed(seed, ticket), never from scheduling.
    let mut rng = GaussianSampler::new(31);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let requests: Vec<DecodeRequest> = (0..10)
        .map(|i| DecodeRequest {
            prompt: (0..(2 + i % 4)).map(|t| (i * 5 + t) % 16).collect(),
            max_new_tokens: 2 + i % 5,
        })
        .collect();

    let serve = |workers: usize, max_active: usize| -> Vec<DecodeReply> {
        let server = DecodeServer::new(
            model.clone(),
            DptcBackend::paper(8, 17),
            DecodeServeConfig {
                workers,
                max_active,
                seed: 23,
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies = pending.into_iter().map(|p| p.wait()).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    };

    let base = serve(1, 1);
    for (i, reply) in base.iter().enumerate() {
        assert_eq!(reply.tokens.len(), requests[i].max_new_tokens);
        assert!(reply.prefill.cycles > 0, "prefill carries replayed cost");
        assert!(reply.steps.iter().all(|s| s.cycles > 0), "per-token costs");
    }
    for (workers, max_active) in [(1, 4), (2, 4), (4, 8)] {
        let got = serve(workers, max_active);
        for (a, b) in base.iter().zip(&got) {
            // DecodeReply equality covers tokens, prefill + per-token
            // costs, and the KV footprint at once.
            assert_eq!(a, b, "workers={workers} max_active={max_active}");
        }
    }
}

#[test]
fn quantized_decode_serving_is_invariant_to_worker_count_and_batch_width() {
    // The DecodeServer end of the same contract: continuous-batching
    // paged serving with the weight-bearing layers on true i8 codes
    // must produce worker-count- and batch-width-invariant token
    // streams and costs, exactly like the fp32 path above.
    let mut rng = GaussianSampler::new(37);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            prompt: (0..(2 + i % 3)).map(|t| (i * 3 + t) % 16).collect(),
            max_new_tokens: 2 + i % 4,
        })
        .collect();
    let serve = |workers: usize, max_active: usize| -> Vec<DecodeReply> {
        let server = DecodeServer::new(
            model.clone(),
            DptcBackend::paper(8, 17),
            DecodeServeConfig {
                workers,
                max_active,
                seed: 23,
                quant: QuantConfig::int8(),
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies = pending.into_iter().map(|p| p.wait()).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    };
    let base = serve(1, 1);
    for (i, reply) in base.iter().enumerate() {
        assert_eq!(reply.tokens.len(), requests[i].max_new_tokens);
        assert!(reply.prefill.cycles > 0, "prefill carries replayed cost");
    }
    for (workers, max_active) in [(2, 4), (4, 8)] {
        let got = serve(workers, max_active);
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a, b, "i8 decode: workers={workers} max_active={max_active}");
        }
    }
}

#[test]
fn serving_is_invariant_to_workers_batch_size_and_gemm_threads() {
    let mut rng = GaussianSampler::new(3);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            } else {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            }
        })
        .collect();

    let serve = |workers: usize,
                 max_batch: usize,
                 gemm_threads: usize|
     -> Vec<lightening_transformer::nn::Reply> {
        let backend = ParallelBackend::new(DptcBackend::paper(8, 17), gemm_threads);
        let server = Server::new(
            vision.clone(),
            text.clone(),
            backend,
            ServeConfig {
                workers,
                max_batch,
                seed: 23,
                ..ServeConfig::default()
            },
        );
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        pending.into_iter().map(|p| p.wait()).collect()
    };

    let base = serve(1, 1, 1);
    for reply in &base {
        assert!(reply.cost.cycles > 0, "every reply carries hardware cost");
        assert!(!reply.trace.is_empty(), "every reply carries its trace");
    }
    for (workers, max_batch, gemm_threads) in [(2, 3, 2), (4, 6, 4)] {
        let got = serve(workers, max_batch, gemm_threads);
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(
                a.logits, b.logits,
                "logits diverged at workers={workers} max_batch={max_batch} threads={gemm_threads}"
            );
            assert_eq!(
                a.cost, b.cost,
                "cost diverged at workers={workers} max_batch={max_batch} threads={gemm_threads}"
            );
            assert_eq!(a.trace, b.trace, "trace diverged");
        }
    }
}

#[test]
fn forward_serving_is_invariant_to_gemm_threads() {
    // The parallel serving path: a server given a `ParallelBackend`
    // fans every GEMM of every worker out over that backend's one pool.
    // Replies — logits, cost, and the recorded trace — must be
    // bit-identical to the server on the unwrapped backend at every
    // thread count.
    let mut rng = GaussianSampler::new(41);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            } else {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            }
        })
        .collect();
    let config = ServeConfig {
        workers: 2,
        max_batch: 2,
        seed: 29,
        ..ServeConfig::default()
    };
    let serve = |server: Server| -> Vec<lightening_transformer::nn::Reply> {
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        pending.into_iter().map(|p| p.wait()).collect()
    };
    let base = serve(Server::new(
        vision.clone(),
        text.clone(),
        DptcBackend::paper(8, 17),
        config.clone(),
    ));
    for reply in &base {
        assert!(reply.cost.cycles > 0, "every reply carries hardware cost");
        assert!(!reply.trace.is_empty(), "every reply carries its trace");
    }
    for threads in THREAD_COUNTS {
        let got = serve(Server::new(
            vision.clone(),
            text.clone(),
            ParallelBackend::new(DptcBackend::paper(8, 17), threads),
            config.clone(),
        ));
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a.logits, b.logits, "logits diverged at {threads} threads");
            assert_eq!(a.cost, b.cost, "cost diverged at {threads} threads");
            assert_eq!(a.trace, b.trace, "trace diverged at {threads} threads");
        }
    }
}

#[test]
fn decode_serving_is_invariant_to_gemm_threads() {
    // Same contract for the decode server: a `ParallelBackend` routes
    // every per-token GEMM through its shared pool, and the token
    // streams plus their replayed per-token costs must not move.
    let mut rng = GaussianSampler::new(43);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let requests: Vec<DecodeRequest> = (0..6)
        .map(|i| DecodeRequest {
            prompt: (0..(2 + i % 3)).map(|t| (i * 7 + t) % 16).collect(),
            max_new_tokens: 2 + i % 4,
        })
        .collect();
    let config = DecodeServeConfig {
        workers: 2,
        max_active: 4,
        seed: 23,
        ..DecodeServeConfig::default()
    };
    let serve = |server: DecodeServer| -> Vec<DecodeReply> {
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies = pending.into_iter().map(|p| p.wait()).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    };
    let base = serve(DecodeServer::new(
        model.clone(),
        DptcBackend::paper(8, 17),
        config.clone(),
    ));
    for (i, reply) in base.iter().enumerate() {
        assert_eq!(reply.tokens.len(), requests[i].max_new_tokens);
        assert!(reply.prefill.cycles > 0, "prefill carries replayed cost");
    }
    for threads in THREAD_COUNTS {
        let got = serve(DecodeServer::new(
            model.clone(),
            ParallelBackend::new(DptcBackend::paper(8, 17), threads),
            config.clone(),
        ));
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a, b, "decode reply diverged at {threads} threads");
        }
    }
}

#[test]
fn paged_pressure_replies_are_invariant_to_gemm_threads() {
    // Memory-pressure serving through the parallel path: a deliberately
    // tight per-worker KV pool forces preemption while a
    // `ParallelBackend` fans the GEMMs out. Replies must match the roomy
    // server on the unwrapped backend — neither eviction/restore nor
    // row-block scheduling may leak into tokens or costs.
    let mut rng = GaussianSampler::new(47);
    let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            prompt: (0..(2 + i % 3)).map(|t| (i * 5 + t) % 16).collect(),
            max_new_tokens: 4 + i % 4,
        })
        .collect();
    let config = |kv: KvServeConfig| DecodeServeConfig {
        workers: 1,
        max_active: 8,
        seed: 31,
        kv,
        ..DecodeServeConfig::default()
    };
    let serve = |server: DecodeServer| -> Vec<DecodeReply> {
        let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies = pending.into_iter().map(|p| p.wait()).collect();
        server.shutdown();
        replies
    };
    let roomy = KvServeConfig {
        block_tokens: 2,
        pool_blocks: 512,
        ..KvServeConfig::default()
    };
    let tight = KvServeConfig {
        block_tokens: 2,
        pool_blocks: 25, // min for max_seq 48 — guaranteed pressure
        preempt: PreemptPolicy::SwapOut,
        ..KvServeConfig::default()
    };
    let base = serve(DecodeServer::new(
        model.clone(),
        DptcBackend::paper(8, 17),
        config(roomy),
    ));
    for threads in THREAD_COUNTS {
        let got = serve(DecodeServer::new(
            model.clone(),
            ParallelBackend::new(DptcBackend::paper(8, 17), threads),
            config(tight),
        ));
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a, b, "paged-pressure reply diverged at {threads} threads");
        }
    }
}
