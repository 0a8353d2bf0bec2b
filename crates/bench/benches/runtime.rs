//! Throughput of the parallel runtime: sequential vs. `ParallelBackend`
//! at 1/2/4/8 threads, plus batched serving at 1 vs. 4 workers, and the
//! host cost of one batch-1 decode step, one speculative step and trace
//! recording.
//!
//! ```sh
//! cargo bench -p lt-bench --bench runtime
//! ```
//!
//! The row-block partition gives each thread `ceil(m / (threads * g)) * g`
//! rows of independent work (g = the backend's preferred block rows), so
//! on an `N`-core host the large-GEMM wall clock approaches `1/N` of
//! sequential until memory bandwidth saturates; per-block dispatch
//! overhead is one job box + one `a`-strip copy, amortized over
//! `O(g * k * n)` MACs.
//!
//! Recorded run (`cargo bench -p lt-bench --bench runtime` on a 2-core
//! Intel Xeon VM): see the RECORDED RESULTS block at the bottom of this
//! file for the captured table. Every row gives the mean and the median
//! ± MAD of five sub-window means; the VM's speed drifts by tens of
//! percent within seconds, so compare rows across builds only from
//! alternated runs. On one CPU every thread count runs at parity with
//! sequential (the pool can only interleave), which, combined with the
//! bit-identity tests in `tests/runtime_determinism.rs`, is the
//! strongest claim a single-core host can verify. The speedup comes
//! from the work partition being embarrassingly parallel: the row
//! blocks of a GEMM share no mutable state and no noise stream, so `T`
//! threads execute `ceil(blocks/T)` blocks each with zero
//! synchronization beyond one channel send per block; a 2x-or-better
//! wall-clock gain at 4 threads on a 4-core-or-better host follows from
//! that structure and must be re-measured there (`cargo bench -p
//! lt-bench --bench runtime` prints the same table on any machine).

use lt_arch::{ArchConfig, Simulator};
use lt_bench::timing::{bench_for, BenchReport};
use lt_core::{ComputeBackend, GaussianSampler, Matrix64, NativeBackend, Op, OpKind, RunCtx};
use lt_dptc::DptcBackend;
use lt_nn::decode::{DecodeReply, DecodeSession, DecoderConfig, DecoderLm, SessionConfig};
use lt_nn::model::ModelConfig;
use lt_nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
use lt_nn::serve::sched::KvServeConfig;
use lt_nn::serve::{Request, ServeConfig, Server};
use lt_nn::{Tensor, TextClassifier, VisionTransformer};
use lt_runtime::ParallelBackend;
use std::hint::black_box;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SPEC_KS: [usize; 4] = [0, 2, 4, 8];
const WINDOW: Duration = Duration::from_millis(300);

fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix64, Matrix64) {
    let mut rng = GaussianSampler::new(seed);
    (
        Matrix64::randn(m, k, 1.0, &mut rng),
        Matrix64::randn(k, n, 1.0, &mut rng),
    )
}

fn gemm_sweep<B>(label: &str, backend: B, m: usize, k: usize, n: usize)
where
    B: ComputeBackend + Clone + Send + Sync + 'static,
{
    let (a, b) = rand_pair(m, k, n, 1);
    let seq = bench_for(&format!("{label} {m}x{k}x{n} sequential"), WINDOW, || {
        backend.gemm(a.view(), b.view(), &mut RunCtx::new(7))
    });
    println!("{}", seq.row());
    for threads in THREADS {
        let par = ParallelBackend::new(backend.clone(), threads);
        let report = bench_for(
            &format!("{label} {m}x{k}x{n} {threads} threads"),
            WINDOW,
            || par.gemm(a.view(), b.view(), &mut RunCtx::new(7)),
        );
        println!(
            "{}  [{:.2}x vs sequential]",
            report.row(),
            report.speedup_vs(&seq)
        );
    }
    println!();
}

fn serving_sweep() {
    let mut rng = GaussianSampler::new(42);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..48)
        .map(|i| {
            if i % 3 == 2 {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            } else {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            }
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for workers in [1usize, 4] {
        let report = bench_for(
            &format!("serve 48 mixed DPTC requests, {workers} worker(s)"),
            WINDOW,
            || {
                let server = Server::new(
                    vision.clone(),
                    text.clone(),
                    DptcBackend::paper(8, 7),
                    ServeConfig {
                        workers,
                        max_batch: 8,
                        seed: 7,
                        ..ServeConfig::default()
                    },
                );
                let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
                let replies: Vec<lt_nn::Reply> = pending.into_iter().map(|p| p.wait()).collect();
                server.shutdown();
                replies
            },
        );
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs 1 worker]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
}

/// The serving path over a `ParallelBackend`: the same request mix
/// served with every GEMM fanned out over one pool shared by both
/// workers, at every thread count. On a 1-core host this prints parity
/// (the table's purpose there is bounding the pool's dispatch
/// overhead); on a multi-core host it prints the row-block scaling.
/// Replies are bit-identical either way (`tests/runtime_determinism.rs`).
fn serving_threads_sweep() {
    let mut rng = GaussianSampler::new(42);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            } else {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            }
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for threads in THREADS {
        let backend = ParallelBackend::new(DptcBackend::paper(8, 7), threads);
        let report = bench_for(
            &format!("serve 12 DPTC requests, {threads} gemm threads"),
            WINDOW,
            || {
                let server = Server::new(
                    vision.clone(),
                    text.clone(),
                    backend.clone(),
                    ServeConfig {
                        workers: 2,
                        max_batch: 4,
                        seed: 7,
                        ..ServeConfig::default()
                    },
                );
                let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
                let replies: Vec<lt_nn::Reply> = pending.into_iter().map(|p| p.wait()).collect();
                server.shutdown();
                replies
            },
        );
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs 1 thread]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
    println!();
}

/// Speculative decoding on the HOST clock: the same 8-session decode
/// mix served at every `spec_k`. The modeled win lives on the
/// accelerator (`repro spec` shows replayed target cycles/token
/// dropping ~3x at k=4, batch 1); on the host, every draft token is
/// REAL GEMM work on top of the per-position target steps that commit
/// the tokens (the batched verify pass is costed from its shape, not
/// run), so wall clock is expected to get *worse* as k grows.
/// This sweep records that draft overhead honestly instead of letting
/// the modeled numbers imply a host-side speedup that isn't there.
fn spec_k_sweep() {
    let mut rng = GaussianSampler::new(42);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    // Without the taper a random-init target disagrees with its own
    // bottom half at chance level and the sweep measures pure waste.
    model.taper_deep_blocks(0.25);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            prompt: (0..3 + i % 4).map(|t| (i * 5 + t * 3) % 16).collect(),
            max_new_tokens: 6 + i % 5,
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for k in SPEC_KS {
        let report = bench_for(&format!("decode 8 sessions, spec_k={k}"), WINDOW, || {
            let server = DecodeServer::new(
                model.clone(),
                DptcBackend::paper(8, 3),
                DecodeServeConfig {
                    workers: 1,
                    max_active: 4,
                    seed: 7,
                    kv: KvServeConfig {
                        block_tokens: 4,
                        pool_blocks: 64,
                        ..KvServeConfig::default()
                    },
                    spec_k: k,
                    ..DecodeServeConfig::default()
                },
            );
            let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
            let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
            server.shutdown();
            replies
        });
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs spec_k=0 on the host]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
    println!();
}

/// The host cost of the batch-1 decode path on the exact backend, per
/// call: one `DecodeSession::step` and one speculative step at k = 4
/// (tiny decoder, tapered so the draft earns acceptances), and 10 000
/// `record` calls into a recording context's owned trace. A session
/// that has generated its 40 tokens is rebuilt and prefilled inside the
/// timed closure, so each step row carries 1/39 of a prefill (1/10 or
/// so for the speculative row).
fn decode_path_rows() {
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut GaussianSampler::new(42));
    model.taper_deep_blocks(0.25);
    let draft = model.draft();
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let session = || {
        let config = SessionConfig::default();
        let mut s = DecodeSession::new(&model, 0, vec![1, 2, 3, 4], 40, NativeBackend, config);
        s.prefill(&model, &sim);
        s
    };
    let mut s = session();
    let step = bench_for("decode step, tiny decoder, native", WINDOW, || {
        if s.is_done() {
            s = session();
        }
        s.step(&model, &sim)
    });
    println!("{}", step.row());
    let mut s = session();
    let spec = bench_for("spec_step k=4, tiny decoder, native", WINDOW, || {
        if s.is_done() {
            s = session();
        }
        s.spec_step(&model, &draft, &sim, 4)
    });
    println!("{}", spec.row());
    let op = Op::gemm(OpKind::AttnQk, 1, 8, 17);
    let record = bench_for("10 000 record calls, owned trace", WINDOW, || {
        let mut ctx = RunCtx::new(0).recording();
        for _ in 0..10_000 {
            ctx.record(black_box(op));
        }
        ctx.take_trace()
    });
    println!("{}\n", record.row());
}

fn main() {
    println!("== parallel runtime throughput ==");
    println!(
        "host parallelism: {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    gemm_sweep("native", NativeBackend, 384, 384, 384);
    gemm_sweep("dptc-analytic", DptcBackend::paper(8, 5), 192, 192, 192);
    serving_threads_sweep();
    decode_path_rows();
    spec_k_sweep();
    serving_sweep();
}

// RECORDED RESULTS — 2-core Intel Xeon VM, 2026-10-17.
//
//   host parallelism: 2 hardware thread(s)
//   native 384x384x384 sequential            10080 us/iter  (median 9323 ± 733 MAD)
//   native 384x384x384 1 threads             13804 us/iter  (median 15328 ± 2174 MAD)  [0.73x]
//   native 384x384x384 2 threads              7741 us/iter  (median 7648 ± 313 MAD)    [1.30x]
//   native 384x384x384 4 threads              9365 us/iter  (median 9517 ± 1053 MAD)   [1.08x]
//   native 384x384x384 8 threads              9889 us/iter  (median 10051 ± 678 MAD)   [1.02x]
//   dptc-analytic 192x192x192 sequential     25625 us/iter  (median 26090 ± 1251 MAD)
//   dptc-analytic 192x192x192 1 threads      22340 us/iter  (median 22294 ± 210 MAD)   [1.15x]
//   dptc-analytic 192x192x192 2 threads      19434 us/iter  (median 18896 ± 664 MAD)   [1.32x]
//   dptc-analytic 192x192x192 4 threads      21474 us/iter  (median 21732 ± 263 MAD)   [1.19x]
//   dptc-analytic 192x192x192 8 threads      20129 us/iter  (median 20769 ± 158 MAD)   [1.27x]
//   serve 12 DPTC requests, LT_THREADS=1     16214 us/iter  (median 16470 ± 1303 MAD)
//   serve 12 DPTC requests, LT_THREADS=2     15276 us/iter  (median 14707 ± 1011 MAD)  [1.06x]
//   serve 12 DPTC requests, LT_THREADS=4     18963 us/iter  (median 18783 ± 836 MAD)   [0.86x]
//   serve 12 DPTC requests, LT_THREADS=8     15061 us/iter  (median 14119 ± 1093 MAD)  [1.08x]
//   decode step, tiny decoder, native           20.9 us/iter  (median 21.0 ± 0.7 MAD)
//   spec_step k=4, tiny decoder, native        175.7 us/iter  (median 179.7 ± 5.9 MAD)
//   10 000 record calls, owned trace            73.1 us/iter  (median 72.8 ± 5.8 MAD)
//   decode 8 sessions, spec_k=0              26248 us/iter  (median 26010 ± 386 MAD)
//   decode 8 sessions, spec_k=2              53260 us/iter  (median 53826 ± 1197 MAD)  [0.49x]
//   decode 8 sessions, spec_k=4              60977 us/iter  (median 61667 ± 743 MAD)   [0.43x]
//   decode 8 sessions, spec_k=8              65757 us/iter  (median 65483 ± 589 MAD)   [0.40x]
//   serve 48 mixed DPTC requests, 1 worker   99556 us/iter  (median 99703 ± 1082 MAD)
//   serve 48 mixed DPTC requests, 4 workers  50644 us/iter  (median 49531 ± 5703 MAD)  [1.97x]
//
// The decode rows against the build before each pass owned its trace
// (a per-thread sharded recorder, per-head operand copies, copying row
// ops), three alternated runs of those three rows per build:
//
//   row                                     before (us/iter)    after (us/iter)
//   decode step, tiny decoder, native       39.2 / 46.5 / 38.3  27.7 / 21.7 / 34.0
//   spec_step k=4, tiny decoder, native     254 / 339 / 264     205 / 173 / 250
//   10 000 record calls                     620 / 735 / 612     59 / 61 / 74
//
// The spec_k rows are the honest host-side cost of speculation: every
// draft token is a real CPU GEMM on top of the per-position target
// steps, so host wall clock DEGRADES as k grows even while the modeled
// accelerator metric — replayed target cycles per generated token, the
// thing `repro spec` gates — improves ~3.2x at k=4, batch 1. The
// simulator charges the verify pass once at batched-GEMM cost and the
// draft at draft-trace cost; the host runs the draft and then the
// target one position at a time, and that gap is the whole point of
// measuring on the accelerator model rather than the host. (The table
// above predates costing the verify pass from its shape; until then
// the host also executed that pass on a cloned engine.)
//
// On a host with more cores the same binary prints the scaling table;
// the determinism suite guarantees the outputs are bit-identical either
// way.
