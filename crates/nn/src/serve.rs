//! A batching, multi-threaded inference server over any
//! [`ComputeBackend`] — the software analogue of the accelerator's
//! batched execution (Section IV: weights are loaded once per layer and
//! reused across the whole batch).
//!
//! Concurrent clients [`Server::submit`] mixed vision (DeiT stand-in)
//! and text (BERT stand-in) requests; a [`lt_runtime::Workers`] shell
//! coalesces them into FIFO batches that its threads drain. Each
//! worker holds its own clone of the model weights (loaded once, reused
//! for every request it serves) and runs whole transformer forward
//! passes with every GEMM routed through the given backend — pass a
//! [`lt_runtime::ParallelBackend`] to also parallelize inside each GEMM
//! over one pool that every worker shares.
//!
//! What coalescing amortizes today: queue synchronization (one lock
//! round per batch, not per request) and weight residency (a worker
//! streams a whole batch through its already-loaded weights). Requests
//! within a batch still execute as individual forward passes; fusing a
//! batch's per-layer products into single stacked GEMMs would need
//! batched model forwards.
//!
//! # Per-request hardware cost
//!
//! Every forward pass records its op trace ([`lt_core::Trace`])
//! while executing, and the worker replays the coalesced trace through
//! an [`lt_arch::Simulator`] built from [`ServeConfig::arch`]. The
//! [`Reply`] therefore carries, next to the logits, a [`RunReport`]
//! (photonic cycles, itemized energy, latency, EDP — and, since the
//! tile-schedule refactor, the achieved MAC utilization plus a
//! [`lt_arch::StallBreakdown`] saying whether the request was
//! compute-bound, bandwidth-bound, or pipeline-fill-bound): the serving
//! layer answers "what would this request cost on the accelerator, and
//! why" for free, per ticket.
//!
//! # Determinism
//!
//! A request's logits depend only on the model weights, the input, and
//! the server's root seed mixed with the request *ticket*
//! ([`lt_core::backend::split_seed`]) — never on worker count, batch
//! boundaries, or completion order. Serving the same stream twice (or
//! with a different `workers`/`max_batch` configuration) returns
//! bit-identical logits, enforced by `tests/runtime_determinism.rs`.
//! The attached cost is invariant the same way: the recorded trace is a
//! function of model geometry and input shape alone, and the simulator
//! is deterministic.

pub mod decode;
pub mod lifecycle;
pub mod sched;

use crate::engine::BackendEngine;
use crate::layers::ForwardCtx;
use crate::model::{Classifier, TextClassifier, VisionTransformer};
use crate::quant::QuantConfig;
use crate::tensor::Tensor;
use lt_arch::{ArchConfig, RunReport, Simulator};
use lt_core::backend::split_seed;
use lt_core::{ComputeBackend, Trace};
use lt_runtime::{BatchQueue, Job, Pending, Workers};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One inference request: an image (patch matrix) for the vision model
/// or a token sequence for the text model.
#[derive(Debug, Clone)]
pub enum Request {
    /// Patches for the [`VisionTransformer`], `[num_patches, patch_dim]`.
    Vision(Tensor),
    /// Token ids for the [`TextClassifier`] (exactly its `seq_len`).
    Text(Vec<usize>),
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each holding its own copy of the weights.
    pub workers: usize,
    /// Maximum requests a worker drains from the queue at once.
    pub max_batch: usize,
    /// Root seed; a request's noise stream is `split_seed(seed, ticket)`.
    pub seed: u64,
    /// Operand fake-quantization applied to every forward pass.
    pub quant: QuantConfig,
    /// Accelerator model that costs every request's recorded trace
    /// (default: LT-B at 8 bits, the paper's high-accuracy point).
    pub arch: ArchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            seed: 0,
            quant: QuantConfig::fp32(),
            arch: ArchConfig::lt_base(8),
        }
    }
}

/// A served response: the logits plus the hardware cost of the request's
/// recorded op trace replayed through the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `[1, classes]` logits.
    pub logits: Tensor,
    /// Cycles, itemized energy, and latency of the recorded trace on
    /// [`ServeConfig::arch`] (EDP via [`RunReport::edp`]).
    pub cost: RunReport,
    /// The coalesced op trace the forward pass actually executed — the
    /// evidence behind `cost`, and the input a scheduler or DSE loop
    /// can re-cost under a different [`ArchConfig`].
    pub trace: Trace,
}

/// The batching inference server. See the [module docs](self).
///
/// ```
/// use lt_core::NativeBackend;
/// use lt_nn::model::{ModelConfig, TextClassifier, VisionTransformer};
/// use lt_nn::serve::{Request, ServeConfig, Server};
/// use lt_nn::Tensor;
/// use lt_core::GaussianSampler;
///
/// let mut rng = GaussianSampler::new(1);
/// let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
/// let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
/// let server = Server::new(vision, text, NativeBackend, ServeConfig::default());
///
/// let image = Tensor::from_fn(16, 16, |i, j| ((i * 16 + j) as f32 * 0.01).sin());
/// let pending = server.submit(Request::Vision(image));
/// let reply = pending.wait();
/// assert_eq!(reply.logits.shape(), (1, 4));
/// // Every reply carries the hardware cost of its recorded op trace.
/// assert!(reply.cost.energy.total().value() > 0.0);
/// assert!(reply.cost.edp() > 0.0);
/// ```
#[derive(Debug)]
pub struct Server {
    workers: Workers<Job<Request, Reply>>,
    served: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
}

impl Server {
    /// Starts `config.workers` worker threads, each with its own clone
    /// of the two models (weights loaded once per worker, amortized
    /// across every request that worker serves). The backend type is
    /// consumed by the workers, so the handle itself is not generic.
    pub fn new<B: ComputeBackend + Clone + Send + 'static>(
        vision: VisionTransformer,
        text: TextClassifier,
        backend: B,
        config: ServeConfig,
    ) -> Self {
        let served = Arc::new(AtomicU64::new(0));
        let batches = Arc::new(AtomicU64::new(0));
        let workers = Workers::spawn(config.workers, config.max_batch, "lt-serve-worker", |_| {
            let served = Arc::clone(&served);
            let batches = Arc::clone(&batches);
            let mut vision = vision.clone();
            let mut text = text.clone();
            let backend = backend.clone();
            let config = config.clone();
            move |queue: &BatchQueue<Job<Request, Reply>>| {
                // One simulator per worker, built once and reused to
                // cost every request it serves.
                let sim = Simulator::new(config.arch.clone());
                while let Some(batch) = queue.next_batch() {
                    batches.fetch_add(1, Ordering::Relaxed);
                    for (ticket, (request, tx)) in batch {
                        // Contain per-request panics (wrong sequence
                        // length, out-of-range token id, ...): the
                        // offending client's reply sender is dropped —
                        // its `wait` panics with a clear message — while
                        // the rest of the batch and the worker survive.
                        // Model forward caches are overwritten on every
                        // pass, so the clones stay valid after an unwind.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                serve_one(
                                    &mut vision,
                                    &mut text,
                                    &backend,
                                    &config,
                                    &sim,
                                    ticket,
                                    &request,
                                )
                            }));
                        if let Ok(reply) = outcome {
                            served.fetch_add(1, Ordering::Relaxed);
                            // A client that dropped its handle just
                            // doesn't read the reply.
                            let _ = tx.send(reply);
                        }
                    }
                }
            }
        });
        Server {
            workers,
            served,
            batches,
        }
    }

    /// Enqueues a request; returns immediately with a reply handle.
    pub fn submit(&self, request: Request) -> Pending<Reply> {
        self.workers.request(request)
    }

    /// Requests served *successfully* so far (a request whose forward
    /// pass panicked — malformed input — is drained but not counted).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Batches drained so far; `served() / batches()` is the realized
    /// coalescing factor.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Drains outstanding requests, stops the workers, and returns the
    /// total number of requests served successfully.
    pub fn shutdown(mut self) -> u64 {
        self.workers.join();
        self.served()
    }
}

/// Runs one request's whole forward pass with its ticket-derived noise
/// stream, records the executed op trace, and costs it on the
/// accelerator model. Free-standing (rather than a closure) so the
/// determinism contract is easy to audit: everything stochastic flows
/// from `split_seed(config.seed, ticket)`, and the cost is a pure
/// function of the recorded trace.
fn serve_one<B: ComputeBackend + Clone>(
    vision: &mut VisionTransformer,
    text: &mut TextClassifier,
    backend: &B,
    config: &ServeConfig,
    sim: &Simulator,
    ticket: u64,
    request: &Request,
) -> Reply {
    let mut engine = BackendEngine::new(backend.clone(), split_seed(config.seed, ticket));
    let mut ctx = ForwardCtx::inference(&mut engine, config.quant).recording();
    let logits = match request {
        Request::Vision(patches) => vision.forward(patches, &mut ctx),
        Request::Text(tokens) => text.forward(&tokens[..], &mut ctx),
    };
    // Coalesce before costing: merged instances fill hardware tiles the
    // way the paper's batched mapping assumes (per-head products etc.).
    let trace = ctx.take_trace().coalesce();
    let cost = sim.run_trace(&trace);
    Reply {
        logits,
        cost,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use lt_core::{GaussianSampler, NativeBackend};
    use lt_dptc::DptcBackend;

    fn models() -> (VisionTransformer, TextClassifier) {
        let mut rng = GaussianSampler::new(7);
        (
            VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng),
            TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng),
        )
    }

    fn mixed_requests(n: usize) -> Vec<Request> {
        let mut rng = GaussianSampler::new(11);
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Request::Text((0..12).map(|t| (i + t) % 16).collect())
                } else {
                    Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
                }
            })
            .collect()
    }

    fn serve_all<B: ComputeBackend + Clone + Send + 'static>(
        backend: B,
        cfg: ServeConfig,
        requests: &[Request],
    ) -> Vec<Reply> {
        let (vision, text) = models();
        let server = Server::new(vision, text, backend, cfg);
        let pending: Vec<Pending<Reply>> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies: Vec<Reply> = pending.into_iter().map(Pending::wait).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    }

    #[test]
    fn serves_mixed_requests_with_correct_shapes_and_costs() {
        let requests = mixed_requests(9);
        let replies = serve_all(NativeBackend, ServeConfig::default(), &requests);
        for (req, r) in requests.iter().zip(&replies) {
            match req {
                Request::Vision(_) => assert_eq!(r.logits.shape(), (1, 4)),
                Request::Text(_) => assert_eq!(r.logits.shape(), (1, 2)),
            }
            assert!(r.cost.cycles > 0, "photonic cycles attached");
            assert!(r.cost.energy.total().value() > 0.0, "energy attached");
            assert!(r.cost.latency.value() > 0.0, "latency attached");
            assert!(r.cost.edp() > 0.0, "EDP attached");
            assert!(
                r.cost.utilization > 0.0 && r.cost.utilization <= 1.0,
                "utilization attached"
            );
            assert!(
                (r.cost.stalls.total().value() - r.cost.latency.value()).abs()
                    <= 1e-9 * r.cost.latency.value(),
                "the stall breakdown accounts for the whole window"
            );
            assert!(!r.trace.is_empty(), "trace attached");
            assert!(
                r.cost.energy.digital.value() > 0.0,
                "non-GEMM work is costed too"
            );
        }
        // Same model + same input shape => same cost; different model
        // geometry => different cost.
        let vision_costs: Vec<_> = requests
            .iter()
            .zip(&replies)
            .filter(|(req, _)| matches!(req, Request::Vision(_)))
            .map(|(_, r)| r.cost)
            .collect();
        assert!(vision_costs.windows(2).all(|w| w[0] == w[1]));
        let text_cost = requests
            .iter()
            .zip(&replies)
            .find(|(req, _)| matches!(req, Request::Text(_)))
            .map(|(_, r)| r.cost)
            .unwrap();
        assert_ne!(text_cost, vision_costs[0], "geometry shows in the cost");
    }

    #[test]
    fn results_and_costs_do_not_depend_on_worker_count_or_batch_size() {
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let base = serve_all(
            backend.clone(),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                ..ServeConfig::default()
            },
            &requests,
        );
        for (workers, max_batch) in [(2, 4), (4, 8)] {
            let got = serve_all(
                backend.clone(),
                ServeConfig {
                    workers,
                    max_batch,
                    ..ServeConfig::default()
                },
                &requests,
            );
            for (a, b) in base.iter().zip(&got) {
                // Reply equality covers logits, cost, and trace at once.
                assert_eq!(a, b, "workers={workers} max_batch={max_batch}");
            }
        }
    }

    #[test]
    fn a_malformed_request_does_not_poison_the_batch_or_the_worker() {
        let (vision, text) = models();
        let server = Server::new(
            vision,
            text,
            NativeBackend,
            ServeConfig {
                workers: 1,
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        let good_before = server.submit(Request::Text(vec![0; 12]));
        let bad = server.submit(Request::Text(vec![0; 11])); // wrong seq_len
        let good_after = server.submit(Request::Text(vec![1; 12]));
        assert_eq!(good_before.wait().logits.shape(), (1, 2));
        assert_eq!(good_after.wait().logits.shape(), (1, 2), "worker survived");
        let failed = std::panic::catch_unwind(move || bad.wait());
        assert!(failed.is_err(), "malformed request reports failure");
        assert_eq!(server.shutdown(), 2, "only the two good requests count");
    }

    #[test]
    fn tickets_are_submission_ordered() {
        let (vision, text) = models();
        let server = Server::new(vision, text, NativeBackend, ServeConfig::default());
        let a = server.submit(Request::Text(vec![0; 12]));
        let b = server.submit(Request::Text(vec![1; 12]));
        assert!(a.ticket() < b.ticket());
        a.wait();
        b.wait();
    }
}
