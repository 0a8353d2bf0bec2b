//! Serving: a stream of mixed DeiT/BERT-style requests through the
//! batching inference runtime.
//!
//! Three client threads submit interleaved vision and text requests; the
//! server coalesces them into batches ([`BatchQueue`]), worker threads
//! run whole transformer forward passes on the photonic DPTC backend
//! wrapped in [`ParallelBackend`], and every reply is bit-reproducible
//! from `(root seed, ticket)` no matter how the work was scheduled.
//! Each reply also carries the hardware cost (cycles, energy, latency,
//! EDP) of its recorded op trace replayed through the LT-B model.
//!
//! ```sh
//! cargo run --release --example serving
//! LT_SERVE_REQUESTS=4 cargo run --release --example serving   # bounded (CI smoke)
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::model::ModelConfig;
use lightening_transformer::nn::serve::{Reply, Request, ServeConfig, Server};
use lightening_transformer::nn::{Tensor, TextClassifier, VisionTransformer};
use lightening_transformer::runtime::{ParallelBackend, Pending};
use std::sync::mpsc::channel;
use std::time::Instant;

const CLIENTS: usize = 3;

/// Requests per client; override with `LT_SERVE_REQUESTS` (CI runs a
/// small bounded stream).
fn requests_per_client() -> usize {
    std::env::var("LT_SERVE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
        .max(1)
}

fn make_request(client: usize, i: usize) -> Request {
    if (client + i).is_multiple_of(3) {
        // A BERT-style request: a 12-token sequence over a 16-symbol vocab.
        Request::Text((0..12).map(|t| (client * 5 + i + t) % 16).collect())
    } else {
        // A DeiT-style request: 16 patches of 16 values.
        let mut rng = GaussianSampler::new((client * 1000 + i) as u64);
        Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
    }
}

fn main() {
    let requests_per_client = requests_per_client();
    // Models are built once; each server worker clones the weights once
    // and reuses them for every request it serves (the software analogue
    // of amortizing weight loading across a batch).
    let mut rng = GaussianSampler::new(42);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);

    // The photonic backend, with intra-GEMM row-block parallelism.
    let backend = ParallelBackend::new(DptcBackend::paper(8, 7), 4);
    let config = ServeConfig {
        workers: 4,
        max_batch: 8,
        seed: 7,
        ..ServeConfig::default()
    };
    let server = Server::new(vision.clone(), text.clone(), backend.clone(), config);

    // Three concurrent clients stream mixed requests.
    let start = Instant::now();
    let (tx, rx) = channel::<(usize, usize, Pending<Reply>)>();
    std::thread::scope(|scope| {
        let server = &server;
        for client in 0..CLIENTS {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..requests_per_client {
                    let pending = server.submit(make_request(client, i));
                    tx.send((client, i, pending)).unwrap();
                }
            });
        }
        drop(tx);
    });

    let mut replies: Vec<(usize, usize, u64, Reply)> = rx
        .into_iter()
        .map(|(client, i, pending)| {
            let ticket = pending.ticket();
            (client, i, ticket, pending.wait())
        })
        .collect();
    let elapsed = start.elapsed();
    replies.sort_by_key(|&(client, i, _, _)| (client, i));

    let total = CLIENTS * requests_per_client;
    println!(
        "served {total} mixed requests in {:.1} ms ({:.0} req/s)",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "coalescing: {} requests drained in {} batches (mean batch {:.2})",
        server.served(),
        server.batches(),
        server.served() as f64 / server.batches().max(1) as f64
    );

    // Every reply carries the hardware cost of its own recorded trace.
    let total_mj: f64 = replies
        .iter()
        .map(|(_, _, _, r)| r.cost.energy.total().value())
        .sum();
    let total_cycles: u64 = replies.iter().map(|(_, _, _, r)| r.cost.cycles).sum();
    println!(
        "accelerator cost of the stream (LT-B 8-bit): {total_cycles} photonic cycles, {total_mj:.3e} mJ across {total} requests"
    );

    // Determinism: replay one request single-threaded, unbatched — the
    // same ticket must reproduce the same logits bit-for-bit.
    // Any reply works as the probe; stay in bounds for small
    // LT_SERVE_REQUESTS overrides.
    let probe = &replies[5.min(replies.len() - 1)];
    let replay_server = Server::new(
        vision,
        text,
        backend,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            seed: 7,
            ..ServeConfig::default()
        },
    );
    // Re-submit every request in ticket order so the probe keeps its ticket.
    let mut by_ticket: Vec<&(usize, usize, u64, Reply)> = replies.iter().collect();
    by_ticket.sort_by_key(|&&(_, _, t, _)| t);
    let mut replayed = None;
    for &&(client, i, ticket, _) in &by_ticket {
        let pending = replay_server.submit(make_request(client, i));
        assert_eq!(pending.ticket(), ticket);
        let reply = pending.wait();
        if ticket == probe.2 {
            replayed = Some(reply);
        }
    }
    let replayed = replayed.expect("probe ticket replayed");
    assert_eq!(
        replayed.logits, probe.3.logits,
        "replay must be bit-identical"
    );
    assert_eq!(
        replayed.cost, probe.3.cost,
        "cost is schedule-invariant too"
    );
    println!(
        "determinism: ticket {} replayed on 1 worker / batch 1 -> identical logits and cost",
        probe.2
    );
    replay_server.shutdown();
    server.shutdown();

    let sample = &replies[0];
    println!(
        "sample reply (client {}, request {}, ticket {}): logits {:?}",
        sample.0,
        sample.1,
        sample.2,
        sample.3.logits.data()
    );
    println!(
        "  cost: {} cycles, {:.3e} mJ, {:.3e} ms, EDP {:.3e} mJ*ms ({} trace ops)",
        sample.3.cost.cycles,
        sample.3.cost.energy.total().value(),
        sample.3.cost.latency.value(),
        sample.3.cost.edp(),
        sample.3.trace.len()
    );
}
