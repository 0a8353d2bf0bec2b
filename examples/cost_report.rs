//! cost_report — record a real model's execution, replay it through the
//! hardware model, and print what the request would cost on the
//! accelerator.
//!
//! One forward pass of a (tiny) Vision Transformer runs on the noisy
//! photonic DPTC backend in a recording context; the recorded
//! op trace — every GEMM with its workload role, every softmax /
//! LayerNorm / GELU / residual element — then replays through the LT-B
//! accelerator model (the paper's Table V methodology), producing
//! cycles, itemized energy, latency, and EDP for the *same computation
//! that produced the logits*.
//!
//! ```sh
//! cargo run --release --example cost_report
//! ```

use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::core::{GaussianSampler, Op};
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::layers::ForwardCtx;
use lightening_transformer::nn::model::{Classifier, ModelConfig, VisionTransformer};
use lightening_transformer::nn::quant::QuantConfig;
use lightening_transformer::nn::{BackendEngine, Tensor};

fn main() {
    // A real model with real weights, and a real input.
    let mut rng = GaussianSampler::new(42);
    let mut vit = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let patches = Tensor::randn(16, 16, 1.0, &mut rng);

    // Execute on the photonic backend while recording the op trace.
    let mut engine = BackendEngine::new(DptcBackend::paper(8, 7), 1);
    let mut ctx = ForwardCtx::inference(&mut engine, QuantConfig::fp32()).recording();
    let logits = vit.forward(&patches, &mut ctx);
    let trace = ctx.take_trace().coalesce();

    println!("logits: {:?}", logits.data());
    println!(
        "\nrecorded trace: {} coalesced ops, {:.3} MMACs",
        trace.len(),
        trace.total_macs() as f64 / 1e6
    );
    for op in trace.ops() {
        match *op {
            Op::Gemm {
                kind,
                m,
                k,
                n,
                instances,
            } => println!("  gemm {kind:?}: [{m}x{k}]x[{k}x{n}] x{instances}"),
            Op::NonGemm { kind, elems } => println!("  digital {kind:?}: {elems} elems"),
        }
    }

    // Replay the recorded trace through the accelerator model.
    let sim = Simulator::new(ArchConfig::lt_base(8));
    let report = sim.run_trace(&trace);
    println!("\nhardware cost on {} (8-bit):", sim.config().name);
    println!("  cycles : {}", report.cycles);
    for (label, mj) in report.energy.rows() {
        if mj > 0.0 {
            println!("  energy : {label:<14} {:.3e} mJ", mj);
        }
    }
    println!(
        "  energy : {:<14} {:.3e} mJ",
        "total",
        report.energy.total().value()
    );
    println!("  latency: {:.3e} ms", report.latency.value());
    println!("  EDP    : {:.3e} mJ*ms", report.edp());
    println!(
        "  util   : {:.1}% of peak MACs ({:?}-bound)",
        report.utilization * 100.0,
        report.stalls.bound()
    );
    println!(
        "  stalls : compute {:.3e} ms | hbm {:.3e} ms | fill {:.3e} ms",
        report.stalls.compute.value(),
        report.stalls.bandwidth.value(),
        report.stalls.fill.value()
    );

    println!("  cache  : schedule cache {}", sim.schedule_cache_stats());

    assert!(report.cycles > 0 && report.edp() > 0.0);
    assert!((report.stalls.total().value() - report.latency.value()).abs() < 1e-9);
    println!("\nok: one run produced logits, a replayable hardware cost, and its stall story");
}
