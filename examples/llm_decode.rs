//! LLM autoregressive decoding on the photonic accelerator (paper
//! Section VI-B): arithmetic intensity, memory-boundedness, and the
//! batching remedy, quantified on LT-B with a roofline analysis.
//!
//! ```sh
//! cargo run --release --example llm_decode
//! ```

use lightening_transformer::arch::roofline::{analyze_trace, Bound};
use lightening_transformer::arch::{ArchConfig, Simulator};
use lightening_transformer::workloads::{DecodeTrace, TransformerConfig};

fn main() {
    // A GPT-2-small decoder with a 512-token KV cache.
    let model = TransformerConfig::gpt2_small(1);
    let cfg = ArchConfig::lt_base(8);
    let sim = Simulator::new(cfg.clone());
    let hbm_gbps = 1000.0; // 1 TB/s

    println!("token-by-token decoding, 512-token context, 8-bit:");
    println!(
        "{:>6} {:>14} {:>10} {:>13} {:>13} {:>8} {:>6}",
        "batch", "MACs/token", "MAC/byte", "compute(us)", "HBM(us)", "bound", "util"
    );
    let ridge = analyze_trace(&cfg, &DecodeTrace::new(model.clone(), 512, 1).op_trace()).ridge;
    for batch in [1usize, 4, 16, 64, 256] {
        let trace = DecodeTrace::new(model.clone(), 512, batch);
        // The analytical decode step replays through the same trace-IR
        // entry point as recorded execution (`lt_nn::decode`) — one
        // costing path for the roofline table and the serving runtime.
        let report = sim.run_trace(&trace.op_trace());
        let compute_us = report.latency.value() * 1e3;
        // Weights + every sequence's private KV cache stream from HBM.
        let bytes = model.param_count() as f64 + trace.kv_cache_bytes(8) as f64;
        let hbm_us = bytes / (hbm_gbps * 1e9) * 1e6;
        // Classify against the ridge using the *per-sequence* KV traffic
        // (each batch element reads its own cache).
        let intensity = trace.arithmetic_intensity(8);
        let bound = if intensity >= ridge {
            Bound::Compute
        } else {
            Bound::Memory
        };
        println!(
            "{batch:>6} {:>14} {:>10.2} {:>13.2} {:>13.2} {:>8} {:>5.0}%",
            trace.macs_per_token(),
            intensity,
            compute_us,
            hbm_us,
            match bound {
                Bound::Compute => "compute",
                Bound::Memory => "memory",
            },
            (intensity / ridge).min(1.0) * 100.0,
        );
    }

    println!("\nLT-B ridge point: {ridge:.1} MACs per HBM byte");
    println!("observations (matching the paper's Section VI-B):");
    println!(" - at batch 1 the HBM-bound time dwarfs photonic compute: decoding is");
    println!("   memory-bound and the ultra-fast optics sit underutilized;");
    println!(" - batching raises arithmetic intensity past the ridge point;");
    println!(" - KV-cache growth is linear in context; recomputing K/V trades cheap");
    println!("   optical MACs for HBM bytes, exactly the remedy the paper suggests.");
}
