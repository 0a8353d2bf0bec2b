//! Dataflow sweep (the DxPTA-style design-space question): for every
//! paper benchmark, play its trace through the tile scheduler under
//! each [`DataflowPolicy`] and report cycles, utilization, HBM traffic,
//! and the stall breakdown — then name the best loop order.

use lt_arch::{ArchConfig, DataflowPolicy, Simulator, TraceSchedule};
use lt_core::Trace;
use lt_workloads::{DecodeTrace, TransformerConfig};

fn row(name: &str, sched: &TraceSchedule) -> String {
    let t = sched.total;
    format!(
        "  {name:<18} {:>10} cy  {:>5.1}% util  {:>8.2} MB HBM  \
         compute {:>5.1}%  bw-stall {:>5.1}%  fill {:>5.2}%  {:>10.3} us",
        t.cycles,
        t.utilization * 100.0,
        sched.hbm_traffic / 1e6,
        t.stalls.compute.value() / t.latency.value().max(1e-30) * 100.0,
        t.stalls.bandwidth.value() / t.latency.value().max(1e-30) * 100.0,
        t.stalls.fill.value() / t.latency.value().max(1e-30) * 100.0,
        t.latency.value() * 1e3,
    )
}

fn sweep(out: &mut String, title: &str, sim: &Simulator, trace: &Trace) {
    out.push_str(&format!("{title}\n"));
    let mut best: Option<(DataflowPolicy, f64)> = None;
    for policy in DataflowPolicy::ALL {
        let sched = sim.schedule_trace(trace, policy);
        out.push_str(&row(policy.name(), &sched));
        out.push('\n');
        let ms = sched.total.latency.value();
        if best.is_none_or(|(_, b)| ms < b) {
            best = Some((policy, ms));
        }
    }
    let (policy, _) = best.expect("three policies ran");
    out.push_str(&format!("  -> best dataflow: {policy}\n\n"));
}

/// The `dataflow` experiment: best-dataflow table per paper benchmark
/// (prefill on LT-B 4-bit) plus the autoregressive decode regime
/// (GPT2-small, context 512, batch 1 and 16, LT-B 8-bit).
pub fn dataflow() -> String {
    let mut out = String::from(
        "Dataflow sweep: every benchmark trace scheduled under each loop order.\n\
         Cycles are loop-order invariant; traffic, stalls, and wall-clock are not.\n\n",
    );
    let sim = Simulator::new(ArchConfig::lt_base(4));
    for model in TransformerConfig::paper_benchmarks() {
        sweep(
            &mut out,
            &format!("{} on LT-B 4-bit (prefill)", model.name),
            &sim,
            &model.trace(),
        );
    }
    let sim8 = Simulator::new(ArchConfig::lt_base(8));
    for batch in [1usize, 16] {
        let trace = DecodeTrace::new(TransformerConfig::gpt2_small(1), 512, batch).op_trace();
        sweep(
            &mut out,
            &format!("GPT2-small decode ctx=512 batch={batch} on LT-B 8-bit"),
            &sim8,
            &trace,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_benchmark_and_policy() {
        let out = dataflow();
        for name in ["DeiT-T", "DeiT-S", "DeiT-B", "BERT-base", "BERT-large"] {
            assert!(out.contains(name), "missing {name}");
        }
        for policy in DataflowPolicy::ALL {
            assert!(out.contains(policy.name()), "missing {policy}");
        }
        assert!(out.contains("decode ctx=512 batch=16"));
        assert!(out.contains("best dataflow"));
    }
}
