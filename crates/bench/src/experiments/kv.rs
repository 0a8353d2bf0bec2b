//! Paged-KV memory-pressure experiment: a starved block pool serving
//! more sessions than it can hold resident, with prefix sharing on.
//!
//! Drives the synchronous [`KvScheduler`] (the same engine behind
//! `DecodeServer`'s workers) over a fixed request mix with duplicated
//! prompts, then replays every decode-step trace through the tile
//! scheduler to split the HBM bandwidth stalls into KV traffic vs.
//! everything else. All reported numbers are deterministic (exact
//! backend, fixed submission order), so `BENCH_repro.json` gates them.

use lt_arch::{ArchConfig, Simulator};
use lt_core::trace::{NonGemmKind, Op};
use lt_core::{GaussianSampler, NativeBackend};
use lt_nn::decode::{DecoderConfig, DecoderLm, SessionConfig};
use lt_nn::kv::PreemptPolicy;
use lt_nn::serve::decode::DecodeRequest;
use lt_nn::serve::sched::{KvSchedStats, KvScheduler, KvServeConfig};

/// Everything the pressure run measured; consumed by both the `repro
/// kv` text report and the `BENCH_repro.json` `kv` section.
#[derive(Debug, Clone)]
pub struct KvPressureReport {
    /// Blocks in the (deliberately starved) pool.
    pub pool_blocks: usize,
    /// Tokens per KV block.
    pub block_tokens: usize,
    /// Sessions submitted.
    pub sessions: usize,
    /// Sessions that completed (must equal `sessions`).
    pub served: usize,
    /// Scheduler counters at completion.
    pub stats: KvSchedStats,
    /// HBM bytes moved by KV append/read ops across all decode steps.
    pub kv_hbm_bytes: f64,
    /// HBM bandwidth-stall time attributable to KV ops (ms).
    pub kv_bandwidth_stall_ms: f64,
    /// Total HBM bandwidth-stall time across the decode steps (ms).
    pub bandwidth_stall_ms: f64,
}

impl KvPressureReport {
    /// Preemptions per scheduler tick.
    pub fn preemption_rate(&self) -> f64 {
        self.stats.preemptions as f64 / (self.stats.ticks as f64).max(1.0)
    }

    /// Share of decode bandwidth stalls caused by KV-cache traffic.
    pub fn kv_bandwidth_stall_frac(&self) -> f64 {
        if self.bandwidth_stall_ms == 0.0 {
            0.0
        } else {
            self.kv_bandwidth_stall_ms / self.bandwidth_stall_ms
        }
    }
}

/// Runs the fixed pressure scenario: 12 sessions (3 distinct prompts,
/// each submitted 4 times) through a pool one block above the legal
/// minimum, LT-B 8-bit, block size 4, swap-out preemption, prefix
/// sharing on.
pub fn measure() -> KvPressureReport {
    let mut rng = GaussianSampler::new(17);
    let model_cfg = DecoderConfig::tiny();
    let model = DecoderLm::new(model_cfg, &mut rng);
    let arch = ArchConfig::lt_base(8);
    let sim = Simulator::new(arch.clone());

    let kv = KvServeConfig {
        block_tokens: 4,
        pool_blocks: model_cfg.max_seq.div_ceil(4) + 2,
        prefix_sharing: true,
        preempt: PreemptPolicy::SwapOut,
    };
    let session_config = SessionConfig {
        kv_bits: arch.precision_bits,
        ..SessionConfig::default()
    };
    let mut sched = KvScheduler::new(&model, &sim, NativeBackend, session_config, kv, 16);

    let prompts: [&[usize]; 3] = [
        &[3, 1, 4, 1, 5, 9, 2, 6],
        &[2, 7, 1, 8],
        &[0, 5, 5, 0, 2, 5],
    ];
    let sessions = 12;
    for ticket in 0..sessions as u64 {
        sched.submit(
            ticket,
            DecodeRequest {
                prompt: prompts[ticket as usize % prompts.len()].to_vec(),
                max_new_tokens: 10,
            },
        );
    }

    let bits = arch.precision_bits as u64;
    let mut served = 0;
    let (mut kv_bytes, mut kv_stall, mut bw_stall) = (0.0f64, 0.0f64, 0.0f64);
    while sched.has_work() {
        let outcome = sched
            .tick()
            .expect("repro kv: the starved-pool scheduler has work but cannot make progress");
        for trace in &outcome.step_traces {
            let s = sim.schedule_trace(trace, sim.config().dataflow);
            for (op, r) in trace.ops().iter().zip(&s.per_op) {
                let stall = r.stalls.bandwidth.value();
                bw_stall += stall;
                if let Op::NonGemm { kind, elems } = op {
                    if matches!(kind, NonGemmKind::KvAppend | NonGemmKind::KvRead) {
                        kv_stall += stall;
                        kv_bytes += (elems * bits) as f64 / 8.0;
                    }
                }
            }
        }
        served += sched.drain_finished().len();
        assert!(sched.drain_failed().is_empty(), "no request may fail");
    }

    assert_eq!(served, sessions, "repro kv: every session must complete");
    KvPressureReport {
        pool_blocks: kv.pool_blocks,
        block_tokens: kv.block_tokens,
        sessions,
        served,
        stats: *sched.stats(),
        kv_hbm_bytes: kv_bytes,
        kv_bandwidth_stall_ms: kv_stall,
        bandwidth_stall_ms: bw_stall,
    }
}

/// The `kv` experiment: paged-KV pressure metrics as a text report.
pub fn kv() -> String {
    let r = measure();
    let s = &r.stats;
    format!(
        "Paged KV-cache under memory pressure (LT-B 8-bit, swap-out, prefix sharing on)\n\
         pool: {} blocks x {} tokens; {} sessions submitted, {} served\n\n\
         residency   peak {} sessions resident on the starved pool\n\
         preemption  {} preemptions / {} resumes over {} ticks (rate {:.3}/tick)\n\
         swap        {} elems out, {} elems back in (bit-exact restore)\n\
         sharing     {} prefix hits saved {} blocks / {} tokens of writes\n\
         kv traffic  {:.3} MB over HBM; {:.1}% of decode bandwidth stalls\n\
         decoded     {} tokens\n",
        r.pool_blocks,
        r.block_tokens,
        r.sessions,
        r.served,
        s.peak_resident_sessions,
        s.preemptions,
        s.resumes,
        s.ticks,
        r.preemption_rate(),
        s.swapped_out_elems,
        s.swapped_in_elems,
        s.prefix_hits,
        s.prefix_shared_blocks,
        s.prefix_shared_tokens,
        r.kv_hbm_bytes / 1e6,
        r.kv_bandwidth_stall_frac() * 100.0,
        s.decoded_tokens,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_starved_pool_exercises_every_metric() {
        let r = measure();
        assert_eq!(r.served, r.sessions, "every session must complete");
        assert!(r.stats.preemptions > 0, "the pool must be under pressure");
        assert_eq!(r.stats.preemptions, r.stats.resumes);
        assert!(r.stats.peak_resident_sessions >= 2);
        assert!(r.stats.prefix_hits > 0, "duplicate prompts must share");
        assert!(r.stats.prefix_shared_blocks > 0);
        assert!(r.kv_hbm_bytes > 0.0, "KV traffic must reach the HBM model");
        let frac = r.kv_bandwidth_stall_frac();
        assert!(
            (0.0..=1.0).contains(&frac) && frac > 0.0,
            "KV stall share must be a positive fraction, got {frac}"
        );
    }

    #[test]
    fn the_text_report_names_the_headline_numbers() {
        let out = kv();
        for key in ["preemption", "sharing", "kv traffic", "bit-exact"] {
            assert!(out.contains(key), "missing {key}");
        }
    }

    #[test]
    fn the_run_is_deterministic() {
        let a = measure();
        let b = measure();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.kv_hbm_bytes, b.kv_hbm_bytes);
        assert_eq!(a.kv_bandwidth_stall_ms, b.kv_bandwidth_stall_ms);
    }
}
