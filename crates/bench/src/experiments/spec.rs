//! Speculative-decoding experiment: does draft-k speculation beat
//! plain per-token decode in *replayed target-model cycles per
//! generated token* on a bandwidth-starved photonic core?
//!
//! Drives the synchronous [`KvScheduler`] in speculative mode over a
//! fixed request mix at batch 1 and batch 8, sweeping k∈{0,2,4,8}
//! (k=0 is the plain baseline). Each tick's verify traces are merged
//! with [`Trace::batch_rows_ragged`] and replayed through the tile
//! scheduler — exactly the costing the serving frontend uses — while
//! the draft model's traces are replayed *separately*, so the draft
//! overhead is itemized, never hidden inside the target's win.
//!
//! The target is the tiny validation decoder with its deep blocks
//! tapered ([`DecoderLm::taper_deep_blocks`], gain [`TAPER_GAIN`]): a
//! random-init model has none of a trained LM's layer-wise refinement,
//! so the taper is the documented synthetic stand-in that gives the
//! self-speculative draft (the untapered first half of the stack) a
//! realistic greedy-agreement rate. Bit-identity of the output stream
//! holds at any gain; only the *economics* depend on it, and the
//! measured acceptance rate is reported next to every cycle count.
//!
//! Everything runs on the exact backend with fixed seeds, so all
//! fields are deterministic and `BENCH_repro.json`'s `speculation`
//! section gates them.

use lt_arch::{ArchConfig, Simulator};
use lt_core::trace::Trace;
use lt_core::{GaussianSampler, NativeBackend};
use lt_nn::decode::{DecoderConfig, DecoderLm, SessionConfig};
use lt_nn::serve::decode::DecodeRequest;
use lt_nn::serve::sched::{KvScheduler, KvServeConfig};

/// The swept speculation depths; `0` is the plain-decode baseline.
pub const SPEC_KS: [usize; 4] = [0, 2, 4, 8];

/// Residual gain applied to the target's deep (non-draft) blocks so
/// the random-init model exhibits a trained-LM-like draft agreement.
pub const TAPER_GAIN: f32 = 0.25;

/// Tokens each session generates.
pub const MAX_NEW_TOKENS: usize = 24;

/// One (batch, k) cell of the sweep: scheduler counters plus the
/// tick-merged replay split into target vs. draft work.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRow {
    /// Speculation depth (`0` = plain decode).
    pub k: usize,
    /// Concurrent sessions.
    pub batch: usize,
    /// Decode ticks the scheduler ran.
    pub ticks: u64,
    /// Tokens generated across all sessions.
    pub decoded_tokens: u64,
    /// Replayed cycles of the target model's tick-batched decode work
    /// (plain steps at k=0, batched verify passes otherwise).
    pub target_cycles: u64,
    /// Replayed cycles of the draft model's proposal passes (0 at k=0).
    pub draft_cycles: u64,
    /// Draft tokens proposed.
    pub proposed: u64,
    /// Draft tokens the target agreed with.
    pub accepted: u64,
    /// HBM bandwidth-stall time inside the target's decode windows (ms).
    pub bandwidth_stall_ms: f64,
    /// Total latency of the target's decode windows (ms).
    pub latency_ms: f64,
}

impl SpecRow {
    /// Target-model cycles per generated token — the headline metric.
    pub fn target_cycles_per_token(&self) -> f64 {
        self.target_cycles as f64 / (self.decoded_tokens as f64).max(1.0)
    }

    /// Draft-model cycles per generated token (the itemized overhead).
    pub fn draft_cycles_per_token(&self) -> f64 {
        self.draft_cycles as f64 / (self.decoded_tokens as f64).max(1.0)
    }

    /// Target + draft cycles per generated token.
    pub fn total_cycles_per_token(&self) -> f64 {
        self.target_cycles_per_token() + self.draft_cycles_per_token()
    }

    /// Fraction of draft proposals the target accepted (0 at k=0).
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }

    /// Share of the target's decode windows stalled on HBM bandwidth.
    pub fn bandwidth_stall_frac(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            self.bandwidth_stall_ms / self.latency_ms
        }
    }
}

/// The full sweep, consumed by `repro spec` and the JSON section.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSweepReport {
    /// The k sweep at batch 1, in [`SPEC_KS`] order.
    pub batch1: Vec<SpecRow>,
    /// The k sweep at batch 8, in [`SPEC_KS`] order.
    pub batch8: Vec<SpecRow>,
}

impl SpecSweepReport {
    /// The acceptance-criterion headline: plain-decode target cycles
    /// per token over speculative target cycles per token at batch 1,
    /// k=4 (draft overhead itemized separately, by construction).
    pub fn b1_k4_target_reduction(&self) -> f64 {
        let base = &self.batch1[0];
        let spec = self
            .batch1
            .iter()
            .find(|r| r.k == 4)
            .expect("k=4 is in the sweep");
        base.target_cycles_per_token() / spec.target_cycles_per_token()
    }
}

/// Eight distinct prompts (first `batch` are used) over the tiny
/// decoder's 16-symbol vocabulary.
const PROMPTS: [&[usize]; 8] = [
    &[3, 1, 4, 1, 5, 9],
    &[2, 7, 1, 8, 2, 8, 1, 8],
    &[1, 6, 1, 8, 0],
    &[14, 2, 13, 5, 6, 2, 3],
    &[0, 5, 5, 0, 2, 5],
    &[9, 8, 9, 6, 2, 6, 5, 3],
    &[11, 11, 7, 4],
    &[12, 0, 10, 3, 15, 1],
];

/// Runs one (batch, k) cell: `batch` sessions through the tapered tiny
/// decoder on a roomy pool, LT-B 8-bit replay, exact backend.
fn measure_cell(batch: usize, k: usize) -> SpecRow {
    let mut rng = GaussianSampler::new(11);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    model.taper_deep_blocks(TAPER_GAIN);
    let arch = ArchConfig::lt_base(8);
    let sim = Simulator::new(arch.clone());

    let kv = KvServeConfig {
        block_tokens: 4,
        pool_blocks: 128, // roomy: the sweep measures compute, not pressure
        ..KvServeConfig::default()
    };
    let session_config = SessionConfig {
        kv_bits: arch.precision_bits,
        ..SessionConfig::default()
    };
    let mut sched = KvScheduler::new(&model, &sim, NativeBackend, session_config, kv, batch);
    if k > 0 {
        sched = sched.with_speculation(k);
    }
    for ticket in 0..batch as u64 {
        sched.submit(
            ticket,
            DecodeRequest {
                prompt: PROMPTS[ticket as usize].to_vec(),
                max_new_tokens: MAX_NEW_TOKENS,
            },
        );
    }

    let (mut target_cycles, mut draft_cycles) = (0u64, 0u64);
    let (mut bw_stall, mut latency) = (0.0f64, 0.0f64);
    while sched.has_work() {
        let outcome = sched
            .tick()
            .expect("repro spec: the speculative scheduler has work but cannot make progress");
        if !outcome.step_traces.is_empty() {
            // The same tick-merge the serving frontend costs: exact
            // row-stacking for plain steps, ragged (padding charged)
            // for mixed-context verify blocks.
            let merged = if k > 0 {
                Trace::batch_rows_ragged(&outcome.step_traces).coalesce()
            } else {
                Trace::batch_rows(&outcome.step_traces).coalesce()
            };
            let r = sim.run_trace(&merged);
            target_cycles += r.cycles;
            bw_stall += r.stalls.bandwidth.value();
            latency += r.latency.value();
        }
        let drafts: Vec<&Trace> = outcome
            .draft_traces
            .iter()
            .filter(|t| !t.is_empty())
            .collect();
        if !drafts.is_empty() {
            let merged = Trace::batch_rows_ragged(drafts).coalesce();
            draft_cycles += sim.run_trace(&merged).cycles;
        }
        sched.drain_finished();
        assert!(sched.drain_failed().is_empty(), "no request may fail");
    }

    let stats = sched.stats();
    SpecRow {
        k,
        batch,
        ticks: stats.ticks,
        decoded_tokens: stats.decoded_tokens,
        target_cycles,
        draft_cycles,
        proposed: stats.spec.proposed,
        accepted: stats.spec.accepted,
        bandwidth_stall_ms: bw_stall,
        latency_ms: latency,
    }
}

/// Runs the full fixed sweep: k∈[`SPEC_KS`] at batch 1 and batch 8.
pub fn measure() -> SpecSweepReport {
    let sweep = |batch| SPEC_KS.iter().map(|&k| measure_cell(batch, k)).collect();
    SpecSweepReport {
        batch1: sweep(1),
        batch8: sweep(8),
    }
}

/// `repro spec` — the per-k cycles-per-token table at both batch
/// sizes, with the batch-1 k=4 headline reduction.
pub fn spec() -> String {
    render(&measure())
}

/// Renders a measured sweep as the per-k table (shared by `repro spec`
/// and the `llm_speculative` example's summary).
pub fn render(r: &SpecSweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Speculative decoding sweep: tapered tiny decoder (deep-block gain {TAPER_GAIN}),\n\
         self-speculative draft (first half of the stack), {MAX_NEW_TOKENS} tokens/session,\n\
         LT-B 8-bit replay, exact backend. k=0 is the plain-decode baseline;\n\
         target and draft cycles are replayed and itemized separately.\n"
    ));
    for (batch, rows) in [(1usize, &r.batch1), (8, &r.batch8)] {
        out.push_str(&format!(
            "\nbatch {batch}\n{:<4}{:>10}{:>14}{:>13}{:>13}{:>9}{:>10}\n",
            "k", "ticks", "target c/tok", "draft c/tok", "total c/tok", "accept", "bw stall"
        ));
        for row in rows.iter() {
            out.push_str(&format!(
                "{:<4}{:>10}{:>14.1}{:>13.1}{:>13.1}{:>9.3}{:>9.1}%\n",
                row.k,
                row.ticks,
                row.target_cycles_per_token(),
                row.draft_cycles_per_token(),
                row.total_cycles_per_token(),
                row.acceptance_rate(),
                row.bandwidth_stall_frac() * 100.0,
            ));
        }
    }
    out.push_str(&format!(
        "\nbatch-1 k=4 target-cycle reduction: {:.2}x (acceptance criterion: >= 1.5x)\n\
         token streams are bit-identical to plain greedy decode at every k.\n",
        r.b1_k4_target_reduction()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_meets_the_speculation_acceptance_criterion() {
        let r = measure();
        // Every cell decodes the full workload.
        for (batch, rows) in [(1usize, &r.batch1), (8, &r.batch8)] {
            for row in rows.iter() {
                assert_eq!(row.batch, batch);
                // The first token of each session is sampled by the
                // prefill, so decode steps produce `max_new - 1`.
                assert_eq!(row.decoded_tokens, (batch * (MAX_NEW_TOKENS - 1)) as u64);
                assert!(row.target_cycles > 0);
                if row.k == 0 {
                    assert_eq!(row.draft_cycles, 0, "plain decode drafts nothing");
                    assert_eq!(row.proposed, 0);
                } else {
                    assert!(row.draft_cycles > 0, "draft work must be itemized");
                    assert!(row.proposed > 0);
                    assert!(row.accepted <= row.proposed);
                    assert!(
                        row.acceptance_rate() > 0.1,
                        "tapered target must accept a useful share, got {}",
                        row.acceptance_rate()
                    );
                }
                let frac = row.bandwidth_stall_frac();
                assert!((0.0..=1.0).contains(&frac), "stall frac {frac}");
            }
        }
        // The headline gate: >= 1.5x fewer target cycles per token at
        // batch 1, k=4, with the draft itemized separately.
        let reduction = r.b1_k4_target_reduction();
        assert!(
            reduction >= 1.5,
            "batch-1 k=4 target-cycle reduction {reduction:.2}x < 1.5x"
        );
        // Speculation must also save whole scheduler ticks.
        let k4 = r.batch1.iter().find(|row| row.k == 4).unwrap();
        assert!(k4.ticks < r.batch1[0].ticks);
    }

    #[test]
    fn the_sweep_is_deterministic() {
        assert_eq!(measure(), measure());
    }

    #[test]
    fn the_text_report_names_the_headline_numbers() {
        let out = spec();
        for key in [
            "batch 1",
            "batch 8",
            "target c/tok",
            "draft c/tok",
            "accept",
            "reduction",
            "bit-identical",
        ] {
            assert!(out.contains(key), "missing {key}");
        }
    }
}
