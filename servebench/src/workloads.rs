//! The three workloads: their fixed shapes, their seeded inputs, one
//! pass of each, and the correctness gates a pass must clear.
//!
//! A pass is deterministic for a given seed: every simulated quantity
//! (picosecond stamps, cycles, energy, counters) and every token repeats
//! bit for bit, so only host time varies between passes.

use crate::refclock::SharedTimeline;
use crate::stats::SplitMix;
use crate::timed::{BackendCounters, Timed};
use lt_arch::{ArchConfig, CycleClock, RunReport, Simulator};
use lt_core::{ComputeBackend, GaussianSampler, NativeBackend, Trace};
use lt_dptc::DptcBackend;
use lt_nn::decode::{DecodeSession, DecoderConfig, DecoderLm, SessionConfig};
use lt_nn::kv::PreemptPolicy;
use lt_nn::serve::decode::{DecodeRequest, DecodeServeConfig};
use lt_nn::serve::lifecycle::{RequestLifecycle, RequestOutcome, SloFrontend};
use lt_nn::serve::sched::{KvScheduler, KvServeConfig, TickOutcome};
use lt_runtime::loadgen::{ArrivalModel, GenRequest, LengthMix, LoadgenConfig, SloMix};
use std::rc::Rc;
use std::time::Instant;

/// Operand precision of the modeled accelerator (LT-B, 8-bit).
const BITS: u32 = 8;

/// Seed of the model weights. Weights are part of the program, not of
/// the workload: only the request trace follows `--seed`.
const WEIGHT_SEED: u64 = 17;

/// `serve_open`'s decoder: a mid-size model whose decode step costs
/// ~µs of simulated time, so a Poisson arrival stream at the knee of
/// the capacity curve stays above the loadgen's 1 µs timestamp
/// resolution (the tiny decoder would need sub-µs gaps).
pub const SERVE_MODEL: DecoderConfig = DecoderConfig {
    dim: 128,
    layers: 2,
    heads: 4,
    ffn_dim: 256,
    vocab: 64,
    max_seq: 32,
};

/// Continuous-batch width of the serving frontend.
pub const SERVE_MAX_ACTIVE: usize = 2;

/// Requests in one `serve_open` pass (enough that more than ten TTFT
/// samples lie beyond p95).
pub const SERVE_REQUESTS: usize = 1000;

/// Offered load of `serve_open`, requests per simulated second: about
/// 0.5 x the closed-loop capacity measured by `--calibrate` (see the
/// benchmark's README for why not 0.9). Stored as an absolute number so a change to the
/// modeled cost cannot change the workload's input.
pub const SERVE_RATE_PER_S: f64 = 510_000.0;

/// TTFT deadline of the interactive class, simulated microseconds.
pub const SERVE_TTFT_DEADLINE_US: u64 = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson arrivals through `SloFrontend::run_open`.
    ServeOpen,
    /// Offline batch on the noisy DPTC backend with a starved KV pool.
    DptcPressure,
    /// Offline batch-1 speculative decoding, k = 4.
    SpecB1,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeOpen,
        Workload::DptcPressure,
        Workload::SpecB1,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve_open",
            Workload::DptcPressure => "dptc_pressure",
            Workload::SpecB1 => "spec_b1",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The scheduler settings of an offline workload.
struct Offline {
    model: DecoderConfig,
    kv: KvServeConfig,
    max_active: usize,
    prefill_chunk: usize,
    spec_k: usize,
    requests: usize,
    lengths: LengthMix,
}

fn offline_plan(workload: Workload) -> Offline {
    match workload {
        // Tiny geometry on the noisy DPTC: per-op overhead and noise
        // sampling dominate host time. The pool is one block above the
        // legal minimum for a 48-token context, so sixteen concurrent
        // sessions force swap-out preemptions; chunked prefill keeps
        // long prompts from stalling running sessions.
        Workload::DptcPressure => Offline {
            model: DecoderConfig::tiny(),
            kv: KvServeConfig {
                block_tokens: 4,
                pool_blocks: DecoderConfig::tiny().max_seq.div_ceil(4) + 2,
                prefix_sharing: false,
                preempt: PreemptPolicy::SwapOut,
            },
            max_active: 16,
            prefill_chunk: 4,
            spec_k: 0,
            requests: 200,
            lengths: LengthMix::uniform((8, 16), (8, 12)),
        },
        // `repro spec`'s batch-1 point: the tapered tiny decoder, k = 4,
        // a roomy pool so only the draft/verify/rollback path works.
        Workload::SpecB1 => Offline {
            model: DecoderConfig::tiny(),
            kv: KvServeConfig {
                block_tokens: 4,
                pool_blocks: 128,
                ..KvServeConfig::default()
            },
            max_active: 1,
            prefill_chunk: 0,
            spec_k: 4,
            requests: 400,
            lengths: LengthMix::uniform((4, 8), (20, 24)),
        },
        Workload::ServeOpen => unreachable!("serve_open is not an offline workload"),
    }
}

/// Residual gain of the target's deep blocks on `spec_b1` (as in
/// `repro spec`), so the self-speculative draft agrees often enough to
/// pay.
const TAPER_GAIN: f32 = 0.25;

/// Everything a pass needs, built once per process.
#[derive(Debug)]
pub struct Setup {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed (`--seed`).
    pub seed: u64,
    /// The model under test.
    pub model: DecoderLm,
    /// The generated request trace, id order.
    pub requests: Vec<GenRequest>,
}

/// `serve_open`'s request trace at an arbitrary offered rate (the
/// calibration sweep varies the rate; the workload fixes it).
pub fn serve_requests(seed: u64, rate_per_s: f64, requests: usize) -> Vec<GenRequest> {
    LoadgenConfig {
        seed,
        requests,
        vocab: SERVE_MODEL.vocab,
        arrival: ArrivalModel::Poisson { rate_per_s },
        lengths: LengthMix::uniform((2, 6), (4, 12)),
        slo: SloMix::interactive_standard_batch(SERVE_TTFT_DEADLINE_US),
    }
    .generate()
}

/// `serve_open`'s model.
pub fn serve_model() -> DecoderLm {
    DecoderLm::new(SERVE_MODEL, &mut GaussianSampler::new(WEIGHT_SEED))
}

/// Builds the model and the seeded request trace.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let (model, requests) = match workload {
        Workload::ServeOpen => (
            serve_model(),
            serve_requests(seed, SERVE_RATE_PER_S, SERVE_REQUESTS),
        ),
        _ => {
            let plan = offline_plan(workload);
            let mut model = DecoderLm::new(plan.model, &mut GaussianSampler::new(WEIGHT_SEED));
            if plan.spec_k > 0 {
                model.taper_deep_blocks(TAPER_GAIN);
            }
            // Offline: the whole batch is submitted at t = 0, so the
            // arrival model is irrelevant; only prompts and lengths
            // are used.
            let requests = LoadgenConfig {
                seed,
                requests: plan.requests,
                vocab: plan.model.vocab,
                arrival: ArrivalModel::Poisson { rate_per_s: 1.0 },
                lengths: plan.lengths,
                slo: SloMix::all_standard(),
            }
            .generate();
            (model, requests)
        }
    };
    Setup {
        workload,
        seed,
        model,
        requests,
    }
}

/// Host seconds of `f`, measured only when `on` (untraced passes make
/// no clock reads inside the workload).
fn span<T>(on: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if !on {
        return (f(), 0.0);
    }
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Host-time spans a traced pass records around each layer call made
/// from the benchmark's own code.
#[derive(Debug, Default)]
pub struct Spans {
    /// Whether spans are recorded.
    pub on: bool,
    /// One entry per `KvScheduler::tick` call (offline workloads).
    pub ticks_s: Vec<f64>,
    /// `Trace::batch_rows{,_ragged}` + `coalesce` of every tick.
    pub merge_s: f64,
    /// `Simulator::run_trace` of every merged tick.
    pub replay_s: f64,
    /// The whole `SloFrontend::run_open` call (`serve_open`).
    pub frontend_s: f64,
    /// Backend counters of the traced pass.
    pub backend: Option<Rc<BackendCounters>>,
}

impl Spans {
    /// Spans switched on.
    pub fn traced() -> Self {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    /// Host seconds covered by the top-level spans.
    pub fn covered_s(&self) -> f64 {
        self.ticks_s.iter().sum::<f64>() + self.merge_s + self.replay_s + self.frontend_s
    }
}

/// What one pass produced. Everything here is deterministic for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Per-request lifecycles in id order, tokens included.
    pub records: Vec<RequestLifecycle>,
    /// Simulated picoseconds from trace start to the last tick.
    pub elapsed_ps: u64,
    /// Per-layer counts and simulated quantities, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Blocks still held in the KV pool after the pass.
    pub pool_used_blocks: usize,
}

/// Runs one pass of the setup's workload. An untraced pass lets
/// `timeline` sample the reference kernel between backend calls; with
/// `spans.on` the pass goes through the counting wrapper, records every
/// span and is timed at its ends only, since a kernel sample inside a
/// tick would land in the tick's span.
pub fn run_pass(setup: &Setup, spans: &mut Spans, timeline: &SharedTimeline) -> Pass {
    match setup.workload {
        Workload::DptcPressure => {
            with_backend(setup, DptcBackend::paper(BITS, setup.seed), spans, timeline)
        }
        _ => with_backend(setup, NativeBackend, spans, timeline),
    }
}

fn with_backend<B: ComputeBackend + Clone>(
    setup: &Setup,
    backend: B,
    spans: &mut Spans,
    timeline: &SharedTimeline,
) -> Pass {
    if !spans.on {
        return dispatch(setup, Timed::paced(backend, Rc::clone(timeline)), spans);
    }
    let timed = Timed::counting(backend);
    spans.backend = timed.counters();
    dispatch(setup, timed, spans)
}

fn dispatch<B: ComputeBackend + Clone>(setup: &Setup, backend: B, spans: &mut Spans) -> Pass {
    match setup.workload {
        Workload::ServeOpen => serve_open(setup, backend, spans),
        _ => offline(setup, backend, spans),
    }
}

/// `serve_open`'s frontend configuration.
pub fn serve_config(seed: u64) -> DecodeServeConfig {
    DecodeServeConfig {
        workers: 1,
        max_active: SERVE_MAX_ACTIVE,
        seed,
        arch: ArchConfig::lt_base(BITS),
        // Roomy: every in-flight session fits twice over, so the pool
        // never preempts and this workload only appends and reads.
        kv: KvServeConfig {
            block_tokens: 16,
            pool_blocks: 2 * SERVE_MAX_ACTIVE * (SERVE_MODEL.max_seq.div_ceil(16) + 1),
            ..KvServeConfig::default()
        },
        ..DecodeServeConfig::default()
    }
}

fn serve_open<B: ComputeBackend + Clone>(setup: &Setup, backend: B, spans: &mut Spans) -> Pass {
    let config = serve_config(setup.seed);
    let sim = Simulator::new(config.arch.clone());
    let ((records, report), secs) = span(spans.on, || {
        SloFrontend::new(&setup.model, &sim, backend, &config).run_open(&setup.requests)
    });
    spans.frontend_s += secs;
    let cache = sim.schedule_cache_stats();
    // Every completed request's first token comes from its prefill; the
    // rest are decode steps, one per stepped session per tick.
    let decoded = report.generated_tokens - report.completed as u64;
    Pass {
        records,
        elapsed_ps: report.elapsed_ps,
        layers: vec![
            ("sched.ticks", report.ticks as f64),
            (
                "sched.sessions_per_tick",
                decoded as f64 / report.ticks.max(1) as f64,
            ),
            ("sched.preemptions", report.preemptions as f64),
            ("sched.decoded_tokens", decoded as f64),
            ("frontend.ticks", report.ticks as f64),
            ("frontend.preemptions", report.preemptions as f64),
            ("arch.cache_hits", cache.hits as f64),
            ("arch.cache_misses", cache.misses as f64),
        ],
        pool_used_blocks: 0,
    }
}

/// Merges one tick's traces the way the serving frontend costs a tick:
/// exact row-stacking on the plain path, ragged stacking (padding
/// charged) with the draft traces riding along under speculation.
fn merge_tick(outcome: &TickOutcome, spec: bool) -> Trace {
    let traces = outcome
        .prefill_traces
        .iter()
        .chain(outcome.step_traces.iter());
    if spec {
        Trace::batch_rows_ragged(traces.chain(outcome.draft_traces.iter())).coalesce()
    } else {
        Trace::batch_rows(traces).coalesce()
    }
}

fn pending(request: &GenRequest) -> RequestLifecycle {
    RequestLifecycle {
        id: request.id,
        class: request.class,
        ttft_deadline_us: request.ttft_deadline_us,
        arrival_ps: 0,
        admitted_ps: None,
        first_token_ps: None,
        finished_ps: None,
        itl_ps: Vec::new(),
        tokens: Vec::new(),
        outcome: RequestOutcome::Pending,
    }
}

/// The offline driver: the whole batch is submitted at t = 0, then the
/// benchmark's own loop ticks the scheduler, merges and replays each
/// tick on a simulated clock, and stamps admission, first token and
/// completion like the frontend does.
/// A tick that returns `None` while work remains ends the pass: what is
/// left counts as stranded instead of being spun on.
fn offline<B: ComputeBackend + Clone>(setup: &Setup, backend: B, spans: &mut Spans) -> Pass {
    let plan = offline_plan(setup.workload);
    let sim = Simulator::new(ArchConfig::lt_base(BITS));
    let session_config = SessionConfig {
        seed: setup.seed,
        kv_bits: BITS,
        ..SessionConfig::default()
    };
    let mut sched = KvScheduler::new(
        &setup.model,
        &sim,
        backend,
        session_config,
        plan.kv,
        plan.max_active,
    )
    .with_prefill_chunk(plan.prefill_chunk);
    if plan.spec_k > 0 {
        sched = sched.with_speculation(plan.spec_k);
    }
    let mut records: Vec<RequestLifecycle> = setup.requests.iter().map(pending).collect();
    for r in &setup.requests {
        sched.submit(
            r.id as u64,
            DecodeRequest {
                prompt: r.prompt.clone(),
                max_new_tokens: r.max_new_tokens,
            },
        );
    }

    let mut clock = CycleClock::new();
    let mut total = RunReport::default();
    let (mut tick_calls, mut stepped, mut replays, mut merged_ops) = (0u64, 0u64, 0u64, 0u64);
    let (mut used_sum, mut used_max) = (0.0f64, 0.0f64);
    while sched.has_work() {
        let start_ps = clock.now_ps();
        let (outcome, secs) = span(spans.on, || sched.tick());
        if spans.on {
            spans.ticks_s.push(secs);
        }
        tick_calls += 1;
        let Some(outcome) = outcome else {
            break;
        };
        for &t in &outcome.admitted {
            records[t as usize].admitted_ps = Some(start_ps);
        }
        if !outcome.prefill_traces.is_empty() || !outcome.step_traces.is_empty() {
            let (merged, secs) = span(spans.on, || merge_tick(&outcome, plan.spec_k > 0));
            spans.merge_s += secs;
            let (cost, secs) = span(spans.on, || sim.run_trace(&merged));
            spans.replay_s += secs;
            clock.advance(&cost);
            total.merge(&cost);
            replays += 1;
            merged_ops += merged.len() as u64;
        }
        let now = clock.now_ps();
        for &t in &outcome.first_tokens {
            records[t as usize].first_token_ps = Some(now);
        }
        stepped += outcome.stepped.len() as u64;
        for (t, reply) in sched.drain_finished() {
            let record = &mut records[t as usize];
            record.finished_ps = Some(now);
            record.tokens = reply.tokens;
            record.outcome = RequestOutcome::Completed;
        }
        for t in sched.drain_failed() {
            records[t as usize].outcome = RequestOutcome::Failed;
        }
        let pool = sched.pool();
        let used = pool.used_blocks() as f64 / pool.total_blocks() as f64;
        used_sum += used;
        used_max = used_max.max(used);
    }

    let stats = sched.stats();
    let tokens: usize = records.iter().map(|r| r.tokens.len()).sum();
    let latency_ms = total.latency.value();
    let cache = sim.schedule_cache_stats();
    Pass {
        elapsed_ps: clock.now_ps(),
        layers: vec![
            ("sched.ticks", stats.ticks as f64),
            (
                "sched.sessions_per_tick",
                stepped as f64 / stats.ticks.max(1) as f64,
            ),
            ("sched.preemptions", stats.preemptions as f64),
            ("sched.resumes", stats.resumes as f64),
            (
                "sched.swapped_elems",
                (stats.swapped_out_elems + stats.swapped_in_elems) as f64,
            ),
            ("sched.decoded_tokens", stats.decoded_tokens as f64),
            ("sched.peak_resident", stats.peak_resident_sessions as f64),
            ("kv.used_frac_mean", used_sum / tick_calls.max(1) as f64),
            ("kv.used_frac_max", used_max),
            ("spec.proposed", stats.spec.proposed as f64),
            ("spec.accepted", stats.spec.accepted as f64),
            ("spec.acceptance_rate", stats.spec.acceptance_rate()),
            ("spec.draft_cycles", stats.spec.draft_cycles as f64),
            ("spec.verify_cycles", stats.spec.verify_cycles as f64),
            ("frontend.ticks", stats.ticks as f64),
            ("frontend.preemptions", stats.preemptions as f64),
            ("trace.merged_ops", merged_ops as f64),
            ("arch.replays", replays as f64),
            ("arch.cache_hits", cache.hits as f64),
            ("arch.cache_misses", cache.misses as f64),
            ("arch.sim_cycles", total.cycles as f64),
            (
                "arch.bandwidth_stall_frac",
                if latency_ms > 0.0 {
                    total.stalls.bandwidth.value() / latency_ms
                } else {
                    0.0
                },
            ),
            ("arch.utilization", total.utilization),
            (
                "arch.energy_per_token_mj",
                total.energy.total().value() / tokens.max(1) as f64,
            ),
        ],
        pool_used_blocks: sched.pool().used_blocks(),
        records,
    }
}

/// Requests the correctness gate re-decodes standalone.
const GATE_SAMPLE: usize = 6;

/// Decodes `request` alone through a plain-greedy [`DecodeSession`] on
/// the exact backend — the reference for `serve_open` and `spec_b1`.
fn reference_tokens(model: &DecoderLm, request: &GenRequest) -> Vec<usize> {
    let sim = Simulator::new(ArchConfig::lt_base(BITS));
    let mut session = DecodeSession::new(
        model,
        request.id as u64,
        request.prompt.clone(),
        request.max_new_tokens,
        NativeBackend,
        SessionConfig::default(),
    );
    session.prefill(model, &sim);
    while !session.is_done() {
        session.step(model, &sim);
    }
    session.into_reply().tokens
}

/// The correctness gates of one pass.
///
/// * Every completed reply has exactly the requested length.
/// * `serve_open`, `spec_b1`: a seeded sample of completed requests
///   decodes to the same tokens as a standalone plain-greedy session.
/// * `dptc_pressure` (noisy, so no token digest): every request
///   completed or failed — none stranded — and the pool ends empty.
pub fn check(setup: &Setup, pass: &Pass) -> Result<(), String> {
    for (record, request) in pass.records.iter().zip(&setup.requests) {
        if record.outcome == RequestOutcome::Completed
            && record.tokens.len() != request.max_new_tokens
        {
            return Err(format!(
                "request {} returned {} of {} tokens",
                request.id,
                record.tokens.len(),
                request.max_new_tokens
            ));
        }
    }
    match setup.workload {
        Workload::DptcPressure => {
            let stranded = pass
                .records
                .iter()
                .filter(|r| r.outcome == RequestOutcome::Pending)
                .count();
            if stranded > 0 {
                return Err(format!("{stranded} requests neither completed nor failed"));
            }
            if pass.pool_used_blocks > 0 {
                return Err(format!(
                    "{} KV blocks still held after the pass",
                    pass.pool_used_blocks
                ));
            }
        }
        Workload::ServeOpen | Workload::SpecB1 => {
            let completed: Vec<&RequestLifecycle> = pass
                .records
                .iter()
                .filter(|r| r.outcome == RequestOutcome::Completed)
                .collect();
            for i in SplitMix::new(setup.seed).sample(completed.len(), GATE_SAMPLE) {
                let record = completed[i];
                let expected = reference_tokens(&setup.model, &setup.requests[record.id]);
                if record.tokens != expected {
                    return Err(format!(
                        "request {} decoded {:?}, plain greedy decodes {:?}",
                        record.id, record.tokens, expected
                    ));
                }
            }
        }
    }
    Ok(())
}
