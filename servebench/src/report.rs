//! Metric assembly, the result line, and `serve_open`'s calibration.

use crate::refclock::Timeline;
use crate::stats::{median, peak_rss_mb, percentile_f64, percentile_ps, quartile_spread};
use crate::workloads::{self, Pass, Spans};
use lt_arch::Simulator;
use lt_core::NativeBackend;
use lt_nn::serve::lifecycle::{RequestLifecycle, RequestOutcome, SloFrontend};

/// One reported number.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Simulated picoseconds per simulated second.
const PS_PER_S: f64 = 1e12;

/// Lifecycle summary of one pass, in simulated time.
struct Lifecycle {
    completed: usize,
    rejected: usize,
    stranded: usize,
    tokens: u64,
    good_tokens: u64,
    ttft: Vec<u64>,
    tpot: Vec<f64>,
    queue_wait: Vec<u64>,
    prefill: Vec<u64>,
    max_queue_depth: usize,
}

fn lifecycle(records: &[RequestLifecycle]) -> Lifecycle {
    let mut life = Lifecycle {
        completed: 0,
        rejected: 0,
        stranded: 0,
        tokens: 0,
        good_tokens: 0,
        ttft: Vec::new(),
        tpot: Vec::new(),
        queue_wait: Vec::new(),
        prefill: Vec::new(),
        max_queue_depth: 0,
    };
    // Queue depth: +1 at arrival, -1 at admission, evaluated after every
    // event sharing a timestamp.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for r in records {
        match r.outcome {
            RequestOutcome::Completed => {
                life.completed += 1;
                life.tokens += r.tokens.len() as u64;
                if r.met_deadline() {
                    life.good_tokens += r.tokens.len() as u64;
                }
                life.ttft.extend(r.ttft_ps());
                if let (Some(first), Some(done)) = (r.first_token_ps, r.finished_ps) {
                    if r.tokens.len() > 1 {
                        life.tpot
                            .push((done - first) as f64 / (r.tokens.len() - 1) as f64);
                    }
                }
            }
            RequestOutcome::Rejected => life.rejected += 1,
            RequestOutcome::Pending => life.stranded += 1,
            RequestOutcome::Failed => {}
        }
        if r.outcome == RequestOutcome::Rejected {
            continue;
        }
        events.push((r.arrival_ps, 1));
        if let Some(admitted) = r.admitted_ps {
            events.push((admitted, -1));
            life.queue_wait.push(admitted - r.arrival_ps);
            if let Some(first) = r.first_token_ps {
                life.prefill.push(first - admitted);
            }
        }
    }
    events.sort_unstable();
    let mut depth = 0i64;
    for (i, &(at, delta)) in events.iter().enumerate() {
        depth += delta;
        if events.get(i + 1).is_none_or(|&(next, _)| next != at) {
            life.max_queue_depth = life.max_queue_depth.max(depth.max(0) as usize);
        }
    }
    life
}

fn per_s(count: u64, elapsed_ps: u64) -> f64 {
    count as f64 * PS_PER_S / elapsed_ps.max(1) as f64
}

/// The end-to-end metrics (`--trace 0`).
pub fn end_to_end(pass: &Pass, setup_s: f64, host_s: f64) -> Vec<Metric> {
    let life = lifecycle(&pass.records);
    vec![
        metric("setup_s", "s", setup_s),
        metric("host_s", "s", host_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(0.0)),
        metric(
            "served_frac",
            "ratio",
            life.completed as f64 / pass.records.len().max(1) as f64,
        ),
        metric(
            "sim_tokens_per_s",
            "1/s",
            per_s(life.tokens, pass.elapsed_ps),
        ),
        metric("ttft_p50_ps", "ps", percentile_ps(&life.ttft, 50.0)),
        metric("tpot_p50_ps", "ps", percentile_f64(&life.tpot, 50.0)),
        metric("tpot_p90_ps", "ps", percentile_f64(&life.tpot, 90.0)),
        metric(
            "goodput_tokens_per_s",
            "1/s",
            per_s(life.good_tokens, pass.elapsed_ps),
        ),
    ]
}

/// The per-layer metrics (`--trace 1`) of the median traced pass, whose
/// raw wall time is `traced_s`; `overhead_frac` compares the traced and
/// untraced medians in reference-speed seconds. Layer timings are raw
/// wall seconds, and `host.*` gives the untraced passes' raw wall and
/// reference-kernel medians they can be read against. A reading a
/// workload does not expose is reported as 0 (README.md lists which
/// layers each workload observes).
pub fn per_layer(
    pass: &Pass,
    spans: &Spans,
    traced_s: f64,
    overhead_frac: f64,
    untraced: &Timeline,
) -> Vec<Metric> {
    let layer = |name: &str| {
        pass.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let life = lifecycle(&pass.records);
    let backend = spans
        .backend
        .as_ref()
        .expect("traced passes time the backend");
    let backend_s = backend.host_s();
    let tick_s: f64 = spans.ticks_s.iter().sum::<f64>() + spans.frontend_s;
    let ticks_us: Vec<f64> = spans.ticks_s.iter().map(|s| s * 1e6).collect();
    let count = |name: &'static str| metric(name, "count", layer(name));
    let ratio = |name: &'static str| metric(name, "ratio", layer(name));
    vec![
        metric("backend.calls", "count", backend.calls() as f64),
        metric("backend.macs", "count", backend.macs() as f64),
        metric("backend.host_s", "s", backend_s),
        metric("backend.share", "ratio", backend_s / traced_s),
        metric(
            "backend.macs_per_host_s",
            "1/s",
            backend.macs() as f64 / backend_s.max(f64::MIN_POSITIVE),
        ),
        count("sched.ticks"),
        metric("sched.tick_host_s", "s", tick_s),
        metric("sched.self_host_s", "s", tick_s - backend_s),
        metric("sched.tick_p50_us", "us", percentile_f64(&ticks_us, 50.0)),
        metric("sched.tick_p99_us", "us", percentile_f64(&ticks_us, 99.0)),
        ratio("sched.sessions_per_tick"),
        count("sched.preemptions"),
        count("sched.resumes"),
        count("sched.swapped_elems"),
        count("sched.decoded_tokens"),
        count("sched.peak_resident"),
        ratio("kv.used_frac_mean"),
        ratio("kv.used_frac_max"),
        count("spec.proposed"),
        count("spec.accepted"),
        ratio("spec.acceptance_rate"),
        count("spec.draft_cycles"),
        count("spec.verify_cycles"),
        metric(
            "frontend.ttft_p95_ps",
            "ps",
            percentile_ps(&life.ttft, 95.0),
        ),
        metric(
            "frontend.queue_wait_p50_ps",
            "ps",
            percentile_ps(&life.queue_wait, 50.0),
        ),
        metric(
            "frontend.queue_wait_p99_ps",
            "ps",
            percentile_ps(&life.queue_wait, 99.0),
        ),
        metric(
            "frontend.max_queue_depth",
            "count",
            life.max_queue_depth as f64,
        ),
        metric(
            "frontend.prefill_p50_ps",
            "ps",
            percentile_ps(&life.prefill, 50.0),
        ),
        metric("frontend.completed", "count", life.completed as f64),
        metric("frontend.rejected", "count", life.rejected as f64),
        metric("frontend.stranded", "count", life.stranded as f64),
        count("frontend.ticks"),
        count("frontend.preemptions"),
        metric("trace.merge_host_s", "s", spans.merge_s),
        count("trace.merged_ops"),
        metric("arch.replay_host_s", "s", spans.replay_s),
        count("arch.replays"),
        count("arch.cache_hits"),
        count("arch.cache_misses"),
        count("arch.sim_cycles"),
        ratio("arch.bandwidth_stall_frac"),
        ratio("arch.utilization"),
        metric(
            "arch.energy_per_token_mj",
            "mJ",
            layer("arch.energy_per_token_mj"),
        ),
        metric("traced.coverage", "ratio", spans.covered_s() / traced_s),
        metric("traced.overhead_frac", "ratio", overhead_frac),
        metric("host.wall_s", "s", median(&untraced.wall_s)),
        metric("host.ref_s", "s", median(&untraced.ref_s)),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`. It is
/// only printed once every correctness gate passed.
pub fn json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Seeds of the calibration traces (seed 1 for capacity, all of them
/// for the load table's medians and spreads).
const CALIBRATION_SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// `--calibrate`: `serve_open`'s closed-loop capacity at concurrency
/// 2 x `max_active`, then the open-loop table at offered loads of 0.5,
/// 0.7, 0.9 and 1.2 x that capacity: each cell is the median over the
/// calibration seeds, and the spread columns are the interquartile
/// range over the median. Run once when the workload's shape changes;
/// the chosen rate is then stored as a constant.
pub fn calibrate() {
    let model = workloads::serve_model();
    let seed = *CALIBRATION_SEEDS.start();
    let config = workloads::serve_config(seed);
    let requests = workloads::SERVE_REQUESTS;
    let concurrency = 2 * workloads::SERVE_MAX_ACTIVE;
    let trace = workloads::serve_requests(seed, 1.0, requests);
    let sim = Simulator::new(config.arch.clone());
    let (_, closed) =
        SloFrontend::new(&model, &sim, NativeBackend, &config).run_closed(&trace, concurrency);
    let capacity = closed.completed as f64 * PS_PER_S / closed.elapsed_ps as f64;
    println!(
        "closed loop: {} requests at concurrency {concurrency}: {:.0} req/s, {:.0} tokens/s (simulated)",
        closed.completed,
        capacity,
        per_s(closed.generated_tokens, closed.elapsed_ps)
    );
    println!(
        "| rho | rate (req/s) | mean gap (us) | TTFT p50 / p95 / p99 (ps) | p50 / p95 spread | TPOT p50 / p90 (ps) | queue wait p99 (ps) | goodput (tokens/s) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for rho in [0.3, 0.5, 0.9, 1.2] {
        let rate = rho * capacity;
        let mut cells: Vec<[f64; 7]> = Vec::new();
        for seed in CALIBRATION_SEEDS {
            let trace = workloads::serve_requests(seed, rate, requests);
            let sim = Simulator::new(config.arch.clone());
            let (records, report) =
                SloFrontend::new(&model, &sim, NativeBackend, &config).run_open(&trace);
            let life = lifecycle(&records);
            cells.push([
                percentile_ps(&life.ttft, 50.0),
                percentile_ps(&life.ttft, 95.0),
                percentile_ps(&life.ttft, 99.0),
                percentile_f64(&life.tpot, 50.0),
                percentile_f64(&life.tpot, 90.0),
                percentile_ps(&life.queue_wait, 99.0),
                per_s(life.good_tokens, report.elapsed_ps),
            ]);
        }
        let column = |i: usize| cells.iter().map(|c| c[i]).collect::<Vec<f64>>();
        let med = |i: usize| median(&column(i));
        println!(
            "| {rho} | {rate:.0} | {:.2} | {:.0} / {:.0} / {:.0} | {:.3} / {:.3} | {:.0} / {:.0} | {:.0} | {:.0} |",
            1e6 / rate,
            med(0),
            med(1),
            med(2),
            quartile_spread(&column(0)),
            quartile_spread(&column(1)),
            med(3),
            med(4),
            med(5),
            med(6),
        );
    }
}
