//! SLO-aware serving frontend: a deterministic, single-threaded event
//! loop over the paged-KV scheduler that stamps every request's
//! lifecycle — arrival, admission, prefill, token streaming,
//! completion — in *simulated* accelerator time.
//!
//! The wall clock of a host running the simulator is noise; the
//! latency that the paper's accelerator model predicts is signal. So
//! the frontend drives one [`KvScheduler`] tick at a time, costs each
//! tick with [`TickOutcome::cost`](crate::serve::sched::TickOutcome::cost)
//! — the same batched merge and replay the threaded
//! [`crate::serve::decode::DecodeServer`] charges — and advances a
//! [`CycleClock`] by the replayed latency.
//! Every timestamp below — TTFT, inter-token gaps, completion — is an
//! integer count of simulated **picoseconds** (the clock's native
//! resolution; a tiny model's whole run can fit inside one
//! microsecond), which makes the whole serving report bit-stable
//! across hosts, thread counts, and reruns: it can be asserted in CI.
//! Workload inputs (arrivals, deadlines) stay in microseconds at the
//! [`lt_runtime::loadgen`] boundary and convert exactly
//! (`1 us = 10^6 ps`).
//!
//! # Admission
//!
//! Arrivals wait in one FIFO per [`SloClass`], and free scheduler slots
//! are filled from the highest class first, so an
//! [`SloClass::Interactive`] request overtakes waiting
//! [`SloClass::Batch`] work while FIFO order is kept within a class. A
//! request whose TTFT deadline is shorter than its prompt's *analytic
//! minimum prefill latency* ([`DecoderConfig::prefill_trace`] replayed
//! through the simulator — a lower bound that assumes zero queueing)
//! can never be served in time and is rejected at arrival instead of
//! wasting pool blocks to miss anyway.
//!
//! # Chunked prefill
//!
//! With [`DecodeServeConfig::prefill_chunk_tokens`] set, a long prompt
//! prefills in bounded pieces interleaved with everyone else's decode
//! steps (see [`KvScheduler::with_prefill_chunk`]), which caps the
//! inter-token latency a burst of long prompts can inflict on a
//! running session — `tests/serving_slo.rs` pins that bound, and pins
//! the replies bit-identical to the unchunked path.

use crate::decode::{DecoderConfig, DecoderLm, SpecSessionStats};
use crate::serve::decode::{DecodeRequest, DecodeServeConfig};
use crate::serve::sched::KvScheduler;
use lt_arch::{CycleClock, Simulator};
use lt_core::ComputeBackend;
use lt_runtime::loadgen::{GenRequest, LatencyStats};
use lt_runtime::SloClass;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Picoseconds per microsecond (the loadgen/lifecycle unit boundary).
const PS_PER_US: u64 = 1_000_000;

/// Where a request ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Still in flight (only seen mid-run; a final report never holds it).
    Pending,
    /// Rejected at arrival: its TTFT deadline is below the prompt's
    /// analytic minimum prefill latency, so serving it could only miss.
    Rejected,
    /// Failed in the scheduler (malformed prompt, or a prompt needing
    /// more KV blocks than the whole pool).
    Failed,
    /// Served to completion.
    Completed,
}

/// One request's stamped lifecycle, every timestamp in simulated
/// picoseconds from trace start (tick-granular: events are stamped at
/// the end of the scheduler tick that produced them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLifecycle {
    /// The request's id in the submitted trace.
    pub id: usize,
    /// Service class used for admission ordering.
    pub class: SloClass,
    /// TTFT deadline in **microseconds**, if the request carried one
    /// (kept in the loadgen's unit).
    pub ttft_deadline_us: Option<u64>,
    /// When the request arrived (entered the admission queue).
    pub arrival_ps: u64,
    /// When the frontend moved it from the queue into the scheduler.
    pub admitted_ps: Option<u64>,
    /// When its first token was sampled (prefill completed).
    pub first_token_ps: Option<u64>,
    /// When its last token was sampled.
    pub finished_ps: Option<u64>,
    /// Gaps between consecutive generated tokens, in order.
    pub itl_ps: Vec<u64>,
    /// The generated tokens (empty unless [`RequestOutcome::Completed`]).
    pub tokens: Vec<usize>,
    /// Final disposition.
    pub outcome: RequestOutcome,
}

impl RequestLifecycle {
    fn new(request: &GenRequest) -> Self {
        RequestLifecycle {
            id: request.id,
            class: request.class,
            ttft_deadline_us: request.ttft_deadline_us,
            arrival_ps: request.arrival_us * PS_PER_US,
            admitted_ps: None,
            first_token_ps: None,
            finished_ps: None,
            itl_ps: Vec::new(),
            tokens: Vec::new(),
            outcome: RequestOutcome::Pending,
        }
    }

    /// Time-to-first-token: first token stamp minus arrival.
    pub fn ttft_ps(&self) -> Option<u64> {
        self.first_token_ps.map(|t| t - self.arrival_ps)
    }

    /// Whether the first token landed within the deadline (a request
    /// without a deadline trivially hits; one without a first token
    /// trivially misses).
    pub fn met_deadline(&self) -> bool {
        match (self.ttft_deadline_us, self.ttft_ps()) {
            (Some(deadline_us), Some(ttft_ps)) => ttft_ps <= deadline_us * PS_PER_US,
            (None, Some(_)) => true,
            _ => false,
        }
    }
}

/// Aggregate serving metrics over one run — every field is a
/// deterministic integer function of the workload and the model, so
/// the whole struct can be compared against a committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingReport {
    /// Requests submitted.
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at arrival (impossible deadline).
    pub rejected: usize,
    /// Requests that failed in the scheduler.
    pub failed: usize,
    /// Completed requests whose TTFT met their deadline (deadline-less
    /// completions count as hits).
    pub deadline_hits: usize,
    /// Completed requests whose TTFT missed their deadline.
    pub deadline_misses: usize,
    /// TTFT percentiles over completed requests, picoseconds.
    pub ttft_ps: LatencyStats,
    /// Inter-token-latency percentiles over all completed requests'
    /// token gaps, picoseconds.
    pub itl_ps: LatencyStats,
    /// Tokens generated by completed requests.
    pub generated_tokens: u64,
    /// Simulated picoseconds from trace start to last completion.
    pub elapsed_ps: u64,
    /// Generated tokens per simulated second (integer floor).
    pub tokens_per_s: u64,
    /// Tokens per simulated second counting only deadline-hitting
    /// requests — the throughput that actually honored the SLO.
    pub goodput_tokens_per_s: u64,
    /// Scheduler preemptions during the run.
    pub preemptions: u64,
    /// Scheduler ticks that stepped at least one session.
    pub ticks: u64,
    /// The scheduler's speculation counters (all zero when
    /// speculation is off).
    pub spec: SpecSessionStats,
}

/// The event-loop frontend. One instance runs one workload trace; see
/// the [module docs](self).
pub struct SloFrontend<'m, B: ComputeBackend + Clone> {
    sched: KvScheduler<'m, B>,
    sim: &'m Simulator,
    model_config: DecoderConfig,
    clock: CycleClock,
    records: BTreeMap<usize, RequestLifecycle>,
    /// Arrived, not yet admitted requests: one FIFO per class, indexed
    /// by [`SloClass::rank`].
    waiting: [VecDeque<(usize, DecodeRequest)>; 3],
    ticket_of: HashMap<u64, usize>,
    last_token_ps: HashMap<u64, u64>,
    next_ticket: u64,
    min_prefill_ps: BTreeMap<usize, u64>,
}

impl<B: ComputeBackend + Clone> std::fmt::Debug for SloFrontend<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloFrontend")
            .field("now_ps", &self.clock.now_ps())
            .field("in_flight", &self.ticket_of.len())
            .finish_non_exhaustive()
    }
}

impl<'m, B: ComputeBackend + Clone> SloFrontend<'m, B> {
    /// Builds a frontend over `model`, costed by `sim` (which must be
    /// built from `config.arch`), running GEMMs through `backend`.
    /// `config.workers` is ignored: the frontend
    /// is a single deterministic event loop, which is what makes its
    /// latency stamps CI-gateable.
    pub fn new(
        model: &'m DecoderLm,
        sim: &'m Simulator,
        backend: B,
        config: &DecodeServeConfig,
    ) -> Self {
        SloFrontend {
            sched: config.scheduler(model, sim, backend),
            sim,
            model_config: model.config(),
            clock: CycleClock::new(),
            records: BTreeMap::new(),
            waiting: Default::default(),
            ticket_of: HashMap::new(),
            last_token_ps: HashMap::new(),
            next_ticket: 0,
            min_prefill_ps: BTreeMap::new(),
        }
    }

    /// The analytic lower bound on a prompt's prefill latency in
    /// picoseconds: [`DecoderConfig::prefill_trace`] replayed through
    /// the simulator, memoized per prompt length.
    fn min_prefill_ps(&mut self, prompt_len: usize) -> u64 {
        if let Some(&ps) = self.min_prefill_ps.get(&prompt_len) {
            return ps;
        }
        let trace = self.model_config.prefill_trace(prompt_len);
        let report = self.sim.run_trace(&trace);
        let ps = (report.latency.value() * 1e9).round() as u64;
        self.min_prefill_ps.insert(prompt_len, ps);
        ps
    }

    /// Whether `request`'s deadline is impossible even with zero
    /// queueing — grounds for rejection at arrival. Prompts the
    /// scheduler will fail anyway (empty, over-long) are not judged
    /// here.
    fn deadline_impossible(&mut self, request: &GenRequest) -> bool {
        let len = request.prompt.len();
        if len == 0 || len > self.model_config.max_seq {
            return false;
        }
        match request.ttft_deadline_us {
            Some(deadline_us) => {
                (deadline_us as u128) * (PS_PER_US as u128) < self.min_prefill_ps(len) as u128
            }
            None => false,
        }
    }

    /// Runs `requests` open-loop: each arrives at its own
    /// `arrival_us`, regardless of how the server is keeping up.
    /// Returns the per-request lifecycles (id order) and the aggregate
    /// report.
    pub fn run_open(mut self, requests: &[GenRequest]) -> (Vec<RequestLifecycle>, ServingReport) {
        let mut order: Vec<&GenRequest> = requests.iter().collect();
        order.sort_by_key(|r| (r.arrival_us, r.id));
        let mut next_arrival = 0usize;
        loop {
            while next_arrival < order.len()
                && order[next_arrival].arrival_us * PS_PER_US <= self.clock.now_ps()
            {
                let request = order[next_arrival];
                next_arrival += 1;
                self.arrive(request, request.arrival_us * PS_PER_US);
            }
            self.admit_waiting();
            if !self.advance_one_tick() {
                if next_arrival < order.len() {
                    // Idle: jump straight to the next arrival.
                    self.clock.advance_to_us(order[next_arrival].arrival_us);
                    continue;
                }
                // Drained, or no progress possible (a stuck backlog can
                // only mean a scheduler invariant broke): stop rather
                // than spin.
                break;
            }
            self.settle();
        }
        self.finish()
    }

    /// Runs `requests` closed-loop with `concurrency` synthetic users:
    /// the first `concurrency` requests arrive immediately and each
    /// completion (or failure) releases the next request in id order —
    /// arrival timestamps in the trace are ignored.
    pub fn run_closed(
        mut self,
        requests: &[GenRequest],
        concurrency: usize,
    ) -> (Vec<RequestLifecycle>, ServingReport) {
        let concurrency = concurrency.max(1);
        let mut order: Vec<&GenRequest> = requests.iter().collect();
        order.sort_by_key(|r| r.id);
        let mut next = 0usize;
        let mut in_flight = 0usize;
        loop {
            while next < order.len() && in_flight < concurrency {
                let request = order[next];
                next += 1;
                if self.arrive(request, self.clock.now_ps()) {
                    in_flight += 1;
                }
            }
            self.admit_waiting();
            let ticked = self.advance_one_tick();
            // Settle even after an empty tick: requests that failed
            // admission leave through it, and their users come back.
            in_flight = in_flight.saturating_sub(self.settle());
            if !ticked {
                let idle = self.waiting.iter().all(VecDeque::is_empty) && !self.sched.has_work();
                if idle && next < order.len() {
                    continue; // release the next user(s)
                }
                break; // drained, or a stuck backlog: stop rather than spin
            }
        }
        self.finish()
    }

    /// Registers an arrival stamped `arrival_ps` and queues it in its
    /// class; returns whether it was queued (not rejected).
    fn arrive(&mut self, request: &GenRequest, arrival_ps: u64) -> bool {
        let mut record = RequestLifecycle::new(request);
        record.arrival_ps = arrival_ps;
        let queued = !self.deadline_impossible(request);
        if queued {
            self.waiting[request.class.rank() as usize].push_back((
                request.id,
                DecodeRequest {
                    prompt: request.prompt.clone(),
                    max_new_tokens: request.max_new_tokens,
                },
            ));
        } else {
            record.outcome = RequestOutcome::Rejected;
        }
        self.records.insert(request.id, record);
        queued
    }

    /// Moves waiting requests into the scheduler, highest class first,
    /// up to the scheduler's free in-flight slots.
    fn admit_waiting(&mut self) {
        let now = self.clock.now_ps();
        for _ in 0..self.sched.free_slots() {
            let Some((id, request)) = self.waiting.iter_mut().find_map(VecDeque::pop_front) else {
                return;
            };
            // Fresh monotonic scheduler tickets in admission order keep
            // the scheduler's ticket-ordering invariants intact even
            // though classes reorder the queue.
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.ticket_of.insert(ticket, id);
            self.records.get_mut(&id).expect("arrived").admitted_ps = Some(now);
            self.sched.submit(ticket, request);
        }
    }

    /// One scheduler tick: advances the clock by the tick's replayed
    /// latency (`TickOutcome::cost`) and stamps first-token /
    /// inter-token boundaries. Returns whether the scheduler did
    /// anything.
    fn advance_one_tick(&mut self) -> bool {
        let Some(outcome) = self.sched.tick() else {
            return false;
        };
        if let Some(cost) = outcome.cost(self.sim) {
            self.clock.advance(&cost);
        }
        let now = self.clock.now_ps();
        for ticket in outcome.first_tokens {
            let id = self.ticket_of[&ticket];
            let record = self.records.get_mut(&id).expect("admitted");
            record.first_token_ps = Some(now);
            self.last_token_ps.insert(ticket, now);
        }
        for (ticket, emitted) in outcome.stepped.iter().zip(&outcome.emitted) {
            let id = self.ticket_of[ticket];
            let last = self
                .last_token_ps
                .insert(*ticket, now)
                .expect("first token stamped");
            let record = self.records.get_mut(&id).expect("admitted");
            record.itl_ps.push(now - last);
            // A speculative step materializes its extra tokens at the
            // same tick boundary: the gap lands on the first one and
            // the accepted rest stream out with zero inter-token gap —
            // exactly the latency shape speculation buys.
            for _ in 1..*emitted {
                record.itl_ps.push(0);
            }
        }
        true
    }

    /// Retires finished and failed requests; returns how many left the
    /// system.
    fn settle(&mut self) -> usize {
        let now = self.clock.now_ps();
        let mut done = 0;
        for (ticket, reply) in self.sched.drain_finished() {
            let id = self.ticket_of.remove(&ticket).expect("admitted");
            self.last_token_ps.remove(&ticket);
            let record = self.records.get_mut(&id).expect("admitted");
            record.finished_ps = Some(now);
            record.tokens = reply.tokens;
            record.outcome = RequestOutcome::Completed;
            done += 1;
        }
        for ticket in self.sched.drain_failed() {
            let id = self.ticket_of.remove(&ticket).expect("admitted");
            self.last_token_ps.remove(&ticket);
            self.records.get_mut(&id).expect("admitted").outcome = RequestOutcome::Failed;
            done += 1;
        }
        done
    }

    /// Final sweep and aggregation.
    fn finish(mut self) -> (Vec<RequestLifecycle>, ServingReport) {
        self.settle();
        let stats = *self.sched.stats();
        let records: Vec<RequestLifecycle> = self.records.into_values().collect();
        let mut report = ServingReport {
            requests: records.len(),
            completed: 0,
            rejected: 0,
            failed: 0,
            deadline_hits: 0,
            deadline_misses: 0,
            ttft_ps: LatencyStats::default(),
            itl_ps: LatencyStats::default(),
            generated_tokens: 0,
            elapsed_ps: self.clock.now_ps(),
            tokens_per_s: 0,
            goodput_tokens_per_s: 0,
            preemptions: stats.preemptions,
            ticks: stats.ticks,
            spec: stats.spec,
        };
        let mut ttfts = Vec::new();
        let mut itls = Vec::new();
        let mut good_tokens = 0u64;
        for record in &records {
            match record.outcome {
                RequestOutcome::Completed => {
                    report.completed += 1;
                    report.generated_tokens += record.tokens.len() as u64;
                    if record.met_deadline() {
                        report.deadline_hits += 1;
                        good_tokens += record.tokens.len() as u64;
                    } else {
                        report.deadline_misses += 1;
                    }
                    if let Some(ttft) = record.ttft_ps() {
                        ttfts.push(ttft);
                    }
                    itls.extend_from_slice(&record.itl_ps);
                }
                RequestOutcome::Rejected => report.rejected += 1,
                _ => report.failed += 1,
            }
        }
        report.ttft_ps = LatencyStats::from_samples(&ttfts);
        report.itl_ps = LatencyStats::from_samples(&itls);
        // 1 s = 10^12 ps; u128 keeps token * 10^12 from overflowing.
        let elapsed = report.elapsed_ps.max(1) as u128;
        report.tokens_per_s =
            ((report.generated_tokens as u128 * 1_000_000_000_000) / elapsed) as u64;
        report.goodput_tokens_per_s = ((good_tokens as u128 * 1_000_000_000_000) / elapsed) as u64;
        (records, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::sched::KvServeConfig;
    use lt_core::{GaussianSampler, NativeBackend};
    use lt_runtime::loadgen::LoadgenConfig;

    fn model() -> DecoderLm {
        let mut rng = GaussianSampler::new(5);
        DecoderLm::new(DecoderConfig::tiny(), &mut rng)
    }

    fn config() -> DecodeServeConfig {
        DecodeServeConfig {
            max_active: 4,
            kv: KvServeConfig {
                block_tokens: 4,
                pool_blocks: 64,
                ..KvServeConfig::default()
            },
            ..DecodeServeConfig::default()
        }
    }

    fn request(id: usize, arrival_us: u64, class: SloClass, deadline: Option<u64>) -> GenRequest {
        GenRequest {
            id,
            arrival_us,
            prompt: vec![1, 2, 3, 4, 5],
            max_new_tokens: 3,
            class,
            ttft_deadline_us: deadline,
        }
    }

    #[test]
    fn an_open_loop_run_is_deterministic_and_serves_everyone() {
        let m = model();
        let cfg = config();
        let sim = Simulator::new(cfg.arch.clone());
        let requests = LoadgenConfig::smoke(11, 10).generate();
        let (rec_a, rep_a) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
        let (rec_b, rep_b) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
        assert_eq!(rep_a, rep_b, "same workload, same simulated metrics");
        assert_eq!(rec_a, rec_b, "same workload, same lifecycles");
        assert_eq!(rec_a.len(), 10);
        assert_eq!(rep_a.requests, 10);
        assert_eq!(rep_a.completed + rep_a.rejected + rep_a.failed, 10);
        assert!(rep_a.completed > 0, "the smoke workload must mostly serve");
        for r in &rec_a {
            if r.outcome == RequestOutcome::Completed {
                let admitted = r.admitted_ps.expect("completed implies admitted");
                let first = r.first_token_ps.expect("completed implies first token");
                let finished = r.finished_ps.expect("completed implies finished");
                assert!(admitted >= r.arrival_ps);
                assert!(first >= admitted);
                assert!(finished >= first);
                assert_eq!(
                    r.itl_ps.len() + 1,
                    r.tokens.len(),
                    "one gap per token after the first"
                );
            }
        }
    }

    #[test]
    fn impossible_deadlines_are_rejected_at_arrival() {
        let m = model();
        let cfg = config();
        let sim = Simulator::new(cfg.arch.clone());
        let requests = vec![
            request(0, 0, SloClass::Interactive, Some(0)), // can never prefill in 0 us
            request(1, 0, SloClass::Interactive, Some(10_000_000)),
        ];
        let (records, report) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
        assert_eq!(records[0].outcome, RequestOutcome::Rejected);
        assert_eq!(records[0].admitted_ps, None, "rejected before admission");
        assert_eq!(records[1].outcome, RequestOutcome::Completed);
        assert!(records[1].met_deadline());
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.deadline_hits, 1);
    }

    #[test]
    fn admission_is_class_rank_then_arrival_order() {
        // One slot admits one request at a time, so admission order is
        // queue order: interactive, standard, batch, FIFO within a
        // class — and a late interactive arrival overtakes the batch
        // work still waiting when it arrives.
        use SloClass::{Batch, Interactive, Standard};
        let m = model();
        let mut cfg = config();
        cfg.max_active = 1;
        let sim = Simulator::new(cfg.arch.clone());
        let classes = [
            Batch,
            Standard,
            Interactive,
            Interactive,
            Batch,
            Standard,
            Batch,
            Batch,
        ];
        let mut requests: Vec<GenRequest> = (0..classes.len())
            .map(|id| request(id, 0, classes[id], None))
            .chain([request(8, 1, Interactive, None)])
            .map(|r| GenRequest {
                max_new_tokens: 40, // ~1 us each: the late arrival finds a queue
                ..r
            })
            .collect();
        let (records, report) = SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
        assert_eq!(report.completed, 9);
        requests.sort_by_key(|r| records[r.id].admitted_ps);
        let order: Vec<usize> = requests.iter().map(|r| r.id).collect();
        // Request 8 arrives while 3 runs and is admitted right after it.
        assert!(records[3].admitted_ps < Some(records[8].arrival_ps));
        assert_eq!(order, [2, 3, 8, 1, 5, 0, 4, 6, 7]);
    }

    #[test]
    fn a_speculative_run_serves_the_same_tokens_with_acceptance_accounting() {
        let m = model();
        let cfg = config();
        let sim = Simulator::new(cfg.arch.clone());
        let requests = LoadgenConfig::smoke(11, 10).generate();
        let (plain_rec, plain_rep) =
            SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_open(&requests);
        let spec_cfg = DecodeServeConfig { spec_k: 4, ..cfg };
        let (spec_rec, spec_rep) =
            SloFrontend::new(&m, &sim, NativeBackend, &spec_cfg).run_open(&requests);
        assert_eq!(spec_rep.completed, plain_rep.completed);
        assert_eq!(spec_rep.generated_tokens, plain_rep.generated_tokens);
        for (a, b) in plain_rec.iter().zip(&spec_rec) {
            assert_eq!(a.tokens, b.tokens, "speculation never changes tokens");
            assert_eq!(a.outcome, b.outcome);
            if b.outcome == RequestOutcome::Completed {
                assert_eq!(
                    b.itl_ps.len() + 1,
                    b.tokens.len(),
                    "one gap per token after the first, even when a tick emits several"
                );
            }
        }
        assert_eq!(
            plain_rep.spec,
            SpecSessionStats::default(),
            "plain run has no speculation"
        );
        let spec = spec_rep.spec;
        assert!(spec.spec_steps > 0, "speculative run must speculate");
        assert!(spec.proposed > 0);
        assert_eq!(
            spec.emitted,
            spec.accepted + spec.spec_steps,
            "each step emits its accepted prefix plus one bonus/correction"
        );
        assert!(spec.draft_cycles > 0, "draft overhead is itemized");
        assert!(spec.verify_cycles > 0);
        assert!(
            spec_rep.ticks <= plain_rep.ticks,
            "accepted tokens save ticks"
        );
        // Determinism of the whole speculative report.
        let (rec2, rep2) = SloFrontend::new(&m, &sim, NativeBackend, &spec_cfg).run_open(&requests);
        assert_eq!(spec_rep, rep2);
        assert_eq!(spec_rec, rec2);
    }

    #[test]
    fn a_closed_loop_run_serves_the_whole_trace() {
        let m = model();
        let cfg = config();
        let sim = Simulator::new(cfg.arch.clone());
        let requests = LoadgenConfig::smoke(3, 8).generate();
        let (records, report) =
            SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_closed(&requests, 2);
        assert_eq!(records.len(), 8);
        assert_eq!(report.completed + report.rejected + report.failed, 8);
        assert!(report.completed > 0);
        assert!(report.elapsed_ps > 0);
        assert!(report.tokens_per_s > 0);
        // Closed loop re-stamps arrivals: they never precede trace start.
        for r in &records {
            if let Some(admitted) = r.admitted_ps {
                assert!(admitted >= r.arrival_ps);
            }
        }
    }

    #[test]
    fn a_closed_loop_run_settles_requests_that_fail_admission() {
        // Request 0's empty prompt fails admission, and with one user
        // the tick that fails it runs nothing. The loop must still
        // settle the failure and release the next user, not spin. The
        // run is on its own thread so a spin fails the test instead of
        // hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let m = model();
            let cfg = config();
            let sim = Simulator::new(cfg.arch.clone());
            let mut requests: Vec<GenRequest> = (0..4)
                .map(|id| request(id, 0, SloClass::Standard, None))
                .collect();
            requests[0].prompt.clear();
            let _ =
                tx.send(SloFrontend::new(&m, &sim, NativeBackend, &cfg).run_closed(&requests, 1));
        });
        let (records, report) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_closed must return");
        let outcomes: Vec<RequestOutcome> = records.iter().map(|r| r.outcome).collect();
        use RequestOutcome::{Completed, Failed};
        assert_eq!(outcomes, [Failed, Completed, Completed, Completed]);
        assert_eq!((report.failed, report.completed), (1, 3));
    }
}
