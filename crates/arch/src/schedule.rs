//! The tile-level scheduled execution model (paper Figs. 5, 8–9).
//!
//! The closed-form cost model ([`crate::sim::Simulator::analytic_report`])
//! charges every GEMM `max(compute, HBM)` as one indivisible lump. This
//! module replaces that with what the DOTA architecture actually does:
//! every [`lt_core::Op`] decomposes into `[Nh x Nλ x Nv]` *tile
//! invocations*, the invocations are grouped into prefetchable
//! *segments* by a selectable [`DataflowPolicy`] (the loop order over
//! the tile grid), and the segments play over a timeline with
//! double-buffered SRAM staging:
//!
//! * the operand chunk of segment `s + 1` prefetches from HBM while
//!   segment `s` computes (two buffers; a load may run at most two
//!   segments ahead of the compute frontier);
//! * all loads serialize on the one shared HBM link, so concurrently
//!   loading tiles — including the *next op's* weights prefetching
//!   under the current op's compute — contend for its bandwidth;
//! * whenever a policy's reuse window exceeds the configuration's
//!   global-SRAM capacity (2 MB LT-B / 4 MB LT-L, Table IV), the
//!   operands that no longer fit are refetched from HBM, charging both
//!   time and energy.
//!
//! The output is a [`TraceSchedule`]: one [`crate::sim::RunReport`] per
//! op whose latency windows partition the makespan, each carrying a
//! [`StallBreakdown`] that itemizes *why* the op took its cycles —
//! photonic compute, HBM bandwidth stalls, or pipeline fill.
//!
//! Under an unconstrained-memory configuration
//! ([`crate::ArchConfig::unconstrained_memory`]) the schedule collapses
//! to the closed-form model exactly — `tests/trace_crossval.rs` pins
//! scheduled == analytic there, and scheduled <= analytic (overlap can
//! only help) for the default weight-stationary dataflow under the real
//! LT-B / LT-L configurations. Coarser loop orders may honestly exceed
//! the closed form: front-loaded weight streaming and capacity-driven
//! refetch are the effects this module exists to expose.

use crate::cache::CachedOpSchedule;
use crate::config::ArchConfig;
use crate::roofline::Bound;
use crate::sim::{RunReport, Simulator, ACCUM_BITS};
use lt_core::{Op, OpKind, OperandDynamics, Trace};
use lt_photonics::units::Milliseconds;
use std::fmt;
use std::ops::{Add, AddAssign};

/// The loop order a GEMM's tile grid is walked in — which operand stays
/// resident in on-chip SRAM while the other two stream (the DxPTA-style
/// dataflow axis of the design space).
///
/// All three policies issue the same tile invocations, so the photonic
/// *cycle* count is identical; what changes is the HBM traffic (reuse
/// windows that exceed the global SRAM refetch) and the stall pattern
/// (how loads interleave with compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowPolicy {
    /// Walk `(row-block, depth-block)` outer, columns inner: every
    /// weight tile is loaded exactly once (minimum HBM traffic), at the
    /// price of holding a `Nt*Nh x cols` partial-sum panel across the
    /// whole depth loop — which spills to HBM if it outgrows the
    /// global SRAM.
    WeightStationary,
    /// Walk `(row-block, column-block)` outer, depth inner: partial
    /// sums complete in the accumulation buffer before moving on (no
    /// spill risk), but the row-panel of weights is revisited once per
    /// column block and refetches whenever the panel exceeds the
    /// global SRAM.
    OutputStationary,
    /// Walk `(column-block, depth-block)` outer, rows inner: the input
    /// (M2) tile stays resident while every weight tile streams past
    /// it — weight reuse across column blocks then requires the
    /// *entire* weight matrix on chip, so large layers refetch once
    /// per column block.
    InputStationary,
}

impl DataflowPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [DataflowPolicy; 3] = [
        DataflowPolicy::WeightStationary,
        DataflowPolicy::OutputStationary,
        DataflowPolicy::InputStationary,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DataflowPolicy::WeightStationary => "weight-stationary",
            DataflowPolicy::OutputStationary => "output-stationary",
            DataflowPolicy::InputStationary => "input-stationary",
        }
    }
}

impl fmt::Display for DataflowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where an op's wall-clock went: the three mutually exclusive slices of
/// its latency window. `compute + bandwidth + fill == latency` for every
/// report the simulator emits (scheduled or closed-form).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallBreakdown {
    /// Time the photonic cores were firing tile invocations.
    pub compute: Milliseconds,
    /// Time the schedule sat waiting on HBM operand loads (the
    /// memory-bound slice — nonzero exactly when the op could not hide
    /// its traffic under compute).
    pub bandwidth: Milliseconds,
    /// Optics / EO-OE pipeline fill, charged once per dependent chain
    /// (back-to-back instances stream through an already-filled
    /// pipeline).
    pub fill: Milliseconds,
}

impl StallBreakdown {
    /// Total accounted time (equals the report's latency).
    pub fn total(&self) -> Milliseconds {
        self.compute + self.bandwidth + self.fill
    }

    /// Fraction of the window lost to bandwidth stalls (0 when idle).
    pub fn bandwidth_fraction(&self) -> f64 {
        let t = self.total().value();
        if t > 0.0 {
            self.bandwidth.value() / t
        } else {
            0.0
        }
    }

    /// Roofline classification of this window: memory-bound when the
    /// schedule stalled on HBM longer than it computed.
    pub fn bound(&self) -> Bound {
        if self.bandwidth.value() > self.compute.value() {
            Bound::Memory
        } else {
            Bound::Compute
        }
    }
}

impl Add for StallBreakdown {
    type Output = StallBreakdown;
    fn add(self, rhs: StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            compute: self.compute + rhs.compute,
            bandwidth: self.bandwidth + rhs.bandwidth,
            fill: self.fill + rhs.fill,
        }
    }
}

impl AddAssign for StallBreakdown {
    fn add_assign(&mut self, rhs: StallBreakdown) {
        *self = *self + rhs;
    }
}

/// The tile-grid decomposition of one GEMM under the Fig. 5 mapping —
/// the shared geometry both the closed-form model and the scheduler
/// cost from. `None`-like degenerate ops (any zero dimension) never
/// construct a map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GemmMap {
    /// Mapped M2 columns (used for the weight-stationary output panel).
    pub cols: usize,
    /// Tile column-blocks (`ceil(cols / Nv)`).
    pub tiles_n: u64,
    /// Spatial row steps: `ceil(tiles_m * instances / Nt)` — instances
    /// fold into the row dimension and fill otherwise-idle tiles.
    pub mb_steps: u64,
    /// Spatial depth steps: `ceil(tiles_d / Nc)` (photocurrent
    /// summation joins the cores of a tile).
    pub db_steps: u64,
    /// Photonic cycles: `mb_steps * db_steps * tiles_n`, identical to
    /// [`crate::latency::gemm_cycles_batched`].
    pub waves: u64,
    /// True MACs across all instances.
    pub macs: u64,
    /// Base HBM weight traffic in bytes (zero for dynamic products).
    pub weight_bytes: f64,
    /// Pipeline fill, picoseconds, charged once per op.
    pub fill_ps: f64,
}

impl GemmMap {
    /// Builds the map, or `None` for a free (zero-sized) op.
    pub(crate) fn new(
        config: &ArchConfig,
        kind: OpKind,
        m: usize,
        k: usize,
        n: usize,
        instances: usize,
    ) -> Option<GemmMap> {
        if m == 0 || k == 0 || n == 0 || instances == 0 {
            return None;
        }
        let core = config.core;
        // Weights ride M1 (spread across tiles), inputs ride M2 (shared
        // by the optical interconnect) — Fig. 5. Traces carry weights on
        // the right operand, so weight-static ops map transposed.
        let (rows, inner, cols) = match kind.dynamics() {
            OperandDynamics::WeightStatic => (n, k, m),
            OperandDynamics::BothDynamic => (m, k, n),
        };
        let tiles_m = rows.div_ceil(core.nh) as u64;
        let tiles_d = inner.div_ceil(core.nlambda) as u64;
        let tiles_n = cols.div_ceil(core.nv) as u64;
        let mb_steps = (tiles_m * instances as u64).div_ceil(config.nt as u64);
        let db_steps = tiles_d.div_ceil(config.nc as u64);
        let weight_bytes = if kind.dynamics() == OperandDynamics::WeightStatic {
            (k * n) as f64 * config.precision_bits as f64 / 8.0 * instances as f64
        } else {
            0.0
        };
        Some(GemmMap {
            cols,
            tiles_n,
            mb_steps,
            db_steps,
            waves: mb_steps * db_steps * tiles_n,
            macs: (m as u64) * (k as u64) * (n as u64) * instances as u64,
            weight_bytes,
            fill_ps: crate::latency::pipeline_latency_ps(core.nh.max(core.nv)),
        })
    }
}

/// One prefetchable unit of the schedule: `bytes` of fresh HBM traffic
/// staged into a double buffer, then `waves` photonic cycles consuming
/// it. Reuse waves (operands already resident) fold into the preceding
/// segment — they extend its compute without a buffer event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) bytes: f64,
    pub(crate) waves: u64,
}

/// A whole op's segment plan under one policy.
#[derive(Debug)]
struct Plan {
    segments: Vec<Segment>,
    /// Total HBM traffic: base weight bytes times the policy's refetch
    /// factor, plus any partial-sum spill.
    hbm_traffic: f64,
}

/// Capacity check helper: a zero-byte global SRAM (the bare single-core
/// scaling configs) models *no* memory system and disables capacity
/// pressure rather than charging infinite refetch.
fn fits(working_set: f64, capacity: usize) -> bool {
    capacity == 0 || working_set <= capacity as f64
}

fn plan(policy: DataflowPolicy, map: &GemmMap, config: &ArchConfig) -> Plan {
    let w = map.weight_bytes;
    if w <= 0.0 {
        // Dynamic product: operands are on-chip activations; one pure
        // compute segment.
        return Plan {
            segments: vec![Segment {
                bytes: 0.0,
                waves: map.waves,
            }],
            hbm_traffic: 0.0,
        };
    }
    let cap = config.global_sram_bytes;
    let (mb, db, nb) = (map.mb_steps, map.db_steps, map.tiles_n);
    let mut segments = Vec::new();
    let mut hbm_traffic;
    match policy {
        DataflowPolicy::WeightStationary => {
            // (mb, db) outer, nb inner: each weight super-tile loads
            // once and serves a full column sweep. The partial-sum
            // panel for one row step (`Nt*Nh x cols` at accumulator
            // precision) must survive the whole depth loop; if it
            // outgrows the global SRAM, every later depth step
            // re-reads and re-writes it through HBM.
            let seg_bytes = w / (mb * db) as f64;
            let out_panel =
                (config.nt * config.core.nh) as f64 * map.cols as f64 * ACCUM_BITS as f64 / 8.0;
            let spill = if db > 1 && !fits(out_panel, cap) {
                2.0 * out_panel
            } else {
                0.0
            };
            hbm_traffic = w + spill * (db - 1) as f64 * mb as f64;
            segments.reserve((mb * db) as usize);
            for _ in 0..mb {
                for d in 0..db {
                    let bytes = seg_bytes + if d > 0 { spill } else { 0.0 };
                    segments.push(Segment { bytes, waves: nb });
                }
            }
        }
        DataflowPolicy::OutputStationary => {
            // (mb, nb) outer, db inner: the row-panel of weights
            // (`w / mb`) is revisited once per column block; it loads
            // once per row step if it fits, once per (row, column)
            // step if it does not.
            let panel = w / mb as f64;
            let refetch = !fits(panel, cap);
            hbm_traffic = if refetch { w * nb as f64 } else { w };
            segments.reserve(if refetch {
                (mb * nb) as usize
            } else {
                mb as usize
            });
            for _ in 0..mb {
                if refetch {
                    for _ in 0..nb {
                        segments.push(Segment {
                            bytes: panel,
                            waves: db,
                        });
                    }
                } else {
                    // Reuse waves fold into the loading segment.
                    segments.push(Segment {
                        bytes: panel,
                        waves: db * nb,
                    });
                }
            }
        }
        DataflowPolicy::InputStationary => {
            // (nb, db) outer, mb inner: the M2 input tile stays put
            // while every weight tile streams past it. Reusing a
            // weight tile at the next column block requires the whole
            // weight matrix resident, so large layers refetch the
            // full stream once per column block.
            let panel = w / db as f64;
            let refetch = !fits(w, cap);
            hbm_traffic = if refetch { w * nb as f64 } else { w };
            if refetch {
                segments.reserve((nb * db) as usize);
                for _ in 0..nb {
                    for _ in 0..db {
                        segments.push(Segment {
                            bytes: panel,
                            waves: mb,
                        });
                    }
                }
            } else {
                // First column block streams the weights; the rest of
                // the grid runs out of residency.
                segments.reserve(db as usize);
                for _ in 0..db {
                    segments.push(Segment {
                        bytes: panel,
                        waves: mb,
                    });
                }
                if nb > 1 {
                    let tail = mb * db * (nb - 1);
                    if let Some(last) = segments.last_mut() {
                        last.waves += tail;
                    }
                }
            }
        }
    }
    // Degenerate guard: keep totals finite even for pathological maps.
    if !hbm_traffic.is_finite() {
        hbm_traffic = w;
    }
    Plan {
        segments,
        hbm_traffic,
    }
}

/// Timeline state threaded through a whole trace: the compute frontier,
/// the shared-HBM free time, the compute-end times of the last two
/// load-bearing segments (the two SRAM buffers), and how many warm-start
/// preloads remain (the first two buffers are staged before execution
/// begins, the standard warm-start assumption).
#[derive(Debug)]
pub(crate) struct SchedState {
    now: f64,
    hbm_free: f64,
    seg_hist: [f64; 2],
    preload: u8,
}

impl SchedState {
    pub(crate) fn new() -> Self {
        SchedState {
            now: 0.0,
            hbm_free: 0.0,
            seg_hist: [0.0; 2],
            preload: 2,
        }
    }
}

/// Computes the pure (state-independent) part of one GEMM op's
/// schedule: the tile map, the dataflow's segment plan, the energy
/// model, and — when the schedule never touches live timeline state —
/// the finished report itself. This is the value the simulator's
/// [`crate::cache::ScheduleCache`] memoizes per `(op, policy)`.
///
/// Must only be called for [`Op::Gemm`]; non-GEMM ops bypass the cache
/// entirely (their KV-window side effect is inherently stateful and
/// their report is already a cheap closed form).
pub(crate) fn build_op_schedule(
    sim: &Simulator,
    policy: DataflowPolicy,
    op: &Op,
) -> CachedOpSchedule {
    let (kind, m, k, n, instances) = match *op {
        Op::Gemm {
            kind,
            m,
            k,
            n,
            instances,
        } => (kind, m, k, n, instances),
        Op::NonGemm { .. } => unreachable!("non-GEMM ops are never cached"),
    };
    let config = sim.config();
    let Some(map) = GemmMap::new(config, kind, m, k, n, instances) else {
        return CachedOpSchedule::Free;
    };
    let period = config.clock.period().value();
    let plan = plan(policy, &map, config);
    let active_ps = map.waves as f64 * period + map.fill_ps;
    let energy = sim.gemm_energy(op, plan.hbm_traffic, active_ps);

    let bw_per_ps = config.hbm_bytes_per_s / 1e12;
    if plan.hbm_traffic <= 0.0 || !bw_per_ps.is_finite() {
        // Nothing to load (or loads are instantaneous): the schedule is
        // pure compute — the window IS the active time, which equals
        // the closed-form expression bit for bit, and the whole report
        // is a replayable constant.
        return CachedOpSchedule::Pure {
            report: sim.finish_gemm_report(energy, map.waves, map.macs, active_ps, map.fill_ps),
            hbm_traffic: plan.hbm_traffic,
            active_ps,
        };
    }
    CachedOpSchedule::Staged {
        map,
        segments: plan.segments.into(),
        hbm_traffic: plan.hbm_traffic,
        energy,
    }
}

/// Schedules one op, advancing the trace timeline, and returns its
/// report. GEMMs get a latency window with stall itemization,
/// utilization, and energy at the policy's actual HBM traffic;
/// non-GEMM digital work charges energy and no time — except KV-cache
/// reads/writes, whose bytes occupy the shared HBM link as a pure
/// bandwidth-stall window.
pub(crate) fn schedule_op(
    sim: &Simulator,
    state: &mut SchedState,
    policy: DataflowPolicy,
    op: &Op,
    hbm_bytes_acc: &mut f64,
) -> RunReport {
    if let Op::NonGemm { kind, elems } = *op {
        let report = sim.non_gemm_report(kind, elems);
        let bytes = sim.kv_traffic_bytes(kind, elems);
        if bytes > 0.0 {
            // KV-cache reads/writes ride the same HBM link as weight
            // loads: account their bytes and serialize the link —
            // later ops' prefetches queue behind the KV window.
            *hbm_bytes_acc += bytes;
            state.now += report.latency.value() * 1e9;
            state.hbm_free = state.hbm_free.max(state.now);
        }
        return report;
    }
    // The pure part of the schedule — tile map, segment plan, energy —
    // is memoized per (op, policy) in the simulator's ScheduleCache;
    // only the timeline walk below touches live state.
    let (map, segments, energy) = match sim.cached_op_schedule(policy, op) {
        CachedOpSchedule::Free => return RunReport::default(),
        CachedOpSchedule::Pure {
            report,
            hbm_traffic,
            active_ps,
        } => {
            // Nothing to load (or loads are instantaneous): the
            // schedule is pure compute — the window IS the active time,
            // which equals the closed-form expression bit for bit.
            *hbm_bytes_acc += hbm_traffic;
            state.now += active_ps;
            return report;
        }
        CachedOpSchedule::Staged {
            map,
            segments,
            hbm_traffic,
            energy,
        } => {
            *hbm_bytes_acc += hbm_traffic;
            (map, segments, energy)
        }
    };
    let period = sim.config().clock.period().value();
    let bw_per_ps = sim.config().hbm_bytes_per_s / 1e12;

    let start = state.now;
    let mut prev_end = state.now;
    for seg in segments.iter() {
        if seg.bytes > 0.0 {
            let load_end = if state.preload > 0 {
                // Warm start: this buffer was staged before t = 0.
                state.preload -= 1;
                0.0
            } else {
                // Double buffering: the load may run up to two segments
                // ahead of the compute frontier (its buffer frees when
                // the segment two back finishes computing), and all
                // loads serialize on the shared HBM link.
                let load_start = state.hbm_free.max(state.seg_hist[1]);
                let end = load_start + seg.bytes / bw_per_ps;
                state.hbm_free = end;
                end
            };
            let compute_start = prev_end.max(load_end);
            let compute_end = compute_start + seg.waves as f64 * period;
            state.seg_hist = [compute_end, state.seg_hist[0]];
            prev_end = compute_end;
        } else {
            prev_end += seg.waves as f64 * period;
        }
    }
    let end = prev_end + map.fill_ps;
    state.now = end;
    sim.finish_gemm_report(energy, map.waves, map.macs, end - start, map.fill_ps)
}

/// A whole trace played through the scheduler: per-op reports whose
/// latency windows partition the makespan, plus their merge.
#[derive(Debug, Clone)]
pub struct TraceSchedule {
    /// The dataflow the schedule was played under.
    pub policy: DataflowPolicy,
    /// One report per trace op, in trace order.
    pub per_op: Vec<RunReport>,
    /// The merged whole-trace report (cycles/energy/stalls sum; the
    /// latency is the makespan; utilization is time-weighted).
    pub total: RunReport,
    /// Total HBM traffic in bytes, including dataflow-induced refetch
    /// and partial-sum spill.
    pub hbm_traffic: f64,
}

impl TraceSchedule {
    /// Ops that reported a nonzero bandwidth stall (the memory-bound
    /// part of the trace).
    pub fn stalled_ops(&self) -> usize {
        self.per_op
            .iter()
            .filter(|r| r.stalls.bandwidth.value() > 0.0)
            .count()
    }
}

/// Plays a trace over the tile scheduler. Exposed on
/// [`Simulator::schedule_trace`]; this free function keeps the timeline
/// mechanics next to the policy definitions.
pub(crate) fn schedule_trace(
    sim: &Simulator,
    trace: &Trace,
    policy: DataflowPolicy,
) -> TraceSchedule {
    let mut state = SchedState::new();
    let mut per_op = Vec::with_capacity(trace.len());
    let mut total = RunReport::default();
    let mut hbm_traffic = 0.0;
    for op in trace.ops() {
        let r = schedule_op(sim, &mut state, policy, op, &mut hbm_traffic);
        total.merge(&r);
        per_op.push(r);
    }
    TraceSchedule {
        policy,
        per_op,
        total,
        hbm_traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::gemm_cycles_batched;

    fn map_of(
        config: &ArchConfig,
        kind: OpKind,
        m: usize,
        k: usize,
        n: usize,
        i: usize,
    ) -> GemmMap {
        GemmMap::new(config, kind, m, k, n, i).expect("nonzero op")
    }

    #[test]
    fn gemm_map_waves_equal_the_closed_form_cycle_count() {
        let cfg = ArchConfig::lt_base(4);
        for &(m, k, n, i) in &[
            (197usize, 64usize, 197usize, 36usize),
            (197, 192, 768, 12),
            (1, 768, 768, 36),
            (13, 5, 1, 2),
        ] {
            for kind in [OpKind::AttnQk, OpKind::Ffn1] {
                let map = map_of(&cfg, kind, m, k, n, i);
                let (rows, inner, cols) = match kind.dynamics() {
                    OperandDynamics::WeightStatic => (n, k, m),
                    OperandDynamics::BothDynamic => (m, k, n),
                };
                assert_eq!(
                    map.waves,
                    gemm_cycles_batched(&cfg, rows, inner, cols, i),
                    "{kind:?} {m}x{k}x{n} i={i}"
                );
            }
        }
    }

    #[test]
    fn every_policy_issues_the_same_waves_and_conserves_base_traffic() {
        let cfg = ArchConfig::lt_base(4);
        let map = map_of(&cfg, OpKind::Ffn1, 197, 192, 768, 12);
        for policy in DataflowPolicy::ALL {
            let p = plan(policy, &map, &cfg);
            let waves: u64 = p.segments.iter().map(|s| s.waves).sum();
            assert_eq!(waves, map.waves, "{policy}");
            let loaded: f64 = p.segments.iter().map(|s| s.bytes).sum();
            assert!(
                (loaded - p.hbm_traffic).abs() < 1e-6 * p.hbm_traffic.max(1.0),
                "{policy}: segment bytes {loaded} vs plan {}",
                p.hbm_traffic
            );
            // DeiT-T FFN1 at 4 bits fits every reuse window of LT-B:
            // no policy refetches.
            assert!(
                (p.hbm_traffic - map.weight_bytes).abs() < 1e-6,
                "{policy} refetched"
            );
        }
    }

    #[test]
    fn input_stationary_refetches_when_the_weights_outgrow_sram() {
        let cfg = ArchConfig::lt_base(4);
        // DeiT-B FFN1: 768x3072 weights x 12 layers ~ 14 MB >> 2 MB.
        let map = map_of(&cfg, OpKind::Ffn1, 197, 768, 3072, 12);
        let is = plan(DataflowPolicy::InputStationary, &map, &cfg);
        let ws = plan(DataflowPolicy::WeightStationary, &map, &cfg);
        assert!(
            (ws.hbm_traffic - map.weight_bytes).abs() < 1e-6,
            "weight-stationary never refetches weights"
        );
        assert!(
            is.hbm_traffic > 10.0 * ws.hbm_traffic,
            "input-stationary must pay ~tiles_n x refetch: {} vs {}",
            is.hbm_traffic,
            ws.hbm_traffic
        );
        assert!((is.hbm_traffic / map.weight_bytes - map.tiles_n as f64).abs() < 1e-6);
    }

    #[test]
    fn weight_stationary_spills_partial_sums_on_absurdly_wide_outputs() {
        let mut cfg = ArchConfig::lt_base(4);
        cfg.global_sram_bytes = 8 << 10; // shrink SRAM to force the spill
                                         // Mapped cols = m for a weight-static op; make it huge.
        let map = map_of(&cfg, OpKind::Ffn1, 100_000, 64, 64, 1);
        let ws = plan(DataflowPolicy::WeightStationary, &map, &cfg);
        assert!(
            ws.hbm_traffic > map.weight_bytes,
            "partial-sum panel must spill: {} vs {}",
            ws.hbm_traffic,
            map.weight_bytes
        );
    }

    #[test]
    fn zero_capacity_disables_the_memory_model() {
        let cfg = ArchConfig::single_core(12, 4);
        assert_eq!(cfg.global_sram_bytes, 0);
        let map = map_of(&cfg, OpKind::Ffn1, 4096, 4096, 4096, 1);
        for policy in DataflowPolicy::ALL {
            let p = plan(policy, &map, &cfg);
            assert!(
                (p.hbm_traffic - map.weight_bytes).abs() < 1e-3,
                "{policy}: bare configs model no SRAM pressure"
            );
        }
    }

    #[test]
    fn dynamic_products_plan_pure_compute() {
        let cfg = ArchConfig::lt_base(4);
        let map = map_of(&cfg, OpKind::AttnQk, 197, 64, 197, 36);
        for policy in DataflowPolicy::ALL {
            let p = plan(policy, &map, &cfg);
            assert_eq!(p.hbm_traffic, 0.0, "{policy}");
            assert_eq!(p.segments.len(), 1);
            assert_eq!(p.segments[0].waves, map.waves);
        }
    }

    #[test]
    fn stall_breakdown_adds_and_classifies() {
        let a = StallBreakdown {
            compute: Milliseconds(1.0),
            bandwidth: Milliseconds(3.0),
            fill: Milliseconds(0.5),
        };
        let b = StallBreakdown {
            compute: Milliseconds(2.0),
            ..StallBreakdown::default()
        };
        let sum = a + b;
        assert!((sum.total().value() - 6.5).abs() < 1e-12);
        assert_eq!(a.bound(), Bound::Memory);
        assert_eq!(b.bound(), Bound::Compute);
        assert!((a.bandwidth_fraction() - 3.0 / 4.5).abs() < 1e-12);
        assert_eq!(StallBreakdown::default().bandwidth_fraction(), 0.0);
    }
}
