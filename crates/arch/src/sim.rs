//! The workload simulator: replays op traces through the accelerator
//! model and reports itemized energy, latency, and EDP (paper Table V
//! and Figs. 11-13).
//!
//! The simulator consumes the shared trace IR (`lt_core::trace`): an
//! arbitrary [`lt_core::Trace`] — recorded from a real `lt-nn` forward
//! pass or derived analytically by `lt_workloads` — replays through
//! [`Simulator::run_trace`]. Since the tile-schedule refactor, that
//! entry point plays the trace over the event-driven tile scheduler
//! ([`crate::schedule`]): every GEMM decomposes into tile invocations,
//! operands stage through double-buffered SRAM under the configured
//! [`DataflowPolicy`], and each report carries a [`StallBreakdown`]
//! itemizing compute vs. HBM-bandwidth vs. pipeline-fill time plus the
//! achieved MAC `utilization`.
//!
//! The original closed-form per-op accounting survives as
//! [`Simulator::analytic_report`] and serves as the cross-validation
//! oracle: under an unconstrained-memory configuration
//! ([`crate::ArchConfig::unconstrained_memory`]) the scheduled and
//! closed-form reports are identical, and under real configurations the
//! schedule may only improve on the closed form via overlap
//! (`tests/trace_crossval.rs`).

use crate::config::{ArchConfig, CoreTopology};
use crate::devices::DeviceRack;
use crate::energy::EnergyBreakdown;
use crate::memory::{MemoryHierarchy, HBM_PJ_PER_BYTE};
use crate::schedule::{self, DataflowPolicy, GemmMap, StallBreakdown, TraceSchedule};
use lt_core::{Module, NonGemmKind, Op, OpKind, OperandDynamics, Trace};
use lt_photonics::units::{GigaHertz, MilliJoules, Milliseconds, PicoJoules};
use lt_workloads::TransformerConfig;
use std::sync::Arc;

/// Digital non-GEMM energies, pJ per element (efficient hardware units,
/// paper refs \[21\], \[40\], \[59\]).
pub const SOFTMAX_PJ_PER_ELEM: f64 = 3.0;
/// LayerNorm energy, pJ per element.
pub const LAYERNORM_PJ_PER_ELEM: f64 = 2.0;
/// GELU energy, pJ per element.
pub const GELU_PJ_PER_ELEM: f64 = 1.5;
/// Residual-add energy, pJ per element.
pub const RESIDUAL_PJ_PER_ELEM: f64 = 0.2;
/// KV-cache append energy, pJ per element written (an on-chip SRAM
/// write per cached K/V value; the decode path's per-token memory
/// traffic, Section VI-B).
pub const KV_APPEND_PJ_PER_ELEM: f64 = 0.5;
/// KV-cache read energy, pJ per element read back for decode attention
/// (the digital-side gather; the off-chip HBM energy and bandwidth of
/// the same bytes are charged separately per byte).
pub const KV_READ_PJ_PER_ELEM: f64 = 0.5;

/// Output accumulator width in bits (partial sums carry more precision
/// than operands). Shared with the scheduler's partial-sum spill model.
pub(crate) const ACCUM_BITS: u32 = 16;

/// Result of running a trace (or part of one).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunReport {
    /// Itemized energy.
    pub energy: EnergyBreakdown,
    /// Photonic-core cycles (tile-invocation waves; stall time is in
    /// `stalls`, not here).
    pub cycles: u64,
    /// Wall-clock latency of the op's schedule window (compute plus any
    /// stalls that could not hide under it).
    pub latency: Milliseconds,
    /// Fraction of peak MAC throughput achieved over the window
    /// (time-weighted when reports merge).
    pub utilization: f64,
    /// Where the window went: compute vs. HBM-bandwidth stalls vs.
    /// pipeline fill. `stalls.total() == latency`.
    pub stalls: StallBreakdown,
}

impl RunReport {
    /// Energy-delay product in mJ * ms (the paper's EDP unit).
    pub fn edp(&self) -> f64 {
        self.energy.total().value() * self.latency.value()
    }

    /// Merges another report (sequential execution). Energy, cycles,
    /// latency, and stalls add; utilization combines latency-weighted,
    /// so the merged value is still `achieved MACs / peak MACs` over
    /// the combined window.
    pub fn merge(&mut self, other: &RunReport) {
        let t1 = self.latency.value();
        let t2 = other.latency.value();
        self.utilization = if t1 + t2 > 0.0 {
            (self.utilization * t1 + other.utilization * t2) / (t1 + t2)
        } else {
            0.0
        };
        self.energy += other.energy;
        self.cycles += other.cycles;
        self.latency += other.latency;
        self.stalls += other.stalls;
    }
}

/// Per-model simulation result, split by module as in Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Configuration name.
    pub config: String,
    /// The dynamic attention products (`Q K^T`, `A V`) only.
    pub mha: RunReport,
    /// The FFN linears only.
    pub ffn: RunReport,
    /// Projections, embeddings, classifier, and digital non-GEMM work.
    pub other: RunReport,
    /// Everything.
    pub all: RunReport,
}

impl ModelReport {
    /// Frames (inferences) per second at batch 1.
    pub fn fps(&self) -> f64 {
        1e3 / self.all.latency.value()
    }
}

/// The accelerator simulator.
///
/// ```
/// use lt_arch::{ArchConfig, Simulator};
/// use lt_workloads::TransformerConfig;
/// let sim = Simulator::new(ArchConfig::lt_base(4));
/// let r = sim.run_model(&TransformerConfig::deit_tiny());
/// assert!(r.fps() > 10_000.0, "LT-B runs DeiT-T at > 10k FPS");
/// // Scheduled reports explain themselves: utilization + stall split.
/// assert!(r.all.utilization > 0.0);
/// assert!((r.all.stalls.total().value() - r.all.latency.value()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: ArchConfig,
    rack: DeviceRack,
    mem: MemoryHierarchy,
    laser_w: f64,
    /// [`ArchConfig::fingerprint`] of `config`, precomputed once.
    fingerprint: u64,
    /// Memoized per-op schedules, shared by every clone of this
    /// simulator (parallel serving workers pool one cache).
    cache: Arc<crate::cache::ScheduleCache>,
}

impl Simulator {
    /// Creates a simulator for a configuration.
    pub fn new(config: ArchConfig) -> Self {
        let fingerprint = config.fingerprint();
        let rack = DeviceRack::paper(&config);
        let mem = MemoryHierarchy::for_config(&config);
        let laser_w = rack.laser_power().to_watts().value();
        Simulator {
            config,
            rack,
            mem,
            laser_w,
            fingerprint,
            cache: Arc::new(crate::cache::ScheduleCache::new(fingerprint)),
        }
    }

    /// A simulator whose schedule cache never hits: every op recomputes
    /// its tile plan from scratch. Results are bit-identical to the
    /// cached simulator — this constructor exists so tests (and
    /// skeptical users) can prove it.
    pub fn uncached(config: ArchConfig) -> Self {
        let mut sim = Simulator::new(config);
        sim.cache = Arc::new(crate::cache::ScheduleCache::disabled(sim.fingerprint));
        sim
    }

    /// Hit/miss/size statistics of the schedule cache since this
    /// simulator (or the clone-family it belongs to) was created.
    pub fn schedule_cache_stats(&self) -> crate::cache::ScheduleCacheStats {
        let (hits, misses) = self.cache.stats();
        crate::cache::ScheduleCacheStats {
            hits,
            misses,
            entries: self.cache.len(),
        }
    }

    /// The memoized pure schedule for one GEMM op under `policy`,
    /// computing and storing it on miss. See [`crate::cache`].
    pub(crate) fn cached_op_schedule(
        &self,
        policy: DataflowPolicy,
        op: &Op,
    ) -> crate::cache::CachedOpSchedule {
        let key = (*op, policy);
        if let Some(entry) = self.cache.lookup(self.fingerprint, key) {
            return entry;
        }
        let entry = schedule::build_op_schedule(self, policy, op);
        self.cache.insert(self.fingerprint, key, entry.clone());
        entry
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Simulates one IR op in isolation (a fresh schedule timeline): a
    /// GEMM through the photonic datapath under the config's dataflow,
    /// or a non-GEMM op through the digital units. For whole traces
    /// prefer [`Simulator::run_trace`], which overlaps adjacent ops'
    /// prefetch and compute.
    pub fn simulate_op(&self, op: &Op) -> RunReport {
        let mut state = schedule::SchedState::new();
        let mut bytes = 0.0;
        schedule::schedule_op(self, &mut state, self.config.dataflow, op, &mut bytes)
    }

    /// The off-chip bytes a non-GEMM op moves over the HBM link: KV
    /// cache writes ([`NonGemmKind::KvAppend`]) and reads
    /// ([`NonGemmKind::KvRead`]) at the operand precision; zero for the
    /// activation-resident digital ops. This is what turns the decode
    /// path's growing context into scheduled memory traffic.
    pub(crate) fn kv_traffic_bytes(&self, kind: NonGemmKind, elems: u64) -> f64 {
        match kind {
            NonGemmKind::KvAppend | NonGemmKind::KvRead => {
                elems as f64 * self.config.precision_bits as f64 / 8.0
            }
            _ => 0.0,
        }
    }

    /// One non-GEMM digital op: per-element energy on the 500 MHz
    /// digital units, overlapped with photonic compute (zero modeled
    /// latency, as in the paper's Table V accounting). KV-cache traffic
    /// (`KvAppend` / `KvRead`) additionally pays per-byte HBM energy
    /// and occupies the HBM link for `bytes / bandwidth` — reported as
    /// a pure bandwidth-stall window, since the cache lives off chip
    /// and its movement cannot hide under the op itself.
    pub(crate) fn non_gemm_report(&self, kind: NonGemmKind, elems: u64) -> RunReport {
        let pj_per_elem = match kind {
            NonGemmKind::Softmax => SOFTMAX_PJ_PER_ELEM,
            NonGemmKind::LayerNorm => LAYERNORM_PJ_PER_ELEM,
            NonGemmKind::Gelu => GELU_PJ_PER_ELEM,
            NonGemmKind::Residual => RESIDUAL_PJ_PER_ELEM,
            NonGemmKind::KvAppend => KV_APPEND_PJ_PER_ELEM,
            NonGemmKind::KvRead => KV_READ_PJ_PER_ELEM,
        };
        let digital = MilliJoules(elems as f64 * pj_per_elem * 1e-9);
        let bytes = self.kv_traffic_bytes(kind, elems);
        if bytes <= 0.0 {
            return RunReport {
                energy: EnergyBreakdown {
                    digital,
                    ..EnergyBreakdown::default()
                },
                ..RunReport::default()
            };
        }
        // `bytes / INFINITY == 0` exactly, so unconstrained-memory
        // configs keep the closed-form identity bit for bit.
        let window = Milliseconds(bytes / self.config.hbm_bytes_per_s * 1e3);
        RunReport {
            energy: EnergyBreakdown {
                digital,
                data_movement: MilliJoules(bytes * HBM_PJ_PER_BYTE * 1e-9),
                ..EnergyBreakdown::default()
            },
            cycles: 0,
            latency: window,
            utilization: 0.0,
            stalls: StallBreakdown {
                bandwidth: window,
                ..StallBreakdown::default()
            },
        }
    }

    /// The per-device GEMM energy model shared by the closed-form and
    /// scheduled paths. `hbm_traffic` is the *actual* off-chip traffic
    /// (base weight bytes, plus any dataflow-induced refetch or
    /// partial-sum spill); `active_ps` is the time the optics are
    /// firing (compute + fill — the laser gates off during stalls).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a GEMM.
    pub(crate) fn gemm_energy(&self, op: &Op, hbm_traffic: f64, active_ps: f64) -> EnergyBreakdown {
        let Op::Gemm {
            kind,
            m: op_m,
            k: op_k,
            n: op_n,
            instances,
        } = *op
        else {
            panic!("gemm_energy called on a non-GEMM op");
        };
        let c = &self.config;
        let core = c.core;
        let bits = c.precision_bits;
        let period = c.clock.period();
        let count = instances as u64;

        // Operand mapping: weights ride M1 (spread across tiles), inputs
        // ride M2 (shared across tiles by the optical interconnect) —
        // Fig. 5. Our traces carry weights on the right operand, so
        // weight-static ops are mapped transposed.
        let (rows, inner, cols) = match kind.dynamics() {
            OperandDynamics::WeightStatic => (op_n, op_k, op_m),
            OperandDynamics::BothDynamic => (op_m, op_k, op_n),
        };

        let tiles_m = rows.div_ceil(core.nh) as u64;
        let tiles_d = inner.div_ceil(core.nlambda) as u64;
        let tiles_n = cols.div_ceil(core.nv) as u64;
        let t_invocations = tiles_m * tiles_d * tiles_n;

        let e_dac: PicoJoules = self.rack.dac.scaled_power(bits, c.clock) * period;
        let e_mzm: PicoJoules = self.rack.mzm.tuning_power() * period;
        let e_pd: PicoJoules = self.rack.pd.power * period;
        let e_tia: PicoJoules = self.rack.tia.power * period;
        // Per-conversion ADC energy (power scales with rate, so the energy
        // per conversion is rate-independent).
        let e_adc: PicoJoules = self.rack.adc.scaled_power(bits, c.clock) * period;

        // Encoded elements. op1 = M1 (nh rows), op2 = M2 (nv columns).
        let op1_elems = t_invocations * (core.nh * core.nlambda) as u64 * count;
        let op2_tile_factor = match c.topology {
            CoreTopology::Crossbar => 1,
            CoreTopology::BroadcastOnly => core.nh as u64,
        };
        let op2_tiles = if c.opts.inter_core_broadcast {
            tiles_m.div_ceil(c.nt as u64) * tiles_d * tiles_n
        } else {
            t_invocations
        };
        let op2_elems = op2_tiles * (core.nlambda * core.nv) as u64 * op2_tile_factor * count;

        // Detection: every DDot output of every invocation hits 2 PDs;
        // TIAs sit after the in-tile photocurrent summation.
        let ddot_outputs = t_invocations * core.num_ddots() as u64 * count;
        let tia_events = if c.opts.photocurrent_summation {
            tiles_m * tiles_d.div_ceil(c.nc as u64) * tiles_n * core.num_ddots() as u64 * count
        } else {
            ddot_outputs
        };
        // A/D conversions: once per temporal-accumulation window.
        let d_steps = tiles_d.div_ceil(if c.opts.photocurrent_summation {
            c.nc as u64
        } else {
            1
        });
        let adc_windows = if c.opts.analog_temporal_accum {
            d_steps.div_ceil(c.opts.temporal_accum_depth as u64)
        } else {
            d_steps
        };
        let adc_convs = tiles_m * adc_windows * tiles_n * core.num_ddots() as u64 * count;

        // Data movement: operand bytes through the SRAM hierarchy, partial
        // sums into the accumulation buffer, weights from HBM (including
        // any refetch the dataflow forced).
        let operand_pj = self.mem.operand_byte_energy().value();
        let output_pj = self.mem.output_byte_energy().value();
        let op_bytes = |elems: u64| elems as f64 * bits as f64 / 8.0;
        let out_bytes = (rows * cols) as f64 * ACCUM_BITS as f64 / 8.0 * count as f64;
        let accum_bytes = adc_convs as f64 * ACCUM_BITS as f64 / 8.0;
        let data_movement_pj = op_bytes(op1_elems) * operand_pj
            + op_bytes(op2_elems) * operand_pj
            + accum_bytes * self.mem.tile_act.write_energy_per_byte().value()
            + out_bytes * output_pj
            + hbm_traffic * HBM_PJ_PER_BYTE;

        let to_mj = |pj: f64| MilliJoules(pj * 1e-9);
        EnergyBreakdown {
            laser: MilliJoules(self.laser_w * active_ps * 1e-9),
            op1_dac: to_mj(op1_elems as f64 * e_dac.value()),
            op1_mod: to_mj(op1_elems as f64 * e_mzm.value()),
            op2_dac: to_mj(op2_elems as f64 * e_dac.value()),
            op2_mod: to_mj(op2_elems as f64 * e_mzm.value()),
            det: to_mj(
                ddot_outputs as f64 * 2.0 * e_pd.value() + tia_events as f64 * e_tia.value(),
            ),
            adc: to_mj(adc_convs as f64 * e_adc.value()),
            data_movement: to_mj(data_movement_pj),
            digital: MilliJoules(0.0),
        }
    }

    /// Assembles a GEMM report from a latency window: decomposes the
    /// window into compute / bandwidth / fill slices and computes the
    /// achieved MAC utilization. Shared by the scheduled and
    /// closed-form paths so that equal windows produce bit-identical
    /// reports.
    pub(crate) fn finish_gemm_report(
        &self,
        energy: EnergyBreakdown,
        cycles: u64,
        macs: u64,
        window_ps: f64,
        fill_ps: f64,
    ) -> RunReport {
        let period = self.config.clock.period().value();
        let compute_ps = cycles as f64 * period;
        // Snap float residue (a fully hidden load leaves `window ==
        // compute + fill` only up to rounding) so "no stall" reads as
        // exactly zero.
        let bandwidth_ps = {
            let b = window_ps - compute_ps - fill_ps;
            if b <= 1e-6 || b <= window_ps * 1e-12 {
                0.0
            } else {
                b
            }
        };
        let utilization = if window_ps > 0.0 {
            macs as f64 * period / (self.config.macs_per_cycle() as f64 * window_ps)
        } else {
            0.0
        };
        RunReport {
            energy,
            cycles,
            latency: Milliseconds(window_ps * 1e-9),
            utilization,
            stalls: StallBreakdown {
                compute: Milliseconds(compute_ps * 1e-9),
                bandwidth: Milliseconds(bandwidth_ps * 1e-9),
                fill: Milliseconds(fill_ps * 1e-9),
            },
        }
    }

    /// The closed-form cost of one GEMM op: whole-op `max(compute, HBM)`
    /// latency with pipeline fill charged once per dependent chain.
    fn gemm_report_analytic(
        &self,
        kind: OpKind,
        m: usize,
        k: usize,
        n: usize,
        instances: usize,
    ) -> RunReport {
        let Some(map) = GemmMap::new(&self.config, kind, m, k, n, instances) else {
            return RunReport::default();
        };
        let period = self.config.clock.period().value();
        // Back-to-back instances stream through an already-filled
        // optics/EO-OE pipeline, so the fill is charged once per op.
        let compute_ps = map.waves as f64 * period + map.fill_ps;
        // Weight streaming from HBM overlaps with compute (double
        // buffering); the slower of the two gates the op.
        let hbm_ps = map.weight_bytes / self.config.hbm_bytes_per_s * 1e12;
        let window_ps = compute_ps.max(hbm_ps);
        let energy = self.gemm_energy(
            &Op::gemm_n(kind, m, k, n, instances),
            map.weight_bytes,
            compute_ps,
        );
        self.finish_gemm_report(energy, map.waves, map.macs, window_ps, map.fill_ps)
    }

    /// Replays an arbitrary IR trace through the tile scheduler under
    /// the config's [`DataflowPolicy`] — recorded or analytical, the
    /// simulator does not care which. Identical traces produce
    /// identical reports (the model is deterministic). For the per-op
    /// windows and policy control, see [`Simulator::schedule_trace`];
    /// for the closed-form oracle, [`Simulator::analytic_report`].
    pub fn run_trace(&self, trace: &Trace) -> RunReport {
        self.schedule_trace(trace, self.config.dataflow).total
    }

    /// Plays a trace over the tile-level scheduler under an explicit
    /// dataflow: tile invocations over per-core timelines, operands
    /// staged through double-buffered SRAM, loads serialized on the
    /// shared HBM link, and adjacent ops' prefetch overlapped with
    /// compute. Returns per-op reports whose windows partition the
    /// makespan.
    pub fn schedule_trace(&self, trace: &Trace, policy: DataflowPolicy) -> TraceSchedule {
        schedule::schedule_trace(self, trace, policy)
    }

    /// The closed-form per-op oracle: every op charged
    /// `max(compute, HBM)` in sequence, no overlap between ops, no SRAM
    /// capacity pressure. Equals the scheduled report exactly under an
    /// unconstrained-memory configuration; under real configurations
    /// the *default weight-stationary* schedule may only improve on it
    /// (cross-op prefetch overlap). Coarser-grained loop orders chosen
    /// via [`crate::ArchConfig::with_dataflow`] can legitimately cost
    /// more than this oracle — front-loaded streaming and
    /// capacity-driven refetch are exactly what the scheduler exists to
    /// expose.
    pub fn analytic_report(&self, trace: &Trace) -> RunReport {
        let mut report = RunReport::default();
        for op in trace.ops() {
            let r = match *op {
                Op::Gemm {
                    kind,
                    m,
                    k,
                    n,
                    instances,
                } => self.gemm_report_analytic(kind, m, k, n, instances),
                Op::NonGemm { kind, elems } => self.non_gemm_report(kind, elems),
            };
            report.merge(&r);
        }
        report
    }

    /// Simulates a whole Transformer inference from its analytical IR
    /// trace ([`TransformerConfig::trace`]), splitting the report by
    /// module as in Table V. Non-GEMM (digital) work runs in the
    /// 500 MHz domain overlapped with photonic compute, so it
    /// contributes energy to `other` and no latency.
    pub fn run_model(&self, model: &TransformerConfig) -> ModelReport {
        let trace = model.trace();
        let sched = self.schedule_trace(&trace, self.config.dataflow);
        let mut mha = RunReport::default();
        let mut ffn = RunReport::default();
        let mut other = RunReport::default();
        for (op, r) in trace.ops().iter().zip(&sched.per_op) {
            match op.module() {
                Module::Mha => mha.merge(r),
                Module::Ffn => ffn.merge(r),
                Module::Other => other.merge(r),
            }
        }
        ModelReport {
            model: model.name.clone(),
            config: self.config.name.clone(),
            mha,
            ffn,
            other,
            // The trace-order merge, not a re-merge of the module
            // groups: RunReport::merge is order-sensitive at the ulp
            // level, and `all` must equal run_trace on the same trace
            // bit for bit.
            all: sched.total,
        }
    }

    /// Effective A/D sampling rate after analog accumulation.
    pub fn adc_rate(&self) -> GigaHertz {
        GigaHertz(self.config.clock.value() / self.config.opts.adc_reduction(self.config.nc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deit_t() -> TransformerConfig {
        TransformerConfig::deit_tiny()
    }

    #[test]
    fn table5_deit_t_4bit_bands() {
        // Paper Table V, LT-B 4-bit DeiT-T: MHA 0.04 mJ / 3.12e-3 ms,
        // FFN 0.22 mJ / 1.04e-2 ms, All 0.38 mJ / 1.94e-2 ms.
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let r = sim.run_model(&deit_t());
        let mha_mj = r.mha.energy.total().value();
        let ffn_mj = r.ffn.energy.total().value();
        let all_mj = r.all.energy.total().value();
        assert!((0.015..0.12).contains(&mha_mj), "MHA {mha_mj} mJ");
        assert!((0.08..0.6).contains(&ffn_mj), "FFN {ffn_mj} mJ");
        assert!((0.15..0.9).contains(&all_mj), "All {all_mj} mJ");
        let all_ms = r.all.latency.value();
        assert!(
            (0.8e-2..4.0e-2).contains(&all_ms),
            "All latency {all_ms} ms"
        );
        let mha_ms = r.mha.latency.value();
        assert!((1.5e-3..7e-3).contains(&mha_ms), "MHA latency {mha_ms} ms");
    }

    #[test]
    fn eight_bit_costs_more_energy_same_cycles() {
        let sim4 = Simulator::new(ArchConfig::lt_base(4));
        let sim8 = Simulator::new(ArchConfig::lt_base(8));
        let r4 = sim4.run_model(&deit_t());
        let r8 = sim8.run_model(&deit_t());
        assert_eq!(
            r4.all.cycles, r8.all.cycles,
            "precision doesn't change cycles"
        );
        let ratio = r8.all.energy.total().value() / r4.all.energy.total().value();
        // Paper: 1.21 mJ vs 0.38 mJ => ~3.2x.
        assert!((2.0..5.5).contains(&ratio), "8/4-bit energy ratio {ratio}");
    }

    #[test]
    fn arch_opts_save_energy() {
        // Table V: LT-B w/o arch opt costs ~1.8x more (0.69 vs 0.38 mJ).
        let full = Simulator::new(ArchConfig::lt_base(4)).run_model(&deit_t());
        let bare = Simulator::new(ArchConfig::lt_crossbar_base(4)).run_model(&deit_t());
        let ratio = bare.all.energy.total().value() / full.all.energy.total().value();
        assert!((1.3..2.6).contains(&ratio), "w/o-opt ratio {ratio}");
    }

    #[test]
    fn broadcast_topology_costs_more_than_crossbar() {
        // Fig. 12: LT-broadcast-B > LT-crossbar-B on attention.
        let xbar = Simulator::new(ArchConfig::lt_crossbar_base(4)).run_model(&deit_t());
        let bcast = Simulator::new(ArchConfig::lt_broadcast_base(4)).run_model(&deit_t());
        assert!(
            bcast.mha.energy.total().value() > 1.5 * xbar.mha.energy.total().value(),
            "broadcast {} vs crossbar {}",
            bcast.mha.energy.total().value(),
            xbar.mha.energy.total().value()
        );
    }

    #[test]
    fn ltl_is_faster_than_ltb_on_big_models() {
        let b = Simulator::new(ArchConfig::lt_base(4)).run_model(&TransformerConfig::deit_base());
        let l = Simulator::new(ArchConfig::lt_large(4)).run_model(&TransformerConfig::deit_base());
        let speedup = b.all.latency.value() / l.all.latency.value();
        assert!(speedup > 1.5, "LT-L speedup {speedup}");
    }

    #[test]
    fn deit_b_latency_band() {
        // Paper: LT-B 4-bit DeiT-B all latency 2.65e-1 ms.
        let r = Simulator::new(ArchConfig::lt_base(4)).run_model(&TransformerConfig::deit_base());
        let ms = r.all.latency.value();
        assert!((0.1..0.6).contains(&ms), "DeiT-B latency {ms} ms");
    }

    #[test]
    fn fps_exceeds_gpu_class() {
        // Fig. 13: LT-B DeiT-T throughput is in the tens of thousands FPS.
        let r = Simulator::new(ArchConfig::lt_base(4)).run_model(&deit_t());
        assert!(r.fps() > 2e4, "fps {}", r.fps());
    }

    #[test]
    fn edp_is_energy_times_latency() {
        let r = Simulator::new(ArchConfig::lt_base(4)).run_model(&deit_t());
        let expect = r.all.energy.total().value() * r.all.latency.value();
        assert!((r.all.edp() - expect).abs() < 1e-12);
    }

    #[test]
    fn module_reports_sum_to_all() {
        let r = Simulator::new(ArchConfig::lt_base(4)).run_model(&deit_t());
        let sum = r.mha.energy.total().value()
            + r.ffn.energy.total().value()
            + r.other.energy.total().value();
        assert!((sum - r.all.energy.total().value()).abs() < 1e-9);
        assert_eq!(r.mha.cycles + r.ffn.cycles + r.other.cycles, r.all.cycles);
    }

    #[test]
    fn run_model_is_replaying_the_analytical_ir_trace() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let model = deit_t();
        let from_model = sim.run_model(&model);
        let from_trace = sim.run_trace(&model.trace());
        assert_eq!(
            from_model.all, from_trace,
            "run_model's `all` is the trace-order merge, bit for bit"
        );
        // The module split is a bucketing of the same per-op reports.
        let e_split = from_model.mha.energy.total().value()
            + from_model.ffn.energy.total().value()
            + from_model.other.energy.total().value();
        let e_all = from_model.all.energy.total().value();
        assert!(
            (e_split - e_all).abs() < 1e-9 * e_all.abs().max(1.0),
            "module bucketing only reorders summation: {e_split} vs {e_all}"
        );
    }

    #[test]
    fn identical_traces_get_identical_reports() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let trace = deit_t().trace();
        assert_eq!(
            sim.run_trace(&trace),
            sim.run_trace(&trace.clone()),
            "the model is deterministic: same trace, bit-identical report"
        );
    }

    #[test]
    fn non_gemm_ops_charge_digital_energy_and_nothing_else() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let r = sim.simulate_op(&Op::non_gemm(lt_core::NonGemmKind::Softmax, 1_000_000));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.latency.value(), 0.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.stalls, StallBreakdown::default());
        let e = r.energy.total().value();
        assert_eq!(r.energy.digital.value(), e, "digital is the only term");
        assert!((e - 1e6 * SOFTMAX_PJ_PER_ELEM * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn coalesced_single_instance_ops_cost_like_the_analytical_batched_op() {
        // A recorded trace carries one op per head; coalescing merges
        // them into the same multi-instance op the analytical trace
        // emits, so both cost identically.
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let per_head = Trace::from_ops(vec![Op::gemm(lt_core::OpKind::AttnQk, 197, 64, 197); 36]);
        let analytical = sim.simulate_op(&Op::gemm_n(lt_core::OpKind::AttnQk, 197, 64, 197, 36));
        assert_eq!(sim.run_trace(&per_head.coalesce()), analytical);
        // Uncoalesced, the 36 lone products cannot fill idle tiles, so
        // they cost at least as many cycles.
        assert!(sim.run_trace(&per_head).cycles >= analytical.cycles);
    }

    #[test]
    fn zero_sized_gemm_ops_cost_nothing() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        for op in [
            Op::gemm(lt_core::OpKind::Ffn1, 0, 64, 64),
            Op::gemm(lt_core::OpKind::Ffn1, 64, 0, 64),
            Op::gemm(lt_core::OpKind::AttnQk, 64, 64, 0),
            Op::gemm_n(lt_core::OpKind::AttnAv, 64, 64, 64, 0),
        ] {
            let r = sim.simulate_op(&op);
            assert_eq!(r.cycles, 0, "{op:?}");
            assert!(r.energy.total().value().abs() < 1e-18, "{op:?}");
        }
    }

    #[test]
    fn dynamic_ops_have_no_hbm_traffic() {
        // An attention op's latency must be pure compute (no HBM gating).
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let r = sim.simulate_op(&Op::gemm(lt_core::OpKind::AttnQk, 197, 64, 197));
        let compute_ms = r.cycles as f64 * 200e-12 * 1e3;
        assert!((r.latency.value() - compute_ms).abs() / compute_ms < 0.05);
        assert_eq!(r.stalls.bandwidth.value(), 0.0, "no bandwidth stalls");
    }

    #[test]
    fn scheduled_equals_closed_form_under_unconstrained_memory() {
        // The oracle identity at its sharpest: with unconstrained SRAM
        // and infinite HBM bandwidth, the tile schedule collapses to
        // the closed form bit for bit.
        let sim = Simulator::new(ArchConfig::lt_base(4).unconstrained_memory());
        let trace = deit_t().trace();
        assert_eq!(sim.run_trace(&trace), sim.analytic_report(&trace));
    }

    #[test]
    fn scheduled_memory_bound_ops_report_bandwidth_stalls() {
        // A decode-style matrix-vector product streams far more weight
        // bytes than it computes: the schedule must surface that as a
        // bandwidth stall and a memory-bound classification.
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let op = Op::gemm_n(lt_core::OpKind::QkvProj, 1, 768, 768, 36);
        let r = sim.simulate_op(&op);
        assert!(
            r.stalls.bandwidth.value() > r.stalls.compute.value(),
            "m=1 weight streaming must be bandwidth-bound: {:?}",
            r.stalls
        );
        assert_eq!(r.stalls.bound(), crate::roofline::Bound::Memory);
        assert!(r.utilization < 0.05, "idle optics: {}", r.utilization);
        // And the scheduled window never beats the closed form for a
        // lone op (there is nothing to overlap with).
        let a = sim.analytic_report(&Trace::from_ops(vec![op]));
        assert!(r.latency.value() <= a.latency.value() * (1.0 + 1e-9));
    }

    #[test]
    fn stall_slices_partition_every_latency_window() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let sched = sim.schedule_trace(&deit_t().trace(), DataflowPolicy::WeightStationary);
        for (i, r) in sched.per_op.iter().enumerate() {
            let total = r.stalls.total().value();
            assert!(
                (total - r.latency.value()).abs() <= 1e-12 * total.max(1.0),
                "op {i}: stalls {total} != latency {}",
                r.latency.value()
            );
        }
        let t = sched.total;
        assert!((t.stalls.total().value() - t.latency.value()).abs() <= 1e-9);
    }

    #[test]
    fn dataflow_policies_agree_on_cycles_and_differ_on_traffic() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let trace = TransformerConfig::deit_base().trace();
        let ws = sim.schedule_trace(&trace, DataflowPolicy::WeightStationary);
        let os = sim.schedule_trace(&trace, DataflowPolicy::OutputStationary);
        let is = sim.schedule_trace(&trace, DataflowPolicy::InputStationary);
        assert_eq!(ws.total.cycles, os.total.cycles);
        assert_eq!(ws.total.cycles, is.total.cycles);
        // DeiT-B's 14 MB FFN weight panels overflow LT-B's 2 MB SRAM
        // under input-stationary reuse: refetch traffic must show up.
        assert!(
            is.hbm_traffic > 1.5 * ws.hbm_traffic,
            "IS {} vs WS {}",
            is.hbm_traffic,
            ws.hbm_traffic
        );
        assert!(is.total.energy.total().value() > ws.total.energy.total().value());
    }

    #[test]
    fn utilization_is_a_fraction_of_peak() {
        let sim = Simulator::new(ArchConfig::lt_base(4));
        let r = sim.run_trace(&deit_t().trace());
        assert!(
            r.utilization > 0.2 && r.utilization <= 1.0,
            "DeiT-T on LT-B should keep the optics busy: {}",
            r.utilization
        );
    }
}
