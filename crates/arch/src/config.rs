//! Accelerator configuration (paper Table IV and the ablation variants of
//! Fig. 12).

use crate::memory::HBM_BYTES_PER_S;
use crate::schedule::DataflowPolicy;
use lt_dptc::DptcConfig;
use lt_photonics::units::GigaHertz;

/// How operands are shared inside a core (the Fig. 12 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreTopology {
    /// The DPTC crossbar: *both* operands ride shared row/column buses, so
    /// one MM costs `Nh*Nl + Nl*Nv` encodings (Eq. 6).
    Crossbar,
    /// A bank of independent dot-product engines where only the input
    /// operand is broadcast (the `LT-broadcast` variant): the other operand
    /// is encoded per engine, costing `Nh*Nl + Nh*Nv*Nl` encodings.
    BroadcastOnly,
}

/// The architecture-level optimizations of paper Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchOptimizations {
    /// Share the common M2 operand across tiles via optical interconnect
    /// (Section IV-C1): up to `Nt x` fewer M2 encodings.
    pub inter_core_broadcast: bool,
    /// Photocurrent summation across the cores of a tile before A/D
    /// conversion (Section IV-B): `Nc x` fewer conversions, full-precision
    /// analog partial sums.
    pub photocurrent_summation: bool,
    /// Analog-domain temporal accumulation via time integral (Section
    /// IV-C2): the ADC fires once every `temporal_accum_depth` steps.
    pub analog_temporal_accum: bool,
    /// Temporal accumulation depth (the paper uses 3).
    pub temporal_accum_depth: u32,
}

impl ArchOptimizations {
    /// Everything on, depth 3 — the full `LT` design point.
    pub fn all_on() -> Self {
        ArchOptimizations {
            inter_core_broadcast: true,
            photocurrent_summation: true,
            analog_temporal_accum: true,
            temporal_accum_depth: 3,
        }
    }

    /// Everything off — the `LT-crossbar` / `LT-broadcast` ablations.
    pub fn all_off() -> Self {
        ArchOptimizations {
            inter_core_broadcast: false,
            photocurrent_summation: false,
            analog_temporal_accum: false,
            temporal_accum_depth: 1,
        }
    }

    /// Effective divisor on A/D conversion count from analog accumulation.
    pub fn adc_reduction(&self, nc: usize) -> f64 {
        let depth = if self.analog_temporal_accum {
            self.temporal_accum_depth.max(1) as f64
        } else {
            1.0
        };
        let cores = if self.photocurrent_summation {
            nc as f64
        } else {
            1.0
        };
        depth * cores
    }
}

/// A complete accelerator configuration.
///
/// ```
/// use lt_arch::ArchConfig;
/// let ltb = ArchConfig::lt_base(4);
/// assert_eq!(ltb.nt, 4);
/// assert_eq!(ltb.num_cores(), 8);
/// assert_eq!(ltb.macs_per_cycle(), 8 * 12 * 12 * 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Configuration name (e.g. `LT-B`).
    pub name: String,
    /// Number of tiles `Nt`.
    pub nt: usize,
    /// Number of DPTC cores per tile `Nc`.
    pub nc: usize,
    /// Core geometry (`Nh`, `Nv`, `N_lambda`).
    pub core: DptcConfig,
    /// Datapath precision in bits (4 or 8 in the paper).
    pub precision_bits: u32,
    /// Photonic clock (5 GHz in the paper).
    pub clock: GigaHertz,
    /// Global SRAM capacity in bytes (2 MB for LT-B, 4 MB for LT-L).
    pub global_sram_bytes: usize,
    /// Per-tile M1 operand SRAM in bytes (4 KB in the paper).
    pub tile_sram_bytes: usize,
    /// Per-tile activation SRAM in bytes.
    pub act_sram_bytes: usize,
    /// HBM link bandwidth in bytes per second (> 1 TB/s in the paper;
    /// `f64::INFINITY` models an unconstrained memory system).
    pub hbm_bytes_per_s: f64,
    /// HBM budget reserved for the paged KV cache, in bytes. The decode
    /// server's block-pool size derives from this when not set
    /// explicitly (`lt_nn::serve::decode::KvServeConfig`): the number
    /// of resident decode sessions is bounded by how many KV blocks fit
    /// this budget.
    pub kv_pool_bytes: usize,
    /// Tile-schedule loop order used by `Simulator::run_trace`.
    pub dataflow: DataflowPolicy,
    /// Architecture-level optimizations.
    pub opts: ArchOptimizations,
    /// Intra-core operand sharing topology.
    pub topology: CoreTopology,
}

impl ArchConfig {
    /// `LT-B` (Table IV): 4 tiles x 2 cores, 12x12x12, 2 MB global SRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 16]`.
    pub fn lt_base(bits: u32) -> Self {
        Self::lt_named("LT-B", 4, bits)
    }

    /// `LT-L` (Table IV): 8 tiles x 2 cores, 12x12x12, 4 MB global SRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 16]`.
    pub fn lt_large(bits: u32) -> Self {
        let mut cfg = Self::lt_named("LT-L", 8, bits);
        cfg.global_sram_bytes = 4 << 20;
        cfg
    }

    /// `LT-crossbar-B`: LT-B with all architecture-level optimizations
    /// disabled (pure DPTC-topology comparison, Figs. 11-12).
    pub fn lt_crossbar_base(bits: u32) -> Self {
        let mut cfg = Self::lt_named("LT-crossbar-B", 4, bits);
        cfg.opts = ArchOptimizations::all_off();
        cfg
    }

    /// `LT-broadcast-B`: like `LT-crossbar-B` but with an MRR-style
    /// broadcast-only topology that shares only the input operand (Fig. 12).
    pub fn lt_broadcast_base(bits: u32) -> Self {
        let mut cfg = Self::lt_named("LT-broadcast-B", 4, bits);
        cfg.opts = ArchOptimizations::all_off();
        cfg.topology = CoreTopology::BroadcastOnly;
        cfg
    }

    fn lt_named(name: &str, nt: usize, bits: u32) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "precision {bits} outside supported range [2, 16]"
        );
        ArchConfig {
            name: name.to_string(),
            nt,
            nc: 2,
            core: DptcConfig::lt_paper(),
            precision_bits: bits,
            clock: GigaHertz(lt_photonics::constants::PTC_CLOCK_GHZ),
            global_sram_bytes: 2 << 20,
            tile_sram_bytes: 4 << 10,
            act_sram_bytes: 64 << 10,
            hbm_bytes_per_s: HBM_BYTES_PER_S,
            kv_pool_bytes: 1 << 30,
            dataflow: DataflowPolicy::WeightStationary,
            opts: ArchOptimizations::all_on(),
            topology: CoreTopology::Crossbar,
        }
    }

    /// A single-core configuration of square size `n` with no global
    /// sharing — the unit of the Fig. 9/10 scaling studies.
    pub fn single_core(n: usize, bits: u32) -> Self {
        let mut cfg = Self::lt_named(&format!("core-{n}"), 1, bits);
        cfg.nc = 1;
        cfg.core = DptcConfig::square(n);
        cfg.opts = ArchOptimizations::all_off();
        cfg.global_sram_bytes = 0;
        cfg.tile_sram_bytes = 0;
        cfg.act_sram_bytes = 0;
        cfg
    }

    /// Total number of DPTC cores.
    pub fn num_cores(&self) -> usize {
        self.nt * self.nc
    }

    /// Peak MACs per photonic cycle across the whole accelerator.
    pub fn macs_per_cycle(&self) -> usize {
        self.num_cores() * self.core.macs_per_cycle()
    }

    /// Peak throughput in tera-operations per second (2 ops per MAC).
    pub fn peak_tops(&self) -> f64 {
        2.0 * self.macs_per_cycle() as f64 * self.clock.to_hz() / 1e12
    }

    /// Returns a copy that schedules under a different dataflow.
    pub fn with_dataflow(mut self, dataflow: DataflowPolicy) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Returns a copy with an unconstrained memory system: effectively
    /// unlimited global SRAM (no reuse window ever refetches) and
    /// infinite HBM bandwidth (loads are instantaneous). Under this
    /// configuration the tile schedule collapses to the closed-form
    /// model exactly — the cross-validation oracle of
    /// `tests/trace_crossval.rs`.
    pub fn unconstrained_memory(mut self) -> Self {
        self.global_sram_bytes = 1 << 60;
        self.hbm_bytes_per_s = f64::INFINITY;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_presets() {
        let b = ArchConfig::lt_base(4);
        assert_eq!((b.nt, b.nc), (4, 2));
        assert_eq!(b.core, DptcConfig::new(12, 12, 12));
        assert_eq!(b.global_sram_bytes, 2 * 1024 * 1024);
        let l = ArchConfig::lt_large(8);
        assert_eq!(l.nt, 8);
        assert_eq!(l.global_sram_bytes, 4 * 1024 * 1024);
        assert_eq!(l.precision_bits, 8);
    }

    #[test]
    fn peak_tops_ltb() {
        // 8 cores * 1728 MACs * 5 GHz * 2 = 138.2 TOPS.
        let tops = ArchConfig::lt_base(4).peak_tops();
        assert!((tops - 138.24).abs() < 0.01, "tops = {tops}");
    }

    #[test]
    fn ablation_variants_differ_only_in_opts() {
        let full = ArchConfig::lt_base(4);
        let xbar = ArchConfig::lt_crossbar_base(4);
        assert_eq!(full.core, xbar.core);
        assert!(!xbar.opts.inter_core_broadcast);
        let bcast = ArchConfig::lt_broadcast_base(4);
        assert_eq!(bcast.topology, CoreTopology::BroadcastOnly);
    }

    #[test]
    fn adc_reduction_composes() {
        let on = ArchOptimizations::all_on();
        assert_eq!(on.adc_reduction(2), 6.0);
        let off = ArchOptimizations::all_off();
        assert_eq!(off.adc_reduction(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn absurd_precision_rejected() {
        ArchConfig::lt_base(40);
    }

    #[test]
    fn unconstrained_memory_lifts_both_limits() {
        let cfg = ArchConfig::lt_base(4).unconstrained_memory();
        assert!(cfg.hbm_bytes_per_s.is_infinite());
        assert!(cfg.global_sram_bytes >= 1 << 60);
        // Everything else is untouched.
        assert_eq!(cfg.core, ArchConfig::lt_base(4).core);
        assert_eq!(cfg.dataflow, DataflowPolicy::WeightStationary);
    }

    #[test]
    fn with_dataflow_changes_only_the_loop_order() {
        let cfg = ArchConfig::lt_base(4).with_dataflow(DataflowPolicy::OutputStationary);
        assert_eq!(cfg.dataflow, DataflowPolicy::OutputStationary);
        assert_eq!(
            cfg.global_sram_bytes,
            ArchConfig::lt_base(4).global_sram_bytes
        );
    }
}
