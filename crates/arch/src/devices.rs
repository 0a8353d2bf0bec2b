//! Device inventory: how many of each Table III component a configuration
//! instantiates, and the optical link budget from laser to detector.

use crate::config::{ArchConfig, CoreTopology};
use lt_photonics::devices::{
    Adc, Dac, DirectionalCoupler, Laser, MachZehnderModulator, MemsPhaseShifter, MicroComb,
    Microdisk, Photodetector, Tia, WaveguideCrossing, YBranch,
};
use lt_photonics::units::{Decibels, MilliWatts};
use lt_photonics::LinkBudget;

/// System margin added on top of itemized insertion losses (extinction
/// ratio, coupling penalties, aging). Calibrated so LT-B's 4-bit laser
/// power lands near the paper's 0.77 W.
pub const LASER_MARGIN_DB: f64 = 8.0;

/// Counts of every physical component in a configuration, plus the device
/// models themselves.
#[derive(Debug, Clone)]
pub struct DeviceRack {
    /// The configuration this rack was derived from.
    config: ArchConfig,
    /// DAC model.
    pub dac: Dac,
    /// ADC model.
    pub adc: Adc,
    /// TIA model.
    pub tia: Tia,
    /// Operand modulator model.
    pub mzm: MachZehnderModulator,
    /// WDM mux/demux filter model.
    pub microdisk: Microdisk,
    /// Photodetector model.
    pub pd: Photodetector,
    /// Laser model.
    pub laser: Laser,
    /// Frequency comb model.
    pub comb: MicroComb,
    /// Coupler model (DDot interference element).
    pub coupler: DirectionalCoupler,
    /// Broadcast splitter model.
    pub ybranch: YBranch,
    /// Crossing model.
    pub crossing: WaveguideCrossing,
    /// Programmable phase shifter model (baselines; reported for parity).
    pub mems_ps: MemsPhaseShifter,
}

impl DeviceRack {
    /// Instantiates the paper's Table III devices for `config`.
    pub fn paper(config: &ArchConfig) -> Self {
        DeviceRack {
            config: config.clone(),
            dac: Dac::paper(),
            adc: Adc::paper(),
            tia: Tia::paper(),
            mzm: MachZehnderModulator::paper(),
            microdisk: Microdisk::paper(),
            pd: Photodetector::paper(),
            laser: Laser::paper(),
            comb: MicroComb::paper(),
            coupler: DirectionalCoupler::paper(),
            ybranch: YBranch::paper(),
            crossing: WaveguideCrossing::typical(),
            mems_ps: MemsPhaseShifter::paper(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Number of M1-side modulated signals (private to each core):
    /// `Nt * Nc * Nh * N_lambda`, or with the broadcast-only topology the
    /// per-engine unshared copies `Nt * Nc * Nh * N_lambda` (M1 is the
    /// broadcast operand there).
    pub fn m1_signal_count(&self) -> usize {
        let c = &self.config;
        c.nt * c.nc * c.core.nh * c.core.nlambda
    }

    /// Number of M2-side modulated signals. Inter-core broadcast shares
    /// the M2 modulators across tiles; the broadcast-only topology cannot
    /// share M2 across the crossbar columns, so each of the `Nh` engine
    /// rows needs its own copy.
    pub fn m2_signal_count(&self) -> usize {
        let c = &self.config;
        let per_core = match c.topology {
            CoreTopology::Crossbar => c.core.nlambda * c.core.nv,
            CoreTopology::BroadcastOnly => c.core.nlambda * c.core.nv * c.core.nh,
        };
        if c.opts.inter_core_broadcast {
            c.nc * per_core
        } else {
            c.nt * c.nc * per_core
        }
    }

    /// Total DAC channels (one per modulated signal).
    pub fn dac_count(&self) -> usize {
        self.m1_signal_count() + self.m2_signal_count()
    }

    /// Total MZM devices (one per modulated signal).
    pub fn mzm_count(&self) -> usize {
        self.dac_count()
    }

    /// Total ADC channels: one per crossbar output column-row pair, shared
    /// across the tile's cores when photocurrent summation is on.
    pub fn adc_count(&self) -> usize {
        let c = &self.config;
        let outputs_per_tile = if c.opts.photocurrent_summation {
            c.core.num_ddots()
        } else {
            c.nc * c.core.num_ddots()
        };
        c.nt * outputs_per_tile
    }

    /// Total TIAs (one per balanced detector pair, after analog summation).
    pub fn tia_count(&self) -> usize {
        self.adc_count()
    }

    /// Total photodetectors: two per DDot (balanced detection).
    pub fn pd_count(&self) -> usize {
        2 * self.config.num_cores() * self.config.core.num_ddots()
    }

    /// Total WDM mux/demux microdisks: a demux and a mux of `N_lambda`
    /// filters per modulation unit (one unit per input waveguide).
    pub fn microdisk_count(&self) -> usize {
        let c = &self.config;
        let waveguides = c.num_cores() * (c.core.nh + c.core.nv);
        2 * waveguides * c.core.nlambda
    }

    /// The per-signal optical path from an M1 modulator to a detector:
    /// modulator, WDM demux+mux, intra-core 1:Nv broadcast, crossings, the
    /// DDot coupler and phase shifter.
    pub fn m1_link_budget(&self) -> LinkBudget {
        let c = &self.config;
        let mut budget = LinkBudget::new();
        budget.add("MZM", self.mzm.insertion_loss());
        budget.add("WDM demux", self.microdisk.insertion_loss);
        budget.add("WDM mux", self.microdisk.insertion_loss);
        budget.add(
            format!("intra-core broadcast 1:{}", c.core.nv),
            self.ybranch.broadcast_loss(c.core.nv),
        );
        budget.add_repeated("crossings", self.crossing.insertion_loss, c.core.nv / 2);
        budget.add("DDot coupler", self.coupler.insertion_loss());
        budget.add("DDot phase shifter", Decibels(0.33));
        budget.add("system margin", Decibels(LASER_MARGIN_DB));
        budget
    }

    /// The M2 path: as M1, but with the inter-tile broadcast split when
    /// the optical interconnect shares M2 across tiles.
    pub fn m2_link_budget(&self) -> LinkBudget {
        let c = &self.config;
        let mut budget = LinkBudget::new();
        budget.add("MZM", self.mzm.insertion_loss());
        budget.add("WDM demux", self.microdisk.insertion_loss);
        budget.add("WDM mux", self.microdisk.insertion_loss);
        if c.opts.inter_core_broadcast && c.nt > 1 {
            budget.add(
                format!("inter-tile broadcast 1:{}", c.nt),
                self.ybranch.broadcast_loss(c.nt),
            );
        }
        budget.add(
            format!("intra-core broadcast 1:{}", c.core.nh),
            self.ybranch.broadcast_loss(c.core.nh),
        );
        budget.add_repeated("crossings", self.crossing.insertion_loss, c.core.nh / 2);
        budget.add("DDot coupler", self.coupler.insertion_loss());
        budget.add("DDot phase shifter", Decibels(0.33));
        budget.add("system margin", Decibels(LASER_MARGIN_DB));
        budget
    }

    /// Required electrical laser power. Each photodetector must receive the
    /// sensitivity floor scaled by `2^(bits-4)` for output precision; a
    /// detector aggregates `N_lambda` wavelengths, so each wavelength
    /// carries `sensitivity / N_lambda`.
    pub fn laser_power(&self) -> MilliWatts {
        let c = &self.config;
        let per_wavelength = MilliWatts(self.pd.sensitivity().value() / c.core.nlambda as f64);
        let precision = 2f64.powi(c.precision_bits as i32 - 4);
        let m1 = self
            .m1_link_budget()
            .required_input_power(per_wavelength)
            .value()
            * self.m1_signal_count() as f64;
        let m2 = self
            .m2_link_budget()
            .required_input_power(per_wavelength)
            .value()
            * self.m2_signal_count() as f64;
        self.laser
            .electrical_power(MilliWatts((m1 + m2) * precision))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;

    #[test]
    fn ltb_signal_counts() {
        let rack = DeviceRack::paper(&ArchConfig::lt_base(4));
        assert_eq!(rack.m1_signal_count(), 4 * 2 * 12 * 12); // 1152
        assert_eq!(rack.m2_signal_count(), 2 * 12 * 12); // shared: 288
        assert_eq!(rack.dac_count(), 1440);
        assert_eq!(rack.mzm_count(), 1440);
    }

    #[test]
    fn no_sharing_doubles_m2() {
        let rack = DeviceRack::paper(&ArchConfig::lt_crossbar_base(4));
        assert_eq!(rack.m2_signal_count(), 4 * 2 * 12 * 12); // 1152
        assert_eq!(rack.dac_count(), 2304);
    }

    #[test]
    fn broadcast_topology_needs_per_engine_copies() {
        let rack = DeviceRack::paper(&ArchConfig::lt_broadcast_base(4));
        assert_eq!(rack.m2_signal_count(), 4 * 2 * 12 * 12 * 12);
    }

    #[test]
    fn adc_sharing() {
        let full = DeviceRack::paper(&ArchConfig::lt_base(4));
        assert_eq!(full.adc_count(), 4 * 144); // photocurrent summation
        let off = DeviceRack::paper(&ArchConfig::lt_crossbar_base(4));
        assert_eq!(off.adc_count(), 4 * 2 * 144);
    }

    #[test]
    fn pd_count_is_two_per_ddot() {
        let rack = DeviceRack::paper(&ArchConfig::lt_base(4));
        assert_eq!(rack.pd_count(), 2 * 8 * 144);
    }

    #[test]
    fn laser_power_matches_paper_band() {
        // Paper Fig. 8: 0.77 W at 4-bit, 12.3 W at 8-bit for LT-B.
        let p4 = DeviceRack::paper(&ArchConfig::lt_base(4)).laser_power();
        let p8 = DeviceRack::paper(&ArchConfig::lt_base(8)).laser_power();
        let w4 = p4.value() / 1e3;
        let w8 = p8.value() / 1e3;
        assert!((0.4..1.6).contains(&w4), "4-bit laser {w4} W");
        assert!((w8 / w4 - 16.0).abs() < 0.01, "16x precision scaling");
        assert!((6.0..25.0).contains(&w8), "8-bit laser {w8} W");
    }

    #[test]
    fn link_budget_is_itemized() {
        let rack = DeviceRack::paper(&ArchConfig::lt_base(4));
        let b = rack.m1_link_budget();
        assert!(b.stages().len() >= 6);
        assert!(b.total().value() > 10.0 && b.total().value() < 30.0);
        // M2 crosses tiles, so its budget is strictly larger.
        assert!(rack.m2_link_budget().total().value() > b.total().value());
    }
}
