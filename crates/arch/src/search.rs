//! Heterogeneous core-geometry search (paper Section VI-A).
//!
//! "We have the flexibility to explore heterogeneous DPTCs by having
//! different/searched core sizes to better suit workloads with specific
//! sparse patterns, avoiding low-utilization scenarios. For example, we can
//! have a specific DPTC engine for vector-matrix multiplication by setting
//! Nh to 1." — this module implements that search: enumerate core
//! geometries within an area budget, play the trace through the tile
//! scheduler on each (so dataflow stalls and SRAM pressure count against
//! a candidate, not just its closed-form cycles), and rank them by EDP.

use crate::area::AreaBreakdown;
use crate::config::ArchConfig;
use crate::sim::Simulator;
use lt_core::Trace;
use lt_dptc::DptcConfig;

/// One evaluated candidate geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreCandidate {
    /// The evaluated configuration.
    pub config: ArchConfig,
    /// Chip area, mm^2.
    pub area_mm2: f64,
    /// Trace energy, mJ.
    pub energy_mj: f64,
    /// Trace latency, ms.
    pub latency_ms: f64,
    /// Energy-delay product, mJ * ms.
    pub edp: f64,
    /// Achieved MAC utilization over the scheduled trace (time-weighted
    /// fraction of peak, stalls included).
    pub utilization: f64,
    /// Total scheduled HBM traffic, bytes (refetch included).
    pub hbm_traffic: f64,
}

/// Enumerates `(Nh, Nv)` geometries (at fixed `N_lambda`) that fit within
/// `area_budget_mm2`, evaluates each on `trace`, and returns candidates
/// sorted by ascending EDP. Non-GEMM ops in `trace` are costed too
/// (digital energy, KV traffic); pass [`Trace::gemm_only`] to rank on
/// the photonic work alone.
///
/// # Panics
///
/// Panics if `trace` is empty or no candidate fits the budget.
pub fn search_core_geometry(
    trace: &Trace,
    area_budget_mm2: f64,
    nlambda: usize,
    bits: u32,
) -> Vec<CoreCandidate> {
    assert!(!trace.is_empty(), "cannot search on an empty trace");
    let shapes: &[(usize, usize)] = &[
        (1, 12),
        (4, 12),
        (8, 12),
        (12, 12),
        (16, 12),
        (12, 16),
        (16, 16),
        (24, 12),
        (12, 24),
        (4, 4),
        (8, 8),
        (24, 24),
    ];
    let mut candidates = Vec::new();
    for &(nh, nv) in shapes {
        let mut config = ArchConfig::lt_base(bits);
        config.name = format!("LT[{nh}x{nv}x{nlambda}]");
        config.core = DptcConfig::new(nh, nv, nlambda);
        let area = AreaBreakdown::for_config(&config).total().value();
        if area > area_budget_mm2 {
            continue;
        }
        let sim = Simulator::new(config.clone());
        // Rank with the tile scheduler: a geometry that looks good on
        // paper but stalls on operand staging loses here.
        let sched = sim.schedule_trace(trace, config.dataflow);
        let report = sched.total;
        candidates.push(CoreCandidate {
            area_mm2: area,
            energy_mj: report.energy.total().value(),
            latency_ms: report.latency.value(),
            edp: report.edp(),
            utilization: report.utilization,
            hbm_traffic: sched.hbm_traffic,
            config,
        });
    }
    assert!(
        !candidates.is_empty(),
        "no core geometry fits within {area_budget_mm2} mm^2"
    );
    candidates.sort_by(|a, b| a.edp.partial_cmp(&b.edp).unwrap());
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::{Op, OpKind};
    use lt_workloads::TransformerConfig;

    #[test]
    fn dense_deit_prefers_square_cores() {
        let trace = TransformerConfig::deit_tiny().trace().gemm_only();
        let ranked = search_core_geometry(&trace, 120.0, 12, 4);
        let best = &ranked[0].config.core;
        // Dense Transformer GEMMs want a big square-ish core.
        assert!(
            best.nh >= 8 && best.nv >= 8,
            "best core for dense DeiT: {best:?}"
        );
    }

    #[test]
    fn vector_matrix_trace_prefers_narrow_nh() {
        // A decode-style trace: every GEMM has m = 1 (vector-matrix).
        let trace = Trace::from_ops(vec![
            Op::gemm_n(OpKind::AttnQk, 1, 64, 512, 12 * 12),
            Op::gemm_n(OpKind::AttnAv, 1, 512, 64, 12 * 12),
        ]);
        let ranked = search_core_geometry(&trace, 120.0, 12, 4);
        let best = &ranked[0].config.core;
        // The paper's Nh = 1 (or small) vector-matrix engine should win.
        assert!(
            best.nh <= 4,
            "best core for vector-matrix trace should be narrow: {best:?}"
        );
        // And its utilization must beat the square core's.
        let square = ranked
            .iter()
            .find(|c| c.config.core.nh == 12 && c.config.core.nv == 12)
            .expect("square core evaluated");
        assert!(ranked[0].utilization > square.utilization);
    }

    #[test]
    fn ranking_is_sorted_and_within_budget() {
        let trace = TransformerConfig::deit_tiny().trace().gemm_only();
        let budget = 80.0;
        let ranked = search_core_geometry(&trace, budget, 12, 4);
        assert!(ranked.windows(2).all(|w| w[0].edp <= w[1].edp));
        assert!(ranked.iter().all(|c| c.area_mm2 <= budget));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        search_core_geometry(&Trace::new(), 100.0, 12, 4);
    }
}
