//! Sparse attention support (Fig. 16, paper Section VI-A).

use lt_arch::{ArchConfig, Simulator};
use lt_core::{Op, OpKind};
use lt_workloads::WindowAttention;
use std::fmt::Write;

/// Fig. 16: blockified window attention mapped onto DPTC, with density
/// and energy/latency savings vs dense attention.
///
/// Block sizes aligned to the core geometry (multiples of `N = 12`) turn
/// the full density saving into real energy/latency gains; a misaligned
/// block size is included to demonstrate the low-utilization hazard the
/// paper's heterogeneous-core discussion addresses.
pub fn fig16() -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 16: window local attention blockified onto DPTC").unwrap();
    writeln!(
        out,
        "{:>7} {:>7} {:>6} {:>9} {:>10} {:>12} {:>12}",
        "tokens", "window", "block", "density", "MACsaving", "energy gain", "latency gain"
    )
    .unwrap();
    let sim = Simulator::new(ArchConfig::lt_base(4));
    let head_dim = 64;
    let configs = [
        (192usize, 3usize, 24usize, true),
        (192, 5, 12, true),
        (384, 3, 36, true),
        (384, 7, 12, true),
        (192, 5, 16, false), // misaligned with the 12-wide crossbar
    ];
    for (tokens, window, block, aligned) in configs {
        let w = WindowAttention::new(tokens, window, block, head_dim);
        // Dense reference: full QK^T + AV for one head.
        let mut dense = sim.simulate_op(&Op::gemm(OpKind::AttnQk, tokens, head_dim, tokens));
        dense.merge(&sim.simulate_op(&Op::gemm(OpKind::AttnAv, tokens, tokens, head_dim)));
        // Sparse: the blockified dense chunks.
        let mut sparse = sim.simulate_op(&w.blockified_qk());
        sparse.merge(&sim.simulate_op(&w.blockified_av()));
        writeln!(
            out,
            "{:>7} {:>7} {:>6} {:>8.1}% {:>9.2}x {:>11.2}x {:>11.2}x{}",
            tokens,
            window,
            block,
            w.density() * 100.0,
            w.mac_saving(),
            dense.energy.total().value() / sparse.energy.total().value(),
            dense.latency.value() / sparse.latency.value(),
            if aligned {
                ""
            } else {
                "   <- misaligned block"
            },
        )
        .unwrap();
    }
    writeln!(
        out,
        "(blockification turns sparse attention into dense chunked MMs that DPTC\n\
         executes natively; block sizes aligned to the 12-wide crossbar convert the\n\
         density saving into real gains, while misaligned blocks waste utilization -\n\
         the motivation for the paper's heterogeneous/searched core sizes)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_sparse_attention_saves_energy_and_latency() {
        let t = fig16();
        let rows: Vec<&str> = t
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .filter(|l| !l.contains("misaligned"))
            .collect();
        assert!(rows.len() >= 4);
        for row in rows {
            let gains: Vec<f64> = row
                .split_whitespace()
                .filter(|tok| tok.ends_with('x'))
                .map(|tok| tok.trim_end_matches('x').parse().unwrap())
                .collect();
            assert_eq!(gains.len(), 3, "row: {row}");
            assert!(gains.iter().all(|&g| g > 1.0), "row without gain: {row}");
        }
    }

    #[test]
    fn misaligned_block_is_flagged() {
        let t = fig16();
        assert!(t.contains("misaligned block"));
    }
}
