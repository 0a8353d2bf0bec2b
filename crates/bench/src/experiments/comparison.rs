//! Accelerator comparison experiments: Figs. 11-13 and Table V.

use lt_arch::{ArchConfig, Simulator};
use lt_baselines::{ElectronicPlatform, MrrAccelerator, MziAccelerator};
use lt_core::{Op, OpKind};
use lt_workloads::TransformerConfig;
use std::fmt::Write;

/// DeiT-T's attention score product (one layer, all heads) — the paper's
/// Fig. 11/12 attention workload.
fn deit_t_qk() -> Op {
    Op::gemm_n(OpKind::AttnQk, 197, 64, 197, 3)
}

/// DeiT-T's first FFN linear (one layer) — the Fig. 11/12 linear workload.
fn deit_t_ffn1() -> Op {
    Op::gemm(OpKind::Ffn1, 197, 192, 768)
}

/// Fig. 11: energy comparison and breakdown vs MRR (attention) and
/// MRR + MZI (linear layer), all relative to `LT-crossbar-B`.
pub fn fig11() -> String {
    let mut out = String::new();
    let lt = Simulator::new(ArchConfig::lt_crossbar_base(4));
    let mrr = MrrAccelerator::paper_baseline(4);
    let mzi = MziAccelerator::paper_baseline(4);

    writeln!(out, "Fig. 11 (left): attention Q K^T of DeiT-T (4-bit)").unwrap();
    let lt_qk = lt.simulate_op(&deit_t_qk());
    let mrr_qk = mrr.simulate_op(&deit_t_qk());
    let base = lt_qk.energy.total().value();
    writeln!(out, "  LT-crossbar-B : 1.00 (= {base:.4} mJ)").unwrap();
    writeln!(
        out,
        "  MRR bank      : {:.2}x  (op1-mod/locking share {:.0}%)",
        mrr_qk.energy.value() / base,
        mrr_qk.op1_mod.value() / mrr_qk.energy.value() * 100.0
    )
    .unwrap();
    writeln!(out, "  (paper: MRR ~2.6x, locking > 40% of MRR total)").unwrap();

    writeln!(out).unwrap();
    writeln!(out, "Fig. 11 (right): first FFN linear of DeiT-T (4-bit)").unwrap();
    let lt_ffn = lt.simulate_op(&deit_t_ffn1());
    let mrr_ffn = mrr.simulate_op(&deit_t_ffn1());
    let mzi_ffn = mzi.run_static_op(&deit_t_ffn1());
    let base = lt_ffn.energy.total().value();
    writeln!(out, "  LT-crossbar-B : 1.00 (= {base:.4} mJ)").unwrap();
    writeln!(
        out,
        "  MRR bank      : {:.2}x",
        mrr_ffn.energy.value() / base
    )
    .unwrap();
    writeln!(
        out,
        "  MZI array     : {:.2}x  (laser share {:.0}%)",
        mzi_ffn.energy.value() / base,
        mzi_ffn.laser.value() / mzi_ffn.energy.value() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  (paper: MRR ~2.3x, MZI ~3.5x with laser > 75% of MZI total)"
    )
    .unwrap();
    out
}

/// Fig. 12: the LT variant ablation on the same two workloads,
/// relative to the full `LT-B`.
pub fn fig12() -> String {
    let mut out = String::new();
    let variants = [
        ("LT-B (full)", ArchConfig::lt_base(4)),
        ("LT-crossbar-B", ArchConfig::lt_crossbar_base(4)),
        ("LT-broadcast-B", ArchConfig::lt_broadcast_base(4)),
    ];
    let mrr = MrrAccelerator::paper_baseline(4);
    for (title, op) in [
        ("attention Q K^T", deit_t_qk()),
        ("FFN linear 1", deit_t_ffn1()),
    ] {
        writeln!(
            out,
            "Fig. 12: {title} of DeiT-T (4-bit), normalized to LT-B"
        )
        .unwrap();
        let base = Simulator::new(ArchConfig::lt_base(4))
            .simulate_op(&op)
            .energy
            .total()
            .value();
        for (name, cfg) in variants.iter() {
            let e = Simulator::new(cfg.clone())
                .simulate_op(&op)
                .energy
                .total()
                .value();
            writeln!(out, "  {name:<15}: {:.2}x", e / base).unwrap();
        }
        let e = mrr.simulate_op(&op).energy.value();
        writeln!(out, "  {:<15}: {:.2}x", "MRR bank", e / base).unwrap();
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "(paper order on attention: LT-B 1 < LT-crossbar ~2 < MRR ~5.3 < LT-broadcast ~6)"
    )
    .unwrap();
    out
}

/// Table V: energy / latency / EDP of MZI, MRR, and LT-B on DeiT-T and
/// DeiT-B at 4-bit and 8-bit, by module.
pub fn table5() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table V: comparison on DeiT (energy mJ, latency ms, EDP mJ*ms)"
    )
    .unwrap();
    for bits in [4u32, 8] {
        let mut ratio_energy = Vec::new();
        let mut ratio_latency = Vec::new();
        for model in [
            TransformerConfig::deit_tiny(),
            TransformerConfig::deit_base(),
        ] {
            let mzi = MziAccelerator::paper_baseline(bits).run_model(&model);
            let mrr = MrrAccelerator::paper_baseline(bits).run_model(&model);
            let lt = Simulator::new(ArchConfig::lt_base(bits)).run_model(&model);
            let lt_bare = Simulator::new(ArchConfig::lt_crossbar_base(bits)).run_model(&model);
            writeln!(out, "\n[{}-bit] {}", bits, model.name).unwrap();
            writeln!(
                out,
                "{:<6} | {:>9} {:>9} {:>10} | {:>9} {:>9} {:>10} | {:>9} {:>9} {:>9} {:>10}",
                "module",
                "MZI E",
                "MZI L",
                "MZI EDP",
                "MRR E",
                "MRR L",
                "MRR EDP",
                "LT E(w/o)",
                "LT E",
                "LT L",
                "LT EDP"
            )
            .unwrap();
            let rows = [
                ("MHA", &mzi.mha, &mrr.mha, &lt_bare.mha, &lt.mha),
                ("FFN", &mzi.ffn, &mrr.ffn, &lt_bare.ffn, &lt.ffn),
                ("All", &mzi.all, &mrr.all, &lt_bare.all, &lt.all),
            ];
            for (name, mzi_r, mrr_r, bare_r, lt_r) in rows {
                writeln!(
                    out,
                    "{:<6} | {:>9.3} {:>9.4} {:>10.3} | {:>9.3} {:>9.4} {:>10.4} | {:>9.3} {:>9.3} {:>9.5} {:>10.5}",
                    name,
                    mzi_r.energy.value(),
                    mzi_r.latency.value(),
                    mzi_r.edp(),
                    mrr_r.energy.value(),
                    mrr_r.latency.value(),
                    mrr_r.edp(),
                    bare_r.energy.total().value(),
                    lt_r.energy.total().value(),
                    lt_r.latency.value(),
                    lt_r.edp(),
                )
                .unwrap();
            }
            ratio_energy.push((
                mzi.all.energy.value() / lt.all.energy.total().value(),
                mrr.all.energy.value() / lt.all.energy.total().value(),
            ));
            ratio_latency.push((
                mzi.all.latency.value() / lt.all.latency.value(),
                mrr.all.latency.value() / lt.all.latency.value(),
            ));
        }
        let avg = |v: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| {
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        writeln!(
            out,
            "\n[{}-bit] average ratios vs LT-B: MZI {:.1}x energy / {:.0}x latency; MRR {:.1}x energy / {:.1}x latency",
            bits,
            avg(&ratio_energy, |r| r.0),
            avg(&ratio_latency, |r| r.0),
            avg(&ratio_energy, |r| r.1),
            avg(&ratio_latency, |r| r.1),
        )
        .unwrap();
    }
    writeln!(
        out,
        "\n(paper 4-bit averages: MZI 8.0x / 678x, MRR 4.0x / 12.9x;\n\
         paper 8-bit averages: MZI 32.5x / 676x, MRR 2.7x / 12.8x)"
    )
    .unwrap();
    out
}

/// Fig. 13: cross-platform energy and FPS on the five paper benchmarks.
pub fn fig13() -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 13: energy (mJ) and FPS across platforms").unwrap();
    let models = TransformerConfig::paper_benchmarks();
    writeln!(
        out,
        "{:<18} {:>14} {:>12} {:>12}",
        "platform", "model", "energy (mJ)", "FPS"
    )
    .unwrap();
    for model in &models {
        for p in ElectronicPlatform::fig13_platforms() {
            writeln!(
                out,
                "{:<18} {:>14} {:>12.2} {:>12.0}",
                p.name,
                model.name,
                p.energy(model).value(),
                p.fps(model)
            )
            .unwrap();
        }
        for (name, cfg) in [
            ("LT-B (4-bit)", ArchConfig::lt_base(4)),
            ("LT-B (8-bit)", ArchConfig::lt_base(8)),
            ("LT-L (4-bit)", ArchConfig::lt_large(4)),
            ("LT-L (8-bit)", ArchConfig::lt_large(8)),
        ] {
            let r = Simulator::new(cfg).run_model(model);
            writeln!(
                out,
                "{:<18} {:>14} {:>12.2} {:>12.0}",
                name,
                model.name,
                r.all.energy.total().value(),
                r.fps()
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "(paper: LT has the lowest energy everywhere - >300x vs CPU, ~6.6x vs GPU,\n\
         ~18x vs Edge TPU, ~20x vs FPGA DSAs - and the highest FPS, with 2-3 orders\n\
         of magnitude lower EDP)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_orders_designs_correctly() {
        let t = fig11();
        assert!(t.contains("LT-crossbar-B : 1.00"));
        // Extract the MRR attention multiplier and check it's > 1.5x.
        let line = t.lines().find(|l| l.contains("MRR bank      :")).unwrap();
        let x: f64 = line
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .split('x')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(x > 1.5, "MRR attention ratio {x}");
    }

    #[test]
    fn fig12_full_lt_is_cheapest() {
        let t = fig12();
        assert!(t.contains("LT-B (full)    : 1.00x"));
    }

    #[test]
    fn fig13_covers_all_benchmarks() {
        let t = fig13();
        for name in [
            "DeiT-T-224",
            "DeiT-S-224",
            "DeiT-B-224",
            "BERT-base-128",
            "BERT-large-320",
        ] {
            assert!(t.contains(name), "missing {name}");
        }
        assert!(t.contains("LT-L (8-bit)"));
    }

    #[test]
    fn table5_reports_average_ratios() {
        let t = table5();
        assert!(t.contains("average ratios vs LT-B"));
        assert!(t.contains("[4-bit] DeiT-T-224"));
        assert!(t.contains("[8-bit] DeiT-B-224"));
    }
}
