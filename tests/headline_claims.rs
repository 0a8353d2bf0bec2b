//! Cross-crate integration tests: the paper's headline claims.
//!
//! These tests exercise workloads + arch + baselines together and assert
//! the *shape* of the paper's results — who wins, by roughly what factor.

mod common;

use common::{fnv1a, trace_words};
use lightening_transformer::arch::roofline::{analyze_trace, Bound, RooflinePoint};
use lightening_transformer::arch::search::search_core_geometry;
use lightening_transformer::arch::{ArchConfig, RunReport, Simulator};
use lightening_transformer::baselines::{
    BaselineReport, ElectronicPlatform, MrrAccelerator, MziAccelerator, PcmAccelerator,
};
use lightening_transformer::core::{Op, OpKind, OperandDynamics, Trace};
use lightening_transformer::workloads::{DecodeTrace, TransformerConfig, WindowAttention};

/// ">2.6x energy and >12x latency reductions compared to prior photonic
/// accelerators" (abstract), averaged over DeiT-T and DeiT-B.
#[test]
fn beats_photonic_baselines_by_paper_margins() {
    for bits in [4u32, 8] {
        let mut mrr_energy_ratio = 0.0;
        let mut mrr_latency_ratio = 0.0;
        let mut mzi_energy_ratio = 0.0;
        let mut mzi_latency_ratio = 0.0;
        let models = [
            TransformerConfig::deit_tiny(),
            TransformerConfig::deit_base(),
        ];
        for model in &models {
            let lt = Simulator::new(ArchConfig::lt_base(bits)).run_model(model);
            let mrr = MrrAccelerator::paper_baseline(bits).run_model(model);
            let mzi = MziAccelerator::paper_baseline(bits).run_model(model);
            mrr_energy_ratio += mrr.all.energy.value() / lt.all.energy.total().value();
            mrr_latency_ratio += mrr.all.latency.value() / lt.all.latency.value();
            mzi_energy_ratio += mzi.all.energy.value() / lt.all.energy.total().value();
            mzi_latency_ratio += mzi.all.latency.value() / lt.all.latency.value();
        }
        let n = models.len() as f64;
        let (mrr_e, mrr_l) = (mrr_energy_ratio / n, mrr_latency_ratio / n);
        let (mzi_e, mzi_l) = (mzi_energy_ratio / n, mzi_latency_ratio / n);
        assert!(
            mrr_e > 2.0,
            "[{bits}-bit] MRR energy ratio {mrr_e} (paper >2.6)"
        );
        assert!(
            mrr_l > 8.0,
            "[{bits}-bit] MRR latency ratio {mrr_l} (paper ~12.8)"
        );
        assert!(
            mzi_e > 4.0,
            "[{bits}-bit] MZI energy ratio {mzi_e} (paper 8-32x)"
        );
        assert!(
            mzi_l > 100.0,
            "[{bits}-bit] MZI latency ratio {mzi_l} (paper ~676x)"
        );
    }
}

/// "2 to 3 orders of magnitude lower energy-delay product compared to the
/// electronic Transformer accelerator" and "lowest energy cost".
#[test]
fn edp_beats_electronic_platforms_by_orders_of_magnitude() {
    let model = TransformerConfig::deit_tiny();
    let lt = Simulator::new(ArchConfig::lt_base(4)).run_model(&model);
    let lt_edp = lt.all.edp();
    for p in ElectronicPlatform::fig13_platforms() {
        let edp = p.energy(&model).value() * p.latency(&model).value();
        let ratio = edp / lt_edp;
        assert!(
            ratio > 100.0,
            "{}: EDP ratio {ratio} should be >= 2 orders of magnitude",
            p.name
        );
        assert!(
            p.energy(&model).value() > lt.all.energy.total().value(),
            "{}: LT must have the lowest energy",
            p.name
        );
    }
}

/// LT-B throughput tops every platform in Fig. 13.
#[test]
fn highest_fps_of_all_platforms() {
    for model in TransformerConfig::paper_benchmarks() {
        let lt = Simulator::new(ArchConfig::lt_base(4)).run_model(&model);
        for p in ElectronicPlatform::fig13_platforms() {
            assert!(
                lt.fps() > p.fps(&model),
                "{} beats LT-B on {} ({} vs {})",
                p.name,
                model.name,
                p.fps(&model),
                lt.fps()
            );
        }
    }
}

/// Even without the architecture-level optimizations, the DPTC topology
/// alone still beats the baselines (Table V's "Energy w/o Arch Opt").
#[test]
fn bare_crossbar_still_beats_baselines() {
    let model = TransformerConfig::deit_tiny();
    let bare = Simulator::new(ArchConfig::lt_crossbar_base(4)).run_model(&model);
    let mrr = MrrAccelerator::paper_baseline(4).run_model(&model);
    assert!(
        mrr.all.energy.value() > bare.all.energy.total().value(),
        "MRR {} mJ vs bare LT {} mJ",
        mrr.all.energy.value(),
        bare.all.energy.total().value()
    );
}

/// The weight-static MZI array loses even on the weight-static linear
/// layers (the paper's "counterintuitive but well-explained" result).
#[test]
fn lt_wins_linear_layers_despite_dynamic_encoding() {
    let model = TransformerConfig::deit_tiny();
    let lt = Simulator::new(ArchConfig::lt_base(4)).run_model(&model);
    let mzi = MziAccelerator::paper_baseline(4).run_model(&model);
    assert!(
        mzi.ffn.energy.value() > 2.0 * lt.ffn.energy.total().value(),
        "MZI FFN {} mJ vs LT FFN {} mJ",
        mzi.ffn.energy.value(),
        lt.ffn.energy.total().value()
    );
}

/// Latency ordering across model scale: bigger models take longer, and
/// LT-L catches up on the big ones.
#[test]
fn latency_scales_sensibly_across_models() {
    let sim_b = Simulator::new(ArchConfig::lt_base(4));
    let t = sim_b
        .run_model(&TransformerConfig::deit_tiny())
        .all
        .latency
        .value();
    let s = sim_b
        .run_model(&TransformerConfig::deit_small())
        .all
        .latency
        .value();
    let b = sim_b
        .run_model(&TransformerConfig::deit_base())
        .all
        .latency
        .value();
    assert!(t < s && s < b, "latency must grow with model size");
    let sim_l = Simulator::new(ArchConfig::lt_large(4));
    let b_large = sim_l
        .run_model(&TransformerConfig::deit_base())
        .all
        .latency
        .value();
    assert!(b_large < b, "LT-L must be faster than LT-B on DeiT-B");
}

/// The bits of each value, in order.
fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every field of a baseline's report, as words.
fn baseline_words(r: &BaselineReport) -> Vec<u64> {
    bits_of(&[
        r.energy.value(),
        r.latency.value(),
        r.op1_mod.value(),
        r.op1_dac.value(),
        r.op2_encode.value(),
        r.det.value(),
        r.adc.value(),
        r.laser.value(),
        r.data_movement.value(),
        r.reconfig_latency.value(),
    ])
}

/// Every field of an LT simulator report, as words.
fn run_words(r: &RunReport) -> Vec<u64> {
    let e = &r.energy;
    let mut words = bits_of(&[
        e.laser.value(),
        e.op1_dac.value(),
        e.op1_mod.value(),
        e.op2_dac.value(),
        e.op2_mod.value(),
        e.det.value(),
        e.adc.value(),
        e.data_movement.value(),
        e.digital.value(),
        r.latency.value(),
        r.utilization,
        r.stalls.compute.value(),
        r.stalls.bandwidth.value(),
        r.stalls.fill.value(),
    ]);
    words.push(r.cycles);
    words
}

/// A roofline placement as words.
fn roofline_words(p: &RooflinePoint) -> Vec<u64> {
    let mut words = bits_of(&[p.intensity, p.ridge, p.attainable_gmacs, p.peak_gmacs]);
    words.push(u64::from(p.bound == Bound::Memory));
    words
}

/// The analytical cost models, pinned bit for bit: the MRR, PCM and
/// MZI baselines per module, LT-B's cost of single ops, roofline
/// placements, the core-geometry search ranking and the analytical
/// traces themselves. The digests were taken while the baselines, the
/// roofline and the search still consumed a GEMM list type of their
/// own, before they moved onto `lt_core::Trace`; any change to a cost
/// formula, a trace shape or the order of a summation moves a digest.
#[test]
fn analytical_costs_are_pinned_bit_for_bit() {
    let want: [(&str, u64); 8] = [
        ("mrr run_model", 0xf861_7b9c_d3db_1dab),
        ("pcm run_model", 0x3b7f_8ce3_9025_cf94),
        ("mzi run_model", 0x1065_8e96_f776_47d8),
        ("single-op costs", 0xb245_42d0_b0fa_d807),
        ("roofline", 0x038b_8b92_2d9a_2a11),
        ("core search", 0xc34b_e55f_62a9_e7eb),
        ("spec traces", 0x2cbf_fae7_cdd1_4ac9),
        ("model traces", 0x27da_66a4_3893_aa58),
    ];
    let mut got = Vec::new();

    let mut per_baseline = [Vec::new(), Vec::new(), Vec::new()];
    for bits in [4, 8] {
        for model in TransformerConfig::paper_benchmarks() {
            let mrr = MrrAccelerator::paper_baseline(bits).run_model(&model);
            let pcm = PcmAccelerator::paper_matched(bits).run_model(&model);
            let mzi = MziAccelerator::paper_baseline(bits).run_model(&model);
            for (words, r) in per_baseline.iter_mut().zip([
                [mrr.mha, mrr.ffn, mrr.other, mrr.all],
                [pcm.mha, pcm.ffn, pcm.other, pcm.all],
                [mzi.mha, mzi.ffn, mzi.other, mzi.all],
            ]) {
                r.iter().for_each(|r| words.extend(baseline_words(r)));
            }
        }
    }
    got.extend(per_baseline.map(fnv1a));

    // fig16's dense and blockified attention ops, and the DeiT-T Q K^T
    // and FFN1 ops of figs. 11-12, on LT-B and its two ablations; the
    // latter also on the MRR bank and (FFN1 only) the MZI meshes.
    let mut words = Vec::new();
    let lt_b = Simulator::new(ArchConfig::lt_base(4));
    for (tokens, window, block) in [
        (192, 3, 24),
        (192, 5, 12),
        (384, 3, 36),
        (384, 7, 12),
        (192, 5, 16),
    ] {
        let w = WindowAttention::new(tokens, window, block, 64);
        for op in [
            Op::gemm(OpKind::AttnQk, tokens, 64, tokens),
            Op::gemm(OpKind::AttnAv, tokens, tokens, 64),
            w.blockified_qk(),
            w.blockified_av(),
        ] {
            words.extend(run_words(&lt_b.simulate_op(&op)));
        }
    }
    let qk = Op::gemm_n(OpKind::AttnQk, 197, 64, 197, 3);
    let ffn1 = Op::gemm(OpKind::Ffn1, 197, 192, 768);
    for config in [
        ArchConfig::lt_base(4),
        ArchConfig::lt_crossbar_base(4),
        ArchConfig::lt_broadcast_base(4),
    ] {
        let sim = Simulator::new(config);
        words.extend(run_words(&sim.simulate_op(&qk)));
        words.extend(run_words(&sim.simulate_op(&ffn1)));
    }
    let mrr = MrrAccelerator::paper_baseline(4);
    words.extend(baseline_words(&mrr.simulate_op(&qk)));
    words.extend(baseline_words(&mrr.simulate_op(&ffn1)));
    words.extend(baseline_words(
        &MziAccelerator::paper_baseline(4).run_static_op(&ffn1),
    ));
    got.push(fnv1a(words));

    let gpt2 = TransformerConfig::gpt2_small(1);
    let mut words = roofline_words(&analyze_trace(
        &ArchConfig::lt_base(4),
        &TransformerConfig::deit_tiny().trace(),
    ));
    for batch in [1, 256] {
        let step = DecodeTrace::new(gpt2.clone(), 512, batch).op_trace();
        words.extend(roofline_words(&analyze_trace(
            &ArchConfig::lt_base(8),
            &step,
        )));
    }
    got.push(fnv1a(words));

    let step = DecodeTrace::new(gpt2.clone(), 512, 1).op_trace();
    let decode_attention = step
        .ops()
        .iter()
        .filter(|op| op.dynamics() == Some(OperandDynamics::BothDynamic))
        .copied();
    let mut words = Vec::new();
    for trace in [
        TransformerConfig::deit_tiny().trace().gemm_only(),
        Trace::from_ops(decode_attention.collect()),
    ] {
        for c in search_core_geometry(&trace, 120.0, 12, 4).iter().take(5) {
            words.extend(c.config.name.bytes().map(u64::from));
            words.extend(bits_of(&[
                c.area_mm2,
                c.energy_mj,
                c.latency_ms,
                c.edp,
                c.utilization,
            ]));
        }
    }
    got.push(fnv1a(words));

    let mut words = Vec::new();
    for batch in [1, 4] {
        let decode = DecodeTrace::new(gpt2.clone(), 512, batch);
        for k in [0, 2, 4, 8] {
            words.extend(trace_words(&decode.spec_trace(k)));
        }
    }
    got.push(fnv1a(words));

    let mut words = Vec::new();
    for model in TransformerConfig::paper_benchmarks() {
        words.extend(trace_words(&model.trace()));
    }
    got.push(fnv1a(words));

    let got: Vec<(&str, u64)> = want.iter().map(|&(label, _)| label).zip(got).collect();
    assert_eq!(got, want, "analytical costs moved");
}
