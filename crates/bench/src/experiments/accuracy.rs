//! Accuracy and robustness experiments (Figs. 14-15).
//!
//! Trains the synthetic-task stand-ins for DeiT-T (4-bit vision) and
//! BERT-base (8-bit text) with QAT + noise-aware training, then evaluates
//! them with every GEMM routed through the noisy DPTC model while sweeping
//! the wavelength count (Fig. 14) and the encoding noise intensity
//! (Fig. 15). See DESIGN.md, Substitution 2.

use lt_core::GaussianSampler;
use lt_dptc::{DptcBackend, DptcConfig, Fidelity, NoiseModel};
use lt_nn::data;
use lt_nn::engine::{BackendEngine, ExactEngine};
use lt_nn::model::{ModelConfig, TextClassifier, VisionTransformer};
use lt_nn::quant::QuantConfig;
use lt_nn::train::{evaluate, train, TrainConfig};
use std::fmt::Write;

const EVAL_SAMPLES: usize = 200;

/// The photonic engine of one wavelength sweep point: a 12x12 DPTC with
/// `n_lambda` wavelengths, the paper's noise seeded with `seed`, and
/// `bits`-bit DACs.
fn photonic(bits: u32, n_lambda: usize, seed: u64) -> BackendEngine<DptcBackend> {
    let config = DptcConfig::new(12, 12, n_lambda);
    BackendEngine::new(
        DptcBackend::new(config, Fidelity::paper_noisy(seed), bits),
        seed,
    )
}

fn trained_vision(bits: u32) -> VisionTransformer {
    let mut rng = GaussianSampler::new(100);
    let mut vit = VisionTransformer::new(
        ModelConfig::tiny_vision(),
        data::NUM_PATCHES,
        data::PATCH_DIM,
        &mut rng,
    );
    let train_set = data::vision_dataset(768, 1);
    let cfg = TrainConfig {
        epochs: 12,
        ..TrainConfig::noise_aware(bits)
    };
    let _ = train(&mut vit, &train_set, &cfg);
    vit
}

fn trained_text(bits: u32) -> TextClassifier {
    let mut rng = GaussianSampler::new(200);
    let mut model = TextClassifier::new(
        ModelConfig::tiny_text(),
        data::VOCAB,
        data::SEQ_LEN,
        &mut rng,
    );
    let train_set = data::text_dataset(1536, 2);
    let cfg = TrainConfig {
        epochs: 16,
        lr: 2e-3,
        ..TrainConfig::noise_aware(bits)
    };
    let _ = train(&mut model, &train_set, &cfg);
    model
}

/// Fig. 14: accuracy vs WDM wavelength count (dispersion robustness).
pub fn fig14() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 14: accuracy vs #wavelengths (paper noise: mag 0.03, phase 2 deg)"
    )
    .unwrap();
    writeln!(
        out,
        "[substitution: synthetic 4-class vision task for DeiT-T/ImageNet,\n\
         synthetic copy-detection task for BERT-base/SST-2 - see DESIGN.md]"
    )
    .unwrap();

    // 4-bit vision model (the paper's DeiT-T panel).
    let mut vit = trained_vision(4);
    let vision_test = data::vision_dataset(EVAL_SAMPLES, 3);
    let quant = QuantConfig::low_bit(4);
    let digital = evaluate(&mut vit, &vision_test, &mut ExactEngine, quant);
    writeln!(
        out,
        "\n4-bit vision model (DeiT-T stand-in); digital reference {:.1}%",
        digital * 100.0
    )
    .unwrap();
    writeln!(out, "{:>12} {:>12}", "#wavelengths", "accuracy (%)").unwrap();
    let mut worst_drop: f64 = 0.0;
    for n_lambda in [6usize, 10, 14, 18, 22, 26] {
        let mut engine = photonic(4, n_lambda, 42);
        let acc = evaluate(&mut vit, &vision_test, &mut engine, quant);
        worst_drop = worst_drop.max(digital - acc);
        writeln!(out, "{n_lambda:>12} {:>12.1}", acc * 100.0).unwrap();
    }
    writeln!(
        out,
        "worst drop vs digital: {:.1} pts (paper: < 0.5%)",
        worst_drop * 100.0
    )
    .unwrap();

    // 8-bit text model (the paper's BERT-base panel).
    let mut text = trained_text(8);
    let text_test = data::text_dataset(EVAL_SAMPLES, 4);
    let quant = QuantConfig::low_bit(8);
    let digital = evaluate(&mut text, &text_test, &mut ExactEngine, quant);
    writeln!(
        out,
        "\n8-bit text model (BERT-base stand-in); digital reference {:.1}%",
        digital * 100.0
    )
    .unwrap();
    writeln!(out, "{:>12} {:>12}", "#wavelengths", "accuracy (%)").unwrap();
    let mut worst_drop: f64 = 0.0;
    for n_lambda in [6usize, 10, 14, 18, 22, 26] {
        let mut engine = photonic(8, n_lambda, 43);
        let acc = evaluate(&mut text, &text_test, &mut engine, quant);
        worst_drop = worst_drop.max(digital - acc);
        writeln!(out, "{n_lambda:>12} {:>12.1}", acc * 100.0).unwrap();
    }
    writeln!(
        out,
        "worst drop vs digital: {:.1} pts (paper: < 0.5%)",
        worst_drop * 100.0
    )
    .unwrap();
    out
}

/// Fig. 15: accuracy vs encoding magnitude / phase noise intensity
/// (4-bit vision model).
pub fn fig15() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 15: accuracy vs encoding noise (4-bit vision model)"
    )
    .unwrap();
    let mut vit = trained_vision(4);
    let test = data::vision_dataset(EVAL_SAMPLES, 3);
    let quant = QuantConfig::low_bit(4);
    let digital = evaluate(&mut vit, &test, &mut ExactEngine, quant);
    writeln!(out, "digital reference: {:.1}%", digital * 100.0).unwrap();

    writeln!(out, "\nmagnitude-noise sweep (phase fixed at 2 deg):").unwrap();
    writeln!(out, "{:>12} {:>12}", "sigma_mag", "accuracy (%)").unwrap();
    for sigma in [0.02, 0.04, 0.06, 0.08] {
        let noise = NoiseModel::paper_default().with_magnitude(sigma);
        let mut engine = BackendEngine::new(DptcBackend::paper(4, 44).with_noise(noise), 44);
        let acc = evaluate(&mut vit, &test, &mut engine, quant);
        writeln!(out, "{sigma:>12.2} {:>12.1}", acc * 100.0).unwrap();
    }

    writeln!(out, "\nphase-noise sweep (magnitude fixed at 0.03):").unwrap();
    writeln!(out, "{:>12} {:>12}", "sigma_phase", "accuracy (%)").unwrap();
    for deg in [1.0, 3.0, 5.0, 7.0] {
        let noise = NoiseModel::paper_default().with_phase_degrees(deg);
        let mut engine = BackendEngine::new(DptcBackend::paper(4, 45).with_noise(noise), 45);
        let acc = evaluate(&mut vit, &test, &mut engine, quant);
        writeln!(out, "{deg:>11.0}d {:>12.1}", acc * 100.0).unwrap();
    }
    writeln!(
        out,
        "(paper: noise-induced degradation within ~0.5% across these ranges)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // These are smoke tests; the full sweeps run via `repro`.
    #[test]
    fn vision_stand_in_trains_above_chance() {
        let mut vit = trained_vision(4);
        let test = data::vision_dataset(96, 3);
        let acc = evaluate(&mut vit, &test, &mut ExactEngine, QuantConfig::low_bit(4));
        assert!(acc > 0.55, "4-bit digital accuracy {acc}");
    }

    #[test]
    fn photonic_eval_close_to_digital_at_paper_point() {
        let mut vit = trained_vision(4);
        let test = data::vision_dataset(96, 3);
        let quant = QuantConfig::low_bit(4);
        let digital = evaluate(&mut vit, &test, &mut ExactEngine, quant);
        let mut engine = photonic(4, 12, 7);
        let optical = evaluate(&mut vit, &test, &mut engine, quant);
        assert!(
            optical >= digital - 0.12,
            "optical {optical} vs digital {digital}"
        );
    }
}
