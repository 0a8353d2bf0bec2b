//! End-to-end accuracy pipeline across crates: train with QAT + noise
//! awareness, checkpoint, restore into a fresh model, and evaluate on the
//! photonic backend — the full Fig. 14/15 workflow including the
//! artifact-style checkpoint round trip.

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::{DptcBackend, NoiseModel};
use lightening_transformer::nn::checkpoint;
use lightening_transformer::nn::data;
use lightening_transformer::nn::engine::{BackendEngine, ExactEngine};
use lightening_transformer::nn::metrics::confusion_matrix;
use lightening_transformer::nn::model::{ModelConfig, VisionTransformer};
use lightening_transformer::nn::quant::QuantConfig;
use lightening_transformer::nn::train::{evaluate, train, TrainConfig};

fn fresh_vit(seed: u64) -> VisionTransformer {
    let mut rng = GaussianSampler::new(seed);
    VisionTransformer::new(
        ModelConfig::tiny_vision(),
        data::NUM_PATCHES,
        data::PATCH_DIM,
        &mut rng,
    )
}

#[test]
fn train_checkpoint_restore_photonic_eval() {
    // 1. Train with the paper's recipe (4-bit QAT + noise-aware).
    let mut model = fresh_vit(7);
    let train_set = data::vision_dataset(384, 1);
    let test_set = data::vision_dataset(128, 2);
    let cfg = TrainConfig {
        epochs: 8,
        ..TrainConfig::noise_aware(4)
    };
    let stats = train(&mut model, &train_set, &cfg);
    assert!(
        stats.last().unwrap().accuracy > 0.7,
        "training should converge: {:?}",
        stats.last().unwrap()
    );

    // 2. Checkpoint, then restore into a *differently initialized* model.
    let mut blob = Vec::new();
    checkpoint::save(&mut model, &mut blob).expect("save");
    let mut restored = fresh_vit(999);
    checkpoint::load(&mut restored, blob.as_slice()).expect("load");

    // 3. Digital 4-bit reference accuracy is identical for both.
    let quant = QuantConfig::low_bit(4);
    let acc_orig = evaluate(&mut model, &test_set, &mut ExactEngine, quant);
    let acc_rest = evaluate(&mut restored, &test_set, &mut ExactEngine, quant);
    assert!(
        (acc_orig - acc_rest).abs() < 1e-12,
        "restored model must match: {acc_orig} vs {acc_rest}"
    );
    assert!(acc_orig > 0.6, "digital accuracy {acc_orig}");

    // 4. Photonic evaluation stays within a few points of digital.
    let mut photonic = BackendEngine::new(DptcBackend::paper(4, 42), 42);
    let acc_photo = evaluate(&mut restored, &test_set, &mut photonic, quant);
    assert!(
        acc_photo >= acc_orig - 0.10,
        "photonic {acc_photo} vs digital {acc_orig}"
    );

    // 5. The confusion matrix bookkeeping is consistent with accuracy.
    let mut photonic2 = BackendEngine::new(DptcBackend::paper(4, 42), 42);
    let cm = confusion_matrix(&mut restored, &test_set, 4, &mut photonic2, quant);
    assert_eq!(cm.total(), test_set.len() as u64);
    assert!((cm.accuracy() - acc_photo).abs() < 1e-12);
    assert!(cm.macro_f1() > 0.4);
}

#[test]
fn photonic_noise_hurts_untrained_robustness_more() {
    // Noise-aware training is supposed to buy robustness: a noise-aware
    // model should lose no more accuracy under heavy photonic noise than
    // a plainly trained one loses.
    let train_set = data::vision_dataset(384, 3);
    let test_set = data::vision_dataset(128, 4);
    let quant = QuantConfig::low_bit(4);
    let heavy = NoiseModel::paper_default()
        .with_magnitude(0.08)
        .with_phase_degrees(7.0);

    let mut aware = fresh_vit(11);
    let _ = train(
        &mut aware,
        &train_set,
        &TrainConfig {
            epochs: 8,
            ..TrainConfig::noise_aware(4)
        },
    );
    let mut plain = fresh_vit(11);
    let _ = train(
        &mut plain,
        &train_set,
        &TrainConfig {
            epochs: 8,
            quant: QuantConfig::low_bit(4),
            ..TrainConfig::quick()
        },
    );

    let drop = |model: &mut VisionTransformer, seed: u64| {
        let digital = evaluate(model, &test_set, &mut ExactEngine, quant);
        let mut eng = BackendEngine::new(DptcBackend::paper(4, seed).with_noise(heavy), seed);
        let noisy = evaluate(model, &test_set, &mut eng, quant);
        digital - noisy
    };
    let aware_drop = drop(&mut aware, 5);
    let plain_drop = drop(&mut plain, 5);
    // Not a strict dominance claim (tiny models are noisy) — but the
    // noise-aware drop must not be dramatically worse.
    assert!(
        aware_drop <= plain_drop + 0.08,
        "noise-aware drop {aware_drop} vs plain {plain_drop}"
    );
}
