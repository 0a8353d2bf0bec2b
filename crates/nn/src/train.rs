//! Seeded training and evaluation loops.
//!
//! Training is always *digital* (exact matmuls) with QAT fake-quantization
//! and noise-aware output perturbation — the paper's training recipe.
//! Evaluation can run on any [`MatmulEngine`], which is how the photonic
//! accuracy experiments of Figs. 14-15 are produced.

use crate::engine::{ExactEngine, MatmulEngine};
use crate::layers::{cross_entropy, ForwardCtx, TrainNoise};
use crate::model::Classifier;
use crate::quant::QuantConfig;
use crate::tensor::Tensor;
use lt_core::GaussianSampler;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Gradient-accumulation batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Operand fake-quantization during training (QAT).
    pub quant: QuantConfig,
    /// Noise-aware training: relative std of multiplicative output noise.
    pub train_noise_std: f32,
    /// RNG seed (shuffling + noise).
    pub seed: u64,
}

impl TrainConfig {
    /// A fast default: 8 epochs, batch 16, lr 3e-3, fp32, no noise.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 3e-3,
            quant: QuantConfig::fp32(),
            train_noise_std: 0.0,
            seed: 0,
        }
    }

    /// The paper-style recipe: QAT at `bits` with noise-aware training.
    pub fn noise_aware(bits: u32) -> Self {
        TrainConfig {
            quant: QuantConfig::low_bit(bits),
            train_noise_std: 0.05,
            ..Self::quick()
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy.
    pub accuracy: f64,
}

/// Trains a classifier on a labelled dataset. Returns per-epoch stats.
///
/// `I` is the per-sample input type (`Tensor` for vision, `[usize]` for
/// text).
pub fn train<I, M, S>(model: &mut M, data: &[(S, usize)], cfg: &TrainConfig) -> Vec<EpochStats>
where
    I: ?Sized,
    M: Classifier<I>,
    S: std::borrow::Borrow<I>,
{
    let mut rng = GaussianSampler::new(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut step: u64 = 0;
    let mut stats = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut epoch_loss = 0.0;
        let mut correct = 0usize;
        let mut in_batch = 0usize;
        for &idx in &order {
            let (input, label) = &data[idx];
            let mut engine = ExactEngine;
            // The noise draws from the shuffle's stream, and only when
            // σ > 0, so noiseless training draws nothing but the shuffle.
            let train_noise = (cfg.train_noise_std > 0.0).then_some(TrainNoise {
                std: cfg.train_noise_std,
                rng: &mut rng,
            });
            let mut ctx = ForwardCtx {
                engine: &mut engine,
                quant: cfg.quant,
                train_noise,
                trace: None,
            };
            let logits = model.forward(input.borrow(), &mut ctx);
            if argmax(&logits) == *label {
                correct += 1;
            }
            let (loss, dlogits) = cross_entropy(&logits, &[*label]);
            epoch_loss += loss;
            model.backward(&dlogits);
            in_batch += 1;
            if in_batch == cfg.batch_size {
                step += 1;
                apply_adam(model, cfg.lr, step);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            step += 1;
            apply_adam(model, cfg.lr, step);
        }
        stats.push(EpochStats {
            loss: epoch_loss / data.len() as f32,
            accuracy: correct as f64 / data.len() as f64,
        });
    }
    stats
}

fn apply_adam<I: ?Sized, M: Classifier<I>>(model: &mut M, lr: f32, step: u64) {
    model.visit_params(&mut |p| {
        p.adam_step(lr, 0.9, 0.999, 1e-8, step);
        p.zero_grad();
    });
}

/// Evaluates classification accuracy on a dataset with an arbitrary
/// matmul engine (exact, quantized, or photonic).
pub fn evaluate<I, M, S>(
    model: &mut M,
    data: &[(S, usize)],
    engine: &mut dyn MatmulEngine,
    quant: QuantConfig,
) -> f64
where
    I: ?Sized,
    M: Classifier<I>,
    S: std::borrow::Borrow<I>,
{
    let mut correct = 0usize;
    for (input, label) in data {
        let mut ctx = ForwardCtx::inference(engine, quant);
        let logits = model.forward(input.borrow(), &mut ctx);
        if argmax(&logits) == *label {
            correct += 1;
        }
    }
    correct as f64 / data.len().max(1) as f64
}

/// Index of the largest logit in a `[1, classes]` tensor.
pub fn argmax(logits: &Tensor) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (j, &v) in logits.row(0).iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::engine::BackendEngine;
    use crate::model::{ModelConfig, TextClassifier, VisionTransformer};
    use lt_dptc::{DptcBackend, DptcConfig, Fidelity};

    #[test]
    fn vit_learns_the_vision_task() {
        let mut rng = GaussianSampler::new(10);
        let mut vit = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let train_set = data::vision_dataset(256, 1);
        let test_set = data::vision_dataset(128, 2);
        // The ziggurat sampler (PR 7) reshuffled every seeded draw; at the
        // quick recipe's full 8 epochs the run generalizes with margin
        // (test 0.77), where 6 epochs now lands just under the bar.
        let cfg = TrainConfig::quick();
        let stats = train(&mut vit, &train_set, &cfg);
        assert!(
            stats.last().unwrap().accuracy > 0.7,
            "train accuracy {:?}",
            stats.last().unwrap()
        );
        let acc = evaluate(&mut vit, &test_set, &mut ExactEngine, QuantConfig::fp32());
        assert!(acc > 0.65, "test accuracy {acc}");
    }

    #[test]
    fn text_model_learns_copy_detection() {
        let mut rng = GaussianSampler::new(20);
        let mut model = TextClassifier::new(
            ModelConfig::tiny_text(),
            data::VOCAB,
            data::SEQ_LEN,
            &mut rng,
        );
        let train_set = data::text_dataset(1024, 3);
        let test_set = data::text_dataset(128, 4);
        let cfg = TrainConfig {
            epochs: 16,
            lr: 2e-3,
            ..TrainConfig::quick()
        };
        let stats = train(&mut model, &train_set, &cfg);
        assert!(
            stats.last().unwrap().accuracy > 0.75,
            "train accuracy {:?}",
            stats.last().unwrap()
        );
        let acc = evaluate(&mut model, &test_set, &mut ExactEngine, QuantConfig::fp32());
        assert!(acc > 0.7, "test accuracy {acc}");
    }

    #[test]
    fn photonic_inference_stays_close_to_digital() {
        // The Fig. 14/15 claim in miniature: with paper noise, photonic
        // accuracy is within a few points of the quantized digital model.
        let mut rng = GaussianSampler::new(30);
        let mut vit = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let train_set = data::vision_dataset(384, 5);
        let test_set = data::vision_dataset(64, 6);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::noise_aware(8)
        };
        let _ = train(&mut vit, &train_set, &cfg);
        let quant = QuantConfig::low_bit(8);
        let digital = evaluate(&mut vit, &test_set, &mut ExactEngine, quant);
        let backend = DptcBackend::new(DptcConfig::new(12, 12, 12), Fidelity::paper_noisy(99), 8);
        let mut photonic = BackendEngine::new(backend, 99);
        let optical = evaluate(&mut vit, &test_set, &mut photonic, quant);
        assert!(digital > 0.6, "digital accuracy {digital}");
        assert!(
            optical >= digital - 0.15,
            "photonic accuracy {optical} vs digital {digital}"
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let build = || {
            let mut rng = GaussianSampler::new(40);
            VisionTransformer::new(
                ModelConfig::tiny_vision(),
                data::NUM_PATCHES,
                data::PATCH_DIM,
                &mut rng,
            )
        };
        let train_set = data::vision_dataset(64, 7);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::quick()
        };
        let mut m1 = build();
        let s1 = train(&mut m1, &train_set, &cfg);
        let mut m2 = build();
        let s2 = train(&mut m2, &train_set, &cfg);
        assert_eq!(s1, s2, "same seed must give identical training curves");
    }

    #[test]
    fn argmax_picks_largest() {
        let t = Tensor::from_vec(1, 4, vec![0.1, 0.9, -0.5, 0.89]);
        assert_eq!(argmax(&t), 1);
    }
}
