//! Benches for the NN stack: forward passes on the exact and photonic
//! engines, and a training step.

use lt_bench::timing::bench;
use lt_core::GaussianSampler;
use lt_dptc::DptcBackend;
use lt_nn::data;
use lt_nn::engine::{BackendEngine, ExactEngine};
use lt_nn::layers::ForwardCtx;
use lt_nn::model::{Classifier, ModelConfig, VisionTransformer};
use lt_nn::quant::QuantConfig;

fn make_vit() -> VisionTransformer {
    let mut rng = GaussianSampler::new(1);
    VisionTransformer::new(
        ModelConfig::tiny_vision(),
        data::NUM_PATCHES,
        data::PATCH_DIM,
        &mut rng,
    )
}

fn main() {
    println!("nn benches\n");
    let sample = data::vision_dataset(1, 5).remove(0).0;

    let mut vit = make_vit();
    let mut eng = ExactEngine;
    let r = bench("vit_forward/exact_fp32", || {
        let mut rng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32(), &mut rng);
        vit.forward(&sample, &mut ctx)
    });
    println!("{}", r.row());

    let mut vit = make_vit();
    let mut eng = BackendEngine::new(DptcBackend::paper(4, 9), 9);
    let r = bench("vit_forward/photonic_4bit_12lambda", || {
        let mut rng = GaussianSampler::new(0);
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::low_bit(4), &mut rng);
        vit.forward(&sample, &mut ctx)
    });
    println!("{}", r.row());

    let data = data::vision_dataset(8, 6);
    let r = bench("vit_train_epoch_8samples", || {
        let mut vit = make_vit();
        let cfg = lt_nn::train::TrainConfig {
            epochs: 1,
            ..lt_nn::train::TrainConfig::quick()
        };
        lt_nn::train::train(&mut vit, &data, &cfg)
    });
    println!("{}", r.row());
}
