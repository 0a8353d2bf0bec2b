//! Benches for the NN stack: GELU per element, forward passes on the
//! exact and photonic engines, and a training step.

use lt_bench::timing::bench;
use lt_core::GaussianSampler;
use lt_dptc::DptcBackend;
use lt_nn::data;
use lt_nn::engine::{BackendEngine, ExactEngine};
use lt_nn::layers::{ForwardCtx, Gelu};
use lt_nn::model::{Classifier, ModelConfig, VisionTransformer};
use lt_nn::quant::QuantConfig;
use lt_nn::tensor::Tensor;

/// GELU's formula through the host libm's `tanhf`, as `Gelu` computed it
/// before its tanh moved in-repo: the reference the GELU rows compare with.
fn gelu_libm(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044715 * x * x * x)).tanh())
}

/// `Gelu::infer` against the libm reference loop, in ns per element, on
/// one row of activations uniform in ±3 at each FFN width: 64 (the tiny
/// decoder's), 256 (servebench `serve_open`'s) and 3072 (GPT2-small's).
/// Each iteration first restores the row, on both sides.
fn gelu_rows() {
    let mut rng = GaussianSampler::new(3);
    for width in [64, 256, 3072] {
        let x = Tensor::from_fn(1, width, |_, _| rng.uniform_in(-3.0, 3.0) as f32);
        let gelu = Gelu::new();
        let mut row = x.clone();
        let port = bench(&format!("gelu_infer/{width}"), || {
            row.data_mut().copy_from_slice(x.data());
            row = gelu.infer(std::mem::replace(&mut row, Tensor::zeros(0, 0)));
        });
        let libm = bench(&format!("gelu_libm_reference/{width}"), || {
            row.data_mut().copy_from_slice(x.data());
            row.map_in_place(gelu_libm);
        });
        for r in [&port, &libm] {
            println!(
                "{:<44} {:>8.2} ns/element  (median over {} windows)",
                r.name,
                r.median_ns / width as f64,
                lt_bench::timing::WINDOWS
            );
        }
        println!(
            "{:<44} {:>8.2}x the libm reference\n",
            format!("gelu_infer/{width}"),
            libm.median_ns / port.median_ns
        );
    }
}

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
    gelu_rows();
    let sample = data::vision_dataset(1, 5).remove(0).0;

    let mut vit = make_vit();
    let mut eng = ExactEngine;
    let r = bench("vit_forward/exact_fp32", || {
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        vit.forward(&sample, &mut ctx)
    });
    println!("{}", r.row());

    let mut vit = make_vit();
    let mut eng = BackendEngine::new(DptcBackend::paper(4, 9), 9);
    let r = bench("vit_forward/photonic_4bit_12lambda", || {
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::low_bit(4));
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
