//! Run a real attention layer on the photonic core.
//!
//! Computes one DeiT-T-shaped attention head — `Q K^T`, softmax, `A V` —
//! with both dynamic matrix products executed on the noisy DPTC model, and
//! compares against the exact result. This is the workload weight-static
//! photonic accelerators fundamentally cannot serve (paper Challenge 1).
//!
//! ```sh
//! cargo run --release --example attention_on_dptc
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::core::Matrix64;
use lightening_transformer::dptc::{Dptc, DptcConfig, Fidelity};

const TOKENS: usize = 32;
const HEAD_DIM: usize = 64;

fn softmax_rows(x: &mut Matrix64) {
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
}

fn main() {
    let mut rng = GaussianSampler::new(7);
    let q = Matrix64::from_fn(TOKENS, HEAD_DIM, |_, _| rng.normal(0.0, 0.5));
    let k = Matrix64::from_fn(TOKENS, HEAD_DIM, |_, _| rng.normal(0.0, 0.5));
    let v = Matrix64::from_fn(TOKENS, HEAD_DIM, |_, _| rng.normal(0.0, 0.5));
    let k_t = k.transpose();

    let core = Dptc::new(DptcConfig::lt_paper());
    let noisy = Fidelity::paper_noisy(1);
    let scale = 1.0 / (HEAD_DIM as f64).sqrt();

    // Photonic path: both dynamic products tiled through the DPTC.
    let mut scores = core.gemm(q.view(), k_t.view(), 8, &noisy).scale(scale);
    softmax_rows(&mut scores);
    let out_photonic = core.gemm(scores.view(), v.view(), 8, &Fidelity::paper_noisy(2));

    // Exact path: same API, quantized-but-noiseless reference.
    let mut scores_exact = core.gemm_quantized(q.view(), k_t.view(), 8).scale(scale);
    softmax_rows(&mut scores_exact);
    let out_exact = core.gemm_quantized(scores_exact.view(), v.view(), 8);

    let max_err = out_photonic.max_abs_diff(&out_exact);
    let mut rms = 0.0;
    for (a, b) in out_photonic.data().iter().zip(out_exact.data()) {
        rms += (a - b) * (a - b);
    }
    rms = (rms / (TOKENS * HEAD_DIM) as f64).sqrt();
    let out_scale = out_exact.max_abs();

    println!("attention head ({TOKENS} tokens, d_k = {HEAD_DIM}) on DPTC:");
    println!("  output scale        : {out_scale:.3}");
    println!("  photonic max error  : {max_err:.4}");
    println!("  photonic RMS error  : {rms:.4}");
    println!("  relative RMS        : {:.2}%", rms / out_scale * 100.0);
    println!("\nboth Q K^T and A V ran with dynamically encoded, full-range operands -");
    println!("no weight mapping, no device reprogramming, no operand decomposition.");
}
