//! Property-style tests on core invariants across the workspace.
//!
//! The container has no crates.io access, so instead of `proptest` these
//! run each invariant over a deterministic sweep of seeded random cases
//! (shrinking is traded for reproducibility — every failure prints the
//! seed that produced it).

use lightening_transformer::baselines::svd::{jacobi_svd, reconstruct};
use lightening_transformer::core::{
    GaussianSampler, Matrix64, Module, Op, OpKind, OperandDynamics, Quantizer,
};
use lightening_transformer::dptc::{DDot, Dptc, DptcConfig, Fidelity, NoiseModel};
use lightening_transformer::photonics::units::Decibels;
use lightening_transformer::photonics::wdm::DispersionModel;

fn rand_vec(rng: &mut GaussianSampler, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// The noiseless DDot is exactly the dot product for any operands.
#[test]
fn ddot_noiseless_is_exact() {
    let mut rng = GaussianSampler::new(100);
    for case in 0..50 {
        let n = 1 + rng.below(31);
        let x = rand_vec(&mut rng, n);
        let y = rand_vec(&mut rng, n);
        let ddot = DDot::new(n);
        let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = ddot.dot_noisy(&x, &y, &NoiseModel::noiseless(), 0);
        assert!((got - expected).abs() < 1e-9, "case {case} (n={n})");
    }
}

/// Quantization never moves a normalized value by more than half a step,
/// and is idempotent.
#[test]
fn quantizer_bounds() {
    let mut rng = GaussianSampler::new(101);
    for case in 0..500 {
        let bits = 2 + (rng.below(9) as u32);
        let v = rng.uniform_in(-1.0, 1.0);
        let q = Quantizer::new(bits);
        let qv = q.quantize_unit(v);
        assert!((qv - v).abs() <= q.max_error() + 1e-12, "case {case}");
        assert_eq!(q.quantize_unit(qv), qv, "case {case}");
        assert!((-1.0..=1.0).contains(&qv), "case {case}");
    }
}

/// Tiled GEMM with zero noise matches a reference matmul for random
/// shapes (padding/edge handling must be exact).
#[test]
fn tiled_gemm_matches_reference() {
    let core = Dptc::new(DptcConfig::new(4, 4, 4));
    let mut rng = GaussianSampler::new(102);
    for case in 0..40 {
        let m = 1 + rng.below(19);
        let k = 1 + rng.below(19);
        let n = 1 + rng.below(19);
        let a = Matrix64::from_fn(m, k, |_, _| rng.uniform_in(-1.0, 1.0));
        let b = Matrix64::from_fn(k, n, |_, _| rng.uniform_in(-1.0, 1.0));
        let got = core.gemm(
            a.view(),
            b.view(),
            16,
            &Fidelity::AnalyticNoisy {
                noise: NoiseModel::noiseless(),
                seed: 0,
            },
        );
        let exact = lightening_transformer::core::reference_gemm(&a.view(), &b.view());
        // 16-bit quantization per tile keeps errors tiny.
        assert!(
            got.max_abs_diff(&exact) < 2e-3,
            "case {case} ({m}x{k}x{n}): err {}",
            got.max_abs_diff(&exact)
        );
    }
}

/// dB -> linear -> dB round-trips.
#[test]
fn decibel_round_trip() {
    let mut rng = GaussianSampler::new(103);
    for _ in 0..500 {
        let db = rng.uniform_in(0.0, 60.0);
        let lin = Decibels(db).to_linear();
        assert!((Decibels::from_linear(lin).value() - db).abs() < 1e-9);
        assert!(lin <= 1.0 && lin > 0.0);
    }
}

/// The lossless coupler conserves power at every wavelength.
#[test]
fn dispersion_coupler_is_unitary() {
    let mut rng = GaussianSampler::new(104);
    let d = DispersionModel::paper();
    for _ in 0..500 {
        let lambda = 1550.0 + rng.uniform_in(-10.0, 10.0);
        let t = d.through_coefficient(lambda);
        let k = d.cross_coefficient(lambda);
        assert!((t * t + k * k - 1.0).abs() < 1e-12);
    }
}

/// Jacobi SVD reconstructs arbitrary random square matrices and its
/// singular values are sorted and non-negative.
#[test]
fn svd_reconstructs() {
    let mut rng = GaussianSampler::new(105);
    for case in 0..60 {
        let n = 2 + rng.below(8);
        let a: Vec<f64> = (0..n * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let svd = jacobi_svd(&a, n, n);
        let back = reconstruct(&svd, n, n);
        for (x, y) in a.iter().zip(&back) {
            assert!((x - y).abs() < 1e-8, "case {case} (n={n})");
        }
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1]), "case {case}");
        assert!(svd.s.iter().all(|&s| s >= 0.0), "case {case}");
    }
}

/// Eq. 6: the crossbar sharing factor equals 2*Nh*Nv/(Nh+Nv) for any
/// core geometry.
#[test]
fn encoding_saving_formula() {
    let mut rng = GaussianSampler::new(106);
    for _ in 0..200 {
        let nh = 1 + rng.below(31);
        let nv = 1 + rng.below(31);
        let nl = 1 + rng.below(31);
        let core = Dptc::new(DptcConfig::new(nh, nv, nl));
        let saving = core.encoding_cost().saving_factor();
        let expect = 2.0 * (nh * nv) as f64 / (nh + nv) as f64;
        assert!((saving - expect).abs() < 1e-9);
    }
}

/// GEMM op accounting: MACs and module assignment are consistent.
#[test]
fn gemm_op_accounting() {
    let mut rng = GaussianSampler::new(107);
    for _ in 0..200 {
        let m = 1 + rng.below(511);
        let k = 1 + rng.below(511);
        let n = 1 + rng.below(511);
        let c = 1 + rng.below(15);
        let op = Op::gemm_n(OpKind::AttnQk, m, k, n, c);
        assert_eq!(op.total_macs(), (m * k * n * c) as u64);
        assert_eq!(op.module(), Module::Mha);
        assert_eq!(op.dynamics(), Some(OperandDynamics::BothDynamic));
    }
}

/// Utilization is in (0, 1] and exact for divisible shapes.
#[test]
fn utilization_bounds() {
    let mut rng = GaussianSampler::new(108);
    let cfg = DptcConfig::lt_paper();
    for _ in 0..300 {
        let m = 1 + rng.below(299);
        let k = 1 + rng.below(299);
        let n = 1 + rng.below(299);
        let u = cfg.utilization(m, k, n);
        assert!(u > 0.0 && u <= 1.0 + 1e-12);
        if m.is_multiple_of(12) && k.is_multiple_of(12) && n.is_multiple_of(12) {
            assert!((u - 1.0).abs() < 1e-12);
        }
    }
}
