//! Benches for the DPTC core: one-shot MM and tiled GEMM at the
//! simulation fidelities, the ragged-vs-flat storage comparison, the
//! noisy backend per call at serving shapes (on a plain B and on a B
//! whose DAC codes are memoized), and bulk vs per-draw Gaussian
//! sampling.
//!
//! # Before/after note (flat `Matrix` migration)
//!
//! The seed stored operands as ragged `Vec<Vec<f64>>`: every row was its
//! own heap allocation, and the one-shot path allocated two ragged
//! encode buffers plus a ragged output *per call* — three `Vec<Vec<_>>`
//! (39 heap allocations at 12x12) on the hot path of every tile of
//! every GEMM. The `lt-core` migration stores everything flat and
//! contiguous: 3 allocations, linear indexing, in-order cache walks.
//! The `ragged(pre-PR)` benchmarks below re-implement the seed's ragged
//! kernel verbatim so the win stays measurable in the bench history.
//!
//! On the 2-core Intel Xeon VM (release, 12x12x12 one-shot) the
//! *deterministic* path (`one_shot_det/*`, noiseless model — what the
//! quantized digital reference and every zero-sigma tile runs) takes
//! ~33-35 us/iter on the ragged kernel, which re-evaluates the Eq. 9
//! `sin` for all 1728 MACs, and ~4.3 us/iter on the flat kernel with the
//! multiplier hoisted into the `WavelengthCoefficients` cache. The
//! *stochastic* path (`one_shot_noisy/*`) goes from ~56 us/iter ragged
//! (1728 phase draws per call) to ~11-16 us/iter flat (576 draws: one
//! encoding per operand element, one phase and one systematic draw per
//! output).
//!
//! # Before/after note (bulk noise draws, table-free DAC)
//!
//! The analytic tiled GEMM draws each tile's Gaussians with one
//! `GaussianSampler::fill_normal` and quantizes without a lookup table,
//! with every output bit-identical (ARCHITECTURE.md §9). Four alternated
//! runs per side on the same VM: `backend_paper_8bit/1x32x32` went from
//! 25-35 us to 17-20 us, `4x32x32` from 45-58 us to 31-40 us, `1x8x17`
//! from 3.9-5.7 us to 2.5-3.5 us and `1x768x768` from 16.8-19.8 ms to
//! 10.3-12.4 ms. `normal_4096/*` took 38-49 us before the change (one
//! out-of-line `sample()` per draw, which `fill_normal` also was); it
//! takes 27-35 us through the now-inlined `sample` and 22-27 us through
//! `fill_normal`.

use lt_bench::timing::bench;
use lt_core::{ComputeBackend, GaussianSampler, Matrix64, OperandMemo, RunCtx};
use lt_dptc::ddot::WavelengthCoefficients;
use lt_dptc::{DdotCircuit, Dptc, DptcBackend, DptcConfig, Fidelity, NoiseModel};

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix64 {
    let mut rng = GaussianSampler::new(seed);
    Matrix64::from_fn(rows, cols, |_, _| rng.uniform_in(-1.0, 1.0))
}

/// Copies a flat matrix into the seed's ragged representation (the
/// conversion lives here now that the compatibility shims are gone).
fn ragged(m: &Matrix64) -> Vec<Vec<f64>> {
    (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
}

/// The seed's ragged noisy one-shot kernel, reproduced for the
/// before/after comparison (per-row allocations and all).
fn ragged_matmul_noisy(
    core: &Dptc,
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    noise: &NoiseModel,
    seed: u64,
) -> Vec<Vec<f64>> {
    let cfg = core.config();
    let (nh, nv, nlambda) = (cfg.nh, cfg.nv, cfg.nlambda);
    let mut rng = GaussianSampler::new(seed);
    let coeffs = WavelengthCoefficients::compute(core.ddot().grid(), &noise.dispersion);
    let perturb = |v: f64, rng: &mut GaussianSampler| {
        if noise.sigma_magnitude > 0.0 {
            v + rng.normal(0.0, noise.sigma_magnitude * v.abs())
        } else {
            v
        }
    };
    let a_hat: Vec<Vec<f64>> = a
        .iter()
        .map(|row| row.iter().map(|&v| perturb(v, &mut rng)).collect())
        .collect();
    let b_hat: Vec<Vec<f64>> = b
        .iter()
        .map(|row| row.iter().map(|&v| perturb(v, &mut rng)).collect())
        .collect();
    let mut out = vec![vec![0.0; nv]; nh];
    for i in 0..nh {
        for j in 0..nv {
            let mut io = 0.0;
            for l in 0..nlambda {
                let dphi_d = if noise.sigma_phase_rad > 0.0 {
                    rng.normal(0.0, noise.sigma_phase_rad)
                } else {
                    0.0
                };
                let phi = dphi_d - std::f64::consts::FRAC_PI_2 + coeffs.dphi[l];
                let (t, k) = (coeffs.t[l], coeffs.k[l]);
                let (x, y) = (a_hat[i][l], b_hat[l][j]);
                io += 2.0 * t * k * (-phi.sin()) * x * y + (t * t - k * k) * (x * x - y * y) / 2.0;
            }
            out[i][j] = if noise.sigma_systematic > 0.0 {
                io * (1.0 + rng.normal(0.0, noise.sigma_systematic))
            } else {
                io
            };
        }
    }
    out
}

fn main() {
    let core = Dptc::new(DptcConfig::lt_paper());
    let a = rand_matrix(12, 12, 1);
    let b = rand_matrix(12, 12, 2);
    let nm = NoiseModel::paper_default();

    println!("dptc benches (12x12x12 core)\n");

    let ideal = bench("one_shot/ideal", || {
        core.matmul(a.view(), b.view(), &Fidelity::Ideal)
    });
    println!("{}", ideal.row());

    // Before/after: the seed's ragged kernel vs the flat Matrix kernel.
    let ragged_a = ragged(&a);
    let ragged_b = ragged(&b);
    let quiet = NoiseModel::noiseless();
    let ragged_det = bench("one_shot_det/ragged(pre-PR)", || {
        ragged_matmul_noisy(&core, &ragged_a, &ragged_b, &quiet, 7)
    });
    println!("{}", ragged_det.row());
    let flat_det = bench("one_shot_det/flat(lt-core)", || {
        core.matmul(
            a.view(),
            b.view(),
            &Fidelity::AnalyticNoisy {
                noise: quiet,
                seed: 7,
            },
        )
    });
    println!("{}", flat_det.row());
    println!(
        "  -> flat storage speedup (deterministic path): {:.2}x\n",
        flat_det.speedup_vs(&ragged_det)
    );

    let ragged = bench("one_shot_noisy/ragged(pre-PR)", || {
        ragged_matmul_noisy(&core, &ragged_a, &ragged_b, &nm, 7)
    });
    println!("{}", ragged.row());
    let flat = bench("one_shot_noisy/flat(lt-core)", || {
        core.matmul(a.view(), b.view(), &Fidelity::paper_noisy(7))
    });
    println!("{}", flat.row());
    println!(
        "  -> flat storage speedup (RNG-bound noisy path): {:.2}x\n",
        flat.speedup_vs(&ragged)
    );

    let circuit = DdotCircuit::paper(12);
    let x: Vec<f64> = (0..12).map(|i| (i as f64 / 11.0) - 0.5).collect();
    let y: Vec<f64> = (0..12).map(|i| 0.5 - (i as f64 / 11.0)).collect();
    let r = bench("ddot_circuit/length12", || {
        circuit.dot_noisy(&x, &y, &nm, 3)
    });
    println!("{}", r.row());

    for &(m, k, n) in &[(24usize, 24usize, 24usize), (64, 64, 64), (197, 64, 197)] {
        let a = rand_matrix(m, k, 3);
        let b = rand_matrix(k, n, 4);
        let r = bench(&format!("tiled_gemm_noisy_4bit/{m}x{k}x{n}"), || {
            core.gemm(a.view(), b.view(), 4, &Fidelity::paper_noisy(11))
        });
        println!("{}", r.row());
    }

    // The serving path: `BackendEngine` calls `gemm_into` on a reused
    // buffer. The first four shapes are servebench `dptc_pressure`'s
    // decode GEMMs (tiny decoder, dim 32), the last a GPT2-small
    // projection. Each `memo` row runs the same product on a B that
    // carries a memo, which the harness's warmup fills with B's DAC
    // codes, as a staged weight's first product does.
    println!();
    let backend = DptcBackend::paper(8, 5);
    let mut out = Matrix64::zeros(0, 0);
    for &(m, k, n) in &[
        (1usize, 32usize, 32usize),
        (4, 32, 32),
        (1, 32, 64),
        (1, 8, 17),
        (1, 768, 768),
    ] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(k, n, 6);
        let memo = OperandMemo::new();
        for (label, b) in [("", b.view()), ("/memo", b.view().with_memo(&memo))] {
            let mut ctx = RunCtx::new(7);
            let r = bench(&format!("backend_paper_8bit/{m}x{k}x{n}{label}"), || {
                backend.gemm_into(a.view(), b, &mut ctx, &mut out);
                out.get(0, 0)
            });
            println!("{}", r.row());
        }
    }

    // Bulk Gaussian draws against one `sample()` call per draw.
    println!();
    let mut rng = GaussianSampler::new(9);
    let mut draws = vec![0.0; 4096];
    let per_draw = bench("normal_4096/per-draw sample", || {
        for v in draws.iter_mut() {
            *v = rng.sample();
        }
        draws[0]
    });
    println!("{}", per_draw.row());
    let bulk = bench("normal_4096/fill_normal", || {
        rng.fill_normal(&mut draws);
        draws[0]
    });
    println!("{}", bulk.row());
    println!(
        "  -> fill_normal speedup: {:.2}x",
        bulk.speedup_vs(&per_draw)
    );
}
