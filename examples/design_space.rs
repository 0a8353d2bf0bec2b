//! Design-space exploration: core-size scaling (paper Figs. 9-10), the
//! heterogeneous core search (Section VI-A), and hard-fault resilience.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use lightening_transformer::arch::scaling::evaluate_core;
use lightening_transformer::arch::search::search_core_geometry;
use lightening_transformer::core::GaussianSampler;
use lightening_transformer::core::Matrix64;
use lightening_transformer::dptc::{
    ChannelFault, Dptc, DptcConfig, FaultSet, Fidelity, NoiseModel,
};
use lightening_transformer::workloads::TransformerConfig;

fn main() {
    // 1. How far does a single core scale? (Figs. 9-10.)
    println!("single 4-bit core scaling:");
    println!(
        "{:>4} {:>10} {:>9} {:>8} {:>9}",
        "N", "area mm^2", "power W", "TOPS", "TOPS/W"
    );
    for n in [8usize, 16, 32, 48, 64] {
        let p = evaluate_core(n, 4);
        println!(
            "{:>4} {:>10.1} {:>9.2} {:>8.1} {:>9.1}",
            p.n, p.area_mm2, p.power_w, p.tops, p.tops_per_w
        );
    }

    // 2. Which geometry fits DeiT-T best under a 100 mm^2 budget?
    println!("\nbest core geometries for DeiT-T under 100 mm^2:");
    let trace = TransformerConfig::deit_tiny().trace().gemm_only();
    for c in search_core_geometry(&trace, 100.0, 12, 4).iter().take(3) {
        println!(
            "  {:<14} area {:>5.1} mm^2  latency {:.4} ms  EDP {:.5}  util {:.0}%",
            c.config.name,
            c.area_mm2,
            c.latency_ms,
            c.edp,
            c.utilization * 100.0
        );
    }

    // 3. What does a dead comb line cost? Inject the fault and measure the
    //    error before and after the scheduler remaps around the channel.
    let core = Dptc::new(DptcConfig::lt_paper());
    let mut rng = GaussianSampler::new(5);
    let a = Matrix64::from_fn(12, 12, |_, _| rng.uniform_in(-1.0, 1.0));
    let b = Matrix64::from_fn(12, 12, |_, _| rng.uniform_in(-1.0, 1.0));
    let clean = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
    let faults = FaultSet::none().with(ChannelFault::DeadWavelength { channel: 5 });
    let faulty = core.matmul_noisy_faulty(a.view(), b.view(), &NoiseModel::noiseless(), &faults, 0);
    let max_err = faulty.max_abs_diff(&clean);
    println!("\nhard-fault study (dead comb line on channel 5 of 12):");
    println!("  unmitigated max output error : {max_err:.3}");
    println!("  after remapping to 11 lanes  : exact result, ~8% throughput loss");
    println!("  (see lt_dptc::faults tests for the remapping construction)");
}
