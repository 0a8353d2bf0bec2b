//! A minimal, dependency-free benchmark harness.
//!
//! The container this workspace builds in has no crates.io access, so the
//! benches cannot link `criterion`; this module provides the small subset
//! we need: warmup, a measurement window split into [`WINDOWS`] equal
//! sub-windows, and a one-line report with the mean time per iteration,
//! the median and median absolute deviation (MAD) of the sub-windows'
//! means — the spread a comparison must beat — and relative
//! comparisons.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sub-windows a measurement is split into (at least five, so a median
/// and a MAD mean something).
pub const WINDOWS: usize = 5;

/// Result of one benchmark: wall-clock time per iteration, with its
/// spread across sub-windows.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark label.
    pub name: String,
    /// Iterations measured (after warmup).
    pub iters: u64,
    /// Mean nanoseconds per iteration over the whole measurement.
    pub ns_per_iter: f64,
    /// Median over the sub-windows of their mean nanoseconds per
    /// iteration.
    pub median_ns: f64,
    /// Median absolute deviation of the sub-window means from
    /// `median_ns`.
    pub mad_ns: f64,
}

impl BenchReport {
    /// Mean time per iteration in microseconds.
    pub fn us_per_iter(&self) -> f64 {
        self.ns_per_iter / 1e3
    }

    /// Speedup of `self` relative to `other` (how many times faster
    /// `self` is).
    pub fn speedup_vs(&self, other: &BenchReport) -> f64 {
        other.ns_per_iter / self.ns_per_iter
    }

    /// Formats the report as a fixed-width table row: the mean, then the
    /// median ± MAD of the sub-window means.
    pub fn row(&self) -> String {
        format!(
            "{:<44} {:>12.2} us/iter  (median {:.2} ± {:.2} MAD over {WINDOWS} windows, {} iters)",
            self.name,
            self.us_per_iter(),
            self.median_ns / 1e3,
            self.mad_ns / 1e3,
            self.iters
        )
    }
}

/// The median of a non-empty `values` (the mean of the middle two for
/// an even count). Reorders `values`.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The median and the median absolute deviation of `values`.
fn median_mad(values: &[f64]) -> (f64, f64) {
    let med = median(&mut values.to_vec());
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    (med, median(&mut deviations))
}

/// Runs `f` repeatedly: a short warmup, then [`WINDOWS`] back-to-back
/// sub-windows of at least `window / WINDOWS` (and at least two
/// iterations) each. Reports the mean time per iteration over all of
/// them and the median and MAD of the per-window means. The closure's
/// result is `black_box`ed so the optimizer cannot elide the work.
pub fn bench_for<R>(name: &str, window: Duration, mut f: impl FnMut() -> R) -> BenchReport {
    for _ in 0..3 {
        black_box(f());
    }
    let sub_window = window / WINDOWS as u32;
    let mut window_means = Vec::with_capacity(WINDOWS);
    let (mut iters, mut total) = (0u64, Duration::ZERO);
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let mut n = 0u64;
        loop {
            black_box(f());
            n += 1;
            if n >= 2 && start.elapsed() >= sub_window {
                break;
            }
        }
        let elapsed = start.elapsed();
        window_means.push(elapsed.as_nanos() as f64 / n as f64);
        iters += n;
        total += elapsed;
    }
    let (median_ns, mad_ns) = median_mad(&window_means);
    BenchReport {
        name: name.to_string(),
        iters,
        ns_per_iter: total.as_nanos() as f64 / iters as f64,
        median_ns,
        mad_ns,
    }
}

/// [`bench_for`] with the default 200 ms measurement window.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> BenchReport {
    bench_for(name, Duration::from_millis(200), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_positive_timings() {
        let r = bench_for("spin", Duration::from_millis(5), || {
            (0..1000u64).sum::<u64>()
        });
        assert!(r.ns_per_iter > 0.0);
        assert!(r.median_ns > 0.0 && r.mad_ns >= 0.0);
        assert!(r.iters >= 2 * WINDOWS as u64);
        assert!(r.row().contains("spin") && r.row().contains("MAD"));
    }

    #[test]
    fn median_and_mad_resist_one_outlier() {
        // One slow window (a descheduled process) moves the mean, not
        // the median or the MAD.
        assert_eq!(median_mad(&[10.0, 12.0, 11.0, 9.0, 500.0]), (11.0, 1.0));
        assert_eq!(median_mad(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.0));
    }

    #[test]
    fn speedup_is_a_ratio() {
        let fast = BenchReport {
            name: "fast".into(),
            iters: 1,
            ns_per_iter: 100.0,
            median_ns: 100.0,
            mad_ns: 0.0,
        };
        let slow = BenchReport {
            name: "slow".into(),
            ns_per_iter: 400.0,
            median_ns: 400.0,
            ..fast.clone()
        };
        assert!((fast.speedup_vs(&slow) - 4.0).abs() < 1e-12);
    }
}
