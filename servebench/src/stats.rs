//! Small numeric and process helpers: order statistics, a seeded
//! sampler for picking gate requests, and the process's peak RSS.

use lt_runtime::loadgen::percentile;

/// Nearest-rank percentile (`p` in `[0, 100]`).
pub fn percentile_f64(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Interquartile range over the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |p: f64| {
        let h = (n + 1) as f64 * p;
        let j = h.floor() as usize;
        if j < 1 {
            sorted[0]
        } else if j >= n {
            sorted[n - 1]
        } else {
            sorted[j - 1] + (h - j as f64) * (sorted[j] - sorted[j - 1])
        }
    };
    (quartile(0.75) - quartile(0.25)) / median(values)
}

/// Nearest-rank percentile of simulated picosecond samples, as `f64`.
pub fn percentile_ps(samples: &[u64], p: f64) -> f64 {
    percentile(samples, p) as f64
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64 over the workload seed: picks which requests the
/// correctness gate re-decodes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `count` distinct indices from `0..n`, in increasing order.
    pub fn sample(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::with_capacity(count.min(n));
        while picked.len() < count.min(n) {
            let i = (self.next_u64() % n as u64) as usize;
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
    }
}
