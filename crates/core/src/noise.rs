//! Deterministic Gaussian noise source.
//!
//! Analog optical computing is subject to encoding magnitude noise, phase
//! drift, and systematic detection noise (paper Section III-C). All of the
//! stochastic models in this workspace draw from this sampler so that every
//! experiment is reproducible from an explicit seed, regardless of which
//! `rand` version is linked elsewhere.
//!
//! The generator is `xoshiro256**` seeded through SplitMix64 (the reference
//! construction from Blackman & Vigna), with Gaussians produced by the
//! 128-layer ziggurat of Marsaglia & Tsang — in the common case one raw
//! 64-bit draw and two table lookups per sample, no transcendentals.
//! (The noisy photonic models draw several Gaussians per MAC, so the
//! sampler is on the workspace's hottest path; the earlier Box-Muller
//! implementation spent an `ln`/`sqrt`/`sin`/`cos` per pair and dominated
//! recorded-forward wall-clock.)

use std::sync::OnceLock;

/// Number of ziggurat layers.
const ZIG_LAYERS: usize = 128;
/// Rightmost layer edge for 128 layers (Marsaglia & Tsang 2000).
const ZIG_R: f64 = 3.442_619_855_899;
/// Common layer area for 128 layers.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Precomputed layer edges `x[i]` (decreasing, `x[0]` is the virtual
/// base-strip width, `x[1] == ZIG_R`, `x[128] ~= 0`) and the density at
/// each edge `f[i] = exp(-x[i]^2 / 2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0f64; ZIG_LAYERS + 1];
        // The base strip's width is inflated so its area (including the
        // unbounded tail beyond ZIG_R) equals the common layer area.
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            // Each layer adds V / x[i] of height; invert the density.
            let y = pdf(x[i]) + ZIG_V / x[i];
            x[i + 1] = (-2.0 * y.ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut f = [0.0f64; ZIG_LAYERS + 1];
        for i in 0..=ZIG_LAYERS {
            f[i] = pdf(x[i]);
        }
        ZigTables { x, f }
    })
}

/// One xoshiro256** step: advances `s` and returns the output word.
#[inline(always)]
fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
    let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// The top 53 bits of a raw draw as a uniform double in `[0, 1)`.
#[inline(always)]
fn unit_f64(bits: u64) -> f64 {
    // The intermediate `i64` cast is value-preserving (the shifted value
    // fits in 53 bits) and matters: the baseline x86-64 target has no
    // unsigned integer-to-double instruction, so a `u64 as f64` costs a
    // multi-uop compensation sequence on this hot path while
    // `i64 as f64` is a single `cvtsi2sd`.
    ((bits >> 11) as i64) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The ziggurat's common case. One raw draw supplies the layer index
/// (7 bits), the sign (1 bit), and the in-layer position (53 bits); the
/// sample is accepted when the point lies in its layer's rectangle.
/// The sign is applied by flipping the IEEE sign bit, which equals
/// multiplying the non-negative `x` by ±1.0 (including the `-0.0` it
/// produces when the position is 0) without a multiply on the latency
/// chain.
#[inline(always)]
fn zig_rectangle(t: &ZigTables, bits: u64) -> Option<f64> {
    let i = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
    let neg = u64::from(bits & ZIG_LAYERS as u64 == 0) << 63;
    let x = unit_f64(bits) * t.x[i];
    (x < t.x[i + 1]).then(|| f64::from_bits(x.to_bits() ^ neg))
}

/// A seedable pseudo-random source of uniform and Gaussian samples.
///
/// ```
/// use lt_core::noise::GaussianSampler;
/// let mut a = GaussianSampler::new(42);
/// let mut b = GaussianSampler::new(42);
/// assert_eq!(a.sample(), b.sample(), "same seed, same stream");
/// ```
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    state: [u64; 4],
}

impl GaussianSampler {
    /// Creates a sampler from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        GaussianSampler {
            state: [next(), next(), next(), next()],
        }
    }

    /// Returns the next raw 64-bit output (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_next(&mut self.state)
    }

    /// Returns a uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Returns a uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample below zero");
        // Modulo bias is negligible for the small n used here, but use
        // multiply-shift for a cleaner distribution anyway.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Returns a standard-normal sample (mean 0, variance 1).
    #[inline]
    pub fn sample(&mut self) -> f64 {
        let t = zig_tables();
        let bits = self.next_u64();
        match zig_rectangle(t, bits) {
            Some(x) => x,
            None => self.zig_beyond_rectangle(t, bits),
        }
    }

    /// The rest of the ziggurat after `bits` missed its layer's
    /// rectangle (about 1 % of draws): the tail beyond `ZIG_R` for the
    /// base strip, else the wedge's density test, and on rejection fresh
    /// draws from the top. Out of line so the common case stays small
    /// enough to inline into every caller.
    #[cold]
    #[inline(never)]
    fn zig_beyond_rectangle(&mut self, t: &ZigTables, mut bits: u64) -> f64 {
        loop {
            let i = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
            let sign = if bits & ZIG_LAYERS as u64 == 0 {
                -1.0
            } else {
                1.0
            };
            let x = unit_f64(bits) * t.x[i];
            if i == 0 {
                // Base strip beyond ZIG_R: sample the tail (Marsaglia).
                loop {
                    let ex = -self.uniform_nonzero().ln() / ZIG_R;
                    let ey = -self.uniform_nonzero().ln();
                    if ey + ey > ex * ex {
                        return sign * (ZIG_R + ex);
                    }
                }
            }
            // Wedge between x[i+1] and x[i]: accept under the density.
            if t.f[i] + self.uniform() * (t.f[i + 1] - t.f[i]) < (-0.5 * x * x).exp() {
                return sign * x;
            }
            bits = self.next_u64();
            if let Some(x) = zig_rectangle(t, bits) {
                return x;
            }
        }
    }

    /// A uniform sample in `(0, 1)` — never exactly zero, so logarithms
    /// of it are finite.
    fn uniform_nonzero(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                return u;
            }
        }
    }

    /// Returns a Gaussian sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.sample()
    }

    /// Fills `out` with standard-normal samples: the same values, and
    /// the same stream position afterwards, as one [`Self::sample`] call
    /// per element.
    ///
    /// This is the bulk entry point for callers that know how many draws
    /// they need (the noisy DPTC draws a whole tile's encoding noise at
    /// once). It fetches the ziggurat tables once and keeps the
    /// generator state in locals across the loop, so a draw that lands
    /// in its layer's rectangle costs one xoshiro step, one conversion,
    /// one multiply and one compare; only the rare wedge/tail
    /// continuation writes the state back and runs out of line.
    pub fn fill_normal(&mut self, out: &mut [f64]) {
        let t = zig_tables();
        let mut state = self.state;
        for v in out {
            let bits = xoshiro_next(&mut state);
            *v = match zig_rectangle(t, bits) {
                Some(x) => x,
                None => {
                    self.state = state;
                    let x = self.zig_beyond_rectangle(t, bits);
                    state = self.state;
                    x
                }
            };
        }
        self.state = state;
    }

    /// Derives an independent child sampler. Useful for giving each
    /// simulated component its own stream while staying reproducible.
    pub fn fork(&mut self) -> GaussianSampler {
        GaussianSampler::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = GaussianSampler::new(7);
        let mut b = GaussianSampler::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaussianSampler::new(1);
        let mut b = GaussianSampler::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut g = GaussianSampler::new(3);
        for _ in 0..10_000 {
            let u = g.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut g = GaussianSampler::new(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = g.sample();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn gaussian_tail_fractions() {
        // Catches ziggurat layer/wedge/tail mistakes that the first two
        // moments alone would miss: the mass beyond 1, 2, and 3 sigma
        // (two-sided) must match the normal CDF, including mass past
        // the rightmost layer edge ZIG_R = 3.44.
        let mut g = GaussianSampler::new(29);
        let n = 400_000;
        let (mut p1, mut p2, mut p3, mut pr) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..n {
            let x = g.sample().abs();
            p1 += u32::from(x > 1.0);
            p2 += u32::from(x > 2.0);
            p3 += u32::from(x > 3.0);
            pr += u32::from(x > ZIG_R);
        }
        let frac = |c: u32| c as f64 / n as f64;
        assert!((frac(p1) - 0.3173).abs() < 0.005, "P(|x|>1) {}", frac(p1));
        assert!((frac(p2) - 0.0455).abs() < 0.002, "P(|x|>2) {}", frac(p2));
        assert!((frac(p3) - 0.0027).abs() < 0.001, "P(|x|>3) {}", frac(p3));
        // ~5.8e-4 of the mass lies beyond the last layer edge; the tail
        // sampler must produce it (zero here means the tail is dead).
        assert!(pr > 0, "no samples beyond ZIG_R");
        assert!(frac(pr) < 2e-3, "P(|x|>R) {}", frac(pr));
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut g = GaussianSampler::new(13);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += g.normal(5.0, 0.5);
        }
        assert!((sum / n as f64 - 5.0).abs() < 0.02);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut g = GaussianSampler::new(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[g.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut g = GaussianSampler::new(19);
        let mut child = g.fork();
        // Child stream should not replay the parent stream.
        let parent: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        let kid: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(parent, kid);
    }

    /// FNV-1a over the IEEE-754 bits of `values`.
    fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    #[test]
    fn sample_stream_is_pinned() {
        // Digests of the first 200 000 `sample()` draws per seed, taken
        // from the per-draw ziggurat before `fill_normal` became the bulk
        // path. 200 000 draws reach the wedge (~1 %) and the tail
        // (~0.06 %), so a change to any branch of the sampler, or to how
        // many raw draws a branch consumes, moves a digest.
        const PINNED: [(u64, u64); 4] = [
            (0, 0x11ae_95bb_7afc_0b17),
            (1, 0xc065_5b46_7512_8e86),
            (7, 0xe853_2bbc_c48b_36b4),
            (2718, 0x780f_b175_2f65_3d5f),
        ];
        for (seed, digest) in PINNED {
            let mut g = GaussianSampler::new(seed);
            let got = fnv1a((0..200_000).map(|_| g.sample()));
            assert_eq!(got, digest, "seed {seed}: sample() stream moved");
        }
    }

    #[test]
    fn fill_normal_equals_per_draw_sampling() {
        for len in [0usize, 1, 7, 4096] {
            let mut bulk = GaussianSampler::new(len as u64 + 5);
            let mut single = bulk.clone();
            let mut out = vec![f64::NAN; len];
            bulk.fill_normal(&mut out);
            let want: Vec<u64> = (0..len).map(|_| single.sample().to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "len {len}");
            assert_eq!(bulk.next_u64(), single.next_u64(), "len {len}: state");
        }
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn uniform_in_rejects_empty_interval() {
        GaussianSampler::new(0).uniform_in(1.0, 1.0);
    }
}
