//! Seeded load generation for the serving stack.
//!
//! A serving system is judged under *load*, not on isolated runs: the
//! latency it delivers depends on how requests arrive (steady vs
//! bursty), how long they are, and what service class they carry. This
//! module synthesizes such workloads deterministically — every trace is
//! a pure function of a [`LoadgenConfig`] (seed included), so a CI job
//! can replay the exact same arrival pattern on every commit and gate
//! the resulting latency percentiles.
//!
//! * [`ArrivalModel`] — Poisson (exponential inter-arrivals) or
//!   Markov-modulated bursty arrivals (a two-state calm/burst chain, the
//!   classical model for flash crowds).
//! * [`LengthMix`] — a categorical mix of prompt/output length buckets
//!   (e.g. mostly-short with a heavy tail of long prompts).
//! * [`SloMix`] — a categorical mix of [`SloClass`] assignments, each
//!   with an optional time-to-first-token deadline.
//! * [`generate`](LoadgenConfig::generate) — the trace itself: a vector
//!   of [`GenRequest`] with arrival timestamps in simulated
//!   microseconds.
//! * [`percentile`] / [`LatencyStats`] — nearest-rank percentile
//!   helpers for summarizing measured latencies.
//!
//! All randomness comes from a private SplitMix64 stream; the module
//! uses no wall clock and no global state.
//!
//! ```
//! use lt_runtime::loadgen::LoadgenConfig;
//!
//! let config = LoadgenConfig::smoke(17, 8);
//! let a = config.generate();
//! let b = config.generate();
//! assert_eq!(a, b, "same config, same trace — bit for bit");
//! assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
//! ```

/// The service-level class of a request: its admission priority when
/// the serving layer cannot start everything at once.
///
/// Classes order admission *between* requests of different classes;
/// within one class admission is arrival order. A class says nothing
/// about *deadlines*; the serving frontend layers deadline checks on
/// top (see `lt_nn::serve::lifecycle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// Latency-sensitive traffic: admitted before everything else.
    Interactive,
    /// The default class — plain FIFO among themselves, after any
    /// waiting interactive requests.
    #[default]
    Standard,
    /// Throughput traffic with no latency expectation: admitted only
    /// when nothing of a higher class waits.
    Batch,
}

impl SloClass {
    /// The admission rank (lower admits first).
    pub fn rank(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Short display name (`interactive` / `standard` / `batch`).
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }
}

/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele et al.,
/// "Fast splittable pseudorandom number generators"). One instance per
/// generated trace; never shared, never reseeded from the environment.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    fn next_range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponential with the given rate (events per second), in seconds.
    fn next_exp(&mut self, rate_per_s: f64) -> f64 {
        debug_assert!(rate_per_s > 0.0);
        // 1 - U is in (0, 1], so ln never sees zero.
        -(1.0 - self.next_f64()).ln() / rate_per_s
    }
}

/// How requests arrive over (simulated) time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals: i.i.d. exponential inter-arrival times at a
    /// fixed mean rate. The textbook open-loop baseline.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// Markov-modulated Poisson process: a two-state chain alternates
    /// between a *calm* and a *burst* regime, each with its own Poisson
    /// rate. After every arrival the chain flips state with the given
    /// probability, producing the clustered arrivals that stress
    /// admission control far more than a steady stream of the same
    /// average rate.
    Bursty {
        /// Arrival rate while calm, requests per second.
        calm_rate_per_s: f64,
        /// Arrival rate while bursting, requests per second.
        burst_rate_per_s: f64,
        /// Probability of switching calm → burst after an arrival.
        p_enter_burst: f64,
        /// Probability of switching burst → calm after an arrival.
        p_exit_burst: f64,
    },
}

impl ArrivalModel {
    fn validate(&self) {
        match *self {
            ArrivalModel::Poisson { rate_per_s } => {
                assert!(rate_per_s > 0.0, "Poisson rate must be positive");
            }
            ArrivalModel::Bursty {
                calm_rate_per_s,
                burst_rate_per_s,
                p_enter_burst,
                p_exit_burst,
            } => {
                assert!(
                    calm_rate_per_s > 0.0 && burst_rate_per_s > 0.0,
                    "bursty rates must be positive"
                );
                assert!(
                    (0.0..=1.0).contains(&p_enter_burst) && (0.0..=1.0).contains(&p_exit_burst),
                    "switch probabilities must be in [0, 1]"
                );
            }
        }
    }
}

/// One weighted bucket of prompt/output lengths (both ranges inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthBucket {
    /// Relative weight of this bucket in the mix.
    pub weight: f64,
    /// Minimum prompt length in tokens.
    pub prompt_min: usize,
    /// Maximum prompt length in tokens.
    pub prompt_max: usize,
    /// Minimum requested output tokens.
    pub out_min: usize,
    /// Maximum requested output tokens.
    pub out_max: usize,
}

/// A categorical mix of prompt/output-length buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthMix {
    /// The weighted buckets; at least one, all weights positive.
    pub buckets: Vec<LengthBucket>,
}

impl LengthMix {
    /// A single uniform bucket.
    pub fn uniform(prompt: (usize, usize), out: (usize, usize)) -> Self {
        LengthMix {
            buckets: vec![LengthBucket {
                weight: 1.0,
                prompt_min: prompt.0,
                prompt_max: prompt.1,
                out_min: out.0,
                out_max: out.1,
            }],
        }
    }

    /// The canonical serving mix: mostly short interactive prompts with
    /// a heavy tail of long ones, bounded so prompt + output fits the
    /// tiny decoder's 48-token context.
    pub fn short_with_long_tail() -> Self {
        LengthMix {
            buckets: vec![
                LengthBucket {
                    weight: 0.8,
                    prompt_min: 3,
                    prompt_max: 8,
                    out_min: 3,
                    out_max: 8,
                },
                LengthBucket {
                    weight: 0.2,
                    prompt_min: 16,
                    prompt_max: 32,
                    out_min: 4,
                    out_max: 12,
                },
            ],
        }
    }

    fn validate(&self) {
        assert!(
            !self.buckets.is_empty(),
            "LengthMix needs at least one bucket"
        );
        for b in &self.buckets {
            assert!(b.weight > 0.0, "bucket weights must be positive");
            assert!(
                b.prompt_min >= 1 && b.prompt_min <= b.prompt_max,
                "bad prompt range"
            );
            assert!(b.out_min >= 1 && b.out_min <= b.out_max, "bad output range");
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> (usize, usize) {
        let total: f64 = self.buckets.iter().map(|b| b.weight).sum();
        let mut pick = rng.next_f64() * total;
        let mut chosen = &self.buckets[self.buckets.len() - 1];
        for b in &self.buckets {
            if pick < b.weight {
                chosen = b;
                break;
            }
            pick -= b.weight;
        }
        (
            rng.next_range(chosen.prompt_min, chosen.prompt_max),
            rng.next_range(chosen.out_min, chosen.out_max),
        )
    }
}

/// One weighted SLO-class assignment in the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Relative weight of this class in the mix.
    pub weight: f64,
    /// The class assigned to requests drawn from this entry.
    pub class: SloClass,
    /// Optional time-to-first-token deadline in simulated microseconds,
    /// measured from arrival. `None` means best-effort.
    pub ttft_deadline_us: Option<u64>,
}

/// A categorical mix of SLO classes with per-class TTFT deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMix {
    /// The weighted class entries; at least one, all weights positive.
    pub entries: Vec<SloSpec>,
}

impl SloMix {
    /// Everything [`SloClass::Standard`] with no deadline.
    pub fn all_standard() -> Self {
        SloMix {
            entries: vec![SloSpec {
                weight: 1.0,
                class: SloClass::Standard,
                ttft_deadline_us: None,
            }],
        }
    }

    /// The canonical serving mix: a latency-sensitive interactive slice
    /// with a TTFT deadline, a standard bulk, and a best-effort batch
    /// tail.
    pub fn interactive_standard_batch(interactive_ttft_us: u64) -> Self {
        SloMix {
            entries: vec![
                SloSpec {
                    weight: 0.25,
                    class: SloClass::Interactive,
                    ttft_deadline_us: Some(interactive_ttft_us),
                },
                SloSpec {
                    weight: 0.55,
                    class: SloClass::Standard,
                    ttft_deadline_us: None,
                },
                SloSpec {
                    weight: 0.2,
                    class: SloClass::Batch,
                    ttft_deadline_us: None,
                },
            ],
        }
    }

    fn validate(&self) {
        assert!(!self.entries.is_empty(), "SloMix needs at least one entry");
        for e in &self.entries {
            assert!(e.weight > 0.0, "SLO mix weights must be positive");
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> SloSpec {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        let mut pick = rng.next_f64() * total;
        for e in &self.entries {
            if pick < e.weight {
                return *e;
            }
            pick -= e.weight;
        }
        self.entries[self.entries.len() - 1]
    }
}

/// A fully-specified synthetic workload. `generate()` is a pure
/// function of this struct — two equal configs produce bit-identical
/// traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Seed for the private SplitMix64 stream.
    pub seed: u64,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Vocabulary size; prompt tokens are drawn uniformly from
    /// `0..vocab`.
    pub vocab: usize,
    /// The arrival process.
    pub arrival: ArrivalModel,
    /// Prompt/output length distribution.
    pub lengths: LengthMix,
    /// SLO class distribution.
    pub slo: SloMix,
}

impl LoadgenConfig {
    /// A small bursty mixed-class scenario sized for CI smoke runs:
    /// `requests` arrivals from a calm/burst chain, the short-with-tail
    /// length mix, and the three-class SLO mix with a 100 ms interactive
    /// TTFT deadline.
    pub fn smoke(seed: u64, requests: usize) -> Self {
        LoadgenConfig {
            seed,
            requests,
            vocab: 16,
            arrival: ArrivalModel::Bursty {
                calm_rate_per_s: 50.0,
                burst_rate_per_s: 500.0,
                p_enter_burst: 0.15,
                p_exit_burst: 0.35,
            },
            lengths: LengthMix::short_with_long_tail(),
            slo: SloMix::interactive_standard_batch(100_000),
        }
    }

    /// Generates the request trace, sorted by arrival time (arrivals
    /// are emitted in time order by construction).
    ///
    /// # Panics
    ///
    /// Panics if the config is malformed (zero requests or vocab,
    /// non-positive rates or weights, inverted length ranges).
    pub fn generate(&self) -> Vec<GenRequest> {
        assert!(self.requests > 0, "loadgen needs at least one request");
        assert!(self.vocab > 0, "vocab must be positive");
        self.arrival.validate();
        self.lengths.validate();
        self.slo.validate();

        let mut rng = SplitMix64::new(self.seed);
        let mut now_s = 0.0_f64;
        let mut bursting = false;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests {
            let gap_s = match self.arrival {
                ArrivalModel::Poisson { rate_per_s } => rng.next_exp(rate_per_s),
                ArrivalModel::Bursty {
                    calm_rate_per_s,
                    burst_rate_per_s,
                    p_enter_burst,
                    p_exit_burst,
                } => {
                    let rate = if bursting {
                        burst_rate_per_s
                    } else {
                        calm_rate_per_s
                    };
                    let gap = rng.next_exp(rate);
                    let p_switch = if bursting {
                        p_exit_burst
                    } else {
                        p_enter_burst
                    };
                    if rng.next_f64() < p_switch {
                        bursting = !bursting;
                    }
                    gap
                }
            };
            now_s += gap_s;
            let (prompt_len, max_new_tokens) = self.lengths.sample(&mut rng);
            let prompt: Vec<usize> = (0..prompt_len)
                .map(|_| rng.next_range(0, self.vocab - 1))
                .collect();
            let spec = self.slo.sample(&mut rng);
            out.push(GenRequest {
                id,
                arrival_us: (now_s * 1e6) as u64,
                prompt,
                max_new_tokens,
                class: spec.class,
                ttft_deadline_us: spec.ttft_deadline_us,
            });
        }
        out
    }
}

/// One synthetic request in a generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRequest {
    /// Position in the trace (0-based, arrival order).
    pub id: usize,
    /// Arrival timestamp in simulated microseconds from trace start.
    pub arrival_us: u64,
    /// Prompt token ids, each in `0..vocab`.
    pub prompt: Vec<usize>,
    /// Requested number of generated tokens.
    pub max_new_tokens: usize,
    /// Service class for admission ordering.
    pub class: SloClass,
    /// Optional TTFT deadline in simulated microseconds from arrival.
    pub ttft_deadline_us: Option<u64>,
}

/// Nearest-rank percentile of a sample set (`p` in `[0, 100]`). The
/// slice need not be sorted; an empty slice yields zero.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50/p95/p99/max summary of a latency sample set, via nearest-rank
/// [`percentile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

impl LatencyStats {
    /// Summarizes `samples` (all zeros when empty).
    pub fn from_samples(samples: &[u64]) -> Self {
        LatencyStats {
            p50: percentile(samples, 50.0),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
            max: samples.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_bit_for_bit() {
        let config = LoadgenConfig::smoke(123, 64);
        assert_eq!(config.generate(), config.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = LoadgenConfig::smoke(1, 32).generate();
        let b = LoadgenConfig::smoke(2, 32).generate();
        assert_ne!(a, b, "distinct seeds should produce distinct traces");
    }

    #[test]
    fn arrivals_are_monotonic_and_fields_in_range() {
        let config = LoadgenConfig::smoke(7, 128);
        let trace = config.generate();
        assert_eq!(trace.len(), 128);
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(!r.prompt.is_empty() && r.prompt.len() <= 32);
            assert!(r.prompt.iter().all(|&t| t < config.vocab));
            assert!((1..=12).contains(&r.max_new_tokens));
        }
        assert!(trace.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
    }

    #[test]
    fn poisson_rate_is_roughly_respected() {
        let config = LoadgenConfig {
            arrival: ArrivalModel::Poisson { rate_per_s: 100.0 },
            ..LoadgenConfig::smoke(9, 2000)
        };
        let trace = config.generate();
        let span_s = trace.last().unwrap().arrival_us as f64 / 1e6;
        let rate = trace.len() as f64 / span_s;
        assert!(
            (60.0..=140.0).contains(&rate),
            "empirical rate {rate:.1}/s should be near 100/s"
        );
    }

    #[test]
    fn bursty_arrivals_cluster_more_than_poisson() {
        // Coefficient of variation of inter-arrival gaps: ~1 for
        // Poisson, strictly larger for the modulated chain.
        let cv = |trace: &[GenRequest]| {
            let gaps: Vec<f64> = trace
                .windows(2)
                .map(|w| (w[1].arrival_us - w[0].arrival_us) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = LoadgenConfig {
            arrival: ArrivalModel::Poisson { rate_per_s: 100.0 },
            ..LoadgenConfig::smoke(11, 2000)
        }
        .generate();
        let bursty = LoadgenConfig::smoke(11, 2000).generate();
        assert!(
            cv(&bursty) > cv(&poisson),
            "bursty CV {:.2} should exceed Poisson CV {:.2}",
            cv(&bursty),
            cv(&poisson)
        );
    }

    #[test]
    fn slo_mix_produces_every_class() {
        let trace = LoadgenConfig::smoke(3, 256).generate();
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert!(
                trace.iter().any(|r| r.class == class),
                "class {} absent from a 256-request mix",
                class.name()
            );
        }
        assert!(trace
            .iter()
            .all(|r| (r.class == SloClass::Interactive) == r.ttft_deadline_us.is_some()));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 95.0), 95);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(
            (stats.p50, stats.p95, stats.p99, stats.max),
            (50, 95, 99, 100)
        );
    }
}
