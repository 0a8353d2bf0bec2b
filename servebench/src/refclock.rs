//! Host time in units of a fixed reference kernel.
//!
//! A shared machine's CPU speed drifts by tens of percent within seconds
//! (on-CPU time tracks wall time, so it is not stolen time), and the wall
//! seconds of identical work wander with it. Every timed span therefore
//! sits between timings of a fixed kernel owned by this benchmark, taken
//! at its ends and, on untraced passes, about every half second inside
//! it, and is reported as `wall / kernel * REFERENCE_S`: seconds on a
//! machine where the kernel takes [`REFERENCE_S`]. A change to the
//! program moves the span and not the kernel, so the reported time moves
//! by the same share as the wall time. The kernel is the unit of every
//! host metric: never change it.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Wall seconds of one [`RefClock::sample`] on the 2-core Intel Xeon VM
/// the benchmark was calibrated on, in its fast phases (9.5-10.2 ms
/// measured; slow phases read up to 17 ms).
pub const REFERENCE_S: f64 = 0.010;

/// Kernel rounds per sample.
const ROUNDS: usize = 27;
const N: usize = 32;
const WALK: usize = 1 << 17;

/// The kernel mixes the workloads' host work: a small dense f64 GEMM,
/// float math on an xorshift stream (like noise sampling) and a dependent
/// walk over a 1 MiB table (cache traffic).
#[derive(Debug)]
pub struct RefClock {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    table: Vec<u64>,
}

impl Default for RefClock {
    fn default() -> Self {
        RefClock {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect(),
            b: (0..N * N).map(|i| (i % 5) as f64 * 0.2).collect(),
            c: vec![0.0; N * N],
            table: (0..WALK as u64)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }
}

impl RefClock {
    fn round(&mut self) -> f64 {
        for _ in 0..8 {
            for i in 0..N {
                for j in 0..N {
                    let mut s = 0.0;
                    for k in 0..N {
                        s += self.a[i * N + k] * self.b[k * N + j];
                    }
                    self.c[i * N + j] = s;
                }
            }
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0f64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            acc += (u + 1e-9).ln().abs().sqrt();
        }
        let (mut at, mut sum) = (0usize, 0u64);
        for _ in 0..20_000 {
            at = (self.table[at] as usize ^ at.wrapping_mul(31)) & (WALK - 1);
            sum = sum.wrapping_add(self.table[at]);
        }
        acc + self.c[N + 5] + sum as f64
    }

    /// Wall seconds of one run of the kernel, now.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            black_box(self.round());
        }
        start.elapsed().as_secs_f64()
    }
}

/// Longest stretch of a span between two kernel samples, when the span
/// calls [`Timeline::checkpoint_if_due`]: the machine's speed moves
/// within seconds, so samples only at the ends of a multi-second pass
/// miss the speed it ran at.
const SEGMENT_S: f64 = 0.5;

/// Spans timed between kernel samples. A span is cut into segments at
/// each sample; a segment's wall time is divided by the mean of the
/// samples at its two ends, and the span's reference-speed time is the
/// sum over its segments. The sample that ends one segment starts the
/// next, also across spans.
#[derive(Debug, Default)]
pub struct Timeline {
    clock: RefClock,
    last_ref: Option<f64>,
    segment_start: Option<Instant>,
    span_wall_s: f64,
    span_scaled_s: f64,
    /// Raw wall seconds of each span, kernel samples excluded.
    pub wall_s: Vec<f64>,
    /// Each span in reference-speed seconds.
    pub scaled_s: Vec<f64>,
    /// Every kernel sample, wall seconds.
    pub ref_s: Vec<f64>,
}

/// A timeline shared with the backend wrapper that cuts a pass into
/// segments.
pub type SharedTimeline = Rc<RefCell<Timeline>>;

impl Timeline {
    /// Times `f` between kernel samples; `f` may cut its span into
    /// segments through `checkpoint_if_due` on the same timeline.
    pub fn time<T>(timeline: &SharedTimeline, f: impl FnOnce() -> T) -> T {
        timeline.borrow_mut().begin();
        let out = f();
        timeline.borrow_mut().end();
        out
    }

    fn begin(&mut self) {
        if self.last_ref.is_none() {
            let r = self.clock.sample();
            self.ref_s.push(r);
            self.last_ref = Some(r);
        }
        self.span_wall_s = 0.0;
        self.span_scaled_s = 0.0;
        self.segment_start = Some(Instant::now());
    }

    fn checkpoint(&mut self) {
        let start = self.segment_start.expect("a span is open");
        let wall = start.elapsed().as_secs_f64();
        let before = self.last_ref.expect("a span starts with a sample");
        let after = self.clock.sample();
        self.ref_s.push(after);
        self.last_ref = Some(after);
        self.span_wall_s += wall;
        self.span_scaled_s += wall / ((before + after) / 2.0) * REFERENCE_S;
        self.segment_start = Some(Instant::now());
    }

    fn end(&mut self) {
        self.checkpoint();
        self.segment_start = None;
        self.wall_s.push(self.span_wall_s);
        self.scaled_s.push(self.span_scaled_s);
    }

    /// Takes a kernel sample if the open segment has run `SEGMENT_S`.
    pub fn checkpoint_if_due(&mut self) {
        if self
            .segment_start
            .is_some_and(|s| s.elapsed().as_secs_f64() >= SEGMENT_S)
        {
            self.checkpoint();
        }
    }
}
