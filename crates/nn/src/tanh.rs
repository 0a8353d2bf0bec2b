//! GELU's `tanh`: a branch-free transcription of fdlibm's `tanhf`.
//!
//! # Provenance
//!
//! [`tanhf`] and the [`expm1f`] it calls transcribe `s_tanhf.c` and
//! `s_expm1f.c` from glibc 2.36's `sysdeps/ieee754/flt-32`: Sun's fdlibm
//! routines, converted to `float` at Cygnus, with `expm1f`'s five-term
//! rational polynomial `Q1..Q5`. glibc exports that `tanhf` as a plain
//! symbol (no IFUNC picks a build per CPU), and neither routine contains
//! a fused multiply-add, so on x86-64 it is one fixed sequence of IEEE
//! single-precision operations. The transcription performs the same
//! operations on the same operands in the same order, so it returns the
//! bits that libm's `tanhf` (which `f32::tanh` calls) returns, for every
//! input: the ignored test `tanhf_equals_libm_on_every_f32` checks all
//! 2³² of them, through both builds of a vectorized loop. GELU's bits
//! therefore no longer depend on the libm the host ships.
//!
//! # Branch-free
//!
//! fdlibm picks one of several formulas per argument. In GELU's row loops
//! those branches depend on the data: random activations mispredict them,
//! and they keep the compiler from vectorizing the loop. Here every
//! formula is evaluated for every argument, and each `if` only chooses
//! between values already computed, which the compiler lowers to blends,
//! so the caller's loop vectorizes. A lane performs fdlibm's operations
//! for the case fdlibm takes; it also computes the cases it does not
//! take, on whatever operands they get. An infinite or NaN argument, for
//! example, reaches `expm1f`'s exponent arithmetic with a meaningless
//! `k`, so that arithmetic wraps rather than overflow-panic in debug
//! builds.
//!
//! Some of fdlibm's cases merge into others without changing a selected
//! operation or bit (each is noted where it happens), and `expm1f` keeps
//! only the cases `tanhf`'s arguments reach.
//!
//! # Notice
//!
//! fdlibm's terms ask that its notice be kept with code derived from it:
//!
//! ```text
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```

/// `ln 2` split in two: `LN2_HI` has trailing zero bits, so `k * LN2_HI`
/// is exact for the reduction's `k`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// The rest of `ln 2`: `LN2_HI + LN2_LO ≈ ln 2`.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `1 / ln 2`.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
// `expm1f`'s scaled rational-approximation coefficients `Q1..Q5`.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// What `tanhf` subtracts from 1 for `|x| >= 22` (fdlibm's `tiny`, there
/// to raise the inexact flag); the difference rounds to 1.
const TINY: f32 = 1.0e-30;

/// `tanh(x)`, bit for bit as fdlibm's `tanhf` (see the module docs).
#[inline(always)]
pub(crate) fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| >= 1: t = expm1f(2|x|),  z = 1 - 2/(t + 2);
    // |x| < 1:  t = expm1f(-2|x|), z = -t/(t + 2), which is 0 - t/(t + 2)
    // exactly (t is not zero there).
    // Both cases compute one expm1f and one division, on chosen operands:
    // -2|x| is -(2|x|) exactly, so the sign bit is set rather than one of
    // two products chosen. Choosing between two results instead would
    // lead the compiler to compute both.
    let big = ix >= 0x3f80_0000;
    let t = expm1f(f32::from_bits((2.0 * ax).to_bits() | u32::from(!big) << 31));
    let (c, n) = if big { (1.0, 2.0) } else { (0.0, t) };
    let z = c - n / (t + 2.0);
    // |x| >= 22: z = 1 - tiny. fdlibm returns 1/x + 1 or 1/x - 1 for
    // ±inf, the same ±1 once the sign is applied.
    let z = if ix >= 0x41b0_0000 { 1.0 - TINY } else { z };
    let z = if x.is_sign_negative() { -z } else { z };
    if ix > 0x7f80_0000 {
        // NaN: x + x is the NaN that fdlibm's 1/x ± 1 returns.
        x + x
    } else if ix < 0x2400_0000 {
        // |x| < 2^-55: x * (1 + x), which is x; fdlibm's separate
        // x == ±0 case returns x as well.
        x * (1.0 + x)
    } else {
        z
    }
}

/// `exp(x) - 1`, bit for bit as fdlibm's `expm1f`, for the arguments
/// [`tanhf`] passes: `2|x|` for `1 <= |x| < 22` and `-2|x|` for
/// `2^-55 <= |x| < 1`, so `-2 < x < 44` and `x >= 2` when positive.
/// fdlibm's exits for NaN, infinities, overflow and `x < -27 ln 2` never
/// fire there, nor does its `k = 1` case (`0.5 ln 2 < x < 1.5 ln 2`), so
/// they are left out.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction: x = k ln2 + r, |r| <= 0.5 ln2, with r = hi - lo
    // and c the rounding error of that difference. fdlibm spells out
    // k = 0 (|x| <= 0.5 ln2: x is used as is) and k = -1
    // (hi = x + LN2_HI, lo = -LN2_LO); through t = k, the general formulas
    // perform the same operations: t * LN2_HI and t * LN2_LO are exact,
    // x - (-LN2_HI) is x + LN2_HI, and x - 0 - 0 is x.
    let half = if x.is_sign_negative() { -0.5 } else { 0.5 };
    let k_far = trunc_to_i32(INVLN2 * x + half);
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        -1
    } else {
        k_far
    };
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // r is in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let y_km1 = 0.5 * (r - e) - 0.5;
    // y * 2^k, by adding k to y's exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    // 2^-k; for k < 23, 1 - 2^-k is exact, fdlibm's 0x3f800000 - (0x1000000 >> k).
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let y_wide = scale(1.0 - (e - r)) - 1.0;
    let y_low = scale((1.0 - two_mk) - (e - r));
    let y_high = scale((r - (e + two_mk)) + 1.0);
    let y = if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k <= -2 || k > 56 {
        y_wide
    } else if k < 23 {
        y_low
    } else {
        y_high
    };
    // |x| < 2^-25: x (fdlibm: x - ((huge + x) - (huge + x))).
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// `v` truncated toward zero, as C's `(int)v`, for `|v| < 2^22` (any
/// other `v` gives some value and no panic). `v as i32` would give the
/// same, but its saturation keeps the compiler from vectorizing it, so
/// this rounds with the `1.5 * 2^23` shift, whose sum has an ulp of 1,
/// and steps back toward zero when rounding went away from it.
#[inline(always)]
fn trunc_to_i32(v: f32) -> i32 {
    const SHIFT: f32 = 12_582_912.0;
    let m = v + SHIFT;
    let nearest = (m.to_bits() as i32).wrapping_sub(SHIFT.to_bits() as i32);
    let away = (m - SHIFT).abs() > v.abs();
    if !away {
        nearest
    } else if v < 0.0 {
        nearest.wrapping_add(1)
    } else {
        nearest.wrapping_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{tanhf, trunc_to_i32};

    /// [`tanhf`] over a slice, vectorized for the build's baseline target.
    /// Always inlined, so [`tanh_avx2`] compiles its own copy.
    #[inline(always)]
    fn tanh_portable(xs: &mut [f32]) {
        for x in xs {
            *x = tanhf(*x);
        }
    }

    /// [`tanh_portable`] compiled with AVX2 enabled (and FMA not).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn tanh_avx2(xs: &mut [f32]) {
        tanh_portable(xs);
    }

    /// Asserts that `got` holds the bits of `want`, NaN matching any NaN.
    fn assert_same(build: &str, xs: &[f32], want: &[f32], got: &[f32]) {
        for ((x, w), g) in xs.iter().zip(want).zip(got) {
            let same = w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan());
            assert!(
                same,
                "{build} build: tanhf({:#010x}) = {:#010x}, libm {:#010x}",
                x.to_bits(),
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn trunc_to_i32_truncates_like_as() {
        let magnitudes = (0..((1u32 << 22) as f32).to_bits()).step_by(997);
        for v in magnitudes.map(f32::from_bits).flat_map(|v| [v, -v]) {
            assert_eq!(trunc_to_i32(v), v as i32, "v = {v}");
        }
        for v in [0.5f32, 1.5, 2.5, 63.5, 4_194_303.5] {
            assert_eq!(trunc_to_i32(v), v as i32, "v = {v}");
            assert_eq!(trunc_to_i32(-v), -v as i32, "v = -{v}");
        }
    }

    /// Compares [`tanhf`] with the host libm's `tanhf` on all 2³² inputs,
    /// through the portable loop and, where the CPU has it, the AVX2 loop.
    /// Kept out of CI: no output of the workspace depends on the host
    /// libm any more, and a libm whose `tanhf` is another implementation
    /// fails this without any output changing. Run it in a release build:
    /// `cargo test --release -p lt-nn tanhf_equals_libm_on_every_f32 -- --ignored`.
    #[test]
    #[ignore = "all 2^32 inputs against the host libm: minutes in a release build"]
    fn tanhf_equals_libm_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        const CHUNKS: u64 = (1 << 32) / CHUNK;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        std::thread::scope(|s| {
            for first in 0..threads {
                s.spawn(move || {
                    let (mut xs, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
                    for chunk in (first..CHUNKS).step_by(threads as usize) {
                        let bits = chunk * CHUNK..(chunk + 1) * CHUNK;
                        xs.clear();
                        xs.extend(bits.map(|b| f32::from_bits(b as u32)));
                        want.clear();
                        want.extend(xs.iter().map(|x| x.tanh()));
                        got.clone_from(&xs);
                        tanh_portable(&mut got);
                        assert_same("portable", &xs, &want, &got);
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("avx2") {
                            got.clone_from(&xs);
                            // SAFETY: the CPU supports AVX2 (checked just above).
                            unsafe { tanh_avx2(&mut got) };
                            assert_same("AVX2", &xs, &want, &got);
                        }
                    }
                });
            }
        });
    }
}
