//! Digest helpers shared by the bit-identity pins.

use lightening_transformer::core::{Op, Trace};

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// A trace as words: every op's kind, shape and count, in order.
pub fn trace_words(trace: &Trace) -> Vec<u64> {
    let mut words = vec![trace.len() as u64];
    for op in trace.ops() {
        match *op {
            Op::Gemm {
                kind,
                m,
                k,
                n,
                instances,
            } => words.extend([
                0,
                kind as u64,
                m as u64,
                k as u64,
                n as u64,
                instances as u64,
            ]),
            Op::NonGemm { kind, elems } => words.extend([1, kind as u64, elems]),
        }
    }
    words
}
