//! `repro check` — the CI perf-regression gate over `BENCH_repro.json`.
//!
//! The snapshot's modeled metrics (cycles, energy, EDP, FPS, KV bytes)
//! are deterministic: they depend only on the architecture model and the
//! workload shapes, never on the host. So any drift between a fresh
//! snapshot and the committed baseline is a real change to the cost
//! model or the workloads — either an intended one (update the baseline
//! in the same PR) or a regression (fail the build). Every field is
//! gated: the snapshot holds no host-clock field.
//!
//! The workspace has no serde, so this module carries a minimal
//! recursive-descent JSON reader sufficient for the snapshot's own
//! schema (objects, arrays, strings, numbers). It flattens a document
//! into `path -> scalar` pairs (`models[3].cycles`, `decode.batches[0]
//! .tokens_per_s`, ...) and compares two documents field by field under
//! a relative tolerance.

use std::fmt;

/// A scalar leaf of the flattened document.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Num(v) => write!(f, "{v}"),
            Scalar::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// Flattens a JSON document into ordered `(path, scalar)` pairs.
///
/// # Errors
///
/// Returns a message with byte offset on malformed input.
pub fn flatten(json: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    p.skip_ws();
    p.value("", &mut out)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // The snapshot never escapes quotes; reject escapes rather than
        // silently misparse.
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid utf8 in string at byte {start}"))?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => return Err(format!("escape sequences unsupported at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err(format!("unterminated string from byte {start}"))
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn value(&mut self, path: &str, out: &mut Vec<(String, Scalar)>) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(&child, out)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    self.value(&format!("{path}[{i}]"), out)?;
                    i += 1;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                out.push((path.to_string(), Scalar::Str(s)));
                Ok(())
            }
            Some(_) => {
                let v = self.number()?;
                out.push((path.to_string(), Scalar::Num(v)));
                Ok(())
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

/// Compares a fresh snapshot against the committed baseline under a
/// relative tolerance (e.g. `0.005` = 0.5%). Returns the list of
/// drifted fields — structural differences, string changes, and numeric
/// drift beyond tolerance — or an empty list when the gate passes.
///
/// # Errors
///
/// Returns a parse-error message if either document is malformed.
pub fn compare(baseline: &str, fresh: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let base = flatten(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = flatten(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut drift = Vec::new();

    let base_keys: Vec<&String> = base.iter().map(|(k, _)| k).collect();
    let new_keys: Vec<&String> = new.iter().map(|(k, _)| k).collect();
    if base_keys != new_keys {
        for k in &base_keys {
            if !new_keys.contains(k) {
                drift.push(format!("field removed: {k}"));
            }
        }
        for k in &new_keys {
            if !base_keys.contains(k) {
                drift.push(format!("field added: {k} (update the baseline?)"));
            }
        }
        if drift.is_empty() {
            drift.push("fields reordered relative to the baseline".to_string());
        }
        return Ok(drift);
    }

    for ((path, want), (_, got)) in base.iter().zip(&new) {
        match (want, got) {
            (Scalar::Num(a), Scalar::Num(b)) => {
                let scale = a.abs().max(b.abs());
                if (a - b).abs() > tolerance * scale {
                    let pct = if scale > 0.0 {
                        (a - b).abs() / scale * 100.0
                    } else {
                        0.0
                    };
                    drift.push(format!(
                        "{path}: baseline {a} vs fresh {b} ({pct:.3}% > {:.3}% tolerance)",
                        tolerance * 100.0
                    ));
                }
            }
            (a, b) if a != b => drift.push(format!("{path}: baseline {a} vs fresh {b}")),
            _ => {}
        }
    }
    Ok(drift)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "schema": 3, "config": "LT-B",
      "models": [ { "name": "DeiT-T-224", "cycles": 97000, "fps": 51000.0,
                    "utilization": 0.93, "bandwidth_stall_ms": 1.0e-5, "fill_ms": 2.0e-9 } ],
      "compute_path": { "recorded_ops": 12 },
      "decode": { "batches": [ { "batch": 1, "tokens_per_s": 2.5e6,
                                 "bandwidth_stall_frac": 0.8 } ] }
    }"#;

    #[test]
    fn flatten_produces_full_paths() {
        let flat = flatten(DOC).unwrap();
        let get = |p: &str| {
            flat.iter()
                .find(|(k, _)| k == p)
                .unwrap_or_else(|| panic!("missing {p}"))
                .1
                .clone()
        };
        assert_eq!(get("schema"), Scalar::Num(3.0));
        assert_eq!(get("config"), Scalar::Str("LT-B".into()));
        assert_eq!(get("models[0].name"), Scalar::Str("DeiT-T-224".into()));
        assert_eq!(get("models[0].cycles"), Scalar::Num(97000.0));
        assert_eq!(get("decode.batches[0].tokens_per_s"), Scalar::Num(2.5e6));
    }

    #[test]
    fn identical_documents_pass() {
        assert!(compare(DOC, DOC, 0.005).unwrap().is_empty());
    }

    #[test]
    fn numeric_drift_beyond_tolerance_is_reported_and_within_passes() {
        let nudged = DOC.replace("97000", "97100"); // ~0.1%
        assert!(
            compare(DOC, &nudged, 0.005).unwrap().is_empty(),
            "0.1% < 0.5%"
        );
        let drifted = DOC.replace("97000", "99000"); // ~2%
        let report = compare(DOC, &drifted, 0.005).unwrap();
        assert_eq!(report.len(), 1, "{report:?}");
        assert!(report[0].contains("models[0].cycles"), "{report:?}");
    }

    #[test]
    fn schema3_stall_fields_are_gated_not_exempt() {
        // The scheduler's self-explanation is a modeled, deterministic
        // quantity: drift in utilization or the stall breakdown is a
        // real cost-model change and must trip the gate.
        for (field, drifted) in [
            ("utilization", DOC.replace("0.93", "0.80")),
            ("bandwidth_stall_ms", DOC.replace("1.0e-5", "9.0e-5")),
            ("fill_ms", DOC.replace("2.0e-9", "9.0e-9")),
            ("bandwidth_stall_frac", DOC.replace("0.8", "0.4")),
        ] {
            let report = compare(DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn structural_drift_is_reported() {
        let extra = DOC.replace("\"cycles\": 97000", "\"cycles\": 97000, \"edp\": 1.0");
        let report = compare(DOC, &extra, 0.005).unwrap();
        assert!(
            report.iter().any(|d| d.contains("field added")),
            "{report:?}"
        );
        let renamed = DOC.replace("\"cycles\"", "\"cycle_count\"");
        let report = compare(DOC, &renamed, 0.005).unwrap();
        assert!(
            report.iter().any(|d| d.contains("field removed")),
            "{report:?}"
        );
    }

    #[test]
    fn string_changes_are_reported() {
        let renamed = DOC.replace("DeiT-T-224", "DeiT-T-384");
        let report = compare(DOC, &renamed, 0.005).unwrap();
        assert!(report[0].contains("models[0].name"), "{report:?}");
    }

    #[test]
    fn malformed_json_is_an_error_not_a_pass() {
        assert!(compare(DOC, "{ \"a\": ", 0.005).is_err());
        assert!(compare("not json", DOC, 0.005).is_err());
    }

    #[test]
    fn schema4_kv_fields_are_gated_not_exempt() {
        // The paged-KV pressure metrics are modeled and deterministic:
        // drift in residency, preemption rate, sharing savings, or the
        // KV stall share is a real scheduler/cost-model change.
        const KV_DOC: &str = r#"{ "kv": { "max_resident_sessions": 5,
          "preemption_rate": 0.25, "prefix_shared_blocks": 6,
          "kv_bandwidth_stall_frac": 0.12 } }"#;
        for (field, drifted) in [
            ("max_resident_sessions", KV_DOC.replace(": 5", ": 3")),
            ("preemption_rate", KV_DOC.replace("0.25", "0.75")),
            ("prefix_shared_blocks", KV_DOC.replace(": 6", ": 0")),
            ("kv_bandwidth_stall_frac", KV_DOC.replace("0.12", "0.52")),
        ] {
            let report = compare(KV_DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn schema5_kernel_fields_are_gated() {
        // The kernel section holds modeled integer-path facts: trace
        // footprint, code bytes, pure quantization error.
        const KERNEL_DOC: &str = r#"{ "kernel": { "micro_tile": "4x8x256",
          "int8_forward_macs": 323840,
          "i4_weight_code_bytes": 12288, "int8_logit_err": 0.004 } }"#;
        for (field, drifted) in [
            ("micro_tile", KERNEL_DOC.replace("4x8x256", "8x8x128")),
            ("int8_forward_macs", KERNEL_DOC.replace("323840", "331072")),
            ("i4_weight_code_bytes", KERNEL_DOC.replace("12288", "24576")),
            ("int8_logit_err", KERNEL_DOC.replace("0.004", "0.4")),
        ] {
            let report = compare(KERNEL_DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn schema6_schedule_cache_fields_are_gated() {
        // The cache counters replay a fixed op sequence, so they are
        // deterministic and gated: a hit/miss drift means the cache key
        // or the replay workload changed.
        const CACHE_DOC: &str = r#"{ "schedule_cache": { "hits": 120,
          "misses": 14, "entries": 14, "hit_rate": 0.895522 } }"#;
        for (field, drifted) in [
            ("hits", CACHE_DOC.replace("120", "80")),
            ("misses", CACHE_DOC.replace(": 14,", ": 28,")),
            (
                "entries",
                CACHE_DOC.replace("\"entries\": 14", "\"entries\": 7"),
            ),
            ("hit_rate", CACHE_DOC.replace("0.895522", "0.5")),
        ] {
            let report = compare(CACHE_DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn schema7_serving_fields_are_gated_with_no_exemptions() {
        // The serving section is entirely simulated time on a seeded
        // workload: every percentile, count, and goodput number is
        // inside the gate. A TTFT or ITL drift means the scheduler, the
        // chunking, or the cost model changed behavior.
        const SERVING_DOC: &str = r#"{ "serving": { "requests": 24,
          "prefill_chunk_tokens": 4,
          "unchunked": { "completed": 22, "rejected": 1,
            "ttft_p99_ps": 48000, "itl_max_ps": 9000,
            "goodput_tokens_per_s": 120000 },
          "chunked": { "completed": 22, "itl_max_ps": 5000 } } }"#;
        for (field, drifted) in [
            ("completed", SERVING_DOC.replace("22,", "20,")),
            (
                "rejected",
                SERVING_DOC.replace("\"rejected\": 1", "\"rejected\": 3"),
            ),
            ("ttft_p99_ps", SERVING_DOC.replace("48000", "52000")),
            ("itl_max_ps", SERVING_DOC.replace("9000", "12000")),
            (
                "goodput_tokens_per_s",
                SERVING_DOC.replace("120000", "90000"),
            ),
            (
                "chunked.itl_max_ps",
                SERVING_DOC.replace("\"itl_max_ps\": 5000", "\"itl_max_ps\": 9000"),
            ),
        ] {
            let report = compare(SERVING_DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn schema8_speculation_fields_are_gated_with_no_exemptions() {
        // The speculation sweep runs the exact backend on fixed seeds:
        // every cycles-per-token figure, acceptance rate, and the
        // headline reduction is modeled and deterministic. Drift means
        // the speculative execution, the verify costing, or the
        // rollback accounting changed behavior.
        const SPEC_DOC: &str = r#"{ "speculation": { "taper_gain": 0.25,
          "batch1": [ { "k": 4, "target_cycles_per_token": 31000.0,
            "draft_cycles_per_token": 16000.0, "acceptance_rate": 0.41,
            "bandwidth_stall_frac": 0.8 } ],
          "b1_k4_target_reduction": 2.6 } }"#;
        for (field, drifted) in [
            (
                "target_cycles_per_token",
                SPEC_DOC.replace("31000.0", "62000.0"),
            ),
            (
                "draft_cycles_per_token",
                SPEC_DOC.replace("16000.0", "1600.0"),
            ),
            ("acceptance_rate", SPEC_DOC.replace("0.41", "0.11")),
            ("b1_k4_target_reduction", SPEC_DOC.replace("2.6", "1.1")),
        ] {
            let report = compare(SPEC_DOC, &drifted, 0.005).unwrap();
            assert!(
                report.iter().any(|d| d.contains(field)),
                "{field} drift must be reported: {report:?}"
            );
        }
    }

    #[test]
    fn the_real_snapshot_flattens() {
        let json = crate::bench_repro_json();
        let flat = flatten(&json).unwrap();
        assert!(flat.len() > 40, "snapshot has {} fields", flat.len());
        assert!(flat
            .iter()
            .any(|(k, _)| k == "decode.batches[2].cycles_per_token"));
        assert!(flat.iter().any(|(k, _)| k == "models[0].utilization"));
        assert!(flat
            .iter()
            .any(|(k, _)| k == "decode.batches[0].bandwidth_stall_frac"));
        for kv_field in [
            "kv.max_resident_sessions",
            "kv.preemption_rate",
            "kv.prefix_shared_blocks",
            "kv.kv_bandwidth_stall_frac",
        ] {
            assert!(
                flat.iter().any(|(k, _)| k == kv_field),
                "missing {kv_field}"
            );
        }
        for kernel_field in [
            "kernel.micro_tile",
            "kernel.int8_forward_macs",
            "kernel.i4_weight_code_bytes",
            "kernel.int8_logit_err",
        ] {
            assert!(
                flat.iter().any(|(k, _)| k == kernel_field),
                "missing {kernel_field}"
            );
        }
        for cache_field in [
            "schedule_cache.hits",
            "schedule_cache.misses",
            "schedule_cache.entries",
            "schedule_cache.hit_rate",
        ] {
            assert!(
                flat.iter().any(|(k, _)| k == cache_field),
                "missing {cache_field}"
            );
        }
        for serving_field in [
            "serving.requests",
            "serving.prefill_chunk_tokens",
            "serving.unchunked.ttft_p99_ps",
            "serving.unchunked.goodput_tokens_per_s",
            "serving.chunked.itl_max_ps",
            "serving.chunked.completed",
        ] {
            assert!(
                flat.iter().any(|(k, _)| k == serving_field),
                "missing {serving_field}"
            );
        }
        for spec_field in [
            "speculation.taper_gain",
            "speculation.batch1[0].k",
            "speculation.batch1[2].target_cycles_per_token",
            "speculation.batch1[2].draft_cycles_per_token",
            "speculation.batch8[3].acceptance_rate",
            "speculation.b1_k4_target_reduction",
        ] {
            assert!(
                flat.iter().any(|(k, _)| k == spec_field),
                "missing {spec_field}"
            );
        }
        // And a regenerated snapshot passes its own gate.
        let again = crate::bench_repro_json();
        assert_eq!(compare(&json, &again, 0.005).unwrap(), Vec::<String>::new());
    }
}
