//! Bench-regression comparison: fresh `BENCH_*.json` reports vs committed
//! baselines.
//!
//! The workspace's throughput benches write structured JSON reports
//! (`BENCH_shard.json`, `BENCH_overlap.json`, `BENCH_stream.json`,
//! `BENCH_multiquery.json`) that are committed as baselines. The
//! `check_bench` binary regenerates them in CI and calls into this module
//! to compare: every numeric leaf shared by baseline and current report is
//! classified by its key name into
//!
//! * **gated** metrics — same-process speedup *ratios* (shared-ring vs
//!   reference storage, projected shard scaling, batched vs scalar
//!   decisions, chunked-arena vs single-event-chunk ingestion) and the
//!   quality matrix's deterministic `recall` / `false_positive_ratio`
//!   leaves. Both sides of a ratio run in the same process on the same
//!   host (and the quality runs are bit-for-bit reproducible), so the
//!   ratio is hardware-independent; a decline beyond the tolerance fails
//!   the build.
//! * **informational** metrics — absolute throughput (`events_per_sec`),
//!   wall times (`seconds`) and streaming-vs-slice ratios. These depend on
//!   the runner's clock speed and core count (the single-core CI caveat in
//!   ROADMAP.md: producer and drain threads time-share one core), so a
//!   decline only warns.
//! * everything else — workload configuration, counters, booleans — is
//!   ignored.
//!
//! The JSON parser is a deliberately small hand-rolled recursive-descent
//! reader (the workspace has no serialisation dependency, so there is no
//! derive-based deserialisation to lean on); it covers exactly the
//! JSON the benches emit: objects, arrays, strings, numbers, booleans and
//! null.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the bench reports stay well
    /// within exact range).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in declaration order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, value)| value),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(value) => Some(*value),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset when the input is not valid
/// JSON (of the subset the bench reports use).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_whitespace(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Number).map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        match byte {
            b'"' => return Ok(out),
            b'\\' => {
                let escaped = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match escaped {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    other => return Err(format!("unsupported escape '\\{}'", *other as char)),
                }
            }
            _ => out.push(byte as char),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(entries));
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// How a metric participates in the regression gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Hardware-independent ratio: a regression beyond tolerance fails.
    Gate,
    /// Wall-clock-dependent: a regression only warns (single-core CI
    /// caveat).
    Warn,
}

/// Whether larger or smaller values are better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, speedups).
    HigherIsBetter,
    /// Smaller is better (wall times).
    LowerIsBetter,
}

/// Classifies a numeric leaf by its JSON key. `None` means the value is
/// configuration or bookkeeping, not a performance metric.
pub fn classify(key: &str) -> Option<(Severity, Direction)> {
    // Same-process ratios: hardware-independent, gate hard.
    const GATED: &[&str] = &[
        "speedup",
        "speedup_vs_single",
        "peak_entry_ratio",
        "entry_write_amplification_removed",
        "chunked_over_broadcast",
        "stolen_over_static",
        "kernel_over_batch",
    ];
    if GATED.contains(&key) {
        return Some((Severity::Gate, Direction::HigherIsBetter));
    }
    // Quality ratios of the shedder family matrix: deterministic (seeded
    // datasets, slice backend, single shard), so they gate hard too.
    if key == "recall" {
        return Some((Severity::Gate, Direction::HigherIsBetter));
    }
    if key == "false_positive_ratio" {
        return Some((Severity::Gate, Direction::LowerIsBetter));
    }
    // Absolute rates and cross-thread ratios: informational on 1-core CI.
    if key.ends_with("events_per_sec")
        || key == "vs_slice"
        || key == "streaming_fused_over_independent"
        || key == "slice_fused_over_independent"
    {
        return Some((Severity::Warn, Direction::HigherIsBetter));
    }
    if key.ends_with("seconds") {
        return Some((Severity::Warn, Direction::LowerIsBetter));
    }
    None
}

/// One compared metric whose value declined beyond the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Dotted path of the metric inside the report (array indices
    /// bracketed), e.g. `sweep[2].speedup`.
    pub path: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
    /// Relative decline in `(0, 1]` — `0.3` means 30 % worse than the
    /// baseline.
    pub decline: f64,
    /// Whether this metric gates the build or only warns.
    pub severity: Severity,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {:.4} -> current {:.4} ({:.1}% worse)",
            self.path,
            self.baseline,
            self.current,
            self.decline * 100.0
        )
    }
}

/// Outcome of comparing one report pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Metrics compared (gated + informational).
    pub compared: usize,
    /// Declines beyond tolerance, gated and warn-only alike.
    pub regressions: Vec<Regression>,
    /// Metric leaves present in the current report but absent from the
    /// baseline (`(path, value)`). Surfaced as NEW warnings instead of
    /// being silently skipped — a fresh metric is not compared, and
    /// will not be until the baselines are regenerated to include it.
    pub new_metrics: Vec<(String, f64)>,
}

impl Comparison {
    /// The gated regressions (the ones that fail a build).
    pub fn failures(&self) -> impl Iterator<Item = &Regression> {
        self.regressions.iter().filter(|r| r.severity == Severity::Gate)
    }

    /// The warn-only regressions.
    pub fn warnings(&self) -> impl Iterator<Item = &Regression> {
        self.regressions.iter().filter(|r| r.severity == Severity::Warn)
    }
}

/// Compares every shared numeric metric of `current` against `baseline`,
/// flagging values that declined by more than `tolerance` (a fraction:
/// `0.25` = fail on >25 % regression). Structure mismatches (rows added or
/// removed) are not an error — only leaves present in both documents are
/// compared.
pub fn compare_reports(baseline: &Json, current: &Json, tolerance: f64) -> Comparison {
    let mut comparison = Comparison::default();
    walk(baseline, current, "", None, tolerance, &mut comparison);
    comparison
}

fn walk(
    baseline: &Json,
    current: &Json,
    path: &str,
    key_class: Option<(Severity, Direction)>,
    tolerance: f64,
    out: &mut Comparison,
) {
    match (baseline, current) {
        (Json::Object(entries), Json::Object(current_entries)) => {
            for (key, value) in entries {
                if let Some(other) = current.get(key) {
                    let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    walk(value, other, &child, classify(key), tolerance, out);
                }
            }
            // Keys the baseline does not have yet: report their metric
            // leaves as NEW instead of silently skipping them.
            for (key, value) in current_entries {
                if baseline.get(key).is_none() {
                    let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    collect_new_metrics(value, &child, classify(key), out);
                }
            }
        }
        (Json::Array(left), Json::Array(right)) => {
            for (index, (a, b)) in left.iter().zip(right.iter()).enumerate() {
                let child = format!("{path}[{index}]");
                walk(a, b, &child, None, tolerance, out);
            }
            for (index, extra) in right.iter().enumerate().skip(left.len()) {
                collect_new_metrics(extra, &format!("{path}[{index}]"), None, out);
            }
        }
        (Json::Number(baseline), Json::Number(current)) => {
            let Some((severity, direction)) = key_class else { return };
            out.compared += 1;
            let decline = match direction {
                Direction::HigherIsBetter if *baseline > 0.0 => (baseline - current) / baseline,
                Direction::LowerIsBetter if *baseline > 0.0 => (current - baseline) / baseline,
                _ => 0.0,
            };
            if decline > tolerance {
                out.regressions.push(Regression {
                    path: path.to_owned(),
                    baseline: *baseline,
                    current: *current,
                    decline,
                    severity,
                });
            }
        }
        _ => {}
    }
}

/// Records every numeric leaf under `current` whose key classifies as a
/// metric — the current-only counterpart of `walk` for subtrees the
/// baseline lacks entirely.
fn collect_new_metrics(
    current: &Json,
    path: &str,
    key_class: Option<(Severity, Direction)>,
    out: &mut Comparison,
) {
    match current {
        Json::Object(entries) => {
            for (key, value) in entries {
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                collect_new_metrics(value, &child, classify(key), out);
            }
        }
        Json::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                collect_new_metrics(item, &format!("{path}[{index}]"), None, out);
            }
        }
        Json::Number(value) if key_class.is_some() => {
            out.new_metrics.push((path.to_owned(), *value));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_report_shape() {
        let doc = parse_json(
            r#"{
  "host_cores": 1,
  "workload": {"events": 120000, "window_size": 600},
  "identical": true,
  "sweep": [
    {"slide": 600, "speedup": 1.74, "seconds": 0.0239, "ring_events_per_sec": 25737635},
    {"slide": 30, "speedup": 5.25, "seconds": 0.0906, "ring_events_per_sec": 5996159}
  ],
  "notes": "a \"quoted\" note\nwith a newline"
}"#,
        )
        .expect("valid report");
        assert_eq!(doc.get("host_cores").and_then(Json::as_number), Some(1.0));
        let sweep = doc.get("sweep").expect("sweep");
        let Json::Array(rows) = sweep else { panic!("sweep is an array") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("speedup").and_then(Json::as_number), Some(5.25));
        let Some(Json::String(notes)) = doc.get("notes") else { panic!("notes") };
        assert!(notes.contains("\"quoted\""));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn classification_gates_ratios_and_warns_on_wall_clock() {
        assert_eq!(classify("speedup"), Some((Severity::Gate, Direction::HigherIsBetter)));
        assert_eq!(
            classify("speedup_vs_single"),
            Some((Severity::Gate, Direction::HigherIsBetter))
        );
        assert_eq!(
            classify("chunked_over_broadcast"),
            Some((Severity::Gate, Direction::HigherIsBetter))
        );
        assert_eq!(
            classify("stolen_over_static"),
            Some((Severity::Gate, Direction::HigherIsBetter))
        );
        assert_eq!(
            classify("kernel_over_batch"),
            Some((Severity::Gate, Direction::HigherIsBetter))
        );
        assert_eq!(classify("kernel_ns_per_decision"), None, "per-decision ns is informational");
        assert_eq!(
            classify("fused_streaming_events_per_sec"),
            Some((Severity::Warn, Direction::HigherIsBetter))
        );
        assert_eq!(
            classify("critical_path_seconds"),
            Some((Severity::Warn, Direction::LowerIsBetter))
        );
        assert_eq!(classify("vs_slice"), Some((Severity::Warn, Direction::HigherIsBetter)));
        assert_eq!(classify("events"), None, "workload config is not a metric");
        assert_eq!(classify("host_cores"), None);
    }

    fn report(speedup: f64, events_per_sec: f64, seconds: f64) -> Json {
        parse_json(&format!(
            r#"{{"sweep": [{{"speedup": {speedup}, "ring_events_per_sec": {events_per_sec}, "seconds": {seconds}, "overlap": 20}}]}}"#
        ))
        .expect("valid")
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = report(5.0, 1_000_000.0, 0.05);
        let current = report(4.0, 900_000.0, 0.055);
        let comparison = compare_reports(&baseline, &current, 0.25);
        assert_eq!(comparison.compared, 3);
        assert!(comparison.regressions.is_empty(), "{:?}", comparison.regressions);
    }

    #[test]
    fn gated_ratio_regression_fails_and_wall_clock_only_warns() {
        let baseline = report(5.0, 1_000_000.0, 0.05);
        // Speedup collapses to 2.0 (-60 %), throughput halves, time triples.
        let current = report(2.0, 500_000.0, 0.15);
        let comparison = compare_reports(&baseline, &current, 0.25);
        let failures: Vec<_> = comparison.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].path, "sweep[0].speedup");
        assert!((failures[0].decline - 0.6).abs() < 1e-9);
        let warnings: Vec<_> = comparison.warnings().collect();
        assert_eq!(warnings.len(), 2, "throughput and seconds warn: {warnings:?}");
        assert!(warnings.iter().all(|w| w.severity == Severity::Warn));
    }

    #[test]
    fn improvements_never_flag() {
        let baseline = report(5.0, 1_000_000.0, 0.05);
        let current = report(9.0, 2_000_000.0, 0.01);
        let comparison = compare_reports(&baseline, &current, 0.25);
        assert!(comparison.regressions.is_empty());
    }

    #[test]
    fn extra_rows_and_missing_keys_are_tolerated() {
        let baseline = parse_json(r#"{"runs": [{"speedup": 2.0}, {"speedup": 3.0}]}"#).unwrap();
        let current =
            parse_json(r#"{"runs": [{"speedup": 2.1}], "new_section": {"x": 1}}"#).unwrap();
        let comparison = compare_reports(&baseline, &current, 0.25);
        assert_eq!(comparison.compared, 1, "only the shared row is compared");
        assert!(comparison.regressions.is_empty());
        // "x" is not a metric key, so the new section adds no NEW entries.
        assert!(comparison.new_metrics.is_empty());
    }

    #[test]
    fn quality_ratios_gate_in_both_directions() {
        assert_eq!(classify("recall"), Some((Severity::Gate, Direction::HigherIsBetter)));
        assert_eq!(
            classify("false_positive_ratio"),
            Some((Severity::Gate, Direction::LowerIsBetter))
        );
        let baseline =
            parse_json(r#"{"s": [{"recall": 0.9, "false_positive_ratio": 0.1}]}"#).unwrap();
        let current =
            parse_json(r#"{"s": [{"recall": 0.5, "false_positive_ratio": 0.2}]}"#).unwrap();
        let comparison = compare_reports(&baseline, &current, 0.25);
        let failures: Vec<_> = comparison.failures().collect();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.path == "s[0].recall"));
        assert!(failures.iter().any(|f| f.path == "s[0].false_positive_ratio"));
    }

    #[test]
    fn current_only_metrics_surface_as_new() {
        let baseline = parse_json(r#"{"runs": [{"speedup": 2.0}]}"#).unwrap();
        let current = parse_json(
            r#"{"runs": [{"speedup": 2.1, "recall": 0.9}, {"speedup": 3.0}],
                "quality": {"rows": [{"false_positive_ratio": 0.05, "events": 10}]}}"#,
        )
        .unwrap();
        let comparison = compare_reports(&baseline, &current, 0.25);
        assert_eq!(comparison.compared, 1);
        let paths: Vec<&str> = comparison.new_metrics.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec!["runs[0].recall", "runs[1].speedup", "quality.rows[0].false_positive_ratio"],
            "shared-row new key, extra-row metric and new-section metric all surface"
        );
        // Non-metric config leaves ("events") stay out.
        assert!(comparison.new_metrics.iter().all(|(p, _)| !p.contains("events")));
    }
}
