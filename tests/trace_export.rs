//! The trace-export gate: the Chrome trace-event JSON emitted by
//! `obs::trace::export_chrome_json` must be well-formed (parseable, every
//! event carrying the complete-event fields) and causally sound — a child
//! span's `[ts, ts+dur]` window nests inside its parent's, and the child
//! shares the parent's trace id.
//!
//! Two entry points: a self-contained test that streams a small world and
//! validates its own export, and a CI hook that validates an externally
//! produced trace file (a Chrome trace written by the `perfbench` benchmark
//! under `perfbench/out/`) when `CHROME_TRACE_PATH` names one.

use nft_wash_study::ethsim::Timestamp;
use nft_wash_study::obs;
use nft_wash_study::washtrade::pipeline::AnalysisInput;
use nft_wash_study::washtrade_stream::{StreamAnalyzer, StreamOptions};
use nft_wash_study::workload::{WorkloadConfig, World};

use json::Json;

/// Containment comparisons tolerate the µs formatting's truncation to three
/// decimals (1 ns) plus float parse rounding.
const EPSILON_US: f64 = 0.01;

fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
    event.get(key).unwrap_or_else(|| panic!("trace event missing `{key}`: {event:?}"))
}

fn num(value: &Json) -> f64 {
    match value {
        Json::Int(n) => *n as f64,
        Json::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn int(value: &Json) -> i64 {
    match value {
        Json::Int(n) => *n,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// Validate one exported trace document; returns the number of events.
fn validate_chrome_trace(text: &str) -> usize {
    let doc = json::parse(text).expect("exported trace must be valid JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("top-level `traceEvents` array missing: {other:?}"),
    };

    // Pass 1 — shape, and an index of every span's window and trace.
    let mut spans = std::collections::HashMap::new();
    for event in events {
        match field(event, "ph") {
            Json::Str(ph) => assert_eq!(ph, "X", "only complete events are exported"),
            other => panic!("`ph` must be a string: {other:?}"),
        }
        assert!(matches!(field(event, "name"), Json::Str(_)));
        let ts = num(field(event, "ts"));
        let dur = num(field(event, "dur"));
        assert!(ts >= 0.0 && dur >= 0.0);
        int(field(event, "pid"));
        int(field(event, "tid"));
        let args = field(event, "args");
        let span = int(field(args, "span"));
        let trace = int(field(args, "trace"));
        let parent = int(field(args, "parent"));
        spans.insert(span, (trace, parent, ts, ts + dur));
    }

    // Pass 2 — causal soundness. A parent evicted from the bounded flight
    // ring leaves its child effectively rootless; only links where both
    // ends survived are checkable.
    let mut checked = 0usize;
    for (span, (trace, parent, start, end)) in &spans {
        if *parent == 0 {
            continue;
        }
        if let Some((parent_trace, _, parent_start, parent_end)) = spans.get(parent) {
            assert_eq!(
                trace, parent_trace,
                "span {span} and its parent {parent} must share a trace"
            );
            assert!(
                *start >= parent_start - EPSILON_US && *end <= parent_end + EPSILON_US,
                "span {span} [{start}, {end}] outlives its parent {parent} \
                 [{parent_start}, {parent_end}]"
            );
            checked += 1;
        }
    }
    if spans.len() > 1 {
        assert!(checked > 0, "a multi-span trace must have at least one checkable link");
    }
    events.len()
}

#[test]
fn streamed_world_exports_a_valid_nesting_timeline() {
    let world = World::generate(WorkloadConfig {
        seed: 23,
        start: Timestamp::from_secs(1_609_459_200),
        duration_days: 60,
        collections: 4,
        non_compliant_collections: 1,
        erc1155_collections: 1,
        dex_position_nfts: 1,
        legit_traders: 10,
        legit_sales: 24,
        zero_volume_shuffles: 2,
        wash_activities: 8,
        serial_trader_fraction: 0.3,
        gas_price_gwei: 40,
    })
    .expect("world generation");
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };
    let mut analyzer = StreamAnalyzer::new(input, StreamOptions { threads: 4 });
    let mut epochs = 0usize;
    while analyzer.ingest_epoch(25).is_some() {
        epochs += 1;
    }
    assert!(epochs >= 2, "the world must slice into multiple epochs");

    let exported = obs::trace::export_chrome_json();
    if !obs::enabled() {
        assert_eq!(exported, "{\"traceEvents\":[]}", "noop builds export an empty timeline");
        return;
    }
    let count = validate_chrome_trace(&exported);
    assert!(count >= epochs, "at least one span per ingested epoch");
    // The epoch root and its pipeline phases all made it into the timeline.
    for name in ["stream.epoch", "ingest.decode", "stream.refine_detect", "serve.publish"] {
        assert!(exported.contains(&format!("\"name\":\"{name}\"")), "no `{name}` span exported");
    }
}

/// CI hook: validate the trace file the benchmark exported. Skips (passing)
/// only when `CHROME_TRACE_PATH` is unset, so plain `cargo test` stays
/// self-contained; a set path whose file cannot be read fails the gate.
#[test]
fn exported_bench_trace_file_validates_when_present() {
    let Ok(path) = std::env::var("CHROME_TRACE_PATH") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("CHROME_TRACE_PATH={path} cannot be read: {error}"));
    let count = validate_chrome_trace(&text);
    if obs::enabled() {
        assert!(count > 0, "an instrumented bench run must export spans ({path})");
    }
}

/// A minimal JSON reader: enough to parse an exported trace document.
mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// An integer (kept exact).
        Int(i64),
        /// A floating-point number.
        Float(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object with sorted keys.
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// Fetch a key from an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(map) => map.get(key),
                _ => None,
            }
        }
    }

    /// Parse a JSON document. Returns `Err` with a short reason on malformed
    /// input; it only reads trace exports, so coverage of exotic inputs (huge
    /// exponents, surrogate escapes) errs rather than guesses.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
            Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' after key at byte {pos}"));
                    }
                    *pos += 1;
                    map.insert(key, parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos),
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
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&byte) = bytes.get(*pos) {
            match byte {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            *pos += 4;
                        }
                        other => return Err(format!("invalid escape {other:?}")),
                    }
                    *pos += 1;
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unexpected end of string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
        } else {
            text.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_reads_every_value_kind() {
            let text = r#"{"name": "stream \"bench\"\n", "count": 12345678901234,
                "ratio": 0.125, "whole": 3.0, "flags": [true, false, null],
                "empty_arr": [], "nested": {"k": -7}, "esc": "\u00e9\t/"}"#;
            let mut nested = BTreeMap::new();
            nested.insert("k".to_string(), Json::Int(-7));
            let expected: BTreeMap<String, Json> = [
                ("name", Json::Str("stream \"bench\"\n".to_string())),
                ("count", Json::Int(12_345_678_901_234)),
                ("ratio", Json::Float(0.125)),
                ("whole", Json::Float(3.0)),
                ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
                ("empty_arr", Json::Arr(vec![])),
                ("nested", Json::Obj(nested)),
                ("esc", Json::Str("é\t/".to_string())),
            ]
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect();
            assert_eq!(parse(text), Ok(Json::Obj(expected)));
        }

        #[test]
        fn parse_rejects_garbage() {
            assert!(parse("{").is_err());
            assert!(parse("[1, 2").is_err());
            assert!(parse("{} trailing").is_err());
            assert!(parse("\"unterminated").is_err());
        }

        #[test]
        fn get_reads_object_keys_only() {
            let doc = parse(r#"{"a": 1}"#).expect("valid");
            assert_eq!(doc.get("a"), Some(&Json::Int(1)));
            assert_eq!(doc.get("missing"), None);
            assert_eq!(Json::Null.get("a"), None);
        }
    }
}
