//! Hand-rolled JSON for the figure/report artefacts.
//!
//! The build environment serves `serde`/`serde_json` from offline shims whose
//! derives are no-ops, so `serde_json::to_string_pretty` falls back to Rust
//! `{:#?}` debug text — structured, but not machine-readable. The figure
//! harness needs *real* JSON (CI parses it, EXPERIMENTS.md regeneration diffs
//! it), so this module provides a small, dependency-free JSON document model:
//!
//! * [`JsonValue`] — build documents programmatically and [`JsonValue::render`]
//!   them (RFC 8259 escaping, stable key order, pretty or compact);
//! * [`JsonValue::parse`] — a strict recursive-descent parser, used by the
//!   tests and the bench-regression gate to read the artefacts back;
//! * [`ToJson`] — implemented for the figure/report types, so
//!   `figures --json` emits documents any JSON tool can consume.
//!
//! Numbers are stored as `f64` (ample for cycle counts below 2^53 and every
//! timing the harness produces); non-finite floats render as `null`, matching
//! `serde_json`'s behaviour.

use crate::figures::{FigurePanel, FigureResult};
use crate::report::{Series, TableReport};
use std::fmt::Write as _;

/// A JSON document: the usual six value kinds, with objects as ordered
/// key/value pairs (insertion order is preserved when rendering).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for an array of strings.
    pub fn strings<S: AsRef<str>>(items: &[S]) -> JsonValue {
        JsonValue::Array(items.iter().map(|s| JsonValue::String(s.as_ref().to_string())).collect())
    }

    /// Convenience constructor for an array of numbers.
    pub fn numbers(items: &[f64]) -> JsonValue {
        JsonValue::Array(items.iter().map(|&v| JsonValue::Number(v)).collect())
    }

    /// Looks a key up in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document as pretty JSON (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (newline, pad, pad_close, colon) = match indent {
            Some(width) => ("\n", " ".repeat(width * (depth + 1)), " ".repeat(width * depth), ": "),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => write_number(out, *v),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(newline);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(newline);
                out.push_str(&pad_close);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(newline);
                    out.push_str(&pad);
                    write_escaped(out, key);
                    out.push_str(colon);
                    value.write(out, indent, depth + 1);
                }
                out.push_str(newline);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parses a JSON text into a document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(JsonValue::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our artefacts;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.error("control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError { message: format!("invalid number {text:?}"), offset: start })
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        _ => 2,
    }
}

/// Conversion into the [`JsonValue`] document model.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for Series {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("label", JsonValue::String(self.label.clone())),
            ("x", JsonValue::numbers(&self.x)),
            ("y", JsonValue::numbers(&self.y)),
        ])
    }
}

impl ToJson for TableReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("caption", JsonValue::String(self.caption.clone())),
            ("headers", JsonValue::strings(&self.headers)),
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(|row| JsonValue::strings(row)).collect()),
            ),
        ])
    }
}

impl ToJson for FigurePanel {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("dataset", JsonValue::String(self.dataset.clone())),
            ("series", JsonValue::Array(self.series.iter().map(ToJson::to_json).collect())),
        ])
    }
}

impl ToJson for FigureResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", JsonValue::String(self.id.clone())),
            ("title", JsonValue::String(self.title.clone())),
            ("panels", JsonValue::Array(self.panels.iter().map(ToJson::to_json).collect())),
            ("tables", JsonValue::Array(self.tables.iter().map(ToJson::to_json).collect())),
        ])
    }
}

// --- device/report types -----------------------------------------------------
//
// The serde shims cannot serialise these (their derives are no-ops), so the
// device-facing report types get explicit `ToJson` impls here; the host
// server's `STATS` command and report tooling emit real JSON through them
// instead of `{:#?}` debug text.

impl ToJson for pefp_fpga::MemoryCounters {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("bram_reads", JsonValue::Number(self.bram_reads as f64)),
            ("bram_writes", JsonValue::Number(self.bram_writes as f64)),
            ("dram_reads", JsonValue::Number(self.dram_reads as f64)),
            ("dram_writes", JsonValue::Number(self.dram_writes as f64)),
            ("dram_words_read", JsonValue::Number(self.dram_words_read as f64)),
            ("dram_words_written", JsonValue::Number(self.dram_words_written as f64)),
            ("buffer_flushes", JsonValue::Number(self.buffer_flushes as f64)),
            ("dram_batch_fetches", JsonValue::Number(self.dram_batch_fetches as f64)),
            ("cache_hits", JsonValue::Number(self.cache_hits as f64)),
            ("cache_misses", JsonValue::Number(self.cache_misses as f64)),
        ])
    }
}

impl ToJson for pefp_fpga::DeviceReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("cycles", JsonValue::Number(self.cycles as f64)),
            ("kernel_millis", JsonValue::Number(self.kernel_millis)),
            ("pcie_millis", JsonValue::Number(self.pcie_millis)),
            ("total_millis", JsonValue::Number(self.total_millis)),
            ("counters", self.counters.to_json()),
            ("bram_used", JsonValue::Number(self.bram_used as f64)),
            ("bram_capacity", JsonValue::Number(self.bram_capacity as f64)),
            ("dram_cycles", JsonValue::Number(self.dram_cycles as f64)),
            ("contention_cycles", JsonValue::Number(self.contention_cycles as f64)),
            ("bank_conflict_cycles", JsonValue::Number(self.bank_conflict_cycles as f64)),
            ("turnaround_cycles", JsonValue::Number(self.turnaround_cycles as f64)),
        ])
    }
}

impl ToJson for pefp_fpga::ArbiterStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("refills", JsonValue::Number(self.refills as f64)),
            ("words", JsonValue::Number(self.words as f64)),
            ("penalty_cycles", JsonValue::Number(self.penalty_cycles as f64)),
            ("bank_conflicts", JsonValue::Number(self.bank_conflicts as f64)),
            ("bank_conflict_cycles", JsonValue::Number(self.bank_conflict_cycles as f64)),
            ("turnarounds", JsonValue::Number(self.turnarounds as f64)),
            ("turnaround_cycles", JsonValue::Number(self.turnaround_cycles as f64)),
        ])
    }
}

impl ToJson for pefp_fpga::MultiCuSchedule {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("compute_units", JsonValue::Number(self.compute_units as f64)),
            (
                "per_cu_cycles",
                JsonValue::numbers(
                    &self.per_cu_cycles.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                ),
            ),
            ("makespan_cycles", JsonValue::Number(self.makespan_cycles as f64)),
            ("serial_cycles", JsonValue::Number(self.serial_cycles as f64)),
            ("contention_factor", JsonValue::Number(self.contention_factor)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = JsonValue::object(vec![
            ("name", JsonValue::String("fig8 \"query\"\nline".to_string())),
            ("count", JsonValue::Number(42.0)),
            ("ratio", JsonValue::Number(1.5)),
            ("flag", JsonValue::Bool(true)),
            ("missing", JsonValue::Null),
            ("xs", JsonValue::numbers(&[1.0, 2.5, -3.0])),
            ("empty_array", JsonValue::Array(Vec::new())),
            ("empty_object", JsonValue::Object(Vec::new())),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn integers_render_without_a_fraction() {
        assert_eq!(JsonValue::Number(3.0).render(), "3");
        assert_eq!(JsonValue::Number(-17.0).render(), "-17");
        assert_eq!(JsonValue::Number(0.5).render(), "0.5");
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn escapes_cover_the_json_control_set() {
        let s = JsonValue::String("a\"b\\c\nd\te".to_string());
        assert_eq!(s.render(), r#""a\"b\\c\nd\te""#);
        assert_eq!(JsonValue::parse(&s.render()).unwrap(), s);
        // Other control characters take the \uXXXX form and survive parsing.
        let ctrl = JsonValue::String("\u{1}".to_string());
        assert_eq!(ctrl.render(), "\"\\u0001\"");
        assert_eq!(JsonValue::parse(&ctrl.render()).unwrap(), ctrl);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a': 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_unicode_and_nesting() {
        let text = r#"{"π": [1, {"nested": "héllo ☃"}], "u": "A"}"#;
        let doc = JsonValue::parse(text).unwrap();
        assert_eq!(doc.get("u").and_then(JsonValue::as_str), Some("A"));
        let items = doc.get("π").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_number(), Some(1.0));
        assert_eq!(items[1].get("nested").and_then(JsonValue::as_str), Some("héllo ☃"));
    }

    #[test]
    fn figure_result_serialises_to_parseable_json() {
        let mut table = TableReport::new("caption", &["a", "b"]);
        table.push_row(vec!["1".into(), "2".into()]);
        let result = FigureResult {
            id: "fig8".to_string(),
            title: "Fig. 8".to_string(),
            panels: vec![FigurePanel {
                dataset: "AM".to_string(),
                series: vec![Series::new("PEFP", vec![5.0, 6.0], vec![0.5, 1.25])],
            }],
            tables: vec![table],
        };
        let text = result.to_json().render_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.get("id").and_then(JsonValue::as_str), Some("fig8"));
        let panels = parsed.get("panels").and_then(JsonValue::as_array).unwrap();
        let series = panels[0].get("series").and_then(JsonValue::as_array).unwrap();
        assert_eq!(series[0].get("label").and_then(JsonValue::as_str), Some("PEFP"));
        assert_eq!(
            series[0].get("y").and_then(JsonValue::as_array).unwrap()[1].as_number(),
            Some(1.25)
        );
        let tables = parsed.get("tables").and_then(JsonValue::as_array).unwrap();
        assert_eq!(tables[0].get("rows").and_then(JsonValue::as_array).unwrap().len(), 1);
    }

    #[test]
    fn device_report_serialises_to_parseable_json() {
        use pefp_core::{prepare_snapshot_with, run_prepared_on_device};
        use pefp_core::{CountingSink, PefpVariant, PrepareContext};
        use pefp_fpga::{Device, DeviceConfig};
        use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};

        let g = GraphSnapshot::from_csr(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let (s, t, variant) = (VertexId(0), VertexId(3), PefpVariant::Full);
        let prep = prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 3, variant);
        let device = Device::new(DeviceConfig::alveo_u200());
        let mut sink = CountingSink::new();
        let result = run_prepared_on_device(&prep, variant.engine_options(), device, &mut sink);
        let text = result.device.to_json().render_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed.get("cycles").and_then(JsonValue::as_number),
            Some(result.device.cycles as f64)
        );
        let counters = parsed.get("counters").expect("nested counters object");
        assert!(counters.get("dram_words_read").and_then(JsonValue::as_number).is_some());

        let stats = pefp_fpga::ArbiterStats::default().to_json().render();
        let parsed = JsonValue::parse(&stats).unwrap();
        assert_eq!(parsed.get("bank_conflict_cycles").and_then(JsonValue::as_number), Some(0.0));
    }
}
