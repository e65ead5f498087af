//! Minimal JSON emission and parsing — just enough to serialize
//! snapshots and manifests, and to validate them back, without an
//! external crate.
//!
//! Writing goes through [`JsonObject`]; numbers are emitted via
//! [`fmt_f64`], which guarantees a valid JSON literal even for
//! non-finite values (serialized as `null`, the only representation
//! JSON has for them). Reading goes through [`JsonValue::parse`], a
//! small recursive-descent parser used by the artifact validator
//! (`manifest_check`) and the round-trip tests — the simulator's hot
//! paths still never parse JSON.

use std::fmt::Write;

/// Appends `s` to `out`, escaped for inclusion inside JSON double quotes.
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// Appends a float to `out` as a JSON value: the shortest decimal that
/// round-trips, or `null` for NaN/infinity. The one number formatter:
/// [`fmt_f64`] and every [`JsonObject`] float go through it.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Formats a float as a JSON value (`null` for NaN/infinity).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

/// Incremental writer for one JSON object: collects `"key": value`
/// parts and renders them comma-joined. Values passed to `raw` must
/// already be valid JSON (numbers, nested objects, arrays).
#[derive(Debug, Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// An empty object writer.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.parts
            .push(format!("\"{}\": \"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.parts.push(format!("\"{}\": {value}", escape(key)));
        self
    }

    /// Adds a float field (`null` if non-finite).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.parts
            .push(format!("\"{}\": {}", escape(key), fmt_f64(value)));
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.parts.push(format!("\"{}\": {value}", escape(key)));
        self
    }

    /// Renders as a single-line object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }

    /// Renders with each field on its own line, indented by `indent`
    /// spaces (the closing brace at `indent - 2`).
    pub fn finish_pretty(&self, indent: usize) -> String {
        if self.parts.is_empty() {
            return "{}".to_string();
        }
        let pad = " ".repeat(indent);
        let close = " ".repeat(indent.saturating_sub(2));
        format!(
            "{{\n{pad}{}\n{close}}}",
            self.parts.join(&format!(",\n{pad}"))
        )
    }
}

/// A parsed JSON value. Objects preserve key order (and may hold
/// duplicate keys, resolved first-wins by [`JsonValue::get`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// The `null` literal (also how we serialize non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// All numbers as f64 — the manifests stay far below 2^53.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered member list.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, `None` when the
    /// value is not a number or not integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array items, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The ordered object members, `None` for non-objects.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(b, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogates never appear in our own output; map
                        // unpaired ones to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x80 => {
                out.push(char::from(byte));
                *pos += 1;
            }
            Some(&byte) => {
                // Consume one multi-byte UTF-8 scalar. Decode just this
                // scalar: validating the whole remaining tail here made
                // parsing quadratic in document size (each character of
                // every string re-scanned megabytes of suffix).
                let len = match byte {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(b.len());
                let scalar = std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?;
                let c = scalar.chars().next().ok_or("truncated UTF-8 scalar")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }

    #[test]
    fn write_f64_appends_the_display_digits() {
        let mut out = String::from("[");
        for v in [0.1, 1e-7, 2.5e17, f64::NEG_INFINITY, -0.0] {
            write_f64(&mut out, v);
            out.push(',');
        }
        assert_eq!(out, "[0.1,0.0000001,250000000000000000,null,-0,");
    }

    #[test]
    fn object_renders_balanced_json() {
        let mut o = JsonObject::new();
        o.field_str("name", "x\"y")
            .field_u64("count", 3)
            .field_raw("nested", "{\"a\": 1}");
        let s = o.finish();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\\\"y"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn pretty_renders_one_field_per_line() {
        let mut o = JsonObject::new();
        o.field_u64("a", 1).field_u64("b", 2);
        let s = o.finish_pretty(2);
        assert_eq!(s.lines().count(), 4);
        assert!(JsonObject::new().finish_pretty(2).contains("{}"));
    }

    #[test]
    fn control_chars_round_trip_through_parser() {
        let original = "line1\nline2\ttabbed\rret \u{1}\u{1f} end";
        let mut o = JsonObject::new();
        o.field_str("text", original);
        let doc = JsonValue::parse(&o.finish()).expect("parse");
        assert_eq!(doc.get("text").and_then(JsonValue::as_str), Some(original));
    }

    #[test]
    fn quote_and_backslash_round_trip() {
        let original = r#"she said "C:\path\to\file" loudly"#;
        let mut o = JsonObject::new();
        o.field_str("q", original);
        let rendered = o.finish();
        assert!(rendered.contains(r#"\"C:\\path"#));
        let doc = JsonValue::parse(&rendered).expect("parse");
        assert_eq!(doc.get("q").and_then(JsonValue::as_str), Some(original));
    }

    #[test]
    fn non_ascii_keys_round_trip() {
        let key = "délai·ξ·待ち時間";
        let mut o = JsonObject::new();
        o.field_f64(key, 2.5).field_str("emoji-🎲", "σ=3");
        let doc = JsonValue::parse(&o.finish()).expect("parse");
        assert_eq!(doc.get(key).and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("emoji-🎲").and_then(JsonValue::as_str), Some("σ=3"));
    }

    #[test]
    fn non_finite_floats_parse_back_as_null() {
        let mut o = JsonObject::new();
        o.field_f64("nan", f64::NAN)
            .field_f64("inf", f64::INFINITY)
            .field_f64("ninf", f64::NEG_INFINITY)
            .field_f64("ok", -0.125);
        let doc = JsonValue::parse(&o.finish()).expect("parse");
        assert_eq!(doc.get("nan"), Some(&JsonValue::Null));
        assert_eq!(doc.get("inf"), Some(&JsonValue::Null));
        assert_eq!(doc.get("ninf"), Some(&JsonValue::Null));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_f64), Some(-0.125));
    }

    #[test]
    fn nested_pretty_output_round_trips() {
        let mut inner = JsonObject::new();
        inner.field_u64("calls", 3).field_f64("secs", 0.25);
        let mut o = JsonObject::new();
        o.field_str("name", "x")
            .field_raw("spans", &inner.finish())
            .field_raw("list", "[1, 2.5, null, \"s\", true, [], {}]");
        let doc = JsonValue::parse(&o.finish_pretty(2)).expect("parse");
        assert_eq!(
            doc.get("spans").and_then(|s| s.get("calls")).and_then(JsonValue::as_u64),
            Some(3)
        );
        let list = doc.get("list").and_then(JsonValue::as_array).expect("array");
        assert_eq!(list.len(), 7);
        assert_eq!(list[0].as_u64(), Some(1));
        assert_eq!(list[2], JsonValue::Null);
        assert_eq!(list[4], JsonValue::Bool(true));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\": 1,}").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let doc = JsonValue::parse(r#"{"u": "\u0041\u00e9", "n": -1.5e3}"#).unwrap();
        assert_eq!(doc.get("u").and_then(JsonValue::as_str), Some("Aé"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(-1500.0));
    }

    #[test]
    fn parser_stays_linear_on_string_heavy_megabyte_documents() {
        // Regression guard: the string scanner used to revalidate the
        // entire remaining document for every ordinary character,
        // making a parse of a megabyte-scale chrome trace quadratic
        // (minutes of CPU). Linear parsing clears this ~1.7 MB document
        // in milliseconds; the generous bound only catches a return of
        // the quadratic scan, not machine noise.
        let row = "{\"name\": \"stage—01/αβγ — span\", \"val\": 123456789}";
        let rows = vec![row; 30_000].join(", ");
        let doc = format!("{{\"rows\": [{rows}]}}");
        let t0 = std::time::Instant::now();
        let v = JsonValue::parse(&doc).unwrap();
        let arr = v.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 30_000);
        assert_eq!(
            arr[29_999].get("name").and_then(JsonValue::as_str),
            Some("stage—01/αβγ — span")
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "parse took {:?} — the quadratic string scan is back",
            t0.elapsed()
        );
    }
}
