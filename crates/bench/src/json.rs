//! A small, dependency-free JSON value type with a writer and parser.
//!
//! `BENCH_results.json` must be diffable, lossless and readable by
//! off-the-shelf tools, but the build environment is offline, so serde is
//! not available. This module is the hand-rolled replacement: objects
//! preserve insertion order (deterministic artifacts), 64-bit integers
//! round-trip exactly (cycle counts and checksums never pass through
//! `f64`), and floats use Rust's shortest-round-trip formatting.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative integers (and any integer parsed with a leading `-`).
    Int(i64),
    /// Non-negative integers, kept exact up to `u64::MAX`.
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (no reordering, no dedup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs; a readable literal syntax for callers.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline
    /// — the `BENCH_results.json` on-disk format.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items, |out, item, d| {
                item.write(out, indent, d)
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs, |out, (k, v), d| {
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, d);
            }),
        }
    }

    /// Parses a JSON document (the writer's output, or any standard JSON
    /// text; `\u` escapes outside the basic plane are unsupported).
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error,
    /// so hostile input cannot overflow the parsing thread's stack.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
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

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// this workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parse failure: byte offset plus message.
#[derive(Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape outside BMP"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control byte in string")),
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Json::Int)
                        .or_else(|_| text.parse::<f64>().map(Json::Float))
                        .map_err(|_| self.error("bad number"));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly() {
        let doc = Json::obj(vec![
            ("checksum", Json::UInt(u64::MAX)),
            ("cycles", Json::UInt(9_007_199_254_740_993)), // > 2^53
            ("delta", Json::Int(-42)),
        ]);
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.contains("9007199254740993"), "{text}");
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.005, 1.305, -3.25e-9, 0.0, 1e300] {
            let doc = Json::Arr(vec![Json::Float(v)]);
            assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "quote\" backslash\\ newline\n tab\t control\u{1} unicode→é";
        let doc = Json::Str(nasty.to_string());
        let text = doc.to_string_compact();
        assert!(text.contains("\\\"") && text.contains("\\\\") && text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = Json::obj(vec![
            ("zebra", Json::UInt(1)),
            ("alpha", Json::UInt(2)),
            ("zebra", Json::UInt(3)), // duplicate keys preserved verbatim
        ]);
        let text = doc.to_string_compact();
        assert_eq!(text, r#"{"zebra":1,"alpha":2,"zebra":3}"#);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "01x",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(Json::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn parses_standard_json_with_whitespace() {
        let v = Json::parse(" {\n \"a\" : [ 1 , 2.5 , true , null , \"x\" ] }\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread has the default (small) stack — the setting a
        // coordinator parses endpoint lines in.
        std::thread::spawn(|| {
            for n in [5_000, 20_000, 100_000] {
                for open in ["[", "{\"a\":"] {
                    let err = Json::parse(&open.repeat(n)).unwrap_err();
                    assert!(err.message.contains("nesting"), "{n}: {err}");
                }
            }
            let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
            assert!(Json::parse(&at_cap).is_ok());
            let over = format!("[{at_cap}]");
            assert!(Json::parse(&over).is_err());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_real_artifact_round_trips_under_the_depth_cap() {
        let mut plan = crate::plan::Plan::new();
        plan.push(crate::plan::Cell::new(
            "g721_enc",
            crate::plan::SelectionSpec::Greedy,
            crate::plan::MachineSpec::with_pfus(2, 10),
        ));
        let config = crate::engine::EngineConfig {
            deterministic: true,
            ..Default::default()
        };
        let run = crate::engine::execute_with(&plan, t1000_workloads::Scale::Test, &config);
        let doc = crate::results::to_json(&run);
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        crate::results::validate_artifact(&text).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string_compact(), "null");
    }
}
