//! A minimal JSON reader/writer.
//!
//! PostgreSQL exposes query plans as `EXPLAIN (FORMAT JSON)` documents;
//! `lantern-plan` parses that artifact into an operator tree. The
//! sanctioned offline dependency set contains `serde` but not
//! `serde_json`, so this module implements the subset of JSON needed
//! (which is in fact all of JSON) with precise error positions.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The reader recurses once per level, so an unbounded depth would let
/// a small document overflow the stack; a real `EXPLAIN` plan nests a
/// few dozen levels at most.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value. Objects use `BTreeMap` so output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parse a JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// String content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array content if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Bool content if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                let _ = if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                };
            }
            JsonValue::String(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Append `s` to `out` as a quoted JSON string literal.
///
/// Quotes, backslashes, newlines, carriage returns and tabs get their
/// short escapes, the other control characters below U+0020 a
/// lowercase `\u00xx`; every other character, non-ASCII included, is
/// copied verbatim. Runs of bytes that need no escape are copied with
/// one `push_str` each. Every byte that needs an escape is ASCII, so
/// each run boundary is a `char` boundary.
pub fn write_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.bump() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Handle surrogate pairs.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            s.push(char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?);
                        } else {
                            s.push(char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-3.5").unwrap(), JsonValue::Number(-3.5));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"Plan": {"Node Type": "Hash Join", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders"}]}}"#;
        let v = JsonValue::parse(doc).unwrap();
        let plan = v.get("Plan").unwrap();
        assert_eq!(plan.get("Node Type").unwrap().as_str(), Some("Hash Join"));
        let kids = plan.get("Plans").unwrap().as_array().unwrap();
        assert_eq!(
            kids[0].get("Relation Name").unwrap().as_str(),
            Some("orders")
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(JsonValue::parse("\"abc").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let original = JsonValue::String("line\nquote\"backslash\\tab\t".into());
        let text = original.to_string_compact();
        assert_eq!(JsonValue::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pair() {
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn pretty_print_round_trips() {
        let doc = r#"{"a":[1,2,{"b":true}],"c":null}"#;
        let v = JsonValue::parse(doc).unwrap();
        let pretty = v.to_string_pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        let v = JsonValue::Number(42.0);
        assert_eq!(v.to_string_compact(), "42");
    }

    #[test]
    fn exponent_numbers() {
        assert_eq!(JsonValue::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(JsonValue::parse("2.5E-1").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(
            JsonValue::parse("{}").unwrap(),
            JsonValue::Object(Default::default())
        );
    }
    #[test]
    fn nesting_up_to_the_limit_parses() {
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&doc).is_ok());
        let doc = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&doc).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_crash() {
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = JsonValue::parse(&doc).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // A hostile plan document far past the limit (a few hundred KB).
        let err = JsonValue::parse(&"{\"Plan\":".repeat(20_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    /// The escaper `write_json_string` replaced: one `char` at a time.
    fn escape_charwise(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn write_json_string_matches_the_charwise_escaper() {
        // Strings drawn from an alphabet weighted towards the bytes that
        // need escaping, plus multi-byte characters on both sides of
        // them.
        const ALPHABET: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
            '→', '😀', '/',
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let len = (next() % 40) as usize;
            let s: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            let mut out = String::from("prefix");
            write_json_string(&mut out, &s);
            assert_eq!(out["prefix".len()..], escape_charwise(&s), "{s:?}");
            assert_eq!(
                JsonValue::parse(&out["prefix".len()..]).unwrap(),
                JsonValue::String(s)
            );
        }
        for s in ["", "plain", "\u{1}\u{2}", "tail\"", "\"head"] {
            let mut out = String::new();
            write_json_string(&mut out, s);
            assert_eq!(out, escape_charwise(s), "{s:?}");
        }
    }
}
