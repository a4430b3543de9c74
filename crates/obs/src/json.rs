//! The workspace's shared JSON surface.
//!
//! [`Writer`] replaces the five hand-rolled `push_str` emitters that grew
//! up in `live`, `fleet`, `mc`, `snapshot`, and `core` — all of which
//! interpolated strings into JSON without escaping (a protocol name
//! containing `"` emitted invalid output). The writer escapes every
//! string it is handed and reproduces both existing output shapes
//! exactly: [`Style::Compact`] (`{"k":v,...}`) and [`Style::Pretty`]
//! (one-space indented, one field per line), so byte-stable deterministic
//! outputs survive the migration for escape-free inputs.
//!
//! [`parse`] is a deliberately small recursive-descent JSON reader used
//! by the schema round-trip tests and `tools/trace-check`-style
//! validation in-tree; it is not a general-purpose deserializer.

use std::fmt::Write as _;

/// Output shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// `{"k":v,"k2":v2}` — the deterministic/stats wire shape.
    Compact,
    /// `{\n "k": v,\n "k2": v2\n}` — the human-facing bench shape
    /// (one-space indent per level, matching the workspace's existing
    /// bench JSON).
    Pretty,
}

/// An escaping-correct JSON object writer.
pub struct Writer {
    out: String,
    style: Style,
    first: bool,
    indent: usize,
}

impl Writer {
    /// Starts a top-level object.
    pub fn object(style: Style) -> Writer {
        Writer::object_indented(style, 1)
    }

    /// Starts an object whose pretty fields sit at `indent` one-space
    /// levels (for nesting pre-rendered objects inside pretty output).
    pub fn object_indented(style: Style, indent: usize) -> Writer {
        Writer {
            out: String::from("{"),
            style,
            first: true,
            indent,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        match self.style {
            Style::Compact => {
                self.out.push('"');
                escape_into(&mut self.out, k);
                self.out.push_str("\":");
            }
            Style::Pretty => {
                self.out.push('\n');
                for _ in 0..self.indent {
                    self.out.push(' ');
                }
                self.out.push('"');
                escape_into(&mut self.out, k);
                self.out.push_str("\": ");
            }
        }
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a `usize` field.
    pub fn field_usize(&mut self, k: &str, v: usize) -> &mut Self {
        self.field_u64(k, v as u64)
    }

    /// Writes a signed integer field.
    pub fn field_i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float field with `prec` decimal places.
    pub fn field_f64(&mut self, k: &str, v: f64, prec: usize) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v:.prec$}");
        self
    }

    /// Writes an escaped string field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a `null` field.
    pub fn field_null(&mut self, k: &str) -> &mut Self {
        self.key(k);
        self.out.push_str("null");
        self
    }

    /// Writes `v` as a number or `null`.
    pub fn field_opt_u64(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.field_u64(k, v),
            None => self.field_null(k),
        }
    }

    /// Writes a pre-rendered JSON value (object, array, number...) under
    /// `k`. The caller vouches that `raw` is valid JSON.
    pub fn field_raw(&mut self, k: &str, raw: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(raw);
        self
    }

    /// Splices pre-rendered `"k": v[, "k2": v2...]` pairs verbatim (the
    /// escape hatch for callers assembling fragments out-of-band, e.g.
    /// `LiveStats::to_json_with`). The caller vouches for validity.
    pub fn fragment(&mut self, pairs: &str) -> &mut Self {
        if pairs.is_empty() {
            return self;
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if self.style == Style::Pretty {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push(' ');
            }
        }
        self.out.push_str(pairs);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.style == Style::Pretty && !self.first {
            self.out.push('\n');
            for _ in 0..self.indent.saturating_sub(1) {
                self.out.push(' ');
            }
        }
        self.out.push('}');
        self.out
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// Escapes `s` per RFC 8259 and appends it to `out` (no quotes added).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Returns `s` escaped (no surrounding quotes).
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

// ---- minimal parser (for round-trip tests and in-tree validation) ------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so this bounds its stack on hostile input; every
/// document the suite writes nests fewer than 10 levels.
const MAX_NESTING: usize = 128;

/// Parses one JSON document (rejecting trailing garbage and
/// array/object nesting deeper than 128 levels).
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

/// Parses the value at `pos`, inside `depth` open arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_NESTING {
        return Err(format!("nesting deeper than {MAX_NESTING} at offset {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number '{text}' at offset {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one piece
                // (both are ASCII, so the run ends on a scalar boundary).
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_writer_matches_legacy_shape() {
        let mut w = Writer::object(Style::Compact);
        w.field_str("name", "ring")
            .field_u64("n", 3)
            .field_f64("rate", 0.5, 2)
            .field_bool("ok", true)
            .field_null("limit")
            .field_raw("inner", "{\"a\":1}");
        assert_eq!(
            w.finish(),
            "{\"name\":\"ring\",\"n\":3,\"rate\":0.50,\"ok\":true,\"limit\":null,\"inner\":{\"a\":1}}"
        );
    }

    #[test]
    fn pretty_writer_matches_legacy_shape() {
        let mut w = Writer::object(Style::Pretty);
        w.field_str("bench", "x").field_u64("n", 1);
        assert_eq!(w.finish(), "{\n \"bench\": \"x\",\n \"n\": 1\n}");
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = Writer::object(Style::Compact);
        w.field_str("name", "quote\" back\\slash\nnl\u{1}é→");
        let out = w.finish();
        assert_eq!(out, "{\"name\":\"quote\\\" back\\\\slash\\nnl\\u0001é→\"}");
        // And it round-trips through the parser.
        let v = parse(&out).expect("escaped output parses");
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("quote\" back\\slash\nnl\u{1}é→")
        );
    }

    #[test]
    fn parser_handles_documents() {
        let v = parse("{\"a\": [1, 2.5, -3], \"b\": {\"c\": null, \"d\": true}, \"s\": \"x\"}")
            .expect("parses");
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let mib = 1 << 20;
        assert!(parse(&"[".repeat(mib)).is_err());
        assert!(parse(&"{\"a\":".repeat(mib / 5)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse(&at_limit).is_ok());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING),
            "}".repeat(MAX_NESTING)
        );
        assert!(parse(&objects).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn fragment_splices_verbatim() {
        let mut w = Writer::object(Style::Pretty);
        w.field_u64("a", 1)
            .fragment("\"raw\": {\"x\": 2}")
            .field_u64("b", 3);
        let out = w.finish();
        assert_eq!(out, "{\n \"a\": 1,\n \"raw\": {\"x\": 2},\n \"b\": 3\n}");
        assert!(parse(&out).is_ok());
    }
}
