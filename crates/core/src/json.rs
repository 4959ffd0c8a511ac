//! Minimal JSON reading and writing: the one reader and the one writer
//! behind every document the workspace emits.
//!
//! The workspace deliberately carries no JSON dependency. Every emitter
//! (`results/bench_timings.json`, the run journal, the metrics files,
//! `BENCH_sim.json`, and the `--json` output of `bmp-report`,
//! `bmp-verify` and `bmp-lint`) builds a [`Value`] and prints it with
//! its [`Display`](fmt::Display) impl, so escaping, number formatting
//! and layout live in exactly one place. The readers use the small
//! recursive-descent parser in this module. It grew out of the
//! run-journal reader (see [`crate::journal`]) and also serves the
//! observability layer's `results/metrics/*.json` files (see
//! [`crate::metrics`] and `docs/OBSERVABILITY.md`), which is why it
//! understands floats, negative integers, booleans and `null`.
//!
//! Strict about structure (trailing garbage, unknown escapes and
//! mismatched delimiters are errors), tolerant of whitespace. Numbers
//! are kept in three distinct variants so 64-bit content fingerprints
//! and counters survive without an `f64` round-trip: an unsigned
//! integer literal parses as [`Value::UInt`], a negative integer as
//! [`Value::Int`], and anything with a fraction or exponent as
//! [`Value::Float`]. The writer keeps the same split, so
//! `parse(&v.to_string()) == v` for every value whose integers are
//! canonical (non-negative ones in `UInt`) and whose floats are finite.

use std::fmt;

/// Why a document could not be parsed (or a field could not be read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The underlying message, without the "invalid JSON" prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value, as parsed or as built for printing.
///
/// Objects preserve field order (they are association lists, not maps):
/// every writer in this workspace emits deterministic field order, and
/// keeping it makes `parse(to_json(x)) == x` round-trip tests exact.
///
/// `Display` is the workspace's one JSON serializer, with one fixed
/// layout: `"key": value` members, two-space indentation per nesting
/// level, and a container whose members are all scalars on one line
/// (`{ "a": 1, "b": 2 }`, `[1, 2]`). Strings go through
/// [`escape_string`] and floats through [`fmt_f64`]. No trailing
/// newline: document writers append their own.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `{ ... }` — fields in document order.
    Object(Vec<(String, Value)>),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `"..."`.
    String(String),
    /// A non-negative integer literal (no sign, fraction or exponent).
    UInt(u64),
    /// A negative integer literal.
    Int(i64),
    /// A literal with a fraction or exponent part.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// `x` rounded to `places` decimals: the float that
    /// `format!("{x:.places$}")` spells, for documents that publish
    /// fixed-precision figures.
    pub fn rounded(x: f64, places: usize) -> Self {
        Value::Float(format!("{x:.places$}").parse().unwrap_or(0.0))
    }

    /// The object fields, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, JsonError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(JsonError::new(format!("{what} is not a JSON object"))),
        }
    }

    /// The array items, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::new(format!("{what} is not an array"))),
        }
    }

    /// The string contents, or an error naming `what`.
    pub fn as_string(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(JsonError::new(format!("{what} is not a string"))),
        }
    }

    /// The value as a `u64`. Only an unsigned integer literal qualifies —
    /// floats are rejected so counter fields cannot silently truncate.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n),
            _ => Err(JsonError::new(format!("{what} is not an unsigned integer"))),
        }
    }

    /// The value as an `i64` (either integer variant, range permitting).
    pub fn as_i64(&self, what: &str) -> Result<i64, JsonError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => {
                i64::try_from(*n).map_err(|_| JsonError::new(format!("{what} is out of i64 range")))
            }
            _ => Err(JsonError::new(format!("{what} is not an integer"))),
        }
    }

    /// The value as an `f64`. Integer literals qualify too: a writer
    /// formatting `2.0` may legitimately emit `2`.
    pub fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            _ => Err(JsonError::new(format!("{what} is not a number"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Value {
    /// Prints `self` at nesting `depth` (the indentation of its
    /// closing bracket, in levels).
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Value::Object(fields) => write_members(
                f,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
                depth,
            ),
            Value::Array(items) => {
                write_members(f, ('[', ']'), items.iter().map(|v| (None, v)), depth)
            }
            Value::String(s) => f.write_str(&escape_string(s)),
            Value::UInt(n) => write!(f, "{n}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => f.write_str(&fmt_f64(*x)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("null"),
        }
    }
}

/// Prints a container's members (object fields carry their key): on
/// one line when every member is a scalar, else one member per line
/// indented one level past `depth`.
fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
    depth: usize,
) -> fmt::Result {
    if members.clone().next().is_none() {
        return write!(f, "{open}{close}");
    }
    let inline = members
        .clone()
        .all(|(_, v)| !matches!(v, Value::Object(_) | Value::Array(_)));
    let pad = if inline && open == '{' { " " } else { "" };
    write!(f, "{open}{pad}")?;
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            f.write_str(if inline { ", " } else { "," })?;
        }
        if !inline {
            write!(f, "\n{:1$}", "", 2 * (depth + 1))?;
        }
        if let Some(key) = key {
            write!(f, "{}: ", escape_string(key))?;
        }
        value.write(f, depth + 1)?;
    }
    if !inline {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    write!(f, "{pad}{close}")
}

macro_rules! value_from {
    ($($t:ty => $make:expr,)*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                ($make)(x)
            }
        }
    )*};
}

value_from! {
    u64 => Value::UInt,
    u32 => |n: u32| Value::UInt(n.into()),
    usize => |n: usize| Value::UInt(n as u64),
    // Canonical: a non-negative `i64` is a `UInt`, the variant its
    // printed literal parses back to.
    i64 => |n: i64| u64::try_from(n).map_or(Value::Int(n), Value::UInt),
    f64 => Value::Float,
    bool => Value::Bool,
    String => Value::String,
    &str => |s: &str| Value::String(s.to_owned()),
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value::Object`] in the shape it prints:
/// `json_object! { "key": value, "opt"?: option, ... }`.
///
/// Each value converts with `Into<Value>` (`None` prints as `null`); a
/// field written `"key"?:` takes an `Option` and is left out entirely
/// when it is `None`. Fields keep the order written.
///
/// ```
/// use bmp_core::json_object;
/// let none: Option<u64> = None;
/// let v = json_object! { "a": 1u64, "b"?: none, "c": none, "d"?: Some("x") };
/// assert_eq!(v.to_string(), r#"{ "a": 1, "c": null, "d": "x" }"#);
/// ```
#[macro_export]
macro_rules! json_object {
    (@push $fields:ident;) => {};
    (@push $fields:ident; $key:literal ?: $value:expr $(, $($rest:tt)*)?) => {
        $fields.extend($value.map(|v| ($key.to_owned(), v.into())));
        $crate::json_object!(@push $fields; $($($rest)*)?);
    };
    (@push $fields:ident; $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $fields.extend([($key.to_owned(), $value.into())]);
        $crate::json_object!(@push $fields; $($($rest)*)?);
    };
    ($($body:tt)*) => {{
        let mut fields: Vec<(String, $crate::json::Value)> = Vec::new();
        $crate::json_object!(@push fields; $($body)*);
        $crate::json::Value::Object(fields)
    }};
}

/// Field access on an object's association list by key.
pub trait ObjectExt {
    /// The field's value, if present.
    fn get(&self, key: &str) -> Option<&Value>;

    /// A required unsigned-integer field.
    fn get_u64(&self, key: &str) -> Result<u64, JsonError>;

    /// A required integer field (either sign).
    fn get_i64(&self, key: &str) -> Result<i64, JsonError>;

    /// A required numeric field, widened to `f64`.
    fn get_f64(&self, key: &str) -> Result<f64, JsonError>;

    /// A required string field.
    fn get_string(&self, key: &str) -> Result<&str, JsonError>;

    /// A required array field.
    fn get_array(&self, key: &str) -> Result<&Vec<Value>, JsonError>;

    /// A required object field.
    fn get_object(&self, key: &str) -> Result<&Vec<(String, Value)>, JsonError>;
}

fn missing(key: &str) -> JsonError {
    JsonError::new(format!("missing field {key:?}"))
}

impl ObjectExt for Vec<(String, Value)> {
    fn get(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_u64(key)
    }

    fn get_i64(&self, key: &str) -> Result<i64, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_i64(key)
    }

    fn get_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_f64(key)
    }

    fn get_string(&self, key: &str) -> Result<&str, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_string(key)
    }

    fn get_array(&self, key: &str) -> Result<&Vec<Value>, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_array(key)
    }

    fn get_object(&self, key: &str) -> Result<&Vec<(String, Value)>, JsonError> {
        self.get(key).ok_or_else(|| missing(key))?.as_object(key)
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    Parser::new(text).parse_document()
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// Formats a finite `f64` as a JSON number that reads back as a float:
/// Rust's shortest round-trip formatting, with `.0` appended to whole
/// numbers so `2.0` serializes as `2.0` rather than the integer `2`.
/// Deterministic — same value, same bytes. Non-finite values (which no
/// accounting identity can legitimately produce) serialize as `0.0`
/// rather than emitting invalid JSON.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_owned();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// per level, so the bound turns hostile input like `[[[[…` into an
/// error instead of a stack overflow; the workspace's documents nest a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse_document(mut self) -> Result<Value, JsonError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing garbage at byte {}",
                self.pos
            )));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| JsonError::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Consumes the keyword `word` (whose first byte is already peeked).
    fn expect_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "unrecognized keyword at byte {} (expected {word:?})",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::new(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'0'..=b'9' | b'-' => self.parse_number(),
            b't' => self.expect_keyword("true", Value::Bool(true)),
            b'f' => self.expect_keyword("false", Value::Bool(false)),
            b'n' => self.expect_keyword("null", Value::Null),
            other => Err(JsonError::new(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}', found {:?} at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']', found {:?} at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| JsonError::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // The workspace's writers never emit surrogate
                            // pairs (only control characters go through \u).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                b => {
                    // Reassemble multi-byte UTF-8 sequences: the input
                    // came from a &str, so continuation bytes are valid.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| JsonError::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| JsonError::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.bytes.get(p.pos).is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(JsonError::new(format!("malformed number at byte {start}")));
        }
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            fractional = true;
            self.pos += 1;
            if !digits(self) {
                return Err(JsonError::new("digits required after decimal point"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(JsonError::new("digits required in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        if fractional {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| JsonError::new(format!("bad float: {text}")))
        } else if negative {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| JsonError::new(format!("number out of range: {text}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| JsonError::new(format!("number out of range: {text}")))
        }
    }
}

/// Byte length of the UTF-8 sequence starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_value_zoo() {
        let v = parse(
            r#"{ "a": 1, "b": -2, "c": 2.5, "d": [true, false, null],
                 "e": "x\ny", "f": { "g": 1e3 } }"#,
        )
        .unwrap();
        let obj = v.as_object("root").unwrap();
        assert_eq!(obj.get_u64("a").unwrap(), 1);
        assert_eq!(obj.get_i64("b").unwrap(), -2);
        assert!((obj.get_f64("c").unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(
            obj.get_array("d").unwrap(),
            &vec![Value::Bool(true), Value::Bool(false), Value::Null]
        );
        assert_eq!(obj.get_string("e").unwrap(), "x\ny");
        assert!((obj.get_object("f").unwrap().get_f64("g").unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn integers_do_not_collapse_into_floats() {
        // The reason for three number variants: this survives exactly.
        let v = parse("18446744073709551614").unwrap();
        assert_eq!(v, Value::UInt(u64::MAX - 1));
        assert!(v.as_f64("v").is_ok(), "widening is allowed on request");
        // But a float never narrows silently into a counter.
        assert!(parse("2.5").unwrap().as_u64("v").is_err());
    }

    #[test]
    fn numeric_widening_accepts_integer_literals() {
        assert_eq!(parse("7").unwrap().as_f64("v").unwrap(), 7.0);
        assert_eq!(parse("-7").unwrap().as_f64("v").unwrap(), -7.0);
        assert_eq!(parse("7").unwrap().as_i64("v").unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "nul",
            "1.2.3",
            "-",
            "1e",
            "1.",
            "{\"a\": 1} extra",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[{\"a\":".repeat(100_000);
        assert!(parse(&deep).unwrap_err().message().contains("nesting"));
    }

    #[test]
    fn float_formatting_round_trips_and_is_canonical() {
        for v in [0.0, 2.0, -2.0, 2.5, 1.0 / 3.0, 1e-9, 123456789.125] {
            let s = fmt_f64(v);
            let back = parse(&s).unwrap().as_f64("v").unwrap();
            assert_eq!(back, v, "{s} must round-trip");
            assert!(s.contains(['.', 'e', 'E']), "{s} must read back as a float");
        }
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
        assert_eq!(fmt_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcødé";
        let s = escape_string(nasty);
        assert_eq!(parse(&s).unwrap().as_string("s").unwrap(), nasty);
    }

    #[test]
    fn display_has_one_fixed_layout() {
        let v = crate::json_object! {
            "name": "a\"b",
            "counts": crate::json_object! { "x": 1u64, "y": -2i64 },
            "hist": [1u64, 2, 3].into_iter().collect::<Value>(),
            "empty": Value::Array(Vec::new()),
            "rows": Value::Array(vec![crate::json_object! { "ok": true, "p": None::<f64> }]),
        };
        let expected = r#"{
  "name": "a\"b",
  "counts": { "x": 1, "y": -2 },
  "hist": [1, 2, 3],
  "empty": [],
  "rows": [
    { "ok": true, "p": null }
  ]
}"#;
        assert_eq!(v.to_string(), expected);
        assert_eq!(parse(expected).unwrap(), v);
        // Builders are canonical: what they build is what the text reads as.
        assert_eq!(Value::from(5i64), Value::UInt(5));
        assert_eq!(Value::rounded(1.0 / 3.0, 4), parse("0.3333").unwrap());
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let obj = v.as_object("root").unwrap();
        assert_eq!(obj[0].0, "z");
        assert_eq!(obj[1].0, "a");
    }
}
