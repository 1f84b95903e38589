//! A small self-contained JSON tree: parse, build, and pretty-print
//! [`Value`]s without touching the network-fetched `serde_json` stack.
//!
//! The engine and scenario layers persist their specs and reports as
//! JSON artifacts through the [`crate::ToJson`] / [`crate::FromJson`]
//! traits, which convert to and from this [`Value`] type. The grammar
//! covered is exactly what those artifacts need: objects with string
//! keys, arrays, strings with the standard escapes, finite numbers,
//! booleans, and null.
//!
//! The parser reads untrusted request bodies, so it is bounded: arrays
//! and objects nest at most [`MAX_DEPTH`] levels, and a number that
//! overflows `f64` is an error rather than an infinity. Both are
//! ordinary [`Error`]s, never a panic or a stack overflow.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so
/// the cap is what keeps a body of a million `[` from overflowing the
/// parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is preserved (insertion order), which keeps
    /// serialized artifacts stable and diffable.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, so the comparison must be
        // strict — otherwise 2^64 would pass and saturate on the cast.
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a vector of numbers, if it is an array of numbers.
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Value::as_f64).collect()
    }

    /// The value as a vector of `usize`, if it is an array of
    /// non-negative integral numbers.
    pub fn as_usize_vec(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(Value::as_usize).collect()
    }

    /// The value as the object's key/value pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes compactly into bytes (e.g. an HTTP response body).
    pub fn to_body_bytes(&self) -> Vec<u8> {
        self.to_compact_string().into_bytes()
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => out.push_str(&format_number(*x)),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Formats a finite number; integral values print without a trailing
/// `.0` so integers round-trip textually.
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; clamp to null-adjacent sentinel.
        return "null".to_string();
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        // `{:?}` is the shortest representation that round-trips f64.
        format!("{x:?}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
}

/// A JSON parse or conversion error, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input (parse errors only).
    pub offset: usize,
}

impl Error {
    /// A conversion (non-positional) error.
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Parses a JSON document from raw bytes (e.g. an HTTP request body).
///
/// The body must be UTF-8; invalid encoding is reported as a parse
/// error at the offending byte rather than a panic, so servers can map
/// it to a 400 response.
pub fn parse_bytes(input: &[u8]) -> Result<Value, Error> {
    let text = std::str::from_utf8(input).map_err(|e| Error {
        message: "body is not valid UTF-8".into(),
        offset: e.valid_up_to(),
    })?;
    parse(text)
}

/// Parses a JSON document (must consume the whole input up to trailing
/// whitespace).
pub fn parse(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error {
            message: "trailing characters after document".into(),
            offset: pos,
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err_at(pos: usize, message: impl Into<String>) -> Error {
    Error {
        message: message.into(),
        offset: pos,
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err_at(*pos, format!("expected '{}'", b as char)))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err_at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err_at(
            *pos,
            format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err_at(*pos, format!("expected '{lit}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Num(x)),
        Ok(_) => Err(err_at(start, format!("number '{text}' overflows f64"))),
        Err(_) => Err(err_at(start, format!("invalid number '{text}'"))),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err_at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err_at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err_at(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err_at(*pos, "invalid \\u escape"))?;
                        // Surrogates are not paired up (the writer never
                        // emits them); map them to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err_at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).expect("valid utf8 tail");
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Parses an array at nesting level `depth` (counting itself).
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err_at(*pos, "expected ',' or ']'")),
        }
    }
}

/// Parses an object at nesting level `depth` (counting itself).
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            _ => return Err(err_at(*pos, "expected ',' or '}'")),
        }
    }
}

/// Convenience builder for object values: `obj([("k", v), ...])`.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null", "true", "false", "0", "-3", "2.5", "\"hi\"", "[]", "{}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_compact_string(), text, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let v = obj([
            ("name", Value::Str("fig3".into())),
            (
                "taus",
                Value::Arr(vec![Value::Num(0.1), Value::Num(0.5), Value::Num(0.9)]),
            ),
            ("quick", Value::Bool(false)),
            ("nested", obj([("k", Value::Num(5.0))])),
        ]);
        let compact = v.to_compact_string();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.to_pretty_string();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse(&v.to_compact_string()).unwrap(), v);
    }

    #[test]
    fn accessors_work() {
        let v = parse(r#"{"a": 3, "b": [1, 2], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_usize), Some(3));
        assert_eq!(
            v.get("b").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(2.5).as_u64(), None);
        // 2^64 must not saturate into range.
        assert_eq!(Value::Num((u64::MAX as f64) * 2.0).as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn byte_bodies_round_trip() {
        let v = obj([
            ("solver", Value::Str("Greedy".into())),
            ("k", Value::Num(5.0)),
        ]);
        let body = v.to_body_bytes();
        assert_eq!(parse_bytes(&body).unwrap(), v);
        assert_eq!(v.as_obj().map(<[_]>::len), Some(2));
        assert_eq!(Value::Num(1.0).as_obj(), None);
        // Invalid UTF-8 is a positioned parse error, not a panic.
        let err = parse_bytes(&[b'"', 0xFF, b'"']).unwrap_err();
        assert!(err.message.contains("UTF-8"));
        assert_eq!(err.offset, 1);
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let objects = |d: usize| "{\"a\":".repeat(d) + "1" + &"}".repeat(d);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for doc in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).unwrap_err();
            assert!(err.message.contains("nest deeper"), "{err}");
        }
        // A megabyte of `[` is rejected at the first level past the cap
        // instead of recursing a million frames deep.
        let err = parse_bytes(&vec![b'['; 1_000_000]).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn numbers_overflowing_f64_are_errors() {
        for text in ["1e999", "-1e999", "[1, 1e400]", "{\"tau\": 1e999}"] {
            let err = parse(text).unwrap_err();
            assert!(err.message.contains("overflows"), "{text}: {err}");
        }
        // Large but finite values and underflow to zero still parse.
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn float_precision_round_trips() {
        let v = Value::Num(0.1 + 0.2);
        let back = parse(&v.to_compact_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }
}
