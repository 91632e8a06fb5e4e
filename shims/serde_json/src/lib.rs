//! Offline stand-in for `serde_json`: renders and parses the serde
//! shim's [`Value`] tree as JSON text.
//!
//! Numbers are carried as `f64` (every integer the workspace serializes —
//! ids, microsecond timestamps, tensor shapes — is far below 2^53, and
//! `f32` payloads round-trip exactly through `f64`). Integral numbers are
//! emitted without a fractional part so the output looks like ordinary
//! JSON.
//!
//! The printers borrow a [`Value`] ([`serde::Serialize::as_value`]) and
//! write straight into the output `String`: printing a tree costs only
//! that buffer's growth — no copy of the tree, no per-node indentation
//! or number-formatting temporaries.

use std::fmt::Write as _;

pub use serde::{Error, Value};

/// Serializes a value to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out)?;
    Ok(out)
}

/// Serializes a value to JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serializes a value to a two-space-indented JSON string (real
/// serde_json's `to_string_pretty`; like the real one, no trailing
/// newline) — for documents meant to be read, like `ctlm-lab` reports.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.as_value(), 0, &mut out)?;
    Ok(out)
}

/// A newline and then `depth` two-space indents.
fn newline_indent(depth: usize, out: &mut String) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_value_pretty(v: &Value, depth: usize, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(depth + 1, out);
                write_value_pretty(item, depth + 1, out)?;
            }
            newline_indent(depth, out);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(depth + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(val, depth + 1, out)?;
            }
            newline_indent(depth, out);
            out.push('}');
        }
        leaf => write_value(leaf, out)?,
    }
    Ok(())
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(e.to_string()))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like syntax (array/object literals plus
/// arbitrary serializable leaf expressions).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::json!($val)) ),* ])
    };
    ($other:expr) => { $crate::__to_value(&$other) };
}

/// Implementation detail of [`json!`].
pub fn __to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            // JSON has no NaN/Infinity; erroring here (like real
            // serde_json) beats writing a document no parser accepts.
            if !n.is_finite() {
                return Err(Error::msg(format!(
                    "cannot serialize non-finite number {n}"
                )));
            }
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                write_int(*n as i64, out);
            } else {
                write!(out, "{n}").expect("string write");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

/// An integer in decimal, without going through `fmt`.
fn write_int(n: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut pos = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        pos -= 1;
        digits[pos] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[pos..]).expect("ASCII digits"));
}

/// A quoted, escaped string. Runs with nothing to escape are pushed
/// whole; every escaped byte is ASCII, so the run bounds are char
/// boundaries.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or ] at byte {}, got {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or }} at byte {}, got {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error::msg(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error::msg(e.to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run with nothing to unescape, copied whole. It
                    // ends at an ASCII byte, so it is whole characters.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| Error::msg(e.to_string()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::msg(e.to_string()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| Error::msg(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let v = json!({
            "name": "cell-c",
            "ids": [1, 2, 3],
            "nested": {"ok": true, "none": null},
            "f": 0.25
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_escapes_and_negatives() {
        let v: Value = from_str(r#"{"s":"a\"b\ncA","n":-12.5e2}"#).unwrap();
        assert_eq!(v["s"], Value::Str("a\"b\nc\u{41}".into()));
        assert_eq!(v["n"], Value::Num(-1250.0));
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(
            to_string(&json!([1, 2.5, 1000000000000u64])).unwrap(),
            "[1,2.5,1000000000000]"
        );
    }

    #[test]
    fn f32_payloads_roundtrip_exactly() {
        let xs = vec![0.1f32, -3.75, 1.0e-7, 123456.78];
        let text = to_string(&xs).unwrap();
        let back: Vec<f32> = from_str(&text).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn parses_a_long_string_in_one_pass() {
        // Decoding once re-validated the rest of the document per
        // character: quadratic, so this 3 MB string never finished.
        let long = "é✓x".repeat(1 << 19);
        let back: Value = from_str(&to_string(&long).unwrap()).unwrap();
        assert_eq!(back.as_str(), Some(long.as_str()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("{} x").is_err());
    }

    #[test]
    fn pretty_output_roundtrips_and_indents() {
        let v = json!({"a": [1, 2], "b": {"c": null}, "empty": []});
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \"empty\": []\n}"
        );
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    /// Every case the writer special-cases: escapes, non-ASCII, signed
    /// and negative-zero integers, both sides of the 9e15 integer
    /// cut-off, fractions, empty containers.
    fn writer_cases() -> Value {
        json!({
            "k\"ey": "q\"b\\n\nc\u{1}\t\r\u{1f}",
            "utf8": "héllo ✓ 日本",
            "ints": [(-42), 0, (-0.0f64)],
            "big": [8.99e15, 9.1e15],
            "frac": [0.5, (-2.25), 1e-7],
            "empty": {"a": [], "o": {}}
        })
    }

    #[test]
    fn compact_text_is_pinned() {
        assert_eq!(
            to_string(&writer_cases()).unwrap(),
            r#"{"k\"ey":"q\"b\\n\nc\u0001\t\r\u001f","utf8":"héllo ✓ 日本","ints":[-42,0,0],"big":[8990000000000000,9100000000000000],"frac":[0.5,-2.25,0.0000001],"empty":{"a":[],"o":{}}}"#
        );
    }

    #[test]
    fn pretty_text_is_pinned() {
        let pretty = to_string_pretty(&writer_cases()).unwrap();
        assert_eq!(
            pretty,
            r#"{
  "k\"ey": "q\"b\\n\nc\u0001\t\r\u001f",
  "utf8": "héllo ✓ 日本",
  "ints": [
    -42,
    0,
    0
  ],
  "big": [
    8990000000000000,
    9100000000000000
  ],
  "frac": [
    0.5,
    -2.25,
    0.0000001
  ],
  "empty": {
    "a": [],
    "o": {}
  }
}"#
        );
        assert_eq!(from_str::<Value>(&pretty).unwrap(), writer_cases());
    }

    #[test]
    fn rejects_non_finite_numbers_at_serialization() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&vec![1.0f64, f64::INFINITY]).is_err());
    }

    #[test]
    fn integer_deserialization_rejects_out_of_range() {
        assert!(from_str::<Vec<u8>>("[300]").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<i32>("1.5").is_err());
        assert_eq!(from_str::<Vec<u8>>("[255, 0]").unwrap(), vec![255, 0]);
    }
}
