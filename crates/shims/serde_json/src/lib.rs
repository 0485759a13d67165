//! Offline stand-in for `serde_json`.
//!
//! Renders and parses JSON against the [`serde`] shim's [`serde::Value`]
//! data model. Covers the workspace's needs: [`to_string`] / [`from_str`]
//! round-trips for result containers, rule export (JSONL), and report
//! snapshots.

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// JSON rendering/parsing error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// An error anchored at byte `pos` of the document, reported with
    /// the byte offset *and* the 1-based line/column so a truncated or
    /// corrupt document can be located without counting bytes by hand.
    fn at(msg: impl fmt::Display, bytes: &[u8], pos: usize) -> Self {
        let (line, column) = line_col(bytes, pos);
        Error(format!(
            "{msg} at byte {pos} (line {line}, column {column})"
        ))
    }
}

/// 1-based line/column of byte offset `pos` (clamped to the document).
fn line_col(bytes: &[u8], pos: usize) -> (usize, usize) {
    let upto = &bytes[..pos.min(bytes.len())];
    let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
    let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, column)
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Parses a JSON string into the generic [`Value`] tree.
///
/// Arrays and objects may nest at most 128 deep, real `serde_json`'s
/// recursion limit: the parser recurses once per level, so a deeper
/// document is an error rather than a stack overflow.
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(s, bytes, &mut pos, 128)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::at("trailing input", bytes, pos));
    }
    Ok(value)
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        // An integral value renders as `n as i64` would, digit by digit
        // into `out` (at most 16 digits below 9e15).
        let i = n as i64;
        if i < 0 {
            out.push('-');
        }
        let mut magnitude = i.unsigned_abs();
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        out.extend(digits[at..].iter().map(|&d| d as char));
    } else {
        // `{}` on f64 prints the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
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
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside which `depth` more arrays or
/// objects may open.
fn parse_value(s: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == 0 {
        return Err(Error::at("recursion limit exceeded", bytes, *pos));
    }
    match bytes.get(*pos) {
        None => Err(Error::at("unexpected end of input", bytes, *pos)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::String(parse_string(s, bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(s, bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::at("expected ',' or ']'", bytes, *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(s, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::at("expected ':'", bytes, *pos));
                }
                *pos += 1;
                let value = parse_value(s, bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::at("expected ',' or '}'", bytes, *pos)),
                }
            }
        }
        Some(_) => parse_number(s, bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error::at("invalid literal", bytes, *pos))
    }
}

fn parse_number(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    match parse_plain_integer(bytes, pos) {
        Some(n) => Ok(Value::Number(n)),
        None => parse_float(s, bytes, pos),
    }
}

/// Reads any number token through `str::parse::<f64>`: the token is the
/// longest run of digits, `.`, `e`, `E`, `+` and `-` (after an optional
/// leading `-`).
fn parse_float(s: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    s[start..*pos]
        .parse::<f64>()
        .map(Value::Number)
        .map_err(|e| Error::at(format!("invalid number ({e})"), bytes, start))
}

/// Reads a plain integer token at `pos` by accumulating its digits: an
/// optional `-`, then at most 15 digits with no leading zero, not
/// followed by `.`, `e`, `E`, `+` or `-`. Below 10^15 the sum is exact,
/// so it is the value `str::parse::<f64>` reads (`-0` included). Any
/// other token returns `None` with `pos` untouched.
fn parse_plain_integer(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let negative = bytes.get(*pos) == Some(&b'-');
    let first = *pos + usize::from(negative);
    let mut end = first;
    let mut n = 0u64;
    // A 16th digit already disqualifies the token; stop before it can
    // overflow anything.
    while end - first < 16 {
        match bytes.get(end) {
            Some(&d @ b'0'..=b'9') => n = n * 10 + u64::from(d - b'0'),
            _ => break,
        }
        end += 1;
    }
    let len = end - first;
    let plain = (1..=15).contains(&len)
        && (len == 1 || bytes[first] != b'0')
        && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    if !plain {
        return None;
    }
    *pos = end;
    let n = n as f64;
    Some(if negative { -n } else { n })
}

fn parse_string(s: &str, bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::at("expected string", bytes, *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::at("unterminated string", bytes, *pos)),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = s
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::at("truncated \\u escape", bytes, *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::at("invalid \\u escape", bytes, *pos))?;
                        // Surrogate pairs are not produced by the writer;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error::at("invalid escape", bytes, *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = &s[*pos..];
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| Error::at("bad utf8", bytes, *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_collections() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u32> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_nested_objects() {
        let v = parse(r#"{"a": [1, 2.5, null], "b": {"c": "x\ny"}}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(obj[0].1.as_array().unwrap()[1].as_f64(), Some(2.5));
        let inner = obj[1].1.as_object().unwrap();
        assert_eq!(inner[0].1.as_str(), Some("x\ny"));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n unicode ∅".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.1f64, 1.0, -2.5, 1e-9, 163.48] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back, x);
        }
    }

    /// Integral values at and around the digit writer's edges: zero of
    /// both signs, ±1, ±2^53, the last value below 9e15, values from 9e15
    /// up, and 15- and 16-digit magnitudes.
    const INTEGRAL_EDGES: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        8_999_999_999_999_999.0,
        -8_999_999_999_999_999.0,
        9e15,
        -9e15,
        1e20,
        999_999_999_999_999.0,
        -999_999_999_999_999.0,
        100_000_000_000_000.0,
        1_000_000_000_000_000.0,
        4_294_967_295.0,
    ];

    #[test]
    fn integers_render_as_their_formatted_i64() {
        for n in INTEGRAL_EDGES {
            let expected = if n.abs() < 9e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            assert_eq!(to_string(&n).unwrap(), expected, "{n:?}");
        }
        for n in (-1000..=1000).map(f64::from) {
            assert_eq!(to_string(&n).unwrap(), format!("{}", n as i64));
        }
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn integers_parse_to_the_bits_str_parse_reads() {
        for n in INTEGRAL_EDGES {
            let token = to_string(&n).unwrap();
            let parsed = parse(&token).unwrap().as_f64().unwrap();
            let expected = token.parse::<f64>().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "{token}");
        }
        for token in [
            "-0",
            "0",
            "123456789012345",
            "1234567890123456",
            "-999999999999999",
        ] {
            let parsed = parse(token).unwrap().as_f64().unwrap();
            let expected = token.parse::<f64>().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "{token}");
        }
    }

    #[test]
    fn number_tokens_read_as_the_float_path_reads_them() {
        // Each token through the number parser, against the float path
        // alone (the parser before plain integers were accumulated):
        // the same value bits or the same error, at the same position.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = (0..2000)
            .map(|i: u32| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let digits = 1 + i % 17;
                let magnitude = (state >> 1) % 10u64.pow(digits);
                let sign = if state & 1 == 1 { "-" } else { "" };
                format!("{sign}{magnitude}")
            })
            .collect::<Vec<_>>();
        random.extend(
            [
                "01",
                "-",
                "-0",
                "1.5",
                "1e3",
                "1-2",
                "1.2.3",
                "-01",
                "1E3",
                "1+2",
                "0.5",
                "-x",
                "7,",
                "42]",
                "0012",
                "12345678901234567890",
            ]
            .map(String::from),
        );
        for token in &random {
            let token = token.as_str();
            let bytes = token.as_bytes();
            let (mut fast_pos, mut slow_pos) = (0, 0);
            let fast = parse_number(token, bytes, &mut fast_pos);
            let slow = parse_float(token, bytes, &mut slow_pos);
            match (fast, slow) {
                (Ok(Value::Number(a)), Ok(Value::Number(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{token}");
                    assert_eq!(fast_pos, slow_pos, "{token}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{token}"),
                (a, b) => panic!("{token}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(parse("01").unwrap().as_f64(), Some(1.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            parse("-0").unwrap().as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        for token in ["-", "1-2", "1.2.3"] {
            assert_eq!(
                parse(token).unwrap_err().to_string(),
                "invalid number (invalid float literal) at byte 0 (line 1, column 1)",
                "{token}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
    }

    #[test]
    fn truncated_document_reports_byte_and_line() {
        // Truncated mid-array on one line: the error names the exact
        // byte where the document ended and its line/column.
        let err = parse(r#"{"a": [1, 2"#).unwrap_err().to_string();
        assert_eq!(err, "expected ',' or ']' at byte 11 (line 1, column 12)");

        // Truncated after a newline: the line counter advances.
        let err = parse("[1,\n2,\n").unwrap_err().to_string();
        assert_eq!(err, "unexpected end of input at byte 7 (line 3, column 1)");

        // A string torn mid-way is positioned too.
        let err = parse("{\"a\": \"unterminated").unwrap_err().to_string();
        assert_eq!(err, "unterminated string at byte 19 (line 1, column 20)");
    }

    #[test]
    fn nesting_stops_at_depth_128_with_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(128)).is_ok());
        let objects = format!("{}{{}}{}", r#"{"a":"#.repeat(127), "}".repeat(127));
        assert!(parse(&objects).is_ok());
        let err = parse(&nested(129)).unwrap_err().to_string();
        assert_eq!(
            err,
            "recursion limit exceeded at byte 128 (line 1, column 129)"
        );
        // An unterminated million-deep document fails at the same depth,
        // without recursing any further.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err().to_string();
        assert!(
            err.starts_with("recursion limit exceeded at byte 128"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_documents_report_positions() {
        for (doc, needle) in [
            ("[1, 2] trailing", "trailing input at byte 7"),
            ("nul", "invalid literal at byte 0"),
            ("[1, 1.2.3]", "invalid number"),
            ("{3: 4}", "expected string at byte 1"),
            ("{\"a\" 4}", "expected ':' at byte 5"),
            ("{\"a\": 4 \"b\"}", "expected ',' or '}' at byte 8"),
            ("\"bad \\q escape\"", "invalid escape at byte 6"),
            ("\"half \\u00", "truncated \\u escape at byte 7"),
        ] {
            let err = parse(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{doc:?}: {err}");
            assert!(err.contains("line 1"), "{doc:?}: {err}");
        }
    }
}
