//! A minimal JSON value type, writer and parser — just the subset the
//! workspace's hand-rolled machine-readable formats need.
//!
//! The build environment is offline, so nothing here may depend on an
//! external crate. Three consumers share this module: the benchmark
//! reports (`dca-bench`, schema `dca-bench/1`), the benchmark diffs
//! (`dca-benchdiff/1`), and the persistent verdict cache (`dca-core`,
//! schema `dca-cache/1`). Keeping the one parser here means a
//! malformed-input fix lands in every consumer at once.

use crate::trace::json_escape;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (held as f64; all workspace schemas fit losslessly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Serializes the value as valid JSON. JSON has no representation for
/// non-finite numbers — emitting them raw (`inf`, `NaN`) would corrupt
/// the document — so they degrade to `null`, the same convention the
/// trace-event writer uses.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{}\": {v}", json_escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        // An overflowing literal like `1e999` parses to infinity; accepting
        // it would smuggle a non-finite value past the writer's guard.
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // An escape-free run is copied whole, up to the next quote
                // or backslash: a document parsed from a `str` splits into
                // such runs at character boundaries.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| matches!(c, b'"' | b'\\'))
                    .map_or(b.len(), |n| *pos + n);
                let run =
                    std::str::from_utf8(&b[*pos..end]).map_err(|_| "invalid UTF-8".to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_guards_non_finite_numbers() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        // A document holding non-finite numbers still serializes to
        // valid, parseable JSON.
        let doc = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(1.0),
            Json::Str("q\"x".to_string()),
        ]);
        let back = parse_json(&doc.to_string()).expect("writer output must parse");
        assert_eq!(
            back,
            Json::Arr(vec![
                Json::Null,
                Json::Num(1.0),
                Json::Str("q\"x".to_string())
            ])
        );
        // And the parser refuses to manufacture one from an overflowing
        // literal.
        assert!(parse_json("1e999").is_err());
    }

    #[test]
    fn json_writer_round_trips_structures() {
        let text = r#"{"a": [1, 2.5, {"b": "q\"\nA"}], "c": null, "d": true}"#;
        let v = parse_json(text).expect("parse");
        let again = parse_json(&v.to_string()).expect("reparse");
        assert_eq!(v, again);
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v =
            parse_json(r#"{"a": [1, 2.5, {"b": "q\"\nA"}], "c": null, "d": true}"#).expect("parse");
        let obj = v.as_object().expect("object");
        let arr = obj["a"].as_array().expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::Num(2.5));
        let inner = arr[2].as_object().expect("object");
        assert_eq!(inner["b"].as_str(), Some("q\"\nA"));
        assert_eq!(obj["c"], Json::Null);
        assert_eq!(obj["d"], Json::Bool(true));
        assert_eq!(obj["d"].as_bool(), Some(true));
        assert_eq!(obj["c"].as_bool(), None);
        assert_eq!(arr[0].as_bool(), None);
    }

    #[test]
    fn strings_keep_escapes_and_multi_byte_text() {
        let text = r#"["plain", "q\"\\\/\n\t\r\b\f!", "\u0041\u00e9\u263a\ud800", "héllo ✓ 𝄞", "a\nb ✓\u0021c", ""]"#;
        let v = parse_json(text).expect("parse");
        let strs: Vec<&str> = v
            .as_array()
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string"))
            .collect();
        assert_eq!(
            strs,
            [
                "plain",
                "q\"\\/\n\t\r\u{8}\u{c}!",
                "Aé☺\u{fffd}",
                "héllo ✓ 𝄞",
                "a\nb ✓!c",
                ""
            ]
        );
        assert_eq!(parse_json(&v.to_string()).expect("reparse"), v);
    }

    #[test]
    fn string_errors_are_unchanged() {
        for (text, err) in [
            (r#""open"#, "unterminated string"),
            (r#""ab\"#, "unterminated escape"),
            (r#""ab\q""#, "unknown escape at byte 4"),
            (r#""\u12"#, "truncated \\u escape"),
            (r#""\u123é""#, "truncated \\u escape"),
            (r#""\uzzzz""#, "bad \\u escape"),
            (r#""✓"#, "unterminated string"),
        ] {
            assert_eq!(parse_json(text), Err(err.to_string()), "{text}");
        }
    }

    #[test]
    fn parser_rejects_truncations_without_panicking() {
        let full = r#"{"a": [1, {"b": "x"}], "n": 1.5}"#;
        for cut in 0..full.len() {
            let _ = parse_json(&full[..cut]);
        }
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("\"open").is_err());
    }
}
