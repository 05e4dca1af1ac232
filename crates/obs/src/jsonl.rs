//! Minimal JSON encoding and parsing for the event stream.
//!
//! The workspace has no serde, so the event stream is hand-encoded
//! ([`crate::Event::to_json`]) and this module supplies the matching
//! decoder: enough of JSON to parse what we emit plus a validator the
//! smoke check and CI use to assert the stream is well-formed. It is a
//! strict-enough recursive-descent parser (objects, arrays, strings
//! with escapes, non-negative integers, floats, bools, null) — not a
//! general-purpose JSON library.

use std::collections::BTreeMap;

/// Escapes a string for inclusion inside JSON quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; exact for the u64s we emit below
    /// 2^53, which covers every counter the simulator can reach).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with string keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup; `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to span the whole input.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

/// Validates one line of the event stream: a JSON object carrying a
/// numeric `seq` and a string `kind`.
///
/// # Errors
///
/// Returns a description of the violated constraint.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let v = parse(line)?;
    if !matches!(v, Json::Obj(_)) {
        return Err("event line is not a JSON object".to_string());
    }
    v.get("seq")
        .and_then(Json::as_u64)
        .ok_or("missing numeric \"seq\"")?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string \"kind\"")?;
    if kind.is_empty() {
        return Err("empty \"kind\"".to_string());
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
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
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar; the input came from &str so
                // boundaries are valid.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        m.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_objects_arrays_and_scalars() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n\"y\""],"c":-2.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("c"), Some(&Json::Num(-2.5)));
        let Some(Json::Arr(items)) = v.get("b") else {
            panic!("b must be an array");
        };
        assert_eq!(items[0], Json::Bool(true));
        assert_eq!(items[1], Json::Null);
        assert_eq!(items[2], Json::Str("x\n\"y\"".to_string()));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f — λ";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn event_line_validation_checks_envelope() {
        assert!(validate_event_line(r#"{"seq":0,"kind":"race"}"#).is_ok());
        assert!(validate_event_line(r#"{"kind":"race"}"#).is_err());
        assert!(validate_event_line(r#"{"seq":0}"#).is_err());
        assert!(validate_event_line(r#"{"seq":0,"kind":""}"#).is_err());
        assert!(validate_event_line(r#"[1,2]"#).is_err());
    }
}
