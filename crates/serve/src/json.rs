//! A tiny JSON parser and string escaper for the serving endpoints.
//!
//! The workspace has no JSON library, so the wire format is handled by
//! hand: this module parses the small, flat payloads the ingest endpoint
//! accepts and escapes strings on the way out.
//! Nesting is bounded (64 levels), so no body can recurse the parser off a
//! worker's stack.

/// The deepest array/object nesting [`Json::parse`] accepts. The server's
/// own payloads nest at most 4 deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage and nesting
    /// deeper than 64 arrays/objects are errors).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
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

/// Formats a float as JSON (finite values only; non-finite become `null`,
/// which JSON cannot represent as a number).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected {token:?} at offset {pos}"))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not supported; reject rather
                        // than silently corrupt.
                        let c = char::from_u32(code).ok_or("surrogate \\u escape")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // The run of characters up to the next quote or backslash,
                // in one step. Both are ASCII, so the run ends on a
                // character boundary, and the input is a &str, so the run
                // is valid UTF-8; checking it costs its own length only.
                let rest = &bytes[*pos..];
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at offset {start}"));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_ingest_payload_shape() {
        let doc = r#"{"batches":[{"time":900,"readings":[1.5,null,-2e-3]}]}"#;
        let json = Json::parse(doc).unwrap();
        let batches = json.get("batches").unwrap().as_arr().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].get("time").unwrap().as_u64(), Some(900));
        let readings = batches[0].get("readings").unwrap().as_arr().unwrap();
        assert_eq!(readings[0].as_f64(), Some(1.5));
        assert_eq!(readings[1], Json::Null);
        assert_eq!(readings[2].as_f64(), Some(-0.002));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let json = Json::parse(r#""a\"b\\c\nd""#).unwrap();
        assert_eq!(json.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Over 4 MiB of one-, two-, three- and four-byte characters, two
        // escapes after every 1,200: a parse that rescans the rest of the
        // body per character takes minutes on this.
        let piece = "plain é € 𝄞 ".repeat(100);
        let original = format!("{piece}\n\"").repeat(2400);
        let doc = escape(&original);
        assert!(doc.len() > 4 << 20);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
        assert!(Json::parse(&doc[..doc.len() - 1]).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, leaf: &str, close: &str, times: usize| {
            open.repeat(times) + leaf + &close.repeat(times)
        };
        for (open, leaf, close, per_level) in [
            ("[", "", "]", 1),
            ("{\"a\":", "1", "}", 1),
            ("{\"a\":[", "", "]}", 2),
        ] {
            let levels = MAX_DEPTH / per_level;
            assert!(Json::parse(&nested(open, leaf, close, levels)).is_ok());
            assert!(Json::parse(&nested(open, leaf, close, levels + 1)).is_err());
        }
        // Far past any stack: rejected at the bound, not recursed into.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nwith \"quotes\" and \\slashes\\ \t end";
        let parsed = Json::parse(&escape(original)).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn num_formats_finite_and_guards_nonfinite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
