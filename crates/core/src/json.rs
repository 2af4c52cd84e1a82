//! A minimal, dependency-free JSON representation shared by the workspace.
//!
//! The workspace takes no external dependencies, so the usual
//! `serde`/`serde_json` pair is unavailable. This module implements the small subset the workspace
//! needs: a [`Json`] value tree, a writer, and a strict recursive-descent
//! parser. Floats are written with Rust's shortest round-trip `Display`, so a
//! serialize → parse cycle reproduces bit-identical values.
//!
//! The parser is linear in its input and refuses nesting deeper than
//! [`MAX_DEPTH`] levels and numbers that overflow `f64`, so any line a
//! client sends is parsed in bounded stack and time. Rendering is
//! injective on parsed values: two parsed values render to the same text
//! only if they are equal, which lets callers key caches on the rendered
//! text. A [`RawJson`] holds a value rendered once; [`Json::Raw`] splices it
//! into a later render verbatim.
//!
//! It lives in `themis-core` (rather than the facade) so that core-level
//! artifacts — most importantly the serialized [`crate::ScheduleCache`] used
//! for cross-process campaign sharding — can read and write the same format
//! the facade uses for campaign reports. The facade re-exports it as
//! `themis::api::json`.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. Real
/// payloads nest at most 8 levels; the bound keeps the recursive descent
/// (and dropping, comparing or rendering the result) off the end of the
/// stack whatever a client sends.
pub const MAX_DEPTH: usize = 64;

/// A JSON serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub reason: String,
}

impl JsonError {
    /// Creates an error from a reason string.
    pub fn new(reason: impl Into<String>) -> Self {
        JsonError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.reason)
    }
}

impl Error for JsonError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
    /// A value rendered ahead of time, copied verbatim by [`Json::render`].
    /// [`Json::parse`] never produces it, and the accessors treat it as
    /// opaque: they answer a type error that names it.
    Raw(RawJson),
}

/// A [`Json`] value rendered once, to be spliced into later renders without
/// re-encoding it. Only rendering a `Json` builds one, so the text is always
/// valid JSON. Clones share the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(Arc<str>);

impl RawJson {
    /// Renders `value` once.
    pub fn new(value: &Json) -> Self {
        RawJson(value.render().into())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field, as a [`JsonError`] on absence.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        if let Json::Raw(_) = self {
            return Err(type_error("object", self));
        }
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_error("number", other)),
        }
    }

    /// The value as a non-negative integer no larger than 2^53, the largest
    /// integer up to which an `f64` holds every integer exactly. Negative,
    /// fractional and larger values are refused, not rounded or saturated.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        const MAX_EXACT: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > MAX_EXACT {
            return Err(JsonError::new(format!(
                "expected an integer between 0 and 2^53, got {n}"
            )));
        }
        Ok(n as u64)
    }

    /// The value as a non-negative integer, bounded as [`Json::as_u64`].
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_u64()?;
        usize::try_from(n).map_err(|_| JsonError::new(format!("integer {n} overflows usize")))
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_error("bool", other)),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // JSON has no NaN/inf; campaign data never produces them, but
                // degrade to null rather than emit unparseable text.
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(RawJson(text)) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing garbage, nesting
    /// deeper than [`MAX_DEPTH`], or a number outside the finite `f64` range.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err_at("trailing characters after JSON value", pos));
        }
        Ok(value)
    }
}

fn type_error(expected: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
        Json::Raw(_) => "pre-rendered value",
    };
    JsonError::new(format!("expected a {expected}, got {kind}"))
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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

fn err_at(message: &str, pos: usize) -> JsonError {
    JsonError::new(format!("{message} (byte {pos})"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err_at(&format!("expected `{}`", byte as char), *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err_at(
            &format!("nesting exceeds the {MAX_DEPTH}-level limit"),
            *pos,
        )),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err_at("unexpected character", *pos)),
        None => Err(err_at("unexpected end of input", *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(err_at(&format!("expected `{keyword}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err_at("invalid number", start))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(err_at(
            &format!("number `{text}` is out of the finite 64-bit float range"),
            start,
        )),
        Err(_) => Err(err_at(&format!("invalid number `{text}`"), start)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err_at("unterminated string", *pos)),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let ch = match code {
                            // High surrogate: external serializers (e.g.
                            // ensure-ascii JSON writers) encode non-BMP
                            // characters as a \uD8xx\uDCxx pair.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                    return Err(err_at("unpaired high surrogate", *pos));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(err_at("invalid low surrogate", *pos));
                                }
                                *pos += 6;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .expect("combined surrogate pair is a valid scalar")
                            }
                            0xDC00..=0xDFFF => {
                                return Err(err_at("unpaired low surrogate", *pos));
                            }
                            scalar => char::from_u32(scalar)
                                .ok_or_else(|| err_at("non-scalar \\u escape", *pos))?,
                        };
                        out.push(ch);
                    }
                    _ => return Err(err_at("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash. Both
                // are ASCII, so the run ends on a char boundary, and each
                // byte is validated once: parsing stays linear.
                let start = *pos;
                *pos = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| start + run);
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err_at("invalid UTF-8", start))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| err_at("truncated \\u escape", at))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err_at("invalid \\u escape", at))?;
    u32::from_str_radix(hex, 16).map_err(|_| err_at("invalid \\u escape", at))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err_at("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
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
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err_at("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn values_round_trip_through_text() {
        let value = Json::obj([
            ("name", Json::Str("Themis+SCF \"quoted\"\n".to_string())),
            ("total", Json::Num(123456.789012345)),
            ("count", Json::Num(64.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "pairs",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(0.0), Json::Num(0.1 + 0.2)]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = value.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, value);
        assert!(value.field("flag").unwrap().as_bool().unwrap());
        assert!(value.field("total").unwrap().as_bool().is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for n in [
            0.0,
            -1.5,
            1.0 / 3.0,
            6.02e23,
            f64::MIN_POSITIVE,
            123_456_789.123_456_78,
        ] {
            let text = Json::Num(n).render();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), n.to_bits(), "{n}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn surrogate_pairs_parse_to_non_bmp_chars() {
        // External ensure-ascii serializers encode non-BMP chars as pairs.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // The writer emits raw UTF-8 for the same character; both forms agree.
        let raw = Json::Str("\u{1F600}".to_string()).render();
        assert_eq!(
            Json::parse(&raw).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // Unpaired or mismatched surrogates are rejected.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83dx\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01x",
            "\"unterminated",
            "1 2",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn whitespace_and_escapes_are_tolerated() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(parsed.field("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            parsed.field("a").unwrap().as_arr().unwrap()[1]
                .as_str()
                .unwrap(),
            "A\n"
        );
    }

    #[test]
    fn accessors_report_type_mismatches() {
        let value = Json::parse("{\"n\": 1.5, \"s\": \"x\"}").unwrap();
        assert!(value.field("n").unwrap().as_usize().is_err());
        // Integers are exact up to 2^53; anything past it, negative or
        // fractional is refused with the value named, never rounded.
        let exact = Json::Num(9_007_199_254_740_992.0);
        assert_eq!(exact.as_u64().unwrap(), 1 << 53);
        assert_eq!(exact.as_usize().unwrap(), 1 << 53);
        for (bad, shown) in [
            (Json::Num(9_007_199_254_740_994.0), "9007199254740994"),
            (Json::Num(1e20), "100000000000000000000"),
            (Json::Num(-1.0), "-1"),
            (Json::Num(16_777_216.5), "16777216.5"),
        ] {
            for err in [bad.as_u64().unwrap_err(), bad.as_usize().unwrap_err()] {
                assert!(err.reason.contains(shown), "{}", err.reason);
            }
        }
        assert!(value.field("s").unwrap().as_f64().is_err());
        assert!(value.field("missing").is_err());
        assert!(value.get("s").unwrap().as_str().is_ok());
        assert!(!JsonError::new("boom").to_string().is_empty());
    }

    #[test]
    fn nesting_is_bounded_with_a_structured_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        for text in [nested(MAX_DEPTH + 1), nested(1_000_000)] {
            let reason = Json::parse(&text).unwrap_err().reason;
            assert!(reason.contains("64-level limit"), "{reason}");
            assert!(reason.contains(&format!("(byte {MAX_DEPTH})")), "{reason}");
        }
    }

    #[test]
    fn numbers_outside_the_finite_range_are_rejected() {
        for text in ["1e999", "-1e999", "[1e400]"] {
            let reason = Json::parse(text).unwrap_err().reason;
            assert!(reason.contains("out of the finite"), "{text}: {reason}");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn raw_values_render_verbatim_and_stay_opaque() {
        let cell = Json::obj([("x", Json::Num(0.1 + 0.2)), ("s", Json::Str("\"".into()))]);
        let spliced = Json::Arr(vec![Json::Raw(RawJson::new(&cell)), Json::Null]);
        let plain = Json::Arr(vec![cell, Json::Null]);
        assert_eq!(spliced.render(), plain.render());
        let raw = Json::Raw(RawJson::new(&Json::Num(1.0)));
        for err in [
            raw.as_f64().unwrap_err(),
            raw.as_arr().unwrap_err(),
            raw.field("x").unwrap_err(),
        ] {
            assert!(err.reason.contains("pre-rendered"), "{}", err.reason);
        }
        assert!(raw.get("x").is_none());
    }

    /// Best-of-5 wall times to parse `small` and `large` once each. Each
    /// sample of `small` parses it back to back until it has parsed as many
    /// bytes as `large`, then divides, so both samples span the same wall
    /// time and a shorter window cannot catch a luckier best. The two
    /// alternate, so a stretch of load on the host slows both alike.
    fn parse_times(small: &str, large: &str) -> (Duration, Duration) {
        let time = |text: &str, repeats: usize| {
            let started = Instant::now();
            for _ in 0..repeats {
                assert!(Json::parse(text).is_ok());
            }
            started.elapsed() / repeats as u32
        };
        let repeats = large.len().div_ceil(small.len());
        let mut best = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            best.0 = best.0.min(time(small, repeats));
            best.1 = best.1.min(time(large, 1));
        }
        best
    }

    #[test]
    fn string_parsing_is_linear_in_its_length() {
        const MIB: usize = 1 << 20;
        let plain = |len: usize| format!("\"{}\"", "x".repeat(len));
        // A `\n` escape every 4 bytes of input.
        let escaped = |len: usize| format!("\"{}\"", "ab\\n".repeat(len / 4));
        for (name, make) in [
            ("plain", &plain as &dyn Fn(usize) -> String),
            ("escape-heavy", &escaped),
        ] {
            let (small, large) = parse_times(&make(MIB), &make(4 * MIB));
            assert!(large.as_secs_f64() < 1.0, "{name}: 4 MiB took {large:?}");
            let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
            assert!(ratio <= 6.0, "{name}: 4 MiB / 1 MiB time ratio {ratio:.1}");
        }
    }
}
