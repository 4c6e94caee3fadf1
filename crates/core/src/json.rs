//! Minimal JSON tree, writer and parser.
//!
//! The workspace builds offline with no serialization framework, so
//! machine-readable output — the JSON-lines event sink, bench tables —
//! goes through this small self-contained module: a [`Json`] value
//! tree, a `Display`-based writer and a strict parser. JSON goes one way: the system renders records through
//! [`ToJson`] and never reads them back, so no record type has a
//! parser. [`Json::parse`] serves readers of foreign text (the
//! benchmark's result lines) and the golden tests, which pin each
//! record's text and check that it parses back to the same tree.

use std::fmt;

/// A JSON value.
///
/// Integers and floats are kept apart so `u64` counters render without a
/// fractional part and round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no exponent, no fraction).
    Int(i64),
    /// A floating-point number. Non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Types that can render themselves as a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl Json {
    /// An object from key/value pairs (helper for `ToJson` impls).
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A `u64` as a JSON number (saturates at `i64::MAX`, far beyond any
    /// counter this system produces).
    pub fn uint(v: u64) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float (accepts integer literals too).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: one value, no trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(JsonError {
                pos: p.pos,
                what: "trailing characters after value",
            });
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest representation that parses
                    // back to the same f64 (Ryu), so floats round-trip.
                    write!(f, "{x}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Object(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// A parse failure: byte offset plus a static description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Records nest
/// about four deep; the cap keeps hostile input from recursing the
/// parser off the end of its stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`, always on a `char` boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &'static str) -> JsonError {
        JsonError {
            pos: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // records; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or(self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Read the whole character that starts here.
                    self.pos -= 1;
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .ok_or(self.err("unterminated string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Digit strings beyond i64 (e.g. f64::MAX rendered without an
            // exponent) degrade to the nearest float, like serde_json's
            // arbitrary-precision fallback.
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Int(-42), "-42"),
            (Json::Str("a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.6, 1e-4, 2.5e17, -0.071428573, f64::MAX] {
            let s = Json::Float(x).to_string();
            assert_eq!(Json::parse(&s).unwrap().as_f64(), Some(x), "{s}");
        }
    }

    #[test]
    fn integral_floats_survive_via_as_f64() {
        // Float(1.0) prints as "1" and parses back as Int(1); as_f64
        // bridges the two representations.
        let s = Json::Float(1.0).to_string();
        assert_eq!(Json::parse(&s).unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj(vec![
            ("window", Json::uint(3)),
            (
                "suspects",
                Json::Array(vec![Json::obj(vec![
                    ("link", Json::uint(7)),
                    ("rate", Json::Float(0.25)),
                ])]),
            ),
            ("clean", Json::Bool(false)),
            ("note", Json::Null),
        ]);
        let s = v.to_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
        assert_eq!(
            s,
            r#"{"window":3,"suspects":[{"link":7,"rate":0.25}],"clean":false,"note":null}"#
        );
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"a":[1,2],"b":"x","c":0.5,"d":true}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"\\q\"", "\"x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        // Runs on a libtest thread (2 MB stack by default).
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{{\"a\":{at_cap}}}");
        assert_eq!(Json::parse(&past_cap).unwrap_err().what, "nesting too deep");
    }

    #[test]
    fn strings_decode_multi_byte_characters_and_every_escape() {
        let text = r#""αβ → \"q\" \\ \/ \n\r\t\b\f \u00e9\u0001 😀 end""#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Str("αβ → \"q\" \\ / \n\r\t\u{8}\u{c} é\u{1} 😀 end".into())
        );
        // Each character is read once, so a long string stays cheap.
        let long = format!("\"{}\"", "é".repeat(200_000));
        assert_eq!(
            Json::parse(&long).unwrap().as_str().map(str::len),
            Some(400_000)
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }
}
