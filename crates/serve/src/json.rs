//! A minimal JSON reader/writer for the request and response bodies.
//!
//! The workspace has no serde (the build environment is offline), and
//! the service's payloads are tiny objects of strings, booleans, and
//! small integers — so this module hand-rolls exactly that subset of
//! RFC 8259: full string escapes (including `\uXXXX` with surrogate
//! pairs), numbers, booleans, null, arrays, and objects, with a depth
//! bound so an adversarial body cannot recurse the parser to death.
//! Input size is already bounded upstream by the HTTP body cap.

use std::collections::BTreeMap;

/// Nesting bound for arrays/objects: deeper input is rejected. The
/// service's own payloads nest three levels at most.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the service only uses small non-negative
    /// integers, but the parser accepts the full grammar).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`) so renderings are
    /// deterministic; duplicate keys keep the last occurrence.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this value is a non-negative
    /// integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object payload, if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array payload, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A parse failure: a message and the byte offset it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `src` as a single JSON value (trailing garbage is an error).
///
/// # Errors
///
/// [`JsonError`] with a byte offset on any grammar violation, non-UTF-8
/// escape, or nesting deeper than the fixed bound.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nests too deeply"));
        }
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.eat("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Writes `s` as a JSON string literal (with quotes) onto `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    xnf_obs::escape_json(out, s);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_service_request_shape() {
        let v = parse(r#"{"dtd": "<!ELEMENT a (b)>", "stats": true, "threads": 4}"#)
            .expect("valid object");
        assert_eq!(
            v.get("dtd").and_then(Json::as_str),
            Some("<!ELEMENT a (b)>")
        );
        assert_eq!(v.get("stats").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let mut lit = String::new();
        write_str(&mut lit, "a\"b\\c\nd\te\u{1}f — π");
        let back = parse(&lit).expect("rendered literal parses");
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}f — π"));
        // Surrogate-pair escape decodes to one scalar.
        let v = parse(r#""\ud83d\ude00""#).expect("surrogate pair");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "tru",
            "1 2",
            "nul",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Depth bound: 40 nested arrays exceed MAX_DEPTH.
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        let e = parse(&deep).expect_err("too deep");
        assert!(e.message.contains("deeply"), "{e}");
    }

    #[test]
    fn numbers_cover_the_grammar() {
        assert_eq!(parse("-0.5e2").ok(), Some(Json::Num(-50.0)));
        assert_eq!(
            parse("18446744073709551615").expect("u64 max").as_u64(),
            None
        );
        assert_eq!(parse("7").expect("small int").as_u64(), Some(7));
        assert_eq!(parse("-1").expect("negative").as_u64(), None);
        assert_eq!(parse("1.5").expect("fractional").as_u64(), None);
    }
}
