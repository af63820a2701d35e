//! A minimal recursive-descent JSON parser for validating benchmark output.
//!
//! The vendored `serde_json` stub is serialize-only, so the repo cannot
//! round-trip its own reports through it. This module supplies the read
//! side: just enough JSON (objects, arrays, strings with escapes, numbers,
//! booleans, null) to let `kernels --validate` and `scripts/ci.sh` check
//! report *structure* — required keys, element counts, value ranges —
//! instead of grepping for substrings.
//!
//! Numbers are parsed as `f64` (every value our writers emit fits), object
//! keys keep insertion order, and all errors carry a byte offset.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Parses exactly one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns `"<what> at byte <offset>"` on the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { src: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing data after the top-level value")),
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        for &b in word.as_bytes() {
            if self.bump() != Some(b) {
                return Err(self.err(&format!("invalid literal (expected `{word}`)")));
            }
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(members)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    let mut buf = vec![b];
                    while buf.len() < 4 && String::from_utf8(buf.clone()).is_err() {
                        match self.bump() {
                            Some(nb) => buf.push(nb),
                            None => return Err(self.err("truncated UTF-8 sequence")),
                        }
                    }
                    match String::from_utf8(buf) {
                        Ok(s) => out.push_str(&s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b) => (b as char).to_digit(16),
                None => None,
            };
            match d {
                Some(d) => code = code * 16 + d,
                None => return Err(self.err("invalid \\u escape")),
            }
        }
        // Surrogates (emitted only for astral chars, which our writers don't
        // produce) decode to the replacement character rather than erroring.
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self.src.get(start..self.pos).unwrap_or(&[]);
        std::str::from_utf8(text)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_report_shape() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x", "d": true}, "e": null}"#)
            .expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(Json::as_array).and_then(|a| a.get(2)).and_then(Json::as_f64),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\n\"b\"A""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\"b\"A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "\"unterminated",
            "{} trailing",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrips_own_serializer_output() {
        // The writer in vendor/serde_json must produce documents this
        // parser accepts (newlines in pretty mode, nested maps, floats).
        #[derive(serde::Serialize)]
        struct S {
            name: String,
            xs: Vec<f64>,
            flag: bool,
        }
        let s = S { name: "kernels \"smoke\"".to_string(), xs: vec![1.0, 0.5], flag: false };
        let text = serde_json::to_string_pretty(&s).expect("serializes");
        let v = parse(&text).expect("parses own serializer output");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("kernels \"smoke\""));
        assert_eq!(v.get("flag"), Some(&Json::Bool(false)));
    }

    #[test]
    fn unicode_content_survives() {
        let v = parse("{\"s\": \"Â²—δ\"}").expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("Â²—δ"));
    }
}
