//! The workspace's one JSON layer: a strict parser and a compact
//! renderer over one [`Json`] value, both dependency-free.
//!
//! Every JSON document the toolchain writes is a [`Json`] value
//! rendered in the house style: `{"k": v, "k2": v2}` and `[a, b]` on
//! one line, strings escaped by [`escape`], and a [`Json::Num`] printed
//! verbatim, so a `{:.4}` float or a `u64` keeps its emitter's text.
//! Everything read back goes through [`parse`], which is **total** (any
//! input yields a value or a [`JsonError`], never a panic; nesting is
//! capped at [`MAX_DEPTH`]) and strict:
//!
//! * **Duplicate keys are an error.** `{"pes": 1, "pes": 64000}`
//!   is a smuggling vector (which one did the quota check see?), so
//!   it is rejected outright instead of last-one-wins.
//! * **Numbers keep their raw text.** A `u64` seed round-trips
//!   exactly; nothing is forced through `f64`.
//! * **Exactly one value per document.** Trailing non-whitespace is
//!   an error, so a truncated or concatenated record never parses.

use std::fmt;

/// Nesting cap: arrays/objects deeper than this are rejected (a
/// 10 kB body of `[[[[…` must not recurse 5 000 frames).
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object fields keep their textual order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw text (see [`Json::as_u64`] etc.).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in field order. Keys are unique (duplicates are a
    /// parse error).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for missing fields or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse the raw number as `u64` (exact; no float round-trip).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Parse the raw number as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64()?.try_into().ok()
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An empty object, to fill with [`Json::with`] / [`Json::push`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// A number printed from `n`'s `Display` text, which must be a JSON
    /// number (an integer, or a `{:.N}`-formatted finite float).
    pub fn num(n: impl fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// Append `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object — a bug in the emitter.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// [`Json::push`] by value, to build an object in one expression.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Append the rendering to `out` (the [`Display`](fmt::Display)
    /// impl's body; one buffer for the whole tree).
    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    push_quoted(out, key);
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::num(n)
            }
        }
    )*};
}
from_integer!(u32, u64, u128, usize);

/// The compact renderer: `{"k": v, "k2": v2}`, `[a, b]`, escaped
/// strings, raw number text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render_into(&mut out);
        f.write_str(&out)
    }
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Append `s` with quotes, backslashes and control characters escaped.
fn push_escaped(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, ch) in s.char_indices() {
        if ch >= ' ' && ch != '"' && ch != '\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{:04x}", c as u32)),
        }
        plain = i + ch.len_utf8();
    }
    out.push_str(&s[plain..]);
}

/// Escape `s` for embedding in a JSON string literal (no surrounding
/// quotes) — the escaper the renderer uses for every string and key.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// A parse failure: what went wrong and the byte offset it happened
/// at (`lold` answers it as a client error, HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BAD JSON AT BYTE {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse exactly one JSON value from `input` (leading/trailing
/// whitespace allowed, anything else after the value is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("TRAILING GARBAGE AFTER DA VALUE"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { message: msg.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("NESTED 2 DEEP"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("EXPECTED A JSON VALUE")),
            None => Err(self.err("UNEXPECTED END OF INPUT")),
        }
    }

    fn literal(&mut self, text: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("EXPECTED A JSON VALUE"))
        }
    }

    /// A comma-separated sequence from its opening bracket through
    /// `close`; `item` parses one element.
    fn seq(
        &mut self,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(what)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.seq(b'}', "EXPECTED , OR } IN OBJECT", |p| {
            let key = p.string().map_err(|mut e| {
                e.message = format!("OBJECT KEY: {}", e.message);
                e
            })?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(p.err(&format!("DUPLICATE OBJECT KEY {key:?}")));
            }
            p.skip_ws();
            p.eat(b':', "EXPECTED : AFTER OBJECT KEY")?;
            p.skip_ws();
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.seq(b']', "EXPECTED , OR ] IN ARRAY", |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "EXPECTED A STRING")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole: those bytes are ASCII, so the run ends on a
            // char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("UNTERMINATED STRING")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let ch = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX low; lone surrogates
                            // are an error (never a panic).
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("LONE HIGH SURROGATE"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("BAD LOW SURROGATE"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("BAD SURROGATE PAIR"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("LONE SURROGATE"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("BAD ESCAPE IN STRING")),
                    };
                    out.push(ch);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("RAW CONTROL CHAR IN STRING")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("TRUNCATED \\u ESCAPE"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("BAD \\u ESCAPE"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("BAD \\u ESCAPE"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// Skip a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(self.err("EXPECTED DIGITS IN NUMBER"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("EXPECTED DIGITS AFTER ."));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("EXPECTED DIGITS IN EXPONENT"));
            }
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let v =
            parse(r#"{"source": "HAI", "pes": 4, "input": ["a", "b"], "timing": true}"#).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some("HAI"));
        assert_eq!(v.get("pes").unwrap().as_usize(), Some(4));
        assert_eq!(v.get("timing").unwrap().as_bool(), Some(true));
        let input = v.get("input").unwrap().as_arr().unwrap();
        assert_eq!(input.len(), 2);
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn numbers_round_trip_u64_exactly() {
        let v = parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse(r#"{"pes": 1, "pes": 64000}"#).unwrap_err();
        assert!(e.message.contains("DUPLICATE"), "{e}");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("2 DEEP"), "{e}");
        // And a depth inside the cap parses fine.
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        parse(&ok).unwrap();
    }

    #[test]
    fn escapes_and_surrogates() {
        let v = parse(r#""a\n\t\"\\A😀b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A😀b"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn trailing_garbage_and_truncation_fail() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01").is_err() || parse("01").is_ok()); // lenient leading zero, but total
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn renders_the_house_style() {
        let v = Json::object()
            .with("n", 7u64)
            .with("f", Json::num(format_args!("{:.4}", 0.5)))
            .with("s", "a\"b\\c\nd\u{1}")
            .with("none", Json::Null)
            .with("arr", Json::Arr(vec![Json::from(true), Json::Arr(vec![]), Json::object()]));
        assert_eq!(
            v.to_string(),
            r#"{"n": 7, "f": 0.5000, "s": "a\"b\\c\nd\u0001", "none": null, "arr": [true, [], {}]}"#
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain ünïcode"), "plain ünïcode");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let embedded = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&embedded).unwrap().as_str(), Some(nasty));
    }
}
