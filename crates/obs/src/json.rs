//! The workspace's one JSON layer: an ordered writer ([`Object`],
//! [`json_object!`](crate::json_object), [`write()`]) for every emitter —
//! JSONL and Chrome traces, serve responses, `check` findings,
//! `BENCH_*.json` exhibits — and a minimal parser ([`parse`]) for
//! requests, round-trip tests and baseline gates.
//!
//! The writer keeps object members in insertion order and escapes every
//! string it writes, so no caller builds JSON text by hand. The parser
//! reads objects, arrays, strings, numbers, booleans and null in time
//! linear in the input, and bounds nesting at 128 levels. Integers up to
//! `u64::MAX` parse losslessly into [`Json::Int`]; anything fractional or
//! negative falls back to [`Json::Num`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, control
/// characters use `\n`/`\r`/`\t` or `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
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
}

/// A value the writer can emit.
pub trait ToJson {
    /// Appends this value as JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Renders one value as compact JSON text.
pub fn write(value: &(impl ToJson + ?Sized)) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// A JSON object under construction; members keep insertion order. The
/// [`json_object!`](crate::json_object) macro builds one from
/// `"key": value` pairs.
#[derive(Debug, Clone)]
pub struct Object {
    /// `{` and the members written so far.
    text: String,
}

impl Default for Object {
    fn default() -> Self {
        Object { text: String::from("{") }
    }
}

impl Object {
    /// Appends member `key` (escaped) with `value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if self.text.len() > 1 {
            self.text.push(',');
        }
        key.write_json(&mut self.text);
        self.text.push(':');
        value.write_json(&mut self.text);
        self
    }

    /// The finished object as JSON text.
    pub fn finish(mut self) -> String {
        self.text.push('}');
        self.text
    }
}

/// Builds a [`json::Object`](crate::json::Object) from `"key": value`
/// pairs, in order; `json_object!(base; …)` appends them to `base`.
///
/// ```
/// use dmf_obs::json_object;
///
/// let reply = json_object!("ok": true, "type": "stalled");
/// let line = json_object!(reply; "ms": 3u64, "ids": vec![1u64, 2]).finish();
/// assert_eq!(line, r#"{"ok":true,"type":"stalled","ms":3,"ids":[1,2]}"#);
/// ```
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json_object!($crate::json::Object::default(); $($key: $value),*)
    };
    ($base:expr; $($key:literal : $value:expr),* $(,)?) => {
        $base$(.field($key, $value))*
    };
}

impl ToJson for Object {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.text);
        out.push('}');
    }
}

/// A number written with a fixed count of decimals: `Fixed(74.25, 1)`
/// writes `74.2`, `Fixed(1.0, 3)` writes `1.000`; non-finite ones `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Shortest round-trip digits; integral values keep a `.0`, so every
/// finite value parses back as the same [`Json::Num`].
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() && self.fract() != 0.0 {
            let _ = write!(out, "{self}");
        } else {
            Fixed(*self, 1).write_json(out);
        }
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(bool, u32, u64, usize, i64);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// `None` writes `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Objects write their members in key order.
impl ToJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Int(v) => v.write_json(out),
            Json::Num(v) => v.write_json(out),
            Json::Str(s) => s.write_json(out),
            Json::Arr(items) => items.write_json(out),
            Json::Obj(map) => {
                map.iter().fold(Object::default(), |o, (k, v)| o.field(k, v)).write_json(out);
            }
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with source-independent (sorted) key access.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `u64`, if it is an [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts. Far above the
/// depth of anything the repo writes, it bounds the parser's recursion so
/// a hostile line fails typed instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON value (typically one JSONL line) in time linear in
/// the input's length.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Parses every non-empty line of a JSONL document, in order.
///
/// # Errors
///
/// Fails on the first malformed line.
pub fn parse_lines(input: &str) -> Result<Vec<Json>, ParseError> {
    input.lines().filter(|l| !l.trim().is_empty()).map(parse).collect()
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError { at: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, joining a UTF-16
    /// surrogate pair (`\ud83d\ude00`); leaves `pos` on its last digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let high = self.hex4()?;
        let code =
            if (0xD800..0xDC00).contains(&high) && self.src[self.pos + 1..].starts_with("\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("unpaired surrogate"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            } else {
                high
            };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    /// The four hex digits after the `u` at `pos`; leaves `pos` on the last.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.src.get(self.pos + 1..self.pos + 5).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { at: start, message: "bad number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn escapes_specials_and_control() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("µs"), "µs");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Int(1));
                assert_eq!(items[2].get("b").unwrap().as_str(), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn writer_keeps_insertion_order_and_escapes() {
        let nested = Object::default().field("z", Vec::<u64>::new()).field("a", Object::default());
        let line = Object::default()
            .field("b", 1u64)
            .field("a\"key", "x\ny")
            .field("n", None::<u64>)
            .field("f", Fixed(1.0, 3))
            .field("pairs", vec![vec![1u64, 2], vec![3, 4]])
            .field("nested", nested)
            .finish();
        assert_eq!(
            line,
            r#"{"b":1,"a\"key":"x\ny","n":null,"f":1.000,"pairs":[[1,2],[3,4]],"nested":{"z":[],"a":{}}}"#
        );
        assert_eq!(write(&-2.5f64), "-2.5");
        assert_eq!(write(&2.0f64), "2.0");
        assert_eq!(write(&f64::NAN), "null");
        assert_eq!(write(&Fixed(74.25, 1)), "74.2");
    }

    /// A seeded random value: every control character, quotes,
    /// backslashes and non-ASCII in strings; integer extremes; negative
    /// and fractional numbers; empty and nested containers.
    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        const CHARS: [char; 8] = ['a', '"', '\\', '/', 'µ', '😀', '\u{7f}', '\u{2028}'];
        let text = |rng: &mut StdRng| -> String {
            (0..rng.gen_range(0..6usize))
                .map(|_| match rng.gen_range(0..2u32) {
                    0 => char::from(rng.gen_range(0..0x20u8)),
                    _ => CHARS[rng.gen_range(0..CHARS.len())],
                })
                .collect()
        };
        match rng.gen_range(0..if depth == 0 { 5u32 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Int([0, u64::MAX, rng.gen()][rng.gen_range(0..3usize)]),
            3 => Json::Num((rng.gen::<f64>() - 0.75) * 10f64.powi(rng.gen_range(-8..20i32))),
            4 => Json::Str(text(rng)),
            5 => Json::Arr(
                (0..rng.gen_range(0..4usize)).map(|_| random_value(rng, depth - 1)).collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (text(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn written_values_parse_back_equal() {
        let mut rng = StdRng::seed_from_u64(2014);
        for _ in 0..2_000 {
            let value = random_value(&mut rng, 3);
            let text = write(&value);
            assert_eq!(parse(&text).as_ref(), Ok(&value), "{text}");
        }
        let every_control: String = (0..0x20u8).map(char::from).collect();
        let value = Json::Str(format!("{every_control}\"\\µ😀"));
        assert_eq!(parse(&write(&value)), Ok(value));
        assert_eq!(parse(&write(&Json::Int(u64::MAX))), Ok(Json::Int(u64::MAX)));
    }

    #[test]
    fn decodes_surrogate_pairs_and_rejects_lone_halves() {
        assert_eq!(parse(r#""\ud83d\ude00!""#), Ok(Json::Str("😀!".into())));
        assert_eq!(parse(r#""\u00b5""#), Ok(Json::Str("µ".into())));
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
            assert_eq!(parse(lone).unwrap_err().message, "unpaired surrogate", "{lone}");
        }
        assert_eq!(parse(r#""\u+041""#).unwrap_err().message, "bad \\u escape");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the input per character made this
        // take 25 s in release; copying runs as slices takes milliseconds.
        let line = format!(r#"{{"op":"plan","ratio":"{}","demand":20}}"#, "1".repeat(1_000_000));
        let started = std::time::Instant::now();
        let value = parse(&line).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
        assert_eq!(value.get("ratio").and_then(Json::as_str).map(str::len), Some(1_000_000));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let deeper = format!("{{\"a\":{deepest}}}");
        assert_eq!(parse(&deeper).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn hostile_nesting_fails_typed_on_a_default_stack() {
        // Recursing once per bracket, 200 000 unclosed brackets would
        // overflow the stack of whichever thread parsed them.
        let hostile = "[".repeat(200_000);
        let result = std::thread::spawn(move || parse(&hostile)).join().unwrap();
        let err = result.unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
    }

    #[test]
    fn parses_lines() {
        let lines = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("b").unwrap().as_u64(), Some(2));
    }
}
