//! fixref's one JSON codec: a value model, its compact writer, a
//! recursive-descent parser, and the [`ToJson`]/[`FromJson`] traits
//! every persisted or wire type implements — with no external
//! dependencies.
//!
//! The format's rules live here and nowhere else:
//!
//! - **Writer.** [`Json`]'s `Display` is the only writer. Members come
//!   out in insertion order with no whitespace, strings go through
//!   [`escape`], floats through [`fmt_f64`] (non-finite values as the
//!   strings `"NaN"`, `"Infinity"` and `"-Infinity"`, which JSON cannot
//!   spell), and integers exactly.
//! - **Numbers.** An integer token that fits `i64` or `u64` parses to
//!   [`Json::Int`] and stays exact; every other number parses to an
//!   `f64` ([`Json::Num`]), so `-0` reads back as `-0.0`.
//! - **Integer decoding** never rounds or saturates: a value that does
//!   not fit its field exactly is a mistyped-member error. A float token
//!   decodes as an integer only when it is a whole number below 2^53 in
//!   magnitude (`1e3` reads as 1000).
//! - **Members.** [`Json::field`] requires a member; [`Json::opt_field`]
//!   reads an absent or `null` member as `None`. Unknown members are
//!   ignored. Errors name the member.
//! - **Depth.** Documents nesting deeper than [`MAX_DEPTH`] arrays and
//!   objects are rejected, so a hostile line cannot exhaust the stack.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The deepest document fixref writes nests 6 levels.
pub const MAX_DEPTH: usize = 128;

/// A whole [`Json::Num`] below this magnitude (2^53) decodes as an
/// integer: every integer up to it is an exact `f64`, so `1e3` reads as
/// 1000, while 2^53 + 1 spelled as a float reads as 2^53 and is rejected.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token that fits `i64` or `u64`, kept exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

/// A parse or decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong; decode errors name the member.
    pub message: String,
    /// Byte offset into the input, for parse errors.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A decode error: the document parsed but does not describe a
    /// valid value.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    /// The error for a value that is not `what` (`"an array"`, …).
    pub fn expected(what: &str, found: &Json) -> Self {
        let found = match found {
            Json::Str(_) => "a string".to_string(),
            Json::Arr(_) => "an array".to_string(),
            Json::Obj(_) => "an object".to_string(),
            scalar => scalar.to_string(),
        };
        JsonError::new(format!("expected {what}, found {found}"))
    }

    /// Prefixes the message with where the error happened.
    pub fn within(mut self, context: impl fmt::Display) -> Self {
        self.message = format!("{context}: {}", self.message);
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "JSON error at byte {offset}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// A type that renders as a JSON value.
pub trait ToJson {
    /// The value's JSON form.
    fn encode(&self) -> Json;
}

/// A type that decodes from a JSON value.
pub trait FromJson: Sized {
    /// Decodes a value.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the missing or mistyped member.
    fn decode(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the first offending byte.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// An object with these members, in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An object whose members are these `(name, value)` pairs.
    pub fn map<T: ToJson>(pairs: &[(String, T)]) -> Json {
        Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }

    /// Member lookup on objects (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes the required member `key`.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when `self` is not an object or the member is
    /// missing or mistyped.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        self.field_with(key, T::decode)
    }

    /// Decodes the optional member `key`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when `self` is not an object or the member is
    /// mistyped.
    pub fn opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        self.opt_field_with(key, T::decode)
    }

    /// [`Json::field`] with an explicit decoder.
    ///
    /// # Errors
    ///
    /// As [`Json::field`], plus the decoder's own errors.
    pub fn field_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.opt_field_with(key, decode)?
            .ok_or_else(|| JsonError::new(format!("missing member {key:?}")))
    }

    /// [`Json::opt_field`] with an explicit decoder.
    ///
    /// # Errors
    ///
    /// As [`Json::opt_field`], plus the decoder's own errors.
    pub fn opt_field_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        let Json::Obj(members) = self else {
            return Err(JsonError::expected("an object", self));
        };
        match members.iter().find(|(k, _)| k == key) {
            None | Some((_, Json::Null)) => Ok(None),
            Some((_, v)) => decode(v)
                .map(Some)
                .map_err(|e| e.within(format_args!("member {key:?}"))),
        }
    }

    /// Decodes an array with an explicit element decoder; errors name
    /// the element's index.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when `self` is not an array or an element does
    /// not decode.
    pub fn items<T>(
        &self,
        decode: impl Fn(&Json) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let items = self
            .as_arr()
            .ok_or_else(|| JsonError::expected("an array", self))?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| decode(v).map_err(|e| e.within(format_args!("index {i}"))))
            .collect()
    }

    /// Decodes an object's members as `(name, value)` pairs, in order
    /// (the inverse of [`Json::map`]).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when `self` is not an object or a value does not
    /// decode.
    pub fn entries<T: FromJson>(&self) -> Result<Vec<(String, T)>, JsonError> {
        let Json::Obj(members) = self else {
            return Err(JsonError::expected("an object", self));
        };
        members
            .iter()
            .map(|(k, v)| {
                T::decode(v)
                    .map(|t| (k.clone(), t))
                    .map_err(|e| e.within(format_args!("member {k:?}")))
            })
            .collect()
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload (integers included, rounded to the nearest
    /// `f64`); also decodes the writer's non-finite string spellings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, when it is one
    /// exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|n| u64::try_from(n).ok())
    }

    /// The numeric payload as an integer, when it is one exactly.
    fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT_INT_BOUND => Some(*n as i128),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The compact writer: the only code that spells JSON text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(v) if v.is_nan() => f.write_str("\"NaN\""),
            Json::Num(v) if *v > 0.0 => f.write_str("\"Infinity\""),
            Json::Num(_) => f.write_str("\"-Infinity\""),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` between quotes, escaping what JSON requires.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        match short {
            Some(escaped) => out.write_str(escaped)?,
            None => write!(out, "\\u{:04x}", c as u32)?,
        }
        plain = i + c.len_utf8();
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out[1..out.len() - 1].to_string()
}

/// Formats an `f64` as a JSON token: shortest round-trip representation
/// for finite values, quoted sentinel strings for the rest.
pub fn fmt_f64(v: f64) -> String {
    Json::Num(v).to_string()
}

impl ToJson for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::expected("a boolean", v))
    }
}

impl ToJson for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("a number", v))
    }
}

macro_rules! integer_codec {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn encode(&self) -> Json {
                Json::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn decode(v: &Json) -> Result<Self, JsonError> {
                v.as_int()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| {
                        JsonError::expected(concat!("an integer in ", stringify!($t), " range"), v)
                    })
            }
        }
    )*};
}

integer_codec!(u64, usize, i32);

impl ToJson for str {
    fn encode(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("a string", v))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn encode(&self) -> Json {
        self.as_slice().encode()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        v.items(T::decode)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

/// Tuples are fixed-length arrays.
macro_rules! tuple_codec {
    ($len:literal: $($t:ident $i:tt),*) => {
        impl<$($t: ToJson),*> ToJson for ($($t,)*) {
            fn encode(&self) -> Json {
                Json::Arr(vec![$(self.$i.encode()),*])
            }
        }

        impl<$($t: FromJson),*> FromJson for ($($t,)*) {
            fn decode(v: &Json) -> Result<Self, JsonError> {
                match v.as_arr() {
                    Some(items) if items.len() == $len => Ok(($(
                        $t::decode(&items[$i]).map_err(|e| e.within(concat!("index ", $i)))?,
                    )*)),
                    _ => Err(JsonError::expected(concat!("an array of ", $len), v)),
                }
            }
        }
    };
}

tuple_codec!(2: A 0, B 1);
tuple_codec!(3: A 0, B 1, C 2);
tuple_codec!(4: A 0, B 1, C 2, D 3);

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: Some(self.pos),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar; the input came in as &str
                    // so a multi-byte sequence is always complete.
                    let len = match lead {
                        b if b < 0x80 => 1,
                        b if b < 0xe0 => 2,
                        b if b < 0xf0 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, joining a
    /// UTF-16 surrogate pair into one character; leaves `pos` on the
    /// escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if !(0xd800..0xe000).contains(&high) {
            return char::from_u32(high).ok_or_else(|| self.err("invalid \\u escape"));
        }
        if high >= 0xdc00 || !self.bytes[self.pos + 1..].starts_with(b"\\u") {
            return Err(self.err("lone UTF-16 surrogate in \\u escape"));
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xdc00..0xe000).contains(&low) {
            return Err(self.err("lone UTF-16 surrogate in \\u escape"));
        }
        char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
            .ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// The four hex digits after the `u` at `pos`; moves `pos` onto the
    /// last of them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let exact = text.parse::<i128>().ok().filter(|&n| {
            (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n)
                && !(n == 0 && text.starts_with('-'))
        });
        match exact {
            Some(n) => Ok(Json::Int(n)),
            None => text
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e3 ").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" backslash\\ newline\n tab\t unicode µ §";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, Some(MAX_DEPTH), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past the bound is still an error, never a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        let v = Json::parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a😀b"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ud83d\ud83d""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integer_tokens_stay_exact() {
        let big = Json::parse("9007199254740993").unwrap();
        assert_eq!(big, Json::Int(9_007_199_254_740_993));
        assert_eq!(big.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            u64::decode(&Json::parse("18446744073709551615").unwrap()),
            Ok(u64::MAX)
        );
        assert_eq!(
            i32::decode(&Json::parse("-2147483648").unwrap()),
            Ok(i32::MIN)
        );
        assert_eq!(u64::decode(&Json::parse("1e3").unwrap()), Ok(1000));
        for bad in [
            "18446744073709551616",
            "1e30",
            "1.5",
            "-1",
            "9007199254740993.0",
            "\"7\"",
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(u64::decode(&v).is_err(), "{bad} decoded as u64");
            assert_eq!(v.as_u64(), None, "{bad}");
        }
        assert!(i32::decode(&Json::parse("2147483648").unwrap()).is_err());
        // `-0` is a float, so its sign survives.
        let zero = Json::parse("-0").unwrap().as_f64().unwrap();
        assert!(zero == 0.0 && zero.is_sign_negative());
        // Integers still read as floats.
        assert_eq!(Json::parse("3").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn the_writer_spells_what_the_parser_reads() {
        let doc = Json::obj([
            ("s", Json::Str("q\"\\\n\u{1}µ😀".into())),
            ("n", (-0.0f64).encode()),
            ("i", u64::MAX.encode()),
            ("f", f64::NEG_INFINITY.encode()),
            ("a", vec![Some(1.5), None].encode()),
            ("o", Json::map(&[("k".to_string(), true)])),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"s":"q\"\\\n\u0001µ😀","n":-0,"i":18446744073709551615,"f":"-Infinity","a":[1.5,null],"o":{"k":true}}"#
        );
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.to_string(), text);
        assert_eq!(
            back.field::<Vec<Option<f64>>>("a"),
            Ok(vec![Some(1.5), None])
        );
        assert_eq!(back.opt_field::<bool>("missing"), Ok(None));
    }

    #[test]
    fn member_errors_name_the_member() {
        let v = Json::parse(r#"{"a":{"b":[1,"x"]},"c":null}"#).unwrap();
        let err = v.field_with("a", |a| a.field::<Vec<u64>>("b")).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"member "a": member "b": index 1: expected an integer in u64 range, found a string"#
        );
        assert_eq!(
            v.field::<u64>("c").unwrap_err().message,
            r#"missing member "c""#
        );
        assert!(Json::Arr(Vec::new()).field::<u64>("a").is_err());
    }

    #[test]
    fn f64_formatting_round_trips() {
        for v in [0.0, -0.2, 1.0 / 3.0, 1e300, -2.5e-17] {
            let parsed = Json::parse(&fmt_f64(v)).unwrap();
            assert_eq!(parsed.as_f64(), Some(v));
        }
        assert!(Json::parse(&fmt_f64(f64::NAN))
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(
            Json::parse(&fmt_f64(f64::INFINITY)).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
    }
}
