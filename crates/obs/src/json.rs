//! A small JSON value type with serializer and parser.
//!
//! This replaces `serde`/`serde_json` across the workspace (the registry is
//! not reachable from the build environment, so external crates cannot be
//! resolved). The encoding conventions match what the previous serde
//! derives produced, so trace files written by earlier builds still load:
//!
//! - transparent newtypes serialize as their inner value (`ProcessId` → `3`,
//!   `VectorClock` → `[1,2,3]`),
//! - structs serialize as objects keyed by field name,
//! - enums are externally tagged (`{"Send":{"to":1,"msg":4}}`), with unit
//!   variants as bare strings (`"Undetected"`).

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Deref;

/// A JSON value.
///
/// Object keys keep insertion order so output is stable and diffable.
/// Integers are kept exact (`Int`/`UInt`) rather than coerced through
/// `f64`, because message ids and counters are 64-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key → value pairs).
    Obj(Vec<(Key, Json)>),
}

/// An object key.
///
/// Keys of up to [`Key::INLINE`] bytes — every key of a trace file and
/// nearly every key the workspace writes — live inside the `Key` itself,
/// so parsing an object allocates nothing per key; longer keys are boxed.
/// A `Key` is 24 bytes, the size of a `String`. It derefs to `str` and
/// compares with `&str`.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline { len: u8, bytes: [u8; Key::INLINE] },
    Boxed(Box<str>),
}

impl Key {
    /// The longest key, in bytes, stored without a heap allocation.
    pub const INLINE: usize = 22;

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline key is copied whole from a `str`"),
            KeyRepr::Boxed(s) => s,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..*len as usize],
            KeyRepr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        if s.len() > Key::INLINE {
            return Key(KeyRepr::Boxed(s.into()));
        }
        let mut bytes = [0; Key::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Key(KeyRepr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Error produced by [`Json::parse`] or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (0 for shape errors).
    pub offset: usize,
}

impl JsonError {
    /// A shape error (wrong type / missing key), not tied to an offset.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Serialize `self` into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstruct `Self` from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses `value`, reporting shape mismatches as [`JsonError`]s.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    ///
    /// # Errors
    ///
    /// Shape error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
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

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_object(&self) -> Option<&[(Key, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A required `u64`.
    ///
    /// # Errors
    ///
    /// Shape error when the value is not a non-negative integer.
    pub fn expect_u64(&self) -> Result<u64, JsonError> {
        self.as_u64()
            .ok_or_else(|| JsonError::shape(format!("expected unsigned integer, got {self}")))
    }

    /// A required array.
    ///
    /// # Errors
    ///
    /// Shape error when the value is not an array.
    pub fn expect_array(&self) -> Result<&[Json], JsonError> {
        self.as_array()
            .ok_or_else(|| JsonError::shape(format!("expected array, got {self}")))
    }

    /// Compact one-line rendering (same as `Display`).
    pub fn to_string_compact(&self) -> String {
        self.to_string()
    }

    /// Pretty rendering with two-space indentation, matching
    /// `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    // Writing into a `String` cannot fail.
                    let _ = write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset for malformed input or
    /// trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal: the one escaper of every
/// rendering. Runs of characters that need no escape are written whole.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    // Every escaped character is ASCII, so byte offsets split `s` only at
    // character boundaries.
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..0x20 => "",
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        plain = i + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        // Keep a decimal point so the value re-parses as float.
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no NaN/Inf; serde_json errors here, we degrade.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::UInt(v as u64)
        } else {
            Json::Int(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Items of the arrays being parsed, innermost array last. Each array
    /// moves its items out at their exact count when it closes, so the
    /// document's arrays never grow by reallocation.
    items: Vec<Json>,
    /// Members of the objects being parsed, kept the same way.
    members: Vec<(Key, Json)>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos.max(1),
        }
    }

    fn skip_ws(&mut self) {
        const SPACES: u64 = u64::from_ne_bytes([b' '; 8]);
        loop {
            // Pretty-printed indentation comes in long runs of spaces.
            while let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
                if u64::from_ne_bytes(chunk.try_into().expect("8 bytes")) != SPACES {
                    break;
                }
                self.pos += 8;
            }
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                _ => return,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let start = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(self.items.split_off(start)));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let start = self.members.len();
        loop {
            self.skip_ws();
            let key = Key::from(&*self.string()?);
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(self.members.split_off(start)));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// The string at `pos`, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "expected string")?;
        // The run before the first quote, escape or control byte needs no
        // decoding; the loop below decodes the rest byte by byte.
        let start = self.pos;
        self.pos += self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(self.bytes.len() - start);
        let text = self.text;
        let run = &text[start..self.pos];
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
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
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected `\\u` after high surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so it is valid;
                    // re-decode the sequence.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated unicode escape"));
            };
            self.pos += 1;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Json::Int(v));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_width(b: u8) -> usize {
    if b >= 0xF0 {
        4
    } else if b >= 0xE0 {
        3
    } else {
        2
    }
}

// Blanket-ish impls for common shapes used across the workspace.

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.expect_array()?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_json(item)?);
        }
        Ok(out)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl FromJson for u64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_u64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::shape(format!("expected bool, got {value}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_like_serde_json() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::UInt(42).to_string(), "42");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::Float(0.5).to_string(), "0.5");
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Str("a\"b\n".into()).to_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn compound_values_render_compactly() {
        let v = Json::obj([
            ("g", Json::from(vec![1u64, 2, 3])),
            ("ok", Json::Bool(false)),
        ]);
        assert_eq!(v.to_string(), "{\"g\":[1,2,3],\"ok\":false}");
    }

    #[test]
    fn pretty_uses_two_space_indent() {
        let v = Json::obj([("a", Json::from(vec![1u64]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn parse_roundtrips() {
        for text in [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":1,\"b\":[{\"c\":\"x\"}],\"d\":-7}",
            "0.25",
            "\"esc \\\\ \\\" \\n\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u00e9\\ud83d\\ude00π\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("é😀π"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "[1,",
            "{\"a\"}",
            "tru",
            "[1] x",
            "\"unterminated",
            "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn keys_up_to_the_inline_limit_are_stored_inline() {
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<String>());
        for len in [0, 1, 21, 22, 23, 64] {
            let text = "é".repeat(len / 2) + &"k".repeat(len % 2);
            let key = Key::from(text.as_str());
            assert_eq!(key, text.as_str());
            assert_eq!(key.as_str(), text);
            assert_eq!(matches!(key.0, KeyRepr::Inline { .. }), len <= Key::INLINE);
        }
        assert_ne!(Key::from("ab"), "abc");
        assert_eq!(format!("{:?}", Key::from("a\"b")), "\"a\\\"b\"");
    }

    #[test]
    fn parsed_containers_are_exactly_sized() {
        fn check(v: &Json) {
            match v {
                Json::Arr(items) => {
                    assert_eq!(items.capacity(), items.len(), "{v}");
                    items.iter().for_each(check);
                }
                Json::Obj(pairs) => {
                    assert_eq!(pairs.capacity(), pairs.len(), "{v}");
                    pairs.iter().for_each(|(_, v)| check(v));
                }
                _ => {}
            }
        }
        for text in [
            "[1,[2,3,[]],{}]",
            "{\"a\":[{\"b\":1,\"c\":[true]}],\"d\":{\"e\":{}}}",
        ] {
            check(&Json::parse(text).unwrap());
        }
    }

    #[test]
    fn parse_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    /// The exact result of edge inputs, leniencies included (`01`, `1.`),
    /// and the reported offsets (an error at byte 0 reports byte 1).
    #[test]
    fn parse_results_are_pinned() {
        for (text, want) in [
            ("01", Json::UInt(1)),
            ("1.", Json::Float(1.0)),
            ("-0", Json::Int(0)),
            ("18446744073709551616", Json::Float(18446744073709551616.0)),
        ] {
            assert_eq!(Json::parse(text), Ok(want), "{text:?}");
        }
        let deep = "[".repeat(129) + &"]".repeat(129);
        for (text, message, offset) in [
            ("-", "invalid number", 1),
            ("[1,]", "unexpected character", 3),
            ("{\"a\" 1}", "expected `:` after object key", 5),
            ("{\"a\":1,}", "expected string", 7),
            ("\"\\u12\"", "invalid hex digit in unicode escape", 6),
            ("\"\\ud800\"", "lone high surrogate", 7),
            ("tru", "invalid literal", 1),
            ("x", "unexpected character", 1),
            ("", "unexpected end of input", 1),
            ("[1] x", "trailing characters after JSON value", 4),
            ("\"abc", "unterminated string", 4),
            ("\"a\u{1}b\"", "control character in string", 3),
            ("{\"ab", "unterminated string", 4),
            ("{\"k\":1", "expected `,` or `}` in object", 6),
            ("[12", "expected `,` or `]` in array", 3),
            ("12x", "trailing characters after JSON value", 2),
            ("1-2", "invalid number", 3),
            ("{\"a\u{1}\":1}", "control character in string", 4),
            (deep.as_str(), "document nested too deeply", 128),
        ] {
            let want = JsonError {
                message: message.to_string(),
                offset,
            };
            assert_eq!(Json::parse(text), Err(want), "{text:?}");
        }
    }

    #[test]
    fn numbers_keep_64_bit_precision() {
        let big = u64::MAX - 1;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        let neg = Json::parse("-9007199254740993").unwrap();
        assert_eq!(neg.as_i64(), Some(-9007199254740993));
    }

    #[test]
    fn accessors_and_field_errors() {
        let v = Json::parse("{\"a\":1}").unwrap();
        assert_eq!(v.field("a").unwrap().expect_u64().unwrap(), 1);
        assert!(v.field("b").is_err());
        assert!(v.expect_array().is_err());
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn float_exponents_parse() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5e-1").unwrap().as_f64(), Some(-0.25));
    }
}
