//! Minimal hand-rolled JSON support: a string escaper and an
//! allocation-free writer for the exporters, and a small recursive-descent
//! parser used by tests and the CI schema check. The build environment has
//! no crates.io access, so there is no serde; this keeps "emitted documents
//! actually parse" testable without trusting the emitter's own formatting.

use std::collections::BTreeMap;

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn json_string(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    out.string(s);
    String::from_utf8(out).expect("escaping keeps UTF-8 intact")
}

/// Where the exporters write JSON text: a byte buffer, or a
/// [`ByteCount`] that measures the text first so the buffer is sized
/// exactly once. Nothing goes through `fmt`, and no call builds a
/// temporary.
pub(crate) trait JsonSink {
    /// Appends `s` verbatim.
    fn raw(&mut self, s: &str);

    /// Appends `v` in decimal.
    fn uint(&mut self, v: u64);

    /// Appends `key` verbatim, then `v` in decimal.
    fn field(&mut self, key: &str, v: u64) {
        self.raw(key);
        self.uint(v);
    }

    /// Appends `s` as an escaped JSON string literal, quotes included:
    /// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` get their
    /// short escapes, other control characters `\u00XX`, and everything
    /// else is copied as is.
    fn string(&mut self, s: &str) {
        const HEX: &str = "0123456789abcdef";
        self.raw("\"");
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is a char boundary.
            self.raw(&s[start..i]);
            if escape.is_empty() {
                let (hi, lo) = (usize::from(b >> 4), usize::from(b & 15));
                self.raw("\\u00");
                self.raw(&HEX[hi..=hi]);
                self.raw(&HEX[lo..=lo]);
            } else {
                self.raw(escape);
            }
            start = i + 1;
        }
        self.raw(&s[start..]);
        self.raw("\"");
    }
}

/// The bytes the exporters write; every write appends whole UTF-8
/// strings or ASCII digits, so the buffer converts to a `String` at the
/// end.
impl JsonSink for Vec<u8> {
    #[inline]
    fn raw(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    /// Two digits per division, from a table of the pairs `00`–`99`.
    #[inline]
    fn uint(&mut self, mut v: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        while v >= 10 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if v > 0 || i == digits.len() {
            i -= 1;
            digits[i] = b'0' + v as u8;
        }
        self.extend_from_slice(&digits[i..]);
    }
}

/// A [`JsonSink`] that only counts the bytes it would write.
#[derive(Default)]
pub(crate) struct ByteCount(pub usize);

impl JsonSink for ByteCount {
    #[inline]
    fn raw(&mut self, s: &str) {
        self.0 += s.len();
    }

    #[inline]
    fn uint(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

/// Formats an `f64` as a JSON number token: finite values render via
/// `Display` (shortest round-trip form), non-finite values — which JSON
/// cannot represent — render as `null`. Shared by every JSON emitter in
/// the workspace so numeric formatting stays byte-identical across them.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Numbers keep their raw text (the schema checks
/// only need integer/float classification, and `u64` values must not go
/// through `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as its raw source text.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` for deterministic iteration.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The emitters
/// nest a few levels; the cap bounds the parser's recursion on input
/// from outside the process.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Errors carry a byte offset and message;
/// nesting deeper than 128 arrays/objects is an error.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if text.parse::<f64>().is_err() {
            return Err(format!("bad number '{text}' at byte {start}"));
        }
        Ok(Value::Number(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four ASCII hex digits: no sign, and
                            // no byte of a multi-byte character.
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            let cp = hex.iter().fold(0, |cp, &d| {
                                cp << 4 | char::from(d).to_digit(16).expect("a hex digit")
                            });
                            // Surrogates are not needed by our own emitters;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            out.insert(key, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\n",
            "back\\slash",
            "\u{1}",
        ] {
            let lit = json_string(s);
            let v = parse(&lit).expect("escaped string parses");
            assert_eq!(v.as_str(), Some(s));
        }
    }

    #[test]
    fn sinks_write_and_count_integers_as_display_does() {
        for v in [0, 7, 10, 99, 100, 105, 1005, 65_536, u64::MAX] {
            let (mut out, mut len) = (Vec::new(), ByteCount::default());
            out.uint(v);
            len.uint(v);
            assert_eq!(out, v.to_string().as_bytes());
            assert_eq!(len.0, out.len());
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn u64_values_survive_exactly() {
        let v = parse(&format!(r#"{{"n":{}}}"#, u64::MAX)).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_ascii_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
        // The fourth byte starts a two-byte character.
        assert!(parse("\"\\u000é\"").is_err());
        // A sign is not a hex digit.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
        assert!(parse(r#""\u00"#).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&format!("{}1", r#"{"a":"#.repeat(200_000))).is_err());
    }
}
