//! The workspace's one JSON layer (std only). Here: a [`Value`] tree, a
//! strict parser, compact and pretty writers and [`locate`] for source
//! positions. In [`codec`]: the [`Encode`]/[`Decode`] pair persisted types
//! implement beside their definitions. The wire rules those follow are
//! written down in DESIGN.md §11.

mod codec;

pub use codec::{from_str, Decode, Encode, Variant};
use std::fmt::{self, Write as _};

/// Escape a string for inclusion inside JSON double quotes.
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Format a float as a JSON number. Non-finite values (never produced by a
/// healthy run) degrade to 0 rather than emitting invalid JSON.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        // Three decimals is sub-nanosecond once scaled to microseconds.
        format!("{x:.3}")
    } else {
        "0".to_string()
    }
}

/// Format a float as a JSON number with shortest round-trip precision
/// (metrics gauges, where 3 decimals would truncate ratios). Non-finite
/// values degrade to 0 like [`num`].
pub fn num_exact(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON document. Integer tokens stay exact over `i64::MIN..=u64::MAX`
/// (a `u64::MAX` seed survives a checkpoint; the parser refuses anything
/// wider); objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        bool::decode(self).ok()
    }

    pub fn as_u64(&self) -> Option<u64> {
        u64::decode(self).ok()
    }

    /// Any number: an integer token converts.
    pub fn as_f64(&self) -> Option<f64> {
        f64::decode(self).ok()
    }

    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Arr(items) = self else { return None };
        Some(items)
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        let Value::Obj(fields) = self else { return None };
        Some(fields)
    }

    /// No whitespace at all.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Two-space indentation, one element per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is the indentation level when pretty-printing. A finite float
    /// is written in its shortest form that parses back to the same bits,
    /// always with a `.` or an exponent so it stays a float; a non-finite
    /// one is `null`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        // What precedes an element (`sep` is "," from the second on) or the closer.
        let line = |out: &mut String, sep: &str, depth: Option<usize>| {
            out.push_str(sep);
            if let Some(depth) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        let comma = |i: usize| if i > 0 { "," } else { "" };
        let quoted = |out: &mut String, s: &str| {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        };
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(out, "{i}").expect("a String takes any write"),
            Value::Num(x) if x.is_finite() => {
                write!(out, "{x:?}").expect("a String takes any write");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => quoted(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    line(out, comma(i), inner);
                    item.write(out, inner);
                }
                if !items.is_empty() {
                    line(out, "", depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, v)) in fields.iter().enumerate() {
                    line(out, comma(i), inner);
                    quoted(out, key);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !fields.is_empty() {
                    line(out, "", depth);
                }
                out.push('}');
            }
        }
    }
}

/// The compact form.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

/// A missing key reads as null, so a chain of indexes never panics.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|items| items.get(i)).unwrap_or(&NULL)
    }
}

/// Why a text did not parse (`position` set, `pointer` empty) or did not
/// have the shape a type decodes from (`pointer` names the offending value;
/// [`from_str`] adds its `position`).
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// JSON pointer (`/dimensions/0/count`); empty for the document root.
    pub pointer: String,
    /// 1-based line and column.
    pub position: Option<(usize, usize)>,
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.pointer.is_empty() {
            write!(f, "{}: ", self.pointer)?;
        }
        f.write_str(&self.message)?;
        match self.position {
            Some((line, col)) => write!(f, " at line {line} column {col}"),
            None => Ok(()),
        }
    }
}

/// So `?` keeps working in the many functions that report `String` errors.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// Nesting beyond this is refused rather than risking the stack on a hostile
/// or corrupt file.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document (RFC 8259; duplicate keys refused).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Resolve a JSON pointer (`/dimensions/0/count`) against JSON `text`:
/// the 1-based `(line, column)` of the first character of the value, or
/// `None` if the path does not exist (including pointers into defaulted
/// fields absent from the file).
pub fn locate(text: &str, pointer: &str) -> Option<(usize, usize)> {
    let segments: Vec<&str> = if pointer == "/" || pointer.is_empty() {
        Vec::new()
    } else {
        pointer.strip_prefix('/')?.split('/').collect()
    };
    let mut p = Parser { text, pos: 0 };
    for segment in segments {
        p.ws();
        // Step over members until the cursor is on the one `segment` names.
        let in_object = match p.peek()? {
            b'{' => true,
            b'[' => false,
            _ => return None, // the pointer descends into a scalar
        };
        p.pos += 1;
        let mut skip = if in_object { usize::MAX } else { segment.parse().ok()? };
        loop {
            p.ws();
            if in_object {
                let key = p.string().ok()?;
                p.ws();
                p.eat(b':').then_some(())?;
                if key == segment {
                    break;
                }
            } else if skip == 0 {
                (p.peek()? != b']').then_some(())?;
                break;
            }
            skip -= 1;
            p.value(0).ok()?;
            p.ws();
            p.eat(b',').then_some(())?;
        }
    }
    p.ws();
    Some(line_col(text, p.pos))
}

fn line_col(text: &str, offset: usize) -> (usize, usize) {
    let before = &text.as_bytes()[..offset];
    let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    (1 + before.iter().filter(|&&b| b == b'\n').count(), 1 + offset - line_start)
}

/// The one tokenizer: `pos` is a byte offset that always sits on a character
/// boundary (it only ever steps over ASCII or over whole unescaped runs).
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn err(&self, message: &str) -> Error {
        let position = Some(line_col(self.text, self.pos));
        Error { pointer: String::new(), position, message: message.to_string() }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                let mut fields: Vec<(String, Value)> = Vec::new();
                self.members(depth, b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected `:` after an object key"));
                    }
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if let Some(twice) = keys.windows(2).find(|w| w[0] == w[1]) {
                    return Err(self.err(&format!("duplicate key {:?} in the object", twice[0])));
                }
                Ok(Value::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(depth, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected a value"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// `open member (, member)* close` with the opener under the cursor.
    fn members(
        &mut self,
        depth: usize,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or the closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escaped()?),
                Some(_) => return Err(self.err("raw control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence, the backslash under the cursor.
    fn escaped(&mut self) -> Result<char, Error> {
        let lone = "a \\u escape that is half of a surrogate pair";
        let code = match self.text.as_bytes().get(self.pos + 1) {
            Some(b'u') => match self.hex4()? {
                high @ 0xD800..=0xDBFF => match self.hex4() {
                    Ok(low @ 0xDC00..=0xDFFF) => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(self.err(lone)),
                },
                code => code,
            },
            Some(c) => {
                let simple = b"\"\\/bfnrt".iter().position(|e| e == c);
                let at = simple.ok_or_else(|| self.err("unknown escape sequence"))?;
                self.pos += 2;
                u32::from(b"\"\\/\x08\x0c\n\r\t"[at])
            }
            None => return Err(self.err("unterminated string")),
        };
        char::from_u32(code).ok_or_else(|| self.err(lone))
    }

    /// The `\uXXXX` under the cursor.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.pos..self.pos + 6).and_then(|esc| esc.strip_prefix("\\u"));
        let code = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = code.ok_or_else(|| self.err("expected \\u and four hex digits"))?;
        self.pos += 6;
        Ok(u32::from_str_radix(code, 16).expect("four hex digits"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`; without
    /// fraction and exponent it is an integer.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let (mantissa, exponent) =
            token.split_once(['e', 'E']).map_or((token, None), |(m, e)| (m, Some(e)));
        let (int, fraction) =
            mantissa.split_once('.').map_or((mantissa, None), |(i, f)| (i, Some(f)));
        let int = int.strip_prefix('-').unwrap_or(int);
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let well_formed = digits(int)
            && (int == "0" || !int.starts_with('0'))
            && fraction.is_none_or(digits)
            && exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)));
        let parsed = if !well_formed {
            None
        } else if fraction.is_none() && exponent.is_none() {
            let exact = i128::from(i64::MIN)..=i128::from(u64::MAX);
            token.parse().ok().filter(|i| exact.contains(i)).map(Value::Int)
        } else {
            token.parse().ok().filter(|x: &f64| x.is_finite()).map(Value::Num)
        };
        parsed.ok_or_else(|| {
            self.pos = start;
            self.err(if well_formed { "number out of range" } else { "malformed number" })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;
    use rng::Rng;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_guards_non_finite() {
        assert_eq!(num(1.5), "1.500");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }

    #[test]
    fn num_exact_round_trips_and_guards_non_finite() {
        assert_eq!(num_exact(0.25), "0.25");
        assert_eq!(num_exact(1.0 / 3.0).parse::<f64>().unwrap(), 1.0 / 3.0);
        assert_eq!(num_exact(f64::NAN), "0");
        assert_eq!(num_exact(f64::NEG_INFINITY), "0");
    }

    /// One character from each class the string codec treats differently.
    fn random_char(r: &mut Rng) -> char {
        match r.below(6) {
            0 => ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'][r.below(8) as usize],
            1 => char::from_u32(r.below(0x20) as u32).unwrap(),
            2 => char::from_u32(r.range(0x20u32..0x7f)).unwrap(),
            3 => char::from_u32(r.range(0x80u32..0xD800)).unwrap(),
            4 => char::from_u32(r.range(0xE000u32..0x10000)).unwrap(),
            _ => char::from_u32(r.range(0x10000u32..0x110000)).unwrap(),
        }
    }

    fn random_string(r: &mut Rng) -> String {
        (0..r.below(9)).map(|_| random_char(r)).collect()
    }

    fn random_leaf(r: &mut Rng) -> Value {
        match r.below(12) {
            0 => Value::Null,
            1 => Value::Bool(r.below(2) == 1),
            2 => Value::Int(i128::from(r.next_u64())),
            3 => Value::Int(i128::from(r.next_u64() as i64)),
            4 => {
                Value::Int([i128::from(u64::MAX), i128::from(i64::MIN), 0, -1][r.below(4) as usize])
            }
            5 => {
                Value::Num([0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, -f64::MAX][r.below(5) as usize])
            }
            // Subnormals: a zero exponent field.
            6 => Value::Num(f64::from_bits(r.next_u64() & ((1 << 52) - 1) | (r.below(2) << 63))),
            7 | 8 => loop {
                let x = f64::from_bits(r.next_u64());
                if x.is_finite() {
                    break Value::Num(x);
                }
            },
            9 => Value::Num(r.range(-1e6..1e6)),
            _ => Value::Str(random_string(r)),
        }
    }

    fn random_tree(r: &mut Rng, depth: usize) -> Value {
        match r.below(if depth == 0 { 1 } else { 3 }) {
            0 => random_leaf(r),
            1 => Value::Arr((0..r.below(5)).map(|_| random_tree(r, depth - 1)).collect()),
            _ => {
                let mut fields: Vec<(String, Value)> = Vec::new();
                for _ in 0..r.below(5) {
                    let key = random_string(r);
                    if !fields.iter().any(|(k, _)| *k == key) {
                        fields.push((key, random_tree(r, depth - 1)));
                    }
                }
                Value::Obj(fields)
            }
        }
    }

    /// `==` alone would let `-0.0` pass for `0.0`; the compact text tells
    /// them apart, and equal text plus equal values is equal bits.
    fn assert_same(back: &Value, v: &Value, how: &str) {
        assert_eq!(back, v, "{how}");
        assert_eq!(back.compact(), v.compact(), "{how}");
    }

    #[test]
    fn both_writers_round_trip_random_trees_bit_exactly() {
        rng::check(2000, |r| {
            let v = random_tree(r, 4);
            assert_same(&parse(&v.compact()).unwrap(), &v, "compact");
            assert_same(&parse(&v.pretty()).unwrap(), &v, "pretty");
        });
    }

    #[test]
    fn compact_has_no_whitespace_and_pretty_indents_by_two() {
        let v = obj! { "a" => vec![1u64, 2], "b" => obj! { "c" => Value::Null }, "e" => Vec::<u64>::new() };
        assert_eq!(v.compact(), r#"{"a":[1,2],"b":{"c":null},"e":[]}"#);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \"e\": []\n}"
        );
        assert_eq!(v.to_string(), v.compact());
    }

    #[test]
    fn numbers_keep_their_kind_and_every_digit() {
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(i64::decode(&parse("-9223372036854775808").unwrap()), Ok(i64::MIN));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("273").unwrap().as_f64(), Some(273.0), "an integer token is a number");
        assert_eq!(parse("8.5").unwrap().as_u64(), None, "a fraction is not an integer");
        assert_eq!(parse("1e2").unwrap(), Value::Num(100.0));
        assert_eq!(Value::Num(100.0).compact(), "100.0", "a float stays a float");
        assert_eq!(Value::Num(1e-7).compact(), "1e-7");
        assert_eq!(Value::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Value::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn strings_decode_every_escape_and_surrogate_pairs() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé😀 😀""#).unwrap();
        assert_eq!(v, "\"\\/\u{8}\u{c}\n\r\tAé😀 😀");
    }

    #[test]
    fn hostile_input_is_an_error_never_a_panic() {
        let deep = "[".repeat(10_000);
        let deep_objects = "{\"a\":".repeat(10_000);
        let wide_int = "9".repeat(400);
        let rows: Vec<(&str, &str)> = vec![
            ("", "expected a value"),
            ("   ", "expected a value"),
            (&deep, "nesting too deep"),
            (&deep_objects, "nesting too deep"),
            (r#""\uD83D""#, "surrogate"),
            (r#""\uD83Dx""#, "surrogate"),
            (r#""\uD83DA""#, "surrogate"),
            (r#""\uDE00""#, "surrogate"),
            (r#""\x41""#, "unknown escape"),
            (r#""\u12""#, "hex"),
            (r#""\u12G4""#, "hex"),
            ("\"a\u{1}b\"", "control character"),
            ("\"line\nbreak\"", "control character"),
            ("\"open", "unterminated"),
            ("\"open\\", "unterminated"),
            ("01", "malformed number"),
            ("-01", "malformed number"),
            ("+1", "expected a value"),
            (".5", "expected a value"),
            ("1.", "malformed number"),
            ("-", "malformed number"),
            ("1e", "malformed number"),
            ("1e+", "malformed number"),
            ("NaN", "expected a value"),
            ("Infinity", "expected a value"),
            ("-Infinity", "malformed number"),
            ("1e999", "out of range"),
            (&wide_int, "out of range"),
            ("18446744073709551616", "out of range"),
            ("-9223372036854775809", "out of range"),
            ("[1,]", "expected a value"),
            ("[1 2]", "expected `,`"),
            ("{\"a\":1,}", "expected a string"),
            ("{\"a\" 1}", "expected `:`"),
            ("{a:1}", "expected a string"),
            ("{\"a\":1,\"b\":2,\"a\":3}", "duplicate key \"a\""),
            ("{\"a\":{\"k\":1,\"k\":2}}", "duplicate key \"k\""),
            ("{\"a\":1} x", "trailing characters"),
            ("[] []", "trailing characters"),
            ("nul", "expected a value"),
            ("nulll", "trailing characters"),
            ("'single'", "expected a value"),
            ("\u{feff}{}", "expected a value"),
            ("[1, 2", "expected `,`"),
        ];
        for (text, why) in rows {
            let shown: String = text.chars().take(30).collect();
            let e = parse(text).expect_err(&shown);
            assert!(e.message.contains(why), "{shown:?}: {e}");
            assert!(e.position.is_some() && e.pointer.is_empty(), "{shown:?}: a syntax error");
        }
    }

    #[test]
    fn every_proper_prefix_of_a_document_is_refused() {
        let doc = obj! {
            "title" => "pré\"fix\\ \u{1}😀",
            "n" => vec![-1.5e-7, 0.0, 12.0],
            "seed" => u64::MAX,
            "nested" => obj! { "ok" => true, "none" => Value::Null, "list" => Vec::<u64>::new() },
        };
        for text in [doc.compact(), doc.pretty(), String::from(r#"["😀", false]"#)] {
            assert!(parse(&text).is_ok());
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert!(parse(&text[..cut]).is_err(), "prefix {:?} parsed", &text[..cut]);
            }
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse("{\n  \"a\": 1,\n  \"b\": tru\n}").unwrap_err();
        assert_eq!(e.position, Some((3, 8)));
        assert_eq!(e.to_string(), "expected a value at line 3 column 8");
    }

    #[test]
    fn indexing_never_panics_and_comparisons_read_naturally() {
        let v = parse(r#"{"a": {"b": [10, "x", true, 2.5]}, "n": null}"#).unwrap();
        assert_eq!(v["a"]["b"][0], 10);
        assert_eq!(v["a"]["b"][1], "x");
        assert_eq!(v["a"]["b"][2], true);
        assert_eq!(v["a"]["b"][3].as_f64(), Some(2.5));
        assert!(v["a"]["b"][9].is_null() && v["nope"]["deeper"][3].is_null());
        assert!(v.get("n").is_some_and(Value::is_null) && v.get("m").is_none());
        assert_eq!(v.as_object().unwrap().len(), 2);
    }

    // `locate`: the cases of the scanner it replaced (`lint/src/span.rs`).
    const DOC: &str = r#"{
  "title": "demo",
  "dimensions": [
    {"type": "temperature", "min-k": 273.0, "count": 0},
    {"type": "salt", "count": 4}
  ],
  "n-cycles": 3
}"#;

    #[test]
    fn top_level_key() {
        assert_eq!(locate(DOC, "/title"), Some((2, 12)));
        assert_eq!(locate(DOC, "/n-cycles"), Some((7, 15)));
    }

    #[test]
    fn nested_array_element_field() {
        // `0` in `"count": 0` on line 4.
        assert_eq!(locate(DOC, "/dimensions/0/count"), Some((4, 54)));
        assert_eq!(locate(DOC, "/dimensions/1/count"), Some((5, 31)));
        // Whole array element: its opening brace.
        assert_eq!(locate(DOC, "/dimensions/1"), Some((5, 5)));
    }

    #[test]
    fn missing_paths_are_none() {
        assert_eq!(locate(DOC, "/resource/cores"), None);
        assert_eq!(locate(DOC, "/dimensions/7"), None);
        assert_eq!(locate(DOC, "/title/deeper"), None);
    }

    #[test]
    fn root_pointer_points_at_document_start() {
        assert_eq!(locate(DOC, "/"), Some((1, 1)));
    }

    #[test]
    fn malformed_text_does_not_panic() {
        assert_eq!(locate("{\"a\": ", "/a/b"), None);
        assert_eq!(locate("", "/a"), None);
    }

    #[test]
    fn an_escaped_key_resolves_and_a_defaulted_field_does_not() {
        let text = "{\"a\\\"b\": {\"caf\\u00e9\": [0, {\"x\": 1}]}}";
        assert_eq!(locate(text, "/a\"b/café/1/x"), Some((1, 34)));
        // `dt-ps` takes its default when absent: nothing to point at.
        assert_eq!(locate(DOC, "/dt-ps"), None);
        assert_eq!(locate(DOC, "/dimensions/x"), None, "an array index must be a number");
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Colour {
        Red,
        DarkBlue,
    }
    crate::json_enum!(Colour { Red: "red", DarkBlue: "dark-blue" });

    #[test]
    fn typed_decoding_names_the_offending_value() {
        let text =
            "{\"dims\": [{\"count\": 4}, {\"count\": 8.5}], \"min-k\": 273, \"pair\": [3, 0]}";
        let v = parse(text).unwrap();
        let f = &v;
        assert_eq!(f.field::<f64>("min-k", None).unwrap(), 273.0);
        assert_eq!(f.field::<(usize, u32)>("pair", None).unwrap(), (3, 0));
        assert_eq!(
            f.field::<Option<u64>>("absent", None).unwrap(),
            None,
            "a missing Option is None"
        );
        assert_eq!(f.field("absent", Some(0.002)).unwrap(), 0.002);
        assert_eq!(
            f.field::<u64>("absent", None).unwrap_err().to_string(),
            "missing field `absent`"
        );

        struct Dim(usize);
        impl Decode for Dim {
            fn decode(v: &Value) -> Result<Self, Error> {
                Ok(Dim(v.field("count", None)?))
            }
        }
        let e = f.field::<Vec<Dim>>("dims", None).map(|d| d[0].0).unwrap_err();
        assert_eq!(e.to_string(), "/dims/1/count: expected an unsigned integer, got 8.5");
        struct Doc;
        impl Decode for Doc {
            fn decode(v: &Value) -> Result<Self, Error> {
                v.field::<Vec<Dim>>("dims", None).map(|_| Doc)
            }
        }
        let e = from_str::<Doc>(text).map(|_| ()).unwrap_err();
        assert_eq!(e.position, Some((1, 35)), "from_str resolves the pointer: {e}");

        for (text, why) in [
            ("-1", "out of range for an unsigned integer"),
            ("4294967296", "out of range for an unsigned integer of 32 bits"),
            ("\"4\"", "expected an unsigned integer, got a string"),
            ("1.0", "expected an unsigned integer, got 1.0"),
            ("null", "expected an unsigned integer, got null"),
        ] {
            let e = u32::decode(&parse(text).unwrap()).unwrap_err();
            assert!(e.message.contains(why), "{text}: {e}");
        }
        assert_eq!(i8::decode(&parse("-1").unwrap()), Ok(-1));
        assert!(String::decode(&Value::Int(1)).is_err() && bool::decode(&Value::Null).is_err());
        assert!(<(u64, u64)>::decode(&parse("[1,2,3]").unwrap()).is_err());

        assert_eq!(Colour::decode(&"dark-blue".encode()), Ok(Colour::DarkBlue));
        assert_eq!(Colour::Red.encode(), "red");
        let e = Colour::decode(&"green".encode()).unwrap_err();
        assert_eq!(e.message, "unknown variant `green`, expected one of: red, dark-blue");
        let body = parse(r#"{"asynchronous": {"tick-fraction": 0.25}}"#).unwrap();
        let variant = Variant::of(&body, None).unwrap();
        assert_eq!((variant.name, variant.field("tick-fraction")), ("asynchronous", Ok(0.25)));
        let e = variant.field::<f64>("nope").unwrap_err();
        assert_eq!(e.to_string(), "/asynchronous: missing field `nope`");
        assert!(Variant::of(&"synchronous".encode(), None).is_ok_and(|v| v.body.is_null()));
        assert!(Variant::of(&parse(r#"{"a": 1, "b": 2}"#).unwrap(), None).is_err());
    }
}
