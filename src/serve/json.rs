//! A minimal JSON reader: the counterpart of the workspace's one
//! emitter, [`gmark_stats::JsonWriter`].
//!
//! No route reads JSON — `POST /v1/run` takes the schema XML. The reader
//! serves the tests and tooling that read back what the pipeline and the
//! daemon write (`summary.json`, `GET /v1/stats`, the benchmark
//! harness's own files). It is the smallest recursive-descent parser
//! that covers those documents: all JSON value shapes, UTF-16 escapes
//! included, with a depth cap instead of arbitrary-recursion trust.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (the documents' numbers are counts,
    /// seeds and timings, well inside `f64`'s exact-integer range).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in arrival order (the documents have no duplicate keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` on other shapes.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact `u64` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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
}

/// Nesting depth cap: the documents are shallow, so anything deeper than
/// this is garbage (or an attack).
const MAX_DEPTH: usize = 32;

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes: every delimiter the grammar looks at is ASCII.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn lookahead(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.lookahead() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.lookahead() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.lookahead() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .lookahead()
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .lookahead()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("bad escape \\{}", other as char));
                        }
                    }
                }
                b if b < 0x20 => {
                    return Err(format!("raw control char {b:#x} in string"));
                }
                _ => {
                    // Copy the whole unescaped run in one slice. It ends
                    // at an ASCII delimiter, and `text` is a `&str`, so
                    // both ends are char boundaries.
                    let start = self.pos - 1;
                    while self
                        .lookahead()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        // Surrogate pairs arrive as two consecutive \uXXXX escapes.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| "bad surrogate pair".to_owned());
                }
            }
            return Err("lone high surrogate".into());
        }
        char::from_u32(first).ok_or_else(|| "bad \\u escape".to_owned())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_owned())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_owned())?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.lookahead() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.lookahead() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.lookahead() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.lookahead() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_stats::JsonWriter;

    #[test]
    fn looks_up_object_members_and_reads_them_as_u64() {
        let doc = parse(r#"{"xml": "<generator/>", "nodes": 100, "seed": 7}"#).unwrap();
        assert_eq!(doc.get("xml").and_then(Json::as_str), Some("<generator/>"));
        assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(100));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_escapes_and_literals() {
        let doc = parse(r#"{"a": [1, -2.5, true, false, null], "s": "q\"\\\né😀"}"#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
            ]))
        );
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"\\\né😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "\"unterminated",
            "01x",
            "{\"a\": 1} trailing",
            "nul",
            // Raw control characters, lone surrogates, unknown escapes.
            "\"a\nb\"",
            "\"a\u{1f}\"",
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\x""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // The depth cap rejects pathological nesting.
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // One 1 MiB string value: a schema XML embedded in a document.
        // Re-validating the rest of the input per character made this
        // quadratic (≈ 16 s in a release build, far longer in a test
        // build); a hang must fail, not stall.
        let value = "é<generator attr='x'/>".repeat(48 * 1024);
        assert!(value.len() >= 1 << 20);
        let body = format!("{{\"schema_xml\": \"{value}\"}}");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(parse(&body));
        });
        let doc = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("parsing 1 MiB took more than 10 s")
            .expect("the body parses");
        assert_eq!(doc.get("schema_xml").and_then(Json::as_str), Some(&*value));
    }

    /// Builds a value from a tape of random numbers, writing it with the
    /// workspace's emitter while recording what the reader must return.
    fn write_value(tape: &mut std::slice::Iter<'_, u32>, depth: usize, w: &mut JsonWriter) -> Json {
        // Weighted towards the characters an emitter gets wrong.
        fn string(tape: &mut std::slice::Iter<'_, u32>) -> String {
            let len = tape.next().map_or(0, |n| n % 12);
            tape.take(len as usize)
                .map(|&n| match n % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => char::from_u32(n % 0x20).expect("a control character"),
                    3 => char::from_u32(0x1_0000 + n % 0xF_0000).expect("a non-BMP scalar"),
                    4 => char::from_u32(0x80 + n % 0xD000).expect("a BMP scalar"),
                    _ => char::from_u32(0x20 + n % 0x5F).expect("printable ASCII"),
                })
                .collect()
        }
        let pick = tape.next().copied().unwrap_or(0);
        match (pick % 5, depth < 4) {
            (0, true) => {
                w.begin_array();
                let items = (0..pick / 5 % 4).map(|_| write_value(tape, depth + 1, w));
                let items = items.collect();
                w.end_array();
                Json::Arr(items)
            }
            (1, true) => {
                w.begin_object();
                let members = (0..pick / 5 % 4).map(|_| {
                    let key = string(tape);
                    w.key(&key);
                    (key, write_value(tape, depth + 1, w))
                });
                let members = members.collect();
                w.end_object();
                Json::Obj(members)
            }
            (2, _) => {
                w.opt_uint(Some(u64::from(pick)).filter(|n| n % 2 == 0));
                if pick % 2 == 0 {
                    Json::Num(f64::from(pick))
                } else {
                    Json::Null
                }
            }
            (3, _) => {
                // Quarters are exact in binary and in two decimals.
                let x = f64::from(pick % 4096) / 4.0;
                w.fixed(x, 2);
                Json::Num(x)
            }
            _ => {
                let s = string(tape);
                w.string(&s);
                Json::Str(s)
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn what_the_writer_writes_the_reader_reads_back(
            tape in proptest::collection::vec(proptest::any::<u32>(), 0..200)
        ) {
            let mut w = JsonWriter::new();
            let written = write_value(&mut tape.iter(), 0, &mut w);
            let text = w.finish();
            proptest::prop_assert_eq!(parse(&text), Ok(written), "{}", text);
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-3.0).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Str("42".into()).as_u64(), None);
    }
}
