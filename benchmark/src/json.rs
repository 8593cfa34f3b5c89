//! A JSON value and its serializer: everything the benchmark prints for
//! machines (the result document, the driver's result line, trace files)
//! goes through this one emitter.

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact non-negative integer (counts, nanoseconds, byte sizes).
    Int(u64),
    /// A measured number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// every control character.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact, single-line JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // Rust prints the shortest decimal that round-trips and never
            // an exponent, which is always a valid JSON number.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\te\u{1}f\u{e9}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\u{e9}\"");
        // Keys go through the same escaping.
        let o = Json::obj([("k\"", Json::Null)]);
        assert_eq!(o.to_string(), "{\"k\\\"\":null}");
    }

    #[test]
    fn emitted_documents_parse_back_with_the_repo_parser() {
        let doc = Json::obj([
            ("name", Json::str("serve-hot \"quoted\" \\ path\n")),
            ("n", Json::Int(40_000)),
            ("x", Json::Num(0.000_012_5)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("list", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "one line: {text}");
        let parsed = gmark::serve::json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("serve-hot \"quoted\" \\ path\n")
        );
        assert_eq!(parsed.get("n").and_then(|v| v.as_u64()), Some(40_000));
        assert_eq!(parsed.get("ok").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(Json::Num(1.2034).to_string(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
