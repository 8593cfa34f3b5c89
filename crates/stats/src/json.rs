//! The workspace's one JSON emitter.
//!
//! Every producer of JSON — `summary.json`, `/v1/stats`, the histogram
//! row, the bench rows — writes through [`JsonWriter`], so escaping and
//! comma placement exist once. It lives here because this is the only
//! crate below all of them. The output is compact (no whitespace) and
//! keys appear in call order, which is what keeps `summary.json`
//! byte-comparable across commits.
//!
//! ```
//! use gmark_stats::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name").string("a \"b\"\n");
//! w.key("sizes").begin_array().uint(1).opt_uint(None).end_array();
//! w.key("seconds").fixed(0.25, 3).key("ok").bool(true);
//! w.key("nested").begin_array().begin_object().end_object().raw("{\"x\":1}");
//! w.end_array().end_object();
//! assert_eq!(
//!     w.finish(),
//!     r#"{"name":"a \"b\"\n","sizes":[1,null],"seconds":0.250,"ok":true,"nested":[{},{"x":1}]}"#
//! );
//! ```

use std::fmt::{Arguments, Write as _};

/// Builds one JSON value into a `String`, placing the commas itself: a
/// separator goes before every value or key that follows a finished value
/// in the same object or array. Balancing `begin_*`/`end_*` and giving
/// every object value a key is the caller's side of the contract.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the last thing written was a finished value.
    after_value: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes a separator if one is due, then `text`; `finished` says
    /// whether that completed a value.
    fn put(&mut self, text: Arguments<'_>, finished: bool) -> &mut JsonWriter {
        if self.after_value {
            self.out.push(',');
        }
        let _ = self.out.write_fmt(text);
        self.after_value = finished;
        self
    }

    /// Closes an object or array, which makes it a finished value.
    fn close(&mut self, bracket: char) -> &mut JsonWriter {
        self.out.push(bracket);
        self.after_value = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut JsonWriter {
        self.put(format_args!("{{"), false)
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut JsonWriter {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut JsonWriter {
        self.put(format_args!("["), false)
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut JsonWriter {
        self.close(']')
    }

    /// Writes `"key":`; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.put(format_args!("{}:", Escaped(key)), false)
    }

    /// A string literal with RFC 8259 escaping.
    pub fn string(&mut self, s: &str) -> &mut JsonWriter {
        self.put(format_args!("{}", Escaped(s)), true)
    }

    /// An unsigned integer.
    pub fn uint(&mut self, n: u64) -> &mut JsonWriter {
        self.put(format_args!("{n}"), true)
    }

    /// An unsigned integer, or `null`.
    pub fn opt_uint(&mut self, n: Option<u64>) -> &mut JsonWriter {
        match n {
            Some(n) => self.uint(n),
            None => self.null(),
        }
    }

    /// A finite float with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut JsonWriter {
        self.put(format_args!("{x:.decimals$}"), true)
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut JsonWriter {
        self.put(format_args!("{b}"), true)
    }

    /// `null`.
    pub fn null(&mut self) -> &mut JsonWriter {
        self.put(format_args!("null"), true)
    }

    /// An already serialized JSON value, spliced in as is.
    pub fn raw(&mut self, json: &str) -> &mut JsonWriter {
        self.put(format_args!("{json}"), true)
    }
}

/// A string as a JSON literal.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}
