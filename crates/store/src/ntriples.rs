//! N-Triples output (and a reader for round-trip tests).
//!
//! Section 1.1: gMark "supports various practical output formats for the
//! graphs …, including N-triples for data". Nodes and predicates are mapped
//! to IRIs under a configurable base, matching the RDF serialization the
//! SPARQL engines of Section 7 consume.
//!
//! Predicate names come from user-authored schemas and may contain
//! characters that are illegal inside an IRI (spaces, `>`, quotes) or
//! non-ASCII text; they are percent-encoded as a single path segment on
//! write ([`encode_segment`]) and decoded on read, so every emitted line is
//! valid N-Triples regardless of the schema's alphabet. The base IRI is
//! likewise escaped just enough to be legal ([`encode_iri_base`]) while
//! leaving IRI structure (`:`, `/`, `#`, …) intact.

use crate::sink::EdgeSink;
use crate::{NodeId, PredIdx};
use std::io::{self, BufRead, Write};

/// RFC 3986 "unreserved" characters, the only bytes a path segment keeps
/// verbatim; everything else is written as uppercase `%XX` per UTF-8 byte.
#[inline]
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// Percent-encodes `s` as one IRI path segment: RFC 3986 unreserved bytes
/// pass through, every other byte (including `/`, `%`, spaces, and each
/// byte of a non-ASCII codepoint) becomes uppercase `%XX`.
pub fn encode_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xF) as usize] as char);
        }
    }
    out
}

/// Decodes a percent-encoded path segment produced by [`encode_segment`].
///
/// Returns `None` on truncated or non-hex escapes and on escape sequences
/// that do not decode to valid UTF-8.
pub fn decode_segment(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16))?;
            let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16))?;
            out.push((hi as u8) << 4 | lo as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Escapes the characters an N-Triples `IRIREF` production forbids
/// (controls, space, `<`, `>`, `"`, `{`, `}`, `|`, `^`, `` ` ``, `\`)
/// while leaving IRI structure — scheme separators, slashes, fragments,
/// existing `%XX` escapes, non-ASCII — untouched.
pub fn encode_iri_base(base: &str) -> String {
    let mut out = String::with_capacity(base.len());
    for c in base.chars() {
        let illegal = c <= ' '
            || matches!(
                c,
                '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\' | '\u{7f}'
            );
        if illegal {
            let b = c as u8;
            out.push('%');
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xF) as usize] as char);
        } else {
            out.push(c);
        }
    }
    out
}

/// Precomputed IRI fragments for one `(base, predicate names)` pair: the
/// shared subject prefix and, per predicate, everything between the
/// subject's and the object's node id.
///
/// Encoding the predicate alphabet is O(total name length); done once and
/// shared (behind an [`Arc`](std::sync::Arc)) across the one writer per
/// unit of the ordered streaming pipeline.
#[derive(Debug)]
pub struct NTriplesFormat {
    /// `"<base/node/"` — what every line starts with.
    node_prefix: String,
    /// `"> <base/pred/NAME> <base/node/"` per predicate index.
    pred_infix: Vec<String>,
}

/// What every line ends with, after the object's node id.
const LINE_END: &[u8] = b"> .\n";

/// `"00" "01" … "99"`: two decimal digits per lookup.
static DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends `n` in decimal, two digits per division — what `{n}` renders,
/// without the `core::fmt` machinery.
#[inline]
fn push_decimal(buf: &mut Vec<u8>, mut n: NodeId) {
    let mut digits = [0u8; 10]; // u32::MAX has ten digits
    let mut at = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    buf.extend_from_slice(&digits[at..]);
}

impl NTriplesFormat {
    /// Precomputes the IRI fragments for a base (no trailing slash needed)
    /// and predicate alphabet.
    pub fn new(predicate_names: &[String], base: &str) -> Self {
        let base = encode_iri_base(base.trim_end_matches('/'));
        let node_prefix = format!("<{base}/node/");
        NTriplesFormat {
            pred_infix: predicate_names
                .iter()
                .map(|n| format!("> <{base}/pred/{}> {node_prefix}", encode_segment(n)))
                .collect(),
            node_prefix,
        }
    }

    /// Appends the line `<base/node/S> <base/pred/NAME> <base/node/T> .\n`
    /// to `buf`: three precomputed slices and two hand-formatted decimals.
    /// This is the kernel under every `graph.nt` this workspace writes.
    #[inline]
    pub fn push_line(&self, buf: &mut Vec<u8>, src: NodeId, pred: PredIdx, trg: NodeId) {
        let infix = self.pred_infix[pred].as_bytes();
        buf.reserve(self.node_prefix.len() + infix.len() + LINE_END.len() + 20);
        buf.extend_from_slice(self.node_prefix.as_bytes());
        push_decimal(buf, src);
        buf.extend_from_slice(infix);
        push_decimal(buf, trg);
        buf.extend_from_slice(LINE_END);
    }
}

/// Bytes an [`NTriplesWriter`] formats before it hands them to its output
/// in one `write_all`: large enough that a file sees few, large writes and
/// a `BufWriter` underneath is bypassed, small enough to stay in cache
/// between formatting and the copy out.
const BLOCK_BYTES: usize = 256 * 1024;

/// Streams edges as N-Triples lines:
/// `<base/node/S> <base/pred/NAME> <base/node/T> .`
///
/// `NAME` is the percent-encoded predicate name; the base is escaped via
/// [`encode_iri_base`]. Lines are formatted by [`NTriplesFormat::push_line`]
/// into an owned 256 KiB block that is written out whole — the
/// streamed pipeline, the materialised serialiser and the daemon's builds
/// all go through this writer.
#[derive(Debug)]
pub struct NTriplesWriter<W: Write> {
    out: W,
    format: std::sync::Arc<NTriplesFormat>,
    block: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> NTriplesWriter<W> {
    /// Creates a writer with the default base IRI `http://gmark.example.org`.
    pub fn new(out: W, predicate_names: Vec<String>) -> Self {
        Self::with_base(out, predicate_names, "http://gmark.example.org")
    }

    /// Creates a writer with a custom base IRI (no trailing slash).
    pub fn with_base(out: W, predicate_names: Vec<String>, base: &str) -> Self {
        Self::with_format(
            out,
            std::sync::Arc::new(NTriplesFormat::new(&predicate_names, base)),
        )
    }

    /// Creates a writer over precomputed IRI fragments; the cheap
    /// constructor when many writers share one format (one per unit of
    /// the ordered pipeline).
    pub fn with_format(out: W, format: std::sync::Arc<NTriplesFormat>) -> Self {
        NTriplesWriter {
            out,
            format,
            block: Vec::with_capacity(BLOCK_BYTES + 256),
            written: 0,
            error: None,
        }
    }

    /// Number of triples accepted so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Hands the block to the output. After the first failure the writer
    /// is dead: [`EdgeSink::edge`] becomes a no-op and
    /// [`NTriplesWriter::finish`] reports the error.
    fn flush_block(&mut self) {
        if let Err(e) = self.out.write_all(&self.block) {
            self.error = Some(e);
        }
        self.block.clear();
    }

    /// Finishes writing: the last partial block, then a flush of the
    /// stream, surfacing any deferred I/O error (the [`EdgeSink`]
    /// interface is infallible, so errors are captured and reported here).
    pub fn finish(mut self) -> io::Result<u64> {
        if self.error.is_none() && !self.block.is_empty() {
            self.flush_block();
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> EdgeSink for NTriplesWriter<W> {
    #[inline]
    fn edge(&mut self, src: NodeId, pred: PredIdx, trg: NodeId) {
        if self.error.is_some() {
            return;
        }
        self.format.push_line(&mut self.block, src, pred, trg);
        self.written += 1;
        if self.block.len() >= BLOCK_BYTES {
            self.flush_block();
        }
    }
}

/// Parses N-Triples produced by [`NTriplesWriter`] back into raw triples,
/// resolving percent-encoded predicate IRIs against `predicate_names`.
///
/// This is a round-trip reader for gMark's own output (full N-Triples
/// generality — literals, blank nodes — is out of scope). It is strict
/// about what it does accept: every line must be exactly
/// `<s> <p> <o> .` with nothing after the terminating dot, every IRI in
/// the **file** must share one base (a base mismatch means the file was
/// not produced by the writer configuration the caller assumed — node ids
/// from different bases live in different id spaces and must not be
/// conflated), and malformed lines are rejected with their 1-based line
/// number and a reason.
pub fn read_ntriples<R: BufRead>(
    input: R,
    predicate_names: &[String],
) -> io::Result<Vec<(NodeId, PredIdx, NodeId)>> {
    let mut triples = Vec::new();
    let mut file_base: Option<String> = None;
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let malformed = |reason: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed N-Triples line {}: {reason}: {line}", lineno + 1),
            )
        };
        let (base, triple) = parse_line(line, predicate_names).map_err(malformed)?;
        match &file_base {
            // Own the base once (first line); every later line compares
            // borrowed slices — no per-line allocation on this path.
            None => file_base = Some(base.to_owned()),
            Some(expected) if expected.as_str() != base => {
                return Err(malformed(format!(
                    "IRI base {base:?} differs from the file's base {expected:?}"
                )))
            }
            Some(_) => {}
        }
        triples.push(triple);
    }
    Ok(triples)
}

/// Parses one line, returning its (shared) IRI base — borrowed from
/// `line`, so the happy path allocates nothing — and the triple.
fn parse_line<'a>(
    line: &'a str,
    predicate_names: &[String],
) -> Result<(&'a str, (NodeId, PredIdx, NodeId)), String> {
    let mut parts = line.split_whitespace();
    let subj = parts.next().ok_or("missing subject")?;
    let pred = parts.next().ok_or("missing predicate")?;
    let obj = parts.next().ok_or("missing object")?;
    match parts.next() {
        Some(".") => {}
        Some(other) => return Err(format!("expected terminating '.', found {other:?}")),
        None => return Err("missing terminating '.'".to_owned()),
    }
    if let Some(garbage) = parts.next() {
        return Err(format!("trailing garbage after '.': {garbage:?}"));
    }

    fn inner<'b>(iri: &'b str, what: &str) -> Result<&'b str, String> {
        iri.strip_prefix('<')
            .and_then(|s| s.strip_suffix('>'))
            .ok_or_else(|| format!("{what} is not an IRI"))
    }
    // Split `<base/node/ID>` into (base, id); `rsplit_once` tolerates
    // bases that themselves contain `/node/`.
    fn node_parts<'b>(iri: &'b str, what: &str) -> Result<(&'b str, NodeId), String> {
        let inner = inner(iri, what)?;
        let (base, id) = inner
            .rsplit_once("/node/")
            .ok_or_else(|| format!("{what} has no /node/ segment"))?;
        let id = id
            .parse()
            .map_err(|_| format!("{what} node id {id:?} is not an integer"))?;
        Ok((base, id))
    }

    let (subj_base, src) = node_parts(subj, "subject")?;
    let (obj_base, trg) = node_parts(obj, "object")?;
    let pred_inner = inner(pred, "predicate")?;
    let (pred_base, pred_enc) = pred_inner
        .rsplit_once("/pred/")
        .ok_or("predicate has no /pred/ segment")?;
    // A segment without '%' decodes to itself — compare in place and keep
    // the happy path for ordinary predicate names allocation-free.
    let pred_idx = if pred_enc.contains('%') {
        let pred_name = decode_segment(pred_enc)
            .ok_or_else(|| format!("undecodable predicate {pred_enc:?}"))?;
        predicate_names.iter().position(|n| n == &pred_name)
    } else {
        predicate_names.iter().position(|n| n == pred_enc)
    }
    .ok_or_else(|| format!("unknown predicate {pred_enc:?}"))?;
    if subj_base != pred_base || subj_base != obj_base {
        return Err(format!(
            "inconsistent IRI bases: subject {subj_base:?}, predicate {pred_base:?}, \
             object {obj_base:?}"
        ));
    }
    Ok((subj_base, (src, pred_idx, trg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["authors".to_owned(), "heldIn".to_owned()]
    }

    #[test]
    fn writes_expected_lines() {
        let mut buf = Vec::new();
        {
            let mut w = NTriplesWriter::new(&mut buf, names());
            w.edge(0, 0, 42);
            w.edge(7, 1, 3);
            assert_eq!(w.finish().unwrap(), 2);
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "<http://gmark.example.org/node/0> <http://gmark.example.org/pred/authors> \
             <http://gmark.example.org/node/42> ."
        );
        assert_eq!(
            lines.next().unwrap(),
            "<http://gmark.example.org/node/7> <http://gmark.example.org/pred/heldIn> \
             <http://gmark.example.org/node/3> ."
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn push_line_renders_every_digit_count_like_format() {
        // 0, 9, 10, 99, 100, … around every power of ten, up to u32::MAX.
        let mut ids = vec![0u32, u32::MAX, u32::MAX - 1];
        let mut p = 1u64;
        while p <= u32::MAX as u64 {
            for id in [p - 1, p, p + 1] {
                if let Ok(id) = u32::try_from(id) {
                    ids.push(id);
                }
            }
            p *= 10;
        }
        let names = vec!["has part".to_owned(), "café/µ".to_owned()];
        let format = NTriplesFormat::new(&names, "http://ex.org/my graphs/");
        for (i, &src) in ids.iter().enumerate() {
            let trg = ids[ids.len() - 1 - i];
            let pred = i % names.len();
            let mut line = Vec::new();
            format.push_line(&mut line, src, pred, trg);
            let name = encode_segment(&names[pred]);
            assert_eq!(
                String::from_utf8(line).unwrap(),
                format!(
                    "<http://ex.org/my%20graphs/node/{src}> \
                     <http://ex.org/my%20graphs/pred/{name}> \
                     <http://ex.org/my%20graphs/node/{trg}> .\n"
                )
            );
        }
    }

    #[test]
    fn blocks_are_flushed_whole_and_the_tail_on_finish() {
        /// Records the size of every `write` it receives.
        struct Sizes(Vec<usize>);
        impl Write for Sizes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sizes = Sizes(Vec::new());
        let mut w = NTriplesWriter::new(&mut sizes, names());
        let lines = 10_000u32; // ≈ 1 MB: several whole blocks and a tail
        for i in 0..lines {
            w.edge(i, 0, i);
        }
        assert_eq!(w.finish().unwrap(), lines as u64);
        let (tail, whole) = sizes.0.split_last().unwrap();
        assert!(whole.len() >= 3, "{:?}", sizes.0);
        assert!(whole.iter().all(|&n| n >= BLOCK_BYTES), "{:?}", sizes.0);
        assert!(*tail > 0 && *tail < BLOCK_BYTES + 256, "{:?}", sizes.0);
    }

    #[test]
    fn first_write_error_kills_the_writer_and_finish_reports_it() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = NTriplesWriter::new(Full, names());
        for i in 0..10_000 {
            w.edge(i, 0, i);
        }
        let accepted = w.written();
        assert!(accepted < 10_000, "edges after the failure are dropped");
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn custom_base_is_used() {
        let mut buf = Vec::new();
        {
            let mut w = NTriplesWriter::with_base(&mut buf, names(), "http://ex.org/");
            w.edge(1, 0, 2);
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("<http://ex.org/node/1>"), "{text}");
    }

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = NTriplesWriter::new(&mut buf, names());
            w.edge(0, 0, 1);
            w.edge(2, 1, 0);
            w.edge(3, 0, 3);
            w.finish().unwrap();
        }
        let triples = read_ntriples(buf.as_slice(), &names()).unwrap();
        assert_eq!(triples, vec![(0, 0, 1), (2, 1, 0), (3, 0, 3)]);
    }

    #[test]
    fn hostile_predicate_names_produce_valid_ascii_iris() {
        let hostile = vec![
            "has part".to_owned(),
            "a>b\"c".to_owned(),
            "café/µ".to_owned(),
        ];
        let mut buf = Vec::new();
        {
            let mut w = NTriplesWriter::new(&mut buf, hostile.clone());
            w.edge(0, 0, 1);
            w.edge(1, 1, 2);
            w.edge(2, 2, 0);
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf.clone()).unwrap();
        for line in text.lines() {
            assert!(line.is_ascii(), "IRIs must be pure ASCII: {line}");
            // Between the angle brackets nothing an IRIREF forbids survives.
            for iri in line.split_whitespace().take(3) {
                let inner = iri
                    .strip_prefix('<')
                    .and_then(|s| s.strip_suffix('>'))
                    .unwrap_or_else(|| panic!("not bracketed: {iri}"));
                assert!(
                    !inner.contains(['<', '>', '"', ' ', '{', '}', '|', '^', '`', '\\']),
                    "illegal IRI char survived: {inner}"
                );
            }
        }
        assert!(text.contains("has%20part"), "{text}");
        let back = read_ntriples(buf.as_slice(), &hostile).unwrap();
        assert_eq!(back, vec![(0, 0, 1), (1, 1, 2), (2, 2, 0)]);
    }

    #[test]
    fn hostile_base_is_escaped() {
        let mut buf = Vec::new();
        {
            let mut w = NTriplesWriter::with_base(&mut buf, names(), "http://ex.org/my graphs");
            w.edge(1, 0, 2);
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(
            text.starts_with("<http://ex.org/my%20graphs/node/1>"),
            "{text}"
        );
        let back = read_ntriples(buf.as_slice(), &names()).unwrap();
        assert_eq!(back, vec![(1, 0, 2)]);
    }

    #[test]
    fn segment_codec_round_trips() {
        for s in ["plain", "with space", "ü/µ%", "a.b-c_d~e", "100%"] {
            assert_eq!(decode_segment(&encode_segment(s)).as_deref(), Some(s));
        }
        assert_eq!(decode_segment("%2"), None, "truncated escape");
        assert_eq!(decode_segment("%zz"), None, "non-hex escape");
        assert_eq!(decode_segment("%FF"), None, "invalid UTF-8");
    }

    #[test]
    fn reader_skips_comments_and_blanks() {
        let input =
            "# a comment\n\n<http://g/node/1> <http://g/pred/authors> <http://g/node/2> .\n";
        let triples = read_ntriples(input.as_bytes(), &names()).unwrap();
        assert_eq!(triples, vec![(1, 0, 2)]);
    }

    #[test]
    fn reader_rejects_malformed() {
        let input = "<oops> .\n";
        assert!(read_ntriples(input.as_bytes(), &names()).is_err());
        let unknown_pred = "<http://g/node/1> <http://g/pred/nope> <http://g/node/2> .\n";
        assert!(read_ntriples(unknown_pred.as_bytes(), &names()).is_err());
    }

    #[test]
    fn reader_rejects_trailing_garbage_with_line_number() {
        let input = "<http://g/node/1> <http://g/pred/authors> <http://g/node/2> .\n\
                     <http://g/node/1> <http://g/pred/authors> <http://g/node/2> . extra\n";
        let err = read_ntriples(input.as_bytes(), &names()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("trailing garbage"), "{msg}");
    }

    #[test]
    fn reader_rejects_inconsistent_bases() {
        let input = "<http://a/node/1> <http://b/pred/authors> <http://a/node/2> .\n";
        let err = read_ntriples(input.as_bytes(), &names()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("inconsistent IRI bases"), "{msg}");
    }

    #[test]
    fn reader_rejects_mixed_bases_across_lines() {
        // Two internally-consistent lines with different bases: their node
        // id spaces are unrelated, so the file must be rejected.
        let input = "<http://a/node/1> <http://a/pred/authors> <http://a/node/2> .\n\
                     <http://b/node/1> <http://b/pred/authors> <http://b/node/2> .\n";
        let err = read_ntriples(input.as_bytes(), &names()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("differs from the file's base"), "{msg}");
    }

    #[test]
    fn reader_rejects_non_numeric_node_ids() {
        let input = "<http://g/node/x> <http://g/pred/authors> <http://g/node/2> .\n";
        let err = read_ntriples(input.as_bytes(), &names()).unwrap_err();
        assert!(err.to_string().contains("not an integer"), "{err}");
    }
}
