//! Hand-rolled HTTP/1.1 framing for `gmark serve` — no dependencies,
//! matching the workspace's offline rule.
//!
//! The dialect is deliberately small: `Content-Length` request bodies
//! only (no chunked *uploads*), capped head and body sizes, and two
//! response shapes — fixed `Content-Length` or `Transfer-Encoding:
//! chunked` (how artifact bytes stream back without knowing their size
//! up front, and without buffering the socket write). Connections are
//! persistent by default (HTTP/1.1 keep-alive semantics: reuse unless
//! the client sends `Connection: close`, honor `keep-alive` from
//! HTTP/1.0 clients); the per-connection request loop lives in the
//! routes layer, which decides per response whether the connection
//! stays open and tells [`write_response`]/[`write_chunked`] what
//! `Connection:` header to emit. One client lives at the bottom: the
//! reusable [`Client`] frames responses exactly so the same TCP
//! connection can carry many requests, and one-shot [`fetch`] is that
//! client used once with `Connection: close` (tolerant of a response
//! that arrives before the request is fully sent); the integration tests
//! and bench drivers use both, curl fills the same role in CI.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Chunk size of chunked responses.
const CHUNK_BYTES: usize = 64 * 1024;

/// One parsed request: method, split target, lowercased headers, body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// The path half of the request target (before `?`), percent-decoded.
    pub path: String,
    /// The query half, percent-decoded into `(key, value)` pairs in
    /// arrival order. Valueless keys get an empty value.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open afterwards:
    /// HTTP/1.1 defaults to yes unless `Connection: close`, HTTP/1.0 to
    /// no unless `Connection: keep-alive`. The server may still close
    /// (cap reached, shutdown, idle) — this is the client's side of the
    /// negotiation only.
    pub keep_alive: bool,
}

impl Request {
    /// The first query parameter with this name, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Case-insensitive lookup in a list of headers with lowercased names.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Why a request could not be read. [`HttpError::status`] maps each case
/// to the response the server writes before closing the connection.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed (client went away, timeout): nothing to answer.
    Io(io::Error),
    /// The client closed the connection cleanly before sending any
    /// byte of a next request — the normal end of a kept-alive
    /// connection, not a fault.
    Closed,
    /// The bytes were not an HTTP/1.x request we understand.
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// A body-carrying method arrived without `Content-Length`.
    LengthRequired,
}

impl HttpError {
    /// The response status for this failure (`0` = connection-level,
    /// nothing can be written).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 0,
            HttpError::Closed => 0,
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge(_) => 413,
            HttpError::LengthRequired => 411,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Closed => write!(f, "connection closed before a request"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::LengthRequired => write!(f, "POST requires Content-Length"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    // Read until the blank line ending the head, never past the cap.
    let mut head = Vec::with_capacity(1024);
    let mut byte = [0u8; 1];
    let head_end = loop {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            // EOF before the first byte is a clean keep-alive close;
            // EOF inside a head is a fault.
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("connection closed mid-head".into())
            });
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break head.len();
        }
    };
    let head_text = std::str::from_utf8(&head[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));

    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("no method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("no request target".into()))?;
    let http10 = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v == "HTTP/1.0",
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request".into())),
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive: false,
    };
    request.keep_alive = match request.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => !http10,
    };

    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::LengthRequired);
        }
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request { body, ..request })
}

/// The standard reason phrase of the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one fixed-length response and flushes. `keep_alive` picks the
/// `Connection:` header — the caller (the per-connection request loop)
/// owns the decision and must actually close the stream when it says
/// `close`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let framing = format!("Content-Length: {}", body.len());
    stream.write_all(response_head(status, headers, &framing, keep_alive).as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// The status line, the caller's headers, how the body is framed, and
/// whether the connection stays open.
fn response_head(status: u16, headers: &[(&str, &str)], framing: &str, keep_alive: bool) -> String {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(framing);
    head.push_str(if keep_alive {
        "\r\nConnection: keep-alive\r\n\r\n"
    } else {
        "\r\nConnection: close\r\n\r\n"
    });
    head
}

/// Writes one `Transfer-Encoding: chunked` response and flushes: the
/// artifact-streaming shape of `POST /v1/run`. The payload bytes the
/// client reassembles are exactly `body` — chunking is framing, not
/// content — so artifact responses stay byte-identical to the CLI files.
pub fn write_chunked(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = response_head(status, headers, "Transfer-Encoding: chunked", keep_alive);
    stream.write_all(head.as_bytes())?;
    for chunk in body.chunks(CHUNK_BYTES) {
        write!(stream, "{:x}\r\n", chunk.len())?;
        stream.write_all(chunk)?;
        stream.write_all(b"\r\n")?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A plain-text error response body (`gmark: <message>`), mirroring the
/// CLI's stderr shape.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let body = format!("gmark: {message}\n");
    write_response(
        stream,
        status,
        &[("Content-Type", "text/plain; charset=utf-8")],
        body.as_bytes(),
        keep_alive,
    )
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response read back by [`fetch`].
#[derive(Debug)]
pub struct ClientResponse {
    /// The response status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The reassembled body (chunked responses are de-chunked).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the server announced it will close the connection after
    /// this response — a [`Client`] holder must reconnect before the
    /// next request.
    pub fn close_after(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One request on a connection of its own: connect, send with
/// `Connection: close`, read one framed response. What the integration
/// tests and the benchmark harness speak to the server (curl fills the
/// same role in CI).
///
/// A server may answer before reading the whole request (a 429 from
/// admission control does exactly that), so a write failure is reported
/// only if no response can be read afterwards.
pub fn fetch(
    addr: impl ToSocketAddrs,
    method: &str,
    path_and_query: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut client = Client::connect(addr)?;
    let wrote = client.send(method, path_and_query, body, "Connection: close\r\n");
    client.read_response().map_err(|e| wrote.err().unwrap_or(e))
}

/// A reusable HTTP/1.1 client: one TCP connection, many requests.
///
/// Each response is framed exactly (by `Content-Length`, chunk by chunk,
/// or — with neither — by the close of the connection) so the next
/// request can ride the same socket: the client half of the server's
/// keep-alive fast path. The integration tests' keep-alive pins and the
/// `drive` bench driver use it; [`fetch`] is the same reader used once.
/// After a response announcing `Connection: close`
/// ([`ClientResponse::close_after`]) the holder must reconnect.
pub struct Client<S = TcpStream> {
    stream: S,
    /// Socket bytes read but not yet consumed by response framing.
    buf: Vec<u8>,
}

impl Client {
    /// Connects, with generous timeouts. `TCP_NODELAY` is set: a
    /// request/response protocol writing small frames on a reused
    /// connection would otherwise trip over Nagle + delayed-ACK stalls
    /// (~40 ms per request).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads exactly one framed response, leaving
    /// the connection ready for the next call (unless the response says
    /// otherwise).
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.send(method, path_and_query, body, "")?;
        self.read_response()
    }

    fn send(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        extra_headers: &str,
    ) -> io::Result<()> {
        let head = format!(
            "{method} {path_and_query} HTTP/1.1\r\nHost: gmark\r\nContent-Length: {}\r\n\
             {extra_headers}\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }
}

fn invalid(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("response: {what}"))
}

impl<S: Read> Client<S> {
    /// Reads one response off the connection: head, then the body as the
    /// head frames it.
    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head = self.take_until(b"\r\n\r\n")?;
        let head = std::str::from_utf8(&head).map_err(|_| invalid("head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|status_line| status_line.split_ascii_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_owned()))
            .collect();
        let header = |name| find_header(&headers, name);

        let body = if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            self.dechunk()?
        } else if let Some(length) = header("content-length") {
            let length = length
                .parse()
                .map_err(|_| invalid(format_args!("bad Content-Length {length:?}")))?;
            self.take(length)?
        } else {
            // Neither framing: the body runs to the close of the
            // connection.
            while self.fill()? {}
            std::mem::take(&mut self.buf)
        };
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// Reassembles a chunked body: the one de-chunker.
    fn dechunk(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let size_line = String::from_utf8(self.take_until(b"\r\n")?)
                .map_err(|_| invalid("chunk size not UTF-8"))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| invalid(format_args!("bad chunk size {size_line:?}")))?;
            // Chunk payload plus its trailing CRLF (the zero chunk has an
            // empty payload, so this consumes the final one). The size is
            // the peer's: `ffffffffffffffff` must not wrap.
            let framed = size
                .checked_add(2)
                .ok_or_else(|| invalid(format_args!("chunk size {size_line:?} overflows")))?;
            let mut chunk = self.take(framed)?;
            if size == 0 {
                return Ok(out);
            }
            chunk.truncate(size);
            out.append(&mut chunk);
        }
    }

    /// Reads more socket bytes into the buffer; `false` at EOF.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n > 0)
    }

    /// [`Client::fill`] where framing said more bytes must come.
    fn fill_more(&mut self) -> io::Result<()> {
        let closed = || {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )
        };
        self.fill()?.then_some(()).ok_or_else(closed)
    }

    /// Consumes exactly `n` bytes off the front of the stream.
    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill_more()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Consumes the stream up to and including `end`, returning what came
    /// before it.
    fn take_until(&mut self, end: &[u8]) -> io::Result<Vec<u8>> {
        let at = loop {
            if let Some(p) = self.buf.windows(end.len()).position(|w| w == end) {
                break p;
            }
            self.fill_more()?;
        };
        let mut taken: Vec<u8> = self.buf.drain(..at + end.len()).collect();
        taken.truncate(at);
        Ok(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("no-escapes"), "no-escapes");
        assert_eq!(percent_decode("dangling%2"), "dangling%2");
        assert_eq!(percent_decode("%3Cxml%3E"), "<xml>");
    }

    /// A client over canned bytes: the framing code without a socket.
    fn over(raw: &[u8]) -> Client<&[u8]> {
        Client {
            stream: raw,
            buf: Vec::new(),
        }
    }

    #[test]
    fn dechunking_reassembles_the_payload() {
        let framed = b"3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n";
        assert_eq!(over(framed).dechunk().unwrap(), b"abcdefg");
        assert_eq!(over(b"0\r\n\r\n").dechunk().unwrap(), b"");
        assert!(over(b"5\r\nab\r\n").dechunk().is_err(), "truncated chunk");
        assert!(over(b"zz\r\nab\r\n").dechunk().is_err(), "bad size");
        // A size whose `+ 2` would wrap is refused, not allocated.
        let err = over(b"ffffffffffffffff\r\nab\r\n").dechunk().unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        assert!(
            over(b"fffffffffffffff0\r\nab\r\n").dechunk().is_err(),
            "a huge chunk that never arrives"
        );
    }

    #[test]
    fn client_response_parser_reads_status_headers_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi";
        let resp = over(raw).read_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert_eq!(resp.body, b"hi");

        // Two framed responses back to back stay apart.
        let two = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n\
                    HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut client = over(two);
        assert_eq!(client.read_response().unwrap().body, b"hi");
        assert_eq!(client.read_response().unwrap().status, 404);
        assert!(client.read_response().is_err(), "nothing left");

        // Neither Content-Length nor chunking: the body runs to EOF.
        let unframed = b"HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nall of this";
        let resp = over(unframed).read_response().unwrap();
        assert!(resp.close_after());
        assert_eq!(resp.body, b"all of this");

        // A body shorter than its Content-Length is an error, not a
        // truncated success.
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi";
        assert!(over(short).read_response().is_err());
    }
}
