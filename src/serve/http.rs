//! Hand-rolled HTTP/1.1 framing for `gmark serve` — no dependencies,
//! matching the workspace's offline rule.
//!
//! The dialect is deliberately small: `Content-Length` request bodies
//! only (no chunked *uploads*), capped head and body sizes, and two
//! response shapes — fixed `Content-Length` or `Transfer-Encoding:
//! chunked` (how artifact bytes stream back without knowing their size
//! up front). Request framing is strict: the head ends at the first
//! blank line (`\r\n\r\n`, or a bare `\n\n`) within [`MAX_HEAD_BYTES`];
//! `Content-Length` is plain digits, given once or always alike; and a
//! request carrying `Transfer-Encoding` is refused, so no request can be
//! framed two ways.
//!
//! Every connection is one buffered [`Conn`]: the socket plus the bytes
//! read off it but not yet consumed. A request head normally arrives in
//! one `read` of up to 16 KiB, with its body (and any pipelined next
//! request) in the same read; what a request leaves in the buffer is
//! where the next one starts. On the server side every read waits at
//! most a 100 ms socket slice and the waits run against one deadline —
//! the idle window between requests, then 30 s for the head and body of
//! a request together — so a client that trickles bytes holds a worker
//! for at most that long. Each response is framed into one buffer and
//! leaves in one `write`; a chunked body past one 64 KiB chunk costs one
//! write per chunk.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive semantics:
//! reuse unless the client sends `Connection: close`, honor `keep-alive`
//! from HTTP/1.0 clients); the per-connection request loop lives in the
//! routes layer, which decides per response whether the connection stays
//! open and tells [`write_response`]/[`write_chunked`] what `Connection:`
//! header to emit. The same buffered reader is the client: a [`Client`]
//! frames responses exactly so the same TCP connection can carry many
//! requests, and one-shot [`fetch`] is that client used once with
//! `Connection: close` (tolerant of a response that arrives before the
//! request is fully sent); the integration tests use both, and curl fills
//! the same role in CI.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers + the blank
/// line ending them).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Chunk size of chunked responses.
const CHUNK_BYTES: usize = 64 * 1024;
/// Framing around the chunks of one write: a size line, the chunk's
/// CRLF, and the terminating zero chunk.
const CHUNK_FRAMING: usize = 16;
/// Bytes asked for by one `read`.
const READ_BYTES: usize = 16 * 1024;
/// How long one `read` on a server connection waits before the read loop
/// looks at its deadline (and, while idle, at the stop flag) again.
const READ_SLICE: Duration = Duration::from_millis(100);
/// How long the head and body of one request may take to arrive,
/// together.
pub(crate) const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Where a request head ends: the first blank line, either spelling.
const HEAD_ENDS: [&[u8]; 2] = [b"\r\n\r\n", b"\n\n"];

/// One parsed request: method, split target, lowercased headers, body.
#[derive(Debug, PartialEq, Eq)]
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
    /// (another connection queued, shutdown, idle) — this is the client's
    /// side of the negotiation only.
    pub keep_alive: bool,
}

impl Request {
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
    /// The socket failed (client went away, request deadline passed):
    /// nothing to answer.
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

/// How many body bytes the request's head declares. One framing only:
/// `Transfer-Encoding` is refused (chunked uploads are unsupported, and
/// a request framed two ways is how requests are smuggled past a proxy
/// that reads the other one), and `Content-Length` must be plain digits
/// — `usize::from_str` alone would take `+5` — with any repeat agreeing.
fn content_length(request: &Request) -> Result<usize, HttpError> {
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "Transfer-Encoding is not supported; send the body with Content-Length".into(),
        ));
    }
    let mut lengths = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let Some(length) = lengths.next() else {
        return match request.method.as_str() {
            "POST" | "PUT" => Err(HttpError::LengthRequired),
            _ => Ok(0),
        };
    };
    if lengths.any(|other| other != length) {
        return Err(HttpError::Malformed(
            "conflicting Content-Length headers".into(),
        ));
    }
    let bad = || HttpError::Malformed(format!("bad Content-Length {length:?}"));
    if length.is_empty() || !length.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    length.parse().map_err(|_| bad())
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

/// Writes one fixed-length response, head and body in one `write`, and
/// flushes. `keep_alive` picks the `Connection:` header — the caller (the
/// per-connection request loop) owns the decision and must actually
/// close the stream when it says `close`.
pub fn write_response<W: Write + ?Sized>(
    out: &mut W,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let framing = format!("Content-Length: {}", body.len());
    let mut message = response_head(status, headers, &framing, keep_alive).into_bytes();
    message.extend_from_slice(body);
    out.write_all(&message)?;
    out.flush()
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
///
/// Each chunk is framed into one buffer with everything before it that
/// has not gone out yet: a body of at most one chunk leaves with its
/// head and terminator in one `write`, a larger one in one per chunk.
pub fn write_chunked<W: Write + ?Sized>(
    out: &mut W,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = response_head(status, headers, "Transfer-Encoding: chunked", keep_alive);
    let mut frame = head.into_bytes();
    frame.reserve(body.len().min(CHUNK_BYTES) + CHUNK_FRAMING);
    for (i, chunk) in body.chunks(CHUNK_BYTES).enumerate() {
        if i > 0 {
            out.write_all(&frame)?;
            frame.clear();
        }
        write!(frame, "{:x}\r\n", chunk.len())?;
        frame.extend_from_slice(chunk);
        frame.extend_from_slice(b"\r\n");
    }
    frame.extend_from_slice(b"0\r\n\r\n");
    out.write_all(&frame)?;
    out.flush()
}

/// A plain-text error response body (`gmark: <message>`), mirroring the
/// CLI's stderr shape.
pub fn write_error<W: Write + ?Sized>(
    out: &mut W,
    status: u16,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let body = format!("gmark: {message}\n");
    write_response(
        out,
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

/// One buffered HTTP/1.1 connection: the stream plus the bytes read off
/// it but not yet consumed — the rest of a response, a pipelined next
/// request. The one reader for both directions: the server reads
/// requests through it, a [`Client`] reads responses, and since it is
/// generic over `S: Read` the framing runs over canned bytes as well as
/// sockets.
pub struct Conn<S = TcpStream> {
    stream: S,
    /// Bytes read but not yet consumed by framing.
    buf: Vec<u8>,
    /// Set on server connections: the instant the current wait for bytes
    /// gives up, with `TimedOut`. Their socket reads time out every
    /// 100 ms and are retried until then; without a deadline a read
    /// timeout is an error at once.
    deadline: Option<Instant>,
}

/// A reusable HTTP/1.1 client: one TCP connection, many requests.
///
/// Each response is framed exactly (by `Content-Length`, chunk by chunk,
/// or — with neither — by the close of the connection) so the next
/// request can ride the same socket: the client half of the server's
/// keep-alive fast path. The integration tests' keep-alive pins use it;
/// [`fetch`] is the same reader used once.
/// After a response announcing `Connection: close`
/// ([`ClientResponse::close_after`]) the holder must reconnect.
pub type Client = Conn<TcpStream>;

impl Conn<TcpStream> {
    /// Connects, with generous timeouts. `TCP_NODELAY` is set: a
    /// request/response protocol writing small frames on a reused
    /// connection would otherwise trip over Nagle + delayed-ACK stalls
    /// (~40 ms per request).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn::new(stream))
    }

    /// An accepted connection, set up for the server's read loop: each
    /// `read` waits at most one slice, so a deadline (or the stop flag,
    /// while idle) is looked at again every 100 ms.
    pub(crate) fn server(stream: TcpStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(READ_SLICE))?;
        Ok(Conn::new(stream))
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

impl<S> Conn<S> {
    /// A connection over `stream` with nothing buffered yet.
    pub fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            buf: Vec::new(),
            deadline: None,
        }
    }

    /// The stream, for writing responses.
    pub(crate) fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

impl<S: Read> Conn<S> {
    /// Reads one response off the connection: head, then the body as the
    /// head frames it.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head = self
            .take_until(&[b"\r\n\r\n"], MAX_HEAD_BYTES)?
            .ok_or_else(|| invalid(format_args!("head exceeds {MAX_HEAD_BYTES} bytes")))?;
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
            let size_line = self
                .take_until(&[b"\r\n"], MAX_HEAD_BYTES)?
                .ok_or_else(|| invalid("chunk size line too long"))?;
            let size_line =
                String::from_utf8(size_line).map_err(|_| invalid("chunk size not UTF-8"))?;
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

    /// Reads and parses one request. Bytes already buffered — a request
    /// pipelined behind the last one, a body that arrived with its head —
    /// are used first; bytes past this request's body stay buffered for
    /// the next. The head and body share one `deadline`: a client that
    /// has not sent the whole request by then gets `Io` with `TimedOut`,
    /// however steadily it trickles bytes.
    pub(crate) fn read_request(&mut self, deadline: Instant) -> Result<Request, HttpError> {
        self.deadline = Some(deadline);
        // EOF before the first byte is a clean keep-alive close; EOF
        // inside a head is a fault.
        if self.buf.is_empty() && !self.fill()? {
            return Err(HttpError::Closed);
        }
        let head = match self.take_until(&HEAD_ENDS, MAX_HEAD_BYTES) {
            Ok(Some(head)) => head,
            Ok(None) => return Err(HttpError::HeadTooLarge),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(HttpError::Malformed("connection closed mid-head".into()));
            }
            Err(e) => return Err(e.into()),
        };
        let head_text = std::str::from_utf8(&head)
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

        let content_length = content_length(&request)?;
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge(content_length));
        }
        let body = self.take(content_length)?;
        Ok(Request { body, ..request })
    }

    /// Waits up to `idle` for the next request to begin: `true` once a
    /// byte of it is buffered — at once for a pipelined one — and `false`
    /// when the client closed, the window ran out, the socket failed, or
    /// `stopping` said so (asked before every read slice).
    pub(crate) fn await_request(&mut self, idle: Duration, stopping: impl Fn() -> bool) -> bool {
        self.deadline = Some(Instant::now() + idle);
        !self.buf.is_empty() || matches!(self.fill_or(&stopping), Ok(true))
    }

    /// Reads more bytes into the buffer; `false` at EOF.
    fn fill(&mut self) -> io::Result<bool> {
        self.fill_or(&|| false)
    }

    /// The read loop under every wait: one `read` of up to 16 KiB into
    /// the buffer, `Ok(false)` at EOF. With a deadline, a read that timed
    /// out its socket slice is retried until the deadline passes
    /// (`TimedOut`), and `give_up` is asked before each read — `true`
    /// ends the wait like an EOF.
    fn fill_or(&mut self, give_up: &dyn Fn() -> bool) -> io::Result<bool> {
        let start = self.buf.len();
        self.buf.resize(start + READ_BYTES, 0);
        let read = loop {
            if self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                break Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline passed waiting for the peer",
                ));
            }
            if give_up() {
                break Ok(0);
            }
            match self.stream.read(&mut self.buf[start..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if self.deadline.is_some()
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                other => break other,
            }
        };
        self.buf.truncate(start + *read.as_ref().unwrap_or(&0));
        read.map(|n| n > 0)
    }

    /// [`Conn::fill`] where framing said more bytes must come.
    fn fill_more(&mut self) -> io::Result<()> {
        let closed = || {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-message",
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

    /// Consumes the stream through the earliest of `ends`, returning what
    /// came before it — or `None` once `cap` bytes have arrived without
    /// one ending inside them (the delimiter counts toward the cap).
    fn take_until(&mut self, ends: &[&[u8]], cap: usize) -> io::Result<Option<Vec<u8>>> {
        let longest = ends.iter().map(|end| end.len()).max().unwrap_or(1);
        // Where a delimiter may still start: the scan resumes there after
        // each read, so a head trickled in byte by byte costs linear time.
        let mut from = 0;
        loop {
            let window = &self.buf[..self.buf.len().min(cap)];
            let found = ends
                .iter()
                .filter_map(|end| {
                    let at = from + window[from..].windows(end.len()).position(|w| w == *end)?;
                    Some((at + end.len(), at))
                })
                .min();
            if let Some((through, at)) = found {
                let mut taken: Vec<u8> = self.buf.drain(..through).collect();
                taken.truncate(at);
                return Ok(Some(taken));
            }
            if self.buf.len() >= cap {
                return Ok(None);
            }
            from = window.len().saturating_sub(longest - 1);
            self.fill_more()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("no-escapes"), "no-escapes");
        assert_eq!(percent_decode("dangling%2"), "dangling%2");
        assert_eq!(percent_decode("%3Cxml%3E"), "<xml>");
    }

    #[test]
    fn dechunking_reassembles_the_payload() {
        let framed = b"3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n";
        assert_eq!(Conn::new(&framed[..]).dechunk().unwrap(), b"abcdefg");
        assert_eq!(Conn::new(&b"0\r\n\r\n"[..]).dechunk().unwrap(), b"");
        assert!(
            Conn::new(&b"5\r\nab\r\n"[..]).dechunk().is_err(),
            "truncated chunk"
        );
        assert!(
            Conn::new(&b"zz\r\nab\r\n"[..]).dechunk().is_err(),
            "bad size"
        );
        // A size whose `+ 2` would wrap is refused, not allocated.
        let err = Conn::new(&b"ffffffffffffffff\r\nab\r\n"[..])
            .dechunk()
            .unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        assert!(
            Conn::new(&b"fffffffffffffff0\r\nab\r\n"[..])
                .dechunk()
                .is_err(),
            "a huge chunk that never arrives"
        );
    }

    #[test]
    fn client_response_parser_reads_status_headers_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi";
        let resp = Conn::new(&raw[..]).read_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert_eq!(resp.body, b"hi");

        // Two framed responses back to back stay apart.
        let two = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n\
                    HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut client = Conn::new(&two[..]);
        assert_eq!(client.read_response().unwrap().body, b"hi");
        assert_eq!(client.read_response().unwrap().status, 404);
        assert!(client.read_response().is_err(), "nothing left");

        // Neither Content-Length nor chunking: the body runs to EOF.
        let unframed = b"HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nall of this";
        let resp = Conn::new(&unframed[..]).read_response().unwrap();
        assert!(resp.close_after());
        assert_eq!(resp.body, b"all of this");

        // A body shorter than its Content-Length is an error, not a
        // truncated success.
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi";
        assert!(Conn::new(&short[..]).read_response().is_err());
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Reads one request off canned bytes.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        Conn::new(raw).read_request(far())
    }

    /// Canned bytes handed out at most `most` per `read`, counting the
    /// reads.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        most: usize,
        reads: usize,
    }

    impl<'a> CountingReader<'a> {
        fn new(bytes: &'a [u8], most: usize) -> CountingReader<'a> {
            CountingReader {
                bytes,
                most,
                reads: 0,
            }
        }
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let most = out.len().min(self.most);
            self.bytes.read(&mut out[..most])
        }
    }

    #[test]
    fn a_request_head_and_its_body_arrive_in_one_read() {
        let raw = b"POST /v1/run?nodes=2000&seed=3&threads=1&artifact=summary.json&config=\
                    examples/configs/bib.xml HTTP/1.1\r\nHost: gmark\r\nContent-Length: 5\r\n\
                    \r\n<xml>";
        let mut conn = Conn::new(CountingReader::new(raw, usize::MAX));
        let request = conn.read_request(far()).unwrap();
        assert_eq!(request.body, b"<xml>", "body bytes from the head's read");
        assert_eq!(request.query[1], ("seed".to_owned(), "3".to_owned()));
        assert_eq!(conn.stream.reads, 1);
        assert!(matches!(conn.read_request(far()), Err(HttpError::Closed)));
    }

    #[test]
    fn pipelined_requests_parse_alike_however_the_bytes_split() {
        let raw: &[u8] = b"POST /v1/run?nodes=5&seed=1 HTTP/1.1\r\nHost: a\r\n\
                           Content-Length: 5\r\n\r\nhello\
                           GET /healthz HTTP/1.0\nConnection: keep-alive\n\n";
        fn read_all(stream: impl Read) -> (Request, Request) {
            let mut conn = Conn::new(stream);
            let first = conn.read_request(far()).expect("first request");
            let second = conn.read_request(far()).expect("second request");
            assert!(matches!(conn.read_request(far()), Err(HttpError::Closed)));
            (first, second)
        }
        let whole = read_all(raw);
        assert_eq!(whole.0.body, b"hello");
        assert_eq!(
            (whole.1.path.as_str(), whole.1.keep_alive),
            ("/healthz", true)
        );
        for split in 0..=raw.len() {
            let parts = (&raw[..split]).chain(&raw[split..]);
            assert_eq!(read_all(parts), whole, "split at byte {split}");
        }
        let trickle = CountingReader::new(raw, 1);
        assert_eq!(read_all(trickle), whole, "one byte per read");
    }

    #[test]
    fn hostile_framing_gets_a_typed_outcome() {
        // A head of exactly the cap (blank line included) is accepted, even
        // with the next request already behind it; one byte more is a 431.
        let head_of = |len: usize| {
            let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        let mut exact = head_of(MAX_HEAD_BYTES);
        exact.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let mut conn = Conn::new(&exact[..]);
        assert_eq!(conn.read_request(far()).unwrap().path, "/");
        assert_eq!(conn.read_request(far()).unwrap().path, "/next");
        let over = parse(&head_of(MAX_HEAD_BYTES + 1)).unwrap_err();
        assert_eq!(over.status(), 431, "{over}");

        // A bare-LF head parses.
        let bare = parse(b"GET /healthz?x=1 HTTP/1.1\nHost: a\n\n").unwrap();
        assert_eq!(bare.query, [("x".to_owned(), "1".to_owned())]);
        assert_eq!(bare.header("host"), Some("a"));

        // EOF before the first byte, mid-head, mid-body.
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert_eq!(parse(b"GET / HT").unwrap_err().status(), 400);
        let mid_body = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(matches!(mid_body, Err(HttpError::Io(_))), "{mid_body:?}");
    }

    #[test]
    fn request_framing_refuses_ambiguous_lengths() {
        // (headers after the request line, expected status: 0 = parsed)
        let cases: &[(&str, u16)] = &[
            ("Content-Length: 5", 0),
            ("Content-Length: 5\r\nContent-Length: 5", 0),
            ("Content-Length: +5", 400),
            ("Content-Length: -5", 400),
            ("Content-Length: 0x5", 400),
            ("Content-Length: 5 5", 400),
            ("Content-Length:", 400),
            ("Content-Length: 99999999999999999999999", 400),
            ("Content-Length: 5\r\nContent-Length: 6", 400),
            ("Content-Length: 6\r\ncontent-length: 5", 400),
            ("Transfer-Encoding: chunked\r\nContent-Length: 5", 400),
            ("Transfer-Encoding: chunked", 400),
            ("Content-Length: 9000000", 413),
            ("Host: a", 411),
        ];
        for (headers, expected) in cases {
            let raw = format!("POST /v1/run HTTP/1.1\r\n{headers}\r\n\r\nhello");
            let status = match parse(raw.as_bytes()) {
                Ok(request) => {
                    assert_eq!(request.body, b"hello", "{headers:?}");
                    0
                }
                Err(e) => {
                    if headers.starts_with("Transfer-Encoding") {
                        assert!(e.to_string().contains("Transfer-Encoding"), "{e}");
                    }
                    e.status()
                }
            };
            assert_eq!(status, *expected, "{headers:?}");
        }
    }

    #[test]
    fn a_request_trickled_past_its_deadline_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // One head byte every 10 ms, never a blank line, for at most 3 s.
        let dribbler = std::thread::spawn(move || {
            let started = Instant::now();
            let head = b"GET / HTTP/1.1\r\nX-Slow: "
                .iter()
                .chain([b'a'].iter().cycle());
            for byte in head {
                if started.elapsed() > Duration::from_secs(3) || client.write_all(&[*byte]).is_err()
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut conn = Conn::server(accepted).unwrap();
        let started = Instant::now();
        let outcome = conn.read_request(Instant::now() + Duration::from_millis(300));
        let waited = started.elapsed();
        drop(conn);
        dribbler.join().unwrap();
        match outcome {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}"),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(
            waited < Duration::from_secs(2),
            "held the reader {waited:?}"
        );
    }

    /// Counts the `write` calls a writer sees, keeping the bytes.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write_per_chunk() {
        let mut out = CountingWriter::default();
        write_chunked(&mut out, 200, &[("X-A", "b")], b"abc", true).unwrap();
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 200 OK\r\nX-A: b\r\nTransfer-Encoding: chunked\r\n\
              Connection: keep-alive\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
        );
        assert_eq!(out.writes, 1);

        let mut out = CountingWriter::default();
        write_response(&mut out, 404, &[("X-A", "b")], b"gone", false).unwrap();
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 404 Not Found\r\nX-A: b\r\nContent-Length: 4\r\n\
              Connection: close\r\n\r\ngone"
        );
        assert_eq!(out.writes, 1);

        // (body bytes, most writes allowed)
        for (len, most) in [(0, 1), (CHUNK_BYTES, 1), (200 * 1024, 5)] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut out = CountingWriter::default();
            write_chunked(&mut out, 200, &[], &body, true).unwrap();
            assert!(out.writes <= most, "{len} bytes took {} writes", out.writes);
            let resp = Conn::new(&out.bytes[..]).read_response().unwrap();
            assert_eq!(resp.body, body, "{len} bytes round-trip");
        }
    }
}
