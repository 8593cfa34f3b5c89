//! `serve-hot` and `serve-churn`: the `gmark serve` daemon under a closed
//! loop of two keep-alive clients.
//!
//! Closed loop is the right model: callers of a benchmark-as-a-service
//! daemon — CI jobs, harnesses — each wait for their artifact before asking
//! for the next. The request sequence (Zipf(1.0) plan popularity, 50 %
//! `summary.json` / 30 % `workload.sparql` / 20 % `graph.nt`) is drawn up
//! front from `--seed`; the two clients claim requests from it through one
//! atomic cursor, so interleaving decides when a request is sent, never
//! which.
//!
//! `serve-hot`: 16 plans (Bib at 2000 nodes), all pre-touched, 256 MiB
//! cache — every request is a snapshot hit, so HTTP framing, admission,
//! the cache lookup and the socket are the whole cost. `serve-churn`: 64
//! plans (Bib at 5000 nodes, 0.85 MB a snapshot, 54 MB in all) against a
//! 24 MiB cache — more than a quarter of the requests rebuild through `run`
//! inside the daemon, with evictions and build-once coordination beside
//! the hits: p50 is a hit, p95 is a build.

use super::{run_args, Ctx, Iterations, Outcome, Tally, THREADS};
use crate::check::{fingerprint, without_seconds, Fingerprint};
use crate::child::{CpuSplit, Daemon, IdlePollers};
use crate::load::{plan_seeds, request_sequence, run_url, usecase_xml, Asked, Request};
use crate::stats;
use crate::trace::Tracer;
use gmark::serve::{ServeConfig, Server};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Threads per snapshot build inside the daemon (the `threads=` request
/// parameter). The daemon's parallelism is its two workers, which already
/// occupy both cores; with two threads per build as well, every build goes
/// through the per-query shard-file scratch pipeline and the 95th
/// percentile moved between 22 ms and 40 ms across three runs of one seed.
/// That pipeline is `gen-full`'s to measure.
const BUILD_THREADS: usize = 1;

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve-hot`.
    Hot,
    /// `serve-churn`.
    Churn,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Hot => "serve-hot",
            Mode::Churn => "serve-churn",
        }
    }

    fn plans(self) -> usize {
        match self {
            Mode::Hot => 16,
            Mode::Churn => 64,
        }
    }

    fn nodes(self) -> u64 {
        match self {
            Mode::Hot => 2_000,
            Mode::Churn => 5_000,
        }
    }

    fn cache_mb(self) -> usize {
        match self {
            Mode::Hot => 256,
            Mode::Churn => 24,
        }
    }

    /// Timed requests per batch; a batch is the serve workloads' iteration.
    fn batch(self) -> usize {
        match self {
            Mode::Hot => 1_000,
            Mode::Churn => 500,
        }
    }

    /// Batches at the default run length: 40 000 and 10 000 timed requests.
    /// Many short batches, because on two shared cores a batch is disturbed
    /// as a whole (client and worker threads land on the wrong cores for a
    /// few hundred milliseconds) and the median over batches shrugs that
    /// off.
    fn batches(self) -> usize {
        match self {
            Mode::Hot => 40,
            Mode::Churn => 20,
        }
    }

    /// Untimed requests that bring the cache to its steady state.
    fn warmup(self) -> usize {
        match self {
            Mode::Hot => 0,
            Mode::Churn => 300,
        }
    }

    /// How often set-up runs (the median is reported): five times where
    /// it takes a fifth of a second, once where it takes seconds.
    fn setups(self) -> usize {
        match self {
            Mode::Hot => 5,
            Mode::Churn => 1,
        }
    }
}

/// One keep-alive HTTP/1.1 connection that stamps the phases of every
/// exchange. (The repo's `serve::http::Client` frames responses the same
/// way but cannot say when the first byte arrived.)
struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    /// The last response announced `Connection: close`: the daemon caps
    /// requests per connection and yields workers under queue pressure, and
    /// a polite client dials again before its next request.
    closing: bool,
    /// How often that happened.
    reconnects: u64,
    /// Bytes read off the socket; `buf[pos..]` is not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Where `read` lands before the bytes join `buf`.
    chunk: Box<[u8]>,
}

/// The outcome of one exchange; the de-chunked body is in the caller's
/// buffer.
struct Reply {
    status: u16,
    /// `X-Gmark-Cache: hit` (`None` on routes without the header).
    cache_hit: Option<bool>,
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

fn bad_response(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        Ok(Conn {
            addr,
            stream: Conn::open(addr).map_err(|e| format!("connecting to {addr}: {e}"))?,
            closing: false,
            reconnects: 0,
            buf: Vec::with_capacity(1 << 20),
            pos: 0,
            chunk: vec![0u8; 64 << 10].into_boxed_slice(),
        })
    }

    /// Reads more bytes; EOF is an error because framing promised more.
    fn fill(&mut self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        match self.stream.read(&mut self.chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection mid-response",
            )),
            n => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(())
            }
        }
    }

    /// Offset (from `pos`) just past the first `pattern` in the unread
    /// bytes, reading more as needed.
    fn find(&mut self, pattern: &[u8]) -> io::Result<usize> {
        let mut scanned = 0;
        loop {
            let unread = &self.buf[self.pos..];
            if let Some(p) = unread[scanned..]
                .windows(pattern.len())
                .position(|w| w == pattern)
            {
                return Ok(scanned + p + pattern.len());
            }
            scanned = unread.len().saturating_sub(pattern.len() - 1);
            self.fill()?;
        }
    }

    fn need(&mut self, n: usize) -> io::Result<()> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        Ok(())
    }

    /// Sends one pre-rendered request and reads exactly one response into
    /// `body` (cleared first).
    fn exchange(&mut self, wire: &[u8], body: &mut Vec<u8>) -> io::Result<Reply> {
        if self.closing {
            self.stream = Conn::open(self.addr)?;
            self.closing = false;
            self.reconnects += 1;
            self.buf.clear();
            self.pos = 0;
        }
        self.stream.write_all(wire)?;
        let written = Instant::now();
        body.clear();
        if self.pos == self.buf.len() {
            self.fill()?;
        }
        let first_byte = Instant::now();

        let head_len = self.find(b"\r\n\r\n")?;
        let head = std::str::from_utf8(&self.buf[self.pos..self.pos + head_len - 4])
            .map_err(|_| bad_response("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_response("no status code"))?;
        let (mut length, mut chunked, mut close, mut cache_hit) = (0usize, false, false, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| bad_response(format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-gmark-cache") {
                cache_hit = Some(value == "hit");
            }
        }
        self.pos += head_len;

        if chunked {
            loop {
                let line_len = self.find(b"\r\n")?;
                let size_text = std::str::from_utf8(&self.buf[self.pos..self.pos + line_len - 2])
                    .map_err(|_| bad_response("chunk size is not UTF-8"))?;
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| bad_response(format!("bad chunk size {size_text:?}")))?;
                self.pos += line_len;
                // The chunk and its trailing CRLF (for the zero chunk: the
                // CRLF that ends the body).
                self.need(size + 2)?;
                body.extend_from_slice(&self.buf[self.pos..self.pos + size]);
                self.pos += size + 2;
                if size == 0 {
                    break;
                }
            }
        } else {
            self.need(length)?;
            body.extend_from_slice(&self.buf[self.pos..self.pos + length]);
            self.pos += length;
        }
        self.closing = close;
        Ok(Reply {
            status,
            cache_hit,
            written,
            first_byte,
            done: Instant::now(),
        })
    }
}

/// Percent-encodes a query-parameter value.
fn percent_encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~/".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Everything fixed before the first request: plans, pre-rendered request
/// bytes, the request sequence, and the reference fingerprints the
/// responses are held to.
struct Load {
    mode: Mode,
    cpus: CpuSplit,
    /// The schema XML every request POSTs.
    xml: String,
    config: PathBuf,
    seeds: Vec<u64>,
    /// `wire[plan * 3 + asked]`: the full request, head and body.
    wire: Vec<Vec<u8>>,
    sequence: Vec<Request>,
    /// The first response's fingerprint per (plan, artifact); every later
    /// response for the slot must equal it.
    expected: Vec<OnceLock<Fingerprint>>,
}

fn slot(request: Request) -> usize {
    request.plan * Asked::ALL.len() + request.asked as usize
}

impl Load {
    fn new(ctx: &Ctx<'_>, mode: Mode, timed: usize) -> Result<Load, String> {
        let dir = ctx.scratch.fresh("cfg")?;
        let xml = usecase_xml("bib", mode.nodes(), 12);
        let config = dir.join(format!("{}.xml", mode.name()));
        std::fs::write(&config, &xml).map_err(|e| format!("writing {}: {e}", config.display()))?;
        let seeds = plan_seeds(ctx.seed, mode.plans());
        // The `config=` label makes the daemon's summary.json name the same
        // configuration path the CLI reference run records.
        let label = percent_encode(&config.to_string_lossy());
        let mut wire = Vec::with_capacity(seeds.len() * Asked::ALL.len());
        for &seed in &seeds {
            for asked in Asked::ALL {
                let url = run_url(mode.nodes(), seed, BUILD_THREADS, asked);
                wire.push(
                    format!(
                        "POST {url}&config={label} HTTP/1.1\r\nHost: gmark\r\n\
                         Content-Length: {}\r\n\r\n{xml}",
                        xml.len()
                    )
                    .into_bytes(),
                );
            }
        }
        let expected = (0..wire.len()).map(|_| OnceLock::new()).collect();
        Ok(Load {
            mode,
            cpus: ctx.cpus,
            sequence: request_sequence(ctx.seed, mode.plans(), mode.warmup() + timed),
            xml,
            config,
            seeds,
            wire,
            expected,
        })
    }

    /// Checks one response: 200, and a body equal to the first one seen
    /// for its (plan, artifact) — `summary.json` modulo stage seconds,
    /// which differ between two builds of one plan.
    fn check(&self, request: Request, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!(
                "{:?} of plan {}: status {status}: {}",
                request.asked,
                request.plan,
                String::from_utf8_lossy(&body[..body.len().min(120)])
            ));
        }
        let got = match request.asked {
            Asked::Summary => fingerprint(&without_seconds(body)),
            _ => fingerprint(body),
        };
        let first = *self.expected[slot(request)].get_or_init(|| got);
        if got == first && got.len > 0 {
            Ok(())
        } else {
            Err(format!(
                "{:?} of plan {}: body {got:?} differs from the first response {first:?}",
                request.asked, request.plan
            ))
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientStats {
    latencies_ns: Vec<u64>,
    failures: Vec<String>,
    hits: u64,
    builds: u64,
    body_bytes: u64,
    reconnects: u64,
    /// Time spent claiming the next pre-drawn request.
    pick_ns: u64,
    /// The thread's whole loop.
    wall_ns: u64,
}

/// One closed-loop client: claim the next request, send it, read and check
/// the response, repeat until the batch is exhausted. A connection error
/// aborts the run — a dead daemon is not timed.
fn client(
    addr: SocketAddr,
    load: &Load,
    batch: &[Request],
    cursor: &AtomicUsize,
    mut tracer: Option<&mut Tracer>,
) -> Result<ClientStats, String> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::with_capacity(4 << 20);
    let mut stats = ClientStats::default();
    let loop_started = Instant::now();
    loop {
        let pick_started = Instant::now();
        let Some(&request) = batch.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
            break;
        };
        let wire = &load.wire[slot(request)];
        let started = Instant::now();
        stats.pick_ns += (started - pick_started).as_nanos() as u64;
        let reply = match tracer.as_deref_mut() {
            None => conn.exchange(wire, &mut body),
            Some(t) => t.span("serve.request", |t| {
                let begun = Instant::now();
                let reply = conn.exchange(wire, &mut body)?;
                t.record("serve.write", begun, reply.written);
                t.record("serve.first_byte", reply.written, reply.first_byte);
                t.record("serve.body_read", reply.first_byte, reply.done);
                Ok(reply)
            }),
        }
        .map_err(|e: io::Error| {
            format!(
                "{}: request {} of the batch: {e}; aborting rather than timing a dead daemon",
                load.mode.name(),
                stats.latencies_ns.len()
            )
        })?;
        stats
            .latencies_ns
            .push((reply.done - started).as_nanos() as u64);
        stats.body_bytes += body.len() as u64;
        match reply.cache_hit {
            Some(true) => stats.hits += 1,
            Some(false) => stats.builds += 1,
            None => {}
        }
        if let Err(why) = load.check(request, reply.status, &body) {
            stats.failures.push(why);
        }
    }
    stats.reconnects = conn.reconnects;
    stats.wall_ns = loop_started.elapsed().as_nanos() as u64;
    Ok(stats)
}

/// The merged result of one batch through both clients.
struct Batch {
    wall_s: f64,
    clients: Vec<ClientStats>,
}

/// Runs `batch` through [`THREADS`] clients; with `tracers`, each client
/// records spans into its own lane.
fn run_batch(
    addr: SocketAddr,
    load: &Load,
    batch: &[Request],
    tracers: Option<&mut [Tracer]>,
) -> Result<Batch, String> {
    let cursor = AtomicUsize::new(0);
    let mut lanes: Vec<Option<&mut Tracer>> = match tracers {
        Some(tracers) => tracers.iter_mut().map(Some).collect(),
        None => (0..THREADS).map(|_| None).collect(),
    };
    let started = Instant::now();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .drain(..)
            .map(|lane| {
                let cursor = &cursor;
                scope.spawn(move || {
                    load.cpus.clients.pin_current_thread();
                    client(addr, load, batch, cursor, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Batch {
        wall_s: started.elapsed().as_secs_f64(),
        clients,
    })
}

/// Every request of the batch is one operation; the failed ones are those
/// whose response missed a check.
fn tally_batch(tally: &mut Tally, batch: &Batch) {
    for c in &batch.clients {
        for _ in c.failures.len()..c.latencies_ns.len() {
            tally.op(true, String::new);
        }
        for why in &c.failures {
            tally.op(false, || why.clone());
        }
    }
}

/// Waits for `/healthz` on a single connection, then builds what the
/// workload needs before timing: every plan once (`serve-hot`), or the
/// warm-up slice of the sequence (`serve-churn`).
fn warm(addr: SocketAddr, load: &Load, tally: &mut Tally) -> Result<(), String> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    let health = conn
        .exchange(b"GET /healthz HTTP/1.1\r\nHost: gmark\r\n\r\n", &mut body)
        .map_err(|e| format!("GET /healthz: {e}"))?;
    tally.op(health.status == 200 && body == b"ok\n", || {
        format!(
            "/healthz answered {} {:?}",
            health.status,
            String::from_utf8_lossy(&body)
        )
    });
    match load.mode {
        Mode::Hot => {
            for plan in 0..load.seeds.len() {
                let request = Request {
                    plan,
                    asked: Asked::Summary,
                };
                let reply = conn
                    .exchange(&load.wire[slot(request)], &mut body)
                    .map_err(|e| format!("pre-touching plan {plan}: {e}"))?;
                let checked = load.check(request, reply.status, &body);
                tally.op(checked.is_ok(), || checked.clone().unwrap_err());
            }
        }
        Mode::Churn => {
            drop(conn);
            let batch = run_batch(addr, load, &load.sequence[..load.mode.warmup()], None)?;
            tally_batch(tally, &batch);
        }
    }
    Ok(())
}

/// Runs the CLI on plan 0 and holds the daemon's three artifacts for that
/// plan to the CLI's files: `graph.nt` and `workload.sparql` byte for
/// byte, `summary.json` modulo stage seconds.
fn check_against_cli(
    ctx: &Ctx<'_>,
    addr: SocketAddr,
    load: &Load,
    tally: &mut Tally,
) -> Result<(), String> {
    let dir = ctx.scratch.fresh("cli-reference")?;
    let nodes = load.mode.nodes().to_string();
    let a = run_args(
        &load.config,
        &dir,
        load.seeds[0],
        BUILD_THREADS,
        &["--nodes", &nodes, "--format", "json"],
    );
    ctx.cli(tally, "serve CLI reference", &a)?;
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    for asked in Asked::ALL {
        let request = Request { plan: 0, asked };
        let reply = conn
            .exchange(&load.wire[slot(request)], &mut body)
            .map_err(|e| format!("fetching {} of plan 0: {e}", asked.file_name()))?;
        let file = std::fs::read(dir.join(asked.file_name())).unwrap_or_default();
        let same = match asked {
            Asked::Summary => {
                // The CLI ends summary.json with a newline; the daemon's
                // artifact is the bare object.
                without_seconds(file.trim_ascii_end()) == without_seconds(body.trim_ascii_end())
            }
            _ => file == body,
        };
        tally.op(reply.status == 200 && !file.is_empty() && same, || {
            format!(
                "{} of plan 0: the daemon sent {} bytes (status {}), the CLI wrote {}",
                asked.file_name(),
                body.len(),
                reply.status,
                file.len()
            )
        });
    }
    Ok(())
}

fn daemon_flags(mode: Mode) -> Vec<String> {
    vec![
        "--workers".to_owned(),
        THREADS.to_string(),
        "--cache-mb".to_owned(),
        mode.cache_mb().to_string(),
    ]
}

/// One GET on a fresh connection; the body as text.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    let wire = format!("GET {path} HTTP/1.1\r\nHost: gmark\r\nConnection: close\r\n\r\n");
    let reply = conn
        .exchange(wire.as_bytes(), &mut body)
        .map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    String::from_utf8(body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}

/// The counters and latency rows of `GET /v1/stats` this benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
struct DaemonStats {
    hits: u64,
    builds: u64,
    evictions: u64,
    rejected: u64,
    expired: u64,
    queue_wait_p95_us: u64,
    build_p50_us: u64,
    stream_p50_us: u64,
}

fn daemon_stats(addr: SocketAddr) -> Result<DaemonStats, String> {
    let text = get(addr, "/v1/stats")?;
    let doc = gmark::serve::json::parse(&text).map_err(|e| format!("/v1/stats: {e}"))?;
    let read = |path: &[&str]| -> Result<u64, String> {
        path.iter()
            .try_fold(&doc, |node, key| node.get(key))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("/v1/stats has no {}", path.join(".")))
    };
    Ok(DaemonStats {
        hits: read(&["cache", "hits"])?,
        builds: read(&["cache", "builds"])?,
        evictions: read(&["cache", "evictions"])?,
        rejected: read(&["admission", "rejected"])?,
        expired: read(&["admission", "expired"])?,
        queue_wait_p95_us: read(&["latency", "queue_wait", "p95_us"])?,
        build_p50_us: read(&["latency", "build", "p50_us"])?,
        stream_p50_us: read(&["latency", "stream", "p50_us"])?,
    })
}

/// Runs the workload end to end, or traced.
pub fn measure(ctx: &Ctx<'_>, mode: Mode, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(ctx, mode)
    } else {
        end_to_end(ctx, mode)
    }
}

/// The end-to-end run against a `gmark serve` child process.
fn end_to_end(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let batches = ctx.scaled(mode.batches());
    let load = Load::new(ctx, mode, batches * mode.batch())?;
    let log = ctx.scratch.path().join("daemon.log");
    let _pollers = IdlePollers::start(&ctx.cpus.all);

    // Set-up: start the daemon, wait for /healthz, hold plan 0 to the
    // CLI, fill the cache. Repeated where it is short; the last daemon
    // stays up for the timed batches.
    let mut setups = Vec::with_capacity(mode.setups());
    let mut daemon = None;
    for _ in 0..mode.setups() {
        drop(daemon.take());
        let started = Instant::now();
        let fresh = Daemon::start(ctx.gmark, &daemon_flags(mode), &log, &ctx.cpus)?;
        warm(fresh.addr(), &load, &mut out.tally)?;
        check_against_cli(ctx, fresh.addr(), &load, &mut out.tally)?;
        setups.push(started.elapsed().as_secs_f64());
        daemon = Some(fresh);
    }
    let daemon = daemon.expect("at least one set-up");
    out.measured.set_median("setup_s", &setups);

    let mut timed = Iterations::default();
    let (mut hits, mut builds, mut reconnects) = (0u64, 0u64, 0u64);
    for chunk in load.sequence[mode.warmup()..].chunks(mode.batch()) {
        let batch = run_batch(daemon.addr(), &load, chunk, None)?;
        tally_batch(&mut out.tally, &batch);
        let latencies_ns = batch.clients.iter().flat_map(|c| &c.latencies_ns);
        timed.push(
            batch.wall_s,
            latencies_ns.map(|&ns| ns as f64 / 1e6).collect(),
        );
        for c in &batch.clients {
            hits += c.hits;
            builds += c.builds;
            reconnects += c.reconnects;
        }
    }
    let stats = daemon_stats(daemon.addr())?;
    let usage = daemon.stop()?;
    out.tally.op(usage.success, || {
        format!(
            "the daemon did not exit cleanly on SIGTERM: {}",
            crate::child::log_tail(&log)
        )
    });
    out.tally.op(stats.rejected == 0 && stats.expired == 0, || {
        format!(
            "admission shed load: {} rejected, {} expired",
            stats.rejected, stats.expired
        )
    });

    timed.report(&mut out.measured);
    out.measured.set("peak_rss_mb", usage.peak_rss_mb);
    out.iterations = timed.len();
    let median_wall = out.measured.get("wall_s").map_or(f64::NAN, |v| v.value);
    out.notes.push(format!(
        "closed loop, {THREADS} keep-alive clients, {batches} batches of {} requests ({} latency \
         samples) after {} untimed warm-up requests; an operation is one request; \
         requests_per_s {:.1} (batch size over median batch wall); {}",
        mode.batch(),
        timed.operations(),
        mode.warmup(),
        mode.batch() as f64 / median_wall,
        ctx.cpus.describe()
    ));
    out.notes.push(format!(
        "timed responses: {hits} snapshot hits, {builds} builds (hit rate {:.4}), {reconnects} \
         reconnects; daemon lifetime: {} evictions, build p50 {} us (log-bucketed), daemon CPU \
         {:.2} s user + {:.2} s system",
        hits as f64 / (hits + builds).max(1) as f64,
        stats.evictions,
        stats.build_p50_us,
        usage.user_s,
        usage.sys_s
    ));
    Ok(out)
}

/// Shuts the in-process server down on every exit path.
struct ServerGuard(Option<Server>);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// Median microseconds of `count` repetitions of `once`.
fn median_us(count: usize, mut once: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        once()?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::summarize(&samples).median)
}

/// The traced run: one batch against a child daemon untraced, then the
/// same batch against an in-process `serve::Server` with the client side
/// of every request wrapped in spans (write, first byte, body read) and
/// `/v1/stats` deltas as counts.
fn traced(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Five batches' worth of requests as one span, on both sides.
    let load = Load::new(ctx, mode, 5 * mode.batch())?;
    let timed = &load.sequence[mode.warmup()..];
    let log = ctx.scratch.path().join("daemon.log");
    let _pollers = IdlePollers::start(&ctx.cpus.all);

    let daemon = Daemon::start(ctx.gmark, &daemon_flags(mode), &log, &ctx.cpus)?;
    warm(daemon.addr(), &load, &mut out.tally)?;
    let untraced = run_batch(daemon.addr(), &load, timed, None)?;
    tally_batch(&mut out.tally, &untraced);
    let usage = daemon.stop()?;

    // The server's threads inherit the affinity of the thread that starts
    // them: the daemon's CPUs, like the child daemon.
    ctx.cpus.daemon.pin_current_thread();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: THREADS,
        cache_mb: mode.cache_mb(),
        ..ServeConfig::default()
    });
    ctx.cpus.all.pin_current_thread();
    let server = server.map_err(|e| format!("starting the in-process server: {e}"))?;
    let addr = server.local_addr();
    let _guard = ServerGuard(Some(server));
    warm(addr, &load, &mut out.tally)?;

    let mut t = Tracer::new();
    let mut lanes: Vec<Tracer> = (1..=THREADS as u64)
        .map(|lane| Tracer::lane(t.epoch(), lane))
        .collect();
    let before = daemon_stats(addr)?;
    let batch = t.span("serve.batch", |_| {
        run_batch(addr, &load, timed, Some(&mut lanes))
    })?;
    let after = daemon_stats(addr)?;
    tally_batch(&mut out.tally, &batch);
    lanes.into_iter().for_each(|lane| t.merge(lane));

    // Fixed-cost probes of the request path, outside the batch.
    let m = &mut out.measured;
    let mut body = Vec::new();
    let mut conn = Conn::connect(addr)?;
    let healthz = median_us(500, || {
        conn.exchange(b"GET /healthz HTTP/1.1\r\nHost: gmark\r\n\r\n", &mut body)
            .map(|_| ())
            .map_err(|e| format!("GET /healthz: {e}"))
    })?;
    drop(conn);
    let close_roundtrip = median_us(200, || {
        gmark::serve::http::fetch(addr, "GET", "/healthz", b"")
            .map(|_| ())
            .map_err(|e| format!("Connection: close round trip: {e}"))
    })?;
    let json_body = crate::json::Json::obj([
        ("schema_xml", crate::json::Json::str(load.xml.as_str())),
        ("nodes", crate::json::Json::Int(mode.nodes())),
    ])
    .to_string();
    let json_parse = median_us(200, || {
        gmark::serve::json::parse(&json_body)
            .map(|doc| {
                std::hint::black_box(doc);
            })
            .map_err(|e| format!("the JSON dialect body does not parse: {e}"))
    })?;
    m.set_with_samples("serve.healthz_p50_us", healthz, 500);
    m.set_with_samples("serve.close_roundtrip_p50_us", close_roundtrip, 200);
    m.set_with_samples("serve.json.parse_us", json_parse, 200);

    let latencies_ms = stats::sorted(
        batch
            .clients
            .iter()
            .flat_map(|c| c.latencies_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect(),
    );
    let n = latencies_ms.len();
    let sum = |f: &dyn Fn(&ClientStats) -> u64| batch.clients.iter().map(f).sum::<u64>() as f64;
    let busy_ns = sum(&|c| c.latencies_ns.iter().sum());
    let loop_ns = sum(&|c| c.wall_ns);
    let (hits, builds) = (after.hits - before.hits, after.builds - before.builds);
    m.set("serve.cache.hits", hits as f64);
    m.set("serve.cache.builds", builds as f64);
    m.set(
        "serve.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    m.set_with_samples(
        "serve.cache.hit_rate",
        hits as f64 / (hits + builds).max(1) as f64,
        (hits + builds) as usize,
    );
    m.set(
        "serve.admission.rejected",
        (after.rejected - before.rejected) as f64,
    );
    m.set(
        "serve.admission.expired",
        (after.expired - before.expired) as f64,
    );
    m.set("serve.queue_wait_p95_us", after.queue_wait_p95_us as f64);
    m.set("serve.build_p50_ms", after.build_p50_us as f64 / 1e3);
    m.set("serve.stream_p50_us", after.stream_p50_us as f64);
    m.set("serve.bytes_out_mb", sum(&|c| c.body_bytes) / 1e6);
    m.set_with_samples(
        "serve.latency_p99_ms",
        stats::percentile(&latencies_ms, 99.0),
        n,
    );
    m.set_with_samples(
        "serve.latency_max_ms",
        stats::percentile(&latencies_ms, 100.0),
        n,
    );
    m.set_with_samples("serve.requests_per_s", n as f64 / batch.wall_s, n);
    m.set_with_samples("serve.client_overhead_share", 1.0 - busy_ns / loop_ns, n);
    m.set_with_samples("serve.client_idle_ms", sum(&|c| c.pick_ns) / 1e6, n);
    m.set("run.cpu_user_s", usage.user_s);
    m.set("run.cpu_sys_s", usage.sys_s);
    super::finish_trace(ctx, mode.name(), &t, m, untraced.wall_s, batch.wall_s)?;
    out.iterations = 1;
    out.notes.push(format!(
        "closed loop, {THREADS} keep-alive clients; {} requests against a child daemon untraced \
         ({:.3} s), then against an in-process server with spans ({:.3} s); {}",
        timed.len(),
        untraced.wall_s,
        batch.wall_s,
        ctx.cpus.describe()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that answers each request with the next
    /// canned response.
    fn canned(responses: Vec<&'static [u8]>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            for response in responses {
                let _ = stream.read(&mut sink).unwrap();
                // Dribble the bytes out so framing has to cope with
                // arbitrary read boundaries.
                for piece in response.chunks(7) {
                    stream.write_all(piece).unwrap();
                    stream.flush().unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn the_client_frames_chunked_and_sized_responses_on_one_connection() {
        let (addr, server) = canned(vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Gmark-Cache: hit\r\n\r\n\
              3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Gmark-Cache: build\r\n\r\nhi",
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let mut conn = Conn::connect(addr).unwrap();
        let mut body = Vec::new();
        let a = conn
            .exchange(b"GET /a HTTP/1.1\r\n\r\n", &mut body)
            .unwrap();
        assert_eq!(
            (a.status, a.cache_hit, conn.closing),
            (200, Some(true), false)
        );
        assert_eq!(body, b"abcdefg");
        assert!(a.written <= a.first_byte && a.first_byte <= a.done);
        let b = conn
            .exchange(b"GET /b HTTP/1.1\r\n\r\n", &mut body)
            .unwrap();
        assert_eq!((b.status, b.cache_hit), (200, Some(false)));
        assert_eq!(body, b"hi");
        let c = conn
            .exchange(b"GET /c HTTP/1.1\r\n\r\n", &mut body)
            .unwrap();
        assert_eq!((c.status, conn.closing, c.cache_hit), (429, true, None));
        assert!(body.is_empty());
        server.join().unwrap();
        // The peer is gone: the next exchange is an error, not a hang.
        assert!(conn
            .exchange(b"GET /d HTTP/1.1\r\n\r\n", &mut body)
            .is_err());
    }

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(percent_encode("/tmp/a-b_c.d~/x.xml"), "/tmp/a-b_c.d~/x.xml");
        assert_eq!(percent_encode("a b&c=d"), "a%20b%26c%3Dd");
    }
}
