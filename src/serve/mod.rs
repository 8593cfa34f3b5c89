//! `gmark serve` — the benchmark-as-a-service daemon.
//!
//! One process turns the batch pipeline into a long-running service:
//! clients `POST /v1/run` a schema XML body plus CLI-shaped query
//! parameters, and the selected artifact streams back with chunked
//! transfer encoding. The server is a snapshot cache in front of
//! [`run`](crate::run::run), resting on three guarantees:
//!
//! * **Byte determinism.** A response's payload is a pure function of
//!   the plan and its byte-affecting options — never of worker count,
//!   cache state, or who asked first. This falls straight out of the
//!   pipeline's own contract and is pinned by `tests/serve.rs`.
//! * **Pay-once snapshots.** Runs are cached per snapshot key
//!   ([`cache::SnapshotCache`]); N concurrent requests for one key cost
//!   one run, and the LRU holds finished runs inside `--cache-mb`.
//! * **Bounded admission.** A fixed worker pool drains a bounded accept
//!   queue ([`admission::Admission`]); past capacity the server answers
//!   `429` with `Retry-After` instead of queueing without limit, and
//!   per-request deadlines turn stale queue entries into `503`s.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a worker serves
//! requests off one connection in a loop — each one individually
//! admission-accounted — until the client closes, the idle window
//! (`--keep-alive-ms`) runs out, another connection is waiting in the
//! queue, or shutdown begins. Per-request queue-wait / build / stream
//! latency histograms are surfaced through `GET /v1/stats`.
//!
//! Shutdown is graceful: [`Server::shutdown`] (the CLI wires it to
//! SIGTERM) stops accepting, drains every admitted request — a
//! kept-alive connection finishes its in-flight request and then closes
//! — joins the pool, and only then returns.

pub mod admission;
pub mod cache;
pub mod http;
pub mod json;
mod routes;

use admission::Admission;
use cache::SnapshotCache;
use gmark_stats::LatencyHistogram;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon listens and how much it holds: the `gmark serve`
/// flag set.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`--addr`), e.g. `127.0.0.1:7878`; port `0` picks
    /// a free port (the tests' route to collision-free servers).
    pub addr: String,
    /// Worker threads draining the accept queue (`--workers`).
    pub workers: usize,
    /// Snapshot cache byte budget in MiB (`--cache-mb`); `0` disables
    /// retention (builds still coalesce while in flight).
    pub cache_mb: usize,
    /// Accept-queue capacity (`--queue-depth`): connections beyond this
    /// many waiting are answered `429`.
    pub queue_depth: usize,
    /// Default per-request deadline in ms (`--deadline-ms`); a request
    /// still queued past it is answered `503`. `0` disables; clients
    /// override per request with `?deadline_ms=`.
    pub deadline_ms: u64,
    /// Keep-alive idle window in ms (`--keep-alive-ms`): how long a
    /// worker waits for the *next* request on a kept-alive connection
    /// before closing it. `0` disables keep-alive entirely (every
    /// response closes, the pre-PR-10 behavior).
    pub keep_alive_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 4,
            cache_mb: 256,
            queue_depth: 64,
            deadline_ms: 0,
            keep_alive_ms: 5_000,
        }
    }
}

/// Per-request latency histograms fed by the run route and surfaced in
/// `GET /v1/stats`, each a log-bucketed [`LatencyHistogram`].
#[derive(Default)]
pub(crate) struct ServeLatency {
    /// Admission (or keep-alive arrival) to handler start.
    pub(crate) queue_wait: LatencyHistogram,
    /// Snapshot build time, recorded on cache misses only.
    pub(crate) build: LatencyHistogram,
    /// Artifact response write (framing + socket).
    pub(crate) stream: LatencyHistogram,
}

/// Everything the acceptor, the workers, and the routes share.
pub(crate) struct ServerShared {
    pub(crate) config: ServeConfig,
    pub(crate) cache: SnapshotCache,
    pub(crate) admission: Admission,
    pub(crate) latency: ServeLatency,
    stop: AtomicBool,
}

impl ServerShared {
    /// Whether shutdown has been requested — kept-alive connections
    /// check this to finish their in-flight request and then close.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running daemon: the listener, its acceptor thread, and the worker
/// pool. Dropping without [`Server::shutdown`] leaks the threads — the
/// CLI and the tests both shut down explicitly.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the address and starts the acceptor and worker threads.
    /// Returns as soon as the socket is listening — `/healthz` answers
    /// from that moment.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let workers = config.workers.max(1);
        let shared = Arc::new(ServerShared {
            cache: SnapshotCache::new(config.cache_mb),
            admission: Admission::new(config.queue_depth),
            latency: ServeLatency::default(),
            stop: AtomicBool::new(false),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gmark-accept".to_owned())
                .spawn(move || accept_loop(&shared, listener))?
        };
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("gmark-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.admission.dequeue() {
                            routes::handle(&shared, job);
                        }
                    })?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            acceptor,
            workers: pool,
        })
    }

    /// The bound address — the way tests learn which free port `:0`
    /// resolved to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, drain every admitted request,
    /// join all threads. Blocks until in-flight work has been answered.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(2) — the cheap way to zero idle
        // cost and zero accept latency — so waking it takes a throwaway
        // connection to our own port.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = std::net::TcpStream::connect_timeout(&wake_addr, Duration::from_millis(500));
        self.shared.admission.shutdown();
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The acceptor: block in accept(2) until told to stop, answering `429`
/// inline when the queue is full (workers never see rejected
/// connections). [`Server::shutdown`] wakes the block with a throwaway
/// connection after flipping the stop flag.
fn accept_loop(shared: &ServerShared, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // The shutdown wake-up call (or a client racing it);
                    // either way, admission is closed.
                    return;
                }
                // A write timeout: a client that stops reading costs one
                // worker at most that, not forever (reads are bounded by
                // the connection's own deadlines, `http::Conn`).
                // TCP_NODELAY because a response is one write and the
                // next request must not wait on it — without it,
                // follow-up requests on kept-alive connections stall
                // ~40 ms in Nagle + delayed-ACK handshakes.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(120)));
                let _ = stream.set_nodelay(true);
                if let Err(rejected) = shared.admission.try_enqueue(stream) {
                    reject_connection(rejected);
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Answers a connection the queue would not take: `429` with
/// `Retry-After`, written without ever reading the request.
///
/// The close is choreographed: shutting down only the write side first
/// and then draining whatever the client already sent keeps the kernel
/// from turning unread request bytes into a TCP RST that would destroy
/// the 429 before the client reads it. The drain is bounded by a short
/// read timeout, so a stalled client cannot pin the acceptor.
fn reject_connection(mut stream: std::net::TcpStream) {
    let headers = [
        ("Retry-After", "1"),
        ("Content-Type", "text/plain; charset=utf-8"),
    ];
    let body = b"gmark: saturated, retry later\n";
    let _ = http::write_response(&mut stream, 429, &headers, body, false);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// The process-wide termination flag behind [`request_shutdown_on_signals`].
static SHUTDOWN_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn mark_shutdown(_signum: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    SHUTDOWN_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that flip a flag, and returns that
/// flag for the caller's polling loop — how the CLI daemon notices
/// `kill <pid>` and begins its graceful drain. Uses libc's `signal(2)`
/// directly (no dependency); on non-Unix targets it is a no-op and the
/// flag simply never flips.
pub fn request_shutdown_on_signals() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler = mark_shutdown as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
    &SHUTDOWN_FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Artifact;

    const BIB_XML: &str = include_str!("../../examples/configs/bib.xml");

    /// A daemon on a free port.
    fn start(workers: usize) -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            ..ServeConfig::default()
        })
        .expect("binds")
    }

    fn post_run(addr: SocketAddr, query: &str) -> http::ClientResponse {
        http::fetch(addr, "POST", &format!("/v1/run{query}"), BIB_XML.as_bytes())
            .expect("request round-trips")
    }

    #[test]
    fn serves_health_stats_and_a_run_end_to_end() {
        let server = start(2);
        let addr = server.local_addr();

        let health = http::fetch(addr, "GET", "/healthz", b"").unwrap();
        assert_eq!((health.status, health.body.as_slice()), (200, &b"ok\n"[..]));

        let run = post_run(addr, "?nodes=50&seed=7");
        assert_eq!(run.status, 200, "{:?}", String::from_utf8_lossy(&run.body));
        assert_eq!(run.header("x-gmark-cache"), Some("build"));
        assert_eq!(run.header("x-gmark-artifact"), Some("graph.nt"));
        assert!(run.body.ends_with(b".\n"), "N-Triples payload");

        // Same plan again: a hit, and byte-identical.
        let again = post_run(addr, "?nodes=50&seed=7");
        assert_eq!(again.header("x-gmark-cache"), Some("hit"));
        assert_eq!(again.body, run.body);

        // The same plan's summary is one more view of the same snapshot.
        let summary = post_run(addr, "?nodes=50&seed=7&artifact=summary.json");
        assert_eq!(summary.header("x-gmark-cache"), Some("hit"));
        assert_eq!(summary.header("content-type"), Some("application/json"));
        let text = String::from_utf8(summary.body).unwrap();
        assert!(json::parse(&text).is_ok(), "{text}");

        let stats = http::fetch(addr, "GET", "/v1/stats", b"").unwrap();
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"builds\":1"), "{text}");
        assert!(text.contains("\"hits\":2"), "{text}");

        server.shutdown();
    }

    #[test]
    fn rejects_bad_plans_params_and_routes() {
        let server = start(1);
        let addr = server.local_addr();

        // What is this door's own; the run parameters' rules are tested
        // through both doors in `run::request`, and one of them here
        // shows a rejected request is a 400.
        let xml = BIB_XML.as_bytes();
        let json_body = {
            let mut body = gmark_stats::JsonWriter::new();
            body.begin_object();
            body.key("xml").string(BIB_XML);
            body.key("nodes").uint(40);
            body.end_object();
            body.finish()
        };
        let cases: &[(&str, &str, &[u8], u16)] = &[
            ("POST", "/v1/run", b"not xml", 400),
            ("POST", "/v1/run", b"", 400),
            // The body is the schema XML and nothing else.
            ("POST", "/v1/run?seed=3", json_body.as_bytes(), 400),
            ("POST", "/v1/run?typo=1", xml, 400),
            // The planner and the evaluation cache have no switches.
            ("POST", "/v1/run?eval&no_plan", xml, 400),
            ("POST", "/v1/run?from_store=x", xml, 400),
            ("POST", "/v1/run?config=", xml, 400),
            ("POST", "/v1/run?deadline_ms=soon", xml, 400),
            ("POST", "/v1/run?budget_ms=5", xml, 400),
            ("POST", "/v1/run?artifact=nope.bin", xml, 400),
            // The door's own parameters are given once, like the rest.
            (
                "POST",
                "/v1/run?artifact=graph.nt&artifact=summary.json",
                xml,
                400,
            ),
            ("POST", "/v1/run?deadline_ms=1&deadline_ms=2", xml, 400),
            ("POST", "/v1/run?config=a&config=b", xml, 400),
            ("GET", "/v1/run/unknown/summary", b"", 404),
            ("GET", "/nope", b"", 404),
            ("POST", "/healthz", b"x", 405),
        ];
        for (method, path, body, expected) in cases {
            let resp = http::fetch(addr, method, path, body).unwrap();
            assert_eq!(resp.status, *expected, "{method} {path}");
        }
        let twice = post_run(addr, "?nodes=40&artifact=graph.nt&artifact=graph.nt");
        assert_eq!(twice.body, b"gmark: artifact: given twice\n");
        let no_switch = post_run(addr, "?eval&no_plan");
        assert_eq!(
            no_switch.body,
            b"gmark: unknown run parameter \"no_plan\"\n"
        );
        // No refused request reached the cache.
        let stats = http::fetch(addr, "GET", "/v1/stats", b"").unwrap();
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"builds\":0"), "{text}");

        server.shutdown();
    }

    #[test]
    fn a_thread_count_past_the_limit_is_a_400_and_the_worker_serves_on() {
        // The refusal comes before any stage, so the request starts no
        // thread; the one worker then answers the next request.
        let server = start(1);
        let addr = server.local_addr();
        for threads in ["1025", "18446744073709551615"] {
            let refused = post_run(addr, &format!("?nodes=40&threads={threads}"));
            assert_eq!(refused.status, 400, "threads={threads}");
            let body = String::from_utf8(refused.body).unwrap();
            assert_eq!(
                body,
                format!(
                    "gmark: invalid plan: a run takes at most 1024 worker threads \
                     (0 = every core), not {threads}\n"
                )
            );
        }
        let next = post_run(addr, "?nodes=40&threads=2");
        assert_eq!(
            next.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&next.body)
        );
        server.shutdown();
    }

    #[test]
    fn artifact_selector_reaches_every_produced_artifact() {
        let server = start(1);
        let addr = server.local_addr();

        for artifact in ["workload.txt", "workload.sparql", "report.txt"] {
            let resp = post_run(addr, &format!("?nodes=40&seed=5&artifact={artifact}"));
            assert_eq!(resp.status, 200, "{artifact}");
            assert_eq!(resp.header("x-gmark-artifact"), Some(artifact));
            assert!(!resp.body.is_empty(), "{artifact}");
        }
        // One plan, many artifact views: still a single build.
        let stats = http::fetch(addr, "GET", "/v1/stats", b"").unwrap();
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"builds\":1"), "{text}");

        // An artifact the plan didn't produce is a 404 naming what is.
        let resp = post_run(addr, "?nodes=40&seed=5&artifact=eval.txt");
        assert_eq!(resp.status, 404);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains(Artifact::Rules.file_name()), "{text}");

        server.shutdown();
    }
}
