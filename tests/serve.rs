//! `gmark serve` integration contract: byte-determinism under
//! concurrency, pay-once snapshot builds, admission control, and
//! graceful drain.
//!
//! The central pin: the bytes a client receives for a plan are exactly
//! the bytes the CLI writes for the same plan — regardless of how many
//! clients ask at once, which worker answers, or whether the snapshot
//! was cached. Everything else (429s, stats counters, shutdown) is the
//! service wrapper around that invariant.

use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
use gmark::serve::http::{fetch, Client, ClientResponse, Conn};
use gmark::serve::{ServeConfig, Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const BIB_XML: &str = include_str!("../examples/configs/bib.xml");

fn start(workers: usize, queue_depth: usize, cache_mb: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        cache_mb,
        deadline_ms: 0,
        ..ServeConfig::default()
    })
    .expect("server binds a free port")
}

fn post_run(addr: SocketAddr, query: &str) -> ClientResponse {
    fetch(addr, "POST", &format!("/v1/run{query}"), BIB_XML.as_bytes())
        .expect("request round-trips")
}

/// The reference bytes: the same plan through the library pipeline (what
/// `DirSink` would put on disk — `MemorySink` buffers are byte-identical
/// to the CLI's files by the sink contract).
fn reference_artifact(query_nodes: u64, seed: u64, artifact: Artifact) -> Vec<u8> {
    let plan = RunPlan::from_xml(BIB_XML)
        .expect("bib schema parses")
        .with_nodes(query_nodes);
    let mut sink = MemorySink::new();
    run(
        &plan,
        &RunOptions {
            seed: Some(seed),
            ..RunOptions::default()
        },
        &mut sink,
    )
    .expect("reference run succeeds");
    sink.bytes(artifact).expect("reference artifact present")
}

/// `/v1/stats` of a fresh daemon, byte for byte as recorded from the
/// commit before the stats body moved onto the shared JSON writer (PR 22's
/// parent): key order, nesting, the histogram rows and the trailing
/// newline. The request itself is the one admitted so far.
#[test]
fn stats_of_a_fresh_daemon_are_pinned_byte_for_byte() {
    let server = start(2, 64, 64);
    let stats = fetch(server.local_addr(), "GET", "/v1/stats", b"").unwrap();
    assert_eq!(stats.header("content-type"), Some("application/json"));
    let empty = r#"{"count":0,"p50_us":0,"p95_us":0,"p99_us":0,"max_us":0,"mean_us":0}"#;
    assert_eq!(
        String::from_utf8(stats.body).unwrap(),
        format!(
            "{{\"cache\":{{\"hits\":0,\"builds\":0,\"evictions\":0,\"entries\":0,\"bytes\":0,\
             \"budget_bytes\":67108864}},\"admission\":{{\"admitted\":1,\"rejected\":0,\
             \"expired\":0,\"queue_depth\":0,\"queue_capacity\":64}},\"latency\":{{\
             \"queue_wait\":{empty},\"build\":{empty},\"stream\":{empty}}},\"workers\":2}}\n"
        )
    );
    server.shutdown();
}

/// A run parameter given twice is refused at both doors, so
/// `?nodes=200&nodes=300` cannot silently run (and cache) as `?nodes=200`.
#[test]
fn a_repeated_run_parameter_is_a_400_not_first_wins() {
    let server = start(1, 64, 64);
    let resp = post_run(server.local_addr(), "?nodes=200&nodes=300");
    assert_eq!(resp.status, 400);
    assert_eq!(resp.body, b"gmark: nodes: given twice\n");
    assert_eq!(
        post_run(server.local_addr(), "?stream=0&stream=1").status,
        400
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_plans_build_once_and_stream_identical_bytes() {
    let server = start(4, 64, 64);
    let addr = server.local_addr();
    let reference = reference_artifact(80, 11, Artifact::Graph);

    // N threads post the same plan at once; every response must carry
    // exactly the CLI's bytes, and the build must have happened once.
    let mut handles = Vec::new();
    for _ in 0..6 {
        handles.push(std::thread::spawn(move || {
            post_run(addr, "?nodes=80&seed=11&artifact=graph.nt")
        }));
    }
    let responses: Vec<ClientResponse> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(resp.body, reference, "served bytes must equal CLI bytes");
    }
    // All six requests shared one snapshot key…
    let keys: std::collections::BTreeSet<_> = responses
        .iter()
        .map(|r| r.header("x-gmark-snapshot-key").unwrap().to_owned())
        .collect();
    assert_eq!(keys.len(), 1, "one plan, one snapshot key");
    // …and the cache built it exactly once (the pay-once guarantee).
    let stats = fetch(addr, "GET", "/v1/stats", b"").unwrap();
    let text = String::from_utf8(stats.body).unwrap();
    assert!(text.contains("\"builds\":1"), "built once: {text}");
    assert!(text.contains("\"hits\":5"), "five hits: {text}");

    server.shutdown();
}

#[test]
fn different_plans_get_different_snapshots_and_correct_bytes_each() {
    let server = start(3, 64, 64);
    let addr = server.local_addr();

    // Three distinct plans in flight at once; each response must match
    // its own plan's reference bytes (no cross-request bleed).
    let cases: [(u64, u64); 3] = [(60, 1), (60, 2), (90, 1)];
    let mut handles = Vec::new();
    for (nodes, seed) in cases {
        handles.push(std::thread::spawn(move || {
            let resp = post_run(
                addr,
                &format!("?nodes={nodes}&seed={seed}&artifact=graph.nt"),
            );
            (nodes, seed, resp)
        }));
    }
    let mut keys = std::collections::BTreeSet::new();
    for handle in handles {
        let (nodes, seed, resp) = handle.join().expect("client thread");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            reference_artifact(nodes, seed, Artifact::Graph),
            "plan (nodes={nodes}, seed={seed}) must serve its own bytes"
        );
        keys.insert(resp.header("x-gmark-snapshot-key").unwrap().to_owned());
    }
    assert_eq!(keys.len(), 3, "three plans, three snapshot keys");

    let stats = fetch(addr, "GET", "/v1/stats", b"").unwrap();
    let text = String::from_utf8(stats.body).unwrap();
    assert!(text.contains("\"builds\":3"), "{text}");

    server.shutdown();
}

#[test]
fn thread_count_and_cache_state_never_change_response_bytes() {
    let server = start(2, 64, 64);
    let addr = server.local_addr();

    // Cold build, warm hit, different execution thread counts: one
    // byte-for-byte identical payload. `threads` is outside the snapshot
    // key on purpose — the pipeline's bytes don't depend on it.
    let cold = post_run(addr, "?nodes=70&seed=3&threads=1&artifact=workload.txt");
    let warm = post_run(addr, "?nodes=70&seed=3&threads=1&artifact=workload.txt");
    let other_threads = post_run(addr, "?nodes=70&seed=3&threads=4&artifact=workload.txt");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-gmark-cache"), Some("build"));
    assert_eq!(warm.header("x-gmark-cache"), Some("hit"));
    assert_eq!(
        other_threads.header("x-gmark-cache"),
        Some("hit"),
        "threads stays out of the snapshot key"
    );
    assert_eq!(warm.body, cold.body);
    assert_eq!(other_threads.body, cold.body);

    // The summary of a shared snapshot is shared too: every thread count
    // reads the same bytes.
    let summary = |threads: usize| {
        let query = format!("?nodes=70&seed=3&threads={threads}&artifact=summary.json");
        post_run(addr, &query).body
    };
    let one = summary(1);
    assert!(one.starts_with(b"{"));
    assert_eq!(one, summary(4), "shared snapshot, shared summary bytes");

    server.shutdown();
}

/// The snapshot key is FNV-1a over the body and then the canonical option
/// string: these values were recorded before the key moved onto the
/// store's `Fnv64`, and a byte-affecting input moves the key while an
/// execution-only one does not.
#[test]
fn snapshot_keys_are_pinned_and_track_only_byte_affecting_inputs() {
    let server = start(1, 64, 64);
    let addr = server.local_addr();
    let key = |query: &str| {
        let resp = post_run(addr, query);
        assert_eq!(resp.status, 200, "{query}");
        resp.header("x-gmark-snapshot-key").unwrap().to_owned()
    };
    assert_eq!(key("?nodes=250&seed=7"), "c907eeee587a74a9");
    assert_eq!(
        key("?nodes=250&seed=7&config=examples/configs/bib.xml&artifact=summary.json"),
        "4f0ec139392cca32"
    );
    assert_eq!(
        key("?seed=7&threads=2&nodes=250&artifact=report.txt"),
        "c907eeee587a74a9"
    );
    assert_ne!(key("?nodes=250&seed=8"), "c907eeee587a74a9");
    server.shutdown();
}

#[test]
fn saturation_answers_429_with_retry_after_and_still_serves_some() {
    // One worker, a one-deep queue, and slow builds: with six plans in
    // flight at once, at least one connection must bounce off the full
    // queue with 429 + Retry-After, and at least one must be served.
    let server = start(1, 1, 64);
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..6u64 {
        handles.push(std::thread::spawn(move || {
            // Distinct seeds so every request is a fresh (slow) build.
            post_run(addr, &format!("?nodes=2000&seed={i}&artifact=summary.json"))
        }));
    }
    let responses: Vec<ClientResponse> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let served = responses.iter().filter(|r| r.status == 200).count();
    let rejected: Vec<&ClientResponse> = responses.iter().filter(|r| r.status == 429).collect();
    assert!(served >= 1, "someone must be served");
    assert!(
        !rejected.is_empty(),
        "a 1-worker 1-deep server under 6 concurrent slow builds must shed load; statuses: {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for resp in rejected {
        assert_eq!(
            resp.header("retry-after"),
            Some("1"),
            "429 carries Retry-After"
        );
    }
    let stats = fetch(addr, "GET", "/v1/stats", b"").unwrap();
    let text = String::from_utf8(stats.body).unwrap();
    assert!(text.contains("\"rejected\":"), "{text}");
    assert!(!text.contains("\"rejected\":0"), "counter moved: {text}");

    server.shutdown();
}

#[test]
fn keep_alive_requests_are_byte_identical_to_one_per_connection() {
    let server = start(2, 64, 64);
    let addr = server.local_addr();

    // The same three plans, once over three separate connections…
    let cases: [(u64, u64); 3] = [(60, 1), (60, 2), (90, 1)];
    let one_per_conn: Vec<ClientResponse> = cases
        .iter()
        .map(|(nodes, seed)| {
            post_run(
                addr,
                &format!("?nodes={nodes}&seed={seed}&artifact=graph.nt"),
            )
        })
        .collect();

    // …and once back to back on a single kept-alive connection.
    let mut client = Client::connect(addr).expect("connects");
    for ((nodes, seed), reference) in cases.iter().zip(&one_per_conn) {
        let resp = client
            .request(
                "POST",
                &format!("/v1/run?nodes={nodes}&seed={seed}&artifact=graph.nt"),
                BIB_XML.as_bytes(),
            )
            .expect("kept-alive request round-trips");
        assert_eq!(resp.status, 200);
        assert!(
            !resp.close_after(),
            "server must offer to keep the connection"
        );
        assert_eq!(
            resp.body, reference.body,
            "kept-alive bytes must equal one-per-connection bytes \
             (nodes={nodes}, seed={seed})"
        );
        assert_eq!(
            resp.header("x-gmark-snapshot-key"),
            reference.header("x-gmark-snapshot-key"),
            "transport must not leak into the snapshot key"
        );
        // And both equal the CLI's bytes — the central pin, regardless
        // of transport.
        assert_eq!(
            resp.body,
            reference_artifact(*nodes, *seed, Artifact::Graph)
        );
    }

    // Each kept-alive request was admitted individually: 3 connections
    // + 3 follow-up-capable requests on one = 7 admitted requests total
    // (6 runs + the stats request still in flight is not yet counted).
    let stats = fetch(addr, "GET", "/v1/stats", b"").unwrap();
    let text = String::from_utf8(stats.body).unwrap();
    assert!(
        text.contains("\"admitted\":7"),
        "per-request admission accounting: {text}"
    );
    // The run route fed every latency histogram: each plan built once,
    // every run streamed its artifact back.
    assert!(text.contains("\"latency\":"), "{text}");
    for histogram in ["queue_wait", "build", "stream"] {
        let count = format!("\"{histogram}\":{{\"count\":");
        assert!(text.contains(&count), "{text}");
        assert!(!text.contains(&format!("{count}0")), "{text}");
    }

    server.shutdown();
}

/// Two requests sent in one `write` come back as two responses, in order,
/// each carrying the bytes the same request gets on its own connection.
#[test]
fn pipelined_requests_are_answered_in_order_with_sequential_bytes() {
    let server = start(1, 64, 64);
    let addr = server.local_addr();
    let queries = [
        "?nodes=60&seed=1&artifact=graph.nt",
        "?nodes=90&seed=2&artifact=workload.txt",
    ];
    let sequential: Vec<ClientResponse> = queries.iter().map(|q| post_run(addr, q)).collect();

    let mut wire = Vec::new();
    for query in queries {
        wire.extend_from_slice(
            format!(
                "POST /v1/run{query} HTTP/1.1\r\nHost: gmark\r\nContent-Length: {}\r\n\r\n",
                BIB_XML.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(BIB_XML.as_bytes());
    }
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .unwrap();
    stream.write_all(&wire).expect("both requests sent at once");
    let mut conn = Conn::new(stream);
    for (query, reference) in queries.iter().zip(&sequential) {
        let resp = conn.read_response().expect("pipelined response");
        assert_eq!(resp.status, 200, "{query}");
        assert!(!resp.close_after(), "{query}");
        assert_eq!(resp.header("x-gmark-cache"), Some("hit"), "{query}");
        assert_eq!(
            resp.header("x-gmark-artifact"),
            reference.header("x-gmark-artifact")
        );
        assert_eq!(resp.body, reference.body, "{query}");
    }
    assert_eq!(
        sequential[0].body,
        reference_artifact(60, 1, Artifact::Graph)
    );

    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_closed_after_the_window() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        keep_alive_ms: 200,
        ..ServeConfig::default()
    })
    .expect("server binds a free port");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connects");
    let resp = client
        .request("GET", "/healthz", b"")
        .expect("first request works");
    assert_eq!(resp.status, 200);
    assert!(!resp.close_after(), "connection offered for reuse");

    // Sit out the idle window; the server must close the connection.
    std::thread::sleep(std::time::Duration::from_millis(700));
    assert!(
        client.request("GET", "/healthz", b"").is_err(),
        "a request after the idle window must fail: the server closed"
    );

    // The worker is back in the pool: fresh connections are served.
    let after = fetch(addr, "GET", "/healthz", b"").expect("fresh connection served");
    assert_eq!(after.status, 200);

    server.shutdown();
}

/// A kept-alive connection yields its worker to a queued one: with one
/// worker busy on connection A and connection B waiting in the queue, A's
/// next response announces the close, and B is served next.
#[test]
fn a_queued_connection_takes_the_worker_after_the_next_response() {
    let server = start(1, 64, 64);
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("A connects");
    let first = a
        .request("GET", "/healthz", b"")
        .expect("A's first request");
    assert!(!first.close_after(), "nobody waiting: keep-alive");

    // B connects and sends while the only worker waits on A.
    let mut b = TcpStream::connect(addr).expect("B connects");
    b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    b.write_all(b"GET /healthz HTTP/1.1\r\nHost: gmark\r\n\r\n")
        .expect("B's request sent");

    // A asks until the acceptor has queued B; the stats in that response
    // show B waiting, and the response closes A.
    let mut closing = None;
    for _ in 0..250 {
        let resp = a.request("GET", "/v1/stats", b"").expect("A's request");
        if resp.close_after() {
            closing = Some(resp);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let closing = closing.expect("A's response must announce the close once B is queued");
    let text = String::from_utf8(closing.body).unwrap();
    assert!(text.contains("\"queue_depth\":1"), "{text}");

    let resp = Conn::new(b).read_response().expect("B is answered");
    assert_eq!((resp.status, resp.body.as_slice()), (200, &b"ok\n"[..]));

    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests_before_returning() {
    let server = start(1, 8, 64);
    let addr = server.local_addr();

    // Start a request, give it a moment to be admitted, then shut down
    // concurrently. The admitted request must still complete with 200.
    let client = std::thread::spawn(move || post_run(addr, "?nodes=400&seed=9&artifact=graph.nt"));
    std::thread::sleep(std::time::Duration::from_millis(150));
    let server = Arc::new(std::sync::Mutex::new(Some(server)));
    let shutdown = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.lock().unwrap().take().unwrap().shutdown();
        })
    };
    let resp = client.join().expect("client thread");
    assert_eq!(
        resp.status,
        200,
        "admitted request must be drained, not dropped: {}",
        String::from_utf8_lossy(&resp.body)
    );
    shutdown.join().expect("shutdown completes");

    // After drain, the port no longer answers.
    assert!(
        fetch(addr, "GET", "/healthz", b"").is_err(),
        "listener must be gone after shutdown"
    );
}
