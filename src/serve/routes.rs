//! Request dispatch: the per-connection request loop and the routes it
//! feeds.
//!
//! One admitted connection is served in a loop (HTTP/1.1 keep-alive):
//! read a request, answer it, and — unless the client asked to close,
//! the idle window ran out, shutdown began, or other connections are
//! waiting in the queue — take the next one off the same connection: at
//! once when it was pipelined behind the last, else after waiting for
//! it. Every follow-up request is admission-accounted individually, so
//! `/v1/stats` counts requests, not connections.
//!
//! `POST /v1/run` is the CLI's `gmark --config … --output …` re-expressed
//! over HTTP: the body is the schema XML, the query string carries the
//! flags, and the selected artifact streams back chunked. The query
//! parameters *are* the CLI's flags: both doors feed the one parameter
//! table of [`crate::run::RunRequest`], so a request the CLI rejects gets
//! the same complaint as a 400 here. What this door owns is what only
//! HTTP has: `artifact` (a view selector), `deadline_ms` (admission
//! bookkeeping), and `config` (a label recorded in the summary, never
//! opened). Every parameter, the door's own included, may be given once.
//! Two deliberate differences from the CLI: the server never takes a
//! filesystem path from a client (`from_store` is refused), and an absent
//! `threads` means auto-detect. `threads`/`deadline_ms`/`artifact` stay
//! **out** of the snapshot key — they never change artifact bytes, so
//! requests differing only there share one snapshot.

use super::admission::Job;
use super::cache::Snapshot;
use super::http::{self, Request};
use super::ServerShared;
use crate::run::{run, Artifact, Door, MemorySink, RunPlan, RunRequest};
use crate::store::paged::Fnv64;
use gmark_stats::JsonWriter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A handler-level failure: the status and message of the error response.
type Reject = (u16, String);

fn bad(msg: impl Into<String>) -> Reject {
    (400, msg.into())
}

/// Serves requests off one admitted connection until it should close:
/// the keep-alive request loop.
pub(crate) fn handle(shared: &ServerShared, job: Job) {
    let Job { stream, enqueued } = job;
    let Ok(mut conn) = http::Conn::server(stream) else {
        return;
    };
    let idle = Duration::from_millis(shared.config.keep_alive_ms);
    // The first request rode through the admission queue; follow-ups are
    // stamped on arrival (their queue wait is the worker's read, ~0).
    let mut enqueued = Some(enqueued);

    loop {
        let enqueued_at = match enqueued.take() {
            Some(t) => t,
            // A pipelined request already buffered is served at once;
            // otherwise wait out the idle window for the next one.
            None if conn.await_request(idle, || shared.stopping()) => {
                shared.admission.note_keep_alive_request();
                Instant::now()
            }
            None => return,
        };
        let request = match conn.read_request(Instant::now() + http::REQUEST_TIMEOUT) {
            Ok(request) => request,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let _ = http::write_error(conn.get_mut(), status, &e.to_string(), false);
                }
                return;
            }
        };
        // Keep the connection unless: the client said close, keep-alive
        // is disabled, shutdown began (finish this request, then close —
        // the drain contract), or other connections are waiting in the
        // queue (yield the worker rather than let one client starve the
        // line).
        let keep_alive = request.keep_alive
            && shared.config.keep_alive_ms > 0
            && !shared.stopping()
            && shared.admission.queue_depth() == 0;

        let stream = conn.get_mut();
        let result = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/run") => run_route(shared, enqueued_at, &request, stream, keep_alive),
            ("GET", "/healthz") => {
                let text = "text/plain; charset=utf-8";
                respond(stream, 200, text, b"ok\n", keep_alive)
            }
            ("GET", "/v1/stats") => {
                let body = stats_json(shared);
                respond(stream, 200, "application/json", body.as_bytes(), keep_alive)
            }
            ("GET", path) => Err((404, format!("no such resource: {path}"))),
            ("POST" | "PUT" | "DELETE", path) => {
                Err((405, format!("method not allowed on {path}")))
            }
            (method, _) => Err((405, format!("method {method} not supported"))),
        };

        if let Err((status, message)) = result {
            let _ = http::write_error(stream, status, &message, keep_alive);
        }
        if !keep_alive {
            return;
        }
    }
}

fn respond(
    stream: &mut std::net::TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Result<(), Reject> {
    // A client that went away is not this request's failure to report.
    let _ = http::write_response(
        stream,
        status,
        &[("Content-Type", content_type)],
        body,
        keep_alive,
    );
    Ok(())
}

/// `POST /v1/run` — validate, get-or-build the snapshot, stream the
/// artifact.
fn run_route(
    shared: &ServerShared,
    enqueued: Instant,
    request: &Request,
    stream: &mut std::net::TcpStream,
    keep_alive: bool,
) -> Result<(), Reject> {
    shared.latency.queue_wait.record(enqueued.elapsed());
    let query = RunQuery::parse(&request.query)?;
    // Deadline before the body: a request that waited out its budget in
    // the queue is answered 503 without burning a build on it. The
    // deadline is admission bookkeeping only — it never reaches the plan,
    // so it can never change artifact bytes.
    let deadline_ms = query.deadline_ms.unwrap_or(shared.config.deadline_ms);
    if deadline_ms > 0 && enqueued.elapsed() > Duration::from_millis(deadline_ms) {
        shared.admission.note_expired();
        return Err((
            503,
            format!("deadline of {deadline_ms} ms expired in the queue"),
        ));
    }

    let mut plan = plan_from_body(&request.body)?;
    // `config` labels the summary's `config` field with the path the
    // client read its schema from, so served and CLI summaries agree. The
    // server never opens it, but it changes summary.json and report.txt
    // bytes, so it reaches the snapshot key through the plan.
    plan.source = query.config;
    // An absent `threads` means auto-detect here.
    let (plan, opts, key_material) = query.run.apply(plan, 0).map_err(|e| bad(e.to_string()))?;
    // The snapshot key: FNV-1a over the body, then the canonical spelling
    // of every other byte-affecting input.
    let mut hash = Fnv64::new();
    hash.update(&request.body);
    hash.update(key_material.as_bytes());
    let key = hash.finish();

    let build_started = Instant::now();
    let (result, hit) = shared.cache.get_or_build(key, move || {
        let mut sink = MemorySink::new();
        match run(&plan, &opts, &mut sink) {
            Ok(_) => Ok(Arc::new(Snapshot::new(sink.into_artifacts()))),
            Err(e) => Err(e.to_string()),
        }
    });
    if !hit {
        shared.latency.build.record(build_started.elapsed());
    }
    let snapshot = result.map_err(|e| (500, format!("run failed: {e}")))?;

    let artifact = select_artifact(query.artifact, &snapshot)?;
    let body = snapshot
        .artifact(artifact)
        .expect("select_artifact verified presence");
    let key_hex = format!("{key:016x}");
    let headers = [
        ("Content-Type", content_type(artifact)),
        ("X-Gmark-Cache", if hit { "hit" } else { "build" }),
        ("X-Gmark-Snapshot-Key", key_hex.as_str()),
        ("X-Gmark-Artifact", artifact.file_name()),
    ];
    let stream_started = Instant::now();
    let _ = http::write_chunked(stream, 200, &headers, body, keep_alive);
    shared.latency.stream.record(stream_started.elapsed());
    Ok(())
}

/// One `POST /v1/run` query string, read in one pass: the run parameters
/// and the three this door owns, each of which may be given once.
struct RunQuery {
    run: RunRequest,
    artifact: Option<Artifact>,
    deadline_ms: Option<u64>,
    config: Option<PathBuf>,
}

impl RunQuery {
    fn parse(query: &[(String, String)]) -> Result<RunQuery, Reject> {
        let mut parsed = RunQuery {
            run: RunRequest::new(Door::Http),
            artifact: None,
            deadline_ms: None,
            config: None,
        };
        for (name, value) in query {
            match name.as_str() {
                "artifact" => {
                    let artifact = Artifact::from_file_name(value).ok_or_else(|| {
                        bad(format!(
                            "unknown artifact {value:?} (one of: {})",
                            Artifact::ALL.map(|a| a.file_name()).join(", ")
                        ))
                    })?;
                    once(&mut parsed.artifact, name, artifact)?;
                }
                "deadline_ms" => {
                    let ms = value
                        .parse()
                        .map_err(|_| bad(format!("deadline_ms: invalid value {value:?}")))?;
                    once(&mut parsed.deadline_ms, name, ms)?;
                }
                "config" => {
                    if value.is_empty() {
                        return Err(bad("config: expected a non-empty path label"));
                    }
                    once(&mut parsed.config, name, PathBuf::from(value))?;
                }
                "from_store" => {
                    return Err(bad(
                        "from_store is not available over HTTP: the server does not read \
                         client-named filesystem paths",
                    ));
                }
                // Everything else is a run parameter, or refused: a typoed
                // `sede=7` silently producing default-seed bytes would be a
                // determinism trap.
                _ => parsed.run.set(name, value).map_err(bad)?,
            }
        }
        Ok(parsed)
    }
}

/// Fills a door parameter's slot, refusing a second value the way
/// [`RunRequest::set`] refuses a repeated run parameter.
fn once<T>(slot: &mut Option<T>, name: &str, value: T) -> Result<(), Reject> {
    match slot.replace(value) {
        Some(_) => Err(bad(format!("{name}: given twice"))),
        None => Ok(()),
    }
}

/// The plan from the request body, which is the schema XML.
fn plan_from_body(body: &[u8]) -> Result<RunPlan, Reject> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    if !text.trim_start().starts_with('<') {
        return Err(bad("the body must be the schema XML"));
    }
    RunPlan::from_xml(text).map_err(|e| bad(e.to_string()))
}

/// The artifact the client asked for, defaulting to the "main" artifact
/// of the plan shape: the graph when generated, else the workload, else
/// the summary.
fn select_artifact(asked: Option<Artifact>, snapshot: &Snapshot) -> Result<Artifact, Reject> {
    let artifact = asked.unwrap_or_else(|| {
        [Artifact::Graph, Artifact::Rules, Artifact::Summary]
            .into_iter()
            .find(|a| snapshot.artifact(*a).is_some())
            .unwrap_or(Artifact::Summary)
    });
    if snapshot.artifact(artifact).is_none() {
        let available: Vec<&str> = snapshot.artifacts().map(|a| a.file_name()).collect();
        return Err((
            404,
            format!(
                "this plan did not produce {}; it produced: {}",
                artifact.file_name(),
                available.join(", ")
            ),
        ));
    }
    Ok(artifact)
}

fn content_type(artifact: Artifact) -> &'static str {
    match artifact {
        Artifact::Summary => "application/json",
        Artifact::Store => "application/octet-stream",
        _ => "text/plain; charset=utf-8",
    }
}

/// `GET /v1/stats` — cache, admission, latency, and pool counters.
fn stats_json(shared: &ServerShared) -> String {
    let cache = shared.cache.stats();
    let admission = shared.admission.stats();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("cache").begin_object();
    w.key("hits").uint(cache.hits);
    w.key("builds").uint(cache.builds);
    w.key("evictions").uint(cache.evictions);
    w.key("entries").uint(cache.entries as u64);
    w.key("bytes").uint(cache.bytes as u64);
    w.key("budget_bytes").uint(cache.budget_bytes as u64);
    w.end_object();
    w.key("admission").begin_object();
    w.key("admitted").uint(admission.admitted);
    w.key("rejected").uint(admission.rejected);
    w.key("expired").uint(admission.expired);
    w.key("queue_depth").uint(admission.queue_depth as u64);
    w.key("queue_capacity")
        .uint(admission.queue_capacity as u64);
    w.end_object();
    w.key("latency").begin_object();
    for (name, histogram) in [
        ("queue_wait", &shared.latency.queue_wait),
        ("build", &shared.latency.build),
        ("stream", &shared.latency.stream),
    ] {
        w.key(name).raw(&histogram.snapshot().to_json());
    }
    w.end_object();
    w.key("workers").uint(shared.config.workers as u64);
    w.end_object();
    w.finish() + "\n"
}
