//! `gmark bench drive` — closed/open-loop traffic driver with latency
//! percentiles, the load-generation side of the serving scoreboard.
//!
//! Fires a deterministic Zipf-skewed request sequence
//! ([`gmark_bench::driver`]) at one of two targets:
//!
//! * **`--target inprocess`** — per-request engine evaluation against an
//!   in-memory bib graph (no sockets): the ceiling the serving path is
//!   measured against;
//! * **`--target served`** — a real `gmark serve` endpoint over TCP,
//!   either an internal server started by this process or, with
//!   `--addr`, an external one (how the CI smoke drives a daemon it
//!   started itself). `--transport keepalive` reuses one connection per
//!   worker (reconnecting when the server says `Connection: close`);
//!   `--transport close` opens a fresh connection per request — the
//!   pre-keep-alive behavior, kept as the contrast row.
//!
//! Emits one `BENCH_drive.json` row per invocation via the
//! `GMARK_BENCH_JSON` protocol: sustained QPS and p50/p95/p99/max/mean
//! latency of the measured phase, after an untimed warmup.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin drive -- \
//!     --target served --transport keepalive \
//!     [--requests R] [--warmup W] [--max-concurrency C] \
//!     [--zipf-exponent S] [--distinct K] [--rate QPS] [--seed N] \
//!     [--nodes N] [--workers W] [--cache-mb M] [--engine P|G|S|D] \
//!     [--addr HOST:PORT]
//! ```

use gmark::serve::http::{fetch, Client};
use gmark::serve::{ServeConfig, Server};
use gmark_bench::driver::{drive, DriveReport, DriverConfig};
use gmark_bench::{append_bench_json, build_graph, peak_rss_kb, take_flag_value, WorkloadKind};
use gmark_engines::{Budget, EngineKind, EvalContext};
use gmark_stats::JsonWriter;
use std::net::{SocketAddr, ToSocketAddrs};

const BIB_XML: &str = include_str!("../../../../examples/configs/bib.xml");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Inprocess,
    Served,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    KeepAlive,
    Close,
}

struct Args {
    target: Target,
    transport: Transport,
    driver: DriverConfig,
    nodes: u64,
    workers: usize,
    cache_mb: usize,
    engine: EngineKind,
    addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target: Target::Served,
        transport: Transport::KeepAlive,
        driver: DriverConfig {
            requests: 400,
            warmup: 40,
            max_concurrency: 4,
            distinct: 8,
            zipf_exponent: 1.0,
            seed: 0xD21_7E57,
            rate: 0.0,
        },
        nodes: 300,
        workers: 2,
        cache_mb: 128,
        engine: EngineKind::TripleStore,
        addr: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--target" => {
                args.target = match take_flag_value(&argv, &mut i, &flag)?.as_str() {
                    "inprocess" => Target::Inprocess,
                    "served" => Target::Served,
                    other => {
                        return Err(format!(
                            "--target: expected inprocess|served, got {other:?}"
                        ))
                    }
                }
            }
            "--transport" => {
                args.transport = match take_flag_value(&argv, &mut i, &flag)?.as_str() {
                    "keepalive" => Transport::KeepAlive,
                    "close" => Transport::Close,
                    other => {
                        return Err(format!(
                            "--transport: expected keepalive|close, got {other:?}"
                        ))
                    }
                }
            }
            "--requests" => {
                args.driver.requests = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--warmup" => {
                args.driver.warmup = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--max-concurrency" => {
                args.driver.max_concurrency = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--zipf-exponent" => {
                args.driver.zipf_exponent = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--distinct" => {
                args.driver.distinct = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--rate" => args.driver.rate = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--seed" => args.driver.seed = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--nodes" => args.nodes = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--workers" => args.workers = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--cache-mb" => args.cache_mb = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--engine" => {
                let v = take_flag_value(&argv, &mut i, &flag)?;
                let mut chars = v.chars();
                let (Some(letter), None) = (chars.next(), chars.next()) else {
                    return Err(format!("--engine: expected one letter P|G|S|D, got {v:?}"));
                };
                args.engine = EngineKind::from_letter(letter)
                    .ok_or_else(|| format!("--engine: unknown engine letter {letter:?}"))?;
            }
            "--addr" => args.addr = Some(take_flag_value(&argv, &mut i, &flag)?),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if args.driver.requests == 0 {
        return Err("--requests must be positive".to_owned());
    }
    if args.driver.distinct == 0 {
        return Err("--distinct must be positive".to_owned());
    }
    if !args.driver.zipf_exponent.is_finite() || args.driver.zipf_exponent < 0.0 {
        return Err("--zipf-exponent must be >= 0 (0 means uniform)".to_owned());
    }
    if !args.driver.rate.is_finite() || args.driver.rate < 0.0 {
        return Err("--rate must be >= 0 (0 means closed loop)".to_owned());
    }
    if args.addr.is_some() && args.target != Target::Served {
        return Err("--addr only applies to --target served".to_owned());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// The request every served-mode worker fires for popularity index
/// `idx`: one of `distinct` small plans, distinguished by seed, with the
/// compact summary artifact so the measurement is transport-dominated.
fn run_path(nodes: u64, base_seed: u64, idx: usize) -> String {
    format!(
        "/v1/run?nodes={nodes}&seed={}&artifact=summary.json",
        base_seed + idx as u64
    )
}

/// Drives per-request engine evaluation with no transport in the way.
fn drive_inprocess(args: &Args) -> DriveReport {
    let bib = gmark_core::usecases::bib();
    let graph = build_graph(&bib, args.nodes, args.driver.seed, 1);
    let workload = WorkloadKind::Len.workload(&bib, args.driver.seed);
    let queries: Vec<_> = workload.queries.iter().map(|gq| &gq.query).collect();
    let ctx = EvalContext::new(&graph);
    let budget = Budget::default();

    let mut cfg = args.driver.clone();
    cfg.distinct = cfg.distinct.min(queries.len()).max(1);
    let engine = args.engine;
    drive(&cfg, |_worker| {
        let ctx = &ctx;
        let queries = &queries;
        let budget = &budget;
        move |idx: usize| {
            engine
                .evaluate(ctx, queries[idx], None, budget)
                .map(|_| ())
                .map_err(|e| format!("{e:?}"))
        }
    })
}

/// Drives a live serve endpoint; starts an internal server unless
/// `--addr` points at an external one.
fn drive_served(args: &Args) -> Result<DriveReport, String> {
    let internal = if args.addr.is_some() {
        None
    } else {
        Some(
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: args.workers,
                cache_mb: args.cache_mb,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("starting internal server: {e}"))?,
        )
    };
    let addr: SocketAddr = match (&internal, &args.addr) {
        (Some(server), _) => server.local_addr(),
        (None, Some(spec)) => spec
            .to_socket_addrs()
            .map_err(|e| format!("--addr {spec:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("--addr {spec:?} resolves to nothing"))?,
        (None, None) => unreachable!("parse_args guarantees a server or an addr"),
    };

    let nodes = args.nodes;
    let base_seed = args.driver.seed;
    let distinct = args.driver.distinct;

    // Pre-touch every distinct plan once, serially: the snapshot builds
    // happen here, so the measured phase compares transports over cache
    // hits instead of racing cold builds.
    for idx in 0..distinct {
        let resp = fetch(
            addr,
            "POST",
            &run_path(nodes, base_seed, idx),
            BIB_XML.as_bytes(),
        )
        .map_err(|e| format!("pre-touch request failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "pre-touch of plan {idx} answered {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
    }

    let transport = args.transport;
    let report = drive(&args.driver, |_worker| {
        let mut client: Option<Client> = None;
        move |idx: usize| -> Result<(), String> {
            let path = run_path(nodes, base_seed, idx);
            match transport {
                Transport::Close => {
                    let resp = fetch(addr, "POST", &path, BIB_XML.as_bytes())
                        .map_err(|e| e.to_string())?;
                    if resp.status == 200 {
                        Ok(())
                    } else {
                        Err(format!("status {}", resp.status))
                    }
                }
                Transport::KeepAlive => {
                    // One reconnect attempt: the server is allowed to
                    // close a kept-alive connection between requests
                    // (idle window, per-connection cap, queue pressure).
                    for attempt in 0..2 {
                        if client.is_none() {
                            client = Some(Client::connect(addr).map_err(|e| e.to_string())?);
                        }
                        let conn = client.as_mut().expect("just connected");
                        match conn.request("POST", &path, BIB_XML.as_bytes()) {
                            Ok(resp) => {
                                if resp.close_after() {
                                    client = None;
                                }
                                return if resp.status == 200 {
                                    Ok(())
                                } else {
                                    Err(format!("status {}", resp.status))
                                };
                            }
                            Err(e) => {
                                client = None;
                                if attempt == 1 {
                                    return Err(e.to_string());
                                }
                            }
                        }
                    }
                    unreachable!("loop returns on the second attempt")
                }
            }
        }
    });

    if let Some(server) = internal {
        server.shutdown();
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drive: {e}");
            std::process::exit(2);
        }
    };

    let (target_name, transport_name) = match args.target {
        Target::Inprocess => ("inprocess", "call"),
        Target::Served => (
            "served",
            match args.transport {
                Transport::KeepAlive => "keepalive",
                Transport::Close => "close",
            },
        ),
    };

    let report = match args.target {
        Target::Inprocess => drive_inprocess(&args),
        Target::Served => match drive_served(&args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("drive: {e}");
                std::process::exit(1);
            }
        },
    };

    let lat = &report.latency;
    println!(
        "drive: {target_name}/{transport_name} n={} distinct={} c={} zipf={} -> \
         {:.1} req/s over {} requests ({} errors); \
         p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        args.nodes,
        args.driver.distinct,
        args.driver.max_concurrency,
        args.driver.zipf_exponent,
        report.qps,
        report.completed + report.errors,
        report.errors,
        lat.quantile_micros(0.50) as f64 / 1e3,
        lat.quantile_micros(0.95) as f64 / 1e3,
        lat.quantile_micros(0.99) as f64 / 1e3,
        lat.max_micros as f64 / 1e3,
    );
    if let Some(e) = &report.first_error {
        eprintln!("drive: first error: {e}");
    }

    let ms = |micros: u64| micros as f64 / 1e3;
    let mut row = JsonWriter::new();
    row.begin_object();
    row.key("bench").string("drive");
    row.key("scenario").string("bib");
    row.key("target").string(target_name);
    row.key("transport").string(transport_name);
    row.key("engine")
        .string(args.engine.letter().encode_utf8(&mut [0; 4]));
    row.key("nodes").uint(args.nodes);
    row.key("distinct").uint(args.driver.distinct as u64);
    row.key("requests").uint(args.driver.requests as u64);
    row.key("warmup").uint(args.driver.warmup as u64);
    row.key("max_concurrency")
        .uint(args.driver.max_concurrency as u64);
    row.key("zipf_exponent").fixed(args.driver.zipf_exponent, 3);
    row.key("rate").fixed(args.driver.rate, 3);
    row.key("qps").fixed(report.qps, 3);
    row.key("p50_ms").fixed(ms(lat.quantile_micros(0.50)), 3);
    row.key("p95_ms").fixed(ms(lat.quantile_micros(0.95)), 3);
    row.key("p99_ms").fixed(ms(lat.quantile_micros(0.99)), 3);
    row.key("max_ms").fixed(ms(lat.max_micros), 3);
    row.key("mean_ms").fixed(ms(lat.mean_micros()), 3);
    row.key("completed").uint(report.completed);
    row.key("errors").uint(report.errors);
    row.key("seconds").fixed(report.seconds, 6);
    row.key("peak_rss_kb").opt_uint(peak_rss_kb());
    row.end_object();
    let row = row.finish();
    if let Err(e) = append_bench_json(&row) {
        eprintln!("drive: writing bench row: {e}");
    }

    if report.errors > 0 {
        std::process::exit(1);
    }
}
