//! The gMark command-line tool: a thin client of [`gmark::run`].
//!
//! Parses arguments into a [`RunPlan`] + [`RunOptions`], executes them
//! through a [`DirSink`], and prints the [`RunSummary`] — human-readable
//! by default, machine-readable JSON with `--format json`. All
//! orchestration (which pipeline runs, in which mode, where the store
//! build's spool lives, what the report contains) is owned by the library.
//!
//! Outputs, inside `--output <dir>`:
//!
//! * `graph.nt` — the instance as N-Triples,
//! * `graph.gstore` — the instance as an on-disk paged store (with
//!   `--store`); combined with `--stream`, evaluation pages through this
//!   file instead of an in-memory graph,
//! * `workload.txt` — the queries in the paper's rule notation,
//! * `workload.sparql` / `.cypher` / `.sql` / `.datalog` — the four
//!   concrete syntaxes,
//! * `eval.txt` — the (query × engine) evaluation matrix (with `--eval`),
//! * `report.txt` — generation statistics and consistency-check findings,
//! * `summary.json` — the run summary (with `--format json`).
//!
//! ```sh
//! gmark --config config.xml --output out/ [--seed N] [--nodes N] \
//!       [--threads T] [--stream] [--store] [--queries-only] \
//!       [--format text|json] [--eval] [--engines P,G,S,D] \
//!       [--budget-ms N] [--max-tuples N] [--from-store FILE]
//! gmark --verify-store out/graph.gstore
//! ```
//!
//! `--threads` governs every pipeline stage — graph constraints, workload
//! queries, and the `--eval` matrix fan out over the same number of
//! workers — and every output file is byte-identical at every thread
//! count, including 1.

use gmark::engines::EngineKind;
use gmark::run::{run, DirSink, EvalSpec, GmarkError, RunOptions, RunPlan};
use gmark::serve::{ServeConfig, Server};
use gmark::store::StoreReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which rendering of the run summary goes to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The human-readable banner (default).
    Text,
    /// The `RunSummary` as one JSON object (also written to
    /// `summary.json`), so harnesses stop scraping `report.txt`.
    Json,
}

#[derive(Debug)]
struct Args {
    config: PathBuf,
    output: PathBuf,
    seed: Option<u64>,
    nodes: Option<u64>,
    /// Worker threads; 0 = auto-detect (`available_parallelism`).
    threads: usize,
    stream: bool,
    /// Also write the graph as an on-disk paged store (graph.gstore).
    store: bool,
    /// Evaluate against an existing store file instead of generating a
    /// graph (requires --eval).
    from_store: Option<PathBuf>,
    /// Generate the query workload only; skip the graph instance.
    queries_only: bool,
    /// Run the generated workload through the evaluation engines.
    eval: bool,
    /// Engine selection for `--eval` (report column order).
    engines: Option<Vec<EngineKind>>,
    /// Per-cell wall-clock budget in milliseconds (0 = unlimited).
    budget_ms: Option<u64>,
    /// Per-cell tuple cap.
    max_tuples: Option<usize>,
    /// Disable the schema-statistics query planner for `--eval`.
    no_plan: bool,
    /// Disable the cross-cell sub-expression result cache for `--eval`.
    no_eval_cache: bool,
    /// Byte budget for the sub-expression cache, in MiB.
    eval_cache_mb: Option<usize>,
    format: Format,
}

/// A fully parsed command line: either a run to execute, or an informational
/// early exit (`--help` / `--version`) whose text the caller prints before
/// returning success — parsing never terminates the process itself, so
/// destructors run and `main`'s `ExitCode` stays authoritative.
#[derive(Debug)]
enum Parsed {
    Run(Box<Args>),
    /// `--verify-store <file>`: a standalone mode — open the store, check
    /// structure and checksum, print its shape. No config or output
    /// directory involved.
    VerifyStore(PathBuf),
    /// `serve …`: run the benchmark-as-a-service daemon until SIGTERM.
    Serve(ServeConfig),
    EarlyExit(String),
}

const USAGE: &str = "gmark --config <file.xml> --output <dir> [--seed N] [--nodes N] \
[--threads T] [--stream] [--store] [--queries-only] [--format text|json] \
[--eval] [--engines P,G,S,D] [--budget-ms N] [--max-tuples N] [--no-plan] \
[--no-eval-cache] [--eval-cache-mb N] [--from-store FILE]\n\
gmark --verify-store <file.gstore>\n\
gmark serve [--addr HOST:PORT] [--workers N] [--cache-mb MiB] \
[--queue-depth N] [--deadline-ms N] [--keep-alive-ms N] \
[--max-requests-per-conn N]\n\n\
  --threads T     worker threads for EVERY pipeline stage (graph\n\
                  constraints, workload queries, and the --eval matrix);\n\
                  0 auto-detects the available parallelism. Every output\n\
                  file is byte-identical at every thread count,\n\
                  including 1.\n\
  --stream        memory-bounded graph pipeline: write each constraint's\n\
                  N-Triples as they are generated, in constraint order and\n\
                  in one pass, instead of materializing the graph. No\n\
                  temporary files (only --stream --store spools edges to\n\
                  disk); memory is bounded by the largest constraint.\n\
                  Also byte-identical for every thread count. The\n\
                  streamed serialization keeps generation order and\n\
                  duplicate triples; the default serialization is sorted\n\
                  and deduplicated (same edge set either way). Combinable\n\
                  with --eval only alongside --store (the engines then\n\
                  page through the store instead of an in-memory graph).\n\
  --store         also write the graph as an on-disk paged store\n\
                  (graph.gstore): a checksummed binary CSR the evaluation\n\
                  engines can page through without materializing the\n\
                  graph. Store bytes are identical at every thread count\n\
                  and in both pipelines; with --stream the whole\n\
                  generate-and-evaluate loop runs beyond-RAM.\n\
  --from-store F  evaluate against an existing graph.gstore instead of\n\
                  generating a graph (requires --eval; the config must\n\
                  describe the same schema the store was built from).\n\
  --verify-store F  standalone mode: validate an existing store file —\n\
                  structure, offsets, and whole-file checksum — naming\n\
                  the corrupt page on failure, then print its shape.\n\
  --queries-only  generate the query workload from the schema without\n\
                  building the graph at all (no graph.nt); the config must\n\
                  have a <workload> section. Not combinable with --eval.\n\
  --eval          after generating, run every workload query through the\n\
                  evaluation engines against the generated graph (or the\n\
                  paged store, with --stream --store / --from-store) and\n\
                  write the (query x engine) outcome matrix to eval.txt\n\
                  (plus the eval rows of summary.json). The matrix is\n\
                  byte-identical at every thread count whenever cell\n\
                  outcomes cannot race the per-cell deadline — use\n\
                  --budget-ms 0 for the fully deterministic regime.\n\
  --engines LIST  engine columns for --eval, comma-separated paper\n\
                  letters in report order (default P,G,S,D):\n\
                  P relational, G navigational (degraded openCypher\n\
                  semantics), S triple store, D Datalog.\n\
  --budget-ms N   per-cell wall-clock budget for --eval in milliseconds\n\
                  (default 10000); 0 removes the time limit, making cell\n\
                  outcomes machine-independent.\n\
  --max-tuples N  per-cell tuple cap for --eval (default 20000000);\n\
                  exceeding it reports the cell as too-large.\n\
  --no-plan       disable the schema-statistics query planner for --eval:\n\
                  every engine follows the same declaration-order plan\n\
                  (earliest-declared connected conjunct first) and\n\
                  eval.txt drops the est~actual annotations. Cells may\n\
                  move between ok and too-large; answers never depend\n\
                  on this flag.\n\
  --no-eval-cache disable the cross-cell sub-expression result cache for\n\
                  --eval: every cell recomputes its sub-expressions from\n\
                  scratch. Cell outcomes and answer cardinalities never\n\
                  depend on this flag; only wall-clock time does.\n\
  --eval-cache-mb N  byte budget for the sub-expression cache in MiB\n\
                  (default 64). Must be positive; use --no-eval-cache to\n\
                  turn the cache off entirely.\n\
  --format F      what to print on stdout: 'text' (default, human-readable\n\
                  banner) or 'json' (the machine-readable RunSummary, also\n\
                  written to summary.json in the output directory).\n\
  --version       print the version and exit.\n\n\
serve mode (benchmark-as-a-service daemon; POST /v1/run a schema XML\n\
or {\"schema_xml\": …} body with CLI-shaped query parameters, stream\n\
the artifact back; GET /v1/run/<id>/summary, /v1/stats, /healthz):\n\
  --addr A        listen address (default 127.0.0.1:7878; port 0 picks\n\
                  a free port and prints it).\n\
  --workers N     worker threads draining the accept queue (default 4).\n\
  --cache-mb M    snapshot cache byte budget in MiB (default 256);\n\
                  identical plans are served from cache, paying the\n\
                  run exactly once. 0 disables retention.\n\
  --queue-depth N accept-queue capacity (default 64); connections past\n\
                  it are answered 429 with Retry-After.\n\
  --deadline-ms N default per-request deadline; requests still queued\n\
                  past it are answered 503 (default 0 = none).\n\
  --keep-alive-ms N  idle window for HTTP/1.1 keep-alive: how long a\n\
                  worker waits for the next request on a persistent\n\
                  connection before closing it (default 5000;\n\
                  0 disables keep-alive, every response closes).\n\
  --max-requests-per-conn N  requests served per connection before the\n\
                  server closes it and returns the worker to the queue\n\
                  (default 1000, minimum 1).\n\
SIGTERM/SIGINT drain admitted requests, then exit 0.";

fn parse_args(argv: &[String]) -> Result<Parsed, String> {
    if argv.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&argv[1..]);
    }
    let mut config = None;
    let mut output = None;
    let mut seed = None;
    let mut nodes = None;
    let mut threads = 1usize;
    let mut stream = false;
    let mut store = false;
    let mut from_store = None;
    let mut queries_only = false;
    let mut eval = false;
    let mut engines = None;
    let mut budget_ms = None;
    let mut max_tuples = None;
    let mut no_plan = false;
    let mut no_eval_cache = false;
    let mut eval_cache_mb = None;
    let mut format = Format::Text;
    let mut i = 0;
    while i < argv.len() {
        // Takes the value following `argv[i]`, naming the flag (not a
        // positional guess) in the error when the value is missing.
        let take_value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let flag = argv[i].clone();
        match flag.as_str() {
            "--config" | "-c" => config = Some(PathBuf::from(take_value(&mut i, &flag)?)),
            "--output" | "-o" => output = Some(PathBuf::from(take_value(&mut i, &flag)?)),
            "--seed" => {
                let v = take_value(&mut i, &flag)?;
                seed = Some(v.parse().map_err(|_| {
                    format!("--seed: expected an unsigned 64-bit integer, got {v:?}")
                })?)
            }
            "--nodes" | "-n" => {
                let v = take_value(&mut i, &flag)?;
                nodes =
                    Some(v.parse().map_err(|_| {
                        format!("{flag}: expected a positive node count, got {v:?}")
                    })?)
            }
            "--threads" => {
                let v = take_value(&mut i, &flag)?;
                threads = v.parse().map_err(|_| {
                    format!(
                        "--threads: expected a non-negative integer (0 = auto-detect), got {v:?}"
                    )
                })?
            }
            "--stream" => stream = true,
            "--store" => store = true,
            "--from-store" => from_store = Some(PathBuf::from(take_value(&mut i, &flag)?)),
            "--verify-store" => {
                return Ok(Parsed::VerifyStore(PathBuf::from(take_value(
                    &mut i, &flag,
                )?)));
            }
            "--queries-only" => queries_only = true,
            "--eval" => eval = true,
            "--engines" => {
                let v = take_value(&mut i, &flag)?;
                engines = Some(EngineKind::parse_list(&v).map_err(|e| format!("--engines: {e}"))?);
            }
            "--budget-ms" => {
                let v = take_value(&mut i, &flag)?;
                budget_ms = Some(v.parse().map_err(|_| {
                    format!("--budget-ms: expected a millisecond count (0 = unlimited), got {v:?}")
                })?)
            }
            "--max-tuples" => {
                let v = take_value(&mut i, &flag)?;
                let cap: usize = v.parse().map_err(|_| {
                    format!("--max-tuples: expected a positive tuple cap, got {v:?}")
                })?;
                if cap == 0 {
                    // Unlike --budget-ms, 0 does not mean "unlimited" here
                    // — it would deterministically fail every non-empty
                    // cell. Reject it instead of producing useless output.
                    return Err(
                        "--max-tuples: the cap must be positive (every non-empty cell \
                         would report too-large); omit the flag for the default cap"
                            .to_owned(),
                    );
                }
                max_tuples = Some(cap)
            }
            "--no-plan" => no_plan = true,
            "--no-eval-cache" => no_eval_cache = true,
            "--eval-cache-mb" => {
                let v = take_value(&mut i, &flag)?;
                let mb: usize = v.parse().map_err(|_| {
                    format!("--eval-cache-mb: expected a cache budget in MiB, got {v:?}")
                })?;
                if mb == 0 {
                    // A zero byte budget would silently behave like
                    // --no-eval-cache; make the intent explicit instead.
                    return Err(
                        "--eval-cache-mb: the budget must be positive; use --no-eval-cache \
                         to disable the cache"
                            .to_owned(),
                    );
                }
                eval_cache_mb = Some(mb)
            }
            "--format" => {
                format = match take_value(&mut i, &flag)?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("--format: expected text|json, got {other:?}")),
                }
            }
            "--version" | "-V" => {
                return Ok(Parsed::EarlyExit(format!(
                    "gmark {}",
                    env!("CARGO_PKG_VERSION")
                )));
            }
            "--help" | "-h" => {
                return Ok(Parsed::EarlyExit(USAGE.to_owned()));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if !eval
        && (engines.is_some()
            || budget_ms.is_some()
            || max_tuples.is_some()
            || no_plan
            || no_eval_cache
            || eval_cache_mb.is_some())
    {
        return Err(
            "--engines/--budget-ms/--max-tuples/--no-plan/--no-eval-cache/--eval-cache-mb \
             require --eval"
                .to_owned(),
        );
    }
    if no_eval_cache && eval_cache_mb.is_some() {
        return Err(
            "--no-eval-cache disables the cache --eval-cache-mb would size; pick one".to_owned(),
        );
    }
    if eval && queries_only {
        return Err("--eval needs the graph instance; drop --queries-only".to_owned());
    }
    if from_store.is_some() && !eval {
        return Err("--from-store is only consumed by --eval".to_owned());
    }
    if from_store.is_some() && (store || stream || queries_only) {
        return Err(
            "--from-store replaces graph generation; drop --store/--stream/--queries-only"
                .to_owned(),
        );
    }
    if store && queries_only {
        return Err("--queries-only generates no graph to store; drop --store".to_owned());
    }
    if eval && stream && !store {
        return Err(
            "--eval with --stream needs the on-disk store: add --store (the engines \
             then page through graph.gstore) or drop --stream"
                .to_owned(),
        );
    }
    Ok(Parsed::Run(Box::new(Args {
        config: config.ok_or("--config is required")?,
        output: output.ok_or("--output is required")?,
        seed,
        nodes,
        threads,
        stream,
        store,
        from_store,
        queries_only,
        eval,
        engines,
        budget_ms,
        max_tuples,
        no_plan,
        no_eval_cache,
        eval_cache_mb,
        format,
    })))
}

/// Parses everything after the `serve` subcommand word.
fn parse_serve_args(argv: &[String]) -> Result<Parsed, String> {
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        let flag = argv[i].clone();
        match flag.as_str() {
            "--addr" => config.addr = take_value(&mut i, &flag)?,
            "--workers" => {
                let v = take_value(&mut i, &flag)?;
                let n: usize = v.parse().map_err(|_| {
                    format!("--workers: expected a positive thread count, got {v:?}")
                })?;
                if n == 0 {
                    return Err("--workers: the pool needs at least one thread".to_owned());
                }
                config.workers = n;
            }
            "--cache-mb" => {
                let v = take_value(&mut i, &flag)?;
                config.cache_mb = v.parse().map_err(|_| {
                    format!("--cache-mb: expected a budget in MiB (0 = no retention), got {v:?}")
                })?;
            }
            "--queue-depth" => {
                let v = take_value(&mut i, &flag)?;
                let depth: usize = v.parse().map_err(|_| {
                    format!("--queue-depth: expected a positive queue capacity, got {v:?}")
                })?;
                if depth == 0 {
                    return Err(
                        "--queue-depth: a zero-capacity queue would reject every request"
                            .to_owned(),
                    );
                }
                config.queue_depth = depth;
            }
            "--deadline-ms" => {
                let v = take_value(&mut i, &flag)?;
                config.deadline_ms = v.parse().map_err(|_| {
                    format!("--deadline-ms: expected a millisecond count (0 = none), got {v:?}")
                })?;
            }
            "--keep-alive-ms" => {
                let v = take_value(&mut i, &flag)?;
                config.keep_alive_ms = v.parse().map_err(|_| {
                    format!(
                        "--keep-alive-ms: expected a millisecond idle window \
                         (0 = no keep-alive), got {v:?}"
                    )
                })?;
            }
            "--max-requests-per-conn" => {
                let v = take_value(&mut i, &flag)?;
                let n: usize = v.parse().map_err(|_| {
                    format!("--max-requests-per-conn: expected a positive count, got {v:?}")
                })?;
                if n == 0 {
                    return Err(
                        "--max-requests-per-conn: a connection must carry at least one request"
                            .to_owned(),
                    );
                }
                config.max_requests_per_conn = n;
            }
            "--help" | "-h" => return Ok(Parsed::EarlyExit(USAGE.to_owned())),
            other => return Err(format!("serve: unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(Parsed::Serve(config))
}

/// The `serve` mode: run the daemon until SIGTERM/SIGINT, then drain and
/// exit cleanly.
fn serve_daemon(config: ServeConfig) -> Result<(), GmarkError> {
    let stop = gmark::serve::request_shutdown_on_signals();
    let server =
        Server::start(config).map_err(|e| GmarkError::io("binding the serve listener", e))?;
    println!(
        "gmark serve: listening on http://{} (POST /v1/run; SIGTERM drains and exits)",
        server.local_addr()
    );
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("gmark serve: shutdown requested, draining");
    server.shutdown();
    eprintln!("gmark serve: drained, bye");
    Ok(())
}

fn execute(args: &Args) -> Result<(), GmarkError> {
    // What to generate…
    let mut plan = RunPlan::from_config_file(&args.config)?;
    if let Some(n) = args.nodes {
        plan = plan.with_nodes(n);
    }
    if args.queries_only {
        if plan.workload.is_none() {
            return Err(GmarkError::Plan(format!(
                "--queries-only: {} has no <workload> section",
                args.config.display()
            )));
        }
        plan.outputs.graph = false;
    }
    if args.eval {
        if plan.workload.is_none() {
            return Err(GmarkError::Plan(format!(
                "--eval: {} has no <workload> section to evaluate",
                args.config.display()
            )));
        }
        let mut spec = EvalSpec::default();
        if let Some(engines) = &args.engines {
            spec.engines = engines.clone();
        }
        if let Some(ms) = args.budget_ms {
            spec.budget_ms = ms;
        }
        if let Some(cap) = args.max_tuples {
            spec.max_tuples = cap;
        }
        spec.plan = !args.no_plan;
        spec.cache = !args.no_eval_cache;
        if let Some(mb) = args.eval_cache_mb {
            spec.cache_mb = mb;
        }
        plan.eval = Some(spec);
    }
    if args.store {
        plan.outputs.store = true;
    }
    if let Some(path) = &args.from_store {
        plan.outputs.graph = false;
        plan.from_store = Some(path.clone());
    }

    // …how…
    let opts = RunOptions {
        seed: args.seed,
        threads: args.threads,
        stream: args.stream,
        ..RunOptions::default()
    };

    // …and where. The library does the rest. (DirSink::new already
    // annotates its error with the directory path.)
    let mut sink = DirSink::new(&args.output)?.with_summary_json(args.format == Format::Json);
    let summary = run(&plan, &opts, &mut sink)?;

    match args.format {
        Format::Json => println!("{}", summary.to_json()),
        Format::Text => {
            print!("{summary}");
            println!("report -> {}/report.txt", args.output.display());
        }
    }
    Ok(())
}

/// The `--verify-store` mode: structural validation (offsets, bounds,
/// monotonicity — corruption names the bad page) plus the whole-file
/// checksum, then a one-line shape description.
fn verify_store(path: &Path) -> Result<String, GmarkError> {
    let reader = StoreReader::open(path)?;
    reader.verify()?;
    let info = reader.info();
    Ok(format!(
        "{}: ok ({} nodes, {} predicates, {} edges, {} bytes, page size {})",
        path.display(),
        reader.node_count(),
        reader.predicate_count(),
        info.edges,
        info.bytes,
        info.page_size,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Parsed::EarlyExit(text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Ok(Parsed::VerifyStore(path)) => match verify_store(&path) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gmark: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Parsed::Run(args)) => match execute(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gmark: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Parsed::Serve(config)) => match serve_daemon(config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gmark: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("gmark: {e}");
            eprintln!("usage: {USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn version_and_help_are_early_exits_not_process_exits() {
        for flags in [&["--version"][..], &["-V"], &["--help"], &["-h"]] {
            match parse_args(&argv(flags)).expect("parses") {
                Parsed::EarlyExit(text) => assert!(!text.is_empty()),
                other => panic!("{flags:?} should early-exit, got {other:?}"),
            }
        }
    }

    #[test]
    fn early_exit_wins_even_mid_command_line() {
        let parsed = parse_args(&argv(&["--config", "x.xml", "--version"])).expect("parses");
        assert!(matches!(parsed, Parsed::EarlyExit(_)));
    }

    #[test]
    fn format_flag_parses_and_rejects_garbage() {
        let parsed = parse_args(&argv(&[
            "--config", "c.xml", "--output", "o", "--format", "json",
        ]))
        .expect("parses");
        match parsed {
            Parsed::Run(args) => assert_eq!(args.format, Format::Json),
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(parse_args(&argv(&["--format", "yaml"])).is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse_args(&argv(&["--output", "o"])).is_err());
        assert!(parse_args(&argv(&["--config", "c.xml"])).is_err());
        assert!(parse_args(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn eval_flags_parse_and_enforce_their_preconditions() {
        let parsed = parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--engines",
            "S,D",
            "--budget-ms",
            "500",
            "--max-tuples",
            "1000",
            "--no-plan",
        ]))
        .expect("parses");
        match parsed {
            Parsed::Run(args) => {
                assert!(args.eval);
                assert_eq!(
                    args.engines.as_deref(),
                    Some(&[EngineKind::TripleStore, EngineKind::Datalog][..])
                );
                assert_eq!(args.budget_ms, Some(500));
                assert_eq!(args.max_tuples, Some(1000));
                assert!(args.no_plan);
            }
            other => panic!("expected a run, got {other:?}"),
        }

        // Eval sub-flags without --eval are rejected.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--engines",
            "P"
        ]))
        .is_err());
        assert!(parse_args(&argv(&["--config", "c.xml", "--output", "o", "--no-plan"])).is_err());
        // Conflicting modes are rejected at parse time.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--queries-only"
        ]))
        .is_err());
        // --eval --stream without a store has no graph for the engines…
        assert!(parse_args(&argv(&[
            "--config", "c.xml", "--output", "o", "--eval", "--stream"
        ]))
        .is_err());
        // …but adding --store makes it the paged beyond-RAM combination.
        match parse_args(&argv(&[
            "--config", "c.xml", "--output", "o", "--eval", "--stream", "--store",
        ]))
        .expect("parses")
        {
            Parsed::Run(args) => assert!(args.eval && args.stream && args.store),
            other => panic!("expected a run, got {other:?}"),
        }
        // A zero tuple cap would fail every non-empty cell: rejected.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--max-tuples",
            "0"
        ]))
        .is_err());
        // Garbage engine letters are rejected.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--engines",
            "P,X"
        ]))
        .is_err());
    }

    #[test]
    fn eval_cache_flags_parse_and_enforce_their_preconditions() {
        match parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--eval-cache-mb",
            "128",
        ]))
        .expect("parses")
        {
            Parsed::Run(args) => {
                assert!(!args.no_eval_cache);
                assert_eq!(args.eval_cache_mb, Some(128));
            }
            other => panic!("expected a run, got {other:?}"),
        }
        match parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--no-eval-cache",
        ]))
        .expect("parses")
        {
            Parsed::Run(args) => {
                assert!(args.no_eval_cache);
                assert_eq!(args.eval_cache_mb, None);
            }
            other => panic!("expected a run, got {other:?}"),
        }
        // Cache flags without --eval are rejected, like the other eval
        // sub-flags.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--no-eval-cache"
        ]))
        .is_err());
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval-cache-mb",
            "64"
        ]))
        .is_err());
        // Sizing a cache that is simultaneously disabled is contradictory.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--no-eval-cache",
            "--eval-cache-mb",
            "64"
        ]))
        .is_err());
        // A zero budget would silently act like --no-eval-cache: rejected.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--eval-cache-mb",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn store_flags_parse_and_enforce_their_preconditions() {
        // --verify-store is a standalone mode.
        match parse_args(&argv(&["--verify-store", "g.gstore"])).expect("parses") {
            Parsed::VerifyStore(path) => assert_eq!(path, PathBuf::from("g.gstore")),
            other => panic!("expected verify mode, got {other:?}"),
        }
        assert!(parse_args(&argv(&["--verify-store"])).is_err());

        // --from-store needs --eval and replaces generation.
        match parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--from-store",
            "g.gstore",
        ]))
        .expect("parses")
        {
            Parsed::Run(args) => {
                assert_eq!(args.from_store, Some(PathBuf::from("g.gstore")));
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--from-store",
            "g.gstore"
        ]))
        .is_err());
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--from-store",
            "g.gstore",
            "--store"
        ]))
        .is_err());
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--eval",
            "--from-store",
            "g.gstore",
            "--stream"
        ]))
        .is_err());
        // --store without a graph to store is rejected.
        assert!(parse_args(&argv(&[
            "--config",
            "c.xml",
            "--output",
            "o",
            "--store",
            "--queries-only"
        ]))
        .is_err());
    }

    #[test]
    fn serve_subcommand_parses_its_flag_set() {
        match parse_args(&argv(&["serve"])).expect("defaults parse") {
            Parsed::Serve(config) => {
                assert_eq!(config.addr, ServeConfig::default().addr);
                assert_eq!(config.workers, ServeConfig::default().workers);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse_args(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache-mb",
            "32",
            "--queue-depth",
            "5",
            "--deadline-ms",
            "250",
            "--keep-alive-ms",
            "750",
            "--max-requests-per-conn",
            "16",
        ]))
        .expect("full flag set parses")
        {
            Parsed::Serve(config) => {
                assert_eq!(config.addr, "127.0.0.1:0");
                assert_eq!(config.workers, 2);
                assert_eq!(config.cache_mb, 32);
                assert_eq!(config.queue_depth, 5);
                assert_eq!(config.deadline_ms, 250);
                assert_eq!(config.keep_alive_ms, 750);
                assert_eq!(config.max_requests_per_conn, 16);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // 0 is a legal idle window: it turns keep-alive off.
        match parse_args(&argv(&["serve", "--keep-alive-ms", "0"])).expect("parses") {
            Parsed::Serve(config) => assert_eq!(config.keep_alive_ms, 0),
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_degenerate_and_unknown_flags() {
        assert!(parse_args(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--queue-depth", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--max-requests-per-conn", "0"])).is_err());
        assert!(
            parse_args(&argv(&["serve", "--addr"])).is_err(),
            "missing value"
        );
        assert!(parse_args(&argv(&["serve", "--config", "c.xml"])).is_err());
        // `serve --help` is an early exit like the batch mode's.
        assert!(matches!(
            parse_args(&argv(&["serve", "--help"])),
            Ok(Parsed::EarlyExit(_))
        ));
    }
}
