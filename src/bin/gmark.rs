//! The gMark command-line tool: a thin client of [`gmark::run`].
//!
//! Maps the run flags onto the library's one parameter table
//! ([`RunRequest`], the same one `POST /v1/run` feeds), applies the request
//! to the configuration's [`RunPlan`], executes it through a [`DirSink`],
//! and prints the `RunSummary` — human-readable by default,
//! machine-readable JSON with `--format json`. What the CLI owns is what
//! only a command line has: `--config`, `--output`, `--format`,
//! `--verify-store`, the short aliases and the `serve` sub-command. All
//! orchestration (which pipeline runs, in which mode, how the store is
//! built, what the report contains) is owned by the library.
//!
//! Outputs, inside `--output <dir>`:
//!
//! * `graph.nt` — the instance as N-Triples,
//! * `graph.gstore` — the instance as an on-disk paged store (with
//!   `--store`); combined with `--stream`, evaluation reads this file
//!   instead of an in-memory graph,
//! * `workload.txt` — the queries in the paper's rule notation,
//! * `workload.sparql` / `.cypher` / `.sql` / `.datalog` — the four
//!   concrete syntaxes,
//! * `eval.txt` — the (query × engine) evaluation matrix (with `--eval`),
//! * `report.txt` — generation statistics and consistency-check findings,
//! * `summary.json` — the run summary (with `--format json`).
//!
//! `gmark --help` has the synopsis and every flag.
//!
//! `--threads` governs every pipeline stage — graph constraints, workload
//! queries, and the `--eval` matrix fan out over the same number of
//! workers — and every output file is byte-identical at every thread
//! count, including 1.

use gmark::run::{run, DirSink, Door, GmarkError, RunPlan, RunRequest};
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
    format: Format,
    /// Every run flag, through the table both front doors share.
    request: RunRequest,
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
[--eval] [--engines P,G,S,D] [--budget-ms N] [--max-tuples N] [--from-store FILE]\n\
gmark --verify-store <file.gstore>\n\
gmark serve [--addr HOST:PORT] [--workers N] [--cache-mb MiB] \
[--queue-depth N] [--deadline-ms N] [--keep-alive-ms N]\n\n\
  --threads T     worker threads for EVERY pipeline stage (graph\n\
                  constraints, workload queries, and the --eval matrix);\n\
                  0 auto-detects the available parallelism. With\n\
                  --store, graph.nt and graph.gstore are written side by\n\
                  side: the store takes one worker, graph.nt the other\n\
                  T-1. Every output file is byte-identical at every\n\
                  thread count, including 1.\n\
  --stream        memory-bounded graph pipeline: write the N-Triples as\n\
                  the edges are generated, in constraint order and in one\n\
                  pass, instead of materializing the graph; the workers\n\
                  format blocks of 8192 edges in parallel and set up the\n\
                  next constraints ahead. No temporary files; memory is\n\
                  bounded by one set-up constraint per worker thread\n\
                  (its slot vectors, 4 B a slot, and while a Zipf side\n\
                  is apportioned 8 B more per node of it) plus a few MiB\n\
                  of blocks (with --store, the store is built after\n\
                  graph.nt by generating each predicate's edges again,\n\
                  one predicate in memory at a time).\n\
                  Also byte-identical for every thread count. The\n\
                  streamed serialization keeps generation order and\n\
                  duplicate triples; the default serialization is sorted\n\
                  and deduplicated (same edge set either way). Combinable\n\
                  with --eval only alongside --store (the engines then\n\
                  read the store instead of an in-memory graph).\n\
  --store         also write the graph as an on-disk paged store\n\
                  (graph.gstore, format v3): a checksummed binary CSR,\n\
                  u32 offsets and targets, the evaluation engines can\n\
                  read without materializing the graph; older versions\n\
                  are refused by name. A predicate of more than\n\
                  4294967295 edges is refused before it is built.\n\
                  Store bytes are identical at every thread count and in\n\
                  both pipelines; with --stream --eval the graph's CSR\n\
                  never exists in RAM, but every relation a query\n\
                  mentions does. Without --stream, from two threads up,\n\
                  the store is written while graph.nt is.\n\
  --from-store F  evaluate against an existing graph.gstore instead of\n\
                  generating a graph (requires --eval; the config must\n\
                  describe the same schema the store was built from, and\n\
                  the store is verified as --verify-store does first).\n\
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
  --max-tuples N  per-cell tuple cap for --eval (default 20000000, at\n\
                  most 4294967295, the most pairs a relation holds);\n\
                  exceeding it reports the cell as too-large.\n\
  --format F      what to print on stdout: 'text' (default, human-readable\n\
                  banner) or 'json' (the machine-readable RunSummary, also\n\
                  written to summary.json in the output directory).\n\
  --version       print the version and exit.\n\n\
serve mode (benchmark-as-a-service daemon; POST /v1/run a schema XML\n\
body with CLI-shaped query parameters plus artifact, deadline_ms and\n\
config, each given once, and one artifact streams back; GET /v1/stats,\n\
/healthz):\n\
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
                  0 disables keep-alive, every response closes). A\n\
                  queued connection takes the worker after the next\n\
                  response.\n\
SIGTERM/SIGINT drain admitted requests, then exit 0.";

/// Takes the value following the flag at `argv[*i]`, naming the flag (not
/// a positional guess) in the error when the value is missing.
fn take_value<'a>(argv: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    let flag = &argv[*i];
    *i += 1;
    argv.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing value after {flag}"))
}

/// Takes the flag's value as a count; `zero` is the complaint for flags
/// where a zero makes no sense.
fn take_count<T: std::str::FromStr + Default + PartialEq>(
    argv: &[String],
    i: &mut usize,
    what: &str,
    zero: Option<&str>,
) -> Result<T, String> {
    let flag = &argv[*i];
    let value = take_value(argv, i)?;
    let count: T = value
        .parse()
        .map_err(|_| format!("{flag}: expected {what}, got {value:?}"))?;
    match zero {
        Some(why) if count == T::default() => Err(format!("{flag}: {why}")),
        _ => Ok(count),
    }
}

/// Fills one of the CLI's own flags, refusing a second value the way
/// [`RunRequest::set`] refuses a repeated run parameter.
fn once<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
    match slot.replace(value) {
        Some(_) => Err(format!("{flag}: given twice")),
        None => Ok(()),
    }
}

fn parse_args(argv: &[String]) -> Result<Parsed, String> {
    if argv.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&argv[1..]);
    }
    let mut config = None;
    let mut output = None;
    let mut format = None;
    let mut request = RunRequest::new(Door::Cli);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--config" | "-c" => once(&mut config, "--config", take_value(argv, &mut i)?.into())?,
            "--output" | "-o" => once(&mut output, "--output", take_value(argv, &mut i)?.into())?,
            "--verify-store" => {
                return Ok(Parsed::VerifyStore(PathBuf::from(take_value(
                    argv, &mut i,
                )?)));
            }
            "--format" => {
                let value = match take_value(argv, &mut i)? {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("--format: expected text|json, got {other:?}")),
                };
                once(&mut format, "--format", value)?;
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
            // Everything else is a run parameter, or nothing.
            other => {
                let spelled = if other == "-n" { "--nodes" } else { other };
                let param = Door::Cli
                    .param(spelled)
                    .ok_or_else(|| format!("unknown argument: {other}"))?;
                let value = if param.switch {
                    ""
                } else {
                    take_value(argv, &mut i)?
                };
                request.set(param.name, value)?;
            }
        }
        i += 1;
    }
    // The rules that need no plan fire here, before the configuration
    // file is opened, so they are usage errors.
    request.check()?;
    Ok(Parsed::Run(Box::new(Args {
        config: config.ok_or("--config is required")?,
        output: output.ok_or("--output is required")?,
        format: format.unwrap_or(Format::Text),
        request,
    })))
}

/// Parses everything after the `serve` subcommand word.
fn parse_serve_args(argv: &[String]) -> Result<Parsed, String> {
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < argv.len() {
        let i = &mut i;
        match argv[*i].as_str() {
            "--addr" => config.addr = take_value(argv, i)?.to_owned(),
            "--workers" => {
                let zero = Some("the pool needs at least one thread");
                config.workers = take_count(argv, i, "a positive thread count", zero)?;
            }
            "--cache-mb" => {
                config.cache_mb = take_count(argv, i, "a budget in MiB (0 = no retention)", None)?;
            }
            "--queue-depth" => {
                let zero = Some("a zero-capacity queue would reject every request");
                config.queue_depth = take_count(argv, i, "a positive queue capacity", zero)?;
            }
            "--deadline-ms" => {
                config.deadline_ms = take_count(argv, i, "a millisecond count (0 = none)", None)?;
            }
            "--keep-alive-ms" => {
                let what = "a millisecond idle window (0 = no keep-alive)";
                config.keep_alive_ms = take_count(argv, i, what, None)?;
            }
            "--help" | "-h" => return Ok(Parsed::EarlyExit(USAGE.to_owned())),
            other => return Err(format!("serve: unknown argument: {other}")),
        }
        *i += 1;
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

fn execute(args: Args) -> Result<(), GmarkError> {
    // What to generate and how: the configuration's plan with the run
    // flags applied (an absent --threads means one worker); where: a
    // directory, whose path DirSink::new's error already names.
    let plan = RunPlan::from_config_file(&args.config)?;
    let (plan, opts, _) = args.request.apply(plan, 1)?;
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
    let outcome = match parse_args(&argv) {
        Ok(Parsed::EarlyExit(text)) => {
            println!("{text}");
            Ok(())
        }
        Ok(Parsed::VerifyStore(path)) => verify_store(&path).map(|line| println!("{line}")),
        Ok(Parsed::Run(args)) => execute(*args),
        Ok(Parsed::Serve(config)) => serve_daemon(config),
        Err(e) => {
            eprintln!("gmark: {e}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a command line given as one whitespace-separated string.
    fn parse(line: &str) -> Result<Parsed, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn version_and_help_are_early_exits_not_process_exits() {
        for flag in ["--version", "-V", "--help", "-h"] {
            match parse(flag).expect("parses") {
                Parsed::EarlyExit(text) => assert!(!text.is_empty()),
                other => panic!("{flag} should early-exit, got {other:?}"),
            }
        }
    }

    #[test]
    fn early_exit_wins_even_mid_command_line() {
        let parsed = parse("--config x.xml --version").expect("parses");
        assert!(matches!(parsed, Parsed::EarlyExit(_)));
    }

    #[test]
    fn format_flag_parses_and_rejects_garbage() {
        let parsed = parse("--config c.xml --output o --format json").expect("parses");
        match parsed {
            Parsed::Run(args) => assert_eq!(args.format, Format::Json),
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(parse("--format yaml").is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse("--output o").is_err());
        assert!(parse("--config c.xml").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// The request a command line's run flags add up to.
    fn run_request(flags: &str) -> Result<RunRequest, String> {
        match parse(&format!("--config c.xml --output o {flags}"))? {
            Parsed::Run(args) => Ok(args.request),
            other => panic!("expected a run, got {other:?}"),
        }
    }

    /// The same request, set by table name (`"eval engines=S,D"`).
    fn request_of(params: &str) -> RunRequest {
        let mut request = RunRequest::new(Door::Cli);
        for pair in params.split_whitespace() {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            request.set(name, value).expect("a valid value");
        }
        request
    }

    // The rules themselves are tested once, through both doors, in
    // `run::request`; these three pin that the CLI's spellings reach the
    // table and that a violation is caught at parse time.

    #[test]
    fn eval_flags_parse_and_enforce_their_preconditions() {
        let flags = "--eval --engines S,D --budget-ms 500 --max-tuples 1000 --seed 7 -n 50";
        let params = "eval engines=S,D budget_ms=500 max_tuples=1000 seed=7 nodes=50";
        assert_eq!(run_request(flags).unwrap(), request_of(params));
        // Sub-flags without --eval, conflicting modes and bad values are
        // usage errors.
        assert!(run_request("--engines P").is_err());
        assert!(run_request("--eval --queries-only").is_err());
        assert!(run_request("--eval --max-tuples 0").is_err());
        assert!(run_request("--eval --engines P,X").is_err());
        // A switch takes no value; a value flag needs one, once — under
        // its short alias too.
        assert!(run_request("-n 200 --nodes 300").is_err());
        assert!(run_request("--eval true").is_err());
        assert!(run_request("--eval --budget-ms").is_err());
    }

    #[test]
    fn eval_cache_flags_parse_and_enforce_their_preconditions() {
        // The planner and the cache take no flags: `--eval` runs both, and
        // the stage's remaining knobs are the per-cell budget's. Zero is
        // a setting for the clock (no limit), a usage error for the cap.
        assert_eq!(
            run_request("--eval --budget-ms 0 --threads 0").unwrap(),
            request_of("eval budget_ms=0 threads=0")
        );
        assert!(run_request("--budget-ms 0").is_err());
        assert!(run_request("--eval --budget-ms 0 --budget-ms 5").is_err());
        assert!(run_request("--eval --max-tuples 0").is_err());
    }

    #[test]
    fn store_flags_parse_and_enforce_their_preconditions() {
        // --verify-store is a standalone mode.
        match parse("--verify-store g.gstore").expect("parses") {
            Parsed::VerifyStore(path) => assert_eq!(path, PathBuf::from("g.gstore")),
            other => panic!("expected verify mode, got {other:?}"),
        }
        assert!(parse("--verify-store").is_err());

        assert_eq!(
            run_request("--stream --store").unwrap(),
            request_of("stream store")
        );
        assert_eq!(
            run_request("--eval --from-store g.gstore").unwrap(),
            request_of("eval from_store=g.gstore")
        );
        assert!(run_request("--from-store g.gstore").is_err());
        assert!(run_request("--eval --from-store g.gstore --store").is_err());
        assert!(run_request("--store --queries-only").is_err());
    }

    #[test]
    fn serve_subcommand_parses_its_flag_set() {
        match parse("serve").expect("defaults parse") {
            Parsed::Serve(config) => {
                assert_eq!(config.addr, ServeConfig::default().addr);
                assert_eq!(config.workers, ServeConfig::default().workers);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse("serve --addr 127.0.0.1:0 --workers 2 --cache-mb 32 --queue-depth 5 --deadline-ms 250 --keep-alive-ms 750")
        .expect("full flag set parses")
        {
            Parsed::Serve(config) => {
                assert_eq!(config.addr, "127.0.0.1:0");
                assert_eq!(config.workers, 2);
                assert_eq!(config.cache_mb, 32);
                assert_eq!(config.queue_depth, 5);
                assert_eq!(config.deadline_ms, 250);
                assert_eq!(config.keep_alive_ms, 750);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // 0 is a legal idle window: it turns keep-alive off.
        match parse("serve --keep-alive-ms 0").expect("parses") {
            Parsed::Serve(config) => assert_eq!(config.keep_alive_ms, 0),
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_degenerate_and_unknown_flags() {
        assert!(parse("serve --workers 0").is_err());
        assert!(parse("serve --queue-depth 0").is_err());
        assert!(parse("serve --addr").is_err(), "missing value");
        assert!(parse("serve --config c.xml").is_err());
        // `serve --help` is an early exit like the batch mode's.
        assert!(matches!(parse("serve --help"), Ok(Parsed::EarlyExit(_))));
    }
}
