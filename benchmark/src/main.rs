//! The gMark whole-pipeline benchmark.
//!
//! Six named workloads — `gen-stream`, `gen-full`, `eval-inram`,
//! `eval-paged`, `serve-hot`, `serve-churn` — each measured **from
//! outside**: end to end through the `gmark` CLI and the `gmark serve`
//! daemon as child processes, and (with `--trace 1`) layer by layer through
//! the layers' public functions with a span around every call. See
//! `README.md` beside this package for the metric tables, how the layers
//! map to the end-to-end numbers, and how to read a trace file.
//!
//! ```sh
//! benchmark/run.sh                           # all six workloads, one JSON document
//! benchmark/run.sh --workload serve-hot      # one workload, the driver's result line
//! benchmark/run.sh --trace 1                 # per-layer metrics + out/trace-<workload>.json
//! benchmark/run.sh --selfcheck               # every workload twice, compared within bounds
//! ```

mod check;
mod child;
mod json;
mod load;
mod metrics;
mod stats;
mod trace;
mod workloads;

use child::{CpuSplit, Scratch};
use json::Json;
use metrics::{Def, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::SystemTime;
use workloads::{Ctx, Outcome, NAMES, THREADS};

/// The run length `BENCHMARK.json` declares: the `--seconds` at which
/// every workload does the work its table row states.
pub const RUN_SECONDS: u64 = 15;

const USAGE: &str = "benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--selfcheck]

  --workload NAME  one of gen-stream, gen-full, eval-inram, eval-paged, serve-hot,
                   serve-churn; the last line of stdout is then one JSON object with
                   the keys correct, attempted, failed and metrics. Without it all
                   six run and stdout carries one JSON document for all of them.
  --seed N         derives every graph seed, plan seed and request sequence (default 1;
                   the two eval instances are pinned, see README.md).
  --seconds S      scales the fixed work counts; 15 (the default) gives the counts the
                   README states, and no workload drops below three iterations.
  --trace 0|1      0: end-to-end metrics with tracing off (default). 1: per-layer
                   metrics from an in-process traced run, spans in out/trace-*.json.
  --selfcheck      run every selected workload twice back to back and exit non-zero
                   if an end-to-end metric differs by more than its bound, or an
                   exact metric differs at all.";

#[derive(Debug)]
struct Args {
    gmark: PathBuf,
    root: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        gmark: PathBuf::new(),
        root: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        match flag {
            "--gmark" => args.gmark = PathBuf::from(value()?),
            "--root" => args.root = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (one of: {})",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: expected an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds: expected 1..=600, got {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if args.gmark.as_os_str().is_empty() || args.root.as_os_str().is_empty() {
        return Err("--gmark and --root are required (benchmark/run.sh passes them)".to_owned());
    }
    Ok(args)
}

/// The newest modification time among the sources the `gmark` binary is
/// built from.
fn newest_source(root: &Path) -> Option<SystemTime> {
    fn walk(dir: &Path, newest: &mut Option<SystemTime>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, newest);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                    *newest = (*newest).max(Some(modified));
                }
            }
        }
    }
    let mut newest = std::fs::metadata(root.join("Cargo.toml"))
        .and_then(|m| m.modified())
        .ok();
    walk(&root.join("src"), &mut newest);
    for krate in ["config", "core", "engines", "stats", "store", "translate"] {
        walk(&root.join("crates").join(krate), &mut newest);
    }
    walk(&root.join("vendor").join("rustc-hash"), &mut newest);
    newest
}

/// Refuses to measure anything but a release binary at least as new as the
/// sources: a debug or stale build would skew every number silently.
fn check_binary(gmark: &Path, root: &Path) -> Result<(), String> {
    let built = std::fs::metadata(gmark)
        .and_then(|m| m.modified())
        .map_err(|e| format!("no gmark binary at {}: {e}", gmark.display()))?;
    if !gmark.components().any(|c| c.as_os_str() == "release") {
        return Err(format!(
            "{} is not a release build; the benchmark measures optimized builds only",
            gmark.display()
        ));
    }
    match newest_source(root) {
        Some(source) if source > built => Err(format!(
            "{} is older than the sources under {}; rebuild with \
             `cargo build --release --bin gmark` (benchmark/run.sh does)",
            gmark.display(),
            root.display()
        )),
        _ => Ok(()),
    }
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One workload's result, as it appears in the result document.
fn workload_json(name: &str, outcome: &Outcome, table: &[Def]) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::Int(outcome.tally.attempted)),
        ("failed", Json::Int(outcome.tally.failed)),
        (
            "failed_share",
            Json::Num(outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64),
        ),
        ("iterations", Json::Int(outcome.iterations as u64)),
        ("metrics", outcome.measured.document_json(table)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
        (
            "failures",
            Json::Arr(outcome.tally.messages.iter().map(Json::str).collect()),
        ),
    ])
}

/// The human-readable table, on stderr.
fn print_table(name: &str, outcome: &Outcome, table: &[Def]) {
    eprintln!(
        "\n== {name}: {} of {} operations failed ({} iterations) ==",
        outcome.tally.failed, outcome.tally.attempted, outcome.iterations
    );
    for (def, v) in outcome.measured.in_table(table) {
        if v.samples == 0 {
            continue;
        }
        let spread = if v.samples > 1 && v.q1 != v.q3 {
            format!("  q1 {:.6}  q3 {:.6}", v.q1, v.q3)
        } else {
            String::new()
        };
        eprintln!(
            "  {:<34} {:>16.6} {:<6} n={}{}",
            def.name, v.value, def.unit, v.samples, spread
        );
    }
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    for failure in &outcome.tally.messages {
        eprintln!("  FAILED: {failure}");
    }
}

/// Compares two runs of one workload: end-to-end metrics within their
/// bounds, exact metrics and the operation counts bit-equal.
fn compare(name: &str, a: &Outcome, b: &Outcome, table: &[Def]) -> Vec<String> {
    let mut violations = Vec::new();
    eprintln!("\n== selfcheck {name} ==");
    eprintln!(
        "  {:<34} {:>14} {:>14} {:>9}  bound",
        "metric", "first", "second", "diff"
    );
    for ((def, x), (_, y)) in a.measured.in_table(table).zip(b.measured.in_table(table)) {
        if x.samples == 0 && y.samples == 0 {
            continue;
        }
        let diff = if x.value == y.value {
            0.0
        } else {
            (y.value - x.value).abs() / x.value.abs().min(y.value.abs())
        };
        let limit = match (def.exact, def.bound) {
            (true, _) => Some(0.0),
            (false, bound) => bound,
        };
        let verdict = match limit {
            Some(limit) if diff > limit => {
                violations.push(format!(
                    "{name} {}: {} vs {} differ by {:.2} %, allowed {:.2} %",
                    def.name,
                    x.value,
                    y.value,
                    diff * 100.0,
                    limit * 100.0
                ));
                "EXCEEDED"
            }
            _ => "",
        };
        eprintln!(
            "  {:<34} {:>14.6} {:>14.6} {:>8.2}%  {} {verdict}",
            def.name,
            x.value,
            y.value,
            diff * 100.0,
            limit.map_or("-".to_owned(), |l| format!("{:.0}%", l * 100.0)),
        );
    }
    if (a.tally.attempted, a.tally.failed) != (b.tally.attempted, b.tally.failed) {
        violations.push(format!(
            "{name}: {} of {} operations failed in the first run, {} of {} in the second",
            a.tally.failed, a.tally.attempted, b.tally.failed, b.tally.attempted
        ));
    }
    violations
}

fn run_all(args: &Args) -> Result<bool, String> {
    check_binary(&args.gmark, &args.root)?;
    let out_dir = args.root.join("benchmark").join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let scratch = Scratch::create(&out_dir)?;
    // Everything the daemon, the CLI and the in-process pipeline spill to
    // "the system temp dir" stays inside the benchmark's own directory.
    // Set before any thread exists.
    std::env::set_var("TMPDIR", scratch.path());
    let ctx = Ctx {
        gmark: &args.gmark,
        scratch: &scratch,
        out_dir: &out_dir,
        cpus: CpuSplit::detect()?,
        seed: args.seed,
        seconds: args.seconds,
    };
    let table: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => NAMES.to_vec(),
    };

    let mut all_correct = true;
    let mut violations = Vec::new();
    let mut results = Vec::new();
    let mut last_line = None;
    for name in selected {
        let outcome = workloads::run(name, &ctx, args.trace)?;
        print_table(name, &outcome, table);
        all_correct &= outcome.tally.failed == 0;
        results.push(workload_json(name, &outcome, table));
        last_line = Some(Json::obj([
            ("correct", Json::Bool(outcome.tally.failed == 0)),
            ("attempted", Json::Int(outcome.tally.attempted)),
            ("failed", Json::Int(outcome.tally.failed)),
            ("metrics", outcome.measured.driver_json(table)),
        ]));
        if args.selfcheck {
            let second = workloads::run(name, &ctx, args.trace)?;
            print_table(name, &second, table);
            all_correct &= second.tally.failed == 0;
            violations.extend(compare(name, &outcome, &second, table));
            results.push(workload_json(name, &second, table));
        }
    }

    let document = Json::obj([
        ("benchmark", Json::str("gmark whole-pipeline benchmark")),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], &args.root)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], &args.root)),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("threads", Json::Int(THREADS as u64)),
        ("closed_loop_clients", Json::Int(THREADS as u64)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("selfcheck", Json::Bool(args.selfcheck)),
        ("scratch", Json::str(scratch.path().to_string_lossy())),
        (
            "scratch_policy",
            Json::str("deleted between iterations, never fsynced"),
        ),
        (
            "selfcheck_violations",
            Json::Arr(violations.iter().map(Json::str).collect()),
        ),
        ("workloads", Json::Arr(results)),
    ]);
    let result_path = out_dir.join("result.json");
    std::fs::write(&result_path, format!("{document}\n"))
        .map_err(|e| format!("writing {}: {e}", result_path.display()))?;
    // One workload: the driver's result line. All of them: the document.
    match (&args.workload, last_line) {
        (Some(_), Some(line)) if !args.selfcheck => println!("{line}"),
        _ => println!("{document}"),
    }
    for violation in &violations {
        eprintln!("selfcheck: {violation}");
    }
    if args.selfcheck && violations.is_empty() {
        eprintln!("\nselfcheck: both runs of every workload agree within the bounds");
    }
    Ok(all_correct && violations.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("usage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output check or the selfcheck failed; see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&argv(&[
            "--gmark",
            "t/release/gmark",
            "--root",
            ".",
            "--workload",
            "serve-churn",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve-churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 15, true));
        assert!(!args.selfcheck);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let base = ["--gmark", "g", "--root", "."];
        let with = |extra: &[&str]| parse_args(&argv(&[&base[..], extra].concat()));
        assert!(with(&["--workload", "gen"]).is_err());
        assert!(with(&["--trace", "2"]).is_err());
        assert!(with(&["--seconds", "0"]).is_err());
        assert!(with(&["--seed"]).is_err());
        assert!(with(&["--bogus"]).is_err());
        assert!(parse_args(&argv(&["--workload", "gen-full"])).is_err());
        assert!(with(&[]).is_ok());
    }

    #[test]
    fn debug_and_stale_binaries_are_refused() {
        let dir = std::env::temp_dir().join(format!("gmark-benchmark-test-{}", std::process::id()));
        let root = dir.join("repo");
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::create_dir_all(dir.join("target/release")).unwrap();
        std::fs::create_dir_all(dir.join("target/debug")).unwrap();
        std::fs::write(root.join("Cargo.toml"), "").unwrap();
        std::fs::write(root.join("src/lib.rs"), "").unwrap();
        let release = dir.join("target/release/gmark");
        let debug = dir.join("target/debug/gmark");
        std::fs::write(&release, "").unwrap();
        std::fs::write(&debug, "").unwrap();
        assert!(check_binary(&release, &root).is_ok());
        assert!(check_binary(&debug, &root)
            .unwrap_err()
            .contains("not a release build"));
        assert!(check_binary(&dir.join("target/release/missing"), &root).is_err());
        // A source newer than the binary: stale.
        let later = SystemTime::now() + std::time::Duration::from_secs(60);
        std::fs::File::options()
            .write(true)
            .open(root.join("src/lib.rs"))
            .unwrap()
            .set_modified(later)
            .unwrap();
        assert!(check_binary(&release, &root)
            .unwrap_err()
            .contains("older than the sources"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
