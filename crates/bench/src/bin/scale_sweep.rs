//! Table 3-style scale sweep pinning the memory-bounded streaming claim.
//!
//! Generates one graph size per invocation (so Linux `VmHWM` is a
//! per-size peak, not a cumulative one across sizes) and emits a
//! `BENCH_gen.json` row recording wall time, edge throughput, and peak
//! RSS:
//!
//! ```text
//! {"group":"scale_sweep","bench":"bib_5000000_streamed_t0", ...,
//!  "throughput_units":<edges>,"peak_rss_kb":<VmHWM>}
//! ```
//!
//! `--mode streamed` runs the memory-bounded pipeline
//! (`gmark::run::run` with `RunOptions::stream` into a `NullSink`:
//! one ordered pass, graph never materialized — peak memory is the
//! largest single constraint's slot vectors plus a fixed block budget); `--mode materialized`
//! runs `gmark::run::run_in_memory` and serializes nothing, as the RSS
//! contrast row.
//! `scripts/bench.sh` sweeps node counts 50K → 5M streamed plus
//! materialized contrast rows.
//!
//! Usage: `scale_sweep [--nodes N] [--threads T] [--schema bib|lsn|sp|wd]
//! [--mode streamed|materialized]` (exports a row when `GMARK_BENCH_JSON`
//! is set).

use gmark::run::{run, run_in_memory, NullSink, RunOptions, RunPlan};
use gmark_bench::{append_bench_json, fmt_minutes, peak_rss_kb, take_flag_value};
use gmark_core::schema::Schema;
use gmark_core::usecases;
use std::time::Instant;

struct SweepArgs {
    nodes: u64,
    threads: usize,
    schema: String,
    streamed: bool,
    seed: u64,
}

fn parse_args() -> Result<SweepArgs, String> {
    let mut out = SweepArgs {
        nodes: 50_000,
        threads: 0,
        schema: "bib".to_owned(),
        streamed: true,
        seed: 0x5CA1_E5EED,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            take_flag_value(&argv, i, flag)
        };
        let flag = argv[i].clone();
        match flag.as_str() {
            "--nodes" => {
                let v = value(&mut i, &flag)?;
                out.nodes = v.parse().map_err(|_| format!("--nodes: bad count {v:?}"))?;
            }
            "--threads" => {
                let v = value(&mut i, &flag)?;
                out.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: bad count {v:?} (0 = auto)"))?;
            }
            "--schema" => out.schema = value(&mut i, &flag)?.to_lowercase(),
            "--seed" => {
                let v = value(&mut i, &flag)?;
                out.seed = v.parse().map_err(|_| format!("--seed: bad seed {v:?}"))?;
            }
            "--mode" => {
                out.streamed = match value(&mut i, &flag)?.as_str() {
                    "streamed" => true,
                    "materialized" => false,
                    other => return Err(format!("--mode: {other:?} (streamed|materialized)")),
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(out)
}

fn schema_by_name(name: &str) -> Option<Schema> {
    match name {
        "bib" => Some(usecases::bib()),
        "lsn" => Some(usecases::lsn()),
        "sp" => Some(usecases::sp()),
        "wd" => Some(usecases::wd()),
        _ => None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scale_sweep: {e}");
            std::process::exit(2);
        }
    };
    let schema = match schema_by_name(&args.schema) {
        Some(s) => s,
        None => {
            eprintln!(
                "scale_sweep: unknown schema {:?} (bib|lsn|sp|wd)",
                args.schema
            );
            std::process::exit(2);
        }
    };
    let plan = RunPlan::builder(schema)
        .nodes(args.nodes)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("scale_sweep: {e}");
            std::process::exit(2);
        });
    let opts = RunOptions::with_seed(args.seed).threads(args.threads);
    let mode = if args.streamed {
        "streamed"
    } else {
        "materialized"
    };

    let start = Instant::now();
    // Both branches count report.total_edges — raw generated edges before
    // dedup — so streamed and materialized rows share one throughput unit.
    let edges = if args.streamed {
        // Shard files hit disk; the concatenated stream goes to the null
        // sink — the sweep measures generation + serialization, not the
        // final copy's target device.
        let summary = run(&plan, &opts.clone().stream(true), &mut NullSink).unwrap_or_else(|e| {
            eprintln!("scale_sweep: streaming failed: {e}");
            std::process::exit(1);
        });
        summary.graph.expect("graph ran").edges_generated
    } else {
        let arts = run_in_memory(&plan, &opts).unwrap_or_else(|e| {
            eprintln!("scale_sweep: generation failed: {e}");
            std::process::exit(1);
        });
        std::hint::black_box(arts.graph.expect("graph ran").edge_count());
        arts.summary.graph.expect("graph ran").edges_generated
    };
    let elapsed = start.elapsed();
    let rss_kb = peak_rss_kb();

    let ns = elapsed.as_nanos();
    let eps = edges as f64 / elapsed.as_secs_f64().max(1e-9);
    let rss_human = rss_kb.map_or("unavailable".to_owned(), |kb| {
        format!("{:.1} MiB", kb as f64 / 1024.0)
    });
    println!(
        "scale_sweep: {schema}_{nodes} {mode} threads={threads} -> {edges} edges in {time} \
         ({eps:.0} edges/s, peak RSS {rss_human})",
        schema = args.schema,
        nodes = args.nodes,
        threads = args.threads,
        time = fmt_minutes(elapsed),
    );
    // peak_rss_kb is omitted — not faked as 0 — where procfs is absent.
    let rss_field = rss_kb.map_or(String::new(), |kb| format!(",\"peak_rss_kb\":{kb}"));
    let row = format!(
        "{{\"group\":\"scale_sweep\",\"bench\":\"{schema}_{nodes}_{mode}_t{threads}\",\
         \"mean_ns\":{ns},\"min_ns\":{ns},\"iters\":1,\"throughput_kind\":\"elements\",\
         \"throughput_units\":{edges}{rss_field}}}",
        schema = args.schema,
        nodes = args.nodes,
        threads = args.threads,
    );
    if let Err(e) = append_bench_json(&row) {
        eprintln!("scale_sweep: exporting row: {e}");
        std::process::exit(1);
    }
}
