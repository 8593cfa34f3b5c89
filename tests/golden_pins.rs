//! Golden pins: the length and FNV-1a hash of every byte-compared artifact
//! of `examples/configs/bib.xml` at seed 42, recorded from the commit
//! before the shard files were retired (PR 13's parent). The ordered
//! in-memory hand-off and the block N-Triples kernel must reproduce them at
//! 1, 2 and 8 threads, in the streamed and the default mode, with and
//! without the on-disk store.
//!
//! The `eval.txt` pins were recorded from the commit before the evaluation
//! crate was collapsed to one entry point, one ordering loop, one join
//! kernel and one expression fold (PR 18's parent): the report — cell
//! outcomes, counts, estimates and the cache header's fill/hit/miss
//! counters — must come out byte for byte at 1, 2 and 8 threads, in RAM
//! and from a store. The `D`-column pins at two tighter caps were recorded
//! from the commit before the Datalog engine moved onto that join kernel
//! (PR 23's parent).
//!
//! The `summary.json` pins were recorded from the commit before the facade
//! was collapsed to one request table, one run body and one JSON writer
//! (PR 22's parent), with the stage `"seconds"` values and the thread count
//! masked ([`masked_summary`]): every optional half — graph, store,
//! workload, eval — is seen both present and `null`.
//!
//! Declared re-records: every `workload.datalog` pin, and every masked
//! `summary.json` pin with a workload half — its `"bytes"` object carries
//! the `workload.datalog` length and nothing else moved — were re-recorded
//! at the commit that made the Datalog text the program `D` evaluates: one
//! IDB predicate per conjunct, a single symbol included, where the text
//! used to inline a single-symbol conjunct as an edge atom. No `eval.txt`
//! pin moved then.
//!
//! Declared re-record: both [`MIXED_EVAL_D`] pins, at the commit that
//! stopped filling the sub-expression cache when `D`, which reads none of
//! it, is the only engine selected. Against the earlier pins the reports
//! differ in three places only: the `cache:` line reads `cache: off`; the
//! planner's estimates (the number before each `~`) fall back to graph
//! statistics, because exact cached cardinalities no longer exist; and the
//! `plan:` line sums those estimates. Every cell's outcome and count is
//! unchanged.
//!
//! Declared re-record: both [`MIXED_EVAL_D`] pins again, at the commit
//! that made a cell's outcome independent of the engine selection. A
//! planned run now counts every fill candidate for the planner whether or
//! not a selected engine reads the cache, so a `D`-only run gets the exact
//! cardinalities back and plans exactly as the full `P,G,S,D` run does:
//! each report is the `D` column of the full run's. Against the previous
//! pins only the estimates before each `~` and the `plan:` line moved (the
//! `cache:` line still reads `cache: off`); every cell's outcome and count
//! is unchanged.
//!
//! Declared re-record: [`CLI_EVAL`], [`MIXED_EVAL`], [`CLI_EVAL_SUMMARY`]
//! and [`MIXED_EVAL_SUMMARY`], at the commit that made the fill's memo the
//! sub-expression cache and dropped its byte budget. The `cache:` line of
//! `eval.txt` and the `cache` object of `summary.json` no longer carry the
//! budget in MiB or the count of relations the budget rejected; nothing
//! else moved. Neither run rejected anything before, so the entries,
//! tuples, fills, hits and misses are the same numbers.
//!
//! Declared re-record: [`STORE`] and both [`STORE_SUMMARY`] pins, at the
//! commit that made `.gstore` format version 2, where each segment holds
//! its CSR's hull offsets as they are instead of one offset per node. The
//! store shrank from 811 232 to 303 264 bytes; the summaries carry that
//! byte count and nothing else moved. No other pin moved.
//!
//! Declared re-record: [`STORE`] and both [`STORE_SUMMARY`] pins again, at
//! the commit that made `.gstore` format version 3, whose segments hold
//! `u32` offsets instead of `u64`. The store shrank from 303 264 to
//! 262 304 bytes; the summaries carry that byte count and nothing else
//! moved. No other pin moved.
//!
//! Declared re-record: [`CLI_EVAL`], [`MIXED_EVAL`], [`CLI_EVAL_SUMMARY`]
//! and [`MIXED_EVAL_SUMMARY`], at the commit that let `G` read a conjunct
//! bound at either end from the sub-expression cache. Such a conjunct now
//! probes the cache too, so more probes are counted: the `cache:` line of
//! `eval.txt` reads `78 hits / 0 misses` for `64 hits / 0 misses` and
//! `269 hits / 0 misses` for `210 hits / 0 misses`, and the `"hits"` of
//! `summary.json`'s `cache` object moves the same way, in RAM and from a
//! store. Nothing else moved: every outcome, count and estimate is the
//! same, and [`MIXED_OUTCOMES`], which pins every `TooLarge(n)`, passes
//! as recorded.
//!
//! The `report.txt` pins ([`STORE_REPORT`], [`QUERIES_ONLY_REPORT`],
//! [`CLI_EVAL_REPORT`], [`MIXED_EVAL_REPORT`]) cover the runs of the masked
//! `summary.json` pins. They were recorded from the commit before each half
//! of the run summary came to hold the report its stage returns, with only
//! the wall-clock numbers masked ([`masked_report`]), and must pass at 1, 2
//! and 8 threads.

use gmark::prelude::*;
use gmark::store::paged::Fnv64;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(file, length, FNV-1a)` of the artifacts both modes share.
const WORKLOAD_PINS: [(&str, u64, u64); 5] = [
    ("workload.txt", 2075, 0x81d9_4176_9a1c_ea88),
    ("workload.sparql", 2284, 0x595b_edbb_2da0_8303),
    ("workload.cypher", 3469, 0xf643_f7df_af56_8570),
    ("workload.sql", 8834, 0xa07b_09d3_6fda_7b02),
    // Re-recorded: the text is the program `D` evaluates (module docs).
    ("workload.datalog", 2929, 0xa052_2ea5_e18d_5d5f),
];
/// `graph.nt` in generation order with duplicates (`--stream`).
const STREAMED_GRAPH: (u64, u64) = (1_693_259, 0x6eb7_4977_d3b6_8923);
/// `graph.nt` sorted and deduplicated (the default mode).
const DEFAULT_GRAPH: (u64, u64) = (1_692_448, 0x2885_ff8d_3a67_7550);
/// `graph.gstore`: canonical CSR, the same bytes from both pipelines
/// (format version 3; module docs).
const STORE: (u64, u64) = (262_304, 0x692b_35b0_0726_8fd9);

/// `eval.txt` of `--config examples/configs/bib.xml --nodes 250 --seed 42
/// --eval --budget-ms 0 --max-tuples 100000` (45 ok / 3 too-large, G
/// degraded on three rows).
const CLI_EVAL: (u64, u64) = (1811, 0xe335_4167_41ae_7f0d);
/// `eval.txt` of the programmatic mixed-shape plan ([`mixed_plan`]).
const MIXED_EVAL: (u64, u64) = (3804, 0x5af1_235d_14b2_a318);

/// `(cap, eval.txt)` of [`mixed_plan`] narrowed to the `D` column at two
/// tuple caps that split it (19 ok / 11 too-large, 24 ok / 6 too-large).
/// Cell outcomes were recorded from the commit before `D` moved onto the
/// shared join kernel: every too-large cell is a budget-rule decision.
/// Re-recorded twice (module docs): with the cache off, then with the
/// planner's exact cardinalities counted for every engine selection.
const MIXED_EVAL_D: [(usize, (u64, u64)); 2] = [
    (2_000, (2487, 0xed28_8d1b_5d76_febf)),
    (10_000, (2488, 0x45d8_ef4f_5ff0_3a18)),
];

/// `(seed, (length, FNV-1a))` of every cell outcome's `{:?}`, one line per
/// cell in report order, of the `P,G,S,D` matrix on
/// `examples/configs/bib-mixed.xml` at 2 000 nodes under a 50 000-tuple
/// cap, the instance of `tests/selection_invariance.rs`. Unlike `eval.txt`
/// and `summary.json`, which print only `too-large`, this pins the `n` of
/// every `TooLarge(n)`. Recorded from the commit before a join step
/// counted its output rows before writing any of them.
const MIXED_OUTCOMES: [(u64, (u64, u64)); 2] = [
    (6, (3588, 0xe017_1ac0_8648_935b)),
    (8, (3585, 0x07e6_bdd2_367e_d90b)),
];

/// `(use case, [(length, FNV-1a); 5])` of the five workload documents of
/// [`every_branch_workload`], in document order (rules, SPARQL, openCypher,
/// SQL, Datalog), recorded from the commit before the workload generator's
/// fan-out and path draws were each folded into one (PR 25's parent).
/// The Datalog column is re-recorded (module docs).
const USECASE_WORKLOAD_PINS: [(&str, [(u64, u64); 5]); 4] = [
    (
        "bib",
        [
            (14_114, 0xb4c8_0921_53f7_3fc0),
            (15_413, 0xffc5_fb9a_3e18_2580),
            (55_681, 0xe6c1_d4ee_f5bb_968d),
            (84_596, 0x3a07_aeec_a6a0_2e4d),
            (27_778, 0x3ef5_de52_0056_7e9b),
        ],
    ),
    (
        "lsn",
        [
            (18_892, 0xc40a_a5f7_09e1_89b5),
            (20_118, 0x1dff_d017_3d4a_253d),
            (78_264, 0x63d9_2b2b_f3c1_956b),
            (122_018, 0xb185_a54c_eeda_7879),
            (38_223, 0xff36_3189_4787_fbcc),
        ],
    ),
    (
        "sp",
        [
            (16_473, 0xd0cb_bee1_bee4_d3ef),
            (17_716, 0x9e64_4181_b784_2a28),
            (75_262, 0x0300_740b_4002_ffd5),
            (114_151, 0x2e06_2152_946d_8b94),
            (35_150, 0x5825_3882_9786_774c),
        ],
    ),
    (
        "wd",
        [
            (17_644, 0x5fd2_40af_8245_eb5b),
            (18_868, 0x1e0e_eb32_b92f_e420),
            (72_822, 0x0f6a_cde6_4fe4_a077),
            (112_789, 0x3213_fa9c_b30f_4272),
            (35_369, 0x631e_26ff_0ed2_7c14),
        ],
    ),
];

/// Masked `summary.json` of the first test's `--store` runs: `--stream`,
/// then the default mode (graph + store + workload, `"eval":null`).
/// Re-recorded with `workload.datalog` (module docs), as are the three
/// below.
const STORE_SUMMARY: [(u64, u64); 2] =
    [(1061, 0xa03e_25eb_e9ca_c914), (1062, 0xcd6c_07c7_c288_24fd)];
/// Masked `summary.json` of `--queries-only` (`"graph":null`,
/// `"store":null`, `"eval":null`).
const QUERIES_ONLY_SUMMARY: (u64, u64) = (693, 0xb832_873b_bfb1_80a8);
/// Masked `summary.json` of the [`CLI_EVAL`] runs, `[in RAM,
/// --from-store]` (the latter with `"graph":null`).
const CLI_EVAL_SUMMARY: [(u64, u64); 2] =
    [(4432, 0xba7f_2ff4_95d1_b71c), (4147, 0xa30d_20a1_b867_017c)];
/// Masked `summary.json` of the [`MIXED_EVAL`] runs, same layout.
const MIXED_EVAL_SUMMARY: [(u64, u64); 2] =
    [(9297, 0xd007_c1ee_efba_46a6), (9012, 0xe5a4_de75_419c_8a68)];

/// Masked `report.txt` ([`masked_report`]) of [`STORE_SUMMARY`]'s two
/// `--store` runs, `--stream` then the default mode (module docs).
const STORE_REPORT: [(u64, u64); 2] =
    [(1002, 0xf106_dbee_7ac4_a172), (1002, 0x915d_34ee_de58_5196)];
/// Masked `report.txt` of the `--queries-only` run.
const QUERIES_ONLY_REPORT: (u64, u64) = (593, 0x6bf0_d019_5a9a_2d35);
/// Masked `report.txt` of the [`CLI_EVAL`] runs, `[in RAM, --from-store]`.
const CLI_EVAL_REPORT: [(u64, u64); 2] =
    [(1083, 0xa84d_54a0_da19_6f0b), (758, 0xf974_b2b0_1719_ea3d)];
/// Masked `report.txt` of the [`MIXED_EVAL`] runs, same layout.
const MIXED_EVAL_REPORT: [(u64, u64); 2] =
    [(1109, 0xd3bd_d28b_ced5_3037), (784, 0x7d64_5b23_f7f8_805d)];

fn fingerprint_bytes(bytes: &[u8]) -> (u64, u64) {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    (bytes.len() as u64, hash.finish())
}

fn fingerprint(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    fingerprint_bytes(&bytes)
}

/// `summary.json` with what legitimately differs between two runs of one
/// plan masked: every stage's `"seconds"` value, and the thread count —
/// which must be the one the run was given.
fn masked_summary(json: &[u8], threads: usize) -> Vec<u8> {
    let json = std::str::from_utf8(json).expect("summary.json is UTF-8");
    let threads_field = format!("\"threads\":{threads},");
    assert!(json.contains(&threads_field), "{threads_field} in {json}");
    let json = json.replacen(&threads_field, "\"threads\":T,", 1);
    let mut masked = String::with_capacity(json.len());
    let mut rest = json.as_str();
    while let Some(at) = rest.find("\"seconds\":") {
        let value = at + "\"seconds\":".len();
        masked.push_str(&rest[..value]);
        masked.push('S');
        rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    masked.push_str(rest);
    masked.into_bytes()
}

/// `report.txt` with its wall-clock numbers masked: every `{:.3}` value
/// followed by `s` (stage, write and parked seconds) and the numbers of
/// the `cell-seconds by engine:` line. The path of a `--from-store` run's
/// store, which lives in a per-process temporary directory, reads `STORE`.
fn masked_report(report: &[u8], store: Option<&Path>) -> Vec<u8> {
    let mut report = std::str::from_utf8(report)
        .expect("report.txt is UTF-8")
        .to_owned();
    if let Some(store) = store {
        let path = store.to_str().expect("a UTF-8 temp dir");
        assert!(report.contains(path), "{path} in {report}");
        report = report.replace(path, "STORE");
    }
    let mut masked = String::with_capacity(report.len());
    for line in report.split_inclusive('\n') {
        let by_engine = line.starts_with("cell-seconds by engine:");
        let mut words = line.split(' ').peekable();
        while let Some(word) = words.next() {
            let (number, rest) = word.split_at(
                word.find(|c: char| !c.is_ascii_digit() && c != '.' && c != '(')
                    .unwrap_or(word.len()),
            );
            let digits = number.trim_start_matches('(');
            let three = digits
                .split_once('.')
                .is_some_and(|(int, frac)| !int.is_empty() && frac.len() == 3);
            if three && (by_engine || rest.starts_with('s')) {
                masked.push_str(&number[..number.len() - digits.len()]);
                masked.push('S');
                masked.push_str(rest);
            } else {
                masked.push_str(word);
            }
            if words.peek().is_some() {
                masked.push(' ');
            }
        }
    }
    masked.into_bytes()
}

fn report_fingerprint(report: &[u8], store: Option<&Path>) -> (u64, u64) {
    fingerprint_bytes(&masked_report(report, store))
}

fn summary_fingerprint(json: &[u8], threads: usize) -> (u64, u64) {
    fingerprint_bytes(&masked_summary(json, threads))
}

/// The fingerprint of the `summary.json` a `--format json` run left in `out`.
fn summary_in(out: &Path, threads: &str) -> (u64, u64) {
    let json = std::fs::read(out.join("summary.json")).expect("summary.json");
    summary_fingerprint(&json, threads.parse().expect("a thread count"))
}

/// The fingerprint of the masked `report.txt` a run left in `out`.
fn report_in(out: &Path, store: Option<&Path>) -> (u64, u64) {
    let report = std::fs::read(out.join("report.txt")).expect("report.txt");
    report_fingerprint(&report, store)
}

/// Runs the CLI on `examples/configs/bib.xml` at seed 42, from the
/// repository root with a relative `--config`, so the `config:` line of
/// `eval.txt` does not depend on where the checkout is.
fn gmark(out: &Path, flags: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gmark"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd.args(["--config", "examples/configs/bib.xml", "--seed", "42"]);
    cmd.arg("--output").arg(out).args(flags);
    cmd.stdout(std::process::Stdio::null());
    let status = cmd.status().expect("spawning the gmark binary");
    assert!(status.success(), "gmark {flags:?} failed");
}

#[test]
fn parent_commit_artifacts_are_reproduced_at_1_2_8_threads_in_both_modes() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("gmark-golden-{}", std::process::id()));
    for stream in [true, false] {
        for threads in ["1", "2", "8"] {
            let out = scratch.join(format!("{}-t{threads}", if stream { "s" } else { "d" }));
            let mut flags = vec!["--store", "--threads", threads, "--format", "json"];
            if stream {
                flags.push("--stream");
            }
            gmark(&out, &flags);
            let what = format!("stream={stream} threads={threads}");
            let graph = if stream {
                STREAMED_GRAPH
            } else {
                DEFAULT_GRAPH
            };
            assert_eq!(fingerprint(&out.join("graph.nt")), graph, "graph.nt {what}");
            assert_eq!(
                fingerprint(&out.join("graph.gstore")),
                STORE,
                "graph.gstore {what}"
            );
            for (file, len, hash) in WORKLOAD_PINS {
                assert_eq!(fingerprint(&out.join(file)), (len, hash), "{file} {what}");
            }
            let pin = STORE_SUMMARY[usize::from(!stream)];
            assert_eq!(summary_in(&out, threads), pin, "summary.json {what}");
            let pin = STORE_REPORT[usize::from(!stream)];
            assert_eq!(report_in(&out, None), pin, "report.txt {what}");
        }
    }
    for threads in ["1", "2", "8"] {
        let out = scratch.join("q");
        let flags = ["--queries-only", "--threads", threads, "--format", "json"];
        gmark(&out, &flags);
        assert_eq!(summary_in(&out, threads), QUERIES_ONLY_SUMMARY, "{flags:?}");
        assert_eq!(report_in(&out, None), QUERIES_ONLY_REPORT, "{flags:?}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn parent_commit_cli_eval_report_is_reproduced_in_every_regime() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("gmark-golden-eval-{}", std::process::id()));
    gmark(&scratch.join("store"), &["--nodes", "250", "--store"]);
    let store_path = scratch.join("store/graph.gstore");
    let store = store_path.to_str().expect("a UTF-8 temp dir");
    for threads in ["1", "2", "8"] {
        for from_store in [false, true] {
            let mut flags = vec!["--nodes", "250", "--eval", "--budget-ms", "0"];
            flags.extend(["--max-tuples", "100000", "--threads", threads]);
            flags.extend(["--format", "json"]);
            if from_store {
                flags.extend(["--from-store", store]);
            }
            let out = scratch.join("run");
            gmark(&out, &flags);
            assert_eq!(fingerprint(&out.join("eval.txt")), CLI_EVAL, "{flags:?}");
            let pin = CLI_EVAL_SUMMARY[usize::from(from_store)];
            assert_eq!(summary_in(&out, threads), pin, "summary.json {flags:?}");
            let store = from_store.then_some(store_path.as_path());
            let pin = CLI_EVAL_REPORT[usize::from(from_store)];
            assert_eq!(report_in(&out, store), pin, "report.txt {flags:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The shape of the benchmark's `eval-inram` instance at a test's size:
/// Bib, 30 queries of every shape and selectivity class, recursion 0.4,
/// 2–4 conjuncts, 1–2 disjuncts, all four engines, no clock.
fn mixed_plan(from_store: Option<&Path>) -> RunPlan {
    let mut workload = WorkloadConfig::new(30);
    workload.shapes = Shape::ALL.to_vec();
    workload.selectivities = SelectivityClass::ALL.to_vec();
    workload.recursion_probability = 0.4;
    workload.query_size = QuerySize {
        conjuncts: (2, 4),
        disjuncts: (1, 2),
        ..QuerySize::default()
    };
    let builder = RunPlan::builder(gmark::core::usecases::bib())
        .nodes(300)
        .workload(workload)
        .eval(EvalSpec {
            budget_ms: 0,
            max_tuples: 100_000,
            ..EvalSpec::default()
        });
    match from_store {
        Some(path) => builder.from_store(path),
        None => builder,
    }
    .build()
    .expect("the mixed plan is valid")
}

#[test]
fn parent_commit_mixed_eval_report_is_reproduced_in_every_regime() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("gmark-golden-mixed-{}", std::process::id()));
    let store_plan = RunPlan::builder(gmark::core::usecases::bib())
        .nodes(300)
        .store()
        .build()
        .expect("the store plan is valid");
    let mut dir = DirSink::new(&scratch).expect("a writable temp dir");
    run(&store_plan, &RunOptions::with_seed(2), &mut dir).expect("the store builds");
    let store = scratch.join("graph.gstore");
    for threads in [1, 2, 8] {
        for from_store in [None, Some(store.as_path())] {
            let plan = mixed_plan(from_store);
            let mut sink = MemorySink::new();
            run(&plan, &RunOptions::with_seed(2).threads(threads), &mut sink)
                .expect("the mixed plan runs");
            let report = sink.bytes(Artifact::EvalReport).expect("an eval report");
            let what = format!("threads={threads} from_store={}", from_store.is_some());
            assert_eq!(fingerprint_bytes(&report), MIXED_EVAL, "{what}");
            let summary = sink.bytes(Artifact::Summary).expect("a summary");
            assert_eq!(
                summary_fingerprint(&summary, threads),
                MIXED_EVAL_SUMMARY[usize::from(from_store.is_some())],
                "summary.json {what}"
            );
            let report = sink.bytes(Artifact::Report).expect("a report");
            assert_eq!(
                report_fingerprint(&report, from_store),
                MIXED_EVAL_REPORT[usize::from(from_store.is_some())],
                "report.txt {what}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A workload that reaches every branch of the query generator: all four
/// shapes (star and cycle branches, star-chain arms), arities 0–3 (the
/// unconstrained path beside the selectivity-typed one), every class,
/// recursion 0.5 with up to three disjuncts (multi-disjunct star loops),
/// and up to two rules. At least two conjuncts: a one-conjunct star-chain
/// rule has two variables, cannot project three, and a second rule of
/// arity 3 then fails the whole workload (`MixedArity`, query 3).
fn every_branch_workload() -> WorkloadConfig {
    let mut workload = WorkloadConfig::new(40).with_seed(42);
    workload.arity = vec![0, 1, 2, 3];
    workload.shapes = Shape::ALL.to_vec();
    workload.selectivities = SelectivityClass::ALL.to_vec();
    workload.recursion_probability = 0.5;
    workload.rules = (1, 2);
    workload.query_size = QuerySize {
        conjuncts: (2, 4),
        disjuncts: (1, 3),
        length: (1, 3),
    };
    workload
}

#[test]
fn parent_commit_workloads_are_reproduced_for_every_use_case() {
    use gmark::translate::{write_workload, WorkloadOutputs};
    const DOCUMENTS: [Artifact; 5] = [
        Artifact::Rules,
        Artifact::Sparql,
        Artifact::Cypher,
        Artifact::Sql,
        Artifact::Datalog,
    ];
    let config = every_branch_workload();
    for (name, pins) in USECASE_WORKLOAD_PINS {
        let schema = gmark::core::usecases::by_name(name).expect("a built-in use case");
        let plan = RunPlan::builder(schema.clone())
            .workload(config.clone())
            .queries_only()
            .build()
            .expect("the workload plan is valid");
        for threads in [1, 2, 8] {
            // The streamed pipeline, through the facade.
            let mut sink = MemorySink::new();
            run(&plan, &RunOptions::default().threads(threads), &mut sink)
                .expect("the workload streams");
            let streamed =
                DOCUMENTS.map(|doc| fingerprint_bytes(&sink.bytes(doc).expect("a document")));
            assert_eq!(streamed, pins, "{name} streamed, threads={threads}");
            // The materialised pipeline: generate, then render.
            let (workload, _) = generate_workload_with_threads(&schema, &config, threads)
                .expect("the workload generates");
            let mut outs = WorkloadOutputs {
                rules: Vec::new(),
                sparql: Vec::new(),
                cypher: Vec::new(),
                sql: Vec::new(),
                datalog: Vec::new(),
            };
            write_workload(&schema, &workload.queries, &mut outs).expect("the workload renders");
            let rendered = [outs.rules, outs.sparql, outs.cypher, outs.sql, outs.datalog]
                .map(|doc| fingerprint_bytes(&doc));
            assert_eq!(rendered, pins, "{name} materialised, threads={threads}");
        }
    }
}

#[test]
fn parent_commit_datalog_column_is_reproduced_at_tight_caps() {
    for (cap, pin) in MIXED_EVAL_D {
        for threads in [1, 2, 8] {
            let mut plan = mixed_plan(None);
            let eval = plan.eval.as_mut().expect("the mixed plan evaluates");
            eval.engines = vec![EngineKind::Datalog];
            eval.max_tuples = cap;
            let mut sink = MemorySink::new();
            run(&plan, &RunOptions::with_seed(2).threads(threads), &mut sink)
                .expect("the mixed plan runs");
            let report = sink.bytes(Artifact::EvalReport).expect("an eval report");
            assert_eq!(
                fingerprint_bytes(&report),
                pin,
                "cap={cap} threads={threads}"
            );
        }
    }
}

#[test]
fn parent_commit_cell_outcomes_are_reproduced_with_every_too_large_count() {
    let config = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/bib-mixed.xml");
    let plan = RunPlan::from_config_file(config)
        .expect("bib-mixed.xml parses")
        .with_nodes(2000);
    let budget = CellBudget {
        timeout: None,
        max_tuples: 50_000,
    };
    for (seed, pin) in MIXED_OUTCOMES {
        let arts = run_in_memory(&plan, &RunOptions::with_seed(seed)).expect("the instance runs");
        let graph = arts.graph.expect("a graph");
        let workload = arts.workload.expect("a workload");
        let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
        for threads in [1, 4] {
            let options = MatrixOptions {
                threads,
                ..MatrixOptions::default()
            };
            let ctx = EvalContext::new(&graph);
            let report = evaluate_matrix_with_schema(
                &ctx,
                Some(&plan.graph.schema),
                &queries,
                &EngineKind::ALL,
                &budget,
                &options,
            );
            let outcomes: String = report
                .cells
                .iter()
                .map(|cell| format!("{:?}\n", cell.outcome))
                .collect();
            assert_eq!(
                fingerprint_bytes(outcomes.as_bytes()),
                pin,
                "seed={seed} threads={threads}"
            );
        }
    }
}
