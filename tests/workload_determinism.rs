//! The workload pipeline's headline guarantee, pinned end to end: the
//! `gmark` CLI writes byte-identical `workload.{txt,sparql,cypher,sql,
//! datalog}` for `--threads 1`, `2`, and `8` on `examples/configs/bib.xml`,
//! `--queries-only` produces them without generating `graph.nt`, and the
//! library-level parallel generator returns the same `Workload` and
//! `WorkloadReport` at every thread count.
//!
//! (Query `i` draws from an RNG stream split off the master seed by query
//! index, so its five rendered documents are a pure function of
//! `(schema, config, i)`; writing queries in ascending index order makes
//! scheduling invisible — see `gmark_translate::stream`.)

use gmark::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOAD_FILES: [&str; 5] = [
    "workload.txt",
    "workload.sparql",
    "workload.cypher",
    "workload.sql",
    "workload.datalog",
];

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn run_cli(out_dir: &Path, threads: &str) -> Vec<Vec<u8>> {
    let status = Command::new(env!("CARGO_BIN_EXE_gmark"))
        .args([
            "--config",
            repo_path("examples/configs/bib.xml").to_str().unwrap(),
            "--output",
            out_dir.to_str().unwrap(),
            "--queries-only",
            "--threads",
            threads,
            "--seed",
            "42",
        ])
        .status()
        .expect("spawning the gmark binary");
    assert!(
        status.success(),
        "gmark --queries-only --threads {threads} failed"
    );
    WORKLOAD_FILES
        .iter()
        .map(|f| std::fs::read(out_dir.join(f)).unwrap_or_else(|e| panic!("{f} written: {e}")))
        .collect()
}

#[test]
fn cli_workload_documents_are_byte_identical_at_1_2_8_threads() {
    let scratch = std::env::temp_dir().join(format!("gmark-wl-test-{}", std::process::id()));
    let baseline = run_cli(&scratch.join("t1"), "1");
    for (f, bytes) in WORKLOAD_FILES.iter().zip(&baseline) {
        assert!(!bytes.is_empty(), "{f} is empty");
    }
    for threads in ["2", "8"] {
        let docs = run_cli(&scratch.join(format!("t{threads}")), threads);
        for (f, (doc, base)) in WORKLOAD_FILES.iter().zip(docs.iter().zip(&baseline)) {
            assert_eq!(
                doc, base,
                "{f} differs between --threads 1 and --threads {threads}"
            );
        }
    }
    // --queries-only must not build the graph, and the output directory
    // holds exactly the expected artifacts: no temporary file, no
    // `graph.nt`.
    for dir in ["t1", "t2", "t8"] {
        let mut names: Vec<String> = std::fs::read_dir(scratch.join(dir))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut expected: Vec<&str> = WORKLOAD_FILES.to_vec();
        expected.push("report.txt");
        expected.sort_unstable();
        assert_eq!(names, expected, "{dir}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn cli_queries_only_report_mentions_skipped_graph() {
    let scratch = std::env::temp_dir().join(format!("gmark-wl-report-{}", std::process::id()));
    run_cli(&scratch, "2");
    let report = std::fs::read_to_string(scratch.join("report.txt")).expect("report.txt");
    assert!(
        report.contains("graph: skipped (--queries-only)"),
        "{report}"
    );
    assert!(report.contains("cypher degradations:"), "{report}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn library_workload_is_bit_identical_across_thread_counts() {
    let schema = gmark::core::usecases::bib();
    let mut cfg = WorkloadConfig::new(30).with_seed(0xB1B);
    cfg.shapes = vec![Shape::Chain, Shape::Star, Shape::Cycle, Shape::StarChain];
    cfg.recursion_probability = 0.25;
    let (base, base_report) =
        generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
    assert_eq!(base.queries.len(), 30);
    // The sequential entry point is the 1-thread pipeline.
    let (seq, seq_report) =
        generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
    assert_eq!(seq_report, base_report);
    for (a, b) in seq.queries.iter().zip(&base.queries) {
        assert_eq!(a.query, b.query);
    }
    for threads in [2usize, 8] {
        let (w, report) =
            generate_workload_with_threads(&schema, &cfg, threads).expect("workload generates");
        assert_eq!(report, base_report, "{threads} threads: report differs");
        assert_eq!(w.queries.len(), base.queries.len());
        for (i, (a, b)) in w.queries.iter().zip(&base.queries).enumerate() {
            assert_eq!(a.query, b.query, "{threads} threads: query {i} differs");
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.requested, b.requested);
            assert_eq!(a.target, b.target);
            assert_eq!(a.estimated_alpha, b.estimated_alpha);
            assert_eq!(a.relaxations, b.relaxations);
        }
    }
}

#[test]
fn run_api_workload_documents_are_byte_identical_at_1_2_8_threads() {
    // The five documents through the unified pipeline API (queries-only
    // plan), pinned byte-for-byte across thread counts.
    use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
    let mut cfg = WorkloadConfig::new(24).with_seed(0xB1B);
    cfg.shapes = vec![Shape::Chain, Shape::Star, Shape::Cycle, Shape::StarChain];
    cfg.recursion_probability = 0.25;
    let plan = RunPlan::builder(gmark::core::usecases::bib())
        .workload(cfg)
        .queries_only()
        .build()
        .expect("plan builds");
    let docs_at = |threads: usize| {
        let mut sink = MemorySink::new();
        let summary = run(&plan, &RunOptions::default().threads(threads), &mut sink)
            .expect("workload streams");
        assert!(summary.graph.is_none(), "queries-only must skip the graph");
        assert!(
            sink.bytes(Artifact::Graph).is_none(),
            "graph.nt written anyway"
        );
        Artifact::WORKLOAD.map(|a| sink.bytes(a).expect("document written"))
    };
    let baseline = docs_at(1);
    for doc in &baseline {
        assert!(!doc.is_empty());
    }
    for threads in [2usize, 8] {
        let docs = docs_at(threads);
        for (artifact, (doc, base)) in Artifact::WORKLOAD.iter().zip(docs.iter().zip(&baseline)) {
            assert_eq!(doc, base, "{artifact} differs at {threads} threads");
        }
    }
}

#[test]
fn zero_threads_auto_detects_and_matches() {
    let schema = gmark::core::usecases::bib();
    let cfg = WorkloadConfig::new(12).with_seed(7);
    let (auto, r_auto) = generate_workload_with_threads(&schema, &cfg, 0).expect("generates");
    let (one, r_one) = generate_workload_with_threads(&schema, &cfg, 1).expect("generates");
    assert_eq!(r_auto, r_one);
    for (a, b) in auto.queries.iter().zip(&one.queries) {
        assert_eq!(a.query, b.query);
    }
}
