//! The streaming pipeline's headline guarantee, pinned end to end: the
//! `gmark` CLI with `--stream` writes a byte-identical `graph.nt` for
//! `--threads 1`, `2`, and `8` on `examples/configs/bib.xml`, and the
//! library-level stream equals the single-threaded direct stream.
//!
//! (A constraint's bytes are a pure function of `(config, seed, constraint
//! index)`; writing constraints in ascending order makes scheduling
//! invisible — see `gmark_store::emit` for the hand-off that does it
//! without a temporary file.)

use gmark::prelude::*;
use gmark_core::gen::{generate_streamed, StreamOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn run_cli(out_dir: &Path, threads: &str) -> Vec<u8> {
    let status = Command::new(env!("CARGO_BIN_EXE_gmark"))
        .args([
            "--config",
            repo_path("examples/configs/bib.xml").to_str().unwrap(),
            "--output",
            out_dir.to_str().unwrap(),
            "--stream",
            "--threads",
            threads,
            "--seed",
            "42",
        ])
        .status()
        .expect("spawning the gmark binary");
    assert!(
        status.success(),
        "gmark --stream --threads {threads} failed"
    );
    std::fs::read(out_dir.join("graph.nt")).expect("graph.nt written")
}

#[test]
fn cli_streamed_graph_is_byte_identical_at_1_2_8_threads() {
    let scratch = std::env::temp_dir().join(format!("gmark-stream-test-{}", std::process::id()));
    let baseline = run_cli(&scratch.join("t1"), "1");
    assert!(!baseline.is_empty(), "streamed graph.nt is empty");
    for threads in ["2", "8"] {
        let nt = run_cli(&scratch.join(format!("t{threads}")), threads);
        assert_eq!(
            nt, baseline,
            "graph.nt differs between --threads 1 and --threads {threads}"
        );
    }
    // The output directory holds exactly the artifacts, nothing else —
    // a streamed run creates no other file, during or after.
    for dir in ["t1", "t2", "t8"] {
        assert_eq!(
            file_names(&scratch.join(dir)),
            [
                "graph.nt",
                "report.txt",
                "workload.cypher",
                "workload.datalog",
                "workload.sparql",
                "workload.sql",
                "workload.txt",
            ],
            "{dir}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn streamed_run_without_a_store_never_touches_its_scratch_dir() {
    // The N-Triples and workload paths keep everything in memory, and a
    // DirSink's store is written in place: a scratch directory that
    // cannot even be created must not matter.
    use gmark::run::{run, DirSink, RunOptions, RunPlan};
    let root = std::env::temp_dir().join(format!("gmark-noscratch-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    // A regular file where the scratch parent would go: `create_dir_all`
    // below it fails for every user, root included.
    std::fs::write(root.join("blocker"), b"").unwrap();
    let plan = RunPlan::builder(gmark::core::usecases::bib())
        .nodes(3_000)
        .workload(WorkloadConfig::new(6))
        .build()
        .expect("plan builds");
    let mut opts = RunOptions::with_seed(0xB1B).threads(4).stream(true);
    opts.scratch_dir = Some(root.join("blocker/scratch"));
    let mut sink = DirSink::new(root.join("out")).unwrap();
    let summary = run(&plan, &opts, &mut sink).expect("no scratch is needed without a store");
    assert!(summary.graph.unwrap().edges_written > 0);
    assert_eq!(
        file_names(&root.join("out")),
        [
            "graph.nt",
            "report.txt",
            "workload.cypher",
            "workload.datalog",
            "workload.sparql",
            "workload.sql",
            "workload.txt",
        ]
    );
    // A store is built by generating the edges again and written in
    // place: the directory still does not matter.
    let store_plan = RunPlan::builder(gmark::core::usecases::bib())
        .nodes(3_000)
        .store()
        .build()
        .expect("plan builds");
    let summary = run(&store_plan, &opts, &mut sink).expect("a store needs no scratch either");
    assert!(summary.store.unwrap().info.edges > 0);
    assert!(root.join("out/graph.gstore").is_file());
    let names = file_names(&root.join("out"));
    assert!(!names.iter().any(|n| n.starts_with(".gmark")), "{names:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn library_streamed_bytes_match_across_thread_counts() {
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(5_000, schema);
    let stream = StreamOptions::default();
    let mut baseline = Vec::new();
    let opts = |threads| GeneratorOptions {
        threads,
        ..GeneratorOptions::with_seed(0xB1B)
    };
    let (report, written) = generate_streamed(&config, &opts(1), &stream, &mut baseline).unwrap();
    assert_eq!(report.total_edges, written);
    assert!(written > 0);
    for threads in [2usize, 8] {
        let mut buf = Vec::new();
        let (r, w) = generate_streamed(&config, &opts(threads), &stream, &mut buf).unwrap();
        assert_eq!(buf, baseline, "{threads} threads: streamed bytes differ");
        assert_eq!(w, written, "{threads} threads: triple count differs");
        assert_eq!(r.constraints, report.constraints);
    }
}

#[test]
fn run_api_streamed_graph_is_byte_identical_at_1_2_8_threads() {
    // The same guarantee through the unified pipeline API.
    use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
    let plan = RunPlan::builder(gmark::core::usecases::bib())
        .nodes(3_000)
        .build()
        .expect("plan builds");
    let bytes_at = |threads: usize| {
        let mut sink = MemorySink::new();
        let summary = run(
            &plan,
            &RunOptions::with_seed(0xB1B).threads(threads).stream(true),
            &mut sink,
        )
        .expect("streams");
        assert!(summary.streamed);
        sink.bytes(Artifact::Graph).expect("graph written")
    };
    let baseline = bytes_at(1);
    assert!(!baseline.is_empty());
    for threads in [2usize, 8] {
        assert_eq!(bytes_at(threads), baseline, "{threads} threads differ");
    }
}

#[test]
fn streamed_output_parses_back_to_the_same_edge_multiset() {
    // The streamed file must round-trip through the strict reader and
    // carry exactly the edges the in-memory pipeline reports.
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(2_000, schema.clone());
    let opts = GeneratorOptions {
        threads: 4,
        ..GeneratorOptions::with_seed(7)
    };
    let mut buf = Vec::new();
    let (report, written) =
        generate_streamed(&config, &opts, &StreamOptions::default(), &mut buf).unwrap();
    let triples = gmark::store::read_ntriples(buf.as_slice(), &schema.predicate_names()).unwrap();
    assert_eq!(triples.len() as u64, written);
    assert_eq!(report.total_edges, written);
}
