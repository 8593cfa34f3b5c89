//! Reproducibility guarantees: everything gMark generates is a pure
//! function of (configuration, seed) — including under parallel generation
//! and across all output formats.
//!
//! The historical wart — default-mode (non-streamed) `graph.nt` was
//! byte-identical only across T > 1, because T = 1 streamed raw triples —
//! is fixed: the unified `gmark::run` pipeline routes every thread count
//! through the same ordered-merge-then-serialize path, and the tests here
//! pin T = 1 vs T = 2 vs T = 8 both at the library level and through the
//! CLI.

use gmark::prelude::*;
use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
use std::path::{Path, PathBuf};
use std::process::Command;

fn graph_fingerprint(g: &Graph) -> u64 {
    // Order-independent-ish FNV over all edges per predicate.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in 0..g.predicate_count() {
        for (s, t) in g.edges(p) {
            let x = ((p as u64) << 48) ^ ((s as u64) << 24) ^ t as u64;
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[test]
fn graph_generation_is_seed_deterministic() {
    for (name, schema) in gmark::core::usecases::all() {
        let config = GraphConfig::new(1_500, schema);
        let (g1, _) = generate_graph(&config, &GeneratorOptions::with_seed(77));
        let (g2, _) = generate_graph(&config, &GeneratorOptions::with_seed(77));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2), "{name}");
        let (g3, _) = generate_graph(&config, &GeneratorOptions::with_seed(78));
        assert_ne!(
            graph_fingerprint(&g1),
            graph_fingerprint(&g3),
            "{name}: different seeds must differ"
        );
    }
}

#[test]
fn thread_count_does_not_change_the_graph() {
    let schema = gmark::core::usecases::lsn();
    let config = GraphConfig::new(3_000, schema);
    let mut opts = GeneratorOptions::with_seed(99);
    let (seq, _) = generate_graph(&config, &opts);
    for threads in [2, 3, 8] {
        opts.threads = threads;
        let (par, _) = generate_graph(&config, &opts);
        assert_eq!(
            graph_fingerprint(&seq),
            graph_fingerprint(&par),
            "threads = {threads}"
        );
    }
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn default_mode_graph_bytes_are_identical_at_1_2_8_threads() {
    // The new-API pin of the fixed T=1 wart: non-streamed graph.nt is one
    // byte sequence at every thread count, including 1.
    let plan = RunPlan::builder(gmark::core::usecases::lsn())
        .nodes(2_000)
        .build()
        .expect("plan builds");
    let bytes_at = |threads: usize| {
        let mut sink = MemorySink::new();
        run(
            &plan,
            &RunOptions::with_seed(99).threads(threads),
            &mut sink,
        )
        .expect("runs");
        sink.bytes(Artifact::Graph).expect("graph written")
    };
    let baseline = bytes_at(1);
    assert!(!baseline.is_empty());
    for threads in [2usize, 8] {
        assert_eq!(
            bytes_at(threads),
            baseline,
            "default-mode graph bytes differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn cli_default_mode_graph_is_byte_identical_at_t1_vs_t2() {
    // End-to-end cover of the same guarantee through the binary (the CI
    // smoke step runs the same comparison on release builds).
    let scratch = std::env::temp_dir().join(format!("gmark-default-t1-{}", std::process::id()));
    let run_cli = |dir: &Path, threads: &str| {
        let status = Command::new(env!("CARGO_BIN_EXE_gmark"))
            .args([
                "--config",
                repo_path("examples/configs/bib.xml").to_str().unwrap(),
                "--output",
                dir.to_str().unwrap(),
                "--threads",
                threads,
                "--seed",
                "42",
            ])
            .status()
            .expect("spawning the gmark binary");
        assert!(status.success(), "gmark --threads {threads} failed");
        std::fs::read(dir.join("graph.nt")).expect("graph.nt written")
    };
    let t1 = run_cli(&scratch.join("t1"), "1");
    let t2 = run_cli(&scratch.join("t2"), "2");
    assert_eq!(
        t1, t2,
        "CLI default-mode graph.nt differs between T=1 and T=2"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn workloads_are_seed_deterministic() {
    let schema = gmark::core::usecases::sp();
    let mut cfg = WorkloadConfig::new(20).with_seed(123);
    cfg.recursion_probability = 0.2;
    cfg.shapes = vec![Shape::Chain, Shape::Star, Shape::Cycle, Shape::StarChain];
    let (w1, _) = generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
    let (w2, _) = generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
    for (a, b) in w1.queries.iter().zip(&w2.queries) {
        assert_eq!(a.query, b.query);
        assert_eq!(a.target, b.target);
    }
    let (w3, _) = generate_workload_with_threads(&schema, &cfg.clone().with_seed(124), 1)
        .expect("workload generates");
    let all_same = w1
        .queries
        .iter()
        .zip(&w3.queries)
        .all(|(a, b)| a.query == b.query);
    assert!(
        !all_same,
        "different seeds should produce different workloads"
    );
}

#[test]
fn query_order_is_independent_of_workload_size() {
    // Per-query RNG splitting: the i-th query is identical no matter how
    // many queries follow it.
    let schema = gmark::core::usecases::bib();
    let (small, _) =
        generate_workload_with_threads(&schema, &WorkloadConfig::new(5).with_seed(55), 1)
            .expect("workload generates");
    let (large, _) =
        generate_workload_with_threads(&schema, &WorkloadConfig::new(25).with_seed(55), 1)
            .expect("workload generates");
    for (a, b) in small.queries.iter().zip(&large.queries) {
        assert_eq!(a.query, b.query);
    }
}

#[test]
fn evaluation_is_deterministic() {
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(1_000, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(5));
    let (workload, _) =
        generate_workload_with_threads(&schema, &WorkloadConfig::new(6).with_seed(6), 1)
            .expect("workload generates");
    for gq in &workload.queries {
        // A fresh context per run: nothing shared but the graph.
        let run = || {
            let ctx = EvalContext::new(&graph);
            EngineKind::Datalog
                .evaluate(&ctx, &gq.query, None, &Budget::default())
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }
}
