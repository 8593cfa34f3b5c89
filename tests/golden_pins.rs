//! Golden pins: the length and FNV-1a hash of every byte-compared artifact
//! of `examples/configs/bib.xml` at seed 42, recorded from the commit
//! before the shard files were retired (PR 13's parent). The ordered
//! in-memory hand-off and the block N-Triples kernel must reproduce them at
//! 1, 2 and 8 threads, in the streamed and the default mode, with and
//! without the on-disk store.
//!
//! The `eval.txt` pins were recorded from the commit before the evaluation
//! crate was collapsed to one entry point, one ordering loop, one join
//! kernel and one expression fold (PR 18's parent): with the planner on,
//! the report — cell outcomes, counts, estimates and the cache header's
//! fill/hit/miss counters — must come out byte for byte at 1, 2 and 8
//! threads, in RAM and from a store, with the cache on and off.

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
    ("workload.datalog", 2999, 0x30b7_ec20_5f7f_6121),
];
/// `graph.nt` in generation order with duplicates (`--stream`).
const STREAMED_GRAPH: (u64, u64) = (1_693_259, 0x6eb7_4977_d3b6_8923);
/// `graph.nt` sorted and deduplicated (the default mode).
const DEFAULT_GRAPH: (u64, u64) = (1_692_448, 0x2885_ff8d_3a67_7550);
/// `graph.gstore`: canonical CSR, the same bytes from both pipelines.
const STORE: (u64, u64) = (811_232, 0xd07b_2b48_fe35_2594);

/// `eval.txt` of `--config examples/configs/bib.xml --nodes 250 --seed 42
/// --eval --budget-ms 0 --max-tuples 100000` (45 ok / 3 too-large, G
/// degraded on three rows), cache on and `--no-eval-cache`.
const CLI_EVAL: [(u64, u64); 2] = [(1838, 0xb696_1014_7e7e_bc09), (1755, 0x4e05_9220_4f69_6f0a)];
/// `eval.txt` of the programmatic mixed-shape plan ([`mixed_plan`]), cache
/// on and off.
const MIXED_EVAL: [(u64, u64); 2] = [(3831, 0x177b_f538_b9b1_6e59), (3748, 0xf343_3c17_beaf_aa25)];

fn fingerprint_bytes(bytes: &[u8]) -> (u64, u64) {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    (bytes.len() as u64, hash.finish())
}

fn fingerprint(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    fingerprint_bytes(&bytes)
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
            let mut flags = vec!["--store", "--threads", threads];
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
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn parent_commit_cli_eval_report_is_reproduced_in_every_regime() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("gmark-golden-eval-{}", std::process::id()));
    gmark(&scratch.join("store"), &["--nodes", "250", "--store"]);
    let store = scratch.join("store/graph.gstore");
    let store = store.to_str().expect("a UTF-8 temp dir");
    for threads in ["1", "2", "8"] {
        for (cache, pin) in [(true, CLI_EVAL[0]), (false, CLI_EVAL[1])] {
            for from_store in [false, true] {
                let mut flags = vec!["--nodes", "250", "--eval", "--budget-ms", "0"];
                flags.extend(["--max-tuples", "100000", "--threads", threads]);
                if !cache {
                    flags.push("--no-eval-cache");
                }
                if from_store {
                    flags.extend(["--from-store", store]);
                }
                let out = scratch.join("run");
                gmark(&out, &flags);
                assert_eq!(fingerprint(&out.join("eval.txt")), pin, "{flags:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The shape of the benchmark's `eval-inram` instance at a test's size:
/// Bib, 30 queries of every shape and selectivity class, recursion 0.4,
/// 2–4 conjuncts, 1–2 disjuncts, all four engines, no clock.
fn mixed_plan(cache: bool, from_store: Option<&Path>) -> RunPlan {
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
            cache,
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
        for (cache, pin) in [(true, MIXED_EVAL[0]), (false, MIXED_EVAL[1])] {
            for from_store in [None, Some(store.as_path())] {
                let plan = mixed_plan(cache, from_store);
                let mut sink = MemorySink::new();
                run(&plan, &RunOptions::with_seed(2).threads(threads), &mut sink)
                    .expect("the mixed plan runs");
                let report = sink.bytes(Artifact::EvalReport).expect("an eval report");
                assert_eq!(
                    fingerprint_bytes(&report),
                    pin,
                    "threads={threads} cache={cache} from_store={}",
                    from_store.is_some()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
