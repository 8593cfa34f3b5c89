//! Golden pins: the length and FNV-1a hash of every byte-compared artifact
//! of `examples/configs/bib.xml` at seed 42, recorded from the commit
//! before the shard files were retired (PR 13's parent). The ordered
//! in-memory hand-off and the block N-Triples kernel must reproduce them at
//! 1, 2 and 8 threads, in the streamed and the default mode, with and
//! without the on-disk store.

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

fn fingerprint(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut hash = Fnv64::new();
    hash.update(&bytes);
    (bytes.len() as u64, hash.finish())
}

fn run_cli(out: &Path, threads: &str, stream: bool) {
    let config = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/bib.xml");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gmark"));
    cmd.arg("--config").arg(config).arg("--output").arg(out);
    cmd.args(["--store", "--seed", "42", "--threads", threads]);
    if stream {
        cmd.arg("--stream");
    }
    let status = cmd.status().expect("spawning the gmark binary");
    assert!(status.success(), "gmark --threads {threads} failed");
}

#[test]
fn parent_commit_artifacts_are_reproduced_at_1_2_8_threads_in_both_modes() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("gmark-golden-{}", std::process::id()));
    for stream in [true, false] {
        for threads in ["1", "2", "8"] {
            let out = scratch.join(format!("{}-t{threads}", if stream { "s" } else { "d" }));
            run_cli(&out, threads, stream);
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
