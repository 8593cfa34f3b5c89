//! CLI contract tests: early-exit flags, exit codes, and the
//! machine-readable `--format json` output.
//!
//! `--version` and `--help` historically called `std::process::exit`
//! mid-parse — skipping destructors and bypassing `main`'s `ExitCode`.
//! They now return a parsed early-exit variant; these tests pin the
//! observable contract (exit status 0, expected text, no output files).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn gmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmark"))
        .args(args)
        .output()
        .expect("spawning the gmark binary")
}

#[test]
fn version_exits_zero_and_prints_the_version() {
    for flag in ["--version", "-V"] {
        let out = gmark(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.trim().starts_with("gmark ") && stdout.contains(env!("CARGO_PKG_VERSION")),
            "{flag}: unexpected output {stdout:?}"
        );
    }
}

#[test]
fn help_exits_zero_and_documents_every_flag() {
    for flag in ["--help", "-h"] {
        let out = gmark(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        // Every run parameter of the table both doors share, in the CLI's
        // spelling, then the CLI's own flags: a parameter added to the
        // table without a `--help` entry fails here.
        let run_flags = gmark::run::PARAMS
            .iter()
            .map(|param| gmark::run::Door::Cli.spell(param.name));
        let own = ["--config", "--output", "--format", "--verify-store"];
        let own = own.into_iter().chain(["--version"]).map(str::to_owned);
        // Whole flags only: `--verify-store` does not document `--store`.
        let mentioned: std::collections::BTreeSet<&str> = stdout
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for documented in run_flags.chain(own) {
            assert!(
                mentioned.contains(documented.as_str()),
                "{flag}: {documented} missing"
            );
        }
    }
}

#[test]
fn early_exit_flags_win_even_with_other_arguments_present() {
    // --version after valid-looking flags must still exit 0 without
    // generating anything.
    let scratch = std::env::temp_dir().join(format!("gmark-earlyexit-{}", std::process::id()));
    let out = gmark(&[
        "--config",
        repo_path("examples/configs/bib.xml").to_str().unwrap(),
        "--output",
        scratch.to_str().unwrap(),
        "--version",
    ]);
    assert!(out.status.success());
    assert!(
        !scratch.exists(),
        "--version must not run the pipeline (output dir was created)"
    );
}

#[test]
fn unknown_and_malformed_arguments_fail_with_usage() {
    // A flag given twice is refused, not last-wins, whether it is a run
    // parameter or one of the CLI's own; the daemon has no per-connection
    // request cap to set; the planner and the evaluation cache have no
    // switches, they are always on.
    let twice = [
        (&["--nodes", "200", "--nodes", "300"][..], "--nodes"),
        (&["--config", "/nonexistent.xml", "-c", "a.xml"], "--config"),
        (&["-o", "a", "--output", "b"], "--output"),
        (&["--format", "json", "--format", "text"], "--format"),
    ];
    let no_cap = &["serve", "--max-requests-per-conn", "2"][..];
    // A queries-only run has no graph for --stream to stream.
    let nothing_to_stream = &["--stream", "--queries-only"][..];
    let no_switch = [
        &["--no-plan"][..],
        &["--no-eval-cache"],
        &["--eval-cache-mb", "8"],
    ];
    for bad in [
        &["--bogus"][..],
        &["--format", "yaml"],
        &["--seed", "x"],
        no_cap,
        nothing_to_stream,
    ]
    .into_iter()
    .chain(twice.map(|(bad, _)| bad))
    .chain(no_switch)
    {
        let out = gmark(bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?} must fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{bad:?}: no usage in {stderr:?}");
        let first_line = stderr.lines().next().unwrap_or_default();
        if let Some((_, flag)) = twice.iter().find(|(args, _)| *args == bad) {
            assert_eq!(first_line, format!("gmark: {flag}: given twice"));
        }
        if bad == no_cap {
            assert_eq!(
                first_line,
                "gmark: serve: unknown argument: --max-requests-per-conn"
            );
        }
        if bad == nothing_to_stream {
            assert!(
                first_line.contains("--queries-only generates no graph to stream or store"),
                "{first_line}"
            );
        }
        if no_switch.contains(&bad) {
            assert_eq!(first_line, format!("gmark: unknown argument: {}", bad[0]));
        }
    }
}

#[test]
fn a_tuple_cap_no_relation_can_reach_is_refused_before_the_run() {
    // A relation's CSR offsets are u32, so no cap above u32::MAX can
    // bind; the flag is refused before anything is generated.
    let scratch = std::env::temp_dir().join(format!("gmark-widecap-{}", std::process::id()));
    let out = gmark(&[
        "--config",
        repo_path("examples/configs/bib.xml").to_str().unwrap(),
        "--output",
        scratch.to_str().unwrap(),
        "--eval",
        "--max-tuples",
        "4294967296",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr.lines().next().unwrap_or_default(),
        "gmark: --max-tuples: the cap must be at most 4294967295, the most pairs one \
         relation holds (its CSR offsets are u32), not 4294967296"
    );
    assert!(!scratch.exists(), "the refused run created its output dir");
}

#[test]
fn a_node_count_past_node_id_capacity_is_refused_before_the_run() {
    // Node ids are u32: a realized total above u32::MAX is a plan error,
    // also where the per-type counts of `n` would wrap a u64 sum. Without
    // a graph to generate, the node count is no error.
    let scratch = std::env::temp_dir().join(format!("gmark-bignodes-{}", std::process::id()));
    let bib = repo_path("examples/configs/bib.xml");
    let run = |nodes: &str, extra: &[&str]| {
        let mut args = vec![
            "--config",
            bib.to_str().unwrap(),
            "--output",
            scratch.to_str().unwrap(),
            "--nodes",
            nodes,
        ];
        args.extend_from_slice(extra);
        gmark(&args)
    };
    for nodes in ["4294967296", "5000000000", "18446744073709551615"] {
        for extra in [&[][..], &["--stream", "--store"]] {
            let out = run(nodes, extra);
            assert_eq!(out.status.code(), Some(1), "--nodes {nodes} {extra:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(
                stderr.contains(&format!("n = {nodes} realizes "))
                    && stderr.contains("more than the 4294967295 a graph holds"),
                "{stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
    let out = run("18446744073709551615", &["--queries-only"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(scratch.join("workload.txt").exists());
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn format_json_writes_summary_json_and_pure_json_stdout() {
    let scratch = std::env::temp_dir().join(format!("gmark-json-{}", std::process::id()));
    let out = gmark(&[
        "--config",
        repo_path("examples/configs/bib.xml").to_str().unwrap(),
        "--output",
        scratch.to_str().unwrap(),
        "--queries-only",
        "--format",
        "json",
        "--seed",
        "42",
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // Stdout is exactly one JSON object (no banner mixed in) mirroring
    // summary.json.
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "stdout is not a lone JSON object: {stdout:?}"
    );
    let on_disk = std::fs::read_to_string(scratch.join("summary.json")).expect("summary.json");
    assert_eq!(trimmed, on_disk.trim(), "stdout and summary.json diverge");

    // The anchors external harnesses key on.
    for anchor in [
        "\"gmark_version\"",
        "\"seed\":42",
        "\"graph\":null",
        "\"produced\":12",
        "\"cypher_degradations\"",
        "\"bytes\"",
    ] {
        assert!(trimmed.contains(anchor), "missing {anchor} in {trimmed}");
    }
    // --queries-only: no graph, but all five workload documents.
    assert!(!scratch.join("graph.nt").exists());
    for doc in [
        "workload.txt",
        "workload.sparql",
        "workload.cypher",
        "workload.sql",
        "workload.datalog",
    ] {
        assert!(scratch.join(doc).exists(), "{doc} missing");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn text_format_keeps_the_human_banner_and_skips_summary_json() {
    let scratch = std::env::temp_dir().join(format!("gmark-text-{}", std::process::id()));
    let out = gmark(&[
        "--config",
        repo_path("examples/configs/bib.xml").to_str().unwrap(),
        "--output",
        scratch.to_str().unwrap(),
        "--queries-only",
        "--seed",
        "42",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("workload: 12 queries"), "{stdout}");
    assert!(stdout.contains("report ->"), "{stdout}");
    assert!(
        !scratch.join("summary.json").exists(),
        "summary.json must be opt-in via --format json"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn from_store_refuses_a_corrupt_store_before_any_engine_reads_it() {
    let scratch = std::env::temp_dir().join(format!("gmark-fstore-{}", std::process::id()));
    let config = repo_path("examples/configs/bib.xml");
    let run = |extra: &[&str]| {
        let base = [
            "--config",
            config.to_str().unwrap(),
            "--output",
            scratch.to_str().unwrap(),
            "--nodes",
            "100",
            "--seed",
            "7",
        ];
        gmark(&[&base[..], extra].concat())
    };
    assert!(run(&["--store"]).status.success());
    let store = scratch.join("graph.gstore");

    // The header region fits the first page, so the second starts with
    // the first segment's first offset, which must be 0. Flipping its low
    // byte leaves the framing intact.
    let mut bytes = std::fs::read(&store).unwrap();
    let page = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    assert_eq!(bytes[page..page + 4], [0; 4]);
    bytes[page] ^= 0xFF;
    std::fs::write(&store, &bytes).unwrap();

    let bad = run(&["--eval", "--from-store", store.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.starts_with("gmark: "), "{stderr}");
    assert!(stderr.contains("is corrupt at page 1:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn verify_store_accepts_a_good_store_and_rejects_corruption() {
    let scratch = std::env::temp_dir().join(format!("gmark-vstore-{}", std::process::id()));

    // Build a store through the CLI itself.
    let out = gmark(&[
        "--config",
        repo_path("examples/configs/bib.xml").to_str().unwrap(),
        "--output",
        scratch.to_str().unwrap(),
        "--nodes",
        "100",
        "--seed",
        "7",
        "--store",
    ]);
    assert!(
        out.status.success(),
        "{:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    let store = scratch.join("graph.gstore");

    // The intact store verifies with exit 0 and a shape line.
    let ok = gmark(&["--verify-store", store.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "intact store must verify");
    let stdout = String::from_utf8(ok.stdout).unwrap();
    assert!(stdout.contains(": ok ("), "{stdout}");

    // Flip one byte mid-file: exit code becomes non-zero and stderr
    // carries the typed StoreError message, not a panic.
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&store, &bytes).unwrap();
    let bad = gmark(&["--verify-store", store.to_str().unwrap()]);
    assert_ne!(
        bad.status.code(),
        Some(0),
        "corrupt store must exit non-zero"
    );
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.starts_with("gmark: "), "typed error line: {stderr}");
    assert!(
        stderr.contains("checksum") || stderr.contains("store") || stderr.contains("page"),
        "stderr names the store failure: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "corruption must be a typed error, not a panic: {stderr}"
    );

    // A path that does not exist is also a clean non-zero exit.
    let missing = gmark(&[
        "--verify-store",
        scratch.join("nope.gstore").to_str().unwrap(),
    ]);
    assert_ne!(missing.status.code(), Some(0));
    let stderr = String::from_utf8(missing.stderr).unwrap();
    assert!(stderr.starts_with("gmark: "), "{stderr}");

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn queries_only_without_workload_section_is_a_plan_error() {
    let scratch = std::env::temp_dir().join(format!("gmark-noplan-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let config = scratch.join("graph-only.xml");
    std::fs::write(
        &config,
        r#"<generator><graph><nodes>100</nodes>
           <types><type name="a" proportion="1.0"/></types>
           <predicates><predicate name="p" proportion="0.5"/></predicates>
           <constraints><constraint source="a" predicate="p" target="a">
             <outdistribution type="uniform" min="1" max="1"/>
           </constraint></constraints></graph></generator>"#,
    )
    .unwrap();
    let out = gmark(&[
        "--config",
        config.to_str().unwrap(),
        "--output",
        scratch.join("out").to_str().unwrap(),
        "--queries-only",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no <workload> section"), "{stderr}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn an_inverted_workload_range_is_a_config_error_not_a_panic() {
    let scratch = std::env::temp_dir().join(format!("gmark-invrange-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let bib = std::fs::read_to_string(repo_path("examples/configs/bib.xml")).unwrap();
    let inverted = bib.replace(
        r#"<conjuncts min="1" max="3"/>"#,
        r#"<conjuncts min="3" max="2"/>"#,
    );
    assert_ne!(inverted, bib, "bib.xml no longer has the conjuncts range");
    let config = scratch.join("inverted.xml");
    std::fs::write(&config, inverted).unwrap();
    let out = gmark(&[
        "--config",
        config.to_str().unwrap(),
        "--output",
        scratch.join("out").to_str().unwrap(),
        "--queries-only",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("<conjuncts> range: min 3 > max 2"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_predicate_name_outside_the_name_rule_is_a_config_error() {
    // Every translator writes predicate names verbatim; this one would be
    // an unterminated SQL literal and no SPARQL prefixed name.
    let scratch = std::env::temp_dir().join(format!("gmark-badname-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let bib = std::fs::read_to_string(repo_path("examples/configs/bib.xml")).unwrap();
    let renamed = bib.replace(r#""authors""#, r#""auth ors&apos;x""#);
    assert_ne!(renamed, bib, "bib.xml no longer has the predicate authors");
    let config = scratch.join("renamed.xml");
    std::fs::write(&config, renamed).unwrap();
    let output = scratch.join("out");
    let out = gmark(&[
        "--config",
        config.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
        "--nodes",
        "100",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(
            r#"invalid predicate name "auth ors'x": a name must match [A-Za-z_][A-Za-z0-9_]*"#
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !output.join("workload.sql").exists(),
        "nothing is translated"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
