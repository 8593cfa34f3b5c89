//! Determinism contract of the evaluation pipeline stage.
//!
//! The graph and workload stages promise byte-identical artifacts at
//! every thread count; the `--eval` matrix keeps the same promise for its
//! deterministic outputs whenever cell outcomes cannot race the wall
//! clock — pinned here in the two regimes that guarantee it:
//!
//! * **no time limit** (`budget_ms = 0`): outcomes depend only on the
//!   tuple cap, a pure function of the plan and seed;
//! * **budget exhaustion**: an already-expired clock (every cell times
//!   out) and a tiny tuple cap (every heavy cell reports too-large) are
//!   equally scheduling-independent.
//!
//! Byte-identity is asserted for the `eval.txt` artifact and for the
//! `eval` object of `summary.json`, library- and CLI-level, at 1/2/8
//! threads.

use gmark::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn bib_config() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/bib.xml")
}

/// A small deterministic eval plan over the shipped bib.xml scenario:
/// no per-cell time limit, tuple cap tight enough to finish fast in debug
/// builds (recursive quadratic cells report too-large instead of
/// grinding).
fn eval_plan() -> RunPlan {
    let mut plan = RunPlan::from_config_file(bib_config())
        .expect("bib.xml parses")
        .with_nodes(250);
    plan.eval = Some(EvalSpec {
        budget_ms: 0,
        max_tuples: 100_000,
        ..EvalSpec::default()
    });
    plan
}

/// The `"eval":{...}` suffix of a `summary.json` document. The whole file
/// cannot be byte-compared across thread counts (it records `threads` and
/// wall-clock `seconds` for the other stages); the eval object is the
/// part this PR's contract covers, and it is last in the key order.
fn eval_json_section(summary: &[u8]) -> String {
    let text = String::from_utf8(summary.to_vec()).expect("summary.json is UTF-8");
    let at = text.find("\"eval\"").expect("summary has an eval key");
    text[at..].to_owned()
}

#[test]
fn library_eval_report_is_byte_identical_across_thread_counts() {
    let plan = eval_plan();
    let run_at = |threads: usize| {
        let mut sink = MemorySink::new();
        run(
            &plan,
            &RunOptions::with_seed(11).threads(threads),
            &mut sink,
        )
        .expect("pipeline runs");
        (
            sink.bytes(Artifact::EvalReport).expect("eval.txt written"),
            eval_json_section(&sink.bytes(Artifact::Summary).expect("summary rendered")),
        )
    };
    let (base_report, base_json) = run_at(1);
    assert!(!base_report.is_empty());
    let base_text = String::from_utf8(base_report.clone()).unwrap();
    assert!(
        base_text.contains("class="),
        "per-query metadata missing: {base_text}"
    );
    // A run is always planned: the report and the summary say so, ok cells
    // carry the est~actual annotation, and the plan-quality totals close it.
    assert!(base_text.contains("planner: on"), "{base_text}");
    assert!(base_json.contains("\"plan\":true"), "{base_json}");
    assert!(base_text.contains('~'), "{base_text}");
    assert!(base_text.contains("\nplan: "), "{base_text}");
    // …and cached: the header names the budget and hit counters, and the
    // summary's eval object records them — so this whole test pins that
    // the cache's contents (and therefore its stats) are byte-identical at
    // every thread count, not just the cells.
    assert!(base_text.contains("\ncache: on ("), "{base_text}");
    assert!(
        base_json.contains("\"cache\":{\"enabled\":true"),
        "{base_json}"
    );
    for threads in [2usize, 8] {
        let (report, json) = run_at(threads);
        assert_eq!(report, base_report, "eval.txt differs at {threads} threads");
        assert_eq!(json, base_json, "summary eval differs at {threads} threads");
    }
}

#[test]
fn eval_does_not_change_any_generated_artifact_bytes() {
    // With --eval the run materializes the workload once and renders the
    // documents from it (instead of streaming); every generated artifact
    // must stay byte-identical to a plain run of the same plan.
    let plan_eval = eval_plan();
    let mut plan_plain = eval_plan();
    plan_plain.eval = None;
    let opts = RunOptions::with_seed(13).threads(2);
    let mut with_eval = MemorySink::new();
    run(&plan_eval, &opts, &mut with_eval).expect("eval run");
    let mut plain = MemorySink::new();
    run(&plan_plain, &opts, &mut plain).expect("plain run");
    for artifact in [
        Artifact::Graph,
        Artifact::Rules,
        Artifact::Sparql,
        Artifact::Cypher,
        Artifact::Sql,
        Artifact::Datalog,
    ] {
        assert_eq!(
            with_eval.bytes(artifact),
            plain.bytes(artifact),
            "{artifact} bytes changed by --eval"
        );
    }
    assert!(with_eval.bytes(Artifact::EvalReport).is_some());
    assert!(plain.bytes(Artifact::EvalReport).is_none());
}

#[test]
fn in_memory_eval_outcomes_are_thread_count_invariant() {
    let plan = eval_plan();
    let digest = |threads: usize| {
        let arts = run_in_memory(&plan, &RunOptions::with_seed(5).threads(threads))
            .expect("pipeline runs");
        let report = arts.summary.eval.expect("eval matrix ran").report;
        report
            .cells
            .iter()
            .map(|c| (c.query, c.engine, c.outcome.label()))
            .collect::<Vec<_>>()
    };
    let base = digest(1);
    assert_eq!(base.len(), 48, "12 queries x 4 engines");
    assert_eq!(digest(2), base);
    assert_eq!(digest(8), base);
}

#[test]
fn tuple_budget_exhaustion_is_deterministic_across_thread_counts() {
    // A cap of 1 tuple: every non-empty cell fails deterministically with
    // too-large — no clock involved at all.
    let mut plan = eval_plan();
    plan.eval = Some(EvalSpec {
        budget_ms: 0,
        max_tuples: 1,
        ..EvalSpec::default()
    });
    let render_at = |threads: usize| {
        let arts = run_in_memory(&plan, &RunOptions::with_seed(3).threads(threads))
            .expect("pipeline runs");
        let report = arts.summary.eval.expect("eval ran").report;
        assert!(report.totals().too_large > 0, "the cap must bite");
        report.render()
    };
    let base = render_at(1);
    assert_eq!(render_at(2), base);
    assert_eq!(render_at(8), base);
}

#[test]
fn expired_clock_budget_times_out_every_cell_at_every_thread_count() {
    // The wall-clock side of budget exhaustion, pinned without sleeping:
    // a zero timeout expires the per-cell deadline before the first
    // Budget::check_time, so every cell reports timeout — deterministic
    // at any thread count even though a clock is involved.
    let arts = run_in_memory(
        &RunPlan::builder(gmark::core::usecases::bib())
            .nodes(200)
            .workload(WorkloadConfig::new(4).with_seed(9))
            .build()
            .unwrap(),
        &RunOptions::with_seed(9),
    )
    .expect("pipeline runs");
    let graph = arts.graph.expect("graph built");
    let workload = arts.workload.expect("workload built");
    let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
    let ctx = EvalContext::new(&graph);
    let expired = CellBudget {
        timeout: Some(Duration::ZERO),
        max_tuples: usize::MAX,
    };
    let render_at = |threads: usize| {
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
            &queries,
            &EngineKind::ALL,
            &expired,
            &MatrixOptions {
                threads,
                warm_runs: 0,
                ..MatrixOptions::default()
            },
        );
        let totals = report.totals();
        assert_eq!(totals.timeout, totals.cells, "{totals:?}");
        report.render()
    };
    let base = render_at(1);
    assert_eq!(render_at(2), base);
    assert_eq!(render_at(8), base);

    // The deadline semantics behind it, via the injected clock (the
    // deflaked Budget::check_time_at path): the same budget that judges a
    // later instant expired judges the start instant fine.
    let now = Instant::now();
    let budget = Budget::with_timeout(Duration::from_secs(3600));
    assert!(budget.check_time_at(now).is_ok());
    assert_eq!(
        budget.check_time_at(now + Duration::from_secs(7200)),
        Err(EvalError::Timeout)
    );
}

#[test]
fn cli_eval_outputs_are_byte_identical_across_thread_counts() {
    let out_dir = |threads: usize| {
        std::env::temp_dir().join(format!("gmark-evaldet-{}-t{threads}", std::process::id()))
    };
    let run_at = |threads: usize| {
        let dir = out_dir(threads);
        let status = Command::new(env!("CARGO_BIN_EXE_gmark"))
            .args([
                "--config",
                bib_config().to_str().unwrap(),
                "--output",
                dir.to_str().unwrap(),
                "--nodes",
                "250",
                "--seed",
                "11",
                "--eval",
                "--budget-ms",
                "0",
                "--max-tuples",
                "100000",
                "--threads",
                &threads.to_string(),
                "--format",
                "json",
            ])
            .output()
            .expect("spawning the gmark binary");
        assert!(
            status.status.success(),
            "gmark --eval failed at {threads} threads: {}",
            String::from_utf8_lossy(&status.stderr)
        );
        let report = std::fs::read(dir.join("eval.txt")).expect("eval.txt written");
        let summary = std::fs::read(dir.join("summary.json")).expect("summary.json written");
        (report, eval_json_section(&summary))
    };
    let (base_report, base_json) = run_at(1);
    for threads in [2usize, 8] {
        let (report, json) = run_at(threads);
        assert_eq!(report, base_report, "eval.txt differs at {threads} threads");
        assert_eq!(json, base_json, "summary eval differs at {threads} threads");
    }
    for threads in [1usize, 2, 8] {
        let _ = std::fs::remove_dir_all(out_dir(threads));
    }
}
