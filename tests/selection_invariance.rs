//! A cell's outcome is a function of its own inputs: the graph, the query,
//! the engine and the caps. It must not depend on which *other* engines
//! are selected, nor on the sub-expression cache's byte budget.
//!
//! Both used to leak into the planner. Its exact cardinalities came from
//! the admitted cache entries, so a run without a cache reader (`D`
//! alone), a cache that rejected a candidate for bytes, or no cache at all
//! planned from graph statistics instead, and a different conjunct order
//! can flip an outcome between `ok` and `too-large`. The invariant: for
//! each engine `E`, the `E` column of a `P,G,S,D` matrix equals the matrix
//! of `E` alone, and each equals itself at `cache_mb` 0, 1 and 64 —
//! outcomes, counts and estimates alike.
//!
//! The instance is `examples/configs/bib-mixed.xml` at 2 000 nodes under a
//! 50 000-tuple cap. Seeds 6 and 8 are the named regressions: at seed 6,
//! `D` alone reported q26 too-large where `P,D` answered it; at seed 8,
//! q22 and q26 flipped in opposite directions.

use gmark::prelude::*;

/// The mixed Bib instance at one seed: schema, graph and workload.
fn instance(seed: u64) -> (Schema, Graph, Workload) {
    let config =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/bib-mixed.xml");
    let plan = RunPlan::from_config_file(config)
        .expect("bib-mixed.xml parses")
        .with_nodes(2000);
    let arts = run_in_memory(&plan, &RunOptions::with_seed(seed)).expect("the instance generates");
    let graph = arts.graph.expect("a graph");
    let workload = arts.workload.expect("a workload");
    (plan.graph.schema, graph, workload)
}

/// One cell as `(query, engine) → (outcome, estimate)`.
type Cell = ((usize, EngineKind), (CellOutcome, Option<u64>));

/// Every cell of a report.
fn cells(report: &EvalReport) -> Vec<Cell> {
    report
        .cells
        .iter()
        .map(|c| ((c.query, c.engine), (c.outcome.clone(), c.estimate)))
        .collect()
}

#[test]
fn each_engine_column_is_the_same_whatever_else_is_selected_and_whatever_the_cache_holds() {
    let budget = CellBudget {
        timeout: None,
        max_tuples: 50_000,
    };
    for seed in [6, 8] {
        let (schema, graph, workload) = instance(seed);
        let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
        let matrix = |engines: &[EngineKind], cache_mb: usize| {
            let options = MatrixOptions {
                threads: 2,
                cache_mb,
                ..MatrixOptions::default()
            };
            let ctx = EvalContext::new(&graph);
            evaluate_matrix_with_schema(&ctx, Some(&schema), &queries, engines, &budget, &options)
        };
        let full = cells(&matrix(&EngineKind::ALL, MatrixOptions::DEFAULT_CACHE_MB));
        let too_large = full
            .iter()
            .filter(|(_, (outcome, _))| {
                matches!(outcome, CellOutcome::Failed(EvalError::TooLarge(_)))
            })
            .count();
        assert!(too_large > 0, "seed {seed}: the cap must bite");
        for cache_mb in [0, 1, MatrixOptions::DEFAULT_CACHE_MB] {
            assert_eq!(
                cells(&matrix(&EngineKind::ALL, cache_mb)),
                full,
                "seed {seed}, P,G,S,D, cache_mb {cache_mb}"
            );
            for kind in EngineKind::ALL {
                let column: Vec<_> = full
                    .iter()
                    .filter(|((_, e), _)| *e == kind)
                    .cloned()
                    .collect();
                assert_eq!(
                    cells(&matrix(&[kind], cache_mb)),
                    column,
                    "seed {seed}, {kind} alone, cache_mb {cache_mb}"
                );
            }
        }
    }
}
