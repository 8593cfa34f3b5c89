//! Quickstart: the unified pipeline API end to end — build a
//! [`RunPlan`](gmark::run::RunPlan) over the paper's default
//! bibliographical scenario, materialize the graph and a
//! selectivity-controlled workload with
//! [`run_in_memory`](gmark::run::run_in_memory), evaluate each query, and
//! print the first one in all four output syntaxes.
//!
//! ```sh
//! cargo run --release --example quickstart [-- --threads N]
//! ```

use gmark::prelude::*;
use gmark::translate::translate_all;

/// `--threads N` from argv (generation is bit-identical at any count).
fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() -> Result<(), GmarkError> {
    // 1. The Bib schema of Fig. 2: researchers author papers published in
    //    conferences held in cities; papers may be extended to journals.
    let schema = gmark::core::usecases::bib();
    println!(
        "schema: {} node types, {} predicates, {} constraints",
        schema.type_count(),
        schema.predicate_count(),
        schema.constraints().len()
    );

    // 2. One plan: a 10 000-node instance plus a 9-query workload —
    //    3 constant, 3 linear, 3 quadratic binary chain queries (the
    //    paper's Section 6.2 setup, scaled down).
    let plan = RunPlan::builder(schema.clone())
        .nodes(10_000)
        .workload(WorkloadConfig::new(9).with_seed(7))
        .build()?;
    let opts = RunOptions::with_seed(42).threads(threads_from_args());

    // 3. Materialize (the embedding entry point: engines want the graph
    //    itself, not its N-Triples).
    let arts = run_in_memory(&plan, &opts)?;
    let summary = &arts.summary;
    for issue in &summary.consistency {
        println!("consistency check: {issue}");
    }
    let g = summary.graph.as_ref().expect("plan generates a graph");
    let constraints = &g.report.constraints;
    println!(
        "graph: {} nodes, {} edges ({} per constraint: {:?})",
        g.nodes_realized,
        g.report.total_edges,
        constraints.len(),
        constraints.iter().map(|c| c.edges).collect::<Vec<_>>()
    );
    let w = &summary
        .workload
        .as_ref()
        .expect("plan generates a workload")
        .report;
    println!(
        "workload: {} queries ({} selectivity targets missed)",
        w.produced, w.unsatisfied_selectivity
    );

    // 4. Evaluate each query, printing its class and result count.
    let graph = arts.graph.expect("materialized");
    let workload = arts.workload.expect("materialized");
    let ctx = EvalContext::new(&graph);
    for gq in &workload.queries {
        let answers = EngineKind::TripleStore
            .evaluate(&ctx, &gq.query, None, &Budget::default())
            .expect("within budget");
        println!(
            "  [{}] |Q(G)| = {:<8} {}",
            gq.target.map_or("-".into(), |t| t.to_string()),
            answers.count(),
            gq.query.display(&schema)
        );
    }

    // 5. Translate the first query into SPARQL, openCypher, SQL, Datalog.
    let q = &workload.queries[0].query;
    println!("\ntranslations of the first query:");
    for (syntax, text) in translate_all(q, &schema).expect("translates") {
        println!("--- {syntax} ---\n{text}");
    }
    Ok(())
}
