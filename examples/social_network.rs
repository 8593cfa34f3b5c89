//! Recursive queries on the LDBC-Social-Network use case (`LSN`).
//!
//! Demonstrates the paper's flagship recursion example — the transitive
//! closure of `knows` is a *quadratic* query because the social graph's
//! power-law in/out distributions create hub users (Section 5.2.1) — and
//! the openCypher degradation phenomenon of Section 7.1. Generation runs
//! through the unified pipeline API ([`run_in_memory`]).
//!
//! ```sh
//! cargo run --release --example social_network [-- --threads N]
//! ```

use gmark::prelude::*;
use std::time::Duration;

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
    let schema = gmark::core::usecases::lsn();

    // One plan carries both halves: the 4 000-node instance and the Rec
    // workload of the paper's recursion experiments.
    let mut wcfg = WorkloadConfig::new(9).with_seed(5);
    wcfg.recursion_probability = 0.5;
    wcfg.query_size.conjuncts = (1, 2);
    let plan = RunPlan::builder(schema.clone())
        .nodes(4_000)
        .workload(wcfg)
        .build()?;
    let arts = run_in_memory(
        &plan,
        &RunOptions::with_seed(99).threads(threads_from_args()),
    )?;
    let graph = arts.graph.expect("plan generates a graph");
    println!(
        "LSN instance: {} nodes, {} edges",
        graph.node_count(),
        arts.summary.graph.as_ref().unwrap().report.total_edges
    );

    let knows = schema.predicate_by_name("knows").expect("LSN has knows");
    let k = Symbol::forward(knows);

    // (?x, knows·knows⁻)* , ?y): the co-acquaintance closure — the paper's
    // (authors·authors⁻)* example transposed to the social network.
    let closure = Query::single(Rule {
        head: vec![Var(0), Var(1)],
        body: vec![Conjunct {
            src: Var(0),
            expr: RegularExpr::star(vec![PathExpr(vec![k, k.flipped()])]),
            trg: Var(1),
        }],
    })
    .unwrap();

    // Static, schema-only estimate first (no graph needed!).
    let estimator = gmark::core::selectivity::Estimator::new(&schema);
    println!(
        "schema-driven estimate for (knows·knows⁻)*: α̂ = {:?}",
        estimator.alpha(&closure)
    );

    // Evaluate on the instance with each engine under a 20 s budget.
    println!("\nengine comparison on the recursive closure:");
    let ctx = EvalContext::new(&graph);
    for engine in EngineKind::ALL {
        let budget = Budget::with_timeout(Duration::from_secs(20));
        let start = std::time::Instant::now();
        match engine.evaluate(&ctx, &closure, None, &budget) {
            Ok(answers) => println!(
                "  {:<16} {:>10} answers in {:>8.2?}",
                engine.name(),
                answers.count(),
                start.elapsed()
            ),
            Err(e) => println!("  {:<16} FAILED: {e}", engine.name()),
        }
    }
    println!(
        "(the navigational engine evaluates the degraded openCypher form — \
         knows* without the inverse — so its answer set differs, exactly as \
         the paper observes for system G)"
    );

    // The Rec workload the plan generated alongside the graph.
    let workload = arts.workload.expect("plan generates a workload");
    println!("\ngenerated Rec workload:");
    for gq in &workload.queries {
        println!(
            "  [{}]{} {}",
            gq.target.map_or("-".into(), |t| t.to_string()),
            if gq.query.is_recursive() {
                " (recursive)"
            } else {
                ""
            },
            gq.query.display(&schema)
        );
    }
    Ok(())
}
