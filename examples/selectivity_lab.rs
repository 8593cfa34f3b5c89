//! A tour of the selectivity machinery of Section 5.2: base classes,
//! the Fig. 7 algebra, the schema graph / distance matrix / selectivity
//! graph, and an empirical α measurement closing the loop.
//!
//! ```sh
//! cargo run --release --example selectivity_lab [-- --threads N]
//! ```

use gmark::core::selectivity::graph::{SchemaGraph, SelectivityGraph};
use gmark::core::selectivity::{Card, Estimator, SelOp, SelTriple};
use gmark::prelude::*;
use gmark::stats::log_log_alpha;

/// `--threads N` from argv (generation is bit-identical at any count).
fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() {
    let schema = gmark::core::usecases::bib();
    let est = Estimator::new(&schema);

    // Base classes of each predicate between its endpoint types.
    println!("base selectivity classes:");
    for c in schema.constraints() {
        let sym = Symbol::forward(c.predicate);
        if let Some(t) = est.symbol_class(c.source, c.target, sym) {
            println!(
                "  sel({}, {}, {}) = {t}   (inverse: {})",
                schema.type_name(c.source),
                schema.predicate_name(c.predicate),
                schema.type_name(c.target),
                t.inverse()
            );
        }
    }

    // The Fig. 7 algebra at work: the quadratic pattern > · <.
    let greater = SelTriple::new(Card::Many, SelOp::Greater, Card::Many);
    let less = SelTriple::new(Card::Many, SelOp::Less, Card::Many);
    println!(
        "\nFig. 7 concatenation: {greater} · {less} = {}",
        greater.concat(less)
    );
    println!(
        "Fig. 7 concatenation: {less} · {greater} = {}",
        less.concat(greater)
    );

    // The schema graph G_S and selectivity graph G_sel (Section 5.2.3).
    let gs = SchemaGraph::build(&schema);
    let valid = gs.valid_nodes().count();
    let edges: usize = gs.valid_nodes().map(|n| gs.successors(n).len()).sum();
    println!("\nG_S: {valid} nodes, {edges} labeled edges");
    let d = gs.distance_matrix();
    let finite: usize = d.iter().flatten().filter(|e| e.is_some()).count();
    println!("distance matrix: {finite} finite entries");
    let gsel = SelectivityGraph::build(&gs, 1, 4);
    let gsel_edges: usize = gs.valid_nodes().map(|n| gsel.successors(n).len()).sum();
    println!("G_sel (lengths 1..=4): {gsel_edges} edges");

    // Close the loop: measure α of one query per class on real instances.
    // Queries and graphs both come from the unified pipeline API.
    let workload = run_in_memory(
        &RunPlan::builder(schema.clone())
            .workload(WorkloadConfig::new(3).with_seed(12))
            .queries_only()
            .build()
            .expect("plan builds"),
        &RunOptions::default(),
    )
    .expect("workload generates")
    .workload
    .expect("plan generates a workload");
    // One graph per size, shared by every query.
    let sizes = [1_000u64, 2_000, 4_000, 8_000];
    let graphs: Vec<_> = sizes
        .iter()
        .map(|&n| {
            let plan = RunPlan::builder(schema.clone())
                .nodes(n)
                .build()
                .expect("plan builds");
            let opts = RunOptions::with_seed(8).threads(threads_from_args());
            run_in_memory(&plan, &opts)
                .expect("graph generates")
                .graph
                .expect("plan generates a graph")
        })
        .collect();
    println!("\nempirical α (|Q(G)| = β·|G|^α, Section 6.2):");
    for gq in &workload.queries {
        let target = gq.target.map_or("-".into(), |t| t.to_string());
        let observations: Result<Vec<(u64, u64)>, (u64, EvalError)> = sizes
            .iter()
            .zip(&graphs)
            .map(|(&n, graph)| {
                EngineKind::TripleStore
                    .evaluate(
                        &EvalContext::new(graph),
                        &gq.query,
                        None,
                        &Budget::default(),
                    )
                    .map(|a| (n, a.count()))
                    .map_err(|e| (n, e))
            })
            .collect();
        match observations {
            Ok(observations) => {
                let (alpha, beta) = log_log_alpha(&observations).unwrap_or((f64::NAN, f64::NAN));
                println!(
                    "  target {target:<10} measured α = {alpha:>5.2} (β = {beta:.2e})  {}",
                    gq.query.display(&schema)
                );
            }
            Err((n, e)) => println!(
                "  target {target:<10} not measured: {e} at {n} nodes  {}",
                gq.query.display(&schema)
            ),
        }
    }
}
