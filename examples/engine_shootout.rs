//! A miniature of the paper's Section 7 experiment: run a diverse workload
//! against all four evaluation engines and print the timing grid
//! (Fig. 12 in small).
//!
//! Built on the evaluation harness: per graph size one shared
//! `EvalContext` feeds every engine, and `evaluate_matrix_with_schema`
//! fans the (engine × query) cells over `--threads` workers with a fresh
//! per-cell budget — the same machinery behind the CLI's `--eval`, here
//! given no schema, so the planner runs on graph statistics alone.
//!
//! ```sh
//! cargo run --release --example engine_shootout [-- --threads N]
//! ```

use gmark::prelude::*;
use std::time::Duration;

/// `--threads N` from argv (generation and the matrix's deterministic
/// content are bit-identical at any count).
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
    let sizes = [1_000u64, 2_000, 4_000];
    let threads = threads_from_args();
    let opts = RunOptions::with_seed(17).threads(threads);

    let mut wcfg = WorkloadConfig::new(9).with_seed(3);
    wcfg.query_size.conjuncts = (1, 3);
    wcfg.query_size.disjuncts = (1, 2);
    let workload = run_in_memory(
        &RunPlan::builder(schema.clone())
            .workload(wcfg)
            .queries_only()
            .build()
            .expect("plan builds"),
        &RunOptions::default(),
    )
    .expect("workload generates")
    .workload
    .expect("plan generates a workload");

    let budget = CellBudget {
        timeout: Some(Duration::from_secs(10)),
        max_tuples: 20_000_000,
    };
    let matrix_opts = MatrixOptions {
        threads,
        warm_runs: 0,
        ..MatrixOptions::default()
    };

    println!(
        "{:<12} {:>6}  {:>14} {:>14} {:>14} {:>14}",
        "class", "nodes", "P/relational", "G/navigational", "S/triplestore", "D/datalog"
    );
    for &n in &sizes {
        let plan = RunPlan::builder(schema.clone())
            .nodes(n)
            .build()
            .expect("plan builds");
        let graph = run_in_memory(&plan, &opts)
            .expect("graph generates")
            .graph
            .expect("plan generates a graph");
        let ctx = EvalContext::new(&graph);
        let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
            &queries,
            &EngineKind::ALL,
            &budget,
            &matrix_opts,
        );

        for class in SelectivityClass::ALL {
            let rows: Vec<usize> = workload
                .queries
                .iter()
                .enumerate()
                .filter(|(_, gq)| gq.target == Some(class))
                .map(|(i, _)| i)
                .collect();
            let mut line = format!("{:<12} {:>6}", class.to_string(), n);
            for kind in EngineKind::ALL {
                let mut total = Duration::ZERO;
                let mut failed = false;
                for &row in &rows {
                    let cell = report.cell(row, kind).expect("matrix covers every cell");
                    match &cell.outcome {
                        CellOutcome::Answers { .. } => {
                            total += Duration::from_secs_f64(cell.seconds)
                        }
                        CellOutcome::Failed(_) => failed = true,
                    }
                }
                if failed {
                    line.push_str(&format!(" {:>14}", "-"));
                } else {
                    line.push_str(&format!(" {:>13.1?}", total));
                }
            }
            println!("{line}");
        }
    }
    println!(
        "\n(per row: total time over the class's 3 queries; '-' marks a \
         budget failure, the paper's Table 4 phenomenon)"
    );
}
