//! **Fig. 11** — estimated vs theoretical selectivities on Bib
//! (Section 6.2).
//!
//! For each workload family (Len, Con, Dis, Rec — the figure's four
//! panels) the paper plots, for one query per class (Q1 constant, Q2
//! linear, Q3 quadratic), the measured result counts `|E|` against the
//! theoretical curve `|Q| = β·n^α` over graph sizes 2K–32K, showing the
//! two closely overlap. This binary prints both series side by side plus
//! the relative error, per panel.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin fig11 [--full]
//! ```

use gmark_bench::{build_graph, HarnessOptions, WorkloadKind};
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{
    evaluate_matrix_with_schema, CellOutcome, EngineKind, EvalContext, MatrixOptions,
};
use gmark_stats::log_log_alpha;

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.selectivity_sizes();
    let schema = usecases::bib();
    let graphs: Vec<(u64, gmark_store::Graph)> = sizes
        .iter()
        .map(|&n| (n, build_graph(&schema, n, opts.seed, opts.threads)))
        .collect();
    // One shared context per graph size, reused across all four panels —
    // this experiment only needs counts, so no warm runs.
    let contexts: Vec<EvalContext<'_>> = graphs
        .iter()
        .map(|(_, graph)| EvalContext::new(graph))
        .collect();
    let matrix_opts = MatrixOptions {
        threads: opts.threads,
        warm_runs: 0,
        ..MatrixOptions::default()
    };

    println!("Fig. 11: measured |E| vs fitted theoretical |Q| = beta*n^alpha (Bib)");
    for kind in [
        WorkloadKind::Len,
        WorkloadKind::Con,
        WorkloadKind::Dis,
        WorkloadKind::Rec,
    ] {
        println!("\n--- panel Bib-{} ---", kind.name());
        let workload = kind.workload(&schema, opts.seed ^ 0xF16);
        for (qi, class) in SelectivityClass::ALL.iter().enumerate() {
            let Some(gq) = workload.of_class(*class).next() else {
                println!("Q{} ({class}): no query generated", qi + 1);
                continue;
            };
            let mut observations: Vec<(u64, u64)> = Vec::new();
            let mut failed = false;
            for ((n, _), ctx) in graphs.iter().zip(&contexts) {
                let report = evaluate_matrix_with_schema(
                    ctx,
                    None,
                    &[&gq.query],
                    &[EngineKind::TripleStore],
                    &opts.cell_budget(),
                    &matrix_opts,
                );
                match &report.cells[0].outcome {
                    CellOutcome::Answers { count, .. } => observations.push((*n, *count)),
                    CellOutcome::Failed(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed || observations.len() < 2 {
                println!(
                    "Q{} ({class}): evaluation exceeded budget (the paper hit \
                     the same wall on recursive workloads)",
                    qi + 1
                );
                continue;
            }
            let (alpha, beta) = log_log_alpha(&observations).expect("≥2 points");
            print!("Q{} ({class}) alpha={alpha:.2}:", qi + 1);
            let mut max_rel_err: f64 = 0.0;
            for &(n, measured) in &observations {
                let theoretical = beta * (n as f64).powf(alpha);
                let rel = if theoretical > 0.0 {
                    (measured as f64 - theoretical).abs() / theoretical.max(1.0)
                } else {
                    0.0
                };
                max_rel_err = max_rel_err.max(rel);
                print!("  {n}:|E|={measured}/|Q|={theoretical:.0}");
            }
            println!(
                "  (max rel. deviation from fit: {:.0}%)",
                max_rel_err * 100.0
            );
        }
    }
    println!(
        "\npaper reference (Fig. 11): the |E| and |Q| curves 'closely \
         overlap in all the cases'; quadratic counts dominate, linear grows \
         ~n, constant stays flat. The reproduced claim is the per-class \
         ordering and the tightness of the power-law fit."
    );
}
