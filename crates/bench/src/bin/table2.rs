//! **Table 2** — selectivity estimation quality (Section 6.2).
//!
//! For each use case (LSN, Bib, WD, + the SP row) and each workload family
//! (Len, Dis, Con, Rec): generate 30 queries (10 per selectivity class),
//! evaluate each on instances of growing size, fit `|Q(G)| = β·|G|^α` by
//! log–log regression, and report the measured `α` mean±sd per class —
//! exactly the table's rows. Failed evaluations (budget exceeded, as the
//! paper saw for WD-Rec linear) are skipped; a class with no surviving
//! measurements prints `-`.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin table2 [--full] [--seed N]
//! ```

use gmark_bench::{build_graph, HarnessOptions, WorkloadKind};
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{EngineKind, EvalContext};
use gmark_stats::{log_log_alpha, Summary};

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.selectivity_sizes();
    println!(
        "Table 2: measured alpha per selectivity class (sizes {:?}{})",
        sizes,
        if opts.full { ", --full" } else { "" }
    );
    println!(
        "{:<10} {:>16} {:>16} {:>16}",
        "", "Constant", "Linear", "Quadratic"
    );

    // The paper's row order: LSN, Bib, WD with all four families, then a
    // single SP row (its original-query encoding).
    let scenarios: Vec<(&str, gmark_core::schema::Schema, Vec<WorkloadKind>)> = vec![
        ("LSN", usecases::lsn(), WorkloadKind::ALL.to_vec()),
        ("Bib", usecases::bib(), WorkloadKind::ALL.to_vec()),
        ("WD", usecases::wd(), WorkloadKind::ALL.to_vec()),
        ("SP", usecases::sp(), vec![WorkloadKind::Con]),
    ];

    for (name, schema, kinds) in scenarios {
        // Pre-generate the graphs once per scenario.
        let graphs: Vec<(u64, gmark_store::Graph)> = sizes
            .iter()
            .map(|&n| (n, build_graph(&schema, n, opts.seed, opts.threads)))
            .collect();
        let contexts: Vec<(u64, EvalContext<'_>)> = graphs
            .iter()
            .map(|(n, graph)| (*n, EvalContext::new(graph)))
            .collect();
        for kind in kinds {
            let workload = kind.workload(&schema, opts.seed ^ 0x7ab1e2);
            let mut per_class: std::collections::BTreeMap<SelectivityClass, Summary> =
                Default::default();
            for gq in &workload.queries {
                let Some(target) = gq.target else { continue };
                let mut observations = Vec::with_capacity(graphs.len());
                let mut failed = false;
                for (n, ctx) in &contexts {
                    match EngineKind::TripleStore.evaluate(ctx, &gq.query, None, &opts.budget()) {
                        Ok(answers) => observations.push((*n, answers.count())),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                if failed || observations.len() < 2 {
                    continue;
                }
                if let Some((alpha, _beta)) = log_log_alpha(&observations) {
                    per_class.entry(target).or_default().push(alpha);
                }
            }
            let cell = |class: SelectivityClass| -> String {
                per_class
                    .get(&class)
                    .filter(|s| s.count() > 0)
                    .map(|s| s.paper_entry())
                    .unwrap_or_else(|| "-".to_owned())
            };
            let label = if kind == WorkloadKind::Con && name == "SP" {
                name.to_owned()
            } else {
                format!("{name}-{}", kind.name())
            };
            println!(
                "{:<10} {:>16} {:>16} {:>16}",
                label,
                cell(SelectivityClass::Constant),
                cell(SelectivityClass::Linear),
                cell(SelectivityClass::Quadratic),
            );
        }
    }
    println!(
        "\npaper reference (Table 2): constant ≈ 0.0–0.2, linear ≈ 0.9–1.5, \
         quadratic ≈ 1.4–2.05 depending on scenario; Bib quadratic is \
         sub-2 (1.4–1.6) in the paper as well."
    );
}
