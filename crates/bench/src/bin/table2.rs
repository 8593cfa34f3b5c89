//! **Table 2** — selectivity estimation quality (Section 6.2).
//!
//! For each use case (LSN, Bib, WD, + the SP row) and each workload family
//! (Len, Dis, Con, Rec): generate 30 queries (10 per selectivity class),
//! evaluate each on instances of growing size, fit `|Q(G)| = β·|G|^α` by
//! log–log regression, and report the measured `α` mean±sd per class —
//! exactly the table's rows. A query whose evaluation fails at any size
//! (budget exceeded, as the paper saw for WD-Rec linear) is dropped from
//! its class, and each row ends with the numbers dropped as constant/linear/quadratic; a class
//! with no surviving measurements prints `-`.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin table2 [--full] [--seed N]
//! ```
//!
//! Every query runs on the bare triple-store engine `S`: no planner, no
//! sub-expression cache, no warm runs, one fresh cell budget per
//! evaluation.

use gmark_bench::{row_counts, HarnessOptions, Sweep, WorkloadKind};
use gmark_core::query::Query;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{EngineKind, MatrixOptions};
use gmark_stats::{log_log_alpha, Summary};

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.selectivity_sizes();
    let bare = MatrixOptions {
        plan: false,
        cache_mb: 0,
        warm_runs: 0,
        threads: opts.threads,
    };
    println!(
        "Table 2: measured alpha per selectivity class (sizes {:?}{})",
        sizes,
        if opts.full { ", --full" } else { "" }
    );
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>9}",
        "", "Constant", "Linear", "Quadratic", "dropped"
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
        let sweep = Sweep::new(&schema, &sizes, opts.seed, opts.threads);
        for kind in kinds {
            let workload = kind.workload(&schema, opts.seed ^ 0x7ab1e2);
            let (classes, queries): (Vec<SelectivityClass>, Vec<&Query>) = workload
                .queries
                .iter()
                .filter_map(|gq| Some((gq.target?, &gq.query)))
                .unzip();
            let matrices = sweep.matrices(
                &queries,
                &[EngineKind::TripleStore],
                &opts.cell_budget(),
                &bare,
            );
            // Per class, in `SelectivityClass::ALL` order: the measured α
            // and the number of queries dropped.
            let mut alphas: [Summary; 3] = Default::default();
            let mut dropped = [0usize; 3];
            for (row, class) in classes.into_iter().enumerate() {
                match row_counts(&matrices, row, EngineKind::TripleStore)
                    .ok()
                    .and_then(|observations| log_log_alpha(&observations))
                {
                    Some((alpha, _beta)) => alphas[class as usize].push(alpha),
                    None => dropped[class as usize] += 1,
                }
            }
            let [constant, linear, quadratic] = alphas.map(|alphas| match alphas.count() {
                0 => "-".to_owned(),
                _ => alphas.paper_entry(),
            });
            let label = if kind == WorkloadKind::Con && name == "SP" {
                name.to_owned()
            } else {
                format!("{name}-{}", kind.name())
            };
            println!(
                "{label:<10} {constant:>16} {linear:>16} {quadratic:>16} {:>9}",
                format!("{}/{}/{}", dropped[0], dropped[1], dropped[2]),
            );
        }
    }
    println!(
        "\npaper reference (Table 2): constant ≈ 0.0–0.2, linear ≈ 0.9–1.5, \
         quadratic ≈ 1.4–2.05 depending on scenario; Bib quadratic is \
         sub-2 (1.4–1.6) in the paper as well."
    );
}
