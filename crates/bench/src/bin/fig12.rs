//! **Fig. 12** — engine comparison on non-recursive workloads
//! (Section 7.2).
//!
//! Three panels — (a) constant, (b) linear, (c) quadratic queries — each a
//! grid of (workload family Len/Dis/Con × engine) × graph size, showing
//! the per-class average execution time under the Section 7.1 protocol
//! (cold run discarded; warm runs averaged after dropping extremes; the
//! two most deviant query averages per cell discarded, here approximated
//! by skipping failed queries).
//!
//! Runs on the shared evaluation harness: per (family, graph size), one
//! `EvalContext` and one `evaluate_matrix_with_schema` call cover every
//! (query × engine) cell; panel averages are folded from the cells.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin fig12 [--full]
//! ```

use gmark_bench::{build_graph, HarnessOptions, WorkloadKind};
use gmark_core::query::Query;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{
    evaluate_matrix_with_schema, CellOutcome, EngineKind, EvalContext, EvalReport,
};
use gmark_stats::Summary;

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.engine_sizes();
    let schema = usecases::bib();
    let graphs: Vec<(u64, gmark_store::Graph)> = sizes
        .iter()
        .map(|&n| (n, build_graph(&schema, n, opts.seed, opts.threads)))
        .collect();
    // One shared context per graph size, reused by every workload family
    // — the per-graph indexes (relations, EDB) are built once, not once
    // per family.
    let contexts: Vec<EvalContext<'_>> = graphs
        .iter()
        .map(|(_, graph)| EvalContext::new(graph))
        .collect();

    // Evaluate every (family × size) matrix once, then print the three
    // class panels from the cached cells. Queries are laid out per family
    // as [class0 queries..., class1 queries..., class2 queries...] with
    // recorded (class, row range) offsets.
    struct FamilyRun {
        kind: WorkloadKind,
        /// Per class: the matrix row indices of its queries.
        class_rows: Vec<(SelectivityClass, Vec<usize>)>,
        /// One report per graph size.
        reports: Vec<EvalReport>,
    }

    let runs: Vec<FamilyRun> = WorkloadKind::NON_RECURSIVE
        .iter()
        .map(|&kind| {
            let workload = kind.workload(&schema, opts.seed ^ 0xF12);
            let mut queries: Vec<&Query> = Vec::new();
            let mut class_rows = Vec::new();
            for class in SelectivityClass::ALL {
                let start = queries.len();
                queries.extend(workload.of_class(class).map(|gq| &gq.query));
                class_rows.push((class, (start..queries.len()).collect()));
            }
            let reports = contexts
                .iter()
                .map(|ctx| {
                    evaluate_matrix_with_schema(
                        ctx,
                        None,
                        &queries,
                        &EngineKind::ALL,
                        &opts.cell_budget(),
                        &opts.matrix_options(),
                    )
                })
                .collect();
            FamilyRun {
                kind,
                class_rows,
                reports,
            }
        })
        .collect();

    println!("Fig. 12: average query time per (workload, engine) cell, Bib scenario");
    for class in SelectivityClass::ALL {
        println!("\n--- panel: {class} queries ---");
        let header: Vec<String> = sizes.iter().map(|n| format!("{}K", n / 1000)).collect();
        gmark_bench::print_row("workload/engine", &header, 12);
        for run in &runs {
            let rows = &run
                .class_rows
                .iter()
                .find(|(c, _)| *c == class)
                .expect("all classes recorded")
                .1;
            for kind in EngineKind::ALL {
                let mut cells = Vec::new();
                for report in &run.reports {
                    let mut summary = Summary::new();
                    let mut failures = 0;
                    for &row in rows.iter() {
                        let cell = report.cell(row, kind).expect("matrix covers every cell");
                        match &cell.outcome {
                            CellOutcome::Answers { .. } => summary.push(cell.seconds),
                            CellOutcome::Failed(_) => failures += 1,
                        }
                    }
                    if summary.count() == 0 {
                        cells.push("-".to_owned());
                    } else if failures > 0 {
                        cells.push(format!("{:.3}s*", summary.mean()));
                    } else {
                        cells.push(format!("{:.3}s", summary.mean()));
                    }
                }
                gmark_bench::print_row(&format!("{}/{}", run.kind.name(), kind.name()), &cells, 12);
            }
        }
    }
    println!(
        "\n('*' marks cells where some of the class's queries exceeded the \
         budget and were skipped.)\n\
         paper reference (Fig. 12): constant and linear times are the same \
         order of magnitude while quadratic queries typically run an order \
         of magnitude slower; P leads on constant and on small linear \
         instances, S overtakes on large linear and on quadratic workloads; \
         D blurs the linear/quadratic gap. Our engines are reimplementations \
         — per-engine winners may shift, the class-wise ordering and the \
         P-vs-S crossover shape are the reproduced claims."
    );
}
