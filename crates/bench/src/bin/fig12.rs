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
//! Runs through the shared `Sweep`: per (family, graph size), one matrix
//! on a fresh context covers every (query × engine) cell; panel averages
//! are folded from the cells.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin fig12 [--full]
//! ```

use gmark_bench::{HarnessOptions, Sweep, WorkloadKind};
use gmark_core::query::Query;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{CellOutcome, EngineKind};
use gmark_stats::Summary;

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.engine_sizes();
    let schema = usecases::bib();
    let sweep = Sweep::new(&schema, &sizes, opts.seed, opts.threads);

    // Evaluate every (family × size) matrix once, then print the three
    // class panels from its cells. A family's rows are its queries class
    // by class, each row's class recorded beside it.
    let mut runs = Vec::new();
    for kind in WorkloadKind::NON_RECURSIVE {
        let workload = kind.workload(&schema, opts.seed ^ 0xF12);
        let (classes, queries): (Vec<SelectivityClass>, Vec<&Query>) = SelectivityClass::ALL
            .iter()
            .flat_map(|&class| workload.of_class(class).map(move |gq| (class, &gq.query)))
            .unzip();
        let budget = opts.cell_budget();
        let reports = sweep.matrices(&queries, &EngineKind::ALL, &budget, &opts.matrix_options());
        runs.push((kind, classes, reports));
    }

    println!("Fig. 12: average query time per (workload, engine) cell, Bib scenario");
    for class in SelectivityClass::ALL {
        println!("\n--- panel: {class} queries ---");
        let header: Vec<String> = sizes.iter().map(|n| format!("{}K", n / 1000)).collect();
        gmark_bench::print_row("workload/engine", &header, 12);
        for (family, classes, reports) in &runs {
            for kind in EngineKind::ALL {
                let mut cells = Vec::new();
                for (_, report) in reports {
                    let mut summary = Summary::new();
                    let mut failures = 0;
                    for row in (0..classes.len()).filter(|&row| classes[row] == class) {
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
                gmark_bench::print_row(&format!("{}/{}", family.name(), kind.name()), &cells, 12);
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
