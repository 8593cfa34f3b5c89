//! **Table 4** — recursive-query execution across engines (Section 7.2).
//!
//! The paper evaluates two recursive queries — one of constant and one of
//! quadratic selectivity — on graphs of 2K–16K nodes against the four
//! systems, reporting times and `-` for failures (timeout / manual
//! termination). We regenerate the experiment with the four in-repo
//! engines: recursive queries of the two classes are drawn from the Rec
//! workload family on the Bib scenario, and each engine runs under the
//! measurement budget; exhausted budgets print `-` exactly like the
//! paper's table.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin table4 [--full]
//! ```
//!
//! Runs through the shared [`Sweep`]: per graph size, one (engine ×
//! query) matrix with a fresh per-cell budget and the Section 7.1
//! warm-run protocol.

use gmark_bench::{fmt_matrix_cell, HarnessOptions, Sweep, WorkloadKind};
use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Symbol, Var};
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::EngineKind;

/// Picks the first *recursive* query of the given class from the Rec
/// workload (the paper's "small case analysis" selected its two queries
/// the same way: recursive, one per class, measurable somewhere).
fn pick_query(schema: &gmark_core::schema::Schema, class: SelectivityClass, seed: u64) -> Query {
    let w = WorkloadKind::Rec.workload(schema, seed);
    w.queries
        .iter()
        .find(|gq| gq.target == Some(class) && gq.query.is_recursive())
        .map(|gq| gq.query.clone())
        .expect("Rec workload contains recursive queries of every class")
}

/// The paper's canonical quadratic recursive query (Section 5.2.1): the
/// transitive closure of the power-law `knows` predicate, whose
/// materialization is what breaks `P` and `S` in Table 4.
fn knows_closure(schema: &gmark_core::schema::Schema) -> Query {
    let knows = Symbol::forward(schema.predicate_by_name("knows").expect("LSN has knows"));
    Query::single(Rule {
        head: vec![Var(0), Var(1)],
        body: vec![Conjunct {
            src: Var(0),
            expr: RegularExpr::star(vec![PathExpr(vec![knows])]),
            trg: Var(1),
        }],
    })
    .expect("well-formed")
}

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.engine_sizes();
    let schema = usecases::lsn();

    let q1 = pick_query(&schema, SelectivityClass::Constant, opts.seed);
    let q2 = knows_closure(&schema);
    println!("Table 4: recursive queries, execution time per engine and size");
    println!("Query 1 (constant):  {}", q1.display(&schema));
    println!("Query 2 (quadratic): {}", q2.display(&schema));
    println!();

    let reports = Sweep::new(&schema, &sizes, opts.seed, opts.threads).matrices(
        &[&q1, &q2],
        &EngineKind::ALL,
        &opts.cell_budget(),
        &opts.matrix_options(),
    );

    let header: Vec<String> = {
        let mut h: Vec<String> = sizes.iter().map(|n| format!("Q1 {}K", n / 1000)).collect();
        h.extend(sizes.iter().map(|n| format!("Q2 {}K", n / 1000)));
        h
    };
    gmark_bench::print_row("engine", &header, 10);

    for kind in EngineKind::ALL {
        let mut cells = Vec::new();
        for q in 0..2 {
            for (_, report) in &reports {
                let cell = report.cell(q, kind).expect("matrix covers every cell");
                cells.push(fmt_matrix_cell(cell));
            }
        }
        gmark_bench::print_row(kind.name(), &cells, 10);
    }
    println!(
        "\npaper reference (Table 4): P finished Q1 only at 2K/4K (3 400 s / \
         72 113 s) and failed beyond; S answered Q1 only at 2K (6 621 s); G \
         failed everywhere (degraded openCypher semantics — our G answers \
         the *degraded* query instead); D was the only engine to finish \
         everything (450–2 095 s). Expect the same qualitative pattern: \
         D completes all cells, P/S lose cells as size grows, G's numbers \
         are not comparable because it evaluates the degraded query."
    );
}
