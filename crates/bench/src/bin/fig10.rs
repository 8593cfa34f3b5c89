//! **Fig. 10** — gMark-generated queries reproduce the runtime *shape* of
//! a fixed benchmark's original query load (Section 6.1, "Discussion on
//! the query loads").
//!
//! The paper takes three SP²Bench queries (one per selectivity class) and
//! three gMark-generated queries "of the same shape, size and selectivity"
//! on the SP encoding, and shows both sets exhibit the same asymptotic
//! runtime behavior per class. SP²Bench's binaries are not available
//! offline, so the "org" series here is a set of three
//! *hand-written, fixed* queries that mirror the published SP²Bench
//! queries' access patterns on the SP schema, while the "gMark" series is
//! drawn from the generated workload — the comparison the figure makes.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin fig10 [--full]
//! ```

use gmark_bench::{build_graph, fmt_matrix_cell_with_count, HarnessOptions, WorkloadKind};
use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Symbol, Var};
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_engines::{evaluate_matrix, EngineKind, EvalContext};

/// Hand-written fixed queries mirroring SP²Bench's Q-set character:
/// a journal–journal lookup (constant), an author-of-article listing
/// (linear), and a co-citation pattern (quadratic).
fn org_queries(schema: &gmark_core::schema::Schema) -> Vec<(SelectivityClass, Query)> {
    let creator = Symbol::forward(schema.predicate_by_name("creator").unwrap());
    let part_of = Symbol::forward(schema.predicate_by_name("partOf").unwrap());
    let cites = Symbol::forward(schema.predicate_by_name("cites").unwrap());
    let chain = |exprs: Vec<RegularExpr>| {
        let n = exprs.len() as u32;
        Query::single(Rule {
            head: vec![Var(0), Var(n)],
            body: exprs
                .into_iter()
                .enumerate()
                .map(|(i, expr)| Conjunct {
                    src: Var(i as u32),
                    expr,
                    trg: Var(i as u32 + 1),
                })
                .collect(),
        })
        .unwrap()
    };
    vec![
        // SP²Bench Q5-like: journals linked through shared articles —
        // both endpoints are the fixed journal type.
        (
            SelectivityClass::Constant,
            chain(vec![RegularExpr::path(PathExpr(vec![
                part_of.flipped(),
                part_of,
            ]))]),
        ),
        // SP²Bench Q2-like: (article, author) pairs.
        (
            SelectivityClass::Linear,
            chain(vec![RegularExpr::symbol(creator)]),
        ),
        // SP²Bench Q4-like: co-citation — articles citing a shared article
        // through prolific citers (a Cartesian-product chokepoint).
        (
            SelectivityClass::Quadratic,
            chain(vec![RegularExpr::path(PathExpr(vec![
                cites.flipped(),
                cites,
            ]))]),
        ),
    ]
}

fn main() {
    let opts = HarnessOptions::from_args();
    let sizes = opts.engine_sizes();
    let schema = usecases::sp();

    // The gMark series: one generated query per class of matching shape
    // and size (single-conjunct chains).
    let workload = WorkloadKind::Len.workload(&schema, opts.seed);
    let gmark_queries: Vec<(SelectivityClass, Query)> = SelectivityClass::ALL
        .iter()
        .map(|&class| {
            let q = workload
                .of_class(class)
                .map(|gq| gq.query.clone())
                .next()
                .expect("class present in workload");
            (class, q)
        })
        .collect();

    println!("Fig. 10: per-class runtime shape, fixed 'org'-style vs generated gMark queries (SP)");
    let header: Vec<String> = sizes.iter().map(|n| format!("{}K", n / 1000)).collect();
    gmark_bench::print_row("series", &header, 12);

    let graphs: Vec<gmark_store::Graph> = sizes
        .iter()
        .map(|&n| build_graph(&schema, n, opts.seed, opts.threads))
        .collect();

    // Both series through the shared harness: per graph, one context and
    // one matrix over all six queries on the triple-store engine.
    let org = org_queries(&schema);
    let series: Vec<(&str, &[(SelectivityClass, Query)])> =
        vec![("org", &org), ("gMark", &gmark_queries)];
    let queries: Vec<&Query> = series
        .iter()
        .flat_map(|(_, qs)| qs.iter().map(|(_, q)| q))
        .collect();
    let reports: Vec<_> = graphs
        .iter()
        .map(|graph| {
            let ctx = EvalContext::new(graph);
            evaluate_matrix(
                &ctx,
                &queries,
                &[EngineKind::TripleStore],
                &opts.cell_budget(),
                &opts.matrix_options(),
            )
        })
        .collect();

    let mut row = 0usize;
    for (label, qs) in &series {
        for (class, _) in qs.iter() {
            let mut cells = Vec::new();
            for report in &reports {
                let cell = report
                    .cell(row, EngineKind::TripleStore)
                    .expect("matrix covers every cell");
                cells.push(fmt_matrix_cell_with_count(cell));
            }
            gmark_bench::print_row(&format!("{class} ({label})"), &cells, 16);
            row += 1;
        }
    }
    println!(
        "\npaper reference (Fig. 10): for each class, the gMark curve tracks \
         the original benchmark's curve shape — constant stays flat, linear \
         grows ~n, quadratic grows fastest; absolute times differ (different \
         engines), the per-class growth shape is the reproduced claim. Cells \
         show time/result-count."
    );
}
