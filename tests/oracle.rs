//! Every engine against a UCRPQ evaluator written from the definition
//! (`support/oracle.rs`), which shares no kernel with them.
//!
//! The instances are small seeded graphs of all four use cases, each with
//! a generated workload of every shape and arity, recursion included. Each
//! instance runs the whole matrix at 1 and 4 threads, with the
//! sub-expression cache on and off, over the in-memory graph and over a
//! paged store. Every cell must finish with the oracle's answer count, and
//! each query evaluated afterwards on the same context, with its plan,
//! must give the oracle's answer tuples. `G` is held to the oracle's
//! answers on `degrade(q).0`, the query an openCypher system runs.

#[path = "support/oracle.rs"]
mod oracle;

use gmark::core::cypher::degrade;
use gmark::prelude::*;
use gmark::store::{GraphView, StoreMeta, StoreReader, StoreWriter, VecSink};
use oracle::Oracle;
use std::collections::BTreeSet;

/// Nodes asked of each use case, beside its fixed-count types.
const NODES: u64 = 20;

/// Each fixed-count type is cut to at most this many nodes (the use cases
/// fix 20 to 100), so every instance has about 30 nodes.
const FIXED: u64 = 2;

/// A cap no cell of these instances comes near: every cell must finish.
const MAX_TUPLES: usize = 5_000_000;

/// One generated instance: the graph built from the generator's triples,
/// and the oracle over the same triples.
struct Instance {
    name: &'static str,
    schema: Schema,
    graph: Graph,
    oracle: Oracle,
    queries: Vec<Query>,
    shapes: Vec<Shape>,
}

fn instance(name: &'static str, seed: u64) -> Instance {
    let schema = shrunk(&gmark::core::usecases::by_name(name).expect("a built-in use case"));
    let config = GraphConfig::new(NODES, schema.clone());
    let mut sink = VecSink::default();
    let opts = GeneratorOptions {
        seed,
        ..GeneratorOptions::default()
    };
    generate_into(&config, &opts, &mut sink);
    let partition = TypePartition::from_counts(&config.node_counts());
    let n = partition.node_count();
    let preds = schema.predicate_count();
    let mut builder = GraphBuilder::new(partition, preds);
    for &(s, p, t) in &sink.triples {
        builder.edge(s, p, t);
    }
    let mut workload = WorkloadConfig::new(24).with_seed(seed);
    workload.arity = vec![0, 1, 2, 3];
    workload.shapes = Shape::ALL.to_vec();
    workload.recursion_probability = 0.5;
    workload.rules = (1, 2);
    workload.query_size = QuerySize {
        conjuncts: (2, 4),
        disjuncts: (1, 3),
        length: (1, 3),
    };
    let (generated, _) =
        generate_workload_with_threads(&schema, &workload, 1).expect("the workload generates");
    let shapes = generated.queries.iter().map(|g| g.shape).collect();
    Instance {
        name,
        oracle: Oracle::new(n, preds, &sink.triples),
        graph: builder.build(),
        schema,
        queries: generated.queries.into_iter().map(|g| g.query).collect(),
        shapes,
    }
}

/// The schema with every fixed-count type cut to [`FIXED`] nodes.
fn shrunk(schema: &Schema) -> Schema {
    let mut b = SchemaBuilder::new();
    for t in schema.types() {
        let occurrence = match schema.type_constraint(t) {
            Occurrence::Fixed(k) => Occurrence::Fixed(k.min(FIXED)),
            proportion => proportion,
        };
        b.node_type(schema.type_name(t), occurrence);
    }
    for p in schema.predicates() {
        b.predicate(schema.predicate_name(p), schema.predicate_constraint(p));
    }
    for c in schema.constraints() {
        b.constraint(c.clone());
    }
    b.build().expect("a shrunk use case is a schema")
}

fn rows(answers: &Answers) -> BTreeSet<Vec<NodeId>> {
    answers.rows().map(<[NodeId]>::to_vec).collect()
}

/// Runs the matrix on a fresh context over `view`, checks every cell's
/// count, then every query's tuples on the same context, whose cache the
/// matrix has frozen when it kept one.
fn check_view(
    inst: &Instance,
    (view, store): (GraphView<'_>, &str),
    expected: &[[BTreeSet<Vec<NodeId>>; 2]],
    threads: usize,
    cache_mb: usize,
) {
    let at = format!(
        "{} on {store} at {threads} threads, cache_mb {cache_mb}",
        inst.name
    );
    let ctx = EvalContext::new(view);
    let queries: Vec<&Query> = inst.queries.iter().collect();
    let budget = CellBudget {
        timeout: None,
        max_tuples: MAX_TUPLES,
    };
    let options = MatrixOptions {
        threads,
        cache_mb,
        ..MatrixOptions::default()
    };
    let report = evaluate_matrix_with_schema(
        &ctx,
        Some(&inst.schema),
        &queries,
        &EngineKind::ALL,
        &budget,
        &options,
    );
    let want =
        |q: usize, kind: EngineKind| &expected[q][usize::from(kind == EngineKind::Navigational)];
    for cell in &report.cells {
        let count = want(cell.query, cell.engine).len() as u64;
        assert_eq!(
            cell.outcome,
            CellOutcome::Answers {
                arity: inst.queries[cell.query].arity(),
                count
            },
            "q{} on {}, {at}",
            cell.query,
            cell.engine.name()
        );
    }
    for (q, query) in inst.queries.iter().enumerate() {
        let plan = plan_query(&ctx, Some(&inst.schema), query);
        for kind in EngineKind::ALL {
            let answers = kind
                .evaluate(&ctx, query, Some(&plan), &budget.start())
                .unwrap_or_else(|e| panic!("q{q} on {}, {at}: {e}", kind.name()));
            assert_eq!(
                &rows(&answers),
                want(q, kind),
                "q{q} on {}, {at}",
                kind.name()
            );
        }
    }
}

#[test]
fn every_engine_answers_what_the_definition_answers() {
    let dir = std::env::temp_dir().join(format!("gmark-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a writable temp dir");
    let (mut shapes, mut arities) = (BTreeSet::new(), BTreeSet::new());
    for name in ["bib", "lsn", "sp", "wd"] {
        for seed in [7, 8] {
            let inst = instance(name, seed);
            shapes.extend(inst.shapes.iter().copied());
            arities.extend(inst.queries.iter().map(Query::arity));
            let expected: Vec<[BTreeSet<Vec<NodeId>>; 2]> = inst
                .queries
                .iter()
                .map(|q| [inst.oracle.answers(q), inst.oracle.answers(&degrade(q).0)])
                .collect();
            let path = dir.join(format!("{name}-{seed}.gstore"));
            let meta = StoreMeta {
                seed,
                schema_hash: inst.schema.schema_hash(),
                page_size: 256,
                predicate_names: inst.schema.predicate_names(),
                partition: inst.graph.partition().clone(),
            };
            StoreWriter::write_graph(&path, &meta, &inst.graph).expect("the store writes");
            let reader = StoreReader::open(&path).expect("the store opens");
            for threads in [1, 4] {
                for cache_mb in [MatrixOptions::DEFAULT_CACHE_MB, 0] {
                    for view in [
                        (GraphView::from(&inst.graph), "the graph"),
                        (GraphView::from(&reader), "the store"),
                    ] {
                        check_view(&inst, view, &expected, threads, cache_mb);
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        shapes,
        Shape::ALL.into_iter().collect(),
        "every shape is drawn"
    );
    assert_eq!(arities, (0..=3).collect(), "every arity is drawn");
}
