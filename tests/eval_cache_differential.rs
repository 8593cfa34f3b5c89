//! Differential testing of the cross-cell sub-expression result cache.
//!
//! The cache (see `gmark_engines::context`) may only change *how fast*
//! cells evaluate, never *what* they report: for every engine and every
//! query — recursive shapes included — the (outcome label, answer
//! cardinality) of each cell must be identical with the cache enabled and
//! disabled, even when tuple caps make cells fail. These tests run the
//! whole evaluation matrix both ways and compare cell by cell.
//!
//! Planning is disabled in the property tests, so `plan: false` isolates
//! the cache's contract that outcomes themselves never shift. The
//! planner's exact cardinalities come from the fill's counts, which do not
//! depend on whether a cache is kept; `tests/selection_invariance.rs`
//! holds the planned regime to identical cells at `cache_mb` 0, 1 and 64. The
//! generated-workload test here covers the planned regime too, where
//! answers may not move.
//!
//! The run pipeline always evaluates with the planner and the cache on;
//! the tests at the end hold that configuration and the two controls
//! (`plan: false`, `cache_mb: 0`) to the same determinism contract on the
//! instance the pipeline's own tests evaluate, in RAM and through a paged
//! store — cache contents and counters included, which the fill resolves
//! on every worker. One more input selects only `G` and `S` with the cache
//! off, so nothing but their automaton BFS reads adjacency.

use gmark::prelude::*;
use gmark::store::{GraphView, StoreMeta, StoreReader, StoreWriter};
use proptest::prelude::*;
use std::mem::discriminant;
use std::ops::RangeInclusive;

/// A deterministic random graph over `n` nodes and `preds` labels.
fn random_graph(n: u32, preds: usize, edges_per_pred: usize, seed: u64) -> Graph {
    let mut rng = gmark::stats::Prng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(TypePartition::from_counts(&[n as u64]), preds);
    for p in 0..preds {
        for _ in 0..edges_per_pred {
            let s = rng.below(n as u64) as NodeId;
            let t = rng.below(n as u64) as NodeId;
            b.edge(s, p, t);
        }
    }
    b.build()
}

/// Strategy: a random path of `len` symbols over `preds` labels.
fn arb_path(preds: usize, len: RangeInclusive<usize>) -> impl Strategy<Value = PathExpr> {
    prop::collection::vec((0..preds, any::<bool>()), len).prop_map(|syms| {
        PathExpr(
            syms.into_iter()
                .map(|(p, inv)| {
                    let s = Symbol::forward(PredicateId(p));
                    if inv {
                        s.flipped()
                    } else {
                        s
                    }
                })
                .collect(),
        )
    })
}

/// Strategy: a regular expression with 1–2 disjuncts, possibly starred —
/// the starred draws are the recursive shapes the cache caches hardest
/// (transitive closures are its headline hit).
fn arb_expr(preds: usize) -> impl Strategy<Value = RegularExpr> {
    (
        prop::collection::vec(arb_path(preds, 1..=3), 1..=2),
        any::<bool>(),
    )
        .prop_map(|(disjuncts, starred)| RegularExpr { disjuncts, starred })
}

/// Strategy: a chain query of 1–3 conjuncts.
fn arb_chain(preds: usize) -> impl Strategy<Value = Query> {
    prop::collection::vec(arb_expr(preds), 1..=3).prop_map(|exprs| {
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
        .expect("chains are well-formed")
    })
}

/// Runs the full matrix over `queries` twice — cache on, cache off — on
/// *fresh* contexts (the cache freezes into its context on first fill) and
/// returns the two reports.
fn matrix_pair(
    graph: &Graph,
    schema: Option<&Schema>,
    queries: &[&Query],
    max_tuples: usize,
    plan: bool,
) -> (EvalReport, EvalReport) {
    let budget = CellBudget {
        timeout: None, // no wall clock: outcomes are pure in (graph, queries)
        max_tuples,
    };
    let cached_ctx = EvalContext::new(graph);
    let plain_ctx = EvalContext::new(graph);
    let cached = evaluate_matrix_with_schema(
        &cached_ctx,
        schema,
        queries,
        &EngineKind::ALL,
        &budget,
        &MatrixOptions {
            plan,
            ..MatrixOptions::default()
        },
    );
    let plain = evaluate_matrix_with_schema(
        &plain_ctx,
        schema,
        queries,
        &EngineKind::ALL,
        &budget,
        &MatrixOptions {
            plan,
            cache_mb: 0,
            ..MatrixOptions::default()
        },
    );
    (cached, plain)
}

/// Asserts cell-for-cell equality of outcome labels (the count for ok
/// cells, the typed failure word otherwise).
fn assert_cells_match(cached: &EvalReport, plain: &EvalReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(cached.cells.len(), plain.cells.len());
    for (c, p) in cached.cells.iter().zip(&plain.cells) {
        prop_assert_eq!(c.query, p.query);
        prop_assert_eq!(c.engine, p.engine);
        prop_assert_eq!(
            c.outcome.label(),
            p.outcome.label(),
            "query {} on {}: cached {:?} vs uncached {:?}",
            c.query,
            c.engine.name(),
            c.outcome,
            p.outcome
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Generous cap: (nearly) every cell completes, so this pins the
    // cached *cardinalities* — every engine must report the same count
    // with and without the cache, stars included.
    #[test]
    fn cached_and_uncached_report_identical_counts(
        seed in 0u64..1000,
        q1 in arb_chain(2),
        q2 in arb_chain(2),
    ) {
        let graph = random_graph(30, 2, 45, seed);
        let queries = [&q1, &q2];
        let (cached, plain) = matrix_pair(&graph, None, &queries, 1_000_000, false);
        assert_cells_match(&cached, &plain)?;
        let stats = cached.cache.as_ref().expect("cache was enabled");
        prop_assert!(plain.cache.is_none(), "cache_mb: 0 must disable the cache");
        // Two queries over four engines must actually exercise the cache.
        prop_assert!(stats.hits + stats.misses > 0);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Tight cap: cells fail too-large. The failure *labels* must be
    // identical too — a cache hit may not rescue a cell its uncached
    // evaluation would fail, nor fail a cell it would complete. Caps 10
    // and 30 sit below the per-predicate edge count, so a single leaf
    // relation is already over the cap; on the sparse graphs (12 edges
    // per predicate) joins are selective enough for a cell to complete
    // under such a cap — the cells that tell a leaf charged in one regime
    // from a leaf charged in both. Cheap cells, hence the many cases.
    #[test]
    fn cached_and_uncached_fail_identically_under_tight_caps(
        seed in 0u64..1000,
        q1 in arb_chain(2),
        q2 in arb_chain(2),
        cap in prop_oneof![
            Just(10usize),
            Just(30usize),
            Just(50usize),
            Just(200usize),
            Just(800usize),
        ],
        edges_per_pred in prop_oneof![Just(12usize), Just(45usize)],
    ) {
        let graph = random_graph(30, 2, edges_per_pred, seed);
        let queries = [&q1, &q2];
        let (cached, plain) = matrix_pair(&graph, None, &queries, cap, false);
        assert_cells_match(&cached, &plain)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // A cell-time miss that starts from a cached prefix. The fill keeps
    // only the proper prefixes of the probed expression's paths, at cap
    // `c1`, so the probe at `c2 ≥ c1` misses, and its evaluation starts
    // from the longest cached prefix of each path — or fails at once on a
    // negative entry over `c2` — and composes the rest itself. It must
    // answer as a context with no cache does: the same relation, or an
    // error of the same kind.
    #[test]
    fn a_miss_from_a_cached_prefix_matches_an_uncached_evaluation(
        seed in 0u64..1000,
        paths in prop::collection::vec(arb_path(2, 2..=4), 1..=2),
        starred in any::<bool>(),
        c1 in prop_oneof![Just(10usize), Just(30usize), Just(100usize), Just(400usize)],
        headroom in prop_oneof![Just(0usize), Just(50usize), Just(1_000usize)],
        edges_per_pred in prop_oneof![Just(12usize), Just(45usize)],
    ) {
        let graph = random_graph(30, 2, edges_per_pred, seed);
        let prefixes: Vec<RegularExpr> = paths
            .iter()
            .flat_map(|path| (1..path.0.len()).map(|k| RegularExpr::path(PathExpr(path.0[..k].to_vec()))))
            .collect();
        let expr = RegularExpr { disjuncts: paths, starred };
        let c2 = Budget::with_limits(None, c1 + headroom);
        let ctx = EvalContext::new(&graph);
        ctx.fill_expr_cache(&prefixes, 64, || Budget::with_limits(None, c1));
        let got = ctx.expr_relation(&expr, &c2);
        let want = EvalContext::new(&graph).expr_relation(&expr, &c2);
        match (&got, &want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
            (Err(g), Err(w)) => prop_assert_eq!(discriminant(g), discriminant(w), "{:?} vs {:?}", g, w),
            _ => prop_assert!(false, "cached {:?} vs uncached {:?}", got, want),
        }
        let stats = ctx.expr_cache_stats().expect("the cache was filled");
        prop_assert_eq!((stats.hits, stats.misses), (0, 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The generator's own recursive workloads on the bib schema, planned
    // regime: the planner may consult cached cardinalities and reorder
    // joins, but no ok-cell count may change and no outcome may flip.
    #[test]
    fn generated_workloads_are_cache_invariant(seed in 0u64..400) {
        let schema = gmark::core::usecases::bib();
        let config = GraphConfig::new(200, schema.clone());
        let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(seed));
        let mut wcfg = WorkloadConfig::new(6).with_seed(seed ^ 0xCAC4E);
        wcfg.recursion_probability = 0.5;
        let (workload, _) = generate_workload_with_threads(&schema, &wcfg, 1).expect("workload generates");
        let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
        let (cached, plain) = matrix_pair(&graph, Some(&schema), &queries, 100_000, true);
        assert_cells_match(&cached, &plain)?;
    }
}

/// `examples/configs/bib.xml` at 250 nodes with its 12-query workload,
/// graph and queries at seed 11.
fn bib_instance() -> (Schema, Graph, Workload) {
    let config = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/bib.xml");
    let plan = RunPlan::from_config_file(config)
        .expect("bib.xml parses")
        .with_nodes(250);
    let arts = run_in_memory(&plan, &RunOptions::with_seed(11)).expect("the instance generates");
    let graph = arts.graph.expect("a graph");
    let workload = arts.workload.expect("a workload");
    (plan.graph.schema, graph, workload)
}

/// One matrix on a fresh context: the given engines, no clock, a
/// 100 000-tuple cap.
fn bib_matrix(
    view: GraphView<'_>,
    schema: &Schema,
    queries: &[&Query],
    engines: &[EngineKind],
    options: MatrixOptions,
) -> EvalReport {
    let budget = CellBudget {
        timeout: None,
        max_tuples: 100_000,
    };
    let ctx = EvalContext::new(view);
    evaluate_matrix_with_schema(&ctx, Some(schema), queries, engines, &budget, &options)
}

fn queries_of(workload: &Workload) -> Vec<&Query> {
    workload.queries.iter().map(|gq| &gq.query).collect()
}

#[test]
fn each_control_renders_one_report_at_every_thread_count_in_ram_and_paged() {
    let (schema, graph, workload) = bib_instance();
    let queries = queries_of(&workload);
    let dir = std::env::temp_dir().join(format!("gmark-eval-controls-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a writable temp dir");
    let path = dir.join("g.gstore");
    let meta = StoreMeta {
        seed: 11,
        schema_hash: schema.schema_hash(),
        page_size: 256,
        predicate_names: schema.predicate_names(),
        partition: graph.partition().clone(),
    };
    StoreWriter::write_graph(&path, &meta, &graph).expect("the store writes");
    let reader = StoreReader::open(&path).expect("the store opens");

    let unplanned = MatrixOptions {
        plan: false,
        ..MatrixOptions::default()
    };
    let uncached = MatrixOptions {
        cache_mb: 0,
        ..MatrixOptions::default()
    };
    let all = EngineKind::ALL.as_slice();
    let navigating = [EngineKind::Navigational, EngineKind::TripleStore];
    for (control, engines) in [
        (MatrixOptions::default(), all),
        (unplanned, all),
        (uncached, all),
        (uncached, navigating.as_slice()),
    ] {
        let base = bib_matrix(GraphView::from(&graph), &schema, &queries, engines, control);
        assert_eq!(base.plan_quality().is_some(), control.plan, "{control:?}");
        assert_eq!(base.cache.is_some(), control.cache_mb > 0, "{control:?}");
        let text = base.render();
        assert!(text.contains("too-large"), "the cap must bite: {text}");
        for threads in [1, 2, 8] {
            let options = MatrixOptions { threads, ..control };
            for view in [GraphView::from(&graph), GraphView::from(&reader)] {
                let report = bib_matrix(view, &schema, &queries, engines, options);
                assert_eq!(report.render(), text, "{options:?}");
                assert_eq!(report.cache, base.cache, "{options:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn without_the_planner_cache_on_and_off_render_identically() {
    let (schema, graph, workload) = bib_instance();
    let queries = queries_of(&workload);
    let cached = MatrixOptions {
        threads: 2,
        plan: false,
        ..MatrixOptions::default()
    };
    let uncached = MatrixOptions {
        cache_mb: 0,
        ..cached
    };
    let on = bib_matrix(
        GraphView::from(&graph),
        &schema,
        &queries,
        &EngineKind::ALL,
        cached,
    );
    let off = bib_matrix(
        GraphView::from(&graph),
        &schema,
        &queries,
        &EngineKind::ALL,
        uncached,
    );
    let stats = on.cache.expect("the cache was on");
    assert!(stats.hits > 0, "{stats:?}");
    assert!(off.cache.is_none());
    assert_eq!(on.render(), off.render());
}

#[test]
fn planner_never_changes_answer_cardinalities() {
    // Plans reorder joins, so the evaluation *cost* differs — which cells
    // exhaust the tuple cap may differ too — but any cell that completes
    // with and without a plan must report the same answer cardinality.
    let (schema, graph, workload) = bib_instance();
    let queries = queries_of(&workload);
    let planned = MatrixOptions {
        threads: 2,
        ..MatrixOptions::default()
    };
    let unplanned = MatrixOptions {
        plan: false,
        ..planned
    };
    let on = bib_matrix(
        GraphView::from(&graph),
        &schema,
        &queries,
        &EngineKind::ALL,
        planned,
    );
    let off = bib_matrix(
        GraphView::from(&graph),
        &schema,
        &queries,
        &EngineKind::ALL,
        unplanned,
    );
    assert_eq!(on.cells.len(), off.cells.len());
    let mut compared = 0;
    for (a, b) in on.cells.iter().zip(&off.cells) {
        assert_eq!((a.query, a.engine), (b.query, b.engine));
        assert!(a.estimate.is_some(), "planned cells carry the estimate");
        assert!(b.estimate.is_none(), "unplanned cells carry none");
        if let (CellOutcome::Answers { count: x, .. }, CellOutcome::Answers { count: y, .. }) =
            (&a.outcome, &b.outcome)
        {
            assert_eq!(x, y, "q{} {} cardinality changed", a.query, a.engine);
            compared += 1;
        }
    }
    assert!(compared > 0, "no cell completed in both regimes");
}
