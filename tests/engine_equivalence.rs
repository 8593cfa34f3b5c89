//! Differential testing of the four evaluation engines.
//!
//! The relational, triple-store, and Datalog engines implement the same
//! UCRPQ semantics through three different architectures; on any graph and
//! any query they must agree exactly. The navigational engine evaluates
//! the openCypher-degraded query (Section 7.1) — what `workload.cypher`
//! says — so it must agree exactly with the others on that query.

use gmark::core::cypher::degrade;
use gmark::prelude::*;
use proptest::prelude::*;

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

/// Strategy: a random path of up to 3 symbols over `preds` labels.
fn arb_path(preds: usize) -> impl Strategy<Value = PathExpr> {
    prop::collection::vec((0..preds, any::<bool>()), 1..=3).prop_map(|syms| {
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

/// Strategy: a regular expression with 1–2 disjuncts, possibly starred.
fn arb_expr(preds: usize) -> impl Strategy<Value = RegularExpr> {
    (prop::collection::vec(arb_path(preds), 1..=2), any::<bool>())
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

/// One query on one engine over a fresh context, no plan.
fn eval(kind: EngineKind, graph: &Graph, query: &Query) -> Answers {
    kind.evaluate(&EvalContext::new(graph), query, None, &Budget::default())
        .unwrap()
}

/// The one planned-vs-unplanned differential: a plan changes the order an
/// engine evaluates in, never what it answers. For every engine the
/// statistics plan and the declaration-order plan (`None`) give the same
/// answers as the P reference — for G, P's answers on the degraded query.
fn check_plans_never_change_answers(
    ctx: &EvalContext<'_>,
    schema: Option<&Schema>,
    query: &Query,
) -> Result<(), TestCaseError> {
    let budget = Budget::default();
    let plan = plan_query(ctx, schema, query);
    let p = |q: &Query| {
        EngineKind::Relational
            .evaluate(ctx, q, None, &budget)
            .unwrap()
    };
    let (faithful, degraded) = (p(query), p(&degrade(query).0));
    for kind in EngineKind::ALL {
        let planned = kind.evaluate(ctx, query, Some(&plan), &budget).unwrap();
        let unplanned = kind.evaluate(ctx, query, None, &budget).unwrap();
        prop_assert_eq!(
            &planned,
            &unplanned,
            "{} planned vs unplanned on {:?}",
            kind.name(),
            query
        );
        let reference = if kind == EngineKind::Navigational {
            &degraded
        } else {
            &faithful
        };
        prop_assert_eq!(&planned, reference, "{} vs P on {:?}", kind.name(), query);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relational_triplestore_datalog_agree(
        seed in 0u64..1000,
        query in arb_chain(2),
    ) {
        let graph = random_graph(30, 2, 45, seed);
        let a = eval(EngineKind::Relational, &graph, &query);
        let b = eval(EngineKind::TripleStore, &graph, &query);
        let c = eval(EngineKind::Datalog, &graph, &query);
        prop_assert_eq!(&a, &b, "relational vs triplestore");
        prop_assert_eq!(&a, &c, "relational vs datalog");
    }

    #[test]
    fn navigational_agrees_when_not_degraded(
        seed in 0u64..1000,
        query in arb_chain(2),
    ) {
        // G answers what P answers on the degraded query — the query
        // itself whenever the degradation loses nothing.
        let (degraded, lost) = degrade(&query);
        let graph = random_graph(30, 2, 45, seed);
        let n = eval(EngineKind::Navigational, &graph, &query);
        prop_assert_eq!(&n, &eval(EngineKind::Relational, &graph, &degraded));
        if lost.losses.is_empty() {
            prop_assert_eq!(&n, &eval(EngineKind::Relational, &graph, &query));
        }
    }

    #[test]
    fn boolean_queries_agree(
        seed in 0u64..1000,
        expr in arb_expr(2),
    ) {
        let query = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct { src: Var(0), expr, trg: Var(1) }],
        }).unwrap();
        let graph = random_graph(20, 2, 25, seed);
        let a = eval(EngineKind::Relational, &graph, &query);
        let c = eval(EngineKind::Datalog, &graph, &query);
        prop_assert_eq!(a.non_empty(), c.non_empty());
    }

    #[test]
    fn star_shaped_queries_agree(
        seed in 0u64..1000,
        e1 in arb_expr(2),
        e2 in arb_expr(2),
    ) {
        // (?c, e1, ?x), (?c, e2, ?y) projected on (x, y).
        let query = Query::single(Rule {
            head: vec![Var(1), Var(2)],
            body: vec![
                Conjunct { src: Var(0), expr: e1, trg: Var(1) },
                Conjunct { src: Var(0), expr: e2, trg: Var(2) },
            ],
        }).unwrap();
        let graph = random_graph(20, 2, 25, seed);
        let a = eval(EngineKind::Relational, &graph, &query);
        let b = eval(EngineKind::TripleStore, &graph, &query);
        let c = eval(EngineKind::Datalog, &graph, &query);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn plans_never_change_answers_on_random_chains(
        seed in 0u64..1000,
        query in arb_chain(2),
    ) {
        let graph = random_graph(30, 2, 45, seed);
        check_plans_never_change_answers(&EvalContext::new(&graph), None, &query)?;
    }
}

// Differential correctness on the *generator's own* output: for
// non-recursive workloads (no stars ⇒ no Section 7.1 degradation ⇒ even
// the navigational engine must agree), all engines produce identical
// sorted answer sets over small generated graphs — through one shared
// EvalContext per graph, with the schema-sharpened statistics plan and
// without it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engines_agree_on_nonrecursive_generated_workloads(seed in 0u64..400) {
        let schema = gmark::core::usecases::bib();
        let config = GraphConfig::new(250, schema.clone());
        let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(seed));
        let mut wcfg = WorkloadConfig::new(6).with_seed(seed ^ 0xD1FF);
        wcfg.recursion_probability = 0.0; // non-recursive ⇒ non-degraded
        let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
        let ctx = EvalContext::new(&graph);
        for gq in &workload.queries {
            prop_assert!(!gq.query.is_recursive());
            let (degraded, lost) = degrade(&gq.query);
            prop_assert!(lost.losses.is_empty() && degraded == gq.query);
            check_plans_never_change_answers(&ctx, Some(&schema), &gq.query)?;
        }
    }
}

#[test]
fn shared_context_matches_per_call_contexts() {
    // One context shared by every query and engine must produce the same
    // *result* — answers or typed budget failure — as a fresh context per
    // call. The tight tuple cap keeps heavy recursive cells cheap (they
    // fail identically on both paths).
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(300, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(21));
    let mut wcfg = WorkloadConfig::new(8).with_seed(22);
    wcfg.recursion_probability = 0.3;
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    let ctx = EvalContext::new(&graph);
    let budget = Budget::with_limits(None, 200_000);
    for gq in &workload.queries {
        for kind in EngineKind::ALL {
            let shared = kind.evaluate(&ctx, &gq.query, None, &budget);
            let fresh = kind.evaluate(&EvalContext::new(&graph), &gq.query, None, &budget);
            assert_eq!(shared, fresh, "{} on {:?}", kind.name(), gq.query);
        }
    }
}

#[test]
fn engines_agree_on_generated_workloads() {
    // Not random shapes: the actual gMark workload generator's output.
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(600, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(13));
    let mut wcfg = WorkloadConfig::new(15).with_seed(17);
    wcfg.recursion_probability = 0.3;
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    for gq in &workload.queries {
        let a = eval(EngineKind::Relational, &graph, &gq.query);
        let b = eval(EngineKind::TripleStore, &graph, &gq.query);
        let c = eval(EngineKind::Datalog, &graph, &gq.query);
        assert_eq!(a, b, "relational vs triplestore on {:?}", gq.query);
        assert_eq!(a, c, "relational vs datalog on {:?}", gq.query);
    }
}
