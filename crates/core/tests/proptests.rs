//! Property-based tests for gmark-core: the selectivity algebra's laws,
//! generator invariants over arbitrary schemas, and workload well-formedness.

use gmark_core::gen::{generate_into, GeneratorOptions};
use gmark_core::schema::{
    Distribution, GraphConfig, Occurrence, PredicateId, Schema, SchemaBuilder, TypeId,
};
use gmark_core::selectivity::{Card, SelOp, SelTriple};
use gmark_core::workload::{generate_workload_with_threads, QuerySize, Shape, WorkloadConfig};
use gmark_store::{TypePartition, VecSink};
use proptest::prelude::*;

fn arb_card() -> impl Strategy<Value = Card> {
    prop_oneof![Just(Card::One), Just(Card::Many)]
}

fn arb_op() -> impl Strategy<Value = SelOp> {
    prop_oneof![
        Just(SelOp::Eq),
        Just(SelOp::Less),
        Just(SelOp::Greater),
        Just(SelOp::Diamond),
        Just(SelOp::Cross),
    ]
}

fn arb_triple() -> impl Strategy<Value = SelTriple> {
    (arb_card(), arb_op(), arb_card()).prop_map(|(l, o, r)| SelTriple::new(l, o, r))
}

proptest! {
    #[test]
    fn normalization_is_idempotent(l in arb_card(), o in arb_op(), r in arb_card()) {
        let raw = SelTriple { left: l, op: o, right: r };
        let once = raw.normalized();
        prop_assert_eq!(once, once.normalized());
        prop_assert!(once.is_permitted());
    }

    #[test]
    fn triple_inverse_is_involution(t in arb_triple()) {
        prop_assert_eq!(t.inverse().inverse(), t);
    }

    #[test]
    fn disjoin_laws(a in arb_op(), b in arb_op(), c in arb_op()) {
        // Commutative, associative, idempotent (a join-semilattice).
        prop_assert_eq!(a.disjoin(b), b.disjoin(a));
        prop_assert_eq!(a.disjoin(a), a);
        prop_assert_eq!(a.disjoin(b).disjoin(c), a.disjoin(b.disjoin(c)));
        // Eq is the identity, Cross absorbs.
        prop_assert_eq!(a.disjoin(SelOp::Eq), a);
        prop_assert_eq!(a.disjoin(SelOp::Cross), SelOp::Cross);
    }

    #[test]
    fn concat_laws(a in arb_op(), b in arb_op(), c in arb_op()) {
        // Associative monoid with identity Eq and absorbing Cross.
        prop_assert_eq!(a.concat(b).concat(c), a.concat(b.concat(c)));
        prop_assert_eq!(a.concat(SelOp::Eq), a);
        prop_assert_eq!(SelOp::Eq.concat(a), a);
        prop_assert_eq!(a.concat(SelOp::Cross), SelOp::Cross);
        prop_assert_eq!(SelOp::Cross.concat(a), SelOp::Cross);
    }

    #[test]
    fn alpha_is_bounded_by_arity(t in arb_triple()) {
        prop_assert!(t.alpha() <= 2);
    }

    #[test]
    fn disjoin_never_decreases_alpha_below_parts(a in arb_triple(), op in arb_op()) {
        // Disjoining with a same-endpoints triple keeps alpha >= each part
        // only for the Cross-absorbing direction; at minimum it stays a
        // permitted triple of the same endpoints.
        let b = SelTriple::new(a.left, op, a.right);
        let joined = a.disjoin(b);
        prop_assert_eq!(joined.left, a.left);
        prop_assert_eq!(joined.right, a.right);
        prop_assert!(joined.is_permitted());
    }
}

/// An arbitrary small-but-valid schema: 1–4 types, 1–3 predicates,
/// constraints with arbitrary distributions.
fn arb_schema() -> impl Strategy<Value = Schema> {
    let dist = prop_oneof![
        (0u64..3, 0u64..3).prop_map(|(a, b)| Distribution::uniform(a.min(b), a.max(b))),
        (0.5f64..6.0, 0.1f64..2.0).prop_map(|(mu, s)| Distribution::gaussian(mu, s)),
        (1.2f64..3.5).prop_map(Distribution::zipfian),
        Just(Distribution::NonSpecified),
    ];
    (
        1usize..=4,
        1usize..=3,
        prop::collection::vec((0usize..4, 0usize..3, 0usize..4, dist.clone(), dist), 1..6),
        prop::collection::vec(prop_oneof![Just(true), Just(false)], 4),
    )
        .prop_map(|(n_types, n_preds, raw_constraints, grows)| {
            let mut b = SchemaBuilder::new();
            for i in 0..n_types {
                let occ = if grows[i % grows.len()] {
                    Occurrence::Proportion(1.0 / n_types as f64)
                } else {
                    Occurrence::Fixed(5 + i as u64)
                };
                b.node_type(&format!("t{i}"), occ);
            }
            for i in 0..n_preds {
                b.predicate(&format!("p{i}"), Some(Occurrence::Proportion(0.5)));
            }
            for (s, p, t, din, dout) in raw_constraints {
                b.edge(
                    TypeId(s % n_types),
                    PredicateId(p % n_preds),
                    TypeId(t % n_types),
                    din,
                    dout,
                );
            }
            b.build().expect("constructed schemas are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generation_respects_constraint_typing(schema in arb_schema(), seed in any::<u64>()) {
        let cfg = GraphConfig::new(300, schema.clone());
        let mut sink = VecSink::default();
        let report = generate_into(&cfg, &GeneratorOptions::with_seed(seed), &mut sink);
        let partition = TypePartition::from_counts(&cfg.node_counts());
        prop_assert_eq!(report.total_edges as usize, sink.triples.len());
        for (s, p, t) in &sink.triples {
            let st = partition.type_of(*s);
            let tt = partition.type_of(*t);
            prop_assert!(
                schema.constraints().iter().any(|c| c.source.0 == st
                    && c.target.0 == tt
                    && c.predicate.0 == *p),
                "edge types ({st},{tt}) via predicate {p} match no constraint"
            );
        }
    }

    #[test]
    fn generation_is_pure_in_seed(schema in arb_schema(), seed in any::<u64>()) {
        let cfg = GraphConfig::new(200, schema);
        let mut a = VecSink::default();
        let mut b = VecSink::default();
        generate_into(&cfg, &GeneratorOptions::with_seed(seed), &mut a);
        generate_into(&cfg, &GeneratorOptions::with_seed(seed), &mut b);
        prop_assert_eq!(a.triples, b.triples);
    }

    #[test]
    fn workloads_are_always_well_formed(
        schema in arb_schema(),
        seed in any::<u64>(),
        pr in 0.0f64..1.0,
        shape_idx in 0usize..4,
    ) {
        let mut cfg = WorkloadConfig::new(6).with_seed(seed);
        cfg.recursion_probability = pr;
        cfg.shapes = vec![Shape::ALL[shape_idx]];
        cfg.query_size = QuerySize { conjuncts: (1, 3), disjuncts: (1, 2), length: (1, 3) };
        let (workload, _) = generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
        prop_assert_eq!(workload.queries.len(), 6);
        for gq in &workload.queries {
            for rule in &gq.query.rules {
                prop_assert!(rule.well_formed().is_ok());
                for c in &rule.body {
                    for s in c.expr.symbols() {
                        prop_assert!(s.predicate.0 < schema.predicate_count());
                    }
                }
            }
        }
    }

    #[test]
    fn workload_is_thread_count_invariant(
        schema in arb_schema(),
        seed in any::<u64>(),
        size in 1usize..12,
        pr in 0.0f64..1.0,
        threads in 2usize..6,
    ) {
        // Same (config, seed) ⇒ identical Workload and WorkloadReport at
        // every thread count: query i is a pure function of
        // (schema, config, i), independent of scheduling.
        let mut cfg = WorkloadConfig::new(size).with_seed(seed);
        cfg.recursion_probability = pr;
        cfg.shapes = Shape::ALL.to_vec();
        let (seq, seq_report) = gmark_core::workload::generate_workload_with_threads(
            &schema, &cfg, 1,
        ).expect("workload generates");
        let (par, par_report) = gmark_core::workload::generate_workload_with_threads(
            &schema, &cfg, threads,
        ).expect("workload generates");
        prop_assert_eq!(seq_report, par_report);
        prop_assert_eq!(seq.queries.len(), par.queries.len());
        for (a, b) in seq.queries.iter().zip(&par.queries) {
            prop_assert_eq!(&a.query, &b.query);
            prop_assert_eq!(a.shape, b.shape);
            prop_assert_eq!(a.target, b.target);
            prop_assert_eq!(a.relaxations, b.relaxations);
        }
    }

    #[test]
    fn estimated_alpha_matches_declared_target(schema in arb_schema(), seed in any::<u64>()) {
        let cfg = WorkloadConfig::new(6).with_seed(seed);
        let (workload, _) = generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
        let est = gmark_core::selectivity::Estimator::new(&schema);
        for gq in &workload.queries {
            // The generator statically verifies non-recursive chains (and
            // records `target` only when honored); recursive rules keep the
            // paper's typing-level guarantee and are exempt here.
            if gq.query.is_recursive() {
                continue;
            }
            if let Some(target) = gq.target {
                if let Some(alpha) = est.alpha(&gq.query) {
                    prop_assert_eq!(
                        alpha,
                        target.alpha(),
                        "estimator {} vs target {} on {}",
                        alpha,
                        target.alpha(),
                        gq.query.display(&schema)
                    );
                }
            }
        }
    }
}
