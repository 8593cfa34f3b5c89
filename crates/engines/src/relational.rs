//! The relational engine (`P`-style: PostgreSQL with recursive views).
//!
//! Evaluates the plan the paper's SQL:1999 translation induces: every
//! conjunct becomes a fully materialized binary relation (scans + joins +
//! `UNION`s; a `WITH RECURSIVE` linear-recursion fixpoint for stars) —
//! with no property-path shortcuts — and the relations are then joined in
//! the order of the query plan.
//!
//! Profile reproduced from the paper: strong on constant- and
//! linear-selectivity non-recursive queries (Fig. 12(a)/(b), where "P
//! reacts better than S, G, and D"), but materializing a
//! quadratic-selectivity transitive closure exhausts its budget — the "-"
//! cells of Table 4.

use crate::context::EvalContext;
use crate::joiner::{join_all, union_of_rules, ConjunctPairs};
use crate::{Answers, Budget, EvalError, QueryPlan};
use gmark_core::query::Query;

/// Materializes every conjunct of a rule in plan order — base symbol
/// relations are the context's shared sorted indexes; a sub-expression
/// cache hit mounts the shared relation directly (charged its cardinality
/// check only), a miss computes through the sorted kernels — then joins
/// them in that order.
pub(crate) fn evaluate(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    union_of_rules(query, plan, budget, |rule, steps| {
        let mut conjuncts = Vec::with_capacity(steps.len());
        for step in steps {
            let c = &rule.body[step.conjunct];
            conjuncts.push(ConjunctPairs {
                src: c.src,
                trg: c.trg,
                pairs: ctx.expr_relation(&c.expr, budget)?,
            });
        }
        join_all(&conjuncts, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Symbol, Var};
    use gmark_core::schema::PredicateId;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    /// a: 0→1, 1→2, 2→0, 3→1;  b: 1→3, 2→3.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 2);
        for (s, t) in [(0, 1), (1, 2), (2, 0), (3, 1)] {
            b.edge(s, 0, t);
        }
        for (s, t) in [(1, 3), (2, 3)] {
            b.edge(s, 1, t);
        }
        b.build()
    }

    fn eval(q: &Query, budget: &Budget) -> Result<Answers, EvalError> {
        EngineKind::Relational.evaluate(&EvalContext::new(&graph()), q, None, budget)
    }

    #[test]
    fn single_conjunct() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(1)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval(&q, &Budget::default()).unwrap();
        assert_eq!(a.tuples, vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn two_conjunct_chain() {
        // (?x, a, ?y), (?y, b, ?z) projected on (x, z).
        let q = Query::single(Rule {
            head: vec![Var(0), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(1),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(2),
                },
            ],
        })
        .unwrap();
        let a = eval(&q, &Budget::default()).unwrap();
        // a·b pairs: (0,3) via 1, (1,3) via 2, (3,3) via 1.
        assert_eq!(a.tuples, vec![vec![0, 3], vec![1, 3], vec![3, 3]]);
    }

    #[test]
    fn recursive_conjunct() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval(&q, &Budget::default()).unwrap();
        let nfa_pairs = crate::automaton::eval_rpq_pairs(
            &graph(),
            &q.rules[0].body[0].expr,
            &Budget::default(),
        )
        .unwrap();
        let expected: Vec<Vec<_>> = nfa_pairs.into_iter().map(|(s, t)| vec![s, t]).collect();
        assert_eq!(a.tuples, expected);
    }

    #[test]
    fn boolean_query() {
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval(&q, &Budget::default()).unwrap();
        assert!(a.non_empty());
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn union_of_rules() {
        let mk = |p: usize| Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(p)),
                trg: Var(1),
            }],
        };
        let q = Query::new(vec![mk(0), mk(1)]).unwrap();
        let a = eval(&q, &Budget::default()).unwrap();
        assert_eq!(a.count(), 6); // 4 a-edges + 2 b-edges, all distinct
    }

    #[test]
    fn budget_propagates() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
                trg: Var(1),
            }],
        })
        .unwrap();
        let tight = Budget {
            max_tuples: 2,
            ..Budget::default()
        };
        assert!(eval(&q, &tight).is_err());
    }
}
