//! The triple-store engine (`S`-style: a SPARQL 1.1 property-path engine).
//!
//! Each conjunct is treated as a SPARQL property path and evaluated with
//! the product-automaton algorithm over the store's sorted indexes — no
//! per-step intermediate relations are materialized, which is why this
//! architecture overtakes the relational engine on large linear and on
//! quadratic non-recursive workloads (Fig. 12(b)/(c)). The conjunct
//! results are then joined in the order of the query plan.
//!
//! On recursive queries the per-source product BFS touches a large part of
//! `V × Q` per source; with the measurement budgets of Section 7 this
//! engine finishes only the small instances — Table 4's `S` row.

use crate::context::EvalContext;
use crate::joiner::{join_all, union_of_rules, ConjunctPairs};
use crate::relations::Relation;
use crate::{eval_rpq, Answers, Budget, EvalError, QueryPlan};
use gmark_core::query::Query;
use std::sync::Arc;

/// Evaluates every conjunct of a rule as a property path, in declaration
/// order — a sub-expression cache hit replaces the whole product BFS
/// (charged its cardinality check only); on a miss the automaton, memoized
/// in the shared context, runs over the graph — then joins the results in
/// plan order.
pub(crate) fn evaluate(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    union_of_rules(query, plan, budget, |rule, steps| {
        let mut paths: Vec<Arc<Relation>> = Vec::with_capacity(rule.body.len());
        for c in &rule.body {
            paths.push(match ctx.cached_expr(&c.expr, budget)? {
                Some(rel) => rel,
                None => Arc::new(eval_rpq(
                    ctx.view(),
                    &ctx.nfa(&c.expr),
                    None,
                    false,
                    budget,
                )?),
            });
        }
        let ordered: Vec<ConjunctPairs<'_>> = steps
            .iter()
            .map(|step| ConjunctPairs {
                src: rule.body[step.conjunct].src,
                trg: rule.body[step.conjunct].trg,
                pairs: &paths[step.conjunct],
            })
            .collect();
        join_all(&ordered, &rule.head, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, graph5 as graph, sym};
    use crate::EngineKind;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Var};

    fn eval(kind: EngineKind, q: &Query) -> Answers {
        kind.evaluate(&EvalContext::new(&graph()), q, None, &Budget::default())
            .unwrap()
    }

    #[test]
    fn agrees_with_relational_on_chains() {
        let cases = vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![
                RegularExpr::symbol(sym(0)),
                RegularExpr::symbol(sym(1)),
            ]),
            chain(vec![
                RegularExpr::union(vec![PathExpr(vec![sym(0)]), PathExpr(vec![sym(1)])]),
                RegularExpr::symbol(sym(0).flipped()),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
            chain(vec![
                RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1).flipped()])]),
                RegularExpr::symbol(sym(1)),
            ]),
        ];
        for q in cases {
            let a = eval(EngineKind::TripleStore, &q);
            let b = eval(EngineKind::Relational, &q);
            assert_eq!(a, b, "mismatch on {q:?}");
        }
    }

    #[test]
    fn boolean_and_union_queries() {
        let q = Query::new(vec![
            Rule {
                head: vec![],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(1),
                }],
            },
            Rule {
                head: vec![],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                }],
            },
        ])
        .unwrap();
        let a = eval(EngineKind::TripleStore, &q);
        assert!(a.non_empty());
    }

    #[test]
    fn star_shaped_query() {
        // (?c, a, ?x), (?c, b, ?y): center variable joins both.
        let q = Query::single(Rule {
            head: vec![Var(1), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(2),
                },
            ],
        })
        .unwrap();
        let a = eval(EngineKind::TripleStore, &q);
        let b = eval(EngineKind::Relational, &q);
        assert_eq!(a, b);
        // Node 0: a→1, b→4 contributes (1,4); node 1: a→2, b→3 → (2,3);
        // node 2: a→0, b→3 → (0,3).
        assert_eq!(a.rows().collect::<Vec<_>>(), [[0, 3], [1, 4], [2, 3]]);
    }
}
