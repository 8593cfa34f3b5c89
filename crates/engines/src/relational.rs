//! The relational engine (`P`-style: PostgreSQL with recursive views).
//!
//! Evaluates the plan the paper's SQL:1999 translation induces: every
//! conjunct becomes a fully materialized binary relation (scans + joins +
//! `UNION`s; for a star, the whole closure the `WITH RECURSIVE` CTE
//! defines, materialized by one reachability traversal per source) —
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
use crate::{Answers, Budget, ConjunctStep, EvalError, QueryPlan};
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
        let conjunct = |step: &ConjunctStep| &rule.body[step.conjunct];
        let relations = steps
            .iter()
            .map(|step| ctx.expr_relation(&conjunct(step).expr, budget))
            .collect::<Result<Vec<_>, _>>()?;
        let conjuncts: Vec<ConjunctPairs<'_>> = steps
            .iter()
            .zip(&relations)
            .map(|(step, pairs)| ConjunctPairs {
                src: conjunct(step).src,
                trg: conjunct(step).trg,
                pairs,
            })
            .collect();
        join_all(&conjuncts, &rule.head, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph4 as graph, sym};
    use crate::{eval_rpq, EngineKind};
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Var};

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
        assert_eq!(a.rows().collect::<Vec<_>>(), [[1, 3], [2, 3]]);
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
        assert_eq!(a.rows().collect::<Vec<_>>(), [[0, 3], [1, 3], [3, 3]]);
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
        let nfa = crate::compile_nfa(&q.rules[0].body[0].expr);
        let bfs = eval_rpq(&graph(), &nfa, None, false, &Budget::default()).unwrap();
        let expected: Vec<[_; 2]> = bfs.pairs().iter().map(|&(s, t)| [s, t]).collect();
        assert_eq!(a.rows().collect::<Vec<_>>(), expected);
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
