//! The navigational engine (`G`-style: a native graph database speaking
//! openCypher).
//!
//! Two properties of the paper's system `G` are reproduced:
//!
//! 1. **Query degradation.** openCypher variable-length patterns support
//!    neither inverses nor concatenations under a Kleene star, so such
//!    queries run in a weakened form — "the corresponding openCypher query
//!    has only the non-inverse symbol and/or the first symbol in a
//!    concatenation of symbols" (Section 7.1). This engine evaluates that
//!    degraded query, so its answers on recursive queries legitimately
//!    differ from the other engines — the reason the paper reports `G`
//!    returning empty/deviating results in Table 4.
//! 2. **Seed-driven navigation.** Evaluation expands bindings conjunct by
//!    conjunct from already-bound variables (pattern matching by
//!    traversal), rather than materializing whole relations. Starting
//!    seeds are the candidate nodes of the first conjunct's source.
//!
//! Variable-length patterns in openCypher also bind at least one hop by
//! default (`*` means `*1..`); gMark's star includes ε. The translator
//! emits `*0..` so this engine keeps ε — the degradation above is the only
//! semantic difference retained, keeping the comparison interpretable.

use crate::automaton::eval_rpq;
use crate::context::EvalContext;
use crate::joiner::{union_of_rules, BindingTable, ConjunctPairs};
use crate::planner::ConjunctStep;
use crate::relations::Relation;
use crate::{Answers, Budget, EvalError, QueryPlan};
use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule};
use gmark_store::NodeId;
use std::sync::Arc;

/// Section 7.1's degradation: under a star, keep each disjunct's first
/// non-inverse symbol (paths reduce to length one; inverse-only paths keep
/// their first symbol with the inversion dropped). Only expressions are
/// rewritten, so the result is as well-formed as the input was.
pub fn degrade_for_cypher(query: &Query) -> (Query, bool) {
    let mut lossy = false;
    let rules = query
        .rules
        .iter()
        .map(|r| Rule {
            head: r.head.clone(),
            body: r
                .body
                .iter()
                .map(|c| Conjunct {
                    src: c.src,
                    trg: c.trg,
                    expr: degrade_expr(&c.expr, &mut lossy),
                })
                .collect(),
        })
        .collect();
    (Query { rules }, lossy)
}

fn degrade_expr(expr: &RegularExpr, lossy: &mut bool) -> RegularExpr {
    if !expr.starred {
        return expr.clone();
    }
    let mut disjuncts = Vec::new();
    for p in &expr.disjuncts {
        if p.is_empty() {
            continue;
        }
        let degraded = if let Some(sym) = p.0.iter().find(|s| !s.inverse) {
            if p.len() > 1 || p.0.iter().any(|s| s.inverse) {
                *lossy = true;
            }
            PathExpr(vec![*sym])
        } else {
            *lossy = true;
            PathExpr(vec![p.0[0].flipped()]) // drop the inversion
        };
        if !disjuncts.contains(&degraded) {
            disjuncts.push(degraded);
        }
    }
    if disjuncts.is_empty() {
        // Only ε disjuncts: the star is the identity.
        disjuncts.push(PathExpr::epsilon());
    }
    RegularExpr {
        disjuncts,
        starred: true,
    }
}

/// Evaluates the degraded query by seed-driven navigation along the plan.
/// Degradation rewrites conjunct *expressions* only — rule and conjunct
/// positions are preserved, so a plan computed on the original query
/// orders the degraded one correctly.
pub(crate) fn evaluate(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    let (query, _lossy) = degrade_for_cypher(query);
    union_of_rules(&query, plan, budget, |rule, steps| {
        navigate_rule(ctx, rule, steps, budget)
    })
}

/// Seed-driven evaluation of one rule along the planned steps: each
/// conjunct's pairs are computed by automaton BFS *from the currently
/// bound seeds only* — flipped conjuncts traversing their reversed
/// expression from the target side — and joined into the running table at
/// once, so the next conjunct sees tight seeds.
fn navigate_rule(
    ctx: &EvalContext<'_>,
    rule: &Rule,
    steps: &[ConjunctStep],
    budget: &Budget,
) -> Result<BindingTable, EvalError> {
    let mut table = BindingTable::unit();
    for step in steps {
        budget.check_time()?;
        let c = &rule.body[step.conjunct];
        let from = if step.flip { c.trg } else { c.src };
        // Seeds: the bound values of `from` if available, else all nodes.
        let bound_seeds: Option<Vec<NodeId>> = table.col(from).map(|col| {
            let mut seeds: Vec<NodeId> = table.rows().map(|row| row[col]).collect();
            seeds.sort_unstable();
            seeds.dedup();
            seeds
        });
        // An unbound forward conjunct is a whole-expression evaluation —
        // exactly the form the shared sub-expression cache holds (BFS
        // from every node produces the full relation, so the hit's
        // cardinality charge matches what navigation would have paid).
        // Bound or flipped traversals stay seed-driven BFS: there a
        // cached full relation would be charged where navigation only
        // explores a subset.
        let pairs: Arc<Relation> = if !step.flip && bound_seeds.is_none() {
            match ctx.cached_expr(&c.expr, budget)? {
                Some(hit) => hit,
                None => navigate(ctx, c, false, None, budget)?,
            }
        } else {
            navigate(ctx, c, step.flip, bound_seeds.as_deref(), budget)?
        };
        let conjunct = ConjunctPairs {
            src: c.src,
            trg: c.trg,
            pairs: &pairs,
        };
        table = table.extend(&conjunct, budget)?;
    }
    Ok(table)
}

/// One conjunct's pairs by automaton BFS from `seeds` (`None` = every
/// node), flipped conjuncts traversing their reversed expression from
/// the target side.
fn navigate(
    ctx: &EvalContext<'_>,
    c: &Conjunct,
    flip: bool,
    seeds: Option<&[NodeId]>,
    budget: &Budget,
) -> Result<Arc<Relation>, EvalError> {
    let expr = if flip {
        RegularExpr {
            disjuncts: c.expr.disjuncts.iter().map(PathExpr::reversed).collect(),
            starred: c.expr.starred,
        }
    } else {
        c.expr.clone()
    };
    let nfa = ctx.nfa(&expr);
    Ok(Arc::new(eval_rpq(ctx.view(), &nfa, seeds, flip, budget)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, graph5 as graph, sym};
    use crate::EngineKind;
    use gmark_core::query::Var;

    fn eval(kind: EngineKind, q: &Query) -> Answers {
        kind.evaluate(&EvalContext::new(&graph()), q, None, &Budget::default())
            .unwrap()
    }

    #[test]
    fn agrees_on_non_degraded_queries() {
        // No inverse/concatenation under stars: answers must match the
        // relational reference exactly.
        let cases = vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![RegularExpr::symbol(sym(0).flipped())]),
            chain(vec![
                RegularExpr::path(PathExpr(vec![sym(0), sym(1)])),
                RegularExpr::symbol(sym(1).flipped()),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
        ];
        for q in cases {
            let a = eval(EngineKind::Navigational, &q);
            let b = eval(EngineKind::Relational, &q);
            assert_eq!(a, b, "mismatch on {q:?}");
        }
    }

    #[test]
    fn degradation_changes_recursive_answers() {
        // (a⁻·a)* degrades to a*, so answers may differ from the faithful
        // evaluation — the Table 4 phenomenon.
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(0).flipped(),
            sym(0),
        ])])]);
        let nav = eval(EngineKind::Navigational, &q);
        let reference = eval(EngineKind::Relational, &q);
        assert_ne!(nav, reference, "degradation should be observable here");
    }

    #[test]
    fn degrade_marks_lossiness() {
        let clean = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let (dq, lossy) = degrade_for_cypher(&clean);
        assert!(!lossy);
        assert_eq!(dq, clean);

        let dirty = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(0),
            sym(1),
        ])])]);
        let (dq, lossy) = degrade_for_cypher(&dirty);
        assert!(lossy);
        assert_eq!(
            dq.rules[0].body[0].expr,
            RegularExpr::star(vec![PathExpr(vec![sym(0)])])
        );

        let inverse_only = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(1).flipped()
        ])])]);
        let (dq, lossy) = degrade_for_cypher(&inverse_only);
        assert!(lossy);
        assert_eq!(
            dq.rules[0].body[0].expr,
            RegularExpr::star(vec![PathExpr(vec![sym(1)])])
        );
    }

    #[test]
    fn non_starred_expressions_untouched() {
        let q = chain(vec![RegularExpr::union(vec![
            PathExpr(vec![sym(0), sym(1).flipped()]),
            PathExpr(vec![sym(1)]),
        ])]);
        let (dq, lossy) = degrade_for_cypher(&q);
        assert!(!lossy);
        assert_eq!(dq, q);
    }

    #[test]
    fn boolean_query_works() {
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval(EngineKind::Navigational, &q);
        assert!(a.non_empty());
    }
}
