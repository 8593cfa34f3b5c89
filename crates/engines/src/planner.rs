//! The shared, statistics-driven query planner.
//!
//! gMark's generator knows everything a cost-based optimizer needs — the
//! schema, per-predicate cardinalities, and the selectivity algebra of
//! Section 5.2. [`plan_query`] turns them into one plan per query,
//! computed **once** in [`crate::matrix::evaluate_matrix_with_schema`] and
//! followed by every engine cell; no engine orders conjuncts on its own. A query
//! evaluated without a plan follows [`QueryPlan::declaration_order`] —
//! the same ordering loop with every estimate equal.
//!
//! # Statistics inputs
//!
//! * per-symbol edge counts and distinct-source/distinct-target counts,
//!   from [`EvalContext::symbol_stats`] (a pure function of the graph,
//!   cached per predicate and pre-warmed by the matrix harness);
//! * the number of graph nodes;
//! * optionally, the schema's selectivity classes via
//!   [`gmark_core::selectivity::Estimator`] — used to classify starred
//!   subexpressions (a quadratic-class closure is costed at `n²`, the
//!   paper's Table 4 blow-up, while constant/linear-class closures stay
//!   near the base relation's size).
//!
//! # Cost model
//!
//! Estimated cardinalities are propagated bottom-up over the expression
//! structure with textbook independence assumptions, entirely in
//! **integer arithmetic** (`u128` intermediates, saturating) so plans are
//! bit-reproducible on every platform:
//!
//! * symbol `a±` — its edge count; distinct endpoints from the stats;
//! * concatenation `p₁·p₂` — `|p₁|·|p₂| / max(dtrg(p₁), dsrc(p₂))`
//!   (the classic equi-join estimate on the shared middle variable);
//! * disjunction — sum of the disjunct estimates, endpoints capped at `n`;
//! * star `p*` — `n` identity pairs plus a growth factor on the base
//!   estimate, capped at `n²`; with a schema, the selectivity class of
//!   the starred expression decides between the capped-linear and the
//!   full-quadratic estimate.
//!
//! Conjunct orders are chosen greedily per rule: start from the
//! smallest-estimate conjunct, then repeatedly pick the conjunct that
//! minimizes the estimated size of the joined intermediate (semi-join
//! when both variables are bound, fan-out division when one is, Cartesian
//! otherwise), preferring connected conjuncts and breaking every tie by
//! declaration index. A step is only the pick and its estimate: which end
//! of a conjunct is bound is read off the binding table by whichever
//! engine needs it.
//!
//! # Determinism
//!
//! A [`QueryPlan`] is a pure function of `(graph, schema, query)`: no
//! wall clock, no hashing iteration order, no floats. The matrix harness
//! computes all plans before any cell clock starts, so planner-on eval
//! artifacts stay byte-identical at every thread count — the same
//! contract the rest of the pipeline keeps.

use crate::context::EvalContext;
use gmark_core::query::{PathExpr, Query, RegularExpr, Rule, Symbol, Var};
use gmark_core::schema::Schema;
use gmark_core::selectivity::Estimator;

/// How much a capped-linear Kleene closure is assumed to expand its base
/// relation. A closure reaches everything within any path length, so the
/// base estimate understates it badly; this factor keeps starred
/// conjuncts ordered *after* comparable non-starred ones without
/// declaring every closure quadratic.
const STAR_GROWTH: u128 = 8;

/// One conjunct pick of a rule's join order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConjunctStep {
    /// Index into the rule's body (declaration position).
    pub conjunct: usize,
    /// Estimated pair cardinality of the conjunct's expression.
    pub est_pairs: u64,
}

/// The planned evaluation order of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Conjunct picks, in execution order (a permutation of the body).
    pub steps: Vec<ConjunctStep>,
    /// Estimated distinct projected rows this rule contributes.
    pub est_rows: u64,
}

/// A full query plan: per-rule conjunct orders plus the estimated answer
/// cardinality, produced by [`plan_query`] and shared by all four engines
/// (the estimate is what `eval.txt` prints next to each cell's actual
/// count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// One plan per rule, in rule order.
    pub rules: Vec<RulePlan>,
    /// Estimated distinct answer count of the whole query (sum over
    /// rules, an upper bound that ignores cross-rule overlap).
    pub est_answers: u64,
}

impl QueryPlan {
    /// The plan of a query nobody planned: [`plan_query`]'s own ordering
    /// loop run with every estimate equal, so each pick is the
    /// earliest-declared conjunct sharing a variable with those already
    /// picked (the earliest-declared of all when none does). This is what
    /// [`crate::EngineKind::evaluate`] follows without a plan —
    /// `MatrixOptions { plan: false, .. }`, the differential reference the
    /// planner is tested against.
    pub fn declaration_order(query: &Query) -> QueryPlan {
        const EQUAL: ExprEst = ExprEst {
            pairs: 1,
            dsrc: 1,
            dtrg: 1,
        };
        QueryPlan::of_rules(
            query
                .rules
                .iter()
                .map(|rule| plan_rule(rule, &vec![EQUAL; rule.body.len()], 1))
                .collect(),
        )
    }

    fn of_rules(rules: Vec<RulePlan>) -> QueryPlan {
        let est_answers = rules
            .iter()
            .fold(0u128, |acc, rp| acc.saturating_add(rp.est_rows as u128));
        QueryPlan {
            rules,
            est_answers: clamp_u64(est_answers),
        }
    }

    /// Whether the plan orders exactly this query: one [`RulePlan`] per
    /// rule, each a permutation of its rule's body. Checked once, at the
    /// engine entry point — a stale or mismatched plan is replaced by
    /// [`QueryPlan::declaration_order`] instead of evaluating the wrong
    /// conjuncts.
    pub(crate) fn fits(&self, query: &Query) -> bool {
        self.rules.len() == query.rules.len()
            && self.rules.iter().zip(&query.rules).all(|(rp, rule)| {
                let mut seen = vec![false; rule.body.len()];
                rp.steps.len() == seen.len()
                    && rp.steps.iter().all(|s| {
                        seen.get_mut(s.conjunct)
                            .is_some_and(|slot| !std::mem::replace(slot, true))
                    })
            })
    }
}

/// Bottom-up cardinality estimate of one expression.
#[derive(Debug, Clone, Copy)]
struct ExprEst {
    /// Estimated result pairs.
    pairs: u128,
    /// Estimated distinct source nodes.
    dsrc: u128,
    /// Estimated distinct target nodes.
    dtrg: u128,
}

/// Plans one query against a graph's statistics (and, when available,
/// the schema's selectivity classes). Pure and deterministic — see the
/// module docs.
pub fn plan_query(ctx: &EvalContext<'_>, schema: Option<&Schema>, query: &Query) -> QueryPlan {
    let n = ctx.view().node_count() as u128;
    QueryPlan::of_rules(
        query
            .rules
            .iter()
            .map(|rule| {
                let ests: Vec<ExprEst> = rule
                    .body
                    .iter()
                    .map(|c| expr_est(ctx, schema, &c.expr, n))
                    .collect();
                plan_rule(rule, &ests, n)
            })
            .collect(),
    )
}

/// The one conjunct-ordering loop of the crate: greedy over the
/// per-conjunct estimates `ests` (one per body position) on an `n`-node
/// graph — see the module docs.
fn plan_rule(rule: &Rule, ests: &[ExprEst], n: u128) -> RulePlan {
    let len = rule.body.len();
    let n2 = n.saturating_mul(n).max(1);

    let mut used = vec![false; len];
    let mut bound: Vec<Var> = Vec::new();
    let mut steps = Vec::with_capacity(len);
    let mut rows: u128 = 0;

    for step in 0..len {
        // Candidate cost: the estimated intermediate size after joining
        // the conjunct into the current table. Connectivity dominates the
        // pick — a cartesian product is taken only when no remaining
        // conjunct shares a variable with the table (matching the
        // engines' own historical heuristics, and keeping seed-driven
        // traversals seeded): an attractive-looking cross product is
        // still a cross product.
        let mut best: Option<(bool, u128, usize)> = None; // (disconnected, rows, idx)
        for (i, est) in ests.iter().enumerate() {
            if used[i] {
                continue;
            }
            let c = &rule.body[i];
            let sb = bound.contains(&c.src);
            let tb = bound.contains(&c.trg);
            let (next_rows, connected) = if step == 0 {
                (est.pairs, true)
            } else if sb && tb {
                // Semi-join: filters the table, never grows it.
                let sel = rows.saturating_mul(est.pairs) / n2;
                (sel.min(rows).max(1), true)
            } else if sb || tb {
                // Fan-out from the bound end.
                let distinct = if sb { est.dsrc } else { est.dtrg };
                let fan = rows.saturating_mul(est.pairs) / distinct.max(1);
                (fan.max(1), true)
            } else {
                (rows.saturating_mul(est.pairs).max(1), false)
            };
            let key = (!connected, next_rows, i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, next_rows, idx)) = best else {
            break; // empty body
        };
        used[idx] = true;
        rows = next_rows;
        for v in [rule.body[idx].src, rule.body[idx].trg] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        steps.push(ConjunctStep {
            conjunct: idx,
            est_pairs: clamp_u64(ests[idx].pairs),
        });
    }

    // Distinct projected rows: bounded by the joined estimate and by
    // n^arity (a Boolean head has at most one answer).
    let mut cap: u128 = 1;
    for _ in 0..rule.head.len() {
        cap = cap.saturating_mul(n.max(1));
    }
    RulePlan {
        steps,
        est_rows: clamp_u64(rows.min(cap)),
    }
}

/// Estimate of one regular expression: disjuncts are summed, a star is
/// classified (schema) or capped (graph-only) — see the module docs.
///
/// When the cache fill counted the expression, the statistical model is
/// short-circuited with the **exact** cardinality
/// ([`EvalContext::exact_expr_len`]): the fill runs during the same
/// warm-up phase, before any plan is computed, and counts every
/// conjunct's expression under the tuple cap whatever the engine
/// selection and whether a cache is kept, so this stays a pure function
/// of `(graph, query, cap)` and plans remain thread-count-invariant.
/// Distinct-endpoint counts keep their capped statistical estimates (the fill does not
/// record them).
fn expr_est(
    ctx: &EvalContext<'_>,
    schema: Option<&Schema>,
    expr: &RegularExpr,
    n: u128,
) -> ExprEst {
    if let Some(exact) = ctx.exact_expr_len(expr) {
        let exact = exact as u128;
        return ExprEst {
            pairs: exact,
            dsrc: exact.min(n),
            dtrg: exact.min(n),
        };
    }
    let mut pairs: u128 = 0;
    let mut dsrc: u128 = 0;
    let mut dtrg: u128 = 0;
    for path in &expr.disjuncts {
        let p = path_est(ctx, path, n);
        pairs = pairs.saturating_add(p.pairs);
        dsrc = dsrc.saturating_add(p.dsrc);
        dtrg = dtrg.saturating_add(p.dtrg);
    }
    dsrc = dsrc.min(n);
    dtrg = dtrg.min(n);
    if expr.starred {
        let n2 = n.saturating_mul(n);
        let quadratic = schema.is_some_and(|s| {
            let classes = Estimator::new(s).expr_classes(expr);
            classes.values().map(|t| t.alpha()).max() == Some(2)
        });
        pairs = if quadratic {
            n2
        } else {
            n.saturating_add(pairs.saturating_mul(STAR_GROWTH)).min(n2)
        };
        // The closure contains ε: every node is a source and a target.
        dsrc = n;
        dtrg = n;
    }
    ExprEst { pairs, dsrc, dtrg }
}

/// Estimate of one concatenation path (the equi-join chain rule).
fn path_est(ctx: &EvalContext<'_>, path: &PathExpr, n: u128) -> ExprEst {
    let Some((&first, rest)) = path.0.split_first() else {
        // ε: the identity relation.
        return ExprEst {
            pairs: n,
            dsrc: n,
            dtrg: n,
        };
    };
    let mut acc = sym_est(ctx, first);
    for &sym in rest {
        let next = sym_est(ctx, sym);
        let key = acc.dtrg.max(next.dsrc).max(1);
        let pairs = acc.pairs.saturating_mul(next.pairs) / key;
        acc = ExprEst {
            pairs,
            dsrc: acc.dsrc.min(pairs),
            dtrg: next.dtrg.min(pairs),
        };
    }
    acc
}

fn sym_est(ctx: &EvalContext<'_>, sym: Symbol) -> ExprEst {
    let st = ctx.symbol_stats(sym);
    ExprEst {
        pairs: st.edges as u128,
        dsrc: st.distinct_src as u128,
        dtrg: st.distinct_trg as u128,
    }
}

fn clamp_u64(v: u128) -> u64 {
    v.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, sym};
    use gmark_core::query::Conjunct;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    /// Predicate 0 is dense (8 edges), predicate 1 sparse (2 edges).
    fn graph() -> Graph {
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[6]), 2);
        for (s, t) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 1),
            (4, 2),
            (5, 0),
            (0, 3),
            (1, 4),
        ] {
            b.edge(s, 0, t);
        }
        for (s, t) in [(1, 3), (2, 3)] {
            b.edge(s, 1, t);
        }
        b.build()
    }

    #[test]
    fn single_symbol_estimate_is_the_edge_count() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let q = chain(vec![RegularExpr::symbol(sym(0))]);
        let plan = plan_query(&ctx, None, &q);
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.rules[0].steps.len(), 1);
        assert_eq!(plan.rules[0].steps[0].est_pairs, 8);
        assert_eq!(plan.est_answers, 8);
    }

    #[test]
    fn selective_conjunct_leads_the_order() {
        // (?x0, p0, ?x1), (?x1, p1, ?x2): the sparse p1 conjunct (2
        // edges) must be picked first; p0 then joins at its target x1.
        let g = graph();
        let ctx = EvalContext::new(&g);
        let q = chain(vec![
            RegularExpr::symbol(sym(0)),
            RegularExpr::symbol(sym(1)),
        ]);
        let plan = plan_query(&ctx, None, &q);
        let steps = &plan.rules[0].steps;
        assert_eq!(steps[0].conjunct, 1, "sparse conjunct first: {steps:?}");
        assert_eq!(steps[1].conjunct, 0);
    }

    #[test]
    fn star_is_costed_larger_than_its_base() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let base = chain(vec![RegularExpr::symbol(sym(0))]);
        let star = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let pb = plan_query(&ctx, None, &base);
        let ps = plan_query(&ctx, None, &star);
        assert!(
            ps.rules[0].steps[0].est_pairs > pb.rules[0].steps[0].est_pairs,
            "closure must be estimated above its base"
        );
        // Estimates never exceed n² for a binary head.
        assert!(ps.est_answers <= 36);
    }

    #[test]
    fn boolean_head_estimates_at_most_one_answer() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let plan = plan_query(&ctx, None, &q);
        assert_eq!(plan.est_answers, 1);
    }

    #[test]
    fn plans_are_deterministic_and_cover_every_conjunct() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let q = chain(vec![
            RegularExpr::symbol(sym(0)),
            RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
            RegularExpr::symbol(sym(1)),
        ]);
        let a = plan_query(&ctx, None, &q);
        let b = plan_query(&ctx, None, &q);
        assert_eq!(a, b, "planning must be a pure function");
        let mut picked: Vec<usize> = a.rules[0].steps.iter().map(|s| s.conjunct).collect();
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2], "order is a permutation of the body");
    }

    #[test]
    fn disconnected_groups_start_with_their_smallest_member() {
        // Two components: {x0 -p0- x1} and {x2 -p1- x3}. The sparse p1
        // conjunct seeds the order; the p0 conjunct then joins as a
        // Cartesian component.
        let q = Query::single(Rule {
            head: vec![Var(0), Var(3)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(2),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(3),
                },
            ],
        })
        .unwrap();
        let g = graph();
        let ctx = EvalContext::new(&g);
        let plan = plan_query(&ctx, None, &q);
        let order: Vec<usize> = plan.rules[0].steps.iter().map(|s| s.conjunct).collect();
        assert_eq!(order, vec![1, 0], "smallest conjunct seeds the order");
    }

    fn conjunct(src: u32, p: usize, trg: u32) -> Conjunct {
        Conjunct {
            src: Var(src),
            expr: RegularExpr::symbol(sym(p)),
            trg: Var(trg),
        }
    }

    #[test]
    fn declaration_order_is_connected_first_then_earliest_declared() {
        // Body: (x0,x1), (x5,x6), (x2,x1), (x1,x3). After the seed, the
        // disconnected (x5,x6) waits; (x2,x1) is the earliest connected
        // conjunct, joined at its target; then (x1,x3); the Cartesian
        // component comes last.
        let q = Query::single(Rule {
            head: vec![Var(0), Var(6)],
            body: vec![
                conjunct(0, 0, 1),
                conjunct(5, 1, 6),
                conjunct(2, 0, 1),
                conjunct(1, 1, 3),
            ],
        })
        .unwrap();
        let plan = QueryPlan::declaration_order(&q);
        let order: Vec<usize> = plan.rules[0].steps.iter().map(|s| s.conjunct).collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        assert!(plan.fits(&q));
        // It reads no statistics: the dense/sparse contrast that reorders
        // `selective_conjunct_leads_the_order` leaves a chain as declared.
        let chain = chain(vec![
            RegularExpr::symbol(sym(0)),
            RegularExpr::symbol(sym(1)),
        ]);
        let plan = QueryPlan::declaration_order(&chain);
        let order: Vec<usize> = plan.rules[0].steps.iter().map(|s| s.conjunct).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn fits_rejects_plans_of_other_queries() {
        let two = chain(vec![
            RegularExpr::symbol(sym(0)),
            RegularExpr::symbol(sym(1)),
        ]);
        let one = chain(vec![RegularExpr::symbol(sym(0))]);
        let g = graph();
        let ctx = EvalContext::new(&g);
        let plan = plan_query(&ctx, None, &two);
        assert!(plan.fits(&two));
        assert!(!plan.fits(&one), "wrong body length");
        let mut repeated = plan.clone();
        repeated.rules[0].steps[1].conjunct = repeated.rules[0].steps[0].conjunct;
        assert!(!repeated.fits(&two), "a conjunct picked twice");
        let mut extra_rule = plan.clone();
        extra_rule.rules.push(plan.rules[0].clone());
        assert!(!extra_rule.fits(&two), "wrong rule count");
    }
}
