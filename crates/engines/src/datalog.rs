//! The `D`-style engine: a UCRPQ translated to a positive Datalog program
//! and run bottom-up, semi-naively.
//!
//! The paper's system `D` is "a modern Datalog engine" — the only system
//! that completed every recursive query of Table 4. The stand-in evaluates
//! the fragment the translation needs: positive Datalog whose body atoms
//! are unary (`node(X)`) or binary, with any recursion — linear,
//! non-linear, mutual. The program is [`Program::from_query`]'s, the one
//! `gmark-translate::datalog` prints, with each `ans` body in the plan's
//! conjunct order.
//!
//! What `D` shares with the other engines is the data and the kernel:
//! every predicate is a [`Relation`] — an `edge` atom mounts the context's
//! relation of its symbol, in the symbol's own direction; `node(X)` is the
//! identity relation joined as the self-loop `(X, id, X)`; an IDB predicate
//! grows by sorted difference and union — a rule body is joined left to
//! right by the shared join loop, `join_all`, whose mount hands each atom
//! its relation (the delta at one position, the full relation at the
//! others), storing only the columns the head and the later atoms read,
//! and its head is read off the last atom as a set. What it
//! does not share is the strategy: auxiliary predicates per conjunct, and a
//! delta-driven fixpoint over all rules at once, which re-derives each fact
//! at most once per rule and body position — the architectural reason `D`
//! outlives `P`/`S` on Table 4's quadratic recursive query.
//!
//! # The budget rule
//!
//! The tuple cap decides every too-large cell, so what is charged is part
//! of the engine's contract:
//!
//! * (a) within a body, the raw (pre-dedup) row count after each atom,
//!   checked after every input row — what every join step charges when it
//!   is resolved, counting an atom's rows before it writes any, so an atom
//!   over the cap fails with the same count and derives nothing;
//! * (b) every delta round starts with the clock and with
//!   `|EDB| + |IDB|` — `|EDB|` is [`EvalContext::edb`], nodes plus the
//!   distinct edges of *every* predicate, read off the graph view (no
//!   relation is built for it), `|IDB|` every distinct derived fact, `ans`
//!   included — and a round runs whenever the one before it added a fact
//!   to any predicate, `ans` included. A rule's head is made
//!   a set before it is added, uncharged beyond (a): the join loop
//!   reads it off the last atom's step as the CSR of its head pairs,
//!   never writing that atom's rows or their head cells, and an IDB head
//!   takes the CSR as its [`Relation`] as it is (`p(X, X) :- node(X)` is
//!   the identity's self-loop diagonal), while `ans`'s becomes answers;
//! * (c) the facts a rule derives are visible to the rules after it in the
//!   same round;
//! * (d) round 0 evaluates every rule as written; in delta rounds the
//!   linear recursion `p(X,Y) :- p(X,Z), s(Z,Y)`, with `s` complete after
//!   round 0 and the delta at `p`, is `Δp.compose(s)` with
//!   [`Relation::compose`]'s own charging (per source, after dedup);
//! * (e) `D` consumes no sub-expression cache: a cached result would skip
//!   the charges for auxiliary predicates and raw join products under (a)
//!   and (b), so a hit could complete a cell whose uncached evaluation is
//!   too large — breaking the cache's outcome-identity contract (see the
//!   context module docs).

use crate::context::EvalContext;
use crate::joiner::{join_all, BindingTable, ConjunctPairs};
use crate::planner::QueryPlan;
use crate::relations::Relation;
use crate::{Answers, Budget, EvalError};
use gmark_core::datalog::{DlRule, Head, Pred, Program};
use gmark_core::query::{Query, QueryError, Var};

/// Whether `pred` is complete after round 0: extensional, or defined only
/// by rules with IDB-free bodies (the step predicates of closure
/// translations).
fn stable_after_round0(program: &Program, pred: Pred) -> bool {
    let Pred::Idb(p) = pred else { return true };
    let extensional = |r: &DlRule| r.body.iter().all(|a| !matches!(a.pred, Pred::Idb(_)));
    let mut defining = program.rules.iter().filter(|r| r.head == Head::Idb(p));
    defining.all(extensional)
}

/// Recognizes the canonical linear-recursion shape
/// `p(X, Y) :- p(X, Z), s(Z, Y)` with `X`, `Y`, `Z` distinct variables,
/// returning the step predicate `s`. The caller still has to prove `s`
/// stable before substituting a compose for the join.
fn linear_recursion_step(rule: &DlRule) -> Option<Pred> {
    let (Head::Idb(p), [x, y], [rec, step]) = (rule.head, &rule.args[..], &rule.body[..]) else {
        return None;
    };
    let z = rec.trg;
    let linear = rec.pred == Pred::Idb(p)
        && (rec.src, step.src, step.trg) == (*x, z, *y)
        && x != y
        && z != *x
        && z != *y;
    linear.then_some(step.pred)
}

/// The state of one bottom-up evaluation.
struct Fixpoint<'c, 'g> {
    ctx: &'c EvalContext<'g>,
    budget: &'c Budget,
    /// `node`'s relation.
    node: Relation,
    /// Every fact derived so far, per IDB predicate.
    full: Vec<Relation>,
    /// The facts the current round added, per IDB predicate: the deltas of
    /// the next one.
    fresh: Vec<Relation>,
    answers: Answers,
    /// Whether the current round added an `ans` fact.
    answers_grew: bool,
}

impl Fixpoint<'_, '_> {
    fn relation(&self, pred: Pred) -> &Relation {
        match pred {
            Pred::Node => &self.node,
            Pred::Edge(sym) => self.ctx.relation(sym),
            Pred::Idb(p) => &self.full[p],
        }
    }

    /// Evaluates one rule — its body joined left to right, the mount
    /// handing atom `i` `Δ` instead of its full relation when
    /// `delta_at = Some((i, Δ))` — and adds what it derives.
    fn apply(
        &mut self,
        rule: &DlRule,
        delta_at: Option<(usize, &Relation)>,
    ) -> Result<(), EvalError> {
        let ends: Vec<(Var, Var)> = rule.body.iter().map(|a| (a.src, a.trg)).collect();
        let mount = |i: usize, _: &BindingTable| {
            let atom = &rule.body[i];
            Ok(ConjunctPairs {
                src: atom.src,
                trg: atom.trg,
                pairs: match delta_at {
                    Some((pos, delta)) if pos == i => delta,
                    _ => self.relation(atom.pred),
                },
            })
        };
        let derived = join_all(&ends, &rule.args, self.budget, mount, |_| Ok(()))?;
        match rule.head {
            Head::Idb(p) => self.add(p, derived.into_relation()),
            Head::Ans => {
                let derived = derived.into_answers(self.answers.arity());
                let merged = self.answers.union(&derived);
                self.answers_grew |= merged.count() > self.answers.count();
                self.answers = merged;
            }
        }
        Ok(())
    }

    /// Adds derived facts of IDB predicate `p`; the new ones among them
    /// join the next round's delta.
    fn add(&mut self, p: usize, derived: Relation) {
        let new = derived.difference(&self.full[p]);
        if new.edge_count() > 0 {
            self.full[p] = self.full[p].union(&new);
            self.fresh[p] = self.fresh[p].union(&new);
        }
    }
}

/// Runs `program` bottom-up over the context's graph under the budget rule
/// of the module docs, returning every IDB predicate's facts and the
/// `arity`-wide `ans` facts.
fn semi_naive(
    ctx: &EvalContext<'_>,
    program: &Program,
    arity: usize,
    budget: &Budget,
) -> Result<(Vec<Relation>, Answers), EvalError> {
    let edb = ctx.edb();
    let mut fx = Fixpoint {
        ctx,
        budget,
        node: Relation::identity(ctx.view().node_count()),
        full: vec![Relation::default(); program.idb],
        fresh: vec![Relation::default(); program.idb],
        answers: Answers::from_rows(arity, 0, Vec::new()),
        answers_grew: false,
    };
    // Rule (d): against a stable step, the delta of a linear recursion is
    // one sorted compose. These rounds are `D`'s own: `P`'s closures
    // (`Relation::star`) condense the relation into its strongly connected
    // components and never compose.
    let composes: Vec<Option<Pred>> = program
        .rules
        .iter()
        .map(|r| linear_recursion_step(r).filter(|&s| stable_after_round0(program, s)))
        .collect();

    // Round 0: every rule on everything derived so far.
    for rule in &program.rules {
        fx.apply(rule, None)?;
    }
    // Delta rounds: for each rule and each IDB body position, the last
    // round's delta at that position against everything elsewhere.
    loop {
        let deltas = std::mem::replace(&mut fx.fresh, vec![Relation::default(); program.idb]);
        if !std::mem::take(&mut fx.answers_grew) && deltas.iter().all(|d| d.edge_count() == 0) {
            break;
        }
        budget.check_time()?;
        let idb: usize = fx.full.iter().map(|r| r.edge_count()).sum();
        budget.check_size(edb + idb + fx.answers.count() as usize)?;
        for (rule, compose) in program.rules.iter().zip(&composes) {
            for (pos, atom) in rule.body.iter().enumerate() {
                let delta = match atom.pred {
                    Pred::Idb(p) if deltas[p].edge_count() > 0 => &deltas[p],
                    _ => continue,
                };
                match (pos, compose, rule.head) {
                    (0, Some(step), Head::Idb(p)) => {
                        let derived = delta.compose(fx.relation(*step), budget)?;
                        fx.add(p, derived);
                    }
                    _ => fx.apply(rule, Some((pos, delta)))?,
                }
            }
        }
    }
    Ok((fx.full, fx.answers))
}

/// Translates the query, each `ans` body in the plan's conjunct order, and
/// runs the program against the relations of the shared context. A head
/// variable no conjunct binds is [`EvalError::Unsupported`].
pub(crate) fn evaluate(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    let orders = plan
        .rules
        .iter()
        .map(|r| r.steps.iter().map(|s| s.conjunct));
    let program = Program::from_query(query, orders)
        .map_err(|v| EvalError::Unsupported(QueryError::UnsafeHeadVar(v).to_string()))?;
    Ok(semi_naive(ctx, &program, query.arity(), budget)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, graph5 as graph, sym};
    use crate::EngineKind;
    use gmark_core::datalog::atom;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Var};
    use gmark_store::{EdgeSink, GraphBuilder, TypePartition};

    const X: Var = Var(0);
    const Y: Var = Var(1);
    const Z: Var = Var(2);

    /// The `a`-edges of the fixture graph.
    fn a() -> Pred {
        Pred::Edge(sym(0))
    }

    /// The program's IDB relations over the fixture graph.
    fn run(program: &Program) -> Vec<Relation> {
        let g = graph();
        let ctx = EvalContext::new(&g);
        semi_naive(&ctx, program, 0, &Budget::default()).unwrap().0
    }

    /// `a⁺` by the relational kernels: the reference for the closures.
    fn a_plus() -> Relation {
        let g = graph();
        let a = Relation::of_symbol(&g, sym(0));
        let star = a.star(5, &Budget::default()).unwrap();
        a.compose(&star, &Budget::default()).unwrap()
    }

    #[test]
    fn transitive_closure_program() {
        // path(X,Y) :- a(X,Y).  path(X,Y) :- path(X,Z), a(Z,Y).
        let mut left = Program::default();
        let path = left.predicate();
        left.rule(path, (X, Y), vec![atom(a(), X, Y)]);
        let rec = vec![atom(Pred::Idb(path), X, Z), atom(a(), Z, Y)];
        left.rule(path, (X, Y), rec);
        assert_eq!(linear_recursion_step(&left.rules[1]), Some(a()));
        // path(X,Y) :- a(X,Z), path(Z,Y): no compose shortcut, same facts.
        let mut right = left.clone();
        right.rules[1].body = vec![atom(a(), X, Z), atom(Pred::Idb(path), Z, Y)];
        assert_eq!(linear_recursion_step(&right.rules[1]), None);
        // The 3-cycle reaches itself everywhere (9); 3 and 4 reach it (6).
        assert_eq!(a_plus().edge_count(), 15);
        assert_eq!(run(&left), [a_plus()]);
        assert_eq!(run(&right), [a_plus()]);
    }

    #[test]
    fn non_linear_recursion() {
        // path(X,Y) :- a(X,Y).  path(X,Y) :- path(X,Z), path(Z,Y).
        let mut prog = Program::default();
        let path = Pred::Idb(prog.predicate());
        prog.rule(0, (X, Y), vec![atom(a(), X, Y)]);
        prog.rule(0, (X, Y), vec![atom(path, X, Z), atom(path, Z, Y)]);
        // The step is the recursive predicate itself: never stable.
        assert_eq!(linear_recursion_step(&prog.rules[1]), Some(path));
        assert!(!stable_after_round0(&prog, path));
        assert_eq!(run(&prog), [a_plus()]);
    }

    #[test]
    fn mutual_recursion() {
        // p(X,Y) :- a(X,Y).  q(X,Y) :- p(X,Z), b(Z,Y).
        // p(X,Y) :- q(X,Z), a(Z,Y).
        let b = Pred::Edge(sym(1));
        let mut prog = Program::default();
        let (p, q) = (prog.predicate(), prog.predicate());
        prog.rule(p, (X, Y), vec![atom(a(), X, Y)]);
        prog.rule(q, (X, Y), vec![atom(Pred::Idb(p), X, Z), atom(b, Z, Y)]);
        prog.rule(p, (X, Y), vec![atom(Pred::Idb(q), X, Z), atom(a(), Z, Y)]);
        // Reference: p = a(ba)*, q = p b.
        let g = graph();
        let budget = Budget::default();
        let (a1, b1) = (
            Relation::of_symbol(&g, sym(0)),
            Relation::of_symbol(&g, sym(1)),
        );
        let ba_star = b1.compose(&a1, &budget).unwrap().star(5, &budget).unwrap();
        let p_ref = a1.compose(&ba_star, &budget).unwrap();
        let q_ref = p_ref.compose(&b1, &budget).unwrap();
        assert!(
            p_ref.edge_count() > a1.edge_count(),
            "the recursion must add facts"
        );
        assert_eq!(run(&prog), [p_ref, q_ref]);
    }

    #[test]
    fn self_loop_atom_and_repeated_head_variable() {
        // loops(X,X) :- e(X,X) over e: 0→1, 1→1, 2→2, 0→3.
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 1);
        for (s, t) in [(0, 1), (1, 1), (2, 2), (0, 3)] {
            b.edge(s, 0, t);
        }
        let g = b.build();
        let mut prog = Program::default();
        let loops = prog.predicate();
        prog.rule(loops, (X, X), vec![atom(Pred::Edge(sym(0)), X, X)]);
        let ctx = EvalContext::new(&g);
        let (idb, _) = semi_naive(&ctx, &prog, 0, &Budget::default()).unwrap();
        assert_eq!(crate::fixtures::pairs(&idb[loops]), [(1, 1), (2, 2)]);
    }

    /// `|EDB| + |IDB|` at the fixpoint of `program` with a roomy budget.
    fn final_size(ctx: &EvalContext<'_>, program: &Program, arity: usize) -> usize {
        let (idb, ans) = semi_naive(ctx, program, arity, &Budget::default()).unwrap();
        ctx.edb() + idb.iter().map(|r| r.edge_count()).sum::<usize>() + ans.count() as usize
    }

    #[test]
    fn the_final_database_size_is_the_tightest_cap_a_closure_fits() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let program = Program::from_query(&q, [[0]]).unwrap();
        // 13 EDB facts; step = a (5), p = a* (17), ans = a* (17).
        let k = final_size(&ctx, &program, 2);
        assert_eq!(k, 13 + 5 + 17 + 17);
        let at =
            |cap| EngineKind::Datalog.evaluate(&ctx, &q, None, &Budget::with_limits(None, cap));
        assert_eq!(at(k).unwrap().count(), 17);
        assert_eq!(at(k - 1), Err(EvalError::TooLarge(k)));
    }

    #[test]
    fn a_round_that_adds_only_answers_is_followed_by_a_charged_round() {
        // ans(X,Y) :- p(X,Y).  p(X,Y) :- a(X,Y).  — `ans` first, so round 0
        // derives p only, round 1 ans only, and round 2 exists only
        // because `ans` grew: it is the one check that sees all of it.
        let mut prog = Program::default();
        let p = prog.predicate();
        prog.rules.push(DlRule {
            head: Head::Ans,
            args: vec![X, Y],
            body: vec![atom(Pred::Idb(p), X, Y)],
        });
        prog.rule(p, (X, Y), vec![atom(a(), X, Y)]);
        let g = graph();
        let ctx = EvalContext::new(&g);
        let k = final_size(&ctx, &prog, 2);
        assert_eq!(k, 13 + 5 + 5);
        let at = |cap| semi_naive(&ctx, &prog, 2, &Budget::with_limits(None, cap));
        assert_eq!(at(k).unwrap().1.count(), 5);
        assert_eq!(at(k - 1).unwrap_err(), EvalError::TooLarge(k));
    }

    fn eval(kind: EngineKind, q: &Query, budget: &Budget) -> Result<Answers, EvalError> {
        kind.evaluate(&EvalContext::new(&graph()), q, None, budget)
    }

    #[test]
    fn ucrpq_agrees_with_relational() {
        let cases = vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![RegularExpr::symbol(sym(1).flipped())]),
            chain(vec![
                RegularExpr::path(PathExpr(vec![sym(0), sym(1)])),
                RegularExpr::symbol(sym(0).flipped()),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
            chain(vec![RegularExpr::star(vec![
                PathExpr(vec![sym(0), sym(1).flipped()]),
                PathExpr(vec![sym(1)]),
            ])]),
        ];
        for q in cases {
            let a = eval(EngineKind::Datalog, &q, &Budget::default()).unwrap();
            let b = eval(EngineKind::Relational, &q, &Budget::default()).unwrap();
            assert_eq!(a, b, "mismatch on {q:?}");
        }
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
        let a = eval(EngineKind::Datalog, &q, &Budget::default()).unwrap();
        assert!(a.non_empty());
    }

    #[test]
    fn an_unbound_head_variable_is_unsupported() {
        // Hand-built, bypassing `Query::new`'s safety check.
        let mut q = chain(vec![RegularExpr::symbol(sym(0))]);
        q.rules[0].head.push(Var(7));
        let err = eval(EngineKind::Datalog, &q, &Budget::default()).unwrap_err();
        assert!(
            matches!(err, EvalError::Unsupported(ref what) if what.contains("?x7")),
            "{err:?}"
        );
    }

    #[test]
    fn budget_enforced() {
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let tight = Budget {
            max_tuples: 5,
            ..Budget::default()
        };
        assert!(eval(EngineKind::Datalog, &q, &tight).is_err());
    }
}
