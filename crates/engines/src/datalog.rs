//! A general-purpose semi-naive Datalog engine, and the `D`-style UCRPQ
//! engine built on it.
//!
//! The paper's system `D` is "a modern Datalog engine" — the only system
//! that completed every recursive query of Table 4. This module provides:
//!
//! * a small positive-Datalog core ([`Program`], [`semi_naive_over`]):
//!   relations of arbitrary arity, rules with repeated variables and
//!   constants, bottom-up evaluation with delta-driven (semi-naive)
//!   iteration and on-demand hash indexes on bound-argument patterns;
//! * the `D` engine, which translates a UCRPQ into such a program —
//!   structurally the same translation `gmark-translate::datalog` prints —
//!   over the EDB `edge_<p>(X, Y)` / `node(X)` and evaluates it.
//!
//! Semi-naive evaluation re-derives each fact at most once per rule, which
//! keeps recursive closures incremental — the architectural reason `D`
//! outlives `P`/`S` on Table 4's quadratic recursive query.

use crate::context::EvalContext;
use crate::planner::QueryPlan;
use crate::relations::Relation;
use crate::{Answers, Budget, EvalError};
use gmark_core::query::{PathExpr, Query, RegularExpr};
use gmark_store::{GraphView, NodeId};
use rustc_hash::{FxHashMap, FxHashSet};

/// A term: variable (rule-scoped index) or constant (node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule variable.
    Var(u32),
    /// A node constant.
    Const(NodeId),
}

/// A predicate atom `pred(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Interned predicate id (see [`Program::predicate`]).
    pub pred: usize,
    /// Argument terms.
    pub args: Vec<Term>,
}

/// A Datalog rule `head :- body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlRule {
    /// The head atom (IDB predicate, variables only).
    pub head: Atom,
    /// Body atoms (EDB or IDB).
    pub body: Vec<Atom>,
}

/// A positive Datalog program with interned predicate names.
#[derive(Debug, Clone, Default)]
pub struct Program {
    names: Vec<String>,
    by_name: FxHashMap<String, usize>,
    /// The rules.
    pub rules: Vec<DlRule>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Interns a predicate name, returning its id.
    pub fn predicate(&mut self, name: &str) -> usize {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an interned predicate.
    pub fn predicate_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Predicate name by id.
    pub fn predicate_name(&self, id: usize) -> &str {
        &self.names[id]
    }

    /// Number of interned predicates.
    pub fn predicate_count(&self) -> usize {
        self.names.len()
    }

    /// Adds a rule.
    pub fn rule(&mut self, head: Atom, body: Vec<Atom>) {
        assert!(!body.is_empty(), "Datalog rules need non-empty bodies");
        self.rules.push(DlRule { head, body });
    }
}

/// Extensional + derived facts, keyed by predicate id.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: FxHashMap<usize, FxHashSet<Vec<NodeId>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a fact; returns whether it was new.
    pub fn insert(&mut self, pred: usize, tuple: Vec<NodeId>) -> bool {
        self.relations.entry(pred).or_default().insert(tuple)
    }

    /// The facts of a predicate (empty set if absent).
    pub fn facts(&self, pred: usize) -> impl Iterator<Item = &Vec<NodeId>> {
        self.relations.get(&pred).into_iter().flatten()
    }

    /// Number of facts for a predicate.
    pub fn count(&self, pred: usize) -> usize {
        self.relations.get(&pred).map_or(0, |s| s.len())
    }

    /// Total number of facts.
    pub fn total(&self) -> usize {
        self.relations.values().map(|s| s.len()).sum()
    }
}

/// Semi-naive evaluation against a **borrowed** extensional database:
/// derived facts accumulate in a fresh IDB-only [`Database`] which is
/// returned, while `edb` is only read. This is the shared-context hot
/// path — a whole evaluation matrix reuses one EDB built from the graph
/// (see [`crate::EvalContext::edb`]) instead of rebuilding `node(v)` and
/// every `edge_<p>(s, t)` fact per query.
pub fn semi_naive_over(
    program: &Program,
    edb: &Database,
    budget: &Budget,
) -> Result<Database, EvalError> {
    let mut idb = Database::new();
    // IDB predicates = heads of rules.
    let idb_preds: FxHashSet<usize> = program.rules.iter().map(|r| r.head.pred).collect();

    // Predicates whose every defining rule has an IDB-free body are
    // complete after round 0 (the `<p>_step` predicates of closure
    // translations). Against such a stable right side, a linear-recursion
    // delta rule `p(X,Y) :- p(X,Z), step(Z,Y)` is exactly a sorted
    // compose — the same kernel the relational path runs — instead of a
    // hash join.
    let mut rules_of: FxHashMap<usize, Vec<&DlRule>> = FxHashMap::default();
    for rule in &program.rules {
        rules_of.entry(rule.head.pred).or_default().push(rule);
    }
    let stable_after_round0 = |p: usize| {
        rules_of.get(&p).is_none_or(|rs| {
            rs.iter()
                .all(|r| r.body.iter().all(|a| !idb_preds.contains(&a.pred)))
        })
    };
    let rec_step: Vec<Option<usize>> = program
        .rules
        .iter()
        .map(|r| linear_recursion_step(r).filter(|&s| stable_after_round0(s)))
        .collect();
    let mut step_rels: FxHashMap<usize, Relation> = FxHashMap::default();

    // Round 0: evaluate every rule on the full (layered) database.
    // The head's EDB relation is resolved once per rule, outside the
    // per-fact loop; for query programs it is always absent (heads are
    // `ans`/fresh predicates), so the common path pays nothing per fact.
    let mut delta: FxHashMap<usize, FxHashSet<Vec<NodeId>>> = FxHashMap::default();
    for rule in &program.rules {
        let head_edb = edb.relations.get(&rule.head.pred);
        let derived = eval_rule(rule, edb, &idb, None, usize::MAX, budget)?;
        for fact in derived {
            if head_edb.is_none_or(|s| !s.contains(&fact))
                && idb.insert(rule.head.pred, fact.clone())
            {
                delta.entry(rule.head.pred).or_default().insert(fact);
            }
        }
    }

    // Delta-driven rounds: for each rule and each IDB body position, join
    // the delta at that position against the full database elsewhere.
    while !delta.is_empty() {
        budget.check_time()?;
        budget.check_size(edb.total() + idb.total())?;
        let current = std::mem::take(&mut delta);
        for (ri, rule) in program.rules.iter().enumerate() {
            let head_edb = edb.relations.get(&rule.head.pred);
            for (pos, atom) in rule.body.iter().enumerate() {
                if !idb_preds.contains(&atom.pred) {
                    continue;
                }
                let Some(d) = current.get(&atom.pred) else {
                    continue;
                };
                if d.is_empty() {
                    continue;
                }
                let derived = if pos == 0 && rec_step[ri].is_some() {
                    // Sorted-kernel fast path: Δp ∘ step.
                    let step = rec_step[ri].expect("checked");
                    let delta_rel = Relation::from_pairs(
                        d.iter()
                            .filter(|f| f.len() == 2)
                            .map(|f| (f[0], f[1]))
                            .collect(),
                    );
                    let composed = {
                        let step_rel = step_rels.entry(step).or_insert_with(|| {
                            Relation::from_pairs(
                                edb.facts(step)
                                    .chain(idb.facts(step))
                                    .filter(|f| f.len() == 2)
                                    .map(|f| (f[0], f[1]))
                                    .collect(),
                            )
                        });
                        delta_rel.compose(step_rel, budget)?
                    };
                    composed.pairs().iter().map(|&(x, y)| vec![x, y]).collect()
                } else {
                    eval_rule(rule, edb, &idb, Some((pos, d)), usize::MAX, budget)?
                };
                for fact in derived {
                    if head_edb.is_none_or(|s| !s.contains(&fact))
                        && idb.insert(rule.head.pred, fact.clone())
                    {
                        delta.entry(rule.head.pred).or_default().insert(fact);
                    }
                }
            }
        }
    }
    Ok(idb)
}

/// Recognizes the canonical linear-recursion shape
/// `p(X, Y) :- p(X, Z), s(Z, Y)` with `X`, `Y`, `Z` distinct variables,
/// returning the step predicate `s`. The caller still has to prove `s`
/// stable before substituting a compose for the hash join.
fn linear_recursion_step(rule: &DlRule) -> Option<usize> {
    if rule.body.len() != 2 {
        return None;
    }
    let [Term::Var(x), Term::Var(y)] = rule.head.args[..] else {
        return None;
    };
    let rec = &rule.body[0];
    let step = &rule.body[1];
    if rec.pred != rule.head.pred {
        return None;
    }
    let [Term::Var(rx), Term::Var(z)] = rec.args[..] else {
        return None;
    };
    let [Term::Var(sz), Term::Var(sy)] = step.args[..] else {
        return None;
    };
    if x == y || z == x || z == y || rx != x || sz != z || sy != y {
        return None;
    }
    Some(step.pred)
}

/// Hash key over the probed argument values of an atom: packed into a
/// `u128` for up to four probe positions (the overwhelmingly common case —
/// UCRPQ programs only have unary and binary atoms), falling back to an
/// owned vector for wide atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ProbeKey {
    Packed(u128),
    Wide(Vec<NodeId>),
}

fn probe_key(values: impl ExactSizeIterator<Item = NodeId> + Clone) -> ProbeKey {
    if values.len() <= 4 {
        let mut k: u128 = 1; // avoid collision between [0] and [0, 0]
        for v in values {
            k = (k << 32) | v as u128;
        }
        ProbeKey::Packed(k)
    } else {
        ProbeKey::Wide(values.collect())
    }
}

/// Evaluates one rule body left-to-right over the layered `edb` + `idb`
/// fact database. When `delta_at = Some((i, Δ))`, atom `i` ranges over `Δ`
/// instead of the full relation (the semi-naive restriction).
///
/// Bindings are flat fixed-width rows over a precomputed variable→slot
/// layout (no per-row maps — this is the hot loop of the engine; the
/// paper's system `D` wins Table 4 precisely because its recursive joins
/// stay cheap).
fn eval_rule(
    rule: &DlRule,
    edb: &Database,
    idb: &Database,
    delta_at: Option<(usize, &FxHashSet<Vec<NodeId>>)>,
    limit: usize,
    budget: &Budget,
) -> Result<Vec<Vec<NodeId>>, EvalError> {
    // Variable → slot layout, in first occurrence order across the body.
    let mut slot_of: FxHashMap<u32, usize> = FxHashMap::default();
    for atom in &rule.body {
        for t in &atom.args {
            if let Term::Var(v) = t {
                let n = slot_of.len();
                slot_of.entry(*v).or_insert(n);
            }
        }
    }
    let width = slot_of.len().max(1);

    // Flat row storage: `rows` holds `count` rows of `width` node ids.
    let mut rows: Vec<NodeId> = vec![0; width];
    let mut count: usize = 1;
    let mut bound: Vec<bool> = vec![false; width];

    for (pos, atom) in rule.body.iter().enumerate() {
        budget.check_time()?;
        // Classify argument positions against the current bound set.
        // probes: positions whose value is determined by the row (bound
        // vars and constants); binds: first occurrences of unbound vars;
        // intra: later occurrences of a variable bound earlier *within
        // this same atom* (must equal the earlier position's value).
        let mut probes: Vec<(usize, Option<usize>, NodeId)> = Vec::new(); // (arg, slot?, const)
        let mut binds: Vec<(usize, usize)> = Vec::new(); // (arg, slot)
        let mut intra: Vec<(usize, usize)> = Vec::new(); // (arg, earlier arg)
        let mut seen_here: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => probes.push((i, None, *c)),
                Term::Var(v) => {
                    let slot = slot_of[v];
                    if let Some(&earlier) = seen_here.get(v) {
                        intra.push((i, earlier));
                    } else if bound[slot] {
                        probes.push((i, Some(slot), 0));
                        seen_here.insert(*v, i);
                    } else {
                        binds.push((i, slot));
                        seen_here.insert(*v, i);
                    }
                }
            }
        }

        // Index the atom's facts by their probe-position values; store the
        // bind-position values inline (flat, stride = binds.len()).
        let use_delta = matches!(delta_at, Some((p, _)) if p == pos);
        let mut index: FxHashMap<ProbeKey, Vec<u32>> = FxHashMap::default();
        let mut bind_values: Vec<NodeId> = Vec::new();
        let stride = binds.len();
        let mut add_fact = |f: &Vec<NodeId>| {
            if f.len() != atom.args.len() {
                return;
            }
            for &(i, earlier) in &intra {
                if f[i] != f[earlier] {
                    return;
                }
            }
            // Constant probes filter here; slot probes key below.
            for &(i, slot, c) in &probes {
                if slot.is_none() && f[i] != c {
                    return;
                }
            }
            let key = probe_key(
                probes
                    .iter()
                    .filter(|(_, slot, _)| slot.is_some())
                    .map(|&(i, _, _)| f[i])
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
            let entry_idx = (bind_values.len() / stride.max(1)) as u32;
            for &(i, _) in &binds {
                bind_values.push(f[i]);
            }
            index.entry(key).or_default().push(entry_idx);
        };
        if use_delta {
            for f in delta_at.expect("checked").1 {
                add_fact(f);
            }
        } else {
            // EDB facts first, then derived ones; the layers are disjoint
            // (inserts into the IDB check the EDB), so no fact repeats.
            for f in edb.facts(atom.pred).chain(idb.facts(atom.pred)) {
                add_fact(f);
            }
        }

        // Join the current rows against the index.
        let slot_probes: Vec<usize> = probes.iter().filter_map(|&(_, slot, _)| slot).collect();
        let mut next: Vec<NodeId> = Vec::new();
        let mut next_count: usize = 0;
        for r in 0..count {
            let row = &rows[r * width..(r + 1) * width];
            let key = probe_key(
                slot_probes
                    .iter()
                    .map(|&s| row[s])
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
            if let Some(matches) = index.get(&key) {
                for &entry_idx in matches {
                    let base = entry_idx as usize * stride;
                    next.extend_from_slice(row);
                    let new_row_start = next.len() - width;
                    for (bi, &(_, slot)) in binds.iter().enumerate() {
                        next[new_row_start + slot] = bind_values[base + bi];
                    }
                    next_count += 1;
                    if next_count >= limit {
                        break;
                    }
                }
            }
            if r % 1024 == 0 {
                budget.check_time()?;
            }
            budget.check_size(next_count)?;
        }
        for (_, slot) in &binds {
            bound[*slot] = true;
        }
        rows = next;
        count = next_count;
        if count == 0 {
            return Ok(Vec::new());
        }
    }

    // Project onto the head.
    let mut out = Vec::with_capacity(count);
    for r in 0..count {
        let row = &rows[r * width..(r + 1) * width];
        let fact: Vec<NodeId> = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => row[slot_of[v]],
            })
            .collect();
        out.push(fact);
    }
    Ok(out)
}

/// Builds the EDB for a graph: `edge_<p>(s, t)` per predicate plus `node(v)`.
pub fn graph_edb<'g>(graph: impl Into<GraphView<'g>>, program: &mut Program) -> Database {
    let graph = graph.into();
    let mut db = Database::new();
    let node = program.predicate("node");
    for v in 0..graph.node_count() {
        db.insert(node, vec![v]);
    }
    for p in 0..graph.predicate_count() {
        let pred = program.predicate(&format!("edge_{p}"));
        for (s, t) in graph.pairs(p, false) {
            db.insert(pred, vec![s, t]);
        }
    }
    db
}

/// Appends a UCRPQ's rules — the translation `gmark-translate::datalog`
/// prints, answer predicate `ans` — to a clone of the shared-context base
/// program, whose `node`/`edge_<p>` ids already match the prebuilt EDB,
/// and returns the interned `ans` predicate id. Semi-naive evaluation
/// joins body atoms left to right, so the `ans` rule bodies follow the
/// plan's conjunct order, bounding the intermediate binding sets the same
/// way it does for the other engines; the auxiliary path/closure rules are
/// emitted in declaration order whatever the plan.
fn append_query_rules(prog: &mut Program, query: &Query, plan: &QueryPlan) -> usize {
    let node = prog.predicate("node");
    let ans = prog.predicate("ans");
    let mut fresh = 0usize;

    // Emits rules defining `pred(X, Y)` as one path expression.
    fn path_rules(prog: &mut Program, node: usize, head_pred: usize, p: &PathExpr) {
        if p.is_empty() {
            prog.rule(
                Atom {
                    pred: head_pred,
                    args: vec![Term::Var(0), Term::Var(0)],
                },
                vec![Atom {
                    pred: node,
                    args: vec![Term::Var(0)],
                }],
            );
            return;
        }
        // X = var 0, Y = var 1, intermediates from 2 up.
        let mut body = Vec::with_capacity(p.len());
        for (i, sym) in p.0.iter().enumerate() {
            let from = if i == 0 {
                Term::Var(0)
            } else {
                Term::Var(i as u32 + 1)
            };
            let to = if i + 1 == p.len() {
                Term::Var(1)
            } else {
                Term::Var(i as u32 + 2)
            };
            let edge = prog.predicate(&format!("edge_{}", sym.predicate.0));
            let args = if sym.inverse {
                vec![to, from]
            } else {
                vec![from, to]
            };
            body.push(Atom { pred: edge, args });
        }
        prog.rule(
            Atom {
                pred: head_pred,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            body,
        );
    }

    fn expr_pred(prog: &mut Program, node: usize, fresh: &mut usize, expr: &RegularExpr) -> usize {
        let name = format!("p{}", *fresh);
        *fresh += 1;
        let pred = prog.predicate(&name);
        if expr.starred {
            let step = prog.predicate(&format!("{name}_step"));
            for d in &expr.disjuncts {
                path_rules(prog, node, step, d);
            }
            // p(X, X) :- node(X).
            prog.rule(
                Atom {
                    pred,
                    args: vec![Term::Var(0), Term::Var(0)],
                },
                vec![Atom {
                    pred: node,
                    args: vec![Term::Var(0)],
                }],
            );
            // p(X, Y) :- p(X, Z), step(Z, Y).
            prog.rule(
                Atom {
                    pred,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
                vec![
                    Atom {
                        pred,
                        args: vec![Term::Var(0), Term::Var(2)],
                    },
                    Atom {
                        pred: step,
                        args: vec![Term::Var(2), Term::Var(1)],
                    },
                ],
            );
        } else {
            for d in &expr.disjuncts {
                path_rules(prog, node, pred, d);
            }
        }
        pred
    }

    for (rule, rule_plan) in query.rules.iter().zip(&plan.rules) {
        let preds: Vec<usize> = rule
            .body
            .iter()
            .map(|c| expr_pred(prog, node, &mut fresh, &c.expr))
            .collect();
        let body: Vec<Atom> = rule_plan
            .steps
            .iter()
            .map(|step| {
                let c = &rule.body[step.conjunct];
                Atom {
                    pred: preds[step.conjunct],
                    args: vec![Term::Var(c.src.0), Term::Var(c.trg.0)],
                }
            })
            .collect();
        let head_args: Vec<Term> = rule.head.iter().map(|v| Term::Var(v.0)).collect();
        prog.rule(
            Atom {
                pred: ans,
                args: head_args,
            },
            body,
        );
    }
    ans
}

/// Translates the query over a clone of the base program (a handful of
/// interned names) and runs it semi-naively against the EDB facts — the
/// expensive part — borrowed from the shared context.
///
/// Deliberately NOT a consumer of the shared sub-expression cache:
/// semi-naive evaluation charges the budget for auxiliary predicates and
/// raw (pre-dedup) join products that a seeded fact set would never
/// materialize, so a cache hit could complete a cell whose uncached
/// evaluation reports too-large — breaking the cache's outcome-identity
/// contract (see the context module docs). The closure-heavy cells the
/// cache targets are served here by the sorted-kernel fast path of
/// [`semi_naive_over`] instead.
pub(crate) fn evaluate(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    let (base, edb) = ctx.edb();
    let mut program = base.clone();
    let ans = append_query_rules(&mut program, query, plan);
    let idb = semi_naive_over(&program, edb, budget)?;
    let tuples: Vec<Vec<NodeId>> = idb.facts(ans).cloned().collect();
    Ok(Answers::new(query.arity(), tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use gmark_core::query::{Conjunct, Rule, Symbol, Var};
    use gmark_core::schema::PredicateId;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    /// Classic ancestor test for the generic engine.
    #[test]
    fn transitive_closure_program() {
        let mut prog = Program::new();
        let edge = prog.predicate("edge");
        let path = prog.predicate("path");
        // path(X,Y) :- edge(X,Y).  path(X,Y) :- path(X,Z), edge(Z,Y).
        prog.rule(
            Atom {
                pred: path,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Var(0), Term::Var(1)],
            }],
        );
        prog.rule(
            Atom {
                pred: path,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            vec![
                Atom {
                    pred: path,
                    args: vec![Term::Var(0), Term::Var(2)],
                },
                Atom {
                    pred: edge,
                    args: vec![Term::Var(2), Term::Var(1)],
                },
            ],
        );
        let mut db = Database::new();
        for (s, t) in [(0u32, 1u32), (1, 2), (2, 3)] {
            db.insert(edge, vec![s, t]);
        }
        let db = semi_naive_over(&prog, &db, &Budget::default()).unwrap();
        assert_eq!(db.count(path), 6); // chain of 4 nodes: 3+2+1 pairs
        let mut facts: Vec<_> = db.facts(path).cloned().collect();
        facts.sort();
        assert_eq!(
            facts,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn constants_and_repeated_vars() {
        let mut prog = Program::new();
        let edge = prog.predicate("edge");
        let loops = prog.predicate("self_loop");
        let from_zero = prog.predicate("from_zero");
        // self_loop(X) :- edge(X, X).
        prog.rule(
            Atom {
                pred: loops,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Var(0), Term::Var(0)],
            }],
        );
        // from_zero(Y) :- edge(0, Y).
        prog.rule(
            Atom {
                pred: from_zero,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Const(0), Term::Var(0)],
            }],
        );
        let mut db = Database::new();
        for (s, t) in [(0u32, 1u32), (1, 1), (2, 2), (0, 3)] {
            db.insert(edge, vec![s, t]);
        }
        let db = semi_naive_over(&prog, &db, &Budget::default()).unwrap();
        let mut l: Vec<_> = db.facts(loops).cloned().collect();
        l.sort();
        assert_eq!(l, vec![vec![1], vec![2]]);
        let mut f: Vec<_> = db.facts(from_zero).cloned().collect();
        f.sort();
        assert_eq!(f, vec![vec![1], vec![3]]);
    }

    #[test]
    fn mutual_recursion() {
        // even(X) :- zero(X). even(Y) :- odd(X), succ(X,Y).
        // odd(Y) :- even(X), succ(X,Y).
        let mut prog = Program::new();
        let zero = prog.predicate("zero");
        let succ = prog.predicate("succ");
        let even = prog.predicate("even");
        let odd = prog.predicate("odd");
        prog.rule(
            Atom {
                pred: even,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: zero,
                args: vec![Term::Var(0)],
            }],
        );
        prog.rule(
            Atom {
                pred: even,
                args: vec![Term::Var(1)],
            },
            vec![
                Atom {
                    pred: odd,
                    args: vec![Term::Var(0)],
                },
                Atom {
                    pred: succ,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
            ],
        );
        prog.rule(
            Atom {
                pred: odd,
                args: vec![Term::Var(1)],
            },
            vec![
                Atom {
                    pred: even,
                    args: vec![Term::Var(0)],
                },
                Atom {
                    pred: succ,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
            ],
        );
        let mut db = Database::new();
        db.insert(zero, vec![0]);
        for i in 0..10u32 {
            db.insert(succ, vec![i, i + 1]);
        }
        let db = semi_naive_over(&prog, &db, &Budget::default()).unwrap();
        let evens: FxHashSet<u32> = db.facts(even).map(|f| f[0]).collect();
        let odds: FxHashSet<u32> = db.facts(odd).map(|f| f[0]).collect();
        assert_eq!(evens, (0..=10).filter(|i| i % 2 == 0).collect());
        assert_eq!(odds, (0..=10).filter(|i| i % 2 == 1).collect());
    }

    fn graph() -> Graph {
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[5]), 2);
        for (s, t) in [(0, 1), (1, 2), (2, 0), (3, 1), (4, 2)] {
            b.edge(s, 0, t);
        }
        for (s, t) in [(1, 3), (2, 3), (0, 4)] {
            b.edge(s, 1, t);
        }
        b.build()
    }

    fn chain(exprs: Vec<RegularExpr>) -> Query {
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
        .unwrap()
    }

    fn eval(kind: EngineKind, q: &Query, budget: &Budget) -> Result<Answers, EvalError> {
        kind.evaluate(&EvalContext::new(&graph()), q, None, budget)
    }

    #[test]
    fn ucrpq_agrees_with_relational() {
        use gmark_core::query::PathExpr;
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
    fn budget_enforced() {
        use gmark_core::query::PathExpr;
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let tight = Budget {
            max_tuples: 5,
            ..Budget::default()
        };
        assert!(eval(EngineKind::Datalog, &q, &tight).is_err());
    }
}
