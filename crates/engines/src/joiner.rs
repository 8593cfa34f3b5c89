//! The one join kernel: binary relations joined over shared variables.
//!
//! All four engines grow a [`BindingTable`] through the same
//! [`BindingTable::extend`] and read their heads off it through the same
//! [`project`]: `P` and `S` join a whole rule body at once
//! ([`join_materialized`], one body for both, differing only in the kernel
//! a cache miss runs), `G` one seed-driven conjunct at a time, `D` the body
//! of every Datalog rule, with a delta substituted at one position. `P`,
//! `G` and `S` also share the rule loop ([`union_of_rules`]); `D` has its
//! own fixpoint.
//! Conjunct results arrive as borrowed [`Relation`]s — CSRs with sorted
//! `u32` target runs, often straight out of the sub-expression cache — so
//! the kernel reads each relation's offsets, not a hash table: an
//! extension takes a row's partners as one source run ([`Csr::neighbors`],
//! O(1)), a semi-join looks up the run and binary-searches inside it
//! ([`Csr::contains`]), and the Cartesian arm walks every pair
//! ([`Csr::iter_edges`]). When only the target is bound, the runs are
//! those of the transposed relation ([`Csr::transpose`], a counting
//! sort) — an arm only `P`, `S` and `D` take: `G` runs a target-anchored
//! conjunct backwards from the bound targets and mounts the result keyed
//! by them, its variables swapped. No per-conjunct hash index is ever
//! built.
//!
//! # Live columns
//!
//! A row carries only what is still needed. Each step receives its *live*
//! variables — the head, plus every variable of a later step — and
//! [`BindingTable::extend`] copies only those columns into its output; a
//! newly bound variable nobody reads is not stored at all. Every arm
//! still emits one output row per match, dead columns or not, so every
//! row count is what it would be with every column kept: each
//! `check_size` sees the same number, each `TooLarge(n)` carries the same
//! `n`, and [`project`] reads the same multiset of head tuples. Dropping
//! a column never merges two rows — rows are only ever deduplicated by
//! [`Answers::from_rows`], after the head is read. A dropped column is
//! never needed again: a later step reads only its own variables, which
//! are live, and the head is live throughout.
//!
//! A step that can grow the table counts its rows before it writes one.
//! A bound arm adds up each input row's run length (O(1) from the
//! offsets), the Cartesian arm adds the relation's length, after the
//! self-loop filter, once per input row, and the running total is charged
//! after every input row: the charges a row-at-a-time loop makes. A step
//! over the cap so fails with the same `TooLarge(n)` without writing a
//! row, and a step that fits writes into one buffer reserved at its exact
//! size. [`union_of_rules`] likewise charges a rule's projected rows
//! before [`project`] copies them.

use crate::context::EvalContext;
use crate::planner::{ConjunctStep, QueryPlan};
use crate::relations::Relation;
use crate::{Answers, Budget, EvalError};
use gmark_core::query::{Query, RegularExpr, Rule, Var};
use gmark_store::{Csr, NodeId};
use std::sync::Arc;

/// Rows over an ordered set of variables, stored row-major in one flat
/// vector.
#[derive(Debug, Clone)]
pub(crate) struct BindingTable {
    /// The stored variables, one per column: the live ones bound so far.
    pub vars: Vec<Var>,
    /// `len` rows of `vars.len()` cells each.
    cells: Vec<NodeId>,
    /// Row count — kept beside `cells` because the join identity is one
    /// row of zero columns.
    len: usize,
}

impl BindingTable {
    /// The join identity: no variables, one empty row.
    pub fn unit() -> BindingTable {
        BindingTable {
            vars: Vec::new(),
            cells: Vec::new(),
            len: 1,
        }
    }

    /// The column of a stored variable: `None` if it is unbound, or bound
    /// but dead and dropped.
    pub fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// The rows, each `vars.len()` wide.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        let width = self.vars.len();
        (0..self.len).map(move |r| &self.cells[r * width..(r + 1) * width])
    }

    /// An empty table over `vars` with room for `rows` rows.
    fn with_capacity(vars: Vec<Var>, rows: usize) -> BindingTable {
        BindingTable {
            cells: Vec::with_capacity(rows * vars.len()),
            vars,
            len: 0,
        }
    }

    /// Appends one output row: the `keep` columns of `row`, then `new`.
    fn push(&mut self, row: &[NodeId], keep: &[usize], new: &[NodeId]) {
        self.cells.extend(keep.iter().map(|&c| row[c]));
        self.cells.extend_from_slice(new);
        self.len += 1;
    }

    /// The output row count of a step in which input row `row` yields
    /// `yields(row)` rows, charging the running total against the tuple
    /// cap after every input row.
    fn count_output(
        &self,
        budget: &Budget,
        yields: impl Fn(&[NodeId]) -> usize,
    ) -> Result<usize, EvalError> {
        let mut total = 0;
        for row in self.rows() {
            total += yields(row);
            budget.check_size(total)?;
        }
        Ok(total)
    }

    /// Joins one conjunct into the table, storing only the `live`
    /// variables (see the module docs). Which variables are already bound
    /// picks the arm: both — a semi-join, which can only shrink the
    /// table; one — each row selects its sorted run of partners; none — a
    /// Cartesian product (this is also how the first conjunct seeds the
    /// [`BindingTable::unit`] table). A self-loop conjunct `(?x, r, ?x)`
    /// keeps only `(v, v)` pairs and binds one column.
    ///
    /// Every arm that can grow the table counts its output before it
    /// writes a row, charging the cumulative row count against the tuple
    /// cap after every input row: a step over the cap fails with the
    /// first total that exceeds it and writes nothing, and a step that
    /// fits writes into one buffer of its exact size.
    pub fn extend(
        &self,
        c: &ConjunctPairs<'_>,
        live: &[Var],
        budget: &Budget,
    ) -> Result<BindingTable, EvalError> {
        let is_live = |v: &Var| live.contains(v);
        let keep: Vec<usize> = (0..self.vars.len())
            .filter(|&i| is_live(&self.vars[i]))
            .collect();
        let mut vars: Vec<Var> = keep.iter().map(|&i| self.vars[i]).collect();
        let (src_col, trg_col) = (self.col(c.src), self.col(c.trg));
        Ok(match (src_col, trg_col) {
            (Some(sc), Some(tc)) => {
                let mut out = BindingTable::with_capacity(vars, 0);
                for row in self.rows() {
                    if c.pairs.contains(row[sc], row[tc]) {
                        out.push(row, &keep, &[]);
                    }
                }
                out
            }
            (Some(col), None) | (None, Some(col)) => {
                let new_var = if src_col.is_some() { c.trg } else { c.src };
                let new_live = is_live(&new_var);
                if new_live {
                    vars.push(new_var);
                }
                if self.len == 0 {
                    return Ok(BindingTable::with_capacity(vars, 0));
                }
                // Backward is forward over the transposed relation.
                let reversed;
                let rel: &Csr = if src_col.is_some() {
                    c.pairs
                } else {
                    reversed = c.pairs.transpose();
                    &reversed
                };
                let len = self.count_output(budget, |row| rel.degree(row[col]))?;
                let mut out = BindingTable::with_capacity(vars, len);
                let stored = usize::from(new_live);
                for row in self.rows() {
                    for &partner in rel.neighbors(row[col]) {
                        out.push(row, &keep, &[partner][..stored]);
                    }
                }
                out
            }
            (None, None) => {
                let self_loop = c.src == c.trg;
                let (src_live, trg_live) = (is_live(&c.src), !self_loop && is_live(&c.trg));
                if src_live {
                    vars.push(c.src);
                }
                if trg_live {
                    vars.push(c.trg);
                }
                let matches = || c.pairs.iter_edges().filter(|(s, t)| !self_loop || s == t);
                let per_row = matches().count();
                let len = self.count_output(budget, |_| per_row)?;
                let mut out = BindingTable::with_capacity(vars, len);
                // The stored part of each `[s, t]`: both, one or neither.
                let stored = usize::from(!src_live)..1 + usize::from(trg_live);
                for row in self.rows() {
                    for (s, t) in matches() {
                        out.push(row, &keep, &[s, t][stored.clone()]);
                    }
                }
                out
            }
        })
    }
}

/// One conjunct's materialized relation, tagged with its variables. The
/// relation is borrowed, so a context relation, a sub-expression cache hit
/// or a Datalog predicate mounts here without a copy of its arrays.
#[derive(Debug)]
pub(crate) struct ConjunctPairs<'r> {
    pub src: Var,
    pub trg: Var,
    pub pairs: &'r Relation,
}

/// Joins conjuncts in the given order into a table over the `head`
/// variables the body binds, each step storing only its live columns.
pub(crate) fn join_all(
    conjuncts: &[ConjunctPairs<'_>],
    head: &[Var],
    budget: &Budget,
) -> Result<BindingTable, EvalError> {
    let mut table = BindingTable::unit();
    for (i, c) in conjuncts.iter().enumerate() {
        budget.check_time()?;
        let later = conjuncts[i + 1..].iter().map(|c| (c.src, c.trg));
        table = table.extend(c, &live_after(head, later), budget)?;
    }
    Ok(table)
}

/// The body `P` and `S` share, differing only in `kernel`: each conjunct
/// of a rule read in plan order through [`EvalContext::conjunct_relation`]
/// (a miss runs `kernel`), then all joined in that order.
pub(crate) fn join_materialized(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
    kernel: impl Fn(&RegularExpr) -> Result<Arc<Relation>, EvalError>,
) -> Result<Answers, EvalError> {
    union_of_rules(query, plan, budget, |rule, steps| {
        let conjunct = |step: &ConjunctStep| &rule.body[step.conjunct];
        let relations = steps
            .iter()
            .map(|step| {
                let expr = &conjunct(step).expr;
                ctx.conjunct_relation(expr, budget, || kernel(expr))
            })
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

/// The variables a step must store: the head, plus both variables of
/// every later step.
pub(crate) fn live_after(head: &[Var], later: impl Iterator<Item = (Var, Var)>) -> Vec<Var> {
    let mut live = head.to_vec();
    for (src, trg) in later {
        live.extend([src, trg]);
    }
    live
}

/// The rule loop `P`, `G` and `S` share: the union, over the query's
/// rules, of each rule's joined table projected onto its head, charging
/// the cumulative raw projected row count after every rule, before that
/// rule's rows are copied. `table_of` is
/// the engine — how one rule's conjuncts become a table along the planned
/// steps. `plan` must fit `query` (the entry point checks).
pub(crate) fn union_of_rules(
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
    mut table_of: impl FnMut(&Rule, &[ConjunctStep]) -> Result<BindingTable, EvalError>,
) -> Result<Answers, EvalError> {
    let (mut len, mut cells) = (0, Vec::new());
    for (rule, rule_plan) in query.rules.iter().zip(&plan.rules) {
        let table = table_of(rule, &rule_plan.steps)?;
        project(&table, &rule.head, &mut cells, |rows| {
            len += rows;
            budget.check_size(len)
        })?;
    }
    Ok(Answers::from_rows(query.arity(), len, cells))
}

/// The one head projection: appends the table's rows, projected onto
/// `head`, to the row-major `out` and returns how many rows that was
/// (deduplication is [`Answers::from_rows`]' job). `charge` is handed
/// that count before any row is copied, and an error from it is returned
/// with `out` untouched. A Boolean head appends no cells and counts one
/// row iff any row exists.
///
/// A head variable that never appears in the body violates rule safety;
/// it surfaces as a typed [`EvalError`] — one malformed query becomes a
/// failed matrix cell, not a process abort.
pub(crate) fn project(
    table: &BindingTable,
    head: &[Var],
    out: &mut Vec<NodeId>,
    charge: impl FnOnce(usize) -> Result<(), EvalError>,
) -> Result<usize, EvalError> {
    let cols: Vec<usize> = head
        .iter()
        .map(|v| {
            table.col(*v).ok_or_else(|| {
                EvalError::Unsupported(format!(
                    "head variable {v} is not bound in the rule body (rule safety)"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if cols.is_empty() {
        let len = usize::from(table.len > 0);
        return charge(len).map(|()| len);
    }
    charge(table.len)?;
    out.reserve(table.len * cols.len());
    for row in table.rows() {
        out.extend(cols.iter().map(|&c| row[c]));
    }
    Ok(table.len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test conjunct owns its relation; [`ConjunctPairs`] borrows it.
    type Owned = (u32, u32, Relation);

    fn cp(src: u32, trg: u32, pairs: Vec<(NodeId, NodeId)>) -> Owned {
        (src, trg, Relation::from_pairs(pairs))
    }

    fn borrowed(owned: &[Owned]) -> Vec<ConjunctPairs<'_>> {
        let mut conjuncts = Vec::new();
        for (src, trg, pairs) in owned {
            conjuncts.push(ConjunctPairs {
                src: Var(*src),
                trg: Var(*trg),
                pairs,
            });
        }
        conjuncts
    }

    /// Every variable of the conjuncts, in first-appearance order: the head
    /// under which no column is dead.
    fn every_var(conjuncts: &[ConjunctPairs<'_>]) -> Vec<Var> {
        let mut vars = Vec::new();
        for v in conjuncts.iter().flat_map(|c| [c.src, c.trg]) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    }

    /// Joins keeping every column.
    fn join(owned: &[Owned], budget: &Budget) -> Result<BindingTable, EvalError> {
        let conjuncts = borrowed(owned);
        join_all(&conjuncts, &every_var(&conjuncts), budget)
    }

    fn sorted_rows(table: &BindingTable) -> Vec<Vec<NodeId>> {
        let mut rows: Vec<Vec<NodeId>> = table.rows().map(<[NodeId]>::to_vec).collect();
        rows.sort();
        rows
    }

    /// The rows `project` appends for `head`, and the count it returns.
    fn projected(table: &BindingTable, head: &[u32]) -> (usize, Vec<NodeId>) {
        let head: Vec<Var> = head.iter().copied().map(Var).collect();
        let mut cells = Vec::new();
        let len = project(table, &head, &mut cells, |_| Ok(())).unwrap();
        (len, cells)
    }

    #[test]
    fn chain_join() {
        let t = join(
            &[
                cp(0, 1, vec![(1, 2), (3, 4)]),
                cp(1, 2, vec![(2, 5), (4, 6), (9, 9)]),
            ],
            &Budget::default(),
        )
        .unwrap();
        assert_eq!(t.vars, vec![Var(0), Var(1), Var(2)]);
        assert_eq!(sorted_rows(&t), vec![vec![1, 2, 5], vec![3, 4, 6]]);
    }

    #[test]
    fn reverse_direction_join() {
        // Second conjunct binds its *target* to an existing var.
        let t = join(
            &[
                cp(0, 1, vec![(1, 2)]),
                cp(2, 1, vec![(7, 2), (8, 2), (9, 3)]),
            ],
            &Budget::default(),
        )
        .unwrap();
        assert_eq!(t.vars, vec![Var(0), Var(1), Var(2)]);
        assert_eq!(sorted_rows(&t), vec![vec![1, 2, 7], vec![1, 2, 8]]);
    }

    #[test]
    fn semi_join_filters() {
        // Cycle: third conjunct closes 0 → 2.
        let t = join(
            &[
                cp(0, 1, vec![(1, 2), (3, 4)]),
                cp(1, 2, vec![(2, 5), (4, 6)]),
                cp(0, 2, vec![(1, 5)]),
            ],
            &Budget::default(),
        )
        .unwrap();
        assert_eq!(sorted_rows(&t), vec![vec![1, 2, 5]]);
    }

    #[test]
    fn self_loop_seed() {
        let t = join(
            &[cp(0, 0, vec![(1, 1), (2, 3), (4, 4)])],
            &Budget::default(),
        )
        .unwrap();
        assert_eq!(t.vars, vec![Var(0)]);
        assert_eq!(sorted_rows(&t), vec![vec![1], vec![4]]);
    }

    #[test]
    fn cartesian_when_disconnected() {
        let t = join(
            &[cp(0, 1, vec![(1, 2)]), cp(5, 6, vec![(7, 8), (9, 10)])],
            &Budget::default(),
        )
        .unwrap();
        assert_eq!(t.vars, vec![Var(0), Var(1), Var(5), Var(6)]);
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    fn projection_and_boolean() {
        let t = join(&[cp(0, 1, vec![(1, 2), (1, 3)])], &Budget::default()).unwrap();
        assert_eq!(projected(&t, &[1, 0]), (2, vec![2, 1, 3, 1]));
        // A repeated head variable repeats its column.
        assert_eq!(projected(&t, &[0, 0]), (2, vec![1, 1, 1, 1]));
        // A Boolean head: one row of no cells iff any row exists.
        assert_eq!(projected(&t, &[]), (1, vec![]));
        let empty = join(&[cp(0, 1, vec![])], &Budget::default()).unwrap();
        assert_eq!(projected(&empty, &[]), (0, vec![]));
        // No conjuncts at all: the join identity satisfies a Boolean head.
        let unit = join(&[], &Budget::default()).unwrap();
        assert_eq!(projected(&unit, &[]), (1, vec![]));
    }

    #[test]
    fn unbound_head_var_is_a_typed_error_not_a_panic() {
        let t = join(&[cp(0, 1, vec![(1, 2)])], &Budget::default()).unwrap();
        let err = project(&t, &[Var(7)], &mut Vec::new(), |_| Ok(())).unwrap_err();
        assert!(
            matches!(err, EvalError::Unsupported(ref what) if what.contains("?x7")),
            "{err:?}"
        );
    }

    #[test]
    fn budget_stops_blowup() {
        let pairs: Vec<(NodeId, NodeId)> = (0..1000).map(|i| (0, i)).collect();
        let tight = Budget::with_limits(None, 100);
        let r = join(
            &[
                cp(0, 1, vec![(5, 0); 1]),
                cp(1, 2, pairs.clone()),
                cp(2, 3, pairs),
            ],
            &tight,
        );
        assert!(matches!(r, Err(EvalError::TooLarge(_))));
    }

    /// Nested-loop reference join: the variables in first-appearance order
    /// and, per conjunct joined, the rows of the table so far.
    fn reference_join(conjuncts: &[ConjunctPairs<'_>]) -> (Vec<Var>, Vec<Vec<Vec<NodeId>>>) {
        let mut vars: Vec<Var> = Vec::new();
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new()];
        let mut steps = Vec::new();
        for c in conjuncts {
            let (sc, tc) = (
                vars.iter().position(|&v| v == c.src),
                vars.iter().position(|&v| v == c.trg),
            );
            let mut next = Vec::new();
            for row in &rows {
                for (s, t) in c.pairs.iter_edges() {
                    let agrees = sc.is_none_or(|i| row[i] == s)
                        && tc.is_none_or(|i| row[i] == t)
                        && (c.src != c.trg || s == t);
                    if !agrees {
                        continue;
                    }
                    let mut joined = row.clone();
                    if sc.is_none() {
                        joined.push(s);
                    }
                    if tc.is_none() && c.trg != c.src {
                        joined.push(t);
                    }
                    next.push(joined);
                }
            }
            for v in [c.src, c.trg] {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            next.sort();
            steps.push(next.clone());
            rows = next;
        }
        (vars, steps)
    }

    /// The reference for [`BindingTable::extend`], one row at a time:
    /// each input row's matches are pushed onto a growing buffer, and the
    /// running row count is charged after every input row.
    fn extend_row_at_a_time(
        table: &BindingTable,
        c: &ConjunctPairs<'_>,
        live: &[Var],
        budget: &Budget,
    ) -> Result<BindingTable, EvalError> {
        let is_live = |v: &Var| live.contains(v);
        let keep: Vec<usize> = (0..table.vars.len())
            .filter(|&i| is_live(&table.vars[i]))
            .collect();
        let mut out = BindingTable {
            vars: keep.iter().map(|&i| table.vars[i]).collect(),
            cells: Vec::new(),
            len: 0,
        };
        let (src_col, trg_col) = (table.col(c.src), table.col(c.trg));
        match (src_col, trg_col) {
            (Some(sc), Some(tc)) => {
                for row in table.rows() {
                    if c.pairs.contains(row[sc], row[tc]) {
                        out.push(row, &keep, &[]);
                    }
                }
            }
            (Some(col), None) | (None, Some(col)) => {
                let reversed;
                let (rel, new_var): (&Csr, _) = if src_col.is_some() {
                    (c.pairs, c.trg)
                } else {
                    reversed = c.pairs.transpose();
                    (&reversed, c.src)
                };
                let new_live = is_live(&new_var);
                if new_live {
                    out.vars.push(new_var);
                }
                let stored = usize::from(new_live);
                for row in table.rows() {
                    for &partner in rel.neighbors(row[col]) {
                        out.push(row, &keep, &[partner][..stored]);
                    }
                    budget.check_size(out.len)?;
                }
            }
            (None, None) => {
                let self_loop = c.src == c.trg;
                let (src_live, trg_live) = (is_live(&c.src), !self_loop && is_live(&c.trg));
                if src_live {
                    out.vars.push(c.src);
                }
                if trg_live {
                    out.vars.push(c.trg);
                }
                let stored = usize::from(!src_live)..1 + usize::from(trg_live);
                for row in table.rows() {
                    for (s, t) in c.pairs.iter_edges() {
                        if !self_loop || s == t {
                            out.push(row, &keep, &[s, t][stored.clone()]);
                        }
                    }
                    budget.check_size(out.len)?;
                }
            }
        }
        Ok(out)
    }

    /// A table's stored variables, row count and cells, in order.
    type Parts = (Vec<Var>, usize, Vec<NodeId>);

    fn parts(table: Result<BindingTable, EvalError>) -> Result<Parts, EvalError> {
        table.map(|t| (t.vars, t.len, t.cells))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Four variables over up to four conjuncts reach every arm —
        // seed, both bound, source bound, target bound, disconnected —
        // with self-loop conjuncts and empty relations among them.
        // A random head drawn from the body variables makes some columns
        // dead: the rows carried shrink, their number must not.
        #[test]
        fn flat_row_join_matches_a_nested_loop_reference(
            shape in prop::collection::vec(
                (0u32..4, 0u32..4, prop::collection::vec((0u32..5, 0u32..5), 0..8)),
                0..=4,
            ),
            cap in prop_oneof![Just(0usize), Just(3usize), Just(12usize), Just(10_000usize)],
            picks in prop::collection::vec(0usize..4, 0..=3),
        ) {
            let owned: Vec<Owned> =
                shape.iter().map(|(s, t, pairs)| cp(*s, *t, pairs.clone())).collect();
            let conjuncts = borrowed(&owned);
            let (vars, steps) = reference_join(&conjuncts);
            let head: Vec<Var> = if vars.is_empty() {
                Vec::new()
            } else {
                picks.iter().map(|&i| vars[i % vars.len()]).collect()
            };
            let capped = Budget::with_limits(None, cap);
            let joined = join_all(&conjuncts, &vars, &capped);
            // The same cap trips at the same count whatever is live.
            prop_assert_eq!(
                join_all(&conjuncts, &head, &capped).map(|t| t.len),
                joined.as_ref().map(|t| t.len).map_err(Clone::clone)
            );
            if steps.iter().any(|rows| rows.len() > cap) {
                prop_assert!(matches!(joined, Err(EvalError::TooLarge(_))), "{joined:?}");
            } else {
                let table = joined.unwrap();
                prop_assert_eq!(&table.vars, &vars);
                let expected = steps.last().cloned().unwrap_or_else(|| vec![Vec::new()]);
                prop_assert_eq!(sorted_rows(&table), expected);
            }

            // Step by step under the drawn head, uncapped: the reference's
            // row count after every step, and only live columns stored.
            let mut table = BindingTable::unit();
            for (i, c) in conjuncts.iter().enumerate() {
                let later = conjuncts[i + 1..].iter().map(|c| (c.src, c.trg));
                let live = live_after(&head, later);
                table = table.extend(c, &live, &Budget::default()).unwrap();
                prop_assert_eq!(table.len, steps[i].len(), "rows after step {}", i);
                prop_assert!(table.vars.iter().all(|v| live.contains(v)));
            }
            // The head projection, with multiplicity, is the reference's.
            let rows = steps.last().cloned().unwrap_or_else(|| vec![Vec::new()]);
            let at = |v: &Var| vars.iter().position(|x| x == v).unwrap();
            let mut expected: Vec<Vec<NodeId>> =
                rows.iter().map(|row| head.iter().map(|v| row[at(v)]).collect()).collect();
            let (len, cells) = projected(&table, &head.iter().map(|v| v.0).collect::<Vec<_>>());
            if head.is_empty() {
                prop_assert_eq!(len, usize::from(!rows.is_empty()));
            } else {
                let mut got: Vec<Vec<NodeId>> =
                    cells.chunks_exact(head.len()).map(<[NodeId]>::to_vec).collect();
                got.sort();
                expected.sort();
                prop_assert_eq!(len, rows.len());
                prop_assert_eq!(got, expected);
            }
        }
        // A random table of 0–3 columns against one random conjunct over
        // five variables reaches every arm of `extend`: semi-join (a
        // self-loop among them), source bound, target bound, Cartesian
        // (the unit table too) and a self-loop seed. At every cap from 0
        // to one past the step's output, the counted kernel must give the
        // reference's table row for row, or its `TooLarge(n)`.
        #[test]
        fn counted_extend_matches_the_row_at_a_time_reference(
            columns in prop::collection::btree_set(0u32..5, 0..=3),
            rotate in 0usize..3,
            rows in prop::collection::vec(prop::collection::vec(0u32..6, 3), 0..=40),
            (src, trg) in (0u32..5, 0u32..5),
            pairs in prop::collection::vec((0u32..6, 0u32..6), 0..12),
            live in prop::collection::btree_set(0u32..5, 0..=5),
        ) {
            let mut vars: Vec<Var> = columns.into_iter().map(Var).collect();
            let width = vars.len();
            vars.rotate_left(rotate.min(width));
            let table = BindingTable {
                cells: rows.iter().flat_map(|row| row[..width].to_vec()).collect(),
                len: rows.len(),
                vars,
            };
            let relation = Relation::from_pairs(pairs);
            let c = ConjunctPairs { src: Var(src), trg: Var(trg), pairs: &relation };
            let live: Vec<Var> = live.into_iter().map(Var).collect();
            let uncapped = Budget::with_limits(None, usize::MAX);
            let total = extend_row_at_a_time(&table, &c, &live, &uncapped).unwrap().len;
            for cap in 0..=total + 1 {
                let budget = Budget::with_limits(None, cap);
                prop_assert_eq!(
                    parts(table.extend(&c, &live, &budget)),
                    parts(extend_row_at_a_time(&table, &c, &live, &budget)),
                    "cap {} of {}", cap, total
                );
            }
        }
    }
}

/// `P` through [`join_materialized`].
#[cfg(test)]
mod relational_tests {
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
        let g = graph();
        let expr = &q.rules[0].body[0].expr;
        let bfs = eval_rpq(&EvalContext::new(&g), expr, None, &Budget::default()).unwrap();
        let expected: Vec<[_; 2]> = bfs.iter_edges().map(|(s, t)| [s, t]).collect();
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

/// `S` through [`join_materialized`], against `P`.
#[cfg(test)]
mod triplestore_tests {
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
