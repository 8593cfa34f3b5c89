//! The one join kernel: binary relations joined over shared variables.
//!
//! All four engines join a rule body through one loop, [`join_all`], each
//! step of it one [`Step`]: a conjunct resolved once against the table so
//! far — its arm picked, its relation taken in that arm's direction, its
//! rows counted and charged — then written as the next table
//! ([`Step::rows`]) or, at a rule's last step, read as the head
//! ([`Step::head`]). An engine only mounts each step's relation: `P` and
//! `S` the relations they resolved for the whole body before the first
//! join ([`join_materialized`], one body for both, differing only in the
//! kernel a cache miss runs), `G` the pairs reached from the values the
//! table binds (a cache hit, or a seeded BFS on a miss), `D` a delta at
//! one atom and the full relation at the others. `P`, `G` and `S` also
//! share the rule loop ([`union_of_rules`]); `D` has its own fixpoint.
//! Conjunct results arrive as [`Relation`]s — CSRs with sorted `u32`
//! target runs, often straight out of the sub-expression cache — so the
//! kernel reads each relation's offsets, not a hash table: an extension
//! takes a row's partners as one source run ([`Csr::neighbors`], O(1)), a
//! semi-join looks up the run and binary-searches inside it
//! ([`Csr::contains`]), and the Cartesian arm walks every pair
//! ([`Csr::iter_edges`]). When only the target is bound, the runs are
//! those of the transposed relation ([`Csr::transpose`], a counting sort,
//! once per step) — an arm only `P`, `S` and `D` take: `G` mounts a
//! target-anchored conjunct already keyed by the bound targets, its
//! variables swapped (the transpose of a cache hit, or a BFS backwards
//! from the targets). No per-conjunct hash index is ever built.
//!
//! # Live columns
//!
//! A row carries only what is still needed. Each step receives its *live*
//! variables — the head, plus every variable of a later step — and
//! [`Step::rows`] copies only those columns into its output; a newly bound
//! variable nobody reads is not stored at all. Every arm still emits one
//! output row per match, dead columns or not, so every row count is what
//! it would be with every column kept: each `check_size` sees the same
//! number, each `TooLarge(n)` carries the same `n`. Dropping a column
//! never merges two rows: every step but the last keeps bag semantics. A
//! dropped column is never needed again: a later step reads only its own
//! variables, which are live, and the head is live throughout.
//!
//! # Counting, and the head
//!
//! A step counts its rows when it is resolved, before it writes one. A
//! bound arm adds up each input row's run length (O(1) from the offsets),
//! the Cartesian arm the relation's length (its diagonal's, for a
//! self-loop) once per input row, and the running total is charged after
//! every input row: the charges a row-at-a-time loop makes. A semi-join
//! only counts. A step over the cap so fails with the same `TooLarge(n)`
//! without writing a row, and one that fits writes into one buffer of its
//! exact size.
//!
//! A rule's last step writes no table: [`Step::head`] reads the head off
//! it already a set — a [`Csr`] of head pairs — so the last step's bag and
//! its projected head cells never exist, after charging what writing them
//! would have (the rows when the step was resolved, then the projected
//! rows). When one end is bound and the head is a kept column and the new
//! partner, the head is a composition: the distinct (key, anchor) pairs of
//! the rows, composed with the step's relation by [`Relation::compose`],
//! the kernel of the fill, of `P`'s misses and of `D`'s rule (d). The
//! composition charges only deduplicated pairs, never more than the rows
//! already charged, so it can fail only on the clock. A head shape it does
//! not read as a set, or a build whose scratch would outgrow the rows,
//! takes the bag path from the same step: its head cells, written off the
//! same visit of the step's rows that [`Step::rows`] makes, made a set by
//! [`Answers::from_rows`].

use crate::context::EvalContext;
use crate::relations::Relation;
use crate::{scatter_fits, Answers, Budget, EvalError, QueryPlan};
use gmark_core::query::{Conjunct, Query, RegularExpr, Var};
use gmark_store::{Csr, NodeId};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Deref;
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
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + Clone + '_ {
        let width = self.vars.len();
        (0..self.len).map(move |r| &self.cells[r * width..(r + 1) * width])
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
}

/// One conjunct's relation, tagged with its variables, as a mount hands
/// it to a step: borrowed (`&Relation` — a context relation, a resolved
/// cache entry, a Datalog predicate) or shared (`Arc<Relation>` — `G`'s
/// seeded BFS), never copied.
#[derive(Debug)]
pub(crate) struct ConjunctPairs<R> {
    pub src: Var,
    pub trg: Var,
    pub pairs: R,
}

/// Where a variable's value lies in a row a step yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    /// A column of the table the step extends.
    Kept(usize),
    /// The conjunct's source, not bound before the step.
    Src,
    /// The conjunct's target, not bound before the step.
    Trg,
}

/// How a step's conjunct meets the table.
#[derive(Debug)]
enum Arm<'a> {
    /// Both ends bound, at these columns: a semi-join, which can only
    /// shrink the table. A self-loop conjunct bound at its one variable
    /// is one too.
    Semi(usize, usize),
    /// One end bound, at column `col`: each row selects its sorted run of
    /// partners in `rel`, the relation keyed by the bound end — the
    /// conjunct's own when that is the source, its transpose when it is
    /// the target.
    Bound { col: usize, rel: Cow<'a, Csr> },
    /// Neither end bound: every row meets every pair of the relation, or
    /// only its `(v, v)` pairs for a self-loop `(?x, r, ?x)`, which binds
    /// one column. This is also how the first conjunct seeds the
    /// [`BindingTable::unit`] table.
    Cartesian,
}

/// One join step: a conjunct resolved against the table it extends, which
/// it owns. This is the one place that picks the arm, takes the relation
/// in the arm's direction and counts and charges the step's rows (see the
/// module docs); [`Step::rows`] and [`Step::head`] only read what it
/// resolved.
#[derive(Debug)]
struct Step<'a> {
    table: BindingTable,
    src: Var,
    trg: Var,
    pairs: &'a Csr,
    arm: Arm<'a>,
    /// The number of rows the step yields, as a bag.
    len: usize,
}

impl<'a> Step<'a> {
    /// Resolves conjunct `c` against `table`: the arm its bound variables
    /// pick, and the step's rows, counted and charged after every input
    /// row, so a step over the cap fails with the first total that exceeds
    /// it.
    fn new<R: Deref<Target = Relation>>(
        table: BindingTable,
        c: &'a ConjunctPairs<R>,
        budget: &Budget,
    ) -> Result<Step<'a>, EvalError> {
        let pairs: &Csr = &c.pairs;
        let (src_col, trg_col) = (table.col(c.src), table.col(c.trg));
        let (arm, len) = match (src_col, trg_col) {
            (Some(sc), Some(tc)) => {
                let hits = table.rows().filter(|row| pairs.contains(row[sc], row[tc]));
                (Arm::Semi(sc, tc), hits.count())
            }
            (Some(col), None) | (None, Some(col)) => {
                // Backward is forward over the transposed relation.
                let rel = if src_col.is_some() || table.len == 0 {
                    Cow::Borrowed(pairs)
                } else {
                    Cow::Owned(pairs.transpose())
                };
                let keyed: &Csr = &rel;
                let len = table.count_output(budget, |row| keyed.degree(row[col]))?;
                (Arm::Bound { col, rel }, len)
            }
            (None, None) => {
                let per_row = if c.src == c.trg {
                    pairs.iter_edges().filter(|(s, t)| s == t).count()
                } else {
                    pairs.edge_count()
                };
                (Arm::Cartesian, table.count_output(budget, |_| per_row)?)
            }
        };
        Ok(Step {
            table,
            src: c.src,
            trg: c.trg,
            pairs,
            arm,
            len,
        })
    }

    /// The step written as a table, storing only the `live` variables:
    /// the kept columns in their order, then the newly bound source, then
    /// the newly bound target. This is the row writer every step but a
    /// rule's last goes through.
    fn rows(&self, live: &[Var]) -> BindingTable {
        let keep: Vec<usize> = (0..self.table.vars.len())
            .filter(|&k| live.contains(&self.table.vars[k]))
            .collect();
        let mut vars: Vec<Var> = keep.iter().map(|&k| self.table.vars[k]).collect();
        let stored = |v: Var| self.table.col(v).is_none() && live.contains(&v);
        let (src_new, trg_new) = (stored(self.src), self.trg != self.src && stored(self.trg));
        vars.extend(src_new.then_some(self.src));
        vars.extend(trg_new.then_some(self.trg));
        let mut cells = Vec::with_capacity(self.len * vars.len());
        // Two pushes, not a copy of a slice of `[s, t]` whose length the
        // loop cannot see: that costs a `memcpy` call per row.
        self.each(|row, s, t| {
            cells.extend(keep.iter().map(|&k| row[k]));
            if src_new {
                cells.push(s);
            }
            if trg_new {
                cells.push(t);
            }
        });
        BindingTable {
            vars,
            cells,
            len: self.len,
        }
    }

    /// Reads `head` off the step as a set, without writing the step's
    /// rows or copying them into head cells. After the step's own charge
    /// it makes the charges of projecting its rows, in their order:
    /// [`EvalError::Unsupported`] for a head variable the body never
    /// binds, then `charge`, handed the raw projected row count (one row
    /// or none at arity 0). Only then does it build, so every
    /// `TooLarge(n)` is the bag's.
    ///
    /// The arm is the step's, and the head's shape picks the build:
    /// - **a kept column and the new partner** (one end bound, the other
    ///   in the head): the rows' (key, anchor) pairs — the key is the kept
    ///   column, a constant at arity 1 — made a set by
    ///   [`Csr::try_from_edges`], then the table's cells are freed and that
    ///   set is composed with the relation keyed by the anchor
    ///   ([`Relation::compose`], whose clock check fails the cell, not over
    ///   to the bag path). A partner-first head is built keyed by the kept
    ///   column and transposed;
    /// - **only kept columns** (the semi-join arm, or the new variable
    ///   dead): the head pairs of the rows that match go through
    ///   [`Csr::try_from_edges`];
    /// - **a Cartesian step under no kept column**: the head is read off
    ///   the relation alone — itself, its transpose, or its sources,
    ///   targets or self-loop diagonal through [`Csr::try_from_edges`].
    ///
    /// Every other head — arity 3 and up, the new variable twice, a
    /// Cartesian step under a kept column — and a build whose scratch
    /// would outgrow the rows ([`scatter_fits`]) takes the bag path: the
    /// head cells of every row the step yields, made a set by
    /// [`Answers::from_rows`].
    fn head(
        mut self,
        head: &[Var],
        budget: &Budget,
        charge: impl FnOnce(usize) -> Result<(), EvalError>,
    ) -> Result<HeadSet, EvalError> {
        let at: Vec<At> = head
            .iter()
            .map(|&v| self.at(v).ok_or_else(|| unbound(v)))
            .collect::<Result<_, _>>()?;
        let arity = head.len();
        charge(if arity == 0 {
            usize::from(self.len > 0)
        } else {
            self.len
        })?;
        if let Some(csr) = self.build(&at, budget)? {
            return Ok(HeadSet::Pairs(csr));
        }
        // The bag path: the head cells of every row the step yields.
        let mut cells = Vec::with_capacity(self.len * arity);
        self.each(|row, s, t| {
            cells.extend(at.iter().map(|&at| match at {
                At::Kept(k) => row[k],
                At::Src => s,
                At::Trg => t,
            }));
        });
        Ok(HeadSet::Rows(Answers::from_rows(arity, self.len, cells)))
    }

    /// Where variable `v` lies in the rows the step yields; `None` if the
    /// step leaves it unbound. A self-loop's one variable reads as `Src`.
    fn at(&self, v: Var) -> Option<At> {
        match self.table.col(v) {
            Some(col) => Some(At::Kept(col)),
            None if v == self.src => Some(At::Src),
            None if v == self.trg => Some(At::Trg),
            None => None,
        }
    }

    /// The pairs of the relation a Cartesian step meets: all of them, or
    /// the diagonal for a self-loop.
    fn matches(&self) -> impl Iterator<Item = (NodeId, NodeId)> + Clone + '_ {
        let self_loop = self.src == self.trg;
        self.pairs
            .iter_edges()
            .filter(move |(s, t)| !self_loop || s == t)
    }

    /// Visits every row the step yields, in order: the input row it
    /// extends, and what its `Src` and `Trg` cells read — the pair the
    /// conjunct matched it with, except that a bound step hands its new
    /// partner as both, its bound end being a kept column.
    fn each(&self, mut visit: impl FnMut(&[NodeId], NodeId, NodeId)) {
        let rows = self.table.rows();
        match &self.arm {
            &Arm::Semi(sc, tc) => {
                for row in rows.filter(|row| self.pairs.contains(row[sc], row[tc])) {
                    visit(row, row[sc], row[tc]);
                }
            }
            Arm::Bound { col, rel } => {
                for row in rows {
                    for &partner in rel.neighbors(row[*col]) {
                        visit(row, partner, partner);
                    }
                }
            }
            Arm::Cartesian => {
                for row in rows {
                    for (s, t) in self.matches() {
                        visit(row, s, t);
                    }
                }
            }
        }
    }

    /// The head of one or two cells at `at` as a set of pairs, read off
    /// the arm (see [`Step::head`]); `None` when the head's shape is not
    /// read as a set or its scratch would outgrow the rows. Only the
    /// composition a bound step's head is read through checks the clock.
    fn build(&mut self, at: &[At], budget: &Budget) -> Result<Option<Csr>, EvalError> {
        let arity = at.len();
        let kept: Vec<usize> = at
            .iter()
            .filter_map(|a| match a {
                At::Kept(k) => Some(*k),
                _ => None,
            })
            .collect();
        let partners = arity - kept.len();
        let reads = arity <= 2
            && match self.arm {
                Arm::Cartesian => kept.is_empty(),
                _ => partners <= 1,
            };
        if !reads {
            return Ok(None);
        } else if self.len == 0 {
            return Ok(Some(Csr::default()));
        } else if arity == 0 {
            return Ok(Some(satisfied()));
        }
        let fits = |first, last| scatter_fits(arity, self.len, first, last);
        Ok(match &self.arm {
            // A kept column (or none, at arity 1) and the new partner: the
            // distinct (key, anchor) pairs of the rows, composed with the
            // relation keyed by the anchor.
            Arm::Bound { col, rel, .. } if partners == 1 => {
                let key = |row: &[NodeId]| kept.first().map_or(0, |&k| row[k]);
                // Every row's pair, partners or not: a lookup per row per
                // pass costs more than the anchors without partners, which
                // the composition skips.
                let pairs = self.table.rows().map(|row| (key(row), row[*col]));
                let Some(anchors) = Csr::try_from_edges(pairs, fits) else {
                    return Ok(None);
                };
                // The rows are read: free them before the head is written, so
                // the two never take memory at once.
                self.table.cells = Vec::new();
                let head = Relation::from_csr(anchors).compose(rel, budget)?.into_csr();
                // A partner-first head, built keyed by the kept column.
                let flip = matches!(at, [At::Src | At::Trg, At::Kept(_)]);
                Some(if flip { head.transpose() } else { head })
            }
            // A Cartesian step, whose head reads only the relation.
            Arm::Cartesian => {
                let end = |a: At, (s, t): (NodeId, NodeId)| if a == At::Src { s } else { t };
                match *at {
                    [At::Src, At::Trg] => Some(self.pairs.clone()),
                    [At::Trg, At::Src] => Some(self.pairs.transpose()),
                    [a] => Csr::try_from_edges(self.matches().map(|p| (0, end(a, p))), fits),
                    [a, b] => {
                        Csr::try_from_edges(self.matches().map(|p| (end(a, p), end(b, p))), fits)
                    }
                    _ => unreachable!("a head of one or two cells"),
                }
            }
            // Only kept columns: the pairs of the rows that match.
            _ => {
                let hit = |row: &&[NodeId]| match &self.arm {
                    &Arm::Semi(sc, tc) => self.pairs.contains(row[sc], row[tc]),
                    Arm::Bound { col, rel, .. } => rel.degree(row[*col]) > 0,
                    Arm::Cartesian => unreachable!("a bound step"),
                };
                let pair = |row: &[NodeId]| match kept[..] {
                    [v] => (0, row[v]),
                    [a, b] => (row[a], row[b]),
                    _ => unreachable!("a head of one or two cells"),
                };
                Csr::try_from_edges(self.table.rows().filter(hit).map(pair), fits)
            }
        })
    }
}

/// The set of head pairs of a satisfied Boolean head: `(0, 0)`.
fn satisfied() -> Csr {
    Csr::from_parts(0, vec![0, 1], vec![0])
}

/// A rule's head as a set, as [`Step::head`] reads it.
#[derive(Debug)]
pub(crate) enum HeadSet {
    /// A head of arity 0 to 2 as pairs: `(a, b)` at arity 2, `(0, v)` at
    /// arity 1, and `(0, 0)` at arity 0 when the body is satisfiable.
    Pairs(Csr),
    /// Any other head, off the bag path.
    Rows(Answers),
}

impl HeadSet {
    /// The head as answers of `arity` cells.
    pub fn into_answers(self, arity: usize) -> Answers {
        match self {
            HeadSet::Pairs(csr) => Answers::from_csr(arity, &csr),
            HeadSet::Rows(answers) => answers,
        }
    }

    /// A binary head as a relation.
    pub fn into_relation(self) -> Relation {
        match self {
            HeadSet::Pairs(csr) => Relation::from_csr(csr),
            HeadSet::Rows(answers) => Relation::from_pairs(answers.rows().map(|r| (r[0], r[1]))),
        }
    }
}

/// The one join loop: joins the steps whose variables are `ends`, in
/// order, each [`Step`] but the last written as the next table of its
/// live columns, and reads the head off the last ([`Step::head`], which
/// hands `charge` the head's raw row count). `mount(i, table)` is the
/// engine: it hands over step `i`'s relation, given the table it will
/// extend; the clock is checked before every mount. A body of no
/// conjuncts is the join identity, which satisfies only a Boolean head.
pub(crate) fn join_all<R: Deref<Target = Relation>>(
    ends: &[(Var, Var)],
    head: &[Var],
    budget: &Budget,
    mut mount: impl FnMut(usize, &BindingTable) -> Result<ConjunctPairs<R>, EvalError>,
    charge: impl FnOnce(usize) -> Result<(), EvalError>,
) -> Result<HeadSet, EvalError> {
    let mut table = BindingTable::unit();
    for i in 0..ends.len() {
        budget.check_time()?;
        let c = mount(i, &table)?;
        let step = Step::new(table, &c, budget)?;
        if i + 1 == ends.len() {
            return step.head(head, budget, charge);
        }
        table = step.rows(&live_after(head, ends[i + 1..].iter().copied()));
    }
    match head.first() {
        Some(&v) => Err(unbound(v)),
        None => charge(1).map(|()| HeadSet::Pairs(satisfied())),
    }
}

/// The body `P` and `S` share, differing only in `kernel`: each conjunct
/// of a rule read in plan order through [`EvalContext::conjunct_relation`]
/// (a miss runs `kernel`), all before the first join, then joined in that
/// order.
pub(crate) fn join_materialized(
    ctx: &EvalContext<'_>,
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
    kernel: impl Fn(&RegularExpr) -> Result<Arc<Relation>, EvalError>,
) -> Result<Answers, EvalError> {
    union_of_rules(query, plan, budget, |head, body, charge| {
        let relations = body
            .iter()
            .map(|c| ctx.conjunct_relation(&c.expr, budget, || kernel(&c.expr)))
            .collect::<Result<Vec<_>, _>>()?;
        let ends: Vec<(Var, Var)> = body.iter().map(|c| (c.src, c.trg)).collect();
        let mount = |i: usize, _: &BindingTable| {
            let (src, trg) = ends[i];
            Ok(ConjunctPairs {
                src,
                trg,
                pairs: &*relations[i],
            })
        };
        join_all(&ends, head, budget, mount, charge)
    })
}

/// The variables a step must store: the head, plus both variables of
/// every later step.
fn live_after(head: &[Var], later: impl Iterator<Item = (Var, Var)>) -> Vec<Var> {
    let mut live = head.to_vec();
    for (src, trg) in later {
        live.extend([src, trg]);
    }
    live
}

/// What a rule's head charges: handed the head's raw row count before the
/// head is built.
pub(crate) type Charge<'a> = &'a dyn Fn(usize) -> Result<(), EvalError>;

/// The rule loop `P`, `G` and `S` share: the union, over the query's
/// rules, of each rule's head set, charging the cumulative raw projected
/// row count after every rule, before that rule's head is built.
/// `head_of` is the engine — how one rule's head and its conjuncts, in
/// plan order, become a head set through [`join_all`], with the charge it
/// is handed. `plan` must fit `query` (the entry point checks).
pub(crate) fn union_of_rules(
    query: &Query,
    plan: &QueryPlan,
    budget: &Budget,
    mut head_of: impl FnMut(&[Var], &[&Conjunct], Charge<'_>) -> Result<HeadSet, EvalError>,
) -> Result<Answers, EvalError> {
    let charged = Cell::new(0);
    let charge = |rows: usize| {
        charged.set(charged.get() + rows);
        budget.check_size(charged.get())
    };
    let mut answers: Option<Answers> = None;
    for (rule, rule_plan) in query.rules.iter().zip(&plan.rules) {
        let body: Vec<&Conjunct> = rule_plan
            .steps
            .iter()
            .map(|step| &rule.body[step.conjunct])
            .collect();
        let rule_answers = head_of(&rule.head, &body, &charge)?.into_answers(query.arity());
        answers = Some(match answers {
            Some(so_far) => so_far.union(&rule_answers),
            None => rule_answers,
        });
    }
    Ok(answers.unwrap_or_else(|| Answers::from_rows(query.arity(), 0, Vec::new())))
}

/// A head variable that never appears in the body violates rule safety;
/// it surfaces as a typed [`EvalError`] — one malformed query becomes a
/// failed matrix cell, not a process abort.
fn unbound(v: Var) -> EvalError {
    EvalError::Unsupported(format!(
        "head variable {v} is not bound in the rule body (rule safety)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test conjunct owns its relation; [`ConjunctPairs`] borrows it.
    type Owned = (u32, u32, Relation);

    type Borrowed<'r> = ConjunctPairs<&'r Relation>;

    impl BindingTable {
        /// Joins one conjunct into the table, storing only the `live`
        /// variables: one [`Step`], written.
        fn extend(
            &self,
            c: &Borrowed<'_>,
            live: &[Var],
            budget: &Budget,
        ) -> Result<BindingTable, EvalError> {
            Ok(Step::new(self.clone(), c, budget)?.rows(live))
        }

        /// Appends one output row: the `keep` columns of `row`, then `new`.
        fn push(&mut self, row: &[NodeId], keep: &[usize], new: &[NodeId]) {
            self.cells.extend(keep.iter().map(|&c| row[c]));
            self.cells.extend_from_slice(new);
            self.len += 1;
        }
    }

    /// The head read off one [`Step`].
    fn read_head(
        table: &BindingTable,
        c: &Borrowed<'_>,
        head: &[Var],
        budget: &Budget,
        charge: impl FnOnce(usize) -> Result<(), EvalError>,
    ) -> Result<HeadSet, EvalError> {
        Step::new(table.clone(), c, budget)?.head(head, budget, charge)
    }

    /// The bag path, written out: the step joined into `table` as a table
    /// of rows, [`project`]ed with `charge`, and made a set by
    /// [`Answers::from_rows`].
    fn bag_head(
        table: &BindingTable,
        c: &Borrowed<'_>,
        head: &[Var],
        budget: &Budget,
        charge: impl FnOnce(usize) -> Result<(), EvalError>,
    ) -> Result<HeadSet, EvalError> {
        let table = table.extend(c, head, budget)?;
        let mut cells = Vec::new();
        let len = project(&table, head, &mut cells, charge)?;
        Ok(HeadSet::Rows(Answers::from_rows(head.len(), len, cells)))
    }

    /// [`join_all`] over the conjuncts in order, each mounted as it is.
    fn join_head(
        conjuncts: &[Borrowed<'_>],
        head: &[Var],
        budget: &Budget,
        charge: impl FnOnce(usize) -> Result<(), EvalError>,
    ) -> Result<HeadSet, EvalError> {
        let ends: Vec<(Var, Var)> = conjuncts.iter().map(|c| (c.src, c.trg)).collect();
        let mount = |i: usize, _: &BindingTable| {
            let c = &conjuncts[i];
            Ok(ConjunctPairs {
                src: c.src,
                trg: c.trg,
                pairs: c.pairs,
            })
        };
        join_all(&ends, head, budget, mount, charge)
    }

    /// The reference's head projection: appends the table's rows,
    /// projected onto `head`, to the row-major `out` and returns how many
    /// rows that was (deduplication is [`Answers::from_rows`]' job).
    /// `charge` is handed that count before any row is copied, and an
    /// error from it is returned with `out` untouched. A Boolean head
    /// appends no cells and counts one row iff any row exists. A head
    /// variable the table lacks is [`unbound`].
    fn project(
        table: &BindingTable,
        head: &[Var],
        out: &mut Vec<NodeId>,
        charge: impl FnOnce(usize) -> Result<(), EvalError>,
    ) -> Result<usize, EvalError> {
        let cols: Vec<usize> = head
            .iter()
            .map(|&v| table.col(v).ok_or_else(|| unbound(v)))
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

    fn cp(src: u32, trg: u32, pairs: Vec<(NodeId, NodeId)>) -> Owned {
        (src, trg, Relation::from_pairs(pairs))
    }

    fn borrowed(owned: &[Owned]) -> Vec<Borrowed<'_>> {
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
    fn every_var(conjuncts: &[Borrowed<'_>]) -> Vec<Var> {
        let mut vars = Vec::new();
        for v in conjuncts.iter().flat_map(|c| [c.src, c.trg]) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    }

    /// Every step joined into a table of rows, each storing its live
    /// columns: what a rule's body leaves on the bag path.
    fn join_table(
        conjuncts: &[Borrowed<'_>],
        head: &[Var],
        budget: &Budget,
    ) -> Result<BindingTable, EvalError> {
        let mut table = BindingTable::unit();
        for (i, c) in conjuncts.iter().enumerate() {
            let later = conjuncts[i + 1..].iter().map(|c| (c.src, c.trg));
            table = table.extend(c, &live_after(head, later), budget)?;
        }
        Ok(table)
    }

    /// Joins keeping every column.
    fn join(owned: &[Owned], budget: &Budget) -> Result<BindingTable, EvalError> {
        let conjuncts = borrowed(owned);
        join_table(&conjuncts, &every_var(&conjuncts), budget)
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
    fn each_head_shape_takes_its_arm() {
        // 40 rows (x0, x1) against x1 → x2 over 5 × 4 pairs, or x2 → x1
        // over their converse: 160 raw rows. The rows (k % 8, k % 5) are
        // all distinct, and every scatter fits; the rows (k % 2, k % 3)
        // repeat each (key, anchor) pair six or seven times; under the
        // keys k · 100 000 no scatter keyed by x0 fits.
        let table = |x0: fn(NodeId) -> NodeId, x1: fn(NodeId) -> NodeId| BindingTable {
            vars: vec![Var(0), Var(1)],
            cells: (0..40).flat_map(|k| [x0(k), x1(k)]).collect(),
            len: 40,
        };
        let distinct = table(|k| k % 8, |k| k % 5);
        let repeated = table(|k| k % 2, |k| k % 3);
        let wide = table(|k| k * 100_000, |k| k % 5);
        let rel = Relation::from_pairs((0..5).flat_map(|m| (0..4).map(move |t| (m, 10 + t))));
        let converse = Relation::from_csr(rel.transpose());
        // Half of the distinct rows are pairs of `even`.
        let grid = (0..8).flat_map(|a| (0..5).map(move |b| (a, b)));
        let even = Relation::from_pairs(grid.filter(|(a, b)| (a + b) % 2 == 0));
        let forward = ConjunctPairs {
            src: Var(1),
            trg: Var(2),
            pairs: &rel,
        };
        let backward = ConjunctPairs {
            src: Var(2),
            trg: Var(1),
            pairs: &converse,
        };
        let semi = ConjunctPairs {
            src: Var(0),
            trg: Var(1),
            pairs: &even,
        };
        // Whether the head is read as a set, having checked it against
        // the bag path's.
        let arm = |table: &BindingTable, c: &Borrowed<'_>, head: &[u32]| {
            let head: Vec<Var> = head.iter().copied().map(Var).collect();
            let budget = Budget::default();
            let read = read_head(table, c, &head, &budget, |_| Ok(())).unwrap();
            let bag = bag_head(table, c, &head, &budget, |_| Ok(())).unwrap();
            let set = matches!(read, HeadSet::Pairs(_));
            assert_eq!(read.into_answers(head.len()), bag.into_answers(head.len()));
            set
        };
        for c in [&forward, &backward] {
            // Kept-first, partner-first, both kept, one kept, the partner
            // alone, a repeated kept column, Boolean: read as a set.
            for head in [&[0, 2][..], &[2, 0], &[0, 1], &[1], &[2], &[0, 0], &[]] {
                assert!(arm(&distinct, c, head), "{head:?}");
                assert!(arm(&repeated, c, head), "{head:?}");
            }
            // The partner twice, and arity 3: the bag path.
            assert!(!arm(&distinct, c, &[2, 2]));
            assert!(!arm(&distinct, c, &[0, 1, 2]));
            // Keys too far apart: the bag path; the partner alone: a set.
            assert!(!arm(&wide, c, &[0, 2]) && !arm(&wide, c, &[2, 0]));
            assert!(arm(&wide, c, &[2]));
        }
        assert!(arm(&distinct, &semi, &[0, 1]) && arm(&distinct, &semi, &[1]));
        // A Cartesian step reads the relation alone; under a kept column
        // it takes the bag path.
        let unit = BindingTable::unit();
        let lone = ConjunctPairs {
            src: Var(3),
            trg: Var(4),
            pairs: &rel,
        };
        for head in [&[3, 4][..], &[4, 3], &[3], &[4], &[3, 3]] {
            let head: Vec<Var> = head.iter().copied().map(Var).collect();
            let read = read_head(&unit, &lone, &head, &Budget::default(), |_| Ok(()));
            assert!(matches!(read, Ok(HeadSet::Pairs(_))), "{head:?}");
        }
        assert!(!arm(&distinct, &lone, &[0, 3]));
    }

    #[test]
    fn a_timeout_in_the_heads_composition_fails_the_step() {
        // 40 rows against one partner each: enough for the scatter to fit.
        let table = BindingTable {
            vars: vec![Var(0)],
            cells: (0..40).map(|k| k % 4).collect(),
            len: 40,
        };
        let rel = Relation::from_pairs((0..4).map(|m| (m, 10 + m)));
        let c = ConjunctPairs {
            src: Var(0),
            trg: Var(1),
            pairs: &rel,
        };
        let expired = Budget::with_limits(Some(std::time::Duration::ZERO), usize::MAX);
        let read = |head: &[u32]| {
            let head: Vec<Var> = head.iter().copied().map(Var).collect();
            read_head(&table, &c, &head, &expired, |_| Ok(()))
        };
        // The composition checks the clock, and its timeout fails the step
        // instead of falling back to the bag path, which never checks it.
        assert!(matches!(read(&[0, 1]), Err(EvalError::Timeout)));
        assert!(matches!(read(&[1, 0]), Err(EvalError::Timeout)));
        assert!(matches!(read(&[1, 1]), Ok(HeadSet::Rows(_))));
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
    fn reference_join(conjuncts: &[Borrowed<'_>]) -> (Vec<Var>, Vec<Vec<Vec<NodeId>>>) {
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
        c: &Borrowed<'_>,
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
            let joined = join_table(&conjuncts, &vars, &capped);
            // The same cap trips at the same count whatever is live.
            prop_assert_eq!(
                join_table(&conjuncts, &head, &capped).map(|t| t.len),
                joined.as_ref().map(|t| t.len).map_err(Clone::clone)
            );
            // The head read off the last step is the bag path's set, or
            // its error, the projected rows charged alike.
            let charge = |rows| capped.check_size(rows);
            let bag = join_table(&conjuncts, &head, &capped).and_then(|table| {
                let mut cells = Vec::new();
                let len = project(&table, &head, &mut cells, charge)?;
                Ok(Answers::from_rows(head.len(), len, cells))
            });
            prop_assert_eq!(
                join_head(&conjuncts, &head, &capped, charge).map(|h| h.into_answers(head.len())),
                bag
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // A random table of 0–3 columns, one random conjunct and a head of
        // 0–3 variables, each a table column, an end of the conjunct, or
        // the never-bound `?x5`, reach every arm of the head kernel —
        // semi-join, source bound, target bound, Cartesian, self-loop —
        // under every head shape: kept-first, partner-first, both kept,
        // repeated, unbound, and arity 3. One time in four, ids are spread
        // so far apart that no scatter fits and the bag path runs. At
        // every cap from 0 to one past the step's rows, the kernel must
        // give the row-at-a-time reference's answers, or its
        // `TooLarge(n)` or `Unsupported`; a binary head read as `D`'s
        // relation must be `Relation::from_pairs` of the projected cells.
        #[test]
        fn head_kernel_matches_the_row_at_a_time_reference(
            (columns, rotate) in (prop::collection::btree_set(0u32..5, 0..=3), 0usize..3),
            rows in prop::collection::vec(prop::collection::vec(0u32..6, 3), 0..=40),
            (src, trg) in (0u32..5, 0u32..5),
            pairs in prop::collection::vec((0u32..6, 0u32..6), 0..12),
            head in prop::collection::vec(0usize..8, 0..=3),
            wide in 0u8..4,
        ) {
            let spread = |v: NodeId| if wide == 0 { v * 1_009 } else { v };
            let mut vars: Vec<Var> = columns.into_iter().map(Var).collect();
            let width = vars.len();
            vars.rotate_left(rotate.min(width));
            let head: Vec<Var> = head
                .into_iter()
                .map(|pick| match pick {
                    0..=2 if width > 0 => vars[pick % width],
                    3 | 4 => Var(src),
                    5 | 6 => Var(trg),
                    _ => Var(5),
                })
                .collect();
            let table = BindingTable {
                cells: rows.iter().flat_map(|row| row[..width].iter().map(|&v| spread(v))).collect(),
                len: rows.len(),
                vars,
            };
            let relation = Relation::from_pairs(pairs.iter().map(|&(s, t)| (spread(s), spread(t))));
            let c = ConjunctPairs { src: Var(src), trg: Var(trg), pairs: &relation };
            let reference = |budget: &Budget| {
                let t = extend_row_at_a_time(&table, &c, &head, budget)?;
                let mut cells = Vec::new();
                let len = project(&t, &head, &mut cells, |rows| budget.check_size(rows))?;
                Ok((Answers::from_rows(head.len(), len, cells.clone()), cells))
            };
            let uncapped = Budget::with_limits(None, usize::MAX);
            let total = extend_row_at_a_time(&table, &c, &head, &uncapped).unwrap().len;
            for cap in 0..=total + 1 {
                let budget = Budget::with_limits(None, cap);
                let charge = |rows| budget.check_size(rows);
                let expected: Result<(Answers, Vec<NodeId>), EvalError> = reference(&budget);
                let read = read_head(&table, &c, &head, &budget, charge);
                prop_assert_eq!(
                    read.map(|h| h.into_answers(head.len())),
                    expected.clone().map(|(answers, _)| answers),
                    "cap {} of {}", cap, total
                );
                if let (2, Ok((_, cells))) = (head.len(), expected) {
                    let relation = read_head(&table, &c, &head, &budget, charge).unwrap();
                    let pairs = cells.chunks_exact(2).map(|p| (p[0], p[1]));
                    prop_assert_eq!(relation.into_relation(), Relation::from_pairs(pairs));
                }
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

/// Every engine at every tuple cap around a cell's edge, through
/// [`EngineKind::evaluate`](crate::EngineKind::evaluate).
#[cfg(test)]
mod cap_edge_tests {
    use super::*;
    use crate::fixtures::{graph5 as graph, sym};
    use crate::EngineKind;
    use gmark_core::query::{PathExpr, Rule};

    /// `(head, body)` with variables `?x0`… as numbers.
    fn rule(head: &[u32], body: &[(u32, &RegularExpr, u32)]) -> Rule {
        Rule {
            head: head.iter().copied().map(Var).collect(),
            body: body
                .iter()
                .map(|(src, expr, trg)| Conjunct {
                    src: Var(*src),
                    expr: (*expr).clone(),
                    trg: Var(*trg),
                })
                .collect(),
        }
    }

    /// Queries that put each arm of a step — semi-join, source bound,
    /// target bound, Cartesian, self-loop — and a starred conjunct at the
    /// last step and at an earlier one, under heads of every arity and
    /// every head shape; the plan is the declaration order.
    fn queries() -> Vec<Query> {
        let (a, b) = (RegularExpr::symbol(sym(0)), RegularExpr::symbol(sym(1)));
        let a_star = RegularExpr::star(vec![PathExpr(vec![sym(0)])]);
        let aa = RegularExpr::path(PathExpr(vec![sym(0), sym(0)]));
        // The 3-cycle 0 → 1 → 2 → 0 puts (0, 0), (1, 1), (2, 2) in a·a·a.
        let aaa = RegularExpr::path(PathExpr(vec![sym(0), sym(0), sym(0)]));
        let rules = [
            // Source bound, last and earlier.
            rule(&[0, 2], &[(0, &a, 1), (1, &b, 2)]),
            rule(&[0, 3], &[(0, &a, 1), (1, &a, 2), (2, &b, 3)]),
            rule(&[2, 0], &[(0, &a, 1), (1, &b, 2)]),
            rule(&[0, 0], &[(0, &a, 1), (1, &b, 2)]),
            rule(&[], &[(0, &a, 1), (1, &b, 2)]),
            // Target bound, last and earlier.
            rule(&[0, 2], &[(1, &b, 2), (0, &a, 1)]),
            rule(&[3, 2], &[(1, &b, 2), (0, &a, 1), (0, &a, 3)]),
            // Semi-join, last and earlier.
            rule(&[0, 1], &[(0, &a, 1), (1, &a, 2), (2, &a, 0)]),
            rule(&[0, 3], &[(0, &a, 1), (1, &a, 2), (0, &aa, 2), (2, &b, 3)]),
            // Cartesian, last — under no kept column, under one, at arity
            // 3 — and earlier.
            rule(&[2, 3], &[(0, &a, 1), (2, &b, 3)]),
            rule(&[0, 3], &[(0, &a, 1), (2, &b, 3)]),
            rule(&[0, 1, 3], &[(0, &a, 1), (2, &b, 3)]),
            rule(&[0, 3], &[(0, &b, 1), (2, &a, 3), (1, &a, 2)]),
            // Self-loops: a Cartesian one last, a semi-join one last, and
            // one first.
            rule(&[2], &[(0, &b, 1), (2, &aaa, 2)]),
            rule(&[0], &[(0, &a, 1), (1, &aaa, 1)]),
            rule(&[0, 1], &[(0, &aaa, 0), (0, &b, 1)]),
            // Starred conjuncts, first, last, and as a self-loop.
            rule(&[0, 2], &[(0, &a_star, 1), (1, &b, 2)]),
            rule(&[0, 2], &[(0, &b, 1), (1, &a_star, 2)]),
            rule(&[1], &[(0, &a_star, 0), (0, &b, 1)]),
            // Steps that yield more rows than their relations hold, so
            // that a join step's own count decides the edge.
            rule(&[0, 2], &[(0, &a_star, 1), (1, &a_star, 2)]),
            rule(&[0, 2], &[(1, &a_star, 2), (0, &a_star, 1)]),
            rule(&[0, 3], &[(0, &a_star, 1), (1, &a_star, 2), (2, &b, 3)]),
            rule(&[1, 2], &[(0, &a_star, 1), (2, &a_star, 3)]),
            // The partner twice, off the bag path.
            rule(&[2, 2, 0], &[(0, &a, 1), (1, &a_star, 2)]),
        ];
        let mut queries: Vec<Query> = rules
            .iter()
            .cloned()
            .map(Query::single)
            .map(Result::unwrap)
            .collect();
        // A union of two rules, charged cumulatively.
        queries.push(Query::new(vec![rules[0].clone(), rules[5].clone()]).unwrap());
        queries
    }

    /// Queries whose anchored steps `G` reads from the sub-expression
    /// cache: an ε disjunct and stars that `G` degrades — `(a·b)*` and
    /// `(a⁻)*` both to `a*` — each bound at its source, at its target and
    /// at both ends, and a step whose seed set is empty (`b·b` has no
    /// pairs in [`graph`]) at either anchor.
    fn navigated() -> Vec<Query> {
        let (a, b) = (RegularExpr::symbol(sym(0)), RegularExpr::symbol(sym(1)));
        let a_star = RegularExpr::star(vec![PathExpr(vec![sym(0)])]);
        let ab_star = RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]);
        let inv_star = RegularExpr::star(vec![PathExpr(vec![sym(0).flipped()])]);
        let eps_b = RegularExpr::union(vec![PathExpr::epsilon(), PathExpr(vec![sym(1)])]);
        let bb = RegularExpr::path(PathExpr(vec![sym(1), sym(1)]));
        [
            rule(&[0, 2], &[(0, &a, 1), (1, &eps_b, 2)]),
            rule(&[0, 2], &[(1, &a, 2), (0, &eps_b, 1)]),
            rule(&[0, 1], &[(0, &a, 1), (1, &eps_b, 0)]),
            rule(&[0, 2], &[(0, &b, 1), (1, &ab_star, 2)]),
            rule(&[0, 2], &[(1, &b, 2), (0, &inv_star, 1)]),
            rule(&[0, 1], &[(0, &a, 1), (1, &ab_star, 0)]),
            rule(&[2, 1], &[(1, &a_star, 2), (0, &inv_star, 1)]),
            rule(&[0, 2], &[(0, &bb, 1), (1, &a_star, 2)]),
            rule(&[0, 2], &[(1, &bb, 2), (0, &ab_star, 1)]),
        ]
        .into_iter()
        .map(Query::single)
        .map(Result::unwrap)
        .collect()
    }

    /// `G` with a filled cache answers exactly as `G` with none, at every
    /// cell cap from 0 to one past its edge `k` and at fill caps below, at
    /// and above the cell's: the same `Result`, every `TooLarge(n)`
    /// included, because a hit is charged as the BFS it replaces — from
    /// the seeds of an anchored step, from every node of an unanchored
    /// one. An ok cell probes once per conjunct, a hit for each expression
    /// the fill kept and a miss for each it could not.
    #[test]
    fn g_answers_from_the_cache_as_it_navigates_without_one() {
        use crate::matrix::fill_candidates;
        use gmark_core::cypher::degrade;
        let g = graph();
        let nav = EngineKind::Navigational;
        for q in queries().into_iter().chain(navigated()) {
            let at = |ctx: &EvalContext<'_>, cap| {
                nav.evaluate(ctx, &q, None, &Budget::with_limits(None, cap))
            };
            let bare = EvalContext::new(&g);
            let k = (0..).find(|&cap| at(&bare, cap).is_ok()).unwrap();
            let exprs = fill_candidates(&[&q], &[nav]);
            let degraded = degrade(&q).0;
            let conjuncts: Vec<&RegularExpr> = degraded
                .rules
                .iter()
                .flat_map(|rule| &rule.body)
                .map(|c| &c.expr)
                .collect();
            for fill_cap in [0, 2, k, usize::MAX] {
                let ctx = EvalContext::new(&g);
                ctx.fill_expr_cache(&exprs, 1, || Budget::with_limits(None, fill_cap));
                let kept = conjuncts.iter().filter(|e| ctx.exact_expr_len(e).is_some());
                let kept = kept.count() as u64;
                let probes = conjuncts.len() as u64;
                for cap in 0..=k + 1 {
                    let case = format!("{q:?} fill cap {fill_cap} cell cap {cap}");
                    let before = ctx.expr_cache_stats().unwrap();
                    assert_eq!(at(&ctx, cap), at(&bare, cap), "{case}");
                    let after = ctx.expr_cache_stats().unwrap();
                    let counted = (after.hits - before.hits, after.misses - before.misses);
                    if cap >= k {
                        assert_eq!(counted, (kept, probes - kept), "{case}");
                    } else {
                        assert!(counted.0 + counted.1 <= probes, "{case}: {counted:?}");
                    }
                }
                if fill_cap == usize::MAX {
                    assert_eq!(kept, probes, "{q:?}: the fill keeps every conjunct");
                }
            }
            assert_eq!(bare.expr_cache_stats(), None, "{q:?}");
        }
    }

    /// With `k` the smallest cap at which a cell is ok: every cap from `k`
    /// on gives the uncapped answers, every cap `c` below it
    /// `TooLarge(n)` with `c < n ≤ k`, and `k − 1` exactly `TooLarge(k)`.
    #[test]
    fn every_cell_is_ok_from_its_edge_and_too_large_below_it() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        for q in queries() {
            for kind in EngineKind::ALL {
                let at = |cap| kind.evaluate(&ctx, &q, None, &Budget::with_limits(None, cap));
                let uncapped = at(usize::MAX).unwrap();
                let k = (0..).find(|&cap| at(cap).is_ok()).unwrap();
                for cap in 0..=k + 1 {
                    match at(cap) {
                        Ok(answers) => {
                            assert!(cap >= k, "{kind:?} {q:?} cap {cap}");
                            assert_eq!(answers, uncapped, "{kind:?} {q:?} cap {cap}");
                        }
                        Err(EvalError::TooLarge(n)) => {
                            assert!(cap < n && n <= k, "{kind:?} {q:?} cap {cap}: {n} of {k}");
                            assert!(cap + 1 < k || n == k, "{kind:?} {q:?} cap {cap}: {n}");
                        }
                        other => panic!("{kind:?} {q:?} cap {cap}: {other:?}"),
                    }
                }
            }
        }
    }
}
