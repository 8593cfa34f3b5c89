//! UCRPQ evaluation engines over gMark graphs.
//!
//! Section 7 of the paper benchmarks four systems: PostgreSQL (`P`), a
//! SPARQL engine (`S`), a native graph database speaking openCypher (`G`),
//! and a Datalog engine (`D`). Those systems are commercial or external, so
//! this crate stands four in-repo engines in for them. The substitution
//! argument: what Section 7 reads off its tables is *architecture* — which
//! evaluation strategy survives which selectivity class and which
//! recursion — and each stand-in implements exactly the strategy its
//! system is named for, on the same graphs, queries and budgets. Absolute
//! times are therefore not comparable with the paper's; which cells finish,
//! fail or deviate, and how the strategies rank, are.
//!
//! The four strategies ([`EngineKind`]):
//!
//! * `P` (relational) — **materialise**: one binary relation per conjunct
//!   by sort-merge composition and, for stars, the whole closure, counted
//!   once per strongly connected component and written only when it fits
//!   the tuple cap ([`relations::Relation::star`]),
//!   like the paper's SQL:1999 translation evaluated bottom-up;
//! * `S` (triple store) — **property paths**: on a cache miss,
//!   product-automaton BFS over the sorted indexes, no intermediate
//!   relation per step; on a hit, exactly `P`'s code;
//! * `G` (navigational) — **navigate**: the pairs reached from the
//!   bindings so far — forward from a bound source, backward from a bound
//!   target — read off a cache hit, charged as the seeded traversal, or on
//!   a miss by seed-driven BFS through the one RPQ kernel [`eval_rpq`] —
//!   over the *degraded*
//!   query an openCypher system would run (inverses and concatenations
//!   under `*` are dropped per Section 7.1,
//!   see [`gmark_core::cypher::degrade`]), hence its answer sets
//!   legitimately differ on such queries;
//! * `D` (Datalog) — **semi-naive**: the query translated to a positive
//!   Datalog program (unary and binary body atoms, any recursion) and run
//!   bottom-up, delta-driven, over all its rules at once ([`datalog`]) —
//!   the only one expected to finish every recursive query of Table 4.
//!
//! They differ in strategy and share everything else. There is one way to
//! run a query, [`EngineKind::evaluate`], and it resolves one
//! [`QueryPlan`] — the caller's, from [`plan_query`], or
//! [`QueryPlan::declaration_order`] without one — that every engine
//! follows: no engine orders conjuncts itself. There is one tuple
//! representation from the EDB to the answers — binary relations are
//! [`relations::Relation`]s (the store's CSR layout), wider tuples flat
//! row-major rows — so all four join through one join loop, in which each
//! conjunct is one step resolved once (its arm picked, its relation taken
//! in the arm's direction, its rows counted and charged) and the head is
//! read off the last step as a set, into one flat [`Answers`] buffer. An
//! engine only mounts each step's relation: resolved up front (`P`, `S`),
//! by BFS from the bound values (`G`), or a delta at one atom (`D`).
//! `P`, `S` and `G` also share the rule loop around them and one cache
//! probe per conjunct, a miss running the engine's own kernel; `P` and `S`
//! share one rule body too. `D` runs its fixpoint instead. One memoized expression evaluator in [`EvalContext`] serves
//! the sub-expression cache's fill and `P`'s cell-time misses alike. Every
//! evaluation is resource-governed by a [`Budget`]: exceeding the time or
//! tuple budget aborts with an error — reproducing the "failed / manually
//! terminated" entries of the paper's tables and figures rather than
//! hanging the harness.
//!
//! Engines borrow one immutable [`EvalContext`] — per-predicate sorted
//! relations (which are the Datalog EDB too) and symbol statistics —
//! built once per graph instead of re-derived per query, and the
//! [`evaluate_matrix_with_schema`] harness
//! fans the (engine × query) cells of a whole workload over worker threads
//! with a fresh per-cell [`Budget`], reassembling a deterministic
//! [`EvalReport`].

#![warn(missing_docs)]

pub mod automaton;
pub mod context;
pub mod datalog;
#[cfg(test)]
mod fixtures;
mod joiner;
pub mod matrix;
pub mod navigational;
pub mod planner;
pub mod relations;

pub use automaton::eval_rpq;
pub use context::{EvalCacheStats, EvalContext, SymbolStats};
pub use matrix::{
    evaluate_matrix_with_schema, CellBudget, CellOutcome, EngineKind, EvalCell, EvalReport,
    EvalTotals, MatrixOptions, PlanQuality, OUTCOMES,
};
pub use planner::{plan_query, ConjunctStep, QueryPlan, RulePlan};

use gmark_store::{Csr, NodeId};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Resource limits for one evaluation.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    /// Maximum number of tuples any intermediate or final result may hold.
    pub max_tuples: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline: None,
            max_tuples: 50_000_000,
        }
    }
}

impl Budget {
    /// A budget with a wall-clock timeout from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Default::default()
        }
    }

    /// A budget with an optional timeout (starting now) and a tuple cap:
    /// `None` means no wall-clock deadline at all — the fully deterministic
    /// regime the evaluation-determinism tests pin.
    pub fn with_limits(timeout: Option<Duration>, max_tuples: usize) -> Self {
        Budget {
            deadline: timeout.map(|t| Instant::now() + t),
            max_tuples,
        }
    }

    /// Checks the wall clock; call this in loops.
    #[inline]
    pub fn check_time(&self) -> Result<(), EvalError> {
        self.check_time_at(Instant::now())
    }

    /// Clock-injected variant of [`Budget::check_time`]: checks the
    /// deadline against a caller-supplied instant, so deadline logic is
    /// testable without sleeping (sleep-based timing is flaky on loaded CI
    /// machines).
    #[inline]
    pub fn check_time_at(&self, now: Instant) -> Result<(), EvalError> {
        if let Some(d) = self.deadline {
            if now > d {
                return Err(EvalError::Timeout);
            }
        }
        Ok(())
    }

    /// Checks a tuple count against the cap.
    #[inline]
    pub fn check_size(&self, tuples: usize) -> Result<(), EvalError> {
        if tuples > self.max_tuples {
            return Err(EvalError::TooLarge(tuples));
        }
        Ok(())
    }
}

/// Why an evaluation failed — these are *reported outcomes* in the
/// experiments (the paper's "-" cells), not panics. The `gmark` facade
/// crate wraps this type into its unified `run::GmarkError` alongside the
/// other pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The wall-clock budget was exhausted.
    Timeout,
    /// An intermediate result exceeded the tuple budget.
    TooLarge(usize),
    /// The engine cannot express the query (after its documented
    /// degradations), or the query violates an assumption the engine
    /// depends on (e.g. a head variable never bound in the body).
    Unsupported(String),
    /// An engine invariant was violated mid-evaluation. These used to be
    /// `expect` panics in the hot loops; as typed errors, one broken query
    /// becomes a failed *cell* in the evaluation matrix instead of
    /// aborting the whole run.
    Internal(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Timeout => write!(f, "timeout"),
            EvalError::TooLarge(n) => write!(f, "intermediate result too large ({n} tuples)"),
            EvalError::Unsupported(what) => write!(f, "unsupported: {what}"),
            EvalError::Internal(what) => write!(f, "engine invariant violated: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Whether [`Csr::from_edges`] may deduplicate `len` rows of `arity` cells
/// whose first column spans a hull of `first` ids and whose last column
/// spans `last`: its scratch — one `u32` offset per id of `first` plus
/// one, and a bitset of `u64` words over `last` — takes no more bytes than
/// the rows' own cells, and its offsets can count the rows.
pub(crate) fn scatter_fits(arity: usize, len: usize, first: usize, last: usize) -> bool {
    len <= Csr::MAX_EDGES && 4 * (first + 1) + 8 * last.div_ceil(64) <= 4 * arity * len
}

/// The CSR of `len` rows of one or two cells, built by [`Csr::from_edges`]
/// when its scratch fits ([`scatter_fits`]): a row of two cells is the
/// pair it holds, a row of one cell `v` the pair `(0, v)`. `None` at any
/// other arity, or when the hulls are too wide. The store's kernel takes
/// the hulls in its first pass and hands them to [`scatter_fits`] before
/// it builds ([`Csr::try_from_edges`]), so the rows are read no extra time.
fn scatter(arity: usize, len: usize, cells: &[NodeId]) -> Option<Csr> {
    let fits = |first, last| scatter_fits(arity, len, first, last);
    match arity {
        1 => Csr::try_from_edges(cells.iter().map(|&v| (0, v)), fits),
        2 => Csr::try_from_edges(cells.chunks_exact(2).map(|c| (c[0], c[1])), fits),
        _ => None,
    }
}

/// A set of distinct answer tuples: one row-major buffer, sorted
/// lexicographically and deduplicated, so two engines' answers compare
/// with `==`. A rule's head normally arrives already a set, as the CSR the
/// join loop reads off its last step (`Answers::from_csr`); only the
/// heads it does not read as a set come from raw rows, the head cells of
/// that step (`Answers::from_rows`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    arity: usize,
    /// Row count — kept beside `cells` because a Boolean query has arity 0
    /// and one or zero rows.
    len: usize,
    cells: Vec<NodeId>,
}

impl Answers {
    /// The answers of arity 0 to 2 that a CSR of head pairs holds: a pair
    /// `(a, b)` is the row `[a, b]` at arity 2, a pair `(0, v)` the row
    /// `[v]` at arity 1, and the pair `(0, 0)` the one Boolean row at
    /// arity 0. The CSR's order is the rows' lexicographic order.
    pub(crate) fn from_csr(arity: usize, csr: &Csr) -> Answers {
        debug_assert!(arity <= 2 && (arity == 2 || csr.iter_edges().all(|(s, _)| s == 0)));
        let cells = match arity {
            0 => Vec::new(),
            1 => csr.targets().to_vec(),
            _ => {
                let mut cells = Vec::with_capacity(2 * csr.edge_count());
                for (s, t) in csr.iter_edges() {
                    cells.extend([s, t]);
                }
                cells
            }
        };
        Answers {
            arity,
            len: csr.edge_count(),
            cells,
        }
    }

    /// Builds an answer set from `len` row-major rows of `arity` cells,
    /// sorting and deduplicating. Its callers are the heads the join
    /// kernel does not read as a set (arity 3 and up, a new variable
    /// repeated in the head, a Cartesian step under a kept column, hulls
    /// too wide for its scratch), the empty answers `D` starts from, and
    /// `G`'s seed sets.
    ///
    /// Rows of one or two cells are pairs — `(0, v)` at arity 1 — and go
    /// through the store's one bag-to-set kernel, [`Csr::from_edges`]: a
    /// counting scatter by the first cell, each run deduplicated by a
    /// bitset over the last cell's hull so that only its distinct cells
    /// are ordered. The CSR is then read back out as row-major cells
    /// ([`Answers::from_csr`]). The kernel is taken only when its scratch
    /// space (offsets over the first column's hull, and the bitset) is no
    /// larger than the rows themselves ([`scatter_fits`]), so no call
    /// allocates more than O(rows). Wider hulls pack each row into a `u64` key (`row[0] << 32 |
    /// row[1]`, whose order is the rows' lexicographic order), free the
    /// cells, and sort, deduplicate and unpack the keys; so does arity 0.
    /// Wider rows — no generated benchmark query has them, but configs may
    /// ask — sort an index with a row comparator.
    pub(crate) fn from_rows(arity: usize, len: usize, cells: Vec<NodeId>) -> Answers {
        debug_assert_eq!(cells.len(), len * arity);
        if let Some(csr) = scatter(arity, len, &cells) {
            drop(cells);
            return Answers::from_csr(arity, &csr);
        }
        let row = |r: usize| &cells[r * arity..(r + 1) * arity];
        if arity <= 2 {
            let pack = |row: &[NodeId]| row.iter().fold(0, |k, &c| k << 32 | u64::from(c));
            let mut keys: Vec<u64> = (0..len).map(|r| pack(row(r))).collect();
            drop(cells);
            keys.sort_unstable();
            keys.dedup();
            let mut sorted = Vec::with_capacity(keys.len() * arity);
            for &k in &keys {
                sorted.extend((0..arity).rev().map(|i| (k >> (32 * i)) as NodeId));
            }
            Answers {
                arity,
                len: keys.len(),
                cells: sorted,
            }
        } else {
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            Answers {
                arity,
                len: order.len(),
                cells: order.iter().flat_map(|&r| row(r)).copied().collect(),
            }
        }
    }

    /// Set union: a linear merge of two sorted answer sets of one arity.
    pub(crate) fn union(&self, other: &Answers) -> Answers {
        debug_assert_eq!(self.arity, other.arity);
        let mut cells = Vec::with_capacity(self.cells.len() + other.cells.len());
        let mut len = 0;
        let (mut a, mut b) = (self.rows().peekable(), other.rows().peekable());
        loop {
            let row = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => a.next(),
                    Ordering::Greater => b.next(),
                    Ordering::Equal => {
                        b.next();
                        a.next()
                    }
                },
                (Some(_), None) => a.next(),
                (None, _) => b.next(),
            };
            let Some(row) = row else { break };
            cells.extend_from_slice(row);
            len += 1;
        }
        Answers {
            arity: self.arity,
            len,
            cells,
        }
    }

    /// The query arity (tuple width).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The `count(distinct(?v))` measurement of Section 7.1.
    pub fn count(&self) -> u64 {
        self.len as u64
    }

    /// For Boolean queries: whether the body was satisfiable.
    pub fn non_empty(&self) -> bool {
        self.len > 0
    }

    /// The distinct tuples in ascending order, each `arity` wide.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + Clone + '_ {
        (0..self.len).map(move |r| &self.cells[r * self.arity..(r + 1) * self.arity])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn answers_dedup_and_sort() {
        let a = Answers::from_rows(2, 4, vec![3, 4, 1, 2, 3, 4, 1, 0]);
        assert_eq!(a.rows().collect::<Vec<_>>(), [[1, 0], [1, 2], [3, 4]]);
        assert_eq!((a.arity(), a.count(), a.non_empty()), (2, 3, true));
        // Equality is on the set, not on the order or multiplicity derived.
        assert_eq!(a, Answers::from_rows(2, 3, vec![1, 2, 1, 0, 3, 4]));
        assert_ne!(a, Answers::from_rows(2, 2, vec![1, 2, 3, 4]));
        assert_ne!(a, Answers::from_rows(3, 2, vec![1, 0, 1, 2, 3, 4]));
    }

    #[test]
    fn boolean_answers_hold_one_row_or_none() {
        let (yes, no) = (
            Answers::from_rows(0, 3, Vec::new()),
            Answers::from_rows(0, 0, Vec::new()),
        );
        assert_eq!((yes.count(), yes.non_empty()), (1, true));
        assert_eq!((no.count(), no.non_empty()), (0, false));
        assert_eq!(yes.rows().collect::<Vec<_>>(), [[0u32; 0]]);
        assert_ne!(yes, no);
        assert_eq!(no.union(&yes), yes);
        assert_eq!(yes.union(&yes), yes);
        assert_eq!(no.union(&no), no);
    }

    /// `from_rows`' answers against a `BTreeSet` of the same rows.
    fn check_from_rows(arity: usize, len: usize, cells: Vec<NodeId>) -> Result<(), TestCaseError> {
        let reference: BTreeSet<Vec<NodeId>> = (0..len)
            .map(|r| cells[r * arity..(r + 1) * arity].to_vec())
            .collect();
        let answers = Answers::from_rows(arity, len, cells);
        prop_assert_eq!(answers.count(), reference.len() as u64);
        let rows: Vec<Vec<NodeId>> = answers.rows().map(<[NodeId]>::to_vec).collect();
        prop_assert_eq!(rows, reference.into_iter().collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn the_scatter_arm_ends_where_its_scratch_outgrows_the_rows() {
        // 40 rows of two cells hold 320 bytes. With the last column in one
        // bitset word, a first column over 77 ids takes 4 × (77 + 1) + 8 =
        // 320 bytes of scratch: the last hull the counting scatter takes.
        // Over 78 and 79 ids the packed-key sort deduplicates instead.
        let len = 40;
        assert!(scatter_fits(2, len, 77, 64));
        assert!(!scatter_fits(2, len, 78, 64));
        assert!(!scatter_fits(2, len, 77, 65));
        assert!(scatter_fits(1, len, 1, 64 * 19));
        for first in [77, 78, 79] {
            // Row k < 39 is (k mod 20, k mod 3), so rows repeat; the last
            // row stretches the first column to span 0..first.
            let cells = (0..len - 1)
                .flat_map(|k| [k % 20, k % 3])
                .chain([first - 1, 0])
                .map(|c| c as NodeId)
                .collect();
            check_from_rows(2, len, cells).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_rows` at arity 0–3 is the `BTreeSet` of its rows, whichever
        /// arm deduplicates them. Narrow cells lie in a hull of 16 ids — at
        /// 0, at some id below 100 000, or ending at `u32::MAX` — and each
        /// row is repeated up to three times, so at arity 1 and 2 the
        /// scratch fits from about 10 rows on and the counting scatter
        /// runs. With `wide`, cells lie anywhere in the id space, the hulls
        /// outgrow the rows, and the packed-key sort runs.
        #[test]
        fn from_rows_equals_a_btreeset_of_rows(
            arity in 0usize..=3,
            low in prop_oneof![Just(0u32), 0u32..100_000, Just(u32::MAX - 15)],
            wide in any::<bool>(),
            raw in prop::collection::vec(((any::<u32>(), any::<u32>(), any::<u32>()), 1usize..4), 0..120),
        ) {
            let mut cells = Vec::new();
            let mut len = 0;
            for &((a, b, c), reps) in &raw {
                let narrow = |c: NodeId| if wide { c } else { low + c % 16 };
                let row = [a, b, c].map(narrow);
                for _ in 0..reps {
                    cells.extend_from_slice(&row[..arity]);
                    len += 1;
                }
            }
            check_from_rows(arity, len, cells)?;
        }

        // Arities 0..=4 cross the packed/comparator split; cells drawn
        // from {0, 1, 2, u32::MAX} repeat rows and would let a high
        // column bleed into the low one if packing were wrong.
        #[test]
        fn packed_keys_order_like_the_row_comparator(
            arity in 0usize..=4,
            picks in prop::collection::vec(0usize..4, 0..40),
        ) {
            const VALUES: [NodeId; 4] = [0, 1, 2, u32::MAX];
            let cells: Vec<NodeId> = picks.iter().map(|&i| VALUES[i]).collect();
            let len = cells.len().checked_div(arity).unwrap_or(picks.len());
            let cells = cells[..len * arity].to_vec();
            let reference: BTreeSet<Vec<NodeId>> = (0..len)
                .map(|r| cells[r * arity..(r + 1) * arity].to_vec())
                .collect();
            let answers = Answers::from_rows(arity, len, cells);
            prop_assert_eq!(answers.count(), reference.len() as u64);
            let rows: Vec<Vec<NodeId>> = answers.rows().map(<[NodeId]>::to_vec).collect();
            prop_assert_eq!(rows, reference.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn answers_union_merges_sorted_rows() {
        let a = Answers::from_rows(2, 2, vec![1, 2, 5, 0]);
        let b = Answers::from_rows(2, 3, vec![0, 9, 5, 0, 7, 7]);
        let both = Answers::from_rows(2, 4, vec![0, 9, 1, 2, 5, 0, 7, 7]);
        assert_eq!(a.union(&b), both);
        assert_eq!(b.union(&a), both);
    }

    #[test]
    fn budget_timeout_fires() {
        // Injected clock: no sleeping, no dependence on scheduler timing.
        let b = Budget::with_timeout(Duration::from_secs(3600));
        let now = Instant::now();
        assert!(b.check_time_at(now).is_ok());
        assert_eq!(
            b.check_time_at(now + Duration::from_secs(7200)),
            Err(EvalError::Timeout)
        );
    }

    #[test]
    fn budget_size_cap() {
        let b = Budget {
            deadline: None,
            max_tuples: 10,
        };
        assert!(b.check_size(10).is_ok());
        assert_eq!(b.check_size(11), Err(EvalError::TooLarge(11)));
    }

    #[test]
    fn default_budget_is_permissive() {
        let b = Budget::default();
        assert!(b.check_time().is_ok());
        assert!(b.check_size(1_000_000).is_ok());
    }
}
