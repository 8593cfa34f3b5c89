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
//!   by sort-merge composition and a linear-recursion fixpoint for stars,
//!   like the paper's SQL:1999 translation evaluated bottom-up;
//! * `S` (triple store) — **property paths**: per-conjunct product-automaton
//!   BFS over the sorted indexes, no intermediate relation per step;
//! * `G` (navigational) — **navigate**: seed-driven BFS from the bindings
//!   so far, over the *degraded* query an openCypher system would run
//!   (inverses and concatenations under `*` are dropped per Section 7.1,
//!   see [`navigational::degrade_for_cypher`]), hence its answer sets
//!   legitimately differ on such queries;
//! * `D` (Datalog) — **semi-naive**: the query translated to a positive
//!   Datalog program and run on a general-purpose engine ([`datalog`]),
//!   the only one expected to finish every recursive query of Table 4.
//!
//! They differ in strategy and share everything else. There is one way to
//! run a query, [`EngineKind::evaluate`], and it resolves one
//! [`QueryPlan`] — the caller's, from [`plan_query`], or
//! [`QueryPlan::declaration_order`] without one — that every engine
//! follows: no engine orders conjuncts itself. `P`, `S` and `G` join
//! conjunct results through one kernel on flat rows and project through
//! one rule loop; one expression fold in [`EvalContext`] serves the
//! sub-expression cache's fill and `P`'s cell-time misses alike. Every
//! evaluation is resource-governed by a [`Budget`]: exceeding the time or
//! tuple budget aborts with an error — reproducing the "failed / manually
//! terminated" entries of the paper's tables and figures rather than
//! hanging the harness.
//!
//! Engines borrow one immutable [`EvalContext`] — per-predicate sorted
//! relations, the Datalog EDB, a compiled-NFA cache — built once per graph
//! instead of re-derived per query, and the [`evaluate_matrix`] harness
//! fans the (engine × query) cells of a whole workload over worker threads
//! with a fresh per-cell [`Budget`], reassembling a deterministic
//! [`EvalReport`].

#![warn(missing_docs)]

pub mod automaton;
pub mod context;
pub mod datalog;
mod joiner;
pub mod matrix;
pub mod navigational;
pub mod planner;
mod relational;
pub mod relations;
mod triplestore;

pub use automaton::{compile_nfa, eval_rpq, Nfa};
pub use context::{EvalCacheStats, EvalContext, SymbolStats};
pub use matrix::{
    evaluate_matrix, evaluate_matrix_with_schema, CellBudget, CellOutcome, EngineKind, EvalCell,
    EvalReport, EvalTotals, MatrixOptions, PlanQuality,
};
pub use planner::{plan_query, ConjunctStep, QueryPlan, RulePlan};

use gmark_store::NodeId;
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

    /// A budget with a timeout and a tuple cap.
    pub fn new(timeout: Duration, max_tuples: usize) -> Self {
        Budget {
            deadline: Some(Instant::now() + timeout),
            max_tuples,
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

/// A set of distinct answer tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// The query arity (tuple width).
    pub arity: usize,
    /// Distinct tuples, sorted lexicographically for stable comparison.
    pub tuples: Vec<Vec<NodeId>>,
}

impl Answers {
    /// Builds an answer set, sorting and deduplicating.
    pub fn new(arity: usize, mut tuples: Vec<Vec<NodeId>>) -> Answers {
        tuples.sort_unstable();
        tuples.dedup();
        Answers { arity, tuples }
    }

    /// The `count(distinct(?v))` measurement of Section 7.1.
    pub fn count(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// For Boolean queries: whether the body was satisfiable.
    pub fn non_empty(&self) -> bool {
        !self.tuples.is_empty()
    }
}

/// Packs an arity-2 tuple into a `u64` (internal fast path for pair sets).
#[inline]
pub(crate) fn pack(a: NodeId, b: NodeId) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(p: u64) -> (NodeId, NodeId) {
    ((p >> 32) as NodeId, p as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trip() {
        for (a, b) in [(0, 0), (1, 2), (u32::MAX, 7), (123_456, u32::MAX)] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
    }

    #[test]
    fn answers_dedup_and_sort() {
        let a = Answers::new(2, vec![vec![3, 4], vec![1, 2], vec![3, 4]]);
        assert_eq!(a.tuples, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(a.count(), 2);
        assert!(a.non_empty());
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
