//! The evaluation matrix harness: every (query × engine) cell of a
//! Section 7 experiment, fanned over worker threads, reassembled into a
//! deterministic report.
//!
//! [`evaluate_matrix`] runs the cells through the same fan-out as the
//! graph and workload stages, [`gmark_store::ordered_map`]: each cell
//! evaluates one query on one engine under a **fresh per-cell [`Budget`]**
//! (late cells are not charged for early ones) and comes back in
//! ascending `(query index, engine position)` order. Every engine is a
//! deterministic function of `(graph, query, budget caps)`, so the
//! [`EvalReport`] — answer-set cardinalities and failure outcomes — is
//! **bit-identical at every thread count** (the argument is made once, in
//! [`gmark_store::emit`]) whenever cell outcomes do not depend on the wall
//! clock: with no time limit, with a generous limit no cell approaches, or
//! with an already-expired one (the regimes the determinism tests pin).
//! Wall-clock measurements are still taken per cell ([`EvalCell::seconds`]),
//! but they live outside the deterministic rendering.

use crate::context::EvalContext;
use crate::planner::{plan_query, QueryPlan};
use crate::{datalog, navigational, relational, triplestore, Answers, Budget, EvalError};
use gmark_core::query::{Conjunct, Query, RegularExpr};
use gmark_core::schema::Schema;
use gmark_store::ordered_map;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One of the four in-repo engines, named by the paper's system letter.
/// The enum form (rather than trait objects) is what the matrix harness,
/// the `--engines` CLI flag, and the reports share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineKind {
    /// `P` — the relational engine (PostgreSQL-style).
    Relational,
    /// `G` — the navigational engine (openCypher-style, degraded queries).
    Navigational,
    /// `S` — the triple-store engine (SPARQL-style).
    TripleStore,
    /// `D` — the Datalog engine.
    Datalog,
}

impl EngineKind {
    /// All four engines in the paper's `P`/`G`/`S`/`D` report order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Relational,
        EngineKind::Navigational,
        EngineKind::TripleStore,
        EngineKind::Datalog,
    ];

    /// The paper's system letter.
    pub fn letter(self) -> char {
        match self {
            EngineKind::Relational => 'P',
            EngineKind::Navigational => 'G',
            EngineKind::TripleStore => 'S',
            EngineKind::Datalog => 'D',
        }
    }

    /// Letter + architecture name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Relational => "P/relational",
            EngineKind::Navigational => "G/navigational",
            EngineKind::TripleStore => "S/triplestore",
            EngineKind::Datalog => "D/datalog",
        }
    }

    /// Parses a system letter (case-insensitive).
    pub fn from_letter(letter: char) -> Option<EngineKind> {
        match letter.to_ascii_uppercase() {
            'P' => Some(EngineKind::Relational),
            'G' => Some(EngineKind::Navigational),
            'S' => Some(EngineKind::TripleStore),
            'D' => Some(EngineKind::Datalog),
            _ => None,
        }
    }

    /// Parses a comma-separated engine selection like `P,S,G,D` (the CLI's
    /// `--engines` value). Order is preserved — it becomes the report's
    /// column order — duplicates are rejected, and the list must select at
    /// least one engine.
    pub fn parse_list(list: &str) -> Result<Vec<EngineKind>, String> {
        let mut engines = Vec::new();
        for part in list.split(',') {
            let part = part.trim();
            let mut chars = part.chars();
            let (Some(letter), None) = (chars.next(), chars.next()) else {
                return Err(format!(
                    "expected a single engine letter (P, G, S, or D), got {part:?}"
                ));
            };
            let kind = EngineKind::from_letter(letter)
                .ok_or_else(|| format!("unknown engine letter {letter:?} (use P, G, S, or D)"))?;
            if engines.contains(&kind) {
                return Err(format!("engine {letter} selected twice"));
            }
            engines.push(kind);
        }
        if engines.is_empty() {
            return Err("empty engine selection".to_owned());
        }
        Ok(engines)
    }

    /// Evaluates `query` through this engine against a shared context,
    /// under a resource budget, returning the distinct projected tuples —
    /// the one way to run a query on an engine. The context's precomputed
    /// indexes (sorted relations, compiled-NFA cache) are borrowed, never
    /// rebuilt.
    ///
    /// `plan` orders the engine's joins ([`plan_query`] makes one; all four
    /// engines follow the same one). Without a plan — or with one that does
    /// not fit the query — every engine follows
    /// [`QueryPlan::declaration_order`]. A plan changes *how* an engine
    /// evaluates, never *what* it answers.
    pub fn evaluate(
        self,
        ctx: &EvalContext<'_>,
        query: &Query,
        plan: Option<&QueryPlan>,
        budget: &Budget,
    ) -> Result<Answers, EvalError> {
        if query.rules.is_empty() {
            return Err(EvalError::Unsupported("a query has no rule".to_owned()));
        }
        if query.rules.iter().any(|rule| rule.arity() != query.arity()) {
            return Err(EvalError::Unsupported(
                "the rules of a query must agree on the head arity".to_owned(),
            ));
        }
        let declared;
        let plan = match plan {
            Some(plan) if plan.fits(query) => plan,
            _ => {
                declared = QueryPlan::declaration_order(query);
                &declared
            }
        };
        match self {
            EngineKind::Relational => relational::evaluate(ctx, query, plan, budget),
            EngineKind::Navigational => navigational::evaluate(ctx, query, plan, budget),
            EngineKind::TripleStore => triplestore::evaluate(ctx, query, plan, budget),
            EngineKind::Datalog => datalog::evaluate(ctx, query, plan, budget),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-cell resource limits. Unlike a bare [`Budget`] — whose deadline is
/// fixed when it is constructed — this is a budget *recipe*: the harness
/// starts a fresh [`Budget`] for every cell, so a cell evaluated late in
/// the run gets the same time allowance as the first one.
#[derive(Debug, Clone, Copy)]
pub struct CellBudget {
    /// Wall-clock allowance per cell; `None` = no time limit (the fully
    /// deterministic regime).
    pub timeout: Option<Duration>,
    /// Maximum tuples any intermediate or final result may hold
    /// (deterministic by construction).
    pub max_tuples: usize,
}

impl Default for CellBudget {
    fn default() -> Self {
        CellBudget {
            timeout: None,
            max_tuples: Budget::default().max_tuples,
        }
    }
}

impl CellBudget {
    /// Starts a fresh budget whose clock begins now.
    pub fn start(&self) -> Budget {
        Budget::with_limits(self.timeout, self.max_tuples)
    }
}

/// Execution knobs of [`evaluate_matrix`].
#[derive(Debug, Clone, Copy)]
pub struct MatrixOptions {
    /// Worker threads; `0` means every core
    /// ([`gmark_store::resolve_threads`]). The report's deterministic
    /// content never depends on this value.
    pub threads: usize,
    /// Extra timing runs per successful cell, following the Section 7.1
    /// protocol: the cold run decides the outcome, the warm runs are
    /// averaged (dropping the fastest and slowest) into
    /// [`EvalCell::seconds`]. `0` keeps the cold run's own time.
    pub warm_runs: usize,
    /// Whether to run the statistics planner ([`plan_query`]) once per
    /// query and hand the resulting [`QueryPlan`] to every engine. Plans
    /// are pure functions of `(schema, graph, query)`, so enabling them
    /// preserves the thread-count determinism guarantee; disabling them
    /// makes every engine follow [`QueryPlan::declaration_order`] — the
    /// differential reference the planner is tested against.
    pub plan: bool,
    /// Byte budget (MiB) of the cross-cell sub-expression result cache
    /// ([`EvalContext::fill_expr_cache`]); `0` disables it. The cache is
    /// filled during warm-up — before any cell clock starts — by resolving
    /// every candidate once on the worker threads and admitting them in
    /// enumeration order; cells only read it, so enabling it preserves the
    /// thread-count determinism guarantee (see the context module docs).
    pub cache_mb: usize,
}

impl MatrixOptions {
    /// Default cache budget: 64 MiB of pair columns.
    pub const DEFAULT_CACHE_MB: usize = 64;
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            threads: 1,
            warm_runs: 0,
            plan: true,
            cache_mb: MatrixOptions::DEFAULT_CACHE_MB,
        }
    }
}

/// What one (query × engine) cell produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The engine finished: answer-set arity and distinct-tuple count (the
    /// paper's `count(distinct ...)` measurement).
    Answers {
        /// Tuple width.
        arity: usize,
        /// Distinct answer tuples.
        count: u64,
    },
    /// The engine failed — the paper's `-` cells, with the typed reason.
    Failed(EvalError),
}

impl CellOutcome {
    /// The deterministic cell label for reports: the tuple count, or a
    /// short failure word.
    pub fn label(&self) -> String {
        match self {
            CellOutcome::Answers { count, .. } => count.to_string(),
            CellOutcome::Failed(EvalError::Timeout) => "timeout".to_owned(),
            CellOutcome::Failed(EvalError::TooLarge(_)) => "too-large".to_owned(),
            CellOutcome::Failed(EvalError::Unsupported(_)) => "unsupported".to_owned(),
            CellOutcome::Failed(EvalError::Internal(_)) => "error".to_owned(),
        }
    }
}

/// One evaluated cell of the matrix.
#[derive(Debug, Clone)]
pub struct EvalCell {
    /// Query index (position in the slice passed to [`evaluate_matrix`]).
    pub query: usize,
    /// The engine that evaluated it.
    pub engine: EngineKind,
    /// What happened.
    pub outcome: CellOutcome,
    /// The planner's estimated answer cardinality for the cell's query
    /// ([`QueryPlan::est_answers`]), when planning was enabled. Recorded
    /// next to the actual count so reports can show estimated-vs-actual
    /// accounting; `None` when the matrix ran with `plan: false`.
    pub estimate: Option<u64>,
    /// Measured wall time (warm-run mean when warm runs were requested).
    /// Nondeterministic by nature — it never enters
    /// [`EvalReport::render`].
    pub seconds: f64,
}

impl EvalCell {
    /// The deterministic cell label: `est~count` for a completed cell with
    /// a planner estimate (estimated cardinality before the `~`, actual
    /// after), otherwise [`CellOutcome::label`].
    pub fn label(&self) -> String {
        match (&self.outcome, self.estimate) {
            (CellOutcome::Answers { count, .. }, Some(est)) => format!("{est}~{count}"),
            _ => self.outcome.label(),
        }
    }
}

/// Aggregate cell outcomes of a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTotals {
    /// Total cells.
    pub cells: usize,
    /// Completed cells.
    pub ok: usize,
    /// Cells that exhausted the wall-clock budget.
    pub timeout: usize,
    /// Cells that exceeded the tuple budget.
    pub too_large: usize,
    /// Cells the engine could not express.
    pub unsupported: usize,
    /// Cells that hit an engine invariant violation.
    pub internal: usize,
}

/// Estimated-vs-actual planner accounting over a report's completed
/// cells — see [`EvalReport::plan_quality`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanQuality {
    /// Completed cells carrying a planner estimate.
    pub estimated_ok: usize,
    /// Of those, cells whose estimate is within a factor of 10 of the
    /// actual count (both directions; two empty results count as within).
    pub within_10x: usize,
    /// Sum of the estimates over the counted cells.
    pub est_total: u128,
    /// Sum of the actual counts over the counted cells.
    pub actual_total: u128,
}

/// The assembled result of one [`evaluate_matrix`] run: cells in ascending
/// `(query index, engine position)` order.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// The engine columns, in selection order.
    pub engines: Vec<EngineKind>,
    /// Number of query rows.
    pub queries: usize,
    /// All cells, row-major: `cells[q * engines.len() + e]`.
    pub cells: Vec<EvalCell>,
    /// Contents and hit accounting of the sub-expression cache, when one
    /// was enabled for this run (`None` with `cache_mb: 0`). Deterministic
    /// at every thread count — see [`crate::context::EvalCacheStats`].
    pub cache: Option<crate::context::EvalCacheStats>,
}

impl EvalReport {
    /// The cell of one (query, engine) coordinate, if both are in range.
    pub fn cell(&self, query: usize, engine: EngineKind) -> Option<&EvalCell> {
        let e = self.engines.iter().position(|&k| k == engine)?;
        self.cells.get(query * self.engines.len() + e)
    }

    /// Aggregated outcomes.
    pub fn totals(&self) -> EvalTotals {
        let mut t = EvalTotals {
            cells: self.cells.len(),
            ..EvalTotals::default()
        };
        for cell in &self.cells {
            match &cell.outcome {
                CellOutcome::Answers { .. } => t.ok += 1,
                CellOutcome::Failed(EvalError::Timeout) => t.timeout += 1,
                CellOutcome::Failed(EvalError::TooLarge(_)) => t.too_large += 1,
                CellOutcome::Failed(EvalError::Unsupported(_)) => t.unsupported += 1,
                CellOutcome::Failed(EvalError::Internal(_)) => t.internal += 1,
            }
        }
        t
    }

    /// Renders the deterministic outcome matrix: one row per query, one
    /// column per engine, each cell its [`CellOutcome::label`], plus a
    /// totals footer. Bit-identical at every thread count (no wall-clock
    /// content — see the module docs).
    pub fn render(&self) -> String {
        self.render_with_labels(&[])
    }

    /// Like [`EvalReport::render`], with a trailing per-query annotation
    /// (e.g. the workload's class/shape metadata) after each row.
    /// Annotations beyond the query count are ignored; missing ones render
    /// nothing.
    pub fn render_with_labels(&self, labels: &[String]) -> String {
        const W: usize = 12;
        let mut out = String::new();
        let _ = write!(out, "{:<8}", "query");
        for kind in &self.engines {
            let _ = write!(out, " {:>W$}", kind.letter());
        }
        out.push('\n');
        for q in 0..self.queries {
            let _ = write!(out, "{:<8}", format!("q{q}"));
            for e in 0..self.engines.len() {
                let label = self.cells[q * self.engines.len() + e].label();
                let _ = write!(out, " {label:>W$}");
            }
            if let Some(label) = labels.get(q) {
                let _ = write!(out, "  {label}");
            }
            out.push('\n');
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "cells: {} ok, {} timeout, {} too-large, {} unsupported, {} error ({} total)",
            t.ok, t.timeout, t.too_large, t.unsupported, t.internal, t.cells
        );
        if let Some(q) = self.plan_quality() {
            let _ = writeln!(
                out,
                "plan: {}/{} estimates within 10x of actual (est total {}, actual total {})",
                q.within_10x, q.estimated_ok, q.est_total, q.actual_total
            );
        }
        out
    }

    /// Estimated-vs-actual aggregates over the completed cells that carry
    /// a planner estimate; `None` when the matrix ran without planning.
    /// Integer arithmetic throughout — the numbers are part of the
    /// byte-compared report.
    pub fn plan_quality(&self) -> Option<PlanQuality> {
        if !self.cells.iter().any(|c| c.estimate.is_some()) {
            return None;
        }
        let mut q = PlanQuality::default();
        for cell in &self.cells {
            let (CellOutcome::Answers { count, .. }, Some(est)) = (&cell.outcome, cell.estimate)
            else {
                continue;
            };
            q.estimated_ok += 1;
            q.est_total += u128::from(est);
            q.actual_total += u128::from(*count);
            let (e, c) = (u128::from(est), u128::from(*count));
            if e <= (c * 10).max(1) && c <= (e * 10).max(1) {
                q.within_10x += 1;
            }
        }
        Some(q)
    }
}

/// Evaluates every (query × engine) cell of a workload, in parallel.
///
/// One [`ordered_map`] unit per cell: each gets a fresh budget from
/// `budget` ([`CellBudget::start`]) and runs [`EngineKind::evaluate`]
/// against the shared context (optionally repeated `warm_runs` times for
/// the Section 7.1 timing protocol); cells come back in ascending
/// `(query index, engine position)` order whatever the scheduling.
pub fn evaluate_matrix(
    ctx: &EvalContext<'_>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    options: &MatrixOptions,
) -> EvalReport {
    evaluate_matrix_with_schema(ctx, None, queries, engines, budget, options)
}

/// [`evaluate_matrix`] with the generating schema available to the
/// planner. The schema sharpens the cost model's star estimates (the
/// selectivity algebra decides which transitive closures are quadratic);
/// without it the planner still runs on graph statistics alone. When
/// `options.plan` is false the schema is unused.
pub fn evaluate_matrix_with_schema(
    ctx: &EvalContext<'_>,
    schema: Option<&Schema>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    options: &MatrixOptions,
) -> EvalReport {
    warm_context(ctx, queries, engines, budget, options);

    // One plan per query, shared by every engine column. Planning happens
    // before any cell clock starts (it is context warm-up work, not query
    // evaluation) and is a pure function of `(schema, graph, query)`, so
    // it cannot perturb the thread-count determinism guarantee.
    let plans: Option<Vec<QueryPlan>> = options
        .plan
        .then(|| queries.iter().map(|q| plan_query(ctx, schema, q)).collect());
    let plans = plans.as_deref();

    let cells = ordered_map(options.threads, queries.len() * engines.len(), |ci| {
        run_cell(ctx, queries, engines, budget, options.warm_runs, plans, ci)
    });

    EvalReport {
        engines: engines.to_vec(),
        queries: queries.len(),
        cells,
        cache: ctx.expr_cache_stats(),
    }
}

/// Initializes the context's shared indexes the selected engines will
/// need **before any cell clock starts**. Without this, whichever cell
/// touches a lazy slot first (a symbol relation, forward for the Datalog
/// EDB or in the direction a query mentions) is billed for one-time
/// context construction — inflating its timing and,
/// under a finite per-cell deadline, making its outcome depend on
/// scheduling. Warming is idempotent; only the symbols the workload
/// actually mentions are materialized, and unselected engines' indexes
/// stay lazy.
///
/// When `options.cache_mb > 0` this is also where the sub-expression
/// result cache is filled on `options.threads` workers, over the
/// candidates of [`fill_candidates`], one fresh cell budget per entry.
/// Cells only ever read the cache, so its contents are fixed before the
/// first cell clock starts.
fn warm_context(
    ctx: &EvalContext<'_>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    options: &MatrixOptions,
) {
    let datalog = engines.contains(&EngineKind::Datalog);
    if datalog {
        let _ = ctx.edb();
    }
    let joins_relations = datalog || engines.contains(&EngineKind::Relational);
    for sym in conjuncts(queries).flat_map(|c| c.expr.symbols()) {
        if joins_relations {
            let _ = ctx.relation(sym);
        }
        if options.plan {
            // The planner reads per-predicate distinct-endpoint
            // statistics; plan construction is never billed to a cell.
            let _ = ctx.symbol_stats(sym);
        }
    }
    if options.cache_mb > 0 {
        let exprs = fill_candidates(queries, engines);
        ctx.fill_expr_cache_on(options.threads, &exprs, options.cache_mb, || budget.start());
    }
}

fn conjuncts<'q>(queries: &'q [&'q Query]) -> impl Iterator<Item = &'q Conjunct> + 'q {
    queries
        .iter()
        .flat_map(|query| &query.rules)
        .flat_map(|rule| &rule.body)
}

/// The deterministic enumeration of sub-expression cache candidates:
/// queries in order, rule by rule, conjunct by conjunct, then the
/// cypher-degraded forms if the navigational engine is selected.
pub(crate) fn fill_candidates(queries: &[&Query], engines: &[EngineKind]) -> Vec<RegularExpr> {
    let mut exprs: Vec<_> = conjuncts(queries).map(|c| c.expr.clone()).collect();
    if engines.contains(&EngineKind::Navigational) {
        // The navigational engine evaluates the degraded forms, which
        // differ under stars; cache those shapes too.
        for query in queries {
            let (degraded, _) = gmark_core::cypher::degrade(query);
            exprs.extend(conjuncts(&[&degraded]).map(|c| c.expr.clone()));
        }
    }
    exprs
}

fn run_cell(
    ctx: &EvalContext<'_>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    warm_runs: usize,
    plans: Option<&[QueryPlan]>,
    ci: usize,
) -> EvalCell {
    let query_idx = ci / engines.len();
    let kind = engines[ci % engines.len()];
    let query = queries[query_idx];
    let plan = plans.map(|p| &p[query_idx]);

    // Cold run: decides the outcome and the fallback timing.
    let cold_budget = budget.start();
    let started = Instant::now();
    let result = kind.evaluate(ctx, query, plan, &cold_budget);
    let mut seconds = started.elapsed().as_secs_f64();

    let outcome = match result {
        Ok(answers) => {
            if warm_runs > 0 {
                // Section 7.1 protocol: warm runs, extremes dropped, mean.
                let mut times = Vec::with_capacity(warm_runs);
                for _ in 0..warm_runs {
                    let warm_budget = budget.start();
                    let t0 = Instant::now();
                    if kind.evaluate(ctx, query, plan, &warm_budget).is_ok() {
                        times.push(t0.elapsed().as_secs_f64());
                    }
                }
                if !times.is_empty() {
                    seconds = gmark_stats::summary::warm_run_average(&times);
                }
            }
            CellOutcome::Answers {
                arity: answers.arity(),
                count: answers.count(),
            }
        }
        Err(e) => CellOutcome::Failed(e),
    };
    EvalCell {
        query: query_idx,
        engine: kind,
        outcome,
        estimate: plan.map(|p| p.est_answers),
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain, graph5 as graph, sym};
    use gmark_core::query::{PathExpr, RegularExpr, Var};

    fn queries() -> Vec<Query> {
        vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
            chain(vec![
                RegularExpr::symbol(sym(0)),
                RegularExpr::symbol(sym(1)),
            ]),
        ]
    }

    #[test]
    fn letters_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_letter(kind.letter()), Some(kind));
            assert_eq!(
                EngineKind::from_letter(kind.letter().to_ascii_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(EngineKind::from_letter('X'), None);
    }

    #[test]
    fn parse_list_preserves_order_and_rejects_garbage() {
        assert_eq!(
            EngineKind::parse_list("S,P").unwrap(),
            vec![EngineKind::TripleStore, EngineKind::Relational]
        );
        assert_eq!(
            EngineKind::parse_list("p, g, s, d").unwrap(),
            EngineKind::ALL.to_vec()
        );
        assert!(EngineKind::parse_list("P,P").is_err());
        assert!(EngineKind::parse_list("Q").is_err());
        assert!(EngineKind::parse_list("PS").is_err());
        assert!(EngineKind::parse_list("").is_err());
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let budget = CellBudget::default();
        let base = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &budget,
            &MatrixOptions::default(),
        );
        assert_eq!(base.cells.len(), 12);
        for threads in [2, 8] {
            let report = evaluate_matrix(
                &ctx,
                &q_refs,
                &EngineKind::ALL,
                &budget,
                &MatrixOptions {
                    threads,
                    ..MatrixOptions::default()
                },
            );
            assert_eq!(report.render(), base.render(), "{threads} threads");
            for (a, b) in report.cells.iter().zip(&base.cells) {
                assert_eq!(a.outcome, b.outcome);
                assert_eq!((a.query, a.engine), (b.query, b.engine));
            }
        }
    }

    #[test]
    fn cells_are_in_row_major_order_and_addressable() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let engines = [EngineKind::TripleStore, EngineKind::Datalog];
        let report = evaluate_matrix(
            &ctx,
            &q_refs,
            &engines,
            &CellBudget::default(),
            &MatrixOptions::default(),
        );
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.query, i / 2);
            assert_eq!(cell.engine, engines[i % 2]);
        }
        let c = report.cell(1, EngineKind::Datalog).unwrap();
        assert_eq!(c.query, 1);
        assert!(report.cell(0, EngineKind::Relational).is_none());
    }

    #[test]
    fn non_degraded_cells_agree_across_engines() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let report = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &CellBudget::default(),
            &MatrixOptions {
                threads: 3,
                ..MatrixOptions::default()
            },
        );
        // None of the test queries is degraded, so each row agrees.
        for q in 0..q_refs.len() {
            let reference = &report.cell(q, EngineKind::Relational).unwrap().outcome;
            for kind in EngineKind::ALL {
                assert_eq!(&report.cell(q, kind).unwrap().outcome, reference, "q{q}");
            }
        }
    }

    #[test]
    fn tuple_budget_failures_are_deterministic_cells() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let tight = CellBudget {
            timeout: None,
            max_tuples: 1,
        };
        let a = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &tight,
            &MatrixOptions::default(),
        );
        let b = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &tight,
            &MatrixOptions {
                threads: 4,
                ..MatrixOptions::default()
            },
        );
        assert_eq!(a.render(), b.render());
        assert!(a.totals().too_large > 0, "{:?}", a.totals());
    }

    #[test]
    fn a_malformed_head_is_an_unsupported_cell_on_every_engine() {
        // `Query.rules` is public, so a head variable the body never binds,
        // two rules of different arity, or no rule at all reach the engines
        // unvalidated.
        let mut unsafe_head = chain(vec![RegularExpr::symbol(sym(0))]);
        unsafe_head.rules[0].head = vec![Var(7)];
        let mut two_arities = chain(vec![RegularExpr::symbol(sym(0))]);
        let mut narrower = two_arities.rules[0].clone();
        narrower.head.pop();
        two_arities.rules.push(narrower);
        let no_rules = Query { rules: vec![] };
        let g = graph();
        let ctx = EvalContext::new(&g);
        let cases = [
            (&unsafe_head, "?x7"),
            (&two_arities, "arity"),
            (&no_rules, "no rule"),
        ];
        for (q, needle) in cases {
            for kind in EngineKind::ALL {
                let result = kind.evaluate(&ctx, q, None, &Budget::default());
                assert!(
                    matches!(result, Err(EvalError::Unsupported(ref what)) if what.contains(needle)),
                    "{kind}: {result:?}"
                );
            }
        }
        let options = MatrixOptions {
            threads: 2,
            ..MatrixOptions::default()
        };
        let report = evaluate_matrix(
            &ctx,
            &[&unsafe_head, &two_arities, &no_rules],
            &EngineKind::ALL,
            &CellBudget::default(),
            &options,
        );
        let labels: Vec<String> = report.cells.iter().map(EvalCell::label).collect();
        assert_eq!(labels, ["unsupported"; 12]);
        assert_eq!(report.totals().unsupported, 12);
    }

    #[test]
    fn expired_clock_times_out_every_cell() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let expired = CellBudget {
            timeout: Some(Duration::ZERO),
            max_tuples: usize::MAX,
        };
        let report = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &expired,
            &MatrixOptions::default(),
        );
        let t = report.totals();
        assert_eq!(t.timeout, t.cells, "{t:?}");
    }

    #[test]
    fn render_shape_and_labels() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let report = evaluate_matrix(
            &ctx,
            &q_refs,
            &[EngineKind::Relational],
            &CellBudget::default(),
            &MatrixOptions::default(),
        );
        let text = report.render_with_labels(&["first".to_owned()]);
        assert!(text.starts_with("query "), "{text}");
        assert!(text.contains("q0"), "{text}");
        assert!(text.contains("first"), "{text}");
        assert!(text.contains("(3 total)\n"), "{text}");
        // Planning is on by default, so ok cells read `est~count` and the
        // report closes with the plan-quality line.
        assert!(text.contains('~'), "{text}");
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("plan: "), "{text}");
    }

    #[test]
    fn planner_changes_labels_but_never_outcomes() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let qs = queries();
        let q_refs: Vec<&Query> = qs.iter().collect();
        let budget = CellBudget::default();
        let planned = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &budget,
            &MatrixOptions::default(),
        );
        let unplanned = evaluate_matrix(
            &ctx,
            &q_refs,
            &EngineKind::ALL,
            &budget,
            &MatrixOptions {
                plan: false,
                ..MatrixOptions::default()
            },
        );
        for (a, b) in planned.cells.iter().zip(&unplanned.cells) {
            assert_eq!(a.outcome, b.outcome, "q{} {}", a.query, a.engine);
            assert!(a.estimate.is_some());
            assert!(b.estimate.is_none());
        }
        assert!(planned.plan_quality().is_some());
        assert!(unplanned.plan_quality().is_none());
        // Without estimates the unplanned report has no plan line and
        // plain count labels.
        assert!(!unplanned.render().contains("plan:"));
        assert!(!unplanned.render().contains('~'));
    }

    #[test]
    fn a_one_page_store_renders_the_in_ram_report_at_every_thread_count() {
        use gmark_store::paged::{StoreMeta, StoreReader, StoreWriter};
        use gmark_store::{EdgeSink, GraphBuilder, TypePartition};
        // 40 nodes on 64-byte pages: every segment spans several pages,
        // and a one-page cache evicts on nearly every lookup, with the
        // worker threads sharing it.
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[40]), 2);
        for s in 0..40u32 {
            for k in 0..s % 4 {
                b.edge(s, 0, (s * 7 + k * 13 + 1) % 40);
            }
            b.edge(s, 1, (s * s + 3) % 40);
        }
        let g = b.build();
        let dir = std::env::temp_dir().join(format!("gmark-engines-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gstore");
        let meta = StoreMeta {
            seed: 1,
            schema_hash: 0,
            page_size: 64,
            predicate_names: vec!["a".into(), "b".into()],
            partition: g.partition().clone(),
        };
        StoreWriter::write_graph(&path, &meta, &g).unwrap();
        let reader = StoreReader::open_with_cache(&path, 1).unwrap();

        let mut qs = queries();
        qs.extend([
            chain(vec![
                RegularExpr::symbol(sym(1).flipped()),
                RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]),
            ]),
            chain(vec![
                RegularExpr::union(vec![PathExpr(vec![sym(0)]), PathExpr(vec![sym(1)])]),
                RegularExpr::symbol(sym(0).flipped()),
                RegularExpr::symbol(sym(1)),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![
                sym(0),
                sym(0).flipped(),
            ])])]),
        ]);
        let q_refs: Vec<&Query> = qs.iter().collect();
        // A cap some cells exceed, so failures are compared too.
        let budget = CellBudget {
            timeout: None,
            max_tuples: 400,
        };
        let run = |ctx: &EvalContext<'_>, threads| {
            let options = MatrixOptions {
                threads,
                ..MatrixOptions::default()
            };
            evaluate_matrix(ctx, &q_refs, &EngineKind::ALL, &budget, &options).render()
        };
        let in_ram = run(&EvalContext::new(&g), 1);
        assert!(
            in_ram.contains("too-large") && in_ram.contains('~'),
            "{in_ram}"
        );
        for threads in [1, 2, 4] {
            let paged = run(&EvalContext::new(&reader), threads);
            assert_eq!(paged, in_ram, "{threads} threads");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
