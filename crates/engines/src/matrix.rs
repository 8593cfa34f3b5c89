//! The evaluation matrix harness: every (query × engine) cell of a
//! Section 7 experiment, fanned over worker threads, reassembled into a
//! deterministic report.
//!
//! [`evaluate_matrix_with_schema`] runs the cells through the same fan-out
//! as the graph and workload stages, [`gmark_store::ordered_map`]: each cell
//! evaluates one query on one engine under a **fresh per-cell [`Budget`]**
//! (late cells are not charged for early ones) and comes back in
//! ascending `(query index, engine position)` order. Every engine is a
//! deterministic function of `(graph, query, budget caps)`, so the
//! [`EvalReport`] — answer-set cardinalities and failure outcomes — is
//! **bit-identical at every thread count** (the argument is made once, in
//! [`gmark_store::emit`]) whenever cell outcomes do not depend on the wall
//! clock: with no time limit, with a generous limit no cell approaches, or
//! with an already-expired one (the regimes the determinism tests pin).
//! Wall-clock measurements are still taken per cell ([`EvalCell::seconds`])
//! and for the cache fill and the cells as wholes
//! ([`EvalReport::fill_seconds`], [`EvalReport::cells_seconds`]), but they
//! live outside the deterministic rendering.

use crate::context::EvalContext;
use crate::joiner::join_materialized;
use crate::planner::{plan_query, QueryPlan};
use crate::{datalog, eval_rpq, navigational, Answers, Budget, EvalError};
use gmark_core::query::{Conjunct, Query, RegularExpr};
use gmark_core::schema::Schema;
use gmark_store::ordered_map;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of the four in-repo engines, named by the paper's system letter.
/// The enum form (rather than trait objects) is what the matrix harness,
/// the `--engines` CLI flag, and the reports share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineKind {
    /// `P` — the relational engine (PostgreSQL with recursive views).
    ///
    /// Evaluates the plan the paper's SQL:1999 translation induces: every
    /// conjunct becomes a fully materialized binary relation (scans +
    /// joins + `UNION`s; for a star, the whole closure the `WITH
    /// RECURSIVE` CTE defines, counted once per strongly connected
    /// component and materialized only when it fits the tuple cap; see
    /// [`Relation::star`](crate::relations::Relation::star)) — with no
    /// property-path shortcuts — and the relations
    /// are then joined in the order of the query plan.
    ///
    /// Profile reproduced from the paper: strong on constant- and
    /// linear-selectivity non-recursive queries (Fig. 12(a)/(b), where "P
    /// reacts better than S, G, and D"), but materializing a
    /// quadratic-selectivity transitive closure exhausts its budget — the
    /// "-" cells of Table 4.
    Relational,
    /// `G` — the navigational engine (openCypher-style, degraded queries).
    Navigational,
    /// `S` — the triple-store engine (a SPARQL 1.1 property-path engine).
    ///
    /// `P`'s body, except that a conjunct missing the cache is a SPARQL
    /// property path, evaluated by the product-automaton algorithm over
    /// the sorted indexes with no per-step intermediate relation — why
    /// this architecture overtakes `P` on large linear and on quadratic
    /// non-recursive workloads (Fig. 12(b)/(c)), measured with the cache
    /// off (`cache_mb: 0`). On recursive queries the product BFS touches
    /// much of `V × Q` per source, so under Section 7's budgets it
    /// finishes only the small instances — Table 4's `S` row.
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
            EngineKind::Relational => {
                join_materialized(ctx, query, plan, budget, |e| ctx.kernel_relation(e, budget))
            }
            EngineKind::Navigational => navigational::evaluate(ctx, query, plan, budget),
            EngineKind::TripleStore => join_materialized(ctx, query, plan, budget, |e| {
                eval_rpq(ctx, e, None, budget).map(Arc::new)
            }),
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

/// Execution knobs of [`evaluate_matrix_with_schema`].
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
    /// Whether to keep the cross-cell sub-expression result cache
    /// ([`EvalContext::fill_expr_cache`]): `0` keeps none, any other value
    /// keeps it. The value is not a size bound; the tuple cap bounds each
    /// cached relation (see the context module docs). The cache is filled
    /// during warm-up — before any cell clock starts — by resolving every
    /// candidate once on the worker threads; cells only read it, so
    /// enabling it preserves the thread-count determinism guarantee.
    pub cache_mb: usize,
}

impl MatrixOptions {
    /// The default [`MatrixOptions::cache_mb`]: nonzero, so the cache is
    /// kept. Only whether it is `0` matters.
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

/// The outcome words, in the order every report lists them: a completed
/// cell, then each [`EvalError`]. `eval.txt`, `report.txt`, the CLI banner
/// and `summary.json` all read them from here.
pub const OUTCOMES: [&str; 5] = ["ok", "timeout", "too-large", "unsupported", "error"];

impl CellOutcome {
    /// This outcome's position in [`OUTCOMES`].
    pub fn index(&self) -> usize {
        match self {
            CellOutcome::Answers { .. } => 0,
            CellOutcome::Failed(EvalError::Timeout) => 1,
            CellOutcome::Failed(EvalError::TooLarge(_)) => 2,
            CellOutcome::Failed(EvalError::Unsupported(_)) => 3,
            CellOutcome::Failed(EvalError::Internal(_)) => 4,
        }
    }

    /// This outcome's word in [`OUTCOMES`].
    pub fn word(&self) -> &'static str {
        OUTCOMES[self.index()]
    }

    /// The distinct answer tuples of a completed cell.
    pub fn count(&self) -> Option<u64> {
        match self {
            CellOutcome::Answers { count, .. } => Some(*count),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The deterministic cell label for reports: the tuple count, or the
    /// failure's word.
    pub fn label(&self) -> String {
        match self.count() {
            Some(count) => count.to_string(),
            None => self.word().to_owned(),
        }
    }
}

/// One evaluated cell of the matrix.
#[derive(Debug, Clone)]
pub struct EvalCell {
    /// Query index (position in the slice passed to
    /// [`evaluate_matrix_with_schema`]).
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

impl EvalTotals {
    /// The counts in [`OUTCOMES`] order.
    pub fn counts(&self) -> [usize; OUTCOMES.len()] {
        [
            self.ok,
            self.timeout,
            self.too_large,
            self.unsupported,
            self.internal,
        ]
    }
}

impl std::fmt::Display for EvalTotals {
    /// Every outcome word with its count: `45 ok, 0 timeout, 3 too-large,
    /// 0 unsupported, 0 error`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (word, n)) in OUTCOMES.iter().zip(self.counts()).enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            write!(f, "{comma}{n} {word}")?;
        }
        Ok(())
    }
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

/// The assembled result of one [`evaluate_matrix_with_schema`] run: cells
/// in ascending `(query index, engine position)` order.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// The engine columns, in selection order.
    pub engines: Vec<EngineKind>,
    /// Number of query rows.
    pub queries: usize,
    /// All cells, row-major: `cells[q * engines.len() + e]`.
    pub cells: Vec<EvalCell>,
    /// Whether the statistics planner ordered the engines' joins
    /// ([`MatrixOptions::plan`]).
    pub planned: bool,
    /// Contents and hit accounting of the sub-expression cache, when one
    /// was enabled for this run (`None` with `cache_mb: 0`). Deterministic
    /// at every thread count — see [`crate::context::EvalCacheStats`].
    pub cache: Option<crate::context::EvalCacheStats>,
    /// Wall seconds spent filling the sub-expression cache, or only
    /// counting its candidates for the planner when no selected engine
    /// reads it (`0` with neither). Not part of [`EvalReport::render`].
    pub fill_seconds: f64,
    /// Wall seconds spent evaluating the cells, all workers together from
    /// the first claim to the last return. Not part of
    /// [`EvalReport::render`].
    pub cells_seconds: f64,
}

impl EvalReport {
    /// The cell of one (query, engine) coordinate, if both are in range.
    pub fn cell(&self, query: usize, engine: EngineKind) -> Option<&EvalCell> {
        let e = self.engines.iter().position(|&k| k == engine)?;
        self.cells.get(query * self.engines.len() + e)
    }

    /// Aggregated outcomes.
    pub fn totals(&self) -> EvalTotals {
        let mut counts = [0; OUTCOMES.len()];
        for cell in &self.cells {
            counts[cell.outcome.index()] += 1;
        }
        let [ok, timeout, too_large, unsupported, internal] = counts;
        EvalTotals {
            cells: self.cells.len(),
            ok,
            timeout,
            too_large,
            unsupported,
            internal,
        }
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
        let _ = writeln!(out, "cells: {t} ({} total)", t.cells);
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
///
/// `schema`, the generating schema, sharpens the planner's star estimates
/// (the selectivity algebra decides which transitive closures are
/// quadratic); with `None` the planner runs on graph statistics alone.
/// When `options.plan` is false the schema is unused.
///
/// The context is filled for its first matrix only
/// ([`EvalContext::fill_expr_cache`]), and its cache's hit and miss
/// counters, which [`EvalReport::cache`] reads, add up across every matrix
/// run on it. So run one matrix per context: a second matrix on the same
/// context gets neither its own fill nor its own counts.
pub fn evaluate_matrix_with_schema(
    ctx: &EvalContext<'_>,
    schema: Option<&Schema>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    options: &MatrixOptions,
) -> EvalReport {
    let fill_seconds = warm_context(ctx, queries, engines, budget, options);

    // One plan per query, shared by every engine column. Planning happens
    // before any cell clock starts (it is context warm-up work, not query
    // evaluation) and is a pure function of `(schema, graph, query)`, so
    // it cannot perturb the thread-count determinism guarantee.
    let plans: Option<Vec<QueryPlan>> = options
        .plan
        .then(|| queries.iter().map(|q| plan_query(ctx, schema, q)).collect());
    let plans = plans.as_deref();

    let started = Instant::now();
    let cells = ordered_map(options.threads, queries.len() * engines.len(), |ci| {
        run_cell(ctx, queries, engines, budget, options.warm_runs, plans, ci)
    });
    let cells_seconds = started.elapsed().as_secs_f64();

    EvalReport {
        engines: engines.to_vec(),
        queries: queries.len(),
        cells,
        planned: options.plan,
        cache: ctx.expr_cache_stats(),
        fill_seconds,
        cells_seconds,
    }
}

/// Initializes the context's shared indexes **before any cell clock
/// starts**. Without this, whichever cell touches a lazy slot first is
/// billed for one-time context construction — inflating its timing and,
/// under a finite per-cell deadline, making its outcome depend on
/// scheduling. Every engine reads adjacency from the symbol relations, so
/// both directions of every predicate a conjunct mentions are built for
/// every engine selection (a flipped or degraded conjunct may walk the
/// other one) — `D`'s atoms included, whose `|EDB|` the view already
/// counts — and a planned run gets the planner's statistics. Warming is
/// idempotent.
///
/// This is also where the sub-expression result cache is filled on
/// `options.threads` workers, over the candidates of [`fill_candidates`],
/// one fresh cell budget per entry, when `options.cache_mb > 0` and a
/// selected engine reads it — every engine but `D` does. Cells only ever
/// read the cache, so its contents are fixed before the first cell clock
/// starts. A planned run fills even when nothing reads the cache: the
/// fill counts every candidate for the planner and then drops the memo,
/// so each plan, and with it each cell's outcome, is the
/// same whichever engines are selected. Returns the fill's wall seconds.
fn warm_context(
    ctx: &EvalContext<'_>,
    queries: &[&Query],
    engines: &[EngineKind],
    budget: &CellBudget,
    options: &MatrixOptions,
) -> f64 {
    for sym in conjuncts(queries).flat_map(|c| c.expr.symbols()) {
        let _ = ctx.relation(sym);
        let _ = ctx.relation(sym.flipped());
        if options.plan {
            let _ = ctx.symbol_stats(sym);
        }
    }
    let reads_cache = engines.iter().any(|&k| k != EngineKind::Datalog);
    let cache_mb = if reads_cache { options.cache_mb } else { 0 };
    if cache_mb == 0 && !options.plan {
        return 0.0;
    }
    let started = Instant::now();
    let exprs = fill_candidates(queries, engines);
    ctx.fill_expr_cache_on(options.threads, &exprs, cache_mb, || budget.start());
    started.elapsed().as_secs_f64()
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
        let base = evaluate_matrix_with_schema(
            &ctx,
            None,
            &q_refs,
            &EngineKind::ALL,
            &budget,
            &MatrixOptions::default(),
        );
        assert_eq!(base.cells.len(), 12);
        for threads in [2, 8] {
            let report = evaluate_matrix_with_schema(
                &ctx,
                None,
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
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let a = evaluate_matrix_with_schema(
            &ctx,
            None,
            &q_refs,
            &EngineKind::ALL,
            &tight,
            &MatrixOptions::default(),
        );
        let b = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
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
        let planned = evaluate_matrix_with_schema(
            &ctx,
            None,
            &q_refs,
            &EngineKind::ALL,
            &budget,
            &MatrixOptions::default(),
        );
        let unplanned = evaluate_matrix_with_schema(
            &ctx,
            None,
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
    fn s_runs_its_own_kernel_on_a_miss() {
        // Spokes x_i -a-> hub for i < 40, and x_0 -b-> y. Over a·a⁻·b, `P`
        // materializes the prefix a·a⁻ — 40 × 40 = 1 600 pairs, over the
        // cap — while `S`'s product BFS never does and finds the 40 pairs
        // (x_i, y). Answer-equality tests cannot tell the kernels apart;
        // this cap can, with the cache off and with it on (where both
        // probes miss: a·a⁻·b and its prefix a·a⁻ are negative entries,
        // `a` the one hit).
        use gmark_store::{EdgeSink, GraphBuilder, TypePartition};
        let (hub, y) = (40, 41);
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[42]), 2);
        for x in 0..40 {
            b.edge(x, 0, hub);
        }
        b.edge(0, 1, y);
        let g = b.build();
        let q = chain(vec![RegularExpr::path(PathExpr(vec![
            sym(0),
            sym(0).flipped(),
            sym(1),
        ]))]);
        let engines = [EngineKind::Relational, EngineKind::TripleStore];
        let budget = CellBudget {
            timeout: None,
            max_tuples: 500,
        };
        for cache_mb in [0, 64] {
            let ctx = EvalContext::new(&g);
            let options = MatrixOptions {
                cache_mb,
                ..MatrixOptions::default()
            };
            let report =
                evaluate_matrix_with_schema(&ctx, None, &[&q], &engines, &budget, &options);
            let outcome = |kind| &report.cell(0, kind).unwrap().outcome;
            assert!(
                matches!(
                    outcome(EngineKind::Relational),
                    CellOutcome::Failed(EvalError::TooLarge(_))
                ),
                "cache_mb={cache_mb}: {:?}",
                outcome(EngineKind::Relational)
            );
            assert_eq!(
                outcome(EngineKind::TripleStore),
                &CellOutcome::Answers {
                    arity: 2,
                    count: 40
                },
                "cache_mb={cache_mb}"
            );
            let cache = report.cache.map(|s| (s.entries, s.hits, s.misses));
            assert_eq!(cache, (cache_mb > 0).then_some((3, 0, 2)));
        }
    }

    #[test]
    fn a_one_page_store_renders_the_in_ram_report_at_every_thread_count() {
        use gmark_store::paged::{StoreMeta, StoreReader, StoreWriter};
        use gmark_store::{EdgeSink, GraphBuilder, TypePartition};
        // 40 nodes on 64-byte pages: every segment spans several pages.
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
        let reader = StoreReader::open(&path).unwrap();

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
            evaluate_matrix_with_schema(ctx, None, &q_refs, &EngineKind::ALL, &budget, &options)
                .render()
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
