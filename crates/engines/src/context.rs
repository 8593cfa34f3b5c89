//! The shared, immutable evaluation context.
//!
//! Before this module existed, every engine re-derived its own view of the
//! graph *per query*: the relational engine collected and sorted one edge
//! list per symbol occurrence, the Datalog engine rebuilt its whole EDB
//! from scratch, and the automaton engines recompiled NFAs for expressions
//! they had already seen. An [`EvalContext`] computes each of these **at
//! most once per graph** and lends them to all four engines — the "one
//! context, many query backends" shape of a server, and the schema-wide
//! precomputation that schema-based query optimisation exploits:
//!
//! * [`EvalContext::relation`] — the sorted, deduplicated binary relation
//!   of a `Σ±` symbol (forward or inverse), built lazily per
//!   `(predicate, direction)` and shared by reference. These relations
//!   *are* the Datalog EDB — `edge_<p>` is the forward relation of `p` —
//!   so [`EvalContext::edb`] only warms them all and counts their facts;
//! * [`EvalContext::nfa`] — a memoized [`compile_nfa`], keyed by the
//!   regular expression;
//! * [`EvalContext::symbol_stats`] — edge and distinct-source/
//!   distinct-target counts per `(predicate, direction)`, the planner's
//!   cardinality and selectivity input, computed once off the CSR degree
//!   arrays and shared.
//!
//! The context is `Sync`: lazy slots are [`OnceLock`]s whose values are
//! pure functions of the graph, and the NFA cache is a mutex around a
//! memo table — so concurrent initialization from the matrix harness's
//! workers is race-free and cannot affect any observable result.
//!
//! # The sub-expression result cache
//!
//! gMark workloads are generated from a small schema, so the 30 queries
//! of a scenario overlap heavily in sub-expressions: the same
//! `authoredBy⁻` closure shows up in a dozen conjuncts across the
//! matrix. The context therefore carries a bounded **sub-expression
//! result cache** ([`EvalContext::fill_expr_cache`] /
//! [`EvalContext::cached_expr`]): materialized [`Relation`]s keyed by
//! the canonical [`RegularExpr`] form of a sub-expression — single
//! symbols, concatenation prefixes (`RegularExpr::path` of the prefix),
//! unions, and above all `p*` closures, which dominate the
//! timeout/too-large cells.
//!
//! Determinism is by construction, not by luck: the cache is filled
//! **exactly once, single-threaded, before any cell clock starts** (the
//! same warm-up phase that builds symbol relations), and matrix cells
//! are strictly read-only consumers. Contents are therefore a pure
//! function of `(graph, fill expression list, tuple cap, byte budget)`,
//! and no cell outcome can depend on hit order or thread schedule. The
//! budget rule for a hit is equally fixed: a hit charges the cached
//! *cardinality check* only — `Budget::check_size(len)` — never wall
//! time (see [`EvalContext::cached_expr`]). Failed fills are cached
//! only for the deterministic failure ([`EvalError::TooLarge`]);
//! wall-clock timeouts are machine artifacts and are never cached.
//! Negative entries are authoritative **only for the sorted-kernel path**
//! ([`EvalContext::expr_relation`], whose cell-time misses run the very
//! fold the fill ran — it differs only in not admitting the prefixes it
//! completes — and so charge the same relations, every leaf included, at
//! the same checks): probe-style consumers ([`EvalContext::cached_expr`])
//! treat them as misses, because their native strategies — automaton
//! BFS, seed-driven navigation — never materialize the kernels'
//! intermediate relations and may legitimately succeed where the fill
//! blew the cap.
//!
//! The Datalog engine deliberately consumes no cache at all (rule (e) of
//! the [`crate::datalog`] budget rule): a hit could flip a too-large cell
//! to ok, violating the outcome-identity contract above. Its closure-heavy
//! cells compose the relations the delta loop already holds instead.

use crate::automaton::{compile_nfa, Nfa};
use crate::relations::Relation;
use crate::{Budget, EvalError};
use gmark_core::query::{PathExpr, RegularExpr, Symbol};
use gmark_core::schema::PredicateId;
use gmark_store::GraphView;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything the four engines would otherwise re-derive from the graph on
/// every query, computed at most once and borrowed by every
/// (engine × query) cell. See the module docs.
///
/// The context is built over a [`GraphView`], so the same engines evaluate
/// either the in-memory CSR [`Graph`](gmark_store::Graph) or the on-disk
/// paged store ([`gmark_store::StoreReader`]) — `EvalContext::new(&graph)`
/// and `EvalContext::new(&reader)` both work.
#[derive(Debug)]
pub struct EvalContext<'g> {
    view: GraphView<'g>,
    /// Lazy forward relation per predicate.
    fwd: Vec<OnceLock<Relation>>,
    /// Lazy inverse relation per predicate.
    bwd: Vec<OnceLock<Relation>>,
    /// Memoized compiled automata, keyed by expression.
    nfas: Mutex<FxHashMap<RegularExpr, Arc<Nfa>>>,
    /// Lazy per-predicate `(distinct sources, distinct targets)` counts.
    stats: Vec<OnceLock<(usize, usize)>>,
    /// The sub-expression result cache, set once by
    /// [`EvalContext::fill_expr_cache`] and read-only afterwards (see the
    /// module docs for the determinism argument).
    expr_cache: OnceLock<ExprCache>,
    /// Top-level cache probes that found an entry.
    cache_hits: AtomicU64,
    /// Top-level cache probes that found nothing.
    cache_misses: AtomicU64,
}

/// One immutable entry of the sub-expression cache.
#[derive(Debug)]
enum ExprCacheEntry {
    /// The materialized relation, shared by `Arc` with every consumer.
    Hit(Arc<Relation>),
    /// Filling this expression deterministically exceeded the tuple cap,
    /// with the recorded size of the first over-cap check. Served as a
    /// fast [`EvalError::TooLarge`] to *kernel-path* consumers
    /// ([`EvalContext::expr_relation`]) whose own cap is below that size
    /// — the same kernels would fail at the same check. Probe-style
    /// consumers treat it as a miss (see the module docs).
    TooLarge(usize),
}

/// The filled cache: a frozen map plus its fill-time accounting.
#[derive(Debug)]
struct ExprCache {
    map: FxHashMap<RegularExpr, ExprCacheEntry>,
    /// Admission byte budget (`budget_mb` MiB) and what is used of it.
    budget_mb: usize,
    bytes: usize,
    /// Sum of cached relation cardinalities.
    tuples: u64,
    /// Relations computed during fill but not admitted because the byte
    /// budget was exhausted.
    rejected: u64,
    /// Relations computed during the pre-clock fill (admitted, rejected,
    /// or negatively cached). The hit/miss probe counters never see these
    /// builds — without this figure a fully pre-filled run reports a
    /// meaningless 100% hit rate.
    fills: u64,
}

impl ExprCache {
    fn new(budget_mb: usize) -> ExprCache {
        ExprCache {
            map: FxHashMap::default(),
            budget_mb,
            bytes: 0,
            tuples: 0,
            rejected: 0,
            fills: 0,
        }
    }

    /// Admits a computed relation under the byte budget; duplicates are
    /// ignored, over-budget relations counted as rejected. Deterministic:
    /// admission depends only on the (deterministic) fill order.
    fn admit(&mut self, key: RegularExpr, rel: Relation) {
        if self.map.contains_key(&key) {
            return;
        }
        self.fills += 1;
        let bytes = rel.heap_bytes();
        if self.bytes + bytes > self.budget_mb * 1024 * 1024 {
            self.rejected += 1;
            return;
        }
        self.bytes += bytes;
        self.tuples += rel.len() as u64;
        self.map.insert(key, ExprCacheEntry::Hit(Arc::new(rel)));
    }
}

/// Where [`EvalContext::fold_path`] looks completed concatenation
/// prefixes up, and whether it may add the ones it completes — the one
/// difference between filling the cache and reading it.
enum Prefixes<'c> {
    /// Fill time: look up in, and admit into, the cache under construction.
    Admit(&'c mut ExprCache),
    /// Cell time: read the frozen cache (if one was filled), never write —
    /// cells are pure consumers, the determinism invariant.
    ReadOnly(Option<&'c ExprCache>),
}

impl Prefixes<'_> {
    fn get(&self, key: &RegularExpr) -> Option<&ExprCacheEntry> {
        match self {
            Prefixes::Admit(cache) => cache.map.get(key),
            Prefixes::ReadOnly(cache) => cache.and_then(|c| c.map.get(key)),
        }
    }

    fn admit(&mut self, key: impl FnOnce() -> RegularExpr, rel: &Relation) {
        if let Prefixes::Admit(cache) = self {
            cache.admit(key(), rel.clone());
        }
    }
}

/// Fill-time contents and run-time hit accounting of the sub-expression
/// cache, as reported in `summary.json` and the bench rows. Every field
/// is deterministic: contents are fixed at fill time, and hit/miss totals
/// are sums of per-cell counts that do not depend on thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Admission budget in MiB.
    pub budget_mb: usize,
    /// Entries in the cache (including negative too-large entries).
    pub entries: usize,
    /// Sum of cached relation cardinalities.
    pub tuples: u64,
    /// Bytes used by cached pair columns.
    pub bytes: usize,
    /// Top-level probes that found an entry.
    pub hits: u64,
    /// Top-level probes that found nothing.
    pub misses: u64,
    /// Fill-time admissions skipped because the byte budget was full.
    pub rejected: u64,
    /// Relations computed during the pre-clock fill (admitted, rejected,
    /// or negatively cached). These builds happen before any cell's clock
    /// starts, so the hit/miss probe counters never see them — a hit rate
    /// that ignores fills reads 100% on a fully pre-filled run. Honest
    /// rates divide hits by `hits + misses + fills`.
    pub fills: u64,
}

/// Statistics of one `Σ±` symbol: how many edges carry its predicate and
/// how many distinct nodes appear on each side (in the symbol's own
/// direction — an inverse symbol sees the forward counts swapped). These
/// are the per-symbol inputs of the cost model in [`crate::planner`]; like
/// the sorted relations they are computed lazily per predicate, shared
/// across engines, and pre-warmable so no matrix cell is ever billed for
/// their construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolStats {
    /// Number of edges labeled with the symbol's predicate.
    pub edges: usize,
    /// Distinct nodes with at least one outgoing such edge (in symbol
    /// direction).
    pub distinct_src: usize,
    /// Distinct nodes with at least one incoming such edge (in symbol
    /// direction).
    pub distinct_trg: usize,
}

impl<'g> EvalContext<'g> {
    /// Wraps a graph view (either `&Graph` or `&StoreReader` coerces).
    /// Cheap: every index is initialized lazily on first use, so a context
    /// built for one query never pays for relations it does not mention.
    pub fn new(view: impl Into<GraphView<'g>>) -> EvalContext<'g> {
        let view = view.into();
        let preds = view.predicate_count();
        EvalContext {
            view,
            fwd: (0..preds).map(|_| OnceLock::new()).collect(),
            bwd: (0..preds).map(|_| OnceLock::new()).collect(),
            nfas: Mutex::new(FxHashMap::default()),
            stats: (0..preds).map(|_| OnceLock::new()).collect(),
            expr_cache: OnceLock::new(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// The underlying graph view.
    #[inline]
    pub fn view(&self) -> GraphView<'g> {
        self.view
    }

    /// The sorted binary relation of one `Σ±` symbol, computed on first
    /// use for its `(predicate, direction)` slot and shared afterwards.
    pub fn relation(&self, sym: Symbol) -> &Relation {
        let slot = if sym.inverse {
            &self.bwd[sym.predicate.0]
        } else {
            &self.fwd[sym.predicate.0]
        };
        slot.get_or_init(|| Relation::of_symbol(self.view, sym))
    }

    /// The distinct-endpoint statistics of one `Σ±` symbol, computed on
    /// first use for its predicate (one offsets sweep, no target pages)
    /// and shared by both directions — the inverse symbol returns the same
    /// counts with source and target swapped.
    pub fn symbol_stats(&self, sym: Symbol) -> SymbolStats {
        let p = sym.predicate.0;
        let &(src, trg) = self.stats[p].get_or_init(|| self.view.distinct_endpoints(p));
        let edges = self.view.edge_count_for(p);
        if sym.inverse {
            SymbolStats {
                edges,
                distinct_src: trg,
                distinct_trg: src,
            }
        } else {
            SymbolStats {
                edges,
                distinct_src: src,
                distinct_trg: trg,
            }
        }
    }

    /// The compiled NFA of a regular expression, memoized per context.
    pub fn nfa(&self, expr: &RegularExpr) -> Arc<Nfa> {
        let mut cache = self.nfas.lock().expect("no panics while compiling NFAs");
        if let Some(nfa) = cache.get(expr) {
            return Arc::clone(nfa);
        }
        let nfa = Arc::new(compile_nfa(expr));
        cache.insert(expr.clone(), Arc::clone(&nfa));
        nfa
    }

    /// Fills the sub-expression result cache, once. Must be called from
    /// exactly one thread **before** any matrix cell runs (the harness
    /// does this in its warm-up phase); later calls are no-ops, so the
    /// cache never mutates under concurrent readers.
    ///
    /// `exprs` is the deterministic enumeration of candidate
    /// sub-expressions (the harness walks queries in order); each is
    /// evaluated under a fresh budget from `fresh_budget` (the same
    /// recipe as a matrix cell, so nothing enters the cache that a cell
    /// could not have computed itself). Concatenation prefixes discovered
    /// on the way are admitted too, keyed by their canonical
    /// [`RegularExpr::path`] form. `budget_mb` bounds admitted pair-column
    /// bytes; `0` disables the cache entirely (nothing is even frozen, so
    /// [`EvalContext::cached_expr`] stays on its no-cache fast path).
    pub fn fill_expr_cache<F>(&self, exprs: &[RegularExpr], budget_mb: usize, mut fresh_budget: F)
    where
        F: FnMut() -> Budget,
    {
        if budget_mb == 0 || self.expr_cache.get().is_some() {
            return;
        }
        let mut cache = ExprCache::new(budget_mb);
        for expr in exprs {
            if cache.map.contains_key(expr) {
                continue;
            }
            let budget = fresh_budget();
            match self.fold_expr(expr, &budget, &mut Prefixes::Admit(&mut cache)) {
                Ok(rel) => cache.admit(expr.clone(), rel),
                Err(EvalError::TooLarge(sz)) => {
                    // Deterministic failure under the cap: cache it so no
                    // cell re-derives the blow-up four times. The doomed
                    // computation still ran once — it counts as a fill.
                    cache.fills += 1;
                    cache.map.insert(expr.clone(), ExprCacheEntry::TooLarge(sz));
                }
                // Timeouts (and anything else wall-clock-shaped) are
                // machine artifacts — never cached.
                Err(_) => {}
            }
        }
        let _ = self.expr_cache.set(cache);
    }

    /// The one expression fold: disjuncts → union → star, over
    /// left-folded concatenation paths. `prefixes` is the only thing that
    /// differs between the pre-clock fill and a cell-time miss.
    fn fold_expr(
        &self,
        expr: &RegularExpr,
        budget: &Budget,
        prefixes: &mut Prefixes<'_>,
    ) -> Result<Relation, EvalError> {
        let mut acc: Option<Relation> = None;
        for path in &expr.disjuncts {
            let r = self.fold_path(path, budget, prefixes)?;
            acc = Some(match acc {
                None => r,
                Some(a) => a.union(&r),
            });
        }
        let base = acc.unwrap_or_default();
        if expr.starred {
            base.star(self.view.node_count(), budget)
        } else {
            Ok(base)
        }
    }

    /// Left-fold of one concatenation path: jump-starts from the longest
    /// cached prefix, then composes symbol by symbol, offering every newly
    /// completed prefix to `prefixes` under its canonical single-path key.
    /// Every relation the fold holds — the leaf included — is charged
    /// against the tuple cap, whichever mode it runs in.
    fn fold_path(
        &self,
        path: &PathExpr,
        budget: &Budget,
        prefixes: &mut Prefixes<'_>,
    ) -> Result<Relation, EvalError> {
        if path.is_empty() {
            return Ok(Relation::identity(self.view.node_count()));
        }
        let syms = &path.0;
        let prefix_key = |k: usize| RegularExpr::path(PathExpr(syms[..k].to_vec()));
        let mut start: Option<(Relation, usize)> = None;
        for k in (1..=syms.len()).rev() {
            match prefixes.get(&prefix_key(k)) {
                Some(ExprCacheEntry::Hit(arc)) => {
                    budget.check_size(arc.len())?;
                    start = Some((arc.as_ref().clone(), k));
                    break;
                }
                // The left-fold would blow the cap right here.
                Some(ExprCacheEntry::TooLarge(sz)) if *sz > budget.max_tuples => {
                    return Err(EvalError::TooLarge(*sz));
                }
                _ => {}
            }
        }
        let (mut acc, mut i) = match start {
            Some(cached) => cached,
            None => {
                let leaf = self.relation(syms[0]);
                budget.check_size(leaf.len())?;
                prefixes.admit(|| prefix_key(1), leaf);
                (leaf.clone(), 1)
            }
        };
        while i < syms.len() {
            acc = acc.compose(self.relation(syms[i]), budget)?;
            i += 1;
            prefixes.admit(|| prefix_key(i), &acc);
        }
        Ok(acc)
    }

    /// Probes the sub-expression cache for a whole expression. The two
    /// outcomes, under the pinned budget rule:
    ///
    /// * `Ok(Some(rel))` — hit: the caller is charged exactly
    ///   [`Budget::check_size`] on the cached cardinality (the check any
    ///   computation of the result would have ended with) and **no wall
    ///   time**;
    /// * `Ok(None)` — miss (or cache disabled): compute as before.
    ///   Negative entries also land here: a probe caller's native
    ///   evaluation strategy is not the fill's kernel path, so a fill
    ///   blow-up does not prove *its* recomputation fails (only
    ///   [`EvalContext::expr_relation`] treats negatives as
    ///   authoritative).
    ///
    /// An `Err(TooLarge)` is the hit's own cardinality check failing —
    /// the caller's cap is below the cached result size, exactly as
    /// finishing the computation would have ended.
    pub fn cached_expr(
        &self,
        expr: &RegularExpr,
        budget: &Budget,
    ) -> Result<Option<Arc<Relation>>, EvalError> {
        let Some(cache) = self.expr_cache.get() else {
            return Ok(None);
        };
        match cache.map.get(expr) {
            Some(ExprCacheEntry::Hit(arc)) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                budget.check_size(arc.len())?;
                Ok(Some(Arc::clone(arc)))
            }
            _ => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// The relation of a whole expression: a cache hit when possible,
    /// otherwise computed by the sorted-kernel relational path — with
    /// cached concatenation prefixes jump-starting each path's left
    /// fold. This is the `P`-style engine's per-conjunct entry point.
    ///
    /// A negative cache entry whose recorded blow-up exceeds the
    /// caller's cap is authoritative here (`Err(TooLarge)` without
    /// recomputing): this method runs the exact kernel computation the
    /// fill ran, so it would fail at the same check.
    pub fn expr_relation(
        &self,
        expr: &RegularExpr,
        budget: &Budget,
    ) -> Result<Arc<Relation>, EvalError> {
        if let Some(hit) = self.cached_expr(expr, budget)? {
            return Ok(hit);
        }
        if let Some(cache) = self.expr_cache.get() {
            if let Some(ExprCacheEntry::TooLarge(sz)) = cache.map.get(expr) {
                if *sz > budget.max_tuples {
                    return Err(EvalError::TooLarge(*sz));
                }
            }
        }
        let mut frozen = Prefixes::ReadOnly(self.expr_cache.get());
        self.fold_expr(expr, budget, &mut frozen).map(Arc::new)
    }

    /// The exact cardinality of a positively cached expression, if any —
    /// the planner's short-circuit: a cached sub-expression needs no
    /// statistical estimate. Does not touch the hit/miss counters
    /// (planning is warm-up work, not cell evaluation).
    pub fn cached_expr_len(&self, expr: &RegularExpr) -> Option<u64> {
        match self.expr_cache.get()?.map.get(expr)? {
            ExprCacheEntry::Hit(arc) => Some(arc.len() as u64),
            ExprCacheEntry::TooLarge(_) => None,
        }
    }

    /// Contents and hit accounting of the sub-expression cache; `None`
    /// until [`EvalContext::fill_expr_cache`] has run with a nonzero
    /// budget.
    pub fn expr_cache_stats(&self) -> Option<EvalCacheStats> {
        let cache = self.expr_cache.get()?;
        Some(EvalCacheStats {
            budget_mb: cache.budget_mb,
            entries: cache.map.len(),
            tuples: cache.tuples,
            bytes: cache.bytes,
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            rejected: cache.rejected,
            fills: cache.fills,
        })
    }

    /// The Datalog EDB: warms the forward relation of every predicate —
    /// `edge_<p>`, which inverse symbols read through the backward relation
    /// of the same edges — and returns the fact count, `node(v)` per node
    /// plus the distinct `p`-edges of every predicate: the `|EDB|` of the
    /// Datalog engine's per-round size check.
    pub fn edb(&self) -> usize {
        let edges = |p| self.relation(Symbol::forward(PredicateId(p))).len();
        self.view.node_count() as usize + (0..self.fwd.len()).map(edges).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph4 as graph, sym};
    use gmark_store::{EdgeSink, GraphBuilder, TypePartition};

    #[test]
    fn relations_are_shared_not_rebuilt() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let first = ctx.relation(sym(0)) as *const Relation;
        let second = ctx.relation(sym(0)) as *const Relation;
        assert_eq!(first, second, "same OnceLock slot must be returned");
        assert_eq!(
            ctx.relation(sym(0)).pairs(),
            &[(0, 1), (1, 2), (2, 0), (3, 1)]
        );
        assert_eq!(
            ctx.relation(sym(0).flipped()).pairs(),
            &[(0, 2), (1, 0), (1, 3), (2, 1)]
        );
    }

    #[test]
    fn cardinalities_match_the_graph() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        assert_eq!(ctx.symbol_stats(sym(0)).edges, 4);
        assert_eq!(ctx.symbol_stats(sym(1).flipped()).edges, 2);
    }

    #[test]
    fn symbol_stats_count_distinct_endpoints() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        // Predicate 0: edges (0,1),(1,2),(2,0),(3,1) — four distinct
        // sources, three distinct targets {0,1,2}.
        let a = ctx.symbol_stats(sym(0));
        assert_eq!(
            a,
            SymbolStats {
                edges: 4,
                distinct_src: 4,
                distinct_trg: 3
            }
        );
        // The inverse symbol sees the same counts, swapped.
        let a_inv = ctx.symbol_stats(sym(0).flipped());
        assert_eq!(a_inv.distinct_src, 3);
        assert_eq!(a_inv.distinct_trg, 4);
        assert_eq!(a_inv.edges, 4);
        // Predicate 1: (1,3),(2,3) — two sources, one target.
        let b = ctx.symbol_stats(sym(1));
        assert_eq!(
            b,
            SymbolStats {
                edges: 2,
                distinct_src: 2,
                distinct_trg: 1
            }
        );
    }

    #[test]
    fn nfa_cache_returns_the_same_automaton() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = RegularExpr::symbol(sym(0));
        let a = ctx.nfa(&expr);
        let b = ctx.nfa(&expr);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn edb_is_built_once_and_covers_the_graph() {
        // A parallel a-edge 0→1 is one EDB fact.
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 2);
        for (s, p, t) in [(0, 0, 1), (0, 0, 1), (1, 0, 2), (1, 1, 3)] {
            b.edge(s, p, t);
        }
        let g = b.build();
        let ctx = EvalContext::new(&g);
        let a = ctx.relation(sym(0)) as *const Relation;
        assert_eq!(ctx.edb(), 4 + 2 + 1);
        assert_eq!(ctx.edb(), 7, "a second call counts the same relations");
        assert_eq!(ctx.relation(sym(0)) as *const Relation, a);
        // Every forward slot is warm afterwards, no backward one.
        assert!(ctx.fwd.iter().all(|slot| slot.get().is_some()));
        assert!(ctx.bwd.iter().all(|slot| slot.get().is_none()));
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EvalContext<'_>>();
    }

    fn two_step_expr() -> RegularExpr {
        RegularExpr::path(PathExpr(vec![sym(0), sym(1)]))
    }

    #[test]
    fn expr_cache_serves_filled_expressions_and_their_prefixes() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 16, Budget::default);
        let budget = Budget::default();
        let hit = ctx.cached_expr(&expr, &budget).unwrap().expect("hit");
        let direct = Relation::of_expr(&g, &expr, &budget).unwrap();
        assert_eq!(hit.as_ref(), &direct);
        // The length-1 prefix was admitted under its canonical key, which
        // is exactly what `RegularExpr::symbol` builds.
        let prefix = RegularExpr::symbol(sym(0));
        let prefix_hit = ctx.cached_expr(&prefix, &budget).unwrap().expect("hit");
        assert_eq!(prefix_hit.as_ref(), ctx.relation(sym(0)));
        let stats = ctx.expr_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        // The two admitted entries were built during fill — the probe
        // counters above never saw them, but `fills` did.
        assert_eq!(stats.fills, 2, "{stats:?}");
        assert!(stats.entries >= 2, "{stats:?}");
        assert_eq!(stats.bytes, stats.tuples as usize * 8);
        // A second fill is a no-op: the cache froze at first fill.
        ctx.fill_expr_cache(&[prefix], 1, Budget::default);
        assert_eq!(ctx.expr_cache_stats().unwrap().entries, stats.entries);
    }

    #[test]
    fn cache_hit_charges_only_the_cardinality_check() {
        // The pinned budget rule: a hit is charged Budget::check_size on
        // the cached cardinality and nothing else — in particular no wall
        // time, so an already-expired clock cannot fail a hit.
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 16, Budget::default);
        let len = ctx.cached_expr_len(&expr).expect("cached") as usize;
        assert!(len > 0);
        let expired = Budget::with_limits(Some(std::time::Duration::ZERO), usize::MAX);
        assert!(ctx.cached_expr(&expr, &expired).unwrap().is_some());
        // ... while a tuple cap below the cached cardinality fails the
        // size check, exactly as finishing the computation would have.
        let tight = Budget::with_limits(None, len - 1);
        assert!(matches!(
            ctx.cached_expr(&expr, &tight),
            Err(EvalError::TooLarge(_))
        ));
        let roomy = Budget::with_limits(None, len);
        assert!(ctx.cached_expr(&expr, &roomy).unwrap().is_some());
    }

    #[test]
    fn deterministic_blowups_are_negatively_cached() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        // Fill under a 1-tuple cap: the two-step composition cannot fit,
        // and the failure is deterministic, so it is cached negatively.
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 16, || {
            Budget::with_limits(None, 1)
        });
        // The kernel path fails fast for a consumer at (or below) the
        // recorded blow-up — recomputing would fail at the same check...
        assert!(matches!(
            ctx.expr_relation(&expr, &Budget::with_limits(None, 1)),
            Err(EvalError::TooLarge(_))
        ));
        // ...while a probe is a plain miss (negative entries bind only
        // the kernel path), and a roomier kernel caller recomputes.
        assert_eq!(
            ctx.cached_expr(&expr, &Budget::with_limits(None, 1))
                .unwrap(),
            None
        );
        assert_eq!(ctx.cached_expr(&expr, &Budget::default()).unwrap(), None);
        let rel = ctx.expr_relation(&expr, &Budget::default()).unwrap();
        assert_eq!(
            rel.as_ref(),
            &Relation::of_expr(&g, &expr, &Budget::default()).unwrap()
        );
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 0, Budget::default);
        assert!(ctx.expr_cache_stats().is_none());
        assert_eq!(ctx.cached_expr(&expr, &Budget::default()).unwrap(), None);
        // With the cache off, probes keep the counters untouched and
        // expr_relation computes directly.
        let rel = ctx.expr_relation(&expr, &Budget::default()).unwrap();
        assert_eq!(
            rel.as_ref(),
            &Relation::of_expr(&g, &expr, &Budget::default()).unwrap()
        );
    }

    #[test]
    fn a_leaf_over_the_cap_is_too_large_with_and_without_the_cache() {
        // a: 0→1..10, b: 1→20; (x,a,y),(y,b,z) at max_tuples = 5. The `a`
        // leaf alone holds ten pairs, so P must report too-large whether
        // the leaf is charged by the fill or by a cell-time fold — the
        // cache may change wall clock only, never a cell outcome.
        use crate::{plan_query, EngineKind};
        use gmark_core::query::{Conjunct, Query, Rule, Var};
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[21]), 2);
        for t in 1..=10 {
            b.edge(0, 0, t);
        }
        b.edge(1, 1, 20);
        let g = b.build();
        let conjunct = |src: u32, p: usize, trg: u32| Conjunct {
            src: Var(src),
            expr: RegularExpr::symbol(sym(p)),
            trg: Var(trg),
        };
        let q = Query::single(Rule {
            head: vec![Var(0), Var(2)],
            body: vec![conjunct(0, 0, 1), conjunct(1, 1, 2)],
        })
        .unwrap();
        let exprs: Vec<RegularExpr> = q.rules[0].body.iter().map(|c| c.expr.clone()).collect();
        let tight = || Budget::with_limits(None, 5);
        for cache_mb in [0, 16] {
            for planned in [true, false] {
                let ctx = EvalContext::new(&g);
                ctx.fill_expr_cache(&exprs, cache_mb, tight);
                let plan = planned.then(|| plan_query(&ctx, None, &q));
                let result = EngineKind::Relational.evaluate(&ctx, &q, plan.as_ref(), &tight());
                assert!(
                    matches!(result, Err(EvalError::TooLarge(10))),
                    "cache_mb={cache_mb} planned={planned}: {result:?}"
                );
            }
        }
    }
}
