//! The shared, immutable evaluation context.
//!
//! An [`EvalContext`] computes what every engine would otherwise re-derive
//! from the graph per query **at most once per graph** and lends it to all
//! four engines — the "one context, many query backends" shape of a
//! server, and the schema-wide precomputation that schema-based query
//! optimisation exploits:
//!
//! * [`EvalContext::relation`] — the binary relation of a `Σ±` symbol
//!   (forward or inverse), built lazily per `(predicate, direction)` — a
//!   clone of the in-memory graph's CSR, or the store's segment loaded
//!   whole, which is the same CSR — and shared by reference. They are the only adjacency any engine reads: `P` joins
//!   them, the automaton BFS of `S` and `G` takes its moves from them, and
//!   they *are* the Datalog EDB — `edge_<p>` is the forward relation of
//!   `p` — so [`EvalContext::edb`] builds none of them: it reads the
//!   EDB's fact count, nodes plus distinct edges, off the graph view;
//! * [`EvalContext::symbol_stats`] — edge and distinct-source/
//!   distinct-target counts per `(predicate, direction)`, the planner's
//!   cardinality and selectivity input, counted once as the non-empty
//!   runs of the predicate's two symbol relations and shared.
//!
//! The context is `Sync`: lazy slots are [`OnceLock`]s whose values are
//! pure functions of the graph, so concurrent initialization from the
//! matrix harness's workers is race-free and cannot affect any observable
//! result.
//!
//! # The sub-expression result cache
//!
//! gMark workloads are generated from a small schema, so the 30 queries
//! of a scenario overlap heavily in sub-expressions: the same
//! `authoredBy⁻` closure shows up in a dozen conjuncts across the
//! matrix. The context therefore carries a **sub-expression result
//! cache** ([`EvalContext::fill_expr_cache`]): materialized
//! [`Relation`]s keyed by the canonical [`RegularExpr`] form of a
//! sub-expression — single symbols, concatenation prefixes
//! (`RegularExpr::path` of the prefix), unions, and above all `p*`
//! closures, which dominate the timeout/too-large cells.
//!
//! One evaluator turns an expression into a relation, for the fill and
//! for every cell-time miss of [`EvalContext::expr_relation`] alike: it
//! looks each key up in the frozen cache (when its caller reads one),
//! then computes it into a memo of [`OnceLock`] slots, one per expression
//! and per concatenation prefix of its paths. A cached prefix thus
//! jump-starts every longer path.
//!
//! Determinism is by construction, not by luck: the cache is filled
//! **exactly once, before any cell clock starts**, and matrix cells are
//! strictly read-only consumers. A parallel *resolve* pass computes every
//! candidate into the memo (a worker that needs a slot another is filling
//! waits; slots depend only on strictly smaller keys, so nothing
//! deadlocks) and records each candidate's exact length for the planner
//! ([`EvalContext::exact_expr_len`]), whether or not any cache is kept.
//! The memo then *is* the cache: every slot the pass resolved is frozen
//! as an entry. Every kernel is pure, so contents are a pure function of
//! `(graph, fill expression list, tuple cap)` at every thread count. A
//! hit charges the cached *cardinality check* only —
//! `Budget::check_size(len)` — never wall time, except where `G` reads a
//! conjunct: there the hit is charged the checks of the BFS it replaces,
//! the runs of its seeds, or of every node, summed in ascending order
//! (`automaton::charge_seeded`). Failed slots
//! are kept only for the deterministic failure ([`EvalError::TooLarge`]),
//! as negative entries, never for a timeout.
//!
//! What bounds the cache's memory is the tuple cap, per relation: the fill
//! holds every candidate and every prefix at once, each at most
//! `max_tuples` pairs, and keeps them all. There is no byte budget.
//!
//! `P`, `S` and `G` read a conjunct the same way: one counted probe of the
//! whole expression, a hit mounting the cached relation, and on a miss
//! the engine's own kernel. For `G` (`EvalContext::probe_expr`) a hit's
//! runs are the ones its BFS would write, from the seeds a step is bound
//! at or from every node, and only the charge differs from `P`'s and
//! `S`'s read. A negative entry is a
//! miss to the probe: `S`'s automaton BFS and `G`'s navigation
//! never materialize the kernels' intermediates, so they may succeed where
//! the fill blew the cap. `P`'s kernel is the fill's evaluator
//! ([`EvalContext::expr_relation`]) and fails at the same checks, so to it
//! a negative entry over its cap is the answer.
//!
//! The Datalog engine deliberately consumes no cache at all (rule (e) of
//! the [`crate::datalog`] budget rule): a hit could flip a too-large cell
//! to ok, violating the outcome-identity contract above. Its closure-heavy
//! cells compose the relations the delta loop already holds instead.

use crate::relations::Relation;
use crate::{Budget, EvalError};
use gmark_core::query::{PathExpr, RegularExpr, Symbol};
use gmark_store::{ordered_map, GraphView};
use rustc_hash::{FxHashMap, FxHashSet};
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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
    /// Lazy forward relation per predicate, shared by `Arc` with the
    /// sub-expression cache's single-symbol entries.
    fwd: Vec<OnceLock<Arc<Relation>>>,
    /// Lazy inverse relation per predicate.
    bwd: Vec<OnceLock<Arc<Relation>>>,
    /// Lazy per-predicate `(distinct sources, distinct targets)` counts.
    stats: Vec<OnceLock<(usize, usize)>>,
    /// The sub-expression result cache: the memo of
    /// [`EvalContext::fill_expr_cache`], frozen once and read-only
    /// afterwards (see the module docs for the determinism argument).
    expr_cache: OnceLock<ExprCache>,
    /// The exact length of every fill candidate that fits the tuple cap,
    /// set by the same fill whether or not it keeps a cache: the planner's
    /// exact cardinalities ([`EvalContext::exact_expr_len`]).
    expr_lens: OnceLock<FxHashMap<RegularExpr, u64>>,
    /// Top-level cache probes that found an entry.
    cache_hits: AtomicU64,
    /// Top-level cache probes that found nothing.
    cache_misses: AtomicU64,
}

/// One immutable entry of the sub-expression cache.
#[derive(Debug, PartialEq, Eq)]
enum ExprCacheEntry {
    /// The materialized relation, shared by `Arc` with every consumer.
    Hit(Arc<Relation>),
    /// Filling this expression deterministically exceeded the tuple cap,
    /// with the recorded size of the first over-cap check: an error for
    /// the kernel path under a lower cap, a miss for probe-style consumers
    /// (see the module docs).
    TooLarge(usize),
}

/// The filled cache: the fill's memo, frozen, plus its fill-time accounting.
#[derive(Debug)]
struct ExprCache {
    map: FxHashMap<RegularExpr, ExprCacheEntry>,
    /// Sum of cached relation cardinalities.
    tuples: u64,
    /// Memo slots the pre-clock fill resolved: every entry, plus the
    /// timed-out slots it did not keep. The hit/miss probe counters never
    /// see these builds — without this figure a fully pre-filled run
    /// reports a meaningless 100% hit rate.
    fills: u64,
}

impl ExprCache {
    /// Keeps every slot the fill resolved: a relation as a hit, a
    /// too-large failure as a negative entry. A timeout is a machine
    /// artifact, never kept.
    fn freeze(memo: Memo) -> ExprCache {
        let mut cache = ExprCache {
            map: FxHashMap::default(),
            tuples: 0,
            fills: 0,
        };
        for (key, slot) in memo.0 {
            let Some(resolved) = slot.into_inner() else {
                continue;
            };
            cache.fills += 1;
            let entry = match resolved {
                Ok(rel) => {
                    cache.tuples += rel.edge_count() as u64;
                    ExprCacheEntry::Hit(rel)
                }
                Err(EvalError::TooLarge(sz)) => ExprCacheEntry::TooLarge(sz),
                Err(_) => continue,
            };
            cache.map.insert(key, entry);
        }
        cache
    }

    /// An entry as the kernel path reads it: a hit under its cardinality
    /// check, or a negative entry over the caller's cap as its recorded
    /// error. `None` is a key to compute.
    fn serve(&self, key: &RegularExpr, budget: &Budget) -> Option<Resolved> {
        match *self.map.get(key)? {
            ExprCacheEntry::Hit(ref rel) => Some(
                budget
                    .check_size(rel.edge_count())
                    .map(|()| Arc::clone(rel)),
            ),
            ExprCacheEntry::TooLarge(sz) => {
                (sz > budget.max_tuples).then_some(Err(EvalError::TooLarge(sz)))
            }
        }
    }
}

/// Every relation one evaluation can need, each computed at most once:
/// one slot per expression and per [`prefix`] (the empty one included) of
/// its disjunct paths. The key set is fixed when the memo is built; the
/// fill freezes the slots it resolved as the cache ([`ExprCache::freeze`]).
struct Memo(FxHashMap<RegularExpr, OnceLock<Resolved>>);

/// What evaluating one expression gives.
type Resolved = Result<Arc<Relation>, EvalError>;

/// The cache key of a path's first `k` symbols.
fn prefix(path: &PathExpr, k: usize) -> RegularExpr {
    RegularExpr::path(PathExpr(path.0[..k].to_vec()))
}

impl Memo {
    fn new(exprs: &[RegularExpr]) -> Memo {
        let mut slots = FxHashMap::default();
        for expr in exprs {
            for path in &expr.disjuncts {
                for k in 0..=path.0.len() {
                    slots.entry(prefix(path, k)).or_default();
                }
            }
            slots.entry(expr.clone()).or_default();
        }
        Memo(slots)
    }
}

/// Fill-time contents and run-time hit accounting of the sub-expression
/// cache, as reported in `summary.json` and the bench rows. Every field
/// is deterministic: contents are fixed at fill time, and hit/miss totals
/// are sums of per-cell counts that do not depend on thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Entries in the cache (including negative too-large entries).
    pub entries: usize,
    /// Sum of cached relation cardinalities.
    pub tuples: u64,
    /// Top-level probes that found an entry.
    pub hits: u64,
    /// Top-level probes that found nothing.
    pub misses: u64,
    /// Relations computed during the pre-clock fill: every entry, plus any
    /// timed-out computation, which is not kept. These builds happen
    /// before any cell's clock starts, so the hit/miss probe counters
    /// never see them — a hit rate that ignores fills reads 100% on a
    /// fully pre-filled run. Honest rates divide hits by
    /// `hits + misses + fills`.
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
            stats: (0..preds).map(|_| OnceLock::new()).collect(),
            expr_cache: OnceLock::new(),
            expr_lens: OnceLock::new(),
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
        self.symbol_relation(sym)
    }

    /// [`EvalContext::relation`] as the slot's shared `Arc`.
    fn symbol_relation(&self, sym: Symbol) -> &Arc<Relation> {
        let slot = if sym.inverse {
            &self.bwd[sym.predicate.0]
        } else {
            &self.fwd[sym.predicate.0]
        };
        slot.get_or_init(|| Arc::new(Relation::of_symbol(self.view, sym)))
    }

    /// The distinct-endpoint statistics of one `Σ±` symbol, counted on
    /// first use for its predicate as the non-empty runs of its forward and
    /// backward relations, and shared by both directions — the inverse
    /// symbol returns the same counts with source and target swapped.
    pub fn symbol_stats(&self, sym: Symbol) -> SymbolStats {
        let p = sym.predicate.0;
        let &(src, trg) = self.stats[p].get_or_init(|| {
            let runs = |s: Symbol| {
                let offsets = self.relation(s).offsets();
                offsets.windows(2).filter(|w| w[0] < w[1]).count()
            };
            let fwd = Symbol::forward(sym.predicate);
            (runs(fwd), runs(fwd.flipped()))
        });
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

    /// Fills the sub-expression result cache, once, on one thread. Must be
    /// called **before** any matrix cell runs (the harness does this in
    /// its warm-up phase); later calls are no-ops, so the cache never
    /// mutates under concurrent readers. A context is therefore filled
    /// for its first matrix only: a later matrix on it plans without its
    /// own candidates' exact lengths, probes the first matrix's entries,
    /// and adds its hits and misses to the first one's counters. Run one
    /// matrix per context.
    ///
    /// `exprs` is the deterministic enumeration of candidate
    /// sub-expressions (the harness walks queries in order); each is
    /// evaluated under a fresh budget from `fresh_budget` (the same
    /// recipe as a matrix cell, so nothing enters the cache that a cell
    /// could not have computed itself). Concatenation prefixes computed on
    /// the way are kept too, keyed by their canonical
    /// [`RegularExpr::path`] form. `budget_mb` is an on/off switch: `0`
    /// keeps no cache (nothing is even frozen, so every probe is an
    /// uncounted miss), any other value keeps every relation the fill
    /// computed.
    ///
    /// Either way, the fill also records the exact length of every
    /// candidate that fits the tuple cap, so the planner's exact
    /// cardinalities are a function of the graph, the candidates and the
    /// cap alone.
    pub fn fill_expr_cache<F>(&self, exprs: &[RegularExpr], budget_mb: usize, fresh_budget: F)
    where
        F: Fn() -> Budget + Sync,
    {
        self.fill_expr_cache_on(1, exprs, budget_mb, fresh_budget);
    }

    /// [`EvalContext::fill_expr_cache`] on `threads` workers: one parallel
    /// resolve pass over the distinct candidates into a shared memo, which
    /// then becomes the frozen cache.
    pub(crate) fn fill_expr_cache_on<F>(
        &self,
        threads: usize,
        exprs: &[RegularExpr],
        budget_mb: usize,
        fresh_budget: F,
    ) where
        F: Fn() -> Budget + Sync,
    {
        if self.expr_lens.get().is_some() {
            return;
        }
        let memo = Memo::new(exprs);
        let mut seen = FxHashSet::default();
        let distinct: Vec<&RegularExpr> = exprs.iter().filter(|e| seen.insert(*e)).collect();
        let resolved = ordered_map(threads, distinct.len(), |i| {
            self.resolve(&memo, None, distinct[i], &fresh_budget())
        });
        let lens = distinct.iter().zip(&resolved).filter_map(|(&expr, rel)| {
            let len = rel.as_ref().ok()?.edge_count() as u64;
            Some((expr.clone(), len))
        });
        let _ = self.expr_lens.set(lens.collect());
        if budget_mb > 0 {
            let _ = self.expr_cache.set(ExprCache::freeze(memo));
        }
    }

    /// The relation of one memo key: served from `frozen` if it holds the
    /// key ([`ExprCache::serve`]), else computed into its memo slot by
    /// whichever worker asks first. A one-symbol path is the symbol
    /// relation under a size check, a longer one its one-shorter prefix
    /// composed with the last symbol, anything else the union of its
    /// disjunct paths, starred if the key is. A slot waits only on strictly
    /// smaller keys, so no cycle of waiting workers can form.
    fn resolve(
        &self,
        memo: &Memo,
        frozen: Option<&ExprCache>,
        key: &RegularExpr,
        budget: &Budget,
    ) -> Resolved {
        if let Some(served) = frozen.and_then(|cache| cache.serve(key, budget)) {
            return served;
        }
        let slot = memo.0.get(key).expect("a memo holds every key it is asked");
        slot.get_or_init(|| match key.disjuncts.as_slice() {
            [path] if !key.starred => match path.0.split_last() {
                None => Ok(Arc::new(Relation::identity(self.view.node_count()))),
                Some((&last, [])) => {
                    let leaf = self.symbol_relation(last);
                    budget.check_size(leaf.edge_count())?;
                    Ok(Arc::clone(leaf))
                }
                Some((&last, init)) => {
                    let init = self.resolve(memo, frozen, &prefix(path, init.len()), budget)?;
                    init.compose(self.relation(last), budget).map(Arc::new)
                }
            },
            disjuncts => {
                let mut acc: Option<Arc<Relation>> = None;
                for path in disjuncts {
                    let r = self.resolve(memo, frozen, &RegularExpr::path(path.clone()), budget)?;
                    acc = Some(match acc {
                        None => r,
                        Some(a) => Arc::new(a.union(&r)),
                    });
                }
                let base = acc.unwrap_or_default();
                if key.starred {
                    base.star(self.view.node_count(), budget).map(Arc::new)
                } else {
                    Ok(base)
                }
            }
        })
        .clone()
    }

    /// Probes the sub-expression cache for a whole expression, counting
    /// the probe as a hit or a miss, and charges nothing: `G` charges a
    /// hit as the BFS it replaces
    /// ([`crate::automaton::charge_seeded`]). A negative entry, or no
    /// cache, is `None`; with the cache off no counter moves.
    pub(crate) fn probe_expr(&self, expr: &RegularExpr) -> Option<Arc<Relation>> {
        let cache = self.expr_cache.get()?;
        match cache.map.get(expr) {
            Some(ExprCacheEntry::Hit(arc)) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(arc))
            }
            _ => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// One conjunct's relation, the way `P` and `S` read it: one counted
    /// probe of the whole expression ([`EvalContext::probe_expr`]), under
    /// the pinned budget rule:
    ///
    /// * a hit is charged exactly [`Budget::check_size`] on the cached
    ///   cardinality (the check any computation of the result would have
    ///   ended with) and **no wall time** — a cap below the cached size is
    ///   its `TooLarge`, as finishing the computation would have ended;
    /// * a miss (or no cache) is `miss()`, the engine's own kernel.
    ///   Negative entries also land here: only `P`'s kernel treats them as
    ///   authoritative (see the module docs).
    pub(crate) fn conjunct_relation(
        &self,
        expr: &RegularExpr,
        budget: &Budget,
        miss: impl FnOnce() -> Resolved,
    ) -> Resolved {
        let Some(hit) = self.probe_expr(expr) else {
            return miss();
        };
        budget.check_size(hit.edge_count())?;
        Ok(hit)
    }

    /// `P`'s miss kernel: the fill's evaluator over the frozen cache, so a
    /// cached prefix jump-starts each longer path and a negative entry
    /// over the caller's cap, for the expression or a prefix, is the error.
    pub(crate) fn kernel_relation(&self, expr: &RegularExpr, budget: &Budget) -> Resolved {
        let memo = Memo::new(slice::from_ref(expr));
        self.resolve(&memo, self.expr_cache.get(), expr, budget)
    }

    /// The relation of a whole expression, read as `P` reads a conjunct: a
    /// cache hit, else the sorted-kernel evaluator the fill ran.
    pub fn expr_relation(
        &self,
        expr: &RegularExpr,
        budget: &Budget,
    ) -> Result<Arc<Relation>, EvalError> {
        self.conjunct_relation(expr, budget, || self.kernel_relation(expr, budget))
    }

    /// The exact cardinality of a fill candidate that fit the tuple cap,
    /// if the fill ran — the planner's short-circuit: a counted
    /// sub-expression needs no statistical estimate. It does not depend
    /// on whether a cache is kept or on which engines read it, and it
    /// touches no hit/miss counter (planning is warm-up work, not cell
    /// evaluation).
    pub fn exact_expr_len(&self, expr: &RegularExpr) -> Option<u64> {
        self.expr_lens.get()?.get(expr).copied()
    }

    /// Contents and hit accounting of the sub-expression cache; `None`
    /// until [`EvalContext::fill_expr_cache`] has run with a nonzero
    /// budget.
    pub fn expr_cache_stats(&self) -> Option<EvalCacheStats> {
        let cache = self.expr_cache.get()?;
        Some(EvalCacheStats {
            entries: cache.map.len(),
            tuples: cache.tuples,
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            fills: cache.fills,
        })
    }

    /// The fact count of the Datalog EDB — `node(v)` per node plus the
    /// distinct `p`-edges of every predicate, `edge_<p>` being the forward
    /// relation of `p` — the `|EDB|` of the Datalog engine's per-round size
    /// check. Read off the view (the graph's cached edge total, or the
    /// store's verified directory): no relation is built.
    pub fn edb(&self) -> usize {
        self.view.node_count() as usize + self.view.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph4 as graph, pairs, sym};
    use gmark_store::{EdgeSink, GraphBuilder, TypePartition};

    #[test]
    fn relations_are_shared_not_rebuilt() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let first = ctx.relation(sym(0)) as *const Relation;
        let second = ctx.relation(sym(0)) as *const Relation;
        assert_eq!(first, second, "same OnceLock slot must be returned");
        assert_eq!(
            pairs(ctx.relation(sym(0))),
            [(0, 1), (1, 2), (2, 0), (3, 1)]
        );
        assert_eq!(
            pairs(ctx.relation(sym(0).flipped())),
            [(0, 2), (1, 0), (1, 3), (2, 1)]
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
    fn edb_is_built_once_and_covers_the_graph() {
        // A parallel a-edge 0→1 is one EDB fact: 4 nodes, 2 + 1 distinct
        // edges, in RAM and read back from a store of the same graph.
        use gmark_store::paged::{StoreMeta, StoreReader, StoreWriter};
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 2);
        for (s, p, t) in [(0, 0, 1), (0, 0, 1), (1, 0, 2), (1, 1, 3)] {
            b.edge(s, p, t);
        }
        let g = b.build();
        let dir = std::env::temp_dir().join(format!("gmark-engines-edb-{}", std::process::id()));
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
        for view in [GraphView::from(&g), GraphView::from(&reader)] {
            let ctx = EvalContext::new(view);
            assert_eq!(ctx.edb(), 4 + 2 + 1);
            assert_eq!(ctx.edb(), 7, "a second call counts the same facts");
            // The count is the view's: no symbol slot was built for it.
            assert!(ctx.fwd.iter().chain(&ctx.bwd).all(|s| s.get().is_none()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_datalog_only_warm_up_builds_only_the_mentioned_predicates() {
        // Three predicates; the queries mention only `b`, so a `D`-only
        // matrix warms both directions of `b` and leaves `a` and `c` cold.
        use crate::fixtures::chain;
        use crate::{evaluate_matrix_with_schema, CellBudget, EngineKind, MatrixOptions};
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 3);
        for (s, p, t) in [(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 2, 0)] {
            b.edge(s, p, t);
        }
        let g = b.build();
        let ctx = EvalContext::new(&g);
        let q = chain(vec![
            RegularExpr::symbol(sym(1)),
            RegularExpr::star(vec![PathExpr(vec![sym(1).flipped()])]),
        ]);
        let report = evaluate_matrix_with_schema(
            &ctx,
            None,
            &[&q],
            &[EngineKind::Datalog],
            &CellBudget::default(),
            &MatrixOptions::default(),
        );
        assert_eq!(report.totals().ok, 1, "{}", report.render());
        for p in [0, 2] {
            assert!(
                ctx.fwd[p].get().is_none() && ctx.bwd[p].get().is_none(),
                "{p}"
            );
        }
        assert!(ctx.fwd[1].get().is_some() && ctx.bwd[1].get().is_some());
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EvalContext<'_>>();
    }

    fn two_step_expr() -> RegularExpr {
        RegularExpr::path(PathExpr(vec![sym(0), sym(1)]))
    }

    /// A conjunct read that must hit the cache: its miss kernel panics.
    fn hit(ctx: &EvalContext<'_>, expr: &RegularExpr, budget: &Budget) -> Resolved {
        ctx.conjunct_relation(expr, budget, || panic!("{expr:?} missed the cache"))
    }

    /// Whether a conjunct read of `expr` ran its miss kernel.
    fn misses(ctx: &EvalContext<'_>, expr: &RegularExpr, budget: &Budget) -> bool {
        let mut missed = false;
        let _ = ctx.conjunct_relation(expr, budget, || {
            missed = true;
            Err(EvalError::Timeout)
        });
        missed
    }

    #[test]
    fn expr_cache_serves_filled_expressions_and_their_prefixes() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 16, Budget::default);
        let budget = Budget::default();
        let direct = EvalContext::new(&g).expr_relation(&expr, &budget).unwrap();
        assert_eq!(hit(&ctx, &expr, &budget).unwrap(), direct);
        // The length-1 prefix was kept under its canonical key, which
        // is exactly what `RegularExpr::symbol` builds.
        let prefix = RegularExpr::symbol(sym(0));
        let prefix_hit = hit(&ctx, &prefix, &budget).unwrap();
        assert_eq!(prefix_hit.as_ref(), ctx.relation(sym(0)));
        let stats = ctx.expr_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        // The two entries were built during fill — the probe counters
        // above never saw them, but `fills` did.
        assert_eq!((stats.entries, stats.fills), (2, 2), "{stats:?}");
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
        let len = ctx.exact_expr_len(&expr).expect("cached") as usize;
        assert!(len > 0);
        let expired = Budget::with_limits(Some(std::time::Duration::ZERO), usize::MAX);
        assert!(hit(&ctx, &expr, &expired).is_ok());
        // ... while a tuple cap below the cached cardinality fails the
        // size check, exactly as finishing the computation would have.
        let tight = Budget::with_limits(None, len - 1);
        assert!(matches!(
            hit(&ctx, &expr, &tight),
            Err(EvalError::TooLarge(_))
        ));
        let roomy = Budget::with_limits(None, len);
        assert!(hit(&ctx, &expr, &roomy).is_ok());
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
        assert!(misses(&ctx, &expr, &Budget::with_limits(None, 1)));
        assert!(misses(&ctx, &expr, &Budget::default()));
        let rel = ctx.expr_relation(&expr, &Budget::default()).unwrap();
        let uncached = EvalContext::new(&g).expr_relation(&expr, &Budget::default());
        assert_eq!(rel, uncached.unwrap());
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let expr = two_step_expr();
        ctx.fill_expr_cache(std::slice::from_ref(&expr), 0, Budget::default);
        assert!(ctx.expr_cache_stats().is_none());
        assert!(misses(&ctx, &expr, &Budget::default()));
        // With the cache off, probes keep the counters untouched and
        // expr_relation computes directly.
        let rel = ctx.expr_relation(&expr, &Budget::default()).unwrap();
        let uncached = EvalContext::new(&g).expr_relation(&expr, &Budget::default());
        assert_eq!(rel, uncached.unwrap());
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

    #[test]
    fn a_negative_prefix_entry_is_the_uncached_error() {
        // a: 0→1, 0→2; b: 1→0..9, 2→10..19; c: 0→0. Under a 10-tuple cap
        // a·b (20 pairs) blows up, so filling the candidate a·b·c freezes
        // a negative entry for the prefix a·b, which no query names. P
        // reads it for a·b and fails exactly as a context without a cache
        // fails computing a·b.
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[20]), 3);
        for (s, p, t) in [(0, 0, 1), (0, 0, 2), (0, 2, 0)] {
            b.edge(s, p, t);
        }
        for t in 0..20 {
            b.edge(1 + t / 10, 1, t);
        }
        let g = b.build();
        let path = |len: usize| RegularExpr::path(PathExpr((0..len).map(sym).collect()));
        let cap = || Budget::with_limits(None, 10);
        let ctx = EvalContext::new(&g);
        ctx.fill_expr_cache(&[path(3)], 64, cap);
        let frozen = &ctx.expr_cache.get().unwrap().map;
        assert_eq!(frozen.get(&path(2)), Some(&ExprCacheEntry::TooLarge(20)));
        let uncached = EvalContext::new(&g).expr_relation(&path(2), &cap());
        assert_eq!(uncached, Err(EvalError::TooLarge(20)));
        assert_eq!(ctx.expr_relation(&path(2), &cap()), uncached);
    }

    /// A generated recursive Bib instance of 1 500 nodes and its fill
    /// candidates: twelve queries, recursion 0.5, the workload at `seed`.
    fn bib_fill(seed: u64) -> (gmark_store::Graph, Vec<RegularExpr>) {
        use crate::matrix::fill_candidates;
        use crate::EngineKind;
        use gmark_core::{generate_graph, generate_workload_with_threads, usecases};
        use gmark_core::{GeneratorOptions, GraphConfig, WorkloadConfig};

        let schema = usecases::bib();
        let config = GraphConfig::new(1_500, schema.clone());
        let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(seed));
        let mut wcfg = WorkloadConfig::new(12).with_seed(seed);
        wcfg.recursion_probability = 0.5;
        let (workload, _) =
            generate_workload_with_threads(&schema, &wcfg, 1).expect("the workload generates");
        let queries: Vec<_> = workload.queries.iter().map(|gq| &gq.query).collect();
        (graph, fill_candidates(&queries, &EngineKind::ALL))
    }

    #[test]
    fn a_parallel_fill_freezes_what_the_one_thread_fill_freezes() {
        // Generated recursive Bib workloads, in RAM and through a one-page
        // store. A tight cap leaves negative entries. Each fill also
        // carries the one-thread fill's `(entries, tuples, fills)`.
        use gmark_core::usecases;
        use gmark_store::paged::{StoreMeta, StoreReader, StoreWriter};

        let schema = usecases::bib();
        let dir = std::env::temp_dir().join(format!("gmark-engines-fill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut too_large = false;
        let recorded = [
            (
                7u64,
                [
                    (20_000, 64, (29, 45_389, 29)),
                    (200_000, 1, (29, 148_674, 29)),
                ],
            ),
            (
                9,
                [
                    (20_000, 64, (30, 27_582, 30)),
                    (200_000, 1, (30, 155_641, 30)),
                ],
            ),
        ];
        for (seed, fills) in recorded {
            let (graph, exprs) = bib_fill(seed);
            let path = dir.join(format!("{seed}.gstore"));
            let meta = StoreMeta {
                seed,
                schema_hash: schema.schema_hash(),
                page_size: 256,
                predicate_names: schema.predicate_names(),
                partition: graph.partition().clone(),
            };
            StoreWriter::write_graph(&path, &meta, &graph).unwrap();
            let reader = StoreReader::open(&path).unwrap();
            for view in [GraphView::from(&graph), GraphView::from(&reader)] {
                for (max_tuples, budget_mb, stats) in fills {
                    let budget = || Budget::with_limits(None, max_tuples);
                    let lazy = EvalContext::new(view);
                    lazy.fill_expr_cache(&exprs, budget_mb, budget);
                    let want = lazy.expr_cache.get().unwrap();
                    let s = lazy.expr_cache_stats().unwrap();
                    assert_eq!(
                        (s.entries, s.tuples, s.fills),
                        stats,
                        "seed {seed}, cap {max_tuples}, {budget_mb} MiB, one thread"
                    );
                    too_large |= want
                        .map
                        .values()
                        .any(|e| matches!(e, ExprCacheEntry::TooLarge(_)));
                    for threads in [2, 3, 8] {
                        let ctx = EvalContext::new(view);
                        ctx.fill_expr_cache_on(threads, &exprs, budget_mb, budget);
                        let got = ctx.expr_cache.get().unwrap();
                        let case = format!(
                            "seed {seed}, cap {max_tuples}, {budget_mb} MiB, {threads} threads"
                        );
                        assert!(got.map == want.map, "{case}: the frozen maps differ");
                        assert_eq!(ctx.expr_cache_stats(), lazy.expr_cache_stats(), "{case}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(too_large, "no fill left a negative entry");
    }

    #[test]
    fn a_one_mib_fill_freezes_what_a_64_mib_fill_freezes() {
        // `cache_mb` is an on/off switch: no value bounds what is kept.
        for seed in [7, 9] {
            let (graph, exprs) = bib_fill(seed);
            for max_tuples in [20_000, 200_000] {
                let budget = || Budget::with_limits(None, max_tuples);
                let [small, large] = [1, 64].map(|budget_mb| {
                    let ctx = EvalContext::new(&graph);
                    ctx.fill_expr_cache(&exprs, budget_mb, budget);
                    ctx.expr_cache.into_inner().unwrap().map
                });
                assert!(small == large, "seed {seed}, cap {max_tuples}");
            }
        }
    }
}
