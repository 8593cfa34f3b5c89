//! Materialized binary relations: the building blocks of the relational
//! (`P`-style) engine and of its Kleene-star closures.
//!
//! A [`Relation`] is a sorted, deduplicated set of compact `u32` node
//! pairs — the SQL translation's `(s, t)` CTEs made concrete. The kernels
//! never hash and never re-sort whole results: composition walks the
//! left side source-run by source-run with a galloping cursor into the
//! right side (output is emitted already sorted), union and difference
//! are linear merges of sorted inputs, and the star materializes the same
//! closure the paper's footnote-4 linear recursion defines by one
//! traversal per source, each source's targets sorted as it is emitted.
//! Composition's per-source target buffers live in a per-worker scratch
//! arena (`thread_local`) so its inner loop allocates nothing in steady
//! state.

use crate::{Budget, EvalError};
use gmark_core::query::Symbol;
use gmark_store::{GraphView, NodeId};
use std::cell::RefCell;
use std::cmp::Ordering;

thread_local! {
    /// Per-worker scratch arena: the per-source target buffer reused by
    /// every composition this thread runs. Steady-state compositions
    /// allocate only their output vector.
    static SCRATCH: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

/// Galloping (exponential + binary) search: the first index `>= lo` whose
/// source is `>= t`. Precondition: every entry before `lo` has source
/// `< t` — callers walk `t` in ascending order and feed the previous
/// result back in, so each run lookup is `O(log gap)`, not `O(log n)`.
fn gallop_src(pairs: &[(NodeId, NodeId)], t: NodeId, mut lo: usize) -> usize {
    let mut step = 1usize;
    let mut hi = lo;
    while hi < pairs.len() && pairs[hi].0 < t {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(pairs.len());
    lo + pairs[lo..hi].partition_point(|&(s, _)| s < t)
}

/// A sorted, deduplicated set of node pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Relation {
    pairs: Vec<(NodeId, NodeId)>,
}

impl Relation {
    /// Builds from arbitrary pairs (sorts + dedups).
    pub fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> Relation {
        pairs.sort_unstable();
        pairs.dedup();
        Relation { pairs }
    }

    /// The relation of one `Σ±` symbol: all `a`-edges, flipped for `a⁻`.
    ///
    /// Both directions come pre-sorted out of the CSR indexes — in memory
    /// or paged ([`GraphView::pairs`] walks the backward index for `a⁻`),
    /// so no sort is paid here — only a dedup pass for graphs that keep
    /// parallel edges.
    pub fn of_symbol<'g>(graph: impl Into<GraphView<'g>>, sym: Symbol) -> Relation {
        let mut pairs: Vec<(NodeId, NodeId)> =
            graph.into().pairs(sym.predicate.0, sym.inverse).collect();
        debug_assert!(pairs.is_sorted());
        pairs.dedup();
        Relation { pairs }
    }

    /// Consumes the relation, yielding its sorted pairs.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        self.pairs
    }

    /// The identity relation over all `n` nodes (the ε relation).
    pub fn identity(n: NodeId) -> Relation {
        Relation {
            pairs: (0..n).map(|v| (v, v)).collect(),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs, sorted.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Approximate heap footprint of the pair columns, in bytes (the unit
    /// the sub-expression cache's admission budget is accounted in).
    pub fn heap_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Sort-merge composition `self ; other` = `{(s, u) | (s, t) ∈ self,
    /// (t, u) ∈ other}`.
    ///
    /// Walks `self` one source run at a time: the run's targets are
    /// ascending, so the matching runs of `other` are found with a
    /// forward-only galloping cursor. The run's result targets are
    /// deduplicated in the per-worker scratch buffer and appended — the
    /// output is sorted by construction, so no final re-sort (and no hash
    /// set) is ever paid. The tuple budget is charged on the *deduplicated*
    /// output, not the raw match count.
    pub fn compose(&self, other: &Relation, budget: &Budget) -> Result<Relation, EvalError> {
        if self.pairs.is_empty() || other.pairs.is_empty() {
            return Ok(Relation::default());
        }
        SCRATCH.with(|cell| {
            let targets = &mut *cell.borrow_mut();
            let mut out: Vec<(NodeId, NodeId)> = Vec::new();
            let o = &other.pairs[..];
            let mut i = 0usize;
            let mut runs = 0usize;
            while i < self.pairs.len() {
                if runs.is_multiple_of(1024) {
                    budget.check_time()?;
                }
                runs += 1;
                let s = self.pairs[i].0;
                let run_end = i + self.pairs[i..].iter().take_while(|p| p.0 == s).count();
                targets.clear();
                let mut cursor = 0usize;
                for &(_, t) in &self.pairs[i..run_end] {
                    let lo = gallop_src(o, t, cursor);
                    let mut j = lo;
                    while j < o.len() && o[j].0 == t {
                        targets.push(o[j].1);
                        j += 1;
                    }
                    cursor = lo;
                }
                targets.sort_unstable();
                targets.dedup();
                budget.check_size(out.len() + targets.len())?;
                out.extend(targets.iter().map(|&u| (s, u)));
                i = run_end;
            }
            Ok(Relation { pairs: out })
        })
    }

    /// Union: a linear merge of two sorted inputs (no re-sort).
    pub fn union(&self, other: &Relation) -> Relation {
        let (a, b) = (&self.pairs, &other.pairs);
        let mut pairs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    pairs.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    pairs.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    pairs.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        pairs.extend_from_slice(&a[i..]);
        pairs.extend_from_slice(&b[j..]);
        Relation { pairs }
    }

    /// Set difference `self \ other`: a linear merge of sorted inputs.
    pub fn difference(&self, other: &Relation) -> Relation {
        let (a, b) = (&self.pairs, &other.pairs);
        let mut pairs = Vec::new();
        let mut j = 0usize;
        for &p in a {
            while j < b.len() && b[j] < p {
                j += 1;
            }
            if j >= b.len() || b[j] != p {
                pairs.push(p);
            }
        }
        Relation { pairs }
    }

    /// Whether the relation contains `(s, t)` (binary search).
    pub fn contains(&self, s: NodeId, t: NodeId) -> bool {
        self.pairs.binary_search(&(s, t)).is_ok()
    }

    /// The contiguous run of pairs whose source is `s` (their targets,
    /// sorted): the binary-search semi-join primitive. One binary search
    /// finds the run; its end is found by walking it, which the caller
    /// does anyway.
    pub fn targets_of(&self, s: NodeId) -> &[(NodeId, NodeId)] {
        let lo = self.pairs.partition_point(|&(ps, _)| ps < s);
        let len = self.pairs[lo..].iter().take_while(|p| p.0 == s).count();
        &self.pairs[lo..lo + len]
    }

    /// Reflexive-transitive closure `self*` over the nodes `0..n`: one
    /// breadth-first traversal per source over a CSR of `self`'s own
    /// sorted pairs (offsets by source), with one stamp array shared by
    /// every traversal. Source `s` emits `(s, s)` and every node reached
    /// in one or more steps, its targets sorted, so the output is sorted
    /// and deduplicated by construction — no rounds, no hash set, no
    /// whole-result re-sort.
    ///
    /// Precondition: every endpoint of `self` is below `n` (callers pass
    /// the graph's node count).
    ///
    /// The budget sees the clock every 256 sources and the cumulative
    /// output after each source. Every charge is a prefix of the closure,
    /// so the call succeeds exactly when the whole closure fits the tuple
    /// cap; over it, `TooLarge` carries the length of the first prefix
    /// past the cap. On quadratic-selectivity closures that is the point:
    /// materializing the full result is why the `P`-style engine blows its
    /// budget on the paper's hardest recursive queries (Table 4).
    pub fn star(&self, n: NodeId, budget: &Budget) -> Result<Relation, EvalError> {
        debug_assert!(
            self.pairs.iter().all(|&(s, t)| s < n && t < n),
            "star over {n} nodes given an endpoint >= {n}"
        );
        let n = n as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &self.pairs {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `stamp[v] == s + 1` marks `v` reached from `s`.
        let mut stamp: Vec<NodeId> = vec![0; n];
        let mut reached: Vec<NodeId> = Vec::new();
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for s in 0..n as NodeId {
            if s.is_multiple_of(256) {
                budget.check_time()?;
            }
            reached.clear();
            reached.push(s);
            stamp[s as usize] = s + 1;
            let mut head = 0usize;
            while head < reached.len() {
                let u = reached[head] as usize;
                head += 1;
                for &(_, v) in &self.pairs[offsets[u]..offsets[u + 1]] {
                    if stamp[v as usize] != s + 1 {
                        stamp[v as usize] = s + 1;
                        reached.push(v);
                    }
                }
            }
            reached.sort_unstable();
            budget.check_size(out.len() + reached.len())?;
            out.extend(reached.iter().map(|&t| (s, t)));
        }
        Ok(Relation { pairs: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalContext;
    use crate::fixtures::sym;
    use gmark_core::query::{PathExpr, RegularExpr};
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn chain_graph() -> Graph {
        // a-edges: 0→1→2→3 (a path).
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 1);
        for (s, t) in [(0, 1), (1, 2), (2, 3)] {
            b.edge(s, 0, t);
        }
        b.build()
    }

    #[test]
    fn symbol_relation_and_inverse() {
        let g = chain_graph();
        let r = Relation::of_symbol(&g, sym(0));
        assert_eq!(r.pairs(), &[(0, 1), (1, 2), (2, 3)]);
        let ri = Relation::of_symbol(&g, sym(0).flipped());
        assert_eq!(ri.pairs(), &[(1, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn composition() {
        let g = chain_graph();
        let r = Relation::of_symbol(&g, sym(0));
        let rr = r.compose(&r, &Budget::default()).unwrap();
        assert_eq!(rr.pairs(), &[(0, 2), (1, 3)]);
        let rrr = rr.compose(&r, &Budget::default()).unwrap();
        assert_eq!(rrr.pairs(), &[(0, 3)]);
    }

    #[test]
    fn composition_output_is_sorted_and_deduplicated() {
        // Two sources fan into one hub which fans out: composition must
        // dedup per source and stay sorted without a final sort pass.
        let a = Relation::from_pairs(vec![(0, 5), (0, 6), (1, 5), (1, 6)]);
        let b = Relation::from_pairs(vec![(5, 7), (5, 8), (6, 7), (6, 8)]);
        let ab = a.compose(&b, &Budget::default()).unwrap();
        assert_eq!(ab.pairs(), &[(0, 7), (0, 8), (1, 7), (1, 8)]);
        assert!(ab.pairs().is_sorted());
    }

    #[test]
    fn union_dedups() {
        let a = Relation::from_pairs(vec![(0, 1), (1, 2)]);
        let b = Relation::from_pairs(vec![(1, 2), (2, 3)]);
        assert_eq!(a.union(&b).pairs(), &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn difference_and_contains() {
        let a = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 3)]);
        let b = Relation::from_pairs(vec![(1, 2)]);
        assert_eq!(a.difference(&b).pairs(), &[(0, 1), (2, 3)]);
        assert!(a.contains(1, 2));
        assert!(!a.contains(2, 1));
        assert_eq!(a.targets_of(1), &[(1, 2)]);
        assert!(a.targets_of(7).is_empty());
    }

    #[test]
    fn star_of_chain() {
        let g = chain_graph();
        let r = Relation::of_symbol(&g, sym(0));
        let star = r.star(4, &Budget::default()).unwrap();
        // id ∪ all forward reachabilities on the path.
        let expected = Relation::from_pairs(vec![
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 2),
            (1, 3),
            (0, 3),
        ]);
        assert_eq!(star, expected);
    }

    #[test]
    fn epsilon_path_is_identity() {
        let g = chain_graph();
        let eps = RegularExpr::union(vec![PathExpr::epsilon()]);
        let r = EvalContext::new(&g).expr_relation(&eps, &Budget::default());
        assert_eq!(*r.unwrap(), Relation::identity(4));
    }

    #[test]
    fn expr_disjunction() {
        let g = chain_graph();
        let expr = RegularExpr::union(vec![PathExpr(vec![sym(0)]), PathExpr(vec![sym(0), sym(0)])]);
        let r = EvalContext::new(&g).expr_relation(&expr, &Budget::default());
        assert_eq!(
            r.unwrap().pairs(),
            &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        );
    }

    #[test]
    fn star_budget_enforced() {
        // Complete bipartite-ish blowup: star on a dense relation.
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[50]), 1);
        for s in 0..50u32 {
            for t in 0..50u32 {
                if s != t {
                    b.edge(s, 0, t);
                }
            }
        }
        let g = b.build();
        let r = Relation::of_symbol(&g, sym(0));
        let tight = Budget {
            max_tuples: 100,
            ..Budget::default()
        };
        assert!(matches!(r.star(50, &tight), Err(EvalError::TooLarge(_))));
    }

    #[test]
    fn expr_kernels_agree_with_the_automaton() {
        // The independent reference: product-automaton BFS.
        let g = chain_graph();
        let exprs = [
            RegularExpr::symbol(sym(0)),
            RegularExpr::symbol(sym(0).flipped()),
            RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
            RegularExpr::union(vec![PathExpr(vec![sym(0), sym(0)]), PathExpr::epsilon()]),
        ];
        for expr in exprs {
            let nfa = crate::compile_nfa(&expr);
            assert_eq!(
                *EvalContext::new(&g)
                    .expr_relation(&expr, &Budget::default())
                    .unwrap(),
                crate::eval_rpq(&EvalContext::new(&g), &nfa, None, false, &Budget::default())
                    .unwrap(),
                "{expr:?}"
            );
        }
    }

    #[test]
    fn compose_survives_the_largest_node_id() {
        // The end of a source run is found by equality, not by searching
        // for `s + 1`.
        let a = Relation::from_pairs(vec![(7, 1), (u32::MAX, 1), (u32::MAX, 2)]);
        let b = Relation::from_pairs(vec![(1, u32::MAX), (2, 0)]);
        let ab = a.compose(&b, &Budget::default()).unwrap();
        assert_eq!(
            ab.pairs(),
            &[(7, u32::MAX), (u32::MAX, 0), (u32::MAX, u32::MAX)]
        );
    }

    #[test]
    fn compose_on_empty() {
        let a = Relation::default();
        let b = Relation::from_pairs(vec![(0, 1)]);
        assert!(a.compose(&b, &Budget::default()).unwrap().is_empty());
        assert!(b.compose(&a, &Budget::default()).unwrap().is_empty());
    }

    #[test]
    fn gallop_agrees_with_partition_point() {
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 0), (0, 1), (2, 0), (2, 5), (7, 1), (9, 9)];
        for t in 0..=10u32 {
            let expected = pairs.partition_point(|&(s, _)| s < t);
            // From every valid starting hint at or before the answer.
            for lo in 0..=expected {
                if pairs[..lo].iter().any(|&(s, _)| s >= t) {
                    continue; // precondition violated, skip
                }
                assert_eq!(gallop_src(&pairs, t, lo), expected, "t={t} lo={lo}");
            }
        }
    }
}
