//! Materialized binary relations: the building blocks of the relational
//! (`P`-style) engine and of its Kleene-star closures.
//!
//! A [`Relation`] is a sorted, deduplicated set of compact `u32` node
//! pairs — the SQL translation's `(s, t)` CTEs made concrete — plus one
//! lazily built *run index*: `u32` run starts over the source hull, so
//! the pairs of any source are found in O(1) ([`Relation::targets_of`]).
//! Every kernel that looks up a source's run reads it there: the BFS moves
//! of `S` and `G`, the join arms every engine shares, composition's right
//! side and the star's condensation. The kernels never hash and never
//! re-sort whole results: composition walks the left side source-run by
//! source-run and appends each run's deduplicated targets (output is
//! emitted already sorted), union and difference are linear merges of
//! sorted inputs, transposition is a counting scatter, and the star
//! materializes the same closure the paper's footnote-4 linear recursion
//! defines in three passes: it condenses the relation into its strongly
//! connected components (Tarjan's algorithm, without recursion), counts
//! each component's reach set once, charging the tuple cap source by
//! source, and only then writes a closure that fits, each component's
//! sorted reach set copied once per member source. Composition's
//! per-source target buffers live in a per-worker scratch arena
//! (`thread_local`) so its inner loop allocates nothing in steady state.
//!
//! The index is built on the first probe, through a [`OnceLock`], so a
//! relation nothing probes — most Datalog deltas, union and difference
//! outputs — never pays for it. It is not part of the value: equality
//! and [`Clone`] read the pairs alone, so what the sub-expression cache
//! holds cannot depend on which thread probed a relation first.

use crate::{Budget, EvalError};
use gmark_core::query::Symbol;
use gmark_store::{GraphView, NodeId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Per-worker scratch arena: the per-source target buffer reused by
    /// every composition this thread runs. Steady-state compositions
    /// allocate only their output vector.
    static SCRATCH: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

/// Where each key's run of pairs starts: `starts[k]..starts[k + 1]` are the
/// pairs whose key lies in slot `k`, the `2^shift` ids from
/// `base + (k << shift)` on. `shift` is 0 — one slot per id of the hull,
/// so a slot *is* a run — unless the hull is more than twice as wide as
/// the relation is long (sparse ids, up to `u32::MAX`). Then slots widen
/// until the index is no larger than the pair column, and a lookup ends
/// with a binary search inside one slot.
#[derive(Debug)]
struct RunIndex {
    base: NodeId,
    shift: u32,
    starts: Vec<u32>,
}

impl RunIndex {
    /// Indexes `len` pairs by `keys`, one key per pair in pair order, over
    /// the keys' hull `lo..=hi`: one counting pass, then prefix sums.
    fn count(keys: impl Iterator<Item = NodeId>, lo: NodeId, hi: NodeId, len: usize) -> RunIndex {
        assert!(
            u32::try_from(len).is_ok(),
            "a run index addresses fewer than 2^32 pairs"
        );
        let span = u64::from(hi - lo);
        let max_slots = (2 * len as u64).max(1);
        let mut shift = 0;
        while (span >> shift) + 1 > max_slots {
            shift += 1;
        }
        let mut index = RunIndex {
            base: lo,
            shift,
            starts: vec![0; (span >> shift) as usize + 2],
        };
        for key in keys {
            let k = index.slot(key);
            index.starts[k + 1] += 1;
        }
        for k in 1..index.starts.len() {
            index.starts[k] += index.starts[k - 1];
        }
        index
    }

    /// The slot of a key inside the hull.
    fn slot(&self, key: NodeId) -> usize {
        ((key - self.base) >> self.shift) as usize
    }

    /// The range of `pairs`, the indexed relation's, whose key is `s`.
    fn run(&self, pairs: &[(NodeId, NodeId)], s: NodeId) -> Range<usize> {
        let Some(off) = s.checked_sub(self.base) else {
            return 0..0;
        };
        let k = (off >> self.shift) as usize;
        if k + 1 >= self.starts.len() {
            return 0..0;
        }
        let (lo, hi) = (self.starts[k] as usize, self.starts[k + 1] as usize);
        if self.shift == 0 {
            return lo..hi;
        }
        let slot = &pairs[lo..hi];
        lo + slot.partition_point(|p| p.0 < s)..lo + slot.partition_point(|p| p.0 <= s)
    }
}

/// A sorted, deduplicated set of node pairs, with its run index (see the
/// module docs).
#[derive(Default)]
pub struct Relation {
    pairs: Vec<(NodeId, NodeId)>,
    /// The run index over the sources, built on the first probe.
    index: OnceLock<RunIndex>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.pairs == other.pairs
    }
}

impl Eq for Relation {}

impl Clone for Relation {
    /// Clones the pairs; the clone builds its own index when first probed.
    fn clone(&self) -> Relation {
        Relation::sorted(self.pairs.clone())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("pairs", &self.pairs)
            .finish_non_exhaustive()
    }
}

impl Relation {
    /// Wraps pairs that are already sorted and deduplicated.
    fn sorted(pairs: Vec<(NodeId, NodeId)>) -> Relation {
        debug_assert!(pairs.is_sorted());
        Relation {
            pairs,
            index: OnceLock::new(),
        }
    }

    /// Builds from arbitrary pairs (sorts + dedups).
    pub fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> Relation {
        pairs.sort_unstable();
        pairs.dedup();
        Relation::sorted(pairs)
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
        pairs.dedup();
        Relation::sorted(pairs)
    }

    /// Consumes the relation, yielding its sorted pairs.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        self.pairs
    }

    /// The identity relation over all `n` nodes (the ε relation).
    pub fn identity(n: NodeId) -> Relation {
        Relation::sorted((0..n).map(|v| (v, v)).collect())
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

    /// The run index, built on the first call.
    fn index(&self) -> &RunIndex {
        self.index.get_or_init(|| {
            let (lo, hi) = match (self.pairs.first(), self.pairs.last()) {
                (Some(first), Some(last)) => (first.0, last.0),
                _ => (0, 0),
            };
            RunIndex::count(self.pairs.iter().map(|p| p.0), lo, hi, self.pairs.len())
        })
    }

    /// Composition `self ; other` = `{(s, u) | (s, t) ∈ self, (t, u) ∈
    /// other}`.
    ///
    /// Walks `self` one source run at a time and reads the run of each of
    /// its targets `t` out of `other`'s run index. The run's result
    /// targets are deduplicated in the per-worker scratch buffer and
    /// appended — the output is sorted by construction, so no final
    /// re-sort (and no hash set) is ever paid. The tuple budget is charged
    /// on the *deduplicated* output, not the raw match count.
    pub fn compose(&self, other: &Relation, budget: &Budget) -> Result<Relation, EvalError> {
        if self.pairs.is_empty() || other.pairs.is_empty() {
            return Ok(Relation::default());
        }
        SCRATCH.with(|cell| {
            let targets = &mut *cell.borrow_mut();
            let mut out: Vec<(NodeId, NodeId)> = Vec::new();
            for (runs, run) in self.pairs.chunk_by(|a, b| a.0 == b.0).enumerate() {
                if runs.is_multiple_of(1024) {
                    budget.check_time()?;
                }
                targets.clear();
                for &(_, t) in run {
                    targets.extend(other.targets_of(t).iter().map(|&(_, u)| u));
                }
                targets.sort_unstable();
                targets.dedup();
                budget.check_size(out.len() + targets.len())?;
                out.extend(targets.iter().map(|&u| (run[0].0, u)));
            }
            Ok(Relation::sorted(out))
        })
    }

    /// The converse `{(t, s) | (s, t) ∈ self}`, without a sort: a counting
    /// pass over the targets, then a scatter in source order, which leaves
    /// each target's sources ascending. The counts are the converse's run
    /// index, so it comes built.
    pub(crate) fn transpose(&self) -> Relation {
        let targets = || self.pairs.iter().map(|p| p.1);
        let (Some(lo), Some(hi)) = (targets().min(), targets().max()) else {
            return Relation::default();
        };
        let index = RunIndex::count(targets(), lo, hi, self.pairs.len());
        let mut next = index.starts.clone();
        let mut pairs = vec![(0, 0); self.pairs.len()];
        for &(s, t) in &self.pairs {
            let at = &mut next[index.slot(t)];
            pairs[*at as usize] = (t, s);
            *at += 1;
        }
        if index.shift > 0 {
            // A wide slot holds several targets, each run ascending.
            for w in index.starts.windows(2) {
                pairs[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }
        Relation {
            pairs,
            index: OnceLock::from(index),
        }
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
        Relation::sorted(pairs)
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
        Relation::sorted(pairs)
    }

    /// Whether the relation contains `(s, t)`: the run of `s` out of the
    /// index, then a binary search inside it — the semi-join primitive.
    pub fn contains(&self, s: NodeId, t: NodeId) -> bool {
        self.targets_of(s).binary_search(&(s, t)).is_ok()
    }

    /// The contiguous run of pairs whose source is `s` (their targets,
    /// sorted), read out of the run index in O(1).
    pub fn targets_of(&self, s: NodeId) -> &[(NodeId, NodeId)] {
        &self.pairs[self.index().run(&self.pairs, s)]
    }

    /// Reflexive-transitive closure `self*` over the nodes `0..n`, in
    /// three passes:
    ///
    /// 1. **Condense.** Tarjan's algorithm, run iteratively over the run
    ///    index, splits the nodes into strongly connected components;
    ///    the condensation keeps one node per component and the
    ///    deduplicated edges between components.
    /// 2. **Count.** Sources are taken in id order. The first source of
    ///    each component counts the component's reach set once, by a BFS
    ///    over the condensation that weighs each component by its node
    ///    count. The running total is charged after every source.
    /// 3. **Write.** Only a closure that fits the cap gets here. Each
    ///    component's reach set is gathered and sorted once, then copied
    ///    as the targets of every member source into one output vector of
    ///    the exact length. The output is sorted and deduplicated by
    ///    construction: no rounds, no hash set, no whole-result re-sort.
    ///
    /// Precondition: every endpoint of `self` is below `n` (callers pass
    /// the graph's node count).
    ///
    /// The budget sees the clock every 256 nodes Tarjan visits, every 256
    /// sources counted and every 256 components written, and the
    /// cumulative count after each source. Every charge is a prefix of the
    /// closure in source order, so the call succeeds exactly when the
    /// whole closure fits the tuple cap; over it, `TooLarge` carries the
    /// length of the first prefix past the cap, having written nothing.
    /// Those are the charges a BFS per source makes as it writes each
    /// source's targets, so `P`'s outcome, and the `n` of its
    /// `TooLarge(n)`, is what one traversal per source gives. On
    /// quadratic-selectivity closures that failure is the point:
    /// materializing the full result is why the `P`-style engine blows
    /// its budget on the paper's hardest recursive queries (Table 4).
    pub fn star(&self, n: NodeId, budget: &Budget) -> Result<Relation, EvalError> {
        debug_assert!(
            self.pairs.iter().all(|&(s, t)| s < n && t < n),
            "star over {n} nodes given an endpoint >= {n}"
        );
        let dag = Condensation::of(self, n, budget)?;
        let mut walk = Walk::new(dag.len());
        // `reach[c]`: nodes reachable from component `c`; 0 until counted
        // (a component reaches at least itself).
        let mut reach: Vec<usize> = vec![0; dag.len()];
        // `starts[s]`: where source `s`'s targets begin in the output.
        let mut starts: Vec<usize> = Vec::with_capacity(n as usize);
        let mut total = 0usize;
        for s in 0..n {
            if s.is_multiple_of(256) {
                budget.check_time()?;
            }
            let c = dag.comp[s as usize] as usize;
            if reach[c] == 0 {
                let reached = walk.from(&dag, c).iter();
                reach[c] = reached.map(|&d| dag.members(d as usize).len()).sum();
            }
            starts.push(total);
            total += reach[c];
            budget.check_size(total)?;
        }

        let mut out: Vec<(NodeId, NodeId)> = vec![(0, 0); total];
        let mut targets: Vec<NodeId> = Vec::new();
        // Fresh stamps: counting stamped every component it walked from.
        let mut walk = Walk::new(dag.len());
        for c in 0..dag.len() {
            if c.is_multiple_of(256) {
                budget.check_time()?;
            }
            targets.clear();
            for &d in walk.from(&dag, c) {
                targets.extend_from_slice(dag.members(d as usize));
            }
            targets.sort_unstable();
            for &s in dag.members(c) {
                let at = starts[s as usize];
                for (slot, &t) in out[at..at + targets.len()].iter_mut().zip(&targets) {
                    *slot = (s, t);
                }
            }
        }
        Ok(Relation::sorted(out))
    }
}

/// The condensation of a relation over the nodes `0..n`: its strongly
/// connected components, numbered in the order Tarjan's algorithm
/// completes them (so every edge between components runs from a higher
/// number to a lower one), with their members and the deduplicated edges
/// between them.
struct Condensation {
    /// The component of each node.
    comp: Vec<u32>,
    /// The nodes, grouped by component: component `c`'s members are
    /// `members[member_starts[c]..member_starts[c + 1]]`.
    members: Vec<NodeId>,
    member_starts: Vec<u32>,
    /// The components each component has an edge to, itself excluded,
    /// each once: `succ[succ_starts[c]..succ_starts[c + 1]]`.
    succ: Vec<u32>,
    succ_starts: Vec<u32>,
}

impl Condensation {
    /// Tarjan's algorithm with an explicit stack of DFS frames, so a path
    /// of any length recurses nowhere. The budget sees the clock every
    /// 256 nodes visited.
    fn of(r: &Relation, n: NodeId, budget: &Budget) -> Result<Condensation, EvalError> {
        const UNSEEN: u32 = u32::MAX;
        let len = n as usize;
        // `order[v]`: v's DFS preorder number; `low[v]`: the least
        // preorder number v reaches among the nodes still on `stack`.
        let mut order = vec![UNSEEN; len];
        let mut low = vec![0u32; len];
        let mut comp = vec![UNSEEN; len];
        let mut stack: Vec<NodeId> = Vec::new();
        // One frame per node on the DFS path: the node and how many of its
        // edges it has followed.
        let mut frames: Vec<(NodeId, usize)> = Vec::new();
        let mut members: Vec<NodeId> = Vec::with_capacity(len);
        let mut member_starts: Vec<u32> = vec![0];
        let mut visited = 0u32;
        for root in 0..n {
            if order[root as usize] != UNSEEN {
                continue;
            }
            let mut next = Some(root);
            loop {
                if let Some(v) = next.take() {
                    if visited.is_multiple_of(256) {
                        budget.check_time()?;
                    }
                    order[v as usize] = visited;
                    low[v as usize] = visited;
                    visited += 1;
                    stack.push(v);
                    frames.push((v, 0));
                }
                let Some((v, followed)) = frames.last_mut() else {
                    break;
                };
                let v = *v;
                if let Some(&(_, w)) = r.targets_of(v).get(*followed) {
                    *followed += 1;
                    if order[w as usize] == UNSEEN {
                        next = Some(w);
                    } else if comp[w as usize] == UNSEEN {
                        // `w` is still on the stack: a back or cross edge
                        // inside the component being built.
                        low[v as usize] = low[v as usize].min(order[w as usize]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(u, _)) = frames.last() {
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                }
                if low[v as usize] == order[v as usize] {
                    let c = (member_starts.len() - 1) as u32;
                    loop {
                        let w = stack.pop().expect("v is on the stack");
                        comp[w as usize] = c;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    member_starts.push(members.len() as u32);
                }
            }
        }

        // Reuse `low` as the per-component mark: `mark[d] == c` once `c`'s
        // edge to `d` is listed.
        let components = member_starts.len() - 1;
        let mut mark = low;
        mark.truncate(components);
        mark.fill(UNSEEN);
        let mut succ: Vec<u32> = Vec::new();
        let mut succ_starts: Vec<u32> = vec![0];
        for (c, run) in member_starts.windows(2).enumerate() {
            for &v in &members[run[0] as usize..run[1] as usize] {
                for &(_, w) in r.targets_of(v) {
                    let d = comp[w as usize];
                    if d as usize != c && mark[d as usize] != c as u32 {
                        mark[d as usize] = c as u32;
                        succ.push(d);
                    }
                }
            }
            succ_starts.push(succ.len() as u32);
        }
        Ok(Condensation {
            comp,
            members,
            member_starts,
            succ,
            succ_starts,
        })
    }

    /// Number of components.
    fn len(&self) -> usize {
        self.member_starts.len() - 1
    }

    /// The nodes of component `c`.
    fn members(&self, c: usize) -> &[NodeId] {
        &self.members[self.member_starts[c] as usize..self.member_starts[c + 1] as usize]
    }

    /// The components component `c` has an edge to.
    fn succ(&self, c: usize) -> &[u32] {
        &self.succ[self.succ_starts[c] as usize..self.succ_starts[c + 1] as usize]
    }
}

/// A BFS over a [`Condensation`], its stamp array shared by every walk.
struct Walk {
    /// `stamp[d] == c + 1` marks `d` reached from `c`.
    stamp: Vec<u32>,
    queue: Vec<u32>,
}

impl Walk {
    fn new(components: usize) -> Walk {
        Walk {
            stamp: vec![0; components],
            queue: Vec::new(),
        }
    }

    /// The components reachable from `c`, `c` first. Walks from each
    /// component at most once.
    fn from(&mut self, dag: &Condensation, c: usize) -> &[u32] {
        let mark = c as u32 + 1;
        self.queue.clear();
        self.queue.push(c as u32);
        self.stamp[c] = mark;
        let mut head = 0;
        while head < self.queue.len() {
            let d = self.queue[head] as usize;
            head += 1;
            for &e in dag.succ(d) {
                if self.stamp[e as usize] != mark {
                    self.stamp[e as usize] = mark;
                    self.queue.push(e);
                }
            }
        }
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalContext;
    use crate::fixtures::sym;
    use gmark_core::query::{PathExpr, RegularExpr};
    use gmark_store::{ordered_map, EdgeSink, Graph, GraphBuilder, TypePartition};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

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
    fn condensation_merges_each_cycle_into_one_component() {
        // A ring 0 → 1 → 2 → 0 with two edges out of it to 3, and an
        // isolated 4.
        let r = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0), (1, 3), (2, 3)]);
        let dag = Condensation::of(&r, 5, &Budget::default()).unwrap();
        assert_eq!(dag.len(), 3);
        let ring = dag.comp[0] as usize;
        let mut members = dag.members(ring).to_vec();
        members.sort_unstable();
        assert_eq!(members, [0, 1, 2]);
        // Two edges into 3, one edge between components; 3 is a sink.
        assert_eq!(dag.succ(ring), &[dag.comp[3]]);
        assert!(dag.succ(dag.comp[3] as usize).is_empty());
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

    /// Sorted relations of the shapes the run index must get right: empty,
    /// one pair, a single source, dense ids from 0 (some hulls twice as
    /// wide as the pair count, so slots of two or four ids), and sparse
    /// sources spread over about 2^20 ids (wide slots).
    fn relations() -> impl Strategy<Value = Relation> {
        use prop::collection::vec;
        const WIDE: u32 = 1 << 20;
        prop_oneof![
            Just(Relation::default()),
            (0..WIDE, 0..WIDE).prop_map(|p| Relation::from_pairs(vec![p])),
            (0u32..24, vec(0u32..24, 1..12))
                .prop_map(|(s, ts)| Relation::from_pairs(ts.iter().map(|&t| (s, t)).collect())),
            vec((0u32..24, 0u32..24), 1..80).prop_map(Relation::from_pairs),
            vec((0u32..200, 0u32..24), 1..80).prop_map(Relation::from_pairs),
            vec((0..WIDE, 0..WIDE), 1..60).prop_map(Relation::from_pairs),
        ]
    }

    /// The pairs of `r` with source `s`: a filtering scan.
    fn scan(r: &Relation, s: NodeId) -> Vec<(NodeId, NodeId)> {
        r.pairs().iter().copied().filter(|p| p.0 == s).collect()
    }

    /// Ids worth probing: every endpoint and its neighbours, the ends of
    /// the id space, and a few drawn ones.
    fn probes(r: &Relation, extra: &[NodeId]) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = vec![0, 1, u32::MAX];
        for &(s, t) in r.pairs() {
            ids.extend([s, t, s.saturating_sub(1), s.saturating_add(1)]);
        }
        ids.extend_from_slice(extra);
        ids
    }

    /// `r*` over `0..n` as a fixpoint of filtering scans.
    fn reference_star(r: &Relation, n: NodeId) -> Vec<(NodeId, NodeId)> {
        let mut reach: BTreeSet<(NodeId, NodeId)> = (0..n).map(|v| (v, v)).collect();
        loop {
            let step: Vec<(NodeId, NodeId)> = reach
                .iter()
                .flat_map(|&(s, m)| scan(r, m).into_iter().map(move |(_, t)| (s, t)))
                .collect();
            let before = reach.len();
            reach.extend(step);
            if reach.len() == before {
                return reach.into_iter().collect();
            }
        }
    }

    /// The reference for [`Relation::star`], one BFS per source: each
    /// source's targets are sorted and written as they are reached, and
    /// the running output is charged after every source.
    fn star_per_source(r: &Relation, n: NodeId, budget: &Budget) -> Result<Relation, EvalError> {
        // `stamp[v] == s + 1` marks `v` reached from `s`.
        let mut stamp: Vec<NodeId> = vec![0; n as usize];
        let mut reached: Vec<NodeId> = Vec::new();
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for s in 0..n {
            if s.is_multiple_of(256) {
                budget.check_time()?;
            }
            reached.clear();
            reached.push(s);
            stamp[s as usize] = s + 1;
            let mut head = 0usize;
            while head < reached.len() {
                let u = reached[head];
                head += 1;
                for &(_, v) in r.targets_of(u) {
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
        Ok(Relation::sorted(out))
    }

    /// Appends a path from `from` through `hops` fresh nodes, ending at
    /// `to` when given.
    fn path(
        pairs: &mut Vec<(NodeId, NodeId)>,
        fresh: &mut impl Iterator<Item = NodeId>,
        from: NodeId,
        hops: usize,
        to: Option<NodeId>,
    ) {
        let mut at = from;
        for v in fresh.take(hops).chain(to) {
            pairs.push((at, v));
            at = v;
        }
    }

    /// Relations of the shapes a condensation must get right: one to four
    /// cycles (a one-node cycle is a self-loop), each joined to the
    /// previous one by a chain running either way, a tail into the first
    /// and a tail out of the last. Ids are scattered over `0..41` by an
    /// affine bijection, so components are not id ranges.
    fn cycles_and_chains() -> impl Strategy<Value = Relation> {
        use prop::collection::vec;
        (
            vec((1usize..5, 0usize..4, any::<bool>()), 1..5),
            (0usize..4, 0usize..4),
            (1u32..41, 0u32..41),
        )
            .prop_map(|(cycles, (tail_in, tail_out), (a, b))| {
                let mut fresh = (0u32..41).map(move |k| (a * k + b) % 41);
                let mut pairs = Vec::new();
                let (mut first, mut last) = (None, None);
                for (len, hops, forward) in cycles {
                    let ring: Vec<NodeId> = fresh.by_ref().take(len).collect();
                    for (i, &v) in ring.iter().enumerate() {
                        pairs.push((v, ring[(i + 1) % len]));
                    }
                    match last {
                        Some(prev) if forward => {
                            path(&mut pairs, &mut fresh, prev, hops, Some(ring[0]));
                        }
                        Some(prev) => {
                            path(&mut pairs, &mut fresh, ring[0], hops, Some(prev));
                        }
                        None => first = Some(ring[0]),
                    }
                    last = Some(ring[len - 1]);
                }
                if tail_in > 0 {
                    let start = fresh.next().unwrap();
                    path(&mut pairs, &mut fresh, start, tail_in - 1, first);
                }
                path(&mut pairs, &mut fresh, last.unwrap(), tail_out, None);
                Relation::from_pairs(pairs)
            })
    }

    /// The closure's node count: one past the largest endpoint, and one
    /// isolated node more; `None` when that is too many for the references.
    fn star_nodes(r: &Relation) -> Option<NodeId> {
        let top = r.pairs().iter().map(|&(s, t)| s.max(t)).max().unwrap_or(0);
        (top < 200).then_some(top + 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn run_index_kernels_match_plain_references(
            r in relations(),
            q in relations(),
            extra in prop::collection::vec(0u32..1 << 21, 0..8),
        ) {
            let ids = probes(&r, &extra);
            for &s in &ids {
                prop_assert_eq!(r.targets_of(s), &scan(&r, s)[..], "targets_of({})", s);
                for t in [0, 1, s, s.wrapping_add(1)] {
                    prop_assert_eq!(r.contains(s, t), r.pairs().contains(&(s, t)));
                }
            }
            for &(s, t) in r.pairs() {
                prop_assert!(r.contains(s, t));
            }

            // The converse: the sorted flip, its built index included.
            let flipped: Vec<(NodeId, NodeId)> = r.pairs().iter().map(|&(s, t)| (t, s)).collect();
            let converse = r.transpose();
            prop_assert_eq!(&converse, &Relation::from_pairs(flipped));
            for &t in &ids {
                prop_assert_eq!(converse.targets_of(t), &scan(&converse, t)[..]);
            }

            // Composition with a random side, with the converse (which
            // always meets) and with itself: a scan per pair, then a sort.
            for other in [&q, &converse, &r] {
                let mut expected = Vec::new();
                for &(s, m) in r.pairs() {
                    expected.extend(scan(other, m).into_iter().map(|(_, u)| (s, u)));
                }
                let composed = r.compose(other, &Budget::default()).unwrap();
                prop_assert_eq!(composed, Relation::from_pairs(expected));
            }

            // The star, over relations small enough for the references.
            if let Some(n) = star_nodes(&r) {
                let star = r.star(n, &Budget::default()).unwrap();
                prop_assert_eq!(star.pairs(), &reference_star(&r, n)[..]);
                prop_assert_eq!(&star, &star_per_source(&r, n, &Budget::default()).unwrap());
            }

            // Equality, and a clone, read the pairs, not whether an index
            // was built.
            let (cold, warm) = (Relation::from_pairs(r.pairs().to_vec()), r.clone());
            let _ = warm.targets_of(0);
            prop_assert_eq!(&cold, &warm);
            prop_assert_eq!(&warm, &cold);

            // One shared relation, its index built by whichever of four
            // workers probes first.
            let shared = Arc::new(Relation::from_pairs(r.pairs().to_vec()));
            let runs = ordered_map(4, ids.len(), |i| shared.targets_of(ids[i]).to_vec());
            for (&s, run) in ids.iter().zip(&runs) {
                prop_assert_eq!(run, &scan(&r, s));
            }
        }

        // At every cap from 0 to one past the closure, the condensed star
        // must give the per-source reference's pairs, or its
        // `TooLarge(n)`. Component shapes are drawn two times in three.
        #[test]
        fn star_matches_the_per_source_reference_at_every_cap(
            r in prop_oneof![relations(), cycles_and_chains(), cycles_and_chains()],
        ) {
            let n = star_nodes(&r);
            prop_assume!(n.is_some());
            let n = n.unwrap();
            let total = star_per_source(&r, n, &Budget::default()).unwrap().len();
            for cap in 0..=total + 1 {
                let budget = Budget::with_limits(None, cap);
                prop_assert_eq!(
                    r.star(n, &budget),
                    star_per_source(&r, n, &budget),
                    "cap {} of {}", cap, total
                );
            }
        }
    }
}
