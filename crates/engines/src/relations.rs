//! Materialized binary relations: the building blocks of the relational
//! (`P`-style) engine and of its Kleene-star closures.
//!
//! A [`Relation`] is a [`Csr`], the layout the store keeps each predicate
//! in: per source of the hull, a sorted, deduplicated run of `u32` targets
//! — the SQL translation's `(s, t)` CTEs made concrete. It adds only the
//! relational algebra; every read is the CSR's own, through `Deref`: a
//! source's run in O(1) ([`Csr::neighbors`]), a membership test
//! ([`Csr::contains`]), a walk in source order ([`Csr::iter_edges`]) and
//! the converse by a counting sort ([`Csr::transpose`]). The BFS moves of
//! `S` and `G`, the join arms every engine shares, composition's right
//! side and the star's condensation all read runs that way.
//!
//! Every relation's source hull lies inside the graph's `0..n`: a symbol's
//! is the store's, a composition's lies inside its left operand's, a
//! union's spans its operands', a converse takes the target hull, and the
//! star and the identity span `0..n`. The offsets therefore never outgrow
//! the node count.
//!
//! The kernels never hash and never re-sort whole results; each writes
//! its offsets and targets in source order. Composition walks the left
//! side source by source and gathers each source's targets straight onto
//! its output, keeping each only the first time it is reached (the
//! store's per-run deduplication, [`RunDedup`]), union and difference
//! merge the two runs of each source, and the star
//! materializes the same closure the paper's footnote-4 linear recursion
//! defines in three passes: it condenses the relation into its strongly
//! connected components (Tarjan's algorithm, without recursion), counts
//! each component's reach set once, charging the tuple cap source by
//! source, and only then writes a closure that fits, each component's
//! sorted reach set copied once per member source.

use crate::{Budget, EvalError};
use gmark_core::query::Symbol;
use gmark_store::{Csr, GraphView, NodeId, RunDedup};
use std::ops::Deref;

/// A binary relation: a [`Csr`] with the relational algebra on top (see
/// the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation(Csr);

impl Deref for Relation {
    type Target = Csr;

    fn deref(&self) -> &Csr {
        &self.0
    }
}

/// Each source of `r`'s hull with its run of targets, in source order.
fn runs(r: &Csr) -> impl Iterator<Item = (NodeId, &[NodeId])> {
    r.offsets().windows(2).enumerate().map(|(i, w)| {
        (
            r.base() + i as NodeId,
            &r.targets()[w[0] as usize..w[1] as usize],
        )
    })
}

/// `len` as a CSR offset. Every relation is charged against the tuple cap
/// as it grows, and the pipeline refuses a cap above [`Csr::MAX_EDGES`],
/// so this fails only for a library caller with a wider cap.
pub(crate) fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a relation holds at most u32::MAX pairs")
}

/// Appends the sorted union of two ascending runs to `out`.
fn merge(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl Relation {
    /// Builds from a bag of pairs in any order, each distinct pair kept
    /// once: the store's counting scatter ([`Csr::from_edges`]), with no
    /// comparison sort of the pairs and no copy of them. `pairs` is walked
    /// three times, so a caller holding the pairs in some other layout (D's
    /// projected head cells) hands over a view, not a vector.
    pub fn from_pairs<I>(pairs: I) -> Relation
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        Relation(Csr::from_edges(pairs))
    }

    /// The relation a CSR holds: its runs are already sets.
    pub(crate) fn from_csr(csr: Csr) -> Relation {
        Relation(csr)
    }

    /// The CSR the relation is.
    pub(crate) fn into_csr(self) -> Csr {
        self.0
    }

    /// Assembles a relation from its CSR arrays ([`Csr::from_parts`]).
    pub(crate) fn from_parts(base: NodeId, offsets: Vec<u32>, targets: Vec<NodeId>) -> Relation {
        Relation(Csr::from_parts(base, offsets, targets))
    }

    /// The relation of one `Σ±` symbol: all `a`-edges, flipped for `a⁻` —
    /// the view's CSR of the symbol ([`GraphView::csr`]): a clone of the
    /// in-memory graph's, or the store's segment, loaded whole.
    pub fn of_symbol<'g>(graph: impl Into<GraphView<'g>>, sym: Symbol) -> Relation {
        Relation(graph.into().csr(sym.predicate.0, sym.inverse))
    }

    /// The identity relation over all `n` nodes (the ε relation).
    pub fn identity(n: NodeId) -> Relation {
        Relation(Csr::from_parts(0, (0..=n).collect(), (0..n).collect()))
    }

    /// Composition `self ; other` = `{(s, u) | (s, t) ∈ self, (t, u) ∈
    /// other}`: the fill's compositions, `P`'s misses and `D`'s rule (d),
    /// and the head a join step with one bound end reads off its rows
    /// (the distinct (key, anchor) pairs composed with the step's
    /// relation).
    ///
    /// Walks `self` one source at a time and gathers the run of each of
    /// its targets `t` out of `other` straight onto the output, through the
    /// store's per-run deduplication ([`RunDedup`]) over `other`'s target
    /// hull: with its bitset (when it has no more words than `other` has
    /// pairs) a target is appended only the first time the source reaches
    /// it, and only the distinct targets are ordered; without it, the
    /// source's run is sorted and its repeats compacted out. The output is
    /// sorted by construction, so no final re-sort (and no hash set) is
    /// ever paid. It starts empty, grows with what is kept, and is shrunk
    /// to fit at the end; nothing is reserved for the raw matches, which
    /// can outnumber the output many times over. The tuple budget is
    /// charged on the *deduplicated* output, after every source.
    pub fn compose(&self, other: &Csr, budget: &Budget) -> Result<Relation, EvalError> {
        if self.edge_count() == 0 || other.edge_count() == 0 {
            return Ok(Relation::default());
        }
        let mut dedup = RunDedup::new(other.target_hull(), other.edge_count());
        let mut offsets = Vec::with_capacity(self.offsets().len());
        offsets.push(0);
        let mut targets: Vec<NodeId> = Vec::new();
        for (i, (_, mids)) in runs(self).enumerate() {
            if i.is_multiple_of(1024) {
                budget.check_time()?;
            }
            let first = targets.len();
            for &t in mids {
                for &u in other.neighbors(t) {
                    if dedup.first_time(u) {
                        targets.push(u);
                    }
                }
            }
            let kept = dedup.end_run(&mut targets[first..]);
            targets.truncate(first + kept);
            budget.check_size(targets.len())?;
            offsets.push(offset(targets.len()));
        }
        targets.shrink_to_fit();
        Ok(Relation(Csr::from_parts(self.base(), offsets, targets)))
    }

    /// Union: each source's two runs merged, over the span of both hulls
    /// (no re-sort).
    pub fn union(&self, other: &Relation) -> Relation {
        if other.edge_count() == 0 {
            return self.clone();
        }
        if self.edge_count() == 0 {
            return other.clone();
        }
        let end = |r: &Csr| u64::from(r.base()) + r.offsets().len() as u64 - 1;
        let base = self.base().min(other.base());
        let mut offsets = vec![0];
        let mut targets = Vec::with_capacity(self.edge_count() + other.edge_count());
        for s in u64::from(base)..end(self).max(end(other)) {
            let s = s as NodeId;
            merge(self.neighbors(s), other.neighbors(s), &mut targets);
            offsets.push(offset(targets.len()));
        }
        Relation(Csr::from_parts(base, offsets, targets))
    }

    /// Set difference `self \ other`: each source's run of `self` with
    /// `other`'s run of the same source merged out.
    pub fn difference(&self, other: &Relation) -> Relation {
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for (s, run) in runs(self) {
            let gone = other.neighbors(s);
            let mut j = 0;
            for &t in run {
                while j < gone.len() && gone[j] < t {
                    j += 1;
                }
                if gone.get(j) != Some(&t) {
                    targets.push(t);
                }
            }
            offsets.push(offset(targets.len()));
        }
        Relation(Csr::from_parts(self.base(), offsets, targets))
    }

    /// Reflexive-transitive closure `self*` over the nodes `0..n`, in
    /// three passes:
    ///
    /// 1. **Condense.** Tarjan's algorithm, run iteratively over the
    ///    relation's runs, splits the nodes into strongly connected components;
    ///    the condensation keeps one node per component and the
    ///    deduplicated edges between components.
    /// 2. **Count.** Sources are taken in id order. The first source of
    ///    each component counts the component's reach set once, by a BFS
    ///    over the condensation that weighs each component by its node
    ///    count. The running total is charged after every source, and the
    ///    running totals are the closure's offsets.
    /// 3. **Write.** Only a closure that fits the cap gets here. Each
    ///    component's reach set is gathered and sorted once, then copied
    ///    as the run of every member source into one target array of the
    ///    exact length. The output is sorted and deduplicated by
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
            self.iter_edges().all(|(s, t)| s < n && t < n),
            "star over {n} nodes given an endpoint >= {n}"
        );
        let dag = Condensation::of(self, n, budget)?;
        let mut walk = Walk::new(dag.len());
        // `reach[c]`: nodes reachable from component `c`; 0 until counted
        // (a component reaches at least itself).
        let mut reach: Vec<usize> = vec![0; dag.len()];
        // `offsets[s]`: where source `s`'s targets begin in the output.
        let mut offsets: Vec<u32> = Vec::with_capacity(n as usize + 1);
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
            offsets.push(offset(total));
            total += reach[c];
            budget.check_size(total)?;
        }
        offsets.push(offset(total));

        let mut out: Vec<NodeId> = vec![0; total];
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
                let at = offsets[s as usize] as usize;
                out[at..at + targets.len()].copy_from_slice(&targets);
            }
        }
        Ok(Relation(Csr::from_parts(0, offsets, out)))
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
    fn of(r: &Csr, n: NodeId, budget: &Budget) -> Result<Condensation, EvalError> {
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
                if let Some(&w) = r.neighbors(v).get(*followed) {
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
                for &w in r.neighbors(v) {
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
    use crate::fixtures::{pairs, sym};
    use gmark_core::query::{PathExpr, RegularExpr};
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert_eq!(pairs(&r), [(0, 1), (1, 2), (2, 3)]);
        let ri = Relation::of_symbol(&g, sym(0).flipped());
        assert_eq!(pairs(&ri), [(1, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn composition() {
        let g = chain_graph();
        let r = Relation::of_symbol(&g, sym(0));
        let rr = r.compose(&r, &Budget::default()).unwrap();
        assert_eq!(pairs(&rr), [(0, 2), (1, 3)]);
        let rrr = rr.compose(&r, &Budget::default()).unwrap();
        assert_eq!(pairs(&rrr), [(0, 3)]);
    }

    #[test]
    fn composition_output_is_sorted_and_deduplicated() {
        // Two sources fan into one hub which fans out: composition must
        // dedup per source and stay sorted without a final sort pass.
        let a = Relation::from_pairs(vec![(0, 5), (0, 6), (1, 5), (1, 6)]);
        let b = Relation::from_pairs(vec![(5, 7), (5, 8), (6, 7), (6, 8)]);
        let ab = a.compose(&b, &Budget::default()).unwrap();
        assert_eq!(pairs(&ab), [(0, 7), (0, 8), (1, 7), (1, 8)]);
    }

    #[test]
    fn union_dedups() {
        let a = Relation::from_pairs(vec![(0, 1), (1, 2)]);
        let b = Relation::from_pairs(vec![(1, 2), (2, 3)]);
        assert_eq!(pairs(&a.union(&b)), [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn difference_and_contains() {
        let a = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 3)]);
        let b = Relation::from_pairs(vec![(1, 2)]);
        assert_eq!(pairs(&a.difference(&b)), [(0, 1), (2, 3)]);
        assert!(a.contains(1, 2));
        assert!(!a.contains(2, 1));
        assert_eq!(a.neighbors(1), [2]);
        assert!(a.neighbors(7).is_empty());
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
        assert_eq!(pairs(&r.unwrap()), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
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
            assert_eq!(
                *EvalContext::new(&g)
                    .expr_relation(&expr, &Budget::default())
                    .unwrap(),
                crate::eval_rpq(&EvalContext::new(&g), &expr, None, &Budget::default()).unwrap(),
                "{expr:?}"
            );
        }
    }

    #[test]
    fn compose_survives_the_largest_node_id() {
        // The end of a source's run is found by its offsets, not by
        // looking for `s + 1`.
        const MAX: NodeId = u32::MAX;
        let a = Relation::from_pairs(vec![(MAX - 2, MAX), (MAX, MAX - 1), (MAX, MAX)]);
        let b = Relation::from_pairs(vec![(MAX - 1, MAX), (MAX, 0)]);
        let ab = a.compose(&b, &Budget::default()).unwrap();
        assert_eq!(pairs(&ab), [(MAX - 2, 0), (MAX, 0), (MAX, MAX)]);
    }

    #[test]
    fn compose_on_empty() {
        let a = Relation::default();
        let b = Relation::from_pairs(vec![(0, 1)]);
        assert_eq!(a.compose(&b, &Budget::default()), Ok(Relation::default()));
        assert_eq!(b.compose(&a, &Budget::default()), Ok(Relation::default()));
    }

    /// Sorted relations of the shapes the kernels must get right: empty,
    /// one pair, a single source, dense ids from 0, sources spread over a
    /// hull up to eight times as wide as the pair count, and a narrow hull
    /// at the top of the id space, ending at the largest node id.
    fn relations() -> impl Strategy<Value = Relation> {
        use prop::collection::vec;
        const TOP: u32 = u32::MAX - 40;
        prop_oneof![
            Just(Relation::default()),
            prop_oneof![(0u32..24, 0u32..24), (TOP..=u32::MAX, TOP..=u32::MAX)]
                .prop_map(|p| Relation::from_pairs(vec![p])),
            (0u32..24, vec(0u32..24, 1..12))
                .prop_map(|(s, ts)| Relation::from_pairs(ts.iter().map(|&t| (s, t)))),
            vec((0u32..24, 0u32..24), 1..80).prop_map(Relation::from_pairs),
            vec((0u32..200, 0u32..24), 1..80).prop_map(Relation::from_pairs),
            vec((TOP..=u32::MAX, TOP..=u32::MAX), 1..60).prop_map(Relation::from_pairs),
        ]
    }

    /// The targets of `r` with source `s`: a filtering scan.
    fn scan(r: &Csr, s: NodeId) -> Vec<NodeId> {
        r.iter_edges().filter(|p| p.0 == s).map(|p| p.1).collect()
    }

    /// Ids worth probing: every endpoint and its neighbours, the ends of
    /// the id space, and a few drawn ones.
    fn probes(r: &Relation, extra: &[NodeId]) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = vec![0, 1, u32::MAX];
        for (s, t) in r.iter_edges() {
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
                .flat_map(|&(s, m)| scan(r, m).into_iter().map(move |t| (s, t)))
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
                for &v in r.neighbors(u) {
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
        Ok(Relation::from_pairs(out))
    }

    /// The reference for [`Relation::compose`], gathering before it
    /// deduplicates: each source's raw matches collected, sorted and
    /// deduplicated, and the running output charged after every source.
    fn compose_by_sort(
        r: &Relation,
        other: &Relation,
        budget: &Budget,
    ) -> Result<Relation, EvalError> {
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for (s, mids) in runs(r) {
            let mut run: Vec<NodeId> = mids
                .iter()
                .flat_map(|&m| other.neighbors(m).to_vec())
                .collect();
            run.sort_unstable();
            run.dedup();
            budget.check_size(out.len() + run.len())?;
            out.extend(run.iter().map(|&t| (s, t)));
        }
        Ok(Relation::from_pairs(out))
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
        let top = r.iter_edges().map(|(s, t)| s.max(t)).max().unwrap_or(0);
        (top < 200).then(|| top + 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_plain_references(
            r in relations(),
            q in relations(),
            extra in prop::collection::vec(0u32..1 << 21, 0..8),
        ) {
            let edges = pairs(&r);
            let ids = probes(&r, &extra);
            for &s in &ids {
                prop_assert_eq!(r.neighbors(s), &scan(&r, s)[..], "neighbors({})", s);
                for t in [0, 1, s, s.wrapping_add(1)] {
                    prop_assert_eq!(r.contains(s, t), edges.contains(&(s, t)));
                }
            }

            // The converse: the sorted flip.
            let converse = Relation::from_pairs(edges.iter().map(|&(s, t)| (t, s)));
            prop_assert_eq!(&r.transpose(), &*converse);

            // Composition with a random side, with the converse (which
            // always meets) and with itself: a scan per pair, then a sort.
            for other in [&q, &converse, &r] {
                let mut expected = Vec::new();
                for &(s, m) in &edges {
                    expected.extend(scan(other, m).into_iter().map(|u| (s, u)));
                }
                let composed = r.compose(other, &Budget::default()).unwrap();
                prop_assert_eq!(composed, Relation::from_pairs(expected));
            }

            // Union and difference, against sets, with sides whose hulls
            // lie near `r`'s: the converse, a composition and `r` itself.
            let composed = r.compose(&converse, &Budget::default()).unwrap();
            for other in [&converse, &composed, &r] {
                let theirs: BTreeSet<(NodeId, NodeId)> = other.iter_edges().collect();
                let both = edges.iter().chain(&theirs).copied();
                prop_assert_eq!(r.union(other), Relation::from_pairs(both));
                let rest = edges.iter().filter(|p| !theirs.contains(p)).copied();
                prop_assert_eq!(r.difference(other), Relation::from_pairs(rest));
            }

            // The star, over relations small enough for the references.
            if let Some(n) = star_nodes(&r) {
                let star = r.star(n, &Budget::default()).unwrap();
                prop_assert_eq!(pairs(&star), reference_star(&r, n));
                prop_assert_eq!(&star, &star_per_source(&r, n, &Budget::default()).unwrap());
            }
        }

        // Composition deduplicates each source's targets as it gathers
        // them, over the right side's target hull: narrow (targets within
        // 64 ids of `low`, one bitset word, so the bitset runs) or wide
        // (targets anywhere in the id space, a bitset of more words than
        // pairs, so each run is sorted). At every cap from 0 to one past
        // the result, it must give the sorting reference's pairs, or its
        // `TooLarge(n)`.
        #[test]
        fn compose_matches_the_sorting_reference_at_every_cap(
            left in prop::collection::vec((0u32..30, 0u32..30), 0..60),
            right in prop::collection::vec((0u32..30, any::<u32>()), 0..60),
            low in prop_oneof![Just(0u32), 0u32..100_000, Just(u32::MAX - 63)],
            wide in any::<bool>(),
        ) {
            let narrow = |t: u32| if wide { t } else { low + t % 64 };
            let r = Relation::from_pairs(left);
            let other = Relation::from_pairs(right.into_iter().map(|(m, t)| (m, narrow(t))));
            let total = compose_by_sort(&r, &other, &Budget::default()).unwrap().edge_count();
            for cap in 0..=total + 1 {
                let budget = Budget::with_limits(None, cap);
                prop_assert_eq!(
                    r.compose(&other, &budget),
                    compose_by_sort(&r, &other, &budget),
                    "cap {} of {}", cap, total
                );
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
            let total = star_per_source(&r, n, &Budget::default()).unwrap().edge_count();
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
