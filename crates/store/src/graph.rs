//! Immutable CSR graphs and the builder that assembles them.

use crate::sink::EdgeSink;
use crate::{NodeId, PredIdx};

/// Compressed sparse row adjacency: `neighbors(v) = targets[offsets[v] .. offsets[v+1]]`.
///
/// Neighbor lists are sorted, enabling binary-search membership tests and
/// merge joins in the engines crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds a CSR over `node_count` nodes from an unsorted edge list.
    ///
    /// When `dedup` is set, parallel edges (identical `(src, trg)` pairs)
    /// are collapsed.
    pub fn from_edges(node_count: NodeId, edges: &[(NodeId, NodeId)], dedup: bool) -> Self {
        let n = node_count as usize;
        let mut counts = vec![0u64; n + 1];
        for &(s, _) in edges {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets = vec![0 as NodeId; edges.len()];
        let mut cursor = counts.clone();
        for &(s, t) in edges {
            let slot = cursor[s as usize];
            targets[slot as usize] = t;
            cursor[s as usize] += 1;
        }
        let mut csr = Csr {
            offsets: counts,
            targets,
        };
        csr.sort_segments();
        if dedup {
            csr.dedup_segments();
        }
        csr
    }

    fn sort_segments(&mut self) {
        for v in 0..self.node_count() {
            let (lo, hi) = self.bounds(v as NodeId);
            self.targets[lo..hi].sort_unstable();
        }
    }

    fn dedup_segments(&mut self) {
        let n = self.node_count();
        let mut new_targets = Vec::with_capacity(self.targets.len());
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u64);
        for v in 0..n {
            let (lo, hi) = self.bounds(v as NodeId);
            let seg = &self.targets[lo..hi];
            let mut prev: Option<NodeId> = None;
            for &t in seg {
                if prev != Some(t) {
                    new_targets.push(t);
                    prev = Some(t);
                }
            }
            new_offsets.push(new_targets.len() as u64);
        }
        self.offsets = new_offsets;
        self.targets = new_targets;
    }

    #[inline]
    fn bounds(&self, v: NodeId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Number of nodes covered by this adjacency structure.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = self.bounds(v);
        &self.targets[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (lo, hi) = self.bounds(v);
        hi - lo
    }

    /// Whether the edge `(v, w)` is present (binary search).
    #[inline]
    pub fn contains(&self, v: NodeId, w: NodeId) -> bool {
        self.neighbors(v).binary_search(&w).is_ok()
    }

    /// The raw offset array: `node_count() + 1` monotone entries with
    /// `neighbors(v) = targets()[offsets()[v] as usize .. offsets()[v+1] as usize]`.
    ///
    /// Exposed for bulk consumers — the on-disk store writer serializes
    /// both arrays verbatim, and endpoint statistics scan offsets without
    /// touching targets.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated target array (see [`Csr::offsets`]).
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Iterates all `(source, target)` pairs in source order.
    pub fn iter_edges(&self) -> CsrEdges<'_> {
        CsrEdges {
            offsets: &self.offsets,
            targets: &self.targets,
            e: 0,
            v: 0,
            hi: 0,
            primed: false,
        }
    }
}

/// Concrete iterator behind [`Csr::iter_edges`]: walks the edge index and
/// advances the source node whenever it crosses an offset boundary —
/// nameable so [`GraphView::pairs`](crate::GraphView::pairs) can hold it
/// in an enum without boxing.
#[derive(Debug, Clone)]
pub struct CsrEdges<'a> {
    offsets: &'a [u64],
    targets: &'a [NodeId],
    e: usize,
    v: NodeId,
    hi: u64,
    primed: bool,
}

impl Iterator for CsrEdges<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.e >= self.targets.len() {
            return None;
        }
        if !self.primed {
            self.hi = self.offsets[1];
            self.primed = true;
        }
        while self.e as u64 >= self.hi {
            self.v += 1;
            self.hi = self.offsets[self.v as usize + 1];
        }
        let t = self.targets[self.e];
        self.e += 1;
        Some((self.v, t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.targets.len() - self.e;
        (left, Some(left))
    }
}

/// The contiguous node-type partition: nodes of type `t` occupy the id range
/// `[offsets[t], offsets[t+1])`.
///
/// The generator assigns ids this way so that `id_T(j)` of Fig. 5 — "the jth
/// node of type T" — is a constant-time offset computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypePartition {
    offsets: Vec<NodeId>,
}

impl TypePartition {
    /// Builds a partition from per-type node counts.
    ///
    /// Panics if the total exceeds `NodeId` capacity.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc: u64 = 0;
        offsets.push(0);
        for &c in counts {
            acc = acc.checked_add(c).expect("node count overflow");
            assert!(acc <= NodeId::MAX as u64, "graph exceeds NodeId capacity");
            offsets.push(acc as NodeId);
        }
        TypePartition { offsets }
    }

    /// Number of types.
    #[inline]
    pub fn type_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(&self) -> NodeId {
        *self.offsets.last().expect("partition always has an entry")
    }

    /// Number of nodes of type `t`.
    #[inline]
    pub fn count(&self, t: usize) -> NodeId {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// Id range of the nodes of type `t`.
    #[inline]
    pub fn range(&self, t: usize) -> std::ops::Range<NodeId> {
        self.offsets[t]..self.offsets[t + 1]
    }

    /// `id_T(j)` of Fig. 5: the id of the `j`th node (0-based) of type `t`.
    #[inline]
    pub fn node(&self, t: usize, j: NodeId) -> NodeId {
        debug_assert!(j < self.count(t));
        self.offsets[t] + j
    }

    /// The type of node `v` (binary search over the partition).
    #[inline]
    pub fn type_of(&self, v: NodeId) -> usize {
        debug_assert!(v < self.node_count());
        // partition_point returns the first offset > v; types are 0-based.
        self.offsets.partition_point(|&o| o <= v) - 1
    }

    /// The raw cumulative offsets (`type_count() + 1` entries, starting at
    /// 0) — the exact array the on-disk store serializes.
    #[inline]
    pub(crate) fn offsets(&self) -> &[NodeId] {
        &self.offsets
    }

    /// Rebuilds a partition from the offsets written by
    /// [`TypePartition::offsets`]; rejects arrays that are empty,
    /// non-monotone, or not starting at 0.
    pub(crate) fn from_offsets(offsets: Vec<NodeId>) -> Option<Self> {
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        Some(TypePartition { offsets })
    }
}

/// An immutable directed edge-labeled graph with typed nodes.
#[derive(Debug, Clone)]
pub struct Graph {
    partition: TypePartition,
    fwd: Vec<Csr>,
    bwd: Vec<Csr>,
    /// Cached sum of the per-predicate edge counts: the planner and
    /// statistics paths ask for the total repeatedly, and re-summing every
    /// CSR per call made `edge_count` O(predicates) instead of O(1).
    edge_count: usize,
}

impl Graph {
    /// Number of nodes `|V|` (the paper's graph size parameter `n`).
    #[inline]
    pub fn node_count(&self) -> NodeId {
        self.partition.node_count()
    }

    /// Number of predicates (edge labels) in Σ.
    #[inline]
    pub fn predicate_count(&self) -> usize {
        self.fwd.len()
    }

    /// The node-type partition.
    #[inline]
    pub fn partition(&self) -> &TypePartition {
        &self.partition
    }

    /// Total number of edges across all predicates (cached at build time).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of `a`-labeled edges.
    #[inline]
    pub fn edge_count_for(&self, pred: PredIdx) -> usize {
        self.fwd[pred].edge_count()
    }

    /// Sorted `a`-successors of `v`: all `w` with an edge `v --a--> w`.
    #[inline]
    pub fn out_neighbors(&self, pred: PredIdx, v: NodeId) -> &[NodeId] {
        self.fwd[pred].neighbors(v)
    }

    /// Sorted `a`-predecessors of `v`: all `u` with an edge `u --a--> v`.
    #[inline]
    pub fn in_neighbors(&self, pred: PredIdx, v: NodeId) -> &[NodeId] {
        self.bwd[pred].neighbors(v)
    }

    /// Neighbors along `pred`, traversing forward or backward; the primitive
    /// for evaluating the paper's `a` / `a⁻` symbols of Σ±.
    #[inline]
    pub fn neighbors(&self, pred: PredIdx, v: NodeId, inverse: bool) -> &[NodeId] {
        if inverse {
            self.in_neighbors(pred, v)
        } else {
            self.out_neighbors(pred, v)
        }
    }

    /// Whether the edge `v --a--> w` exists.
    #[inline]
    pub fn has_edge(&self, pred: PredIdx, v: NodeId, w: NodeId) -> bool {
        self.fwd[pred].contains(v, w)
    }

    /// Forward CSR of a predicate.
    #[inline]
    pub fn forward(&self, pred: PredIdx) -> &Csr {
        &self.fwd[pred]
    }

    /// Backward CSR of a predicate.
    #[inline]
    pub fn backward(&self, pred: PredIdx) -> &Csr {
        &self.bwd[pred]
    }

    /// Iterates the `(source, target)` pairs of one predicate.
    pub fn edges(&self, pred: PredIdx) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd[pred].iter_edges()
    }

    /// Iterates the pairs of one `Σ±` symbol in **lexicographic order**:
    /// `(s, t)` per forward edge, `(t, s)` per edge when `inverse` is set.
    ///
    /// Both directions come straight out of the corresponding CSR (the
    /// backward index stores flipped pairs already sorted by target), so
    /// consumers that need a sorted binary relation — the evaluation
    /// engines' `Relation::of_symbol` in particular — get one without
    /// collecting and re-sorting the edge list per query.
    pub fn pairs(
        &self,
        pred: PredIdx,
        inverse: bool,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        if inverse {
            self.bwd[pred].iter_edges()
        } else {
            self.fwd[pred].iter_edges()
        }
    }

    /// In-degree sequence for `(pred, type)` — used by the schema-extraction
    /// extension and by distribution-shape tests.
    pub fn in_degrees(&self, pred: PredIdx, node_type: usize) -> Vec<usize> {
        self.partition
            .range(node_type)
            .map(|v| self.bwd[pred].degree(v))
            .collect()
    }

    /// Out-degree sequence for `(pred, type)`.
    pub fn out_degrees(&self, pred: PredIdx, node_type: usize) -> Vec<usize> {
        self.partition
            .range(node_type)
            .map(|v| self.fwd[pred].degree(v))
            .collect()
    }
}

/// Accumulates streamed edges, then builds the immutable [`Graph`].
#[derive(Debug)]
pub struct GraphBuilder {
    partition: TypePartition,
    edges: Vec<Vec<(NodeId, NodeId)>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with the given type partition and
    /// predicate count. Parallel `(src, pred, trg)` duplicates are collapsed
    /// when the graph is built.
    pub fn new(partition: TypePartition, predicate_count: usize) -> Self {
        GraphBuilder {
            partition,
            edges: (0..predicate_count).map(|_| Vec::new()).collect(),
        }
    }

    /// Merges the edges accumulated by another builder.
    ///
    /// The merge appends `other`'s per-predicate edge lists to this
    /// builder's, so absorbing shards **in ascending constraint order**
    /// reproduces exactly the internal state a single sequential builder
    /// would have reached — the invariant the parallel generator relies on
    /// for bit-identical output at any thread count.
    pub fn absorb(&mut self, other: GraphBuilder) {
        assert_eq!(
            self.edges.len(),
            other.edges.len(),
            "predicate count mismatch"
        );
        for (mine, theirs) in self.edges.iter_mut().zip(other.edges) {
            // A predicate's first shard is moved, not copied: most
            // predicates come from one constraint.
            if mine.is_empty() {
                *mine = theirs;
            } else {
                mine.extend(theirs);
            }
        }
    }

    /// Finalizes into CSR form on the calling thread.
    pub fn build(self) -> Graph {
        self.build_with_threads(1)
    }

    /// Finalizes into CSR form on `threads` workers (`0` = every core).
    ///
    /// One [`ordered_map`](crate::ordered_map) unit per `(predicate,
    /// direction)`: its CSR depends only on that predicate's accumulated
    /// edge list, so the graph is identical for every thread count.
    pub fn build_with_threads(self, threads: usize) -> Graph {
        let n = self.partition.node_count();
        let pred_count = self.edges.len();
        let csrs = crate::ordered_map(threads, pred_count * 2, |item| {
            let pairs = &self.edges[item / 2];
            if item.is_multiple_of(2) {
                Csr::from_edges(n, pairs, true)
            } else {
                let flipped: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
                Csr::from_edges(n, &flipped, true)
            }
        });
        let mut fwd = Vec::with_capacity(pred_count);
        let mut bwd = Vec::with_capacity(pred_count);
        for (item, csr) in csrs.into_iter().enumerate() {
            if item.is_multiple_of(2) {
                fwd.push(csr);
            } else {
                bwd.push(csr);
            }
        }
        let edge_count = fwd.iter().map(Csr::edge_count).sum();
        Graph {
            partition: self.partition,
            fwd,
            bwd,
            edge_count,
        }
    }
}

impl EdgeSink for GraphBuilder {
    #[inline]
    fn edge(&mut self, src: NodeId, pred: PredIdx, trg: NodeId) {
        debug_assert!(src < self.partition.node_count());
        debug_assert!(trg < self.partition.node_count());
        self.edges[pred].push((src, trg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Graph {
        // Types: T0 = {0,1,2}, T1 = {3,4}; predicates a=0, b=1.
        let part = TypePartition::from_counts(&[3, 2]);
        let mut b = GraphBuilder::new(part, 2);
        b.edge(0, 0, 3);
        b.edge(0, 0, 4);
        b.edge(1, 0, 3);
        b.edge(2, 1, 0);
        b.edge(2, 1, 0); // parallel duplicate, deduped by default
        b.build()
    }

    #[test]
    fn partition_basics() {
        let p = TypePartition::from_counts(&[3, 2, 0, 5]);
        assert_eq!(p.type_count(), 4);
        assert_eq!(p.node_count(), 10);
        assert_eq!(p.count(0), 3);
        assert_eq!(p.count(2), 0);
        assert_eq!(p.range(1), 3..5);
        assert_eq!(p.node(3, 0), 5);
        assert_eq!(p.type_of(0), 0);
        assert_eq!(p.type_of(2), 0);
        assert_eq!(p.type_of(3), 1);
        assert_eq!(p.type_of(4), 1);
        assert_eq!(p.type_of(5), 3); // empty type 2 is skipped
        assert_eq!(p.type_of(9), 3);
    }

    #[test]
    fn csr_neighbors_are_sorted() {
        let csr = Csr::from_edges(4, &[(0, 3), (0, 1), (0, 2), (2, 0)], false);
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
        assert_eq!(csr.neighbors(1), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.edge_count(), 4);
    }

    #[test]
    fn csr_dedup() {
        let csr = Csr::from_edges(2, &[(0, 1), (0, 1), (0, 1), (1, 0)], true);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.edge_count(), 2);
        let keep = Csr::from_edges(2, &[(0, 1), (0, 1)], false);
        assert_eq!(keep.edge_count(), 2);
        assert_eq!(keep.neighbors(0), &[1, 1]);
    }

    #[test]
    fn csr_contains() {
        let csr = Csr::from_edges(3, &[(0, 2), (1, 0)], true);
        assert!(csr.contains(0, 2));
        assert!(!csr.contains(0, 1));
        assert!(!csr.contains(2, 0));
    }

    #[test]
    fn graph_forward_and_backward_agree() {
        let g = small_graph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.predicate_count(), 2);
        assert_eq!(g.out_neighbors(0, 0), &[3, 4]);
        assert_eq!(g.in_neighbors(0, 3), &[0, 1]);
        assert_eq!(g.neighbors(0, 3, true), &[0, 1]);
        assert_eq!(g.neighbors(0, 0, false), &[3, 4]);
        // dedup collapsed the duplicate b-edge
        assert_eq!(g.edge_count_for(1), 1);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn graph_edges_iterator() {
        let g = small_graph();
        let edges: Vec<_> = g.edges(0).collect();
        assert_eq!(edges, vec![(0, 3), (0, 4), (1, 3)]);
    }

    #[test]
    fn symbol_pairs_are_sorted_both_directions() {
        let g = small_graph();
        let fwd: Vec<_> = g.pairs(0, false).collect();
        assert_eq!(fwd, vec![(0, 3), (0, 4), (1, 3)]);
        let bwd: Vec<_> = g.pairs(0, true).collect();
        assert_eq!(bwd, vec![(3, 0), (3, 1), (4, 0)]);
        let mut sorted = bwd.clone();
        sorted.sort_unstable();
        assert_eq!(bwd, sorted, "inverse pairs must come out sorted");
    }

    #[test]
    fn degree_sequences() {
        let g = small_graph();
        assert_eq!(g.out_degrees(0, 0), vec![2, 1, 0]);
        assert_eq!(g.in_degrees(0, 1), vec![2, 1]);
    }

    #[test]
    fn builder_absorb_merges_shards() {
        let part = TypePartition::from_counts(&[4]);
        let mut a = GraphBuilder::new(part.clone(), 1);
        a.edge(0, 0, 1);
        let mut b = GraphBuilder::new(part, 1);
        b.edge(2, 0, 3);
        a.absorb(b);
        let g = a.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 0, 1));
        assert!(g.has_edge(0, 2, 3));
    }

    #[test]
    fn threaded_finalization_matches_sequential() {
        // A few predicates with irregular edge lists, including duplicates.
        let part = TypePartition::from_counts(&[8]);
        let build_input = || {
            let mut b = GraphBuilder::new(part.clone(), 3);
            for i in 0..200u32 {
                b.edge(i % 8, (i % 3) as usize, (i * 7 + 3) % 8);
            }
            b.edge(1, 2, 1);
            b.edge(1, 2, 1);
            b
        };
        let sequential = build_input().build();
        for threads in [2, 3, 8, 32] {
            let parallel = build_input().build_with_threads(threads);
            assert_eq!(parallel.partition(), sequential.partition());
            for pred in 0..3 {
                assert_eq!(
                    parallel.forward(pred),
                    sequential.forward(pred),
                    "forward CSR, pred {pred}, {threads} threads"
                );
                assert_eq!(
                    parallel.backward(pred),
                    sequential.backward(pred),
                    "backward CSR, pred {pred}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(TypePartition::from_counts(&[0]), 1).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "NodeId capacity")]
    fn partition_overflow_panics() {
        let _ = TypePartition::from_counts(&[u64::from(NodeId::MAX), 2]);
    }
}
