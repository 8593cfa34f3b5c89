//! Immutable CSR graphs and the builder that assembles them.

use crate::sink::EdgeSink;
use crate::{NodeId, PredIdx, StoreError};
use std::sync::Mutex;

/// Compressed sparse row adjacency over the *hull* of the nodes that have
/// neighbors: for `v` in `[base(), base() + offsets().len() - 1)`,
/// `neighbors(v) = targets[offsets[v - base] .. offsets[v - base + 1]]`,
/// and every node outside the hull has no neighbors.
///
/// In gMark a predicate's sources (and targets) are a few node types, each
/// a contiguous id range, so the hull is usually a fraction of the graph
/// and offsets for every node would be the largest array it holds. The
/// hull is taken from the edges themselves; no schema is consulted.
///
/// Offsets are `u32`, like the node ids they sit beside, so a CSR holds at
/// most [`Csr::MAX_EDGES`] pairs. The generator refuses a predicate with
/// more edges ([`check_edge_total`]) and the pipeline a tuple cap above
/// it, before anything is built.
///
/// Neighbor lists are sorted and duplicate-free, enabling binary-search
/// membership tests and merge joins in the engines crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    base: NodeId,
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

/// Refuses a predicate whose `edges` (counted before deduplication) one
/// [`Csr`] cannot hold: more than [`Csr::MAX_EDGES`]. The generator calls
/// it as soon as a predicate's constraints are set up, before any pair is
/// drawn; a predicate that size would need more than 16 GB of targets.
pub fn check_edge_total(predicate: PredIdx, edges: u64) -> Result<(), StoreError> {
    if edges > Csr::MAX_EDGES as u64 {
        return Err(StoreError::TooManyEdges { predicate, edges });
    }
    Ok(())
}

/// `(lowest id, span)` of the id range `lo..=hi`; `(0, 0)` when it is empty
/// (`lo > hi`).
fn hull(lo: NodeId, hi: NodeId) -> (NodeId, usize) {
    if lo > hi {
        (0, 0)
    } else {
        (lo, (hi - lo) as usize + 1)
    }
}

/// `(lowest key, span)` of the smallest id range holding every key; `(0, 0)`
/// when there are none.
fn key_hull(keys: impl Iterator<Item = NodeId>) -> (NodeId, usize) {
    let (lo, hi) = keys.fold((NodeId::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)));
    hull(lo, hi)
}

/// The per-run body of every bag-to-set in the workspace: a run's targets,
/// all inside one hull, made ascending and duplicate-free. [`Csr`]'s build
/// ([`Csr::try_from_edges`]) runs each scattered run through it in place; a
/// composition gathers each source's run through it.
///
/// When a bitset over the hull has no more words than there are pairs in
/// all, a run keeps a target only the first time its bit is set
/// ([`RunDedup::first_time`]), so only its distinct targets are ordered.
/// A run that kept fewer targets than the bitset has words clears the bits
/// it set and sorts what it kept; one that kept more reads its targets back
/// out of the bitset in ascending order, clearing each word, which costs
/// less than the sort ([`RunDedup::end_run`]). Under a wider hull the
/// bitset would outgrow the pairs, so then every target is kept and each
/// run is sorted whole and its adjacent repeats compacted out.
#[derive(Debug)]
pub struct RunDedup {
    low: NodeId,
    /// One bit per id of the hull, all clear between runs.
    seen: Option<Vec<u64>>,
}

impl RunDedup {
    /// Deduplication of runs whose targets lie in `(lowest target, span)`,
    /// `pairs` targets in all: with a bitset when its words are no more
    /// than `pairs`.
    pub fn new((low, span): (NodeId, usize), pairs: usize) -> RunDedup {
        let words = span.div_ceil(64);
        RunDedup {
            low,
            seen: (words <= pairs).then(|| vec![0u64; words]),
        }
    }

    /// Whether the current run keeps `t`: only the first time with a
    /// bitset, always without one. `t` must lie in the hull.
    #[inline]
    pub fn first_time(&mut self, t: NodeId) -> bool {
        let Some(seen) = self.seen.as_mut() else {
            return true;
        };
        let i = (t - self.low) as usize;
        let (word, mask) = (&mut seen[i / 64], 1u64 << (i % 64));
        let first = *word & mask == 0;
        *word |= mask;
        first
    }

    /// Ends the current run, whose kept targets are `run`: orders them
    /// ascending without repeats at the front of `run` and returns how
    /// many there are. The next run starts clean.
    pub fn end_run(&mut self, run: &mut [NodeId]) -> usize {
        let low = self.low;
        match self.seen.as_mut() {
            Some(seen) if run.len() < seen.len() => {
                for &t in run.iter() {
                    let i = (t - low) as usize;
                    seen[i / 64] &= !(1u64 << (i % 64));
                }
                run.sort_unstable();
                run.len()
            }
            Some(seen) => {
                let mut kept = 0;
                for (w, word) in seen.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        run[kept] = low + (w * 64) as NodeId + bits.trailing_zeros();
                        kept += 1;
                        bits &= bits - 1;
                    }
                }
                kept
            }
            None => {
                run.sort_unstable();
                let mut kept = 0;
                for r in 0..run.len() {
                    if kept == 0 || run[kept - 1] != run[r] {
                        run[kept] = run[r];
                        kept += 1;
                    }
                }
                kept
            }
        }
    }
}

/// Counting sort of `(key, value)` pairs whose keys lie in `[base, base +
/// span)`: the values grouped by key, each group in input order. There
/// must be at most [`Csr::MAX_EDGES`] pairs.
fn group_by_key(
    base: NodeId,
    span: usize,
    pairs: impl Iterator<Item = (NodeId, NodeId)> + Clone,
) -> Csr {
    let mut offsets = vec![0u32; span + 1];
    for (k, _) in pairs.clone() {
        offsets[(k - base) as usize + 1] += 1;
    }
    for i in 0..span {
        offsets[i + 1] += offsets[i];
    }
    // The offsets are the cursors: after the scatter, `offsets[i]` is where
    // group `i` ends — where group `i + 1` starts.
    let mut targets = vec![0 as NodeId; offsets[span] as usize];
    for (k, v) in pairs {
        let cursor = &mut offsets[(k - base) as usize];
        targets[*cursor as usize] = v;
        *cursor += 1;
    }
    offsets.copy_within(0..span, 1);
    offsets[0] = 0;
    Csr {
        base,
        offsets,
        targets,
    }
}

impl Default for Csr {
    /// The CSR without edges: base 0 and the single offset 0.
    fn default() -> Csr {
        Csr {
            base: 0,
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl Csr {
    /// The most pairs one CSR holds, deduplicated or not: its offsets are
    /// `u32`.
    pub const MAX_EDGES: usize = u32::MAX as usize;

    /// Builds the CSR of a bag of pairs in any order, keeping each distinct
    /// pair once: the one bag-to-set kernel of the workspace. The graph's
    /// predicates, the engines' relations, their answer rows and their
    /// seed sets are all deduplicated here: [`Csr::try_from_edges`] with no
    /// condition on the hulls.
    ///
    /// Panics if there are more than [`Csr::MAX_EDGES`] pairs.
    pub fn from_edges<I>(pairs: I) -> Csr
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        Csr::try_from_edges(pairs, |_, _| true).expect("the build always fits")
    }

    /// [`Csr::from_edges`] when `fits(source span, target span)` accepts
    /// the two hulls, else `None`: a caller that weighs the build's
    /// scratch against the pairs decides on the hulls the build takes
    /// anyway.
    ///
    /// Three passes over `pairs`, which is why it must be `Clone`: one for
    /// the hulls of the sources and of the targets, then a counting scatter
    /// that groups the targets by source (counting, then placing each
    /// target), then one over each run, through a [`RunDedup`] over the
    /// targets' hull. Its bitset is the only scratch beyond the result,
    /// and exists only when it has no more words than there are pairs.
    ///
    /// Panics if there are more than [`Csr::MAX_EDGES`] pairs.
    pub fn try_from_edges<I>(pairs: I, fits: impl FnOnce(usize, usize) -> bool) -> Option<Csr>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let (lo, hi, len) = pairs.clone().fold(
            ((NodeId::MAX, NodeId::MAX), (0, 0), 0usize),
            |(lo, hi, len), (s, t)| {
                (
                    (lo.0.min(s), lo.1.min(t)),
                    (hi.0.max(s), hi.1.max(t)),
                    len + 1,
                )
            },
        );
        assert!(
            len <= Csr::MAX_EDGES,
            "{len} pairs: a CSR holds at most {} (its offsets are u32)",
            Csr::MAX_EDGES
        );
        let (sources, targets) = (hull(lo.0, hi.0), hull(lo.1, hi.1));
        if !fits(sources.1, targets.1) {
            return None;
        }
        let mut csr = group_by_key(sources.0, sources.1, pairs);
        csr.sort_and_dedup(targets);
        Some(csr)
    }

    /// Assembles a CSR from its two arrays: `offsets` over the sources
    /// from `base` on, laid out as [`Csr::offsets`] describes, and
    /// `targets` with every run ascending and duplicate-free. Empty runs at
    /// either end are cut off the hull, so it equals [`Csr::from_edges`]
    /// of the same pairs.
    ///
    /// Panics if the offsets do not start at 0, fall, or end anywhere but
    /// `targets.len()`, or if the hull passes the largest node id.
    pub fn from_parts(base: NodeId, mut offsets: Vec<u32>, targets: Vec<NodeId>) -> Csr {
        let len = targets.len();
        assert!(
            offsets.first() == Some(&0)
                && offsets.last().map(|&o| o as usize) == Some(len)
                && offsets.is_sorted(),
            "offsets must rise from 0 to the target count"
        );
        assert!(
            u64::from(base) + offsets.len() as u64 - 1 <= 1 << NodeId::BITS,
            "the hull passes the largest node id"
        );
        debug_assert!(offsets
            .windows(2)
            .all(|w| targets[w[0] as usize..w[1] as usize].is_sorted_by(|a, b| a < b)));
        // The first run that is not empty ends at the first nonzero offset;
        // the last one at the first offset that reaches `len`.
        let Some(first) = offsets.iter().position(|&o| o > 0) else {
            return Csr::default();
        };
        let end = offsets.partition_point(|&o| (o as usize) < len);
        offsets.truncate(end + 1);
        offsets.drain(..first - 1);
        Csr {
            base: base + (first - 1) as NodeId,
            offsets,
            targets,
        }
    }

    /// Sorts every neighbor list and compacts out repeats in place, given
    /// the hull `(lowest target, span)` of every target: each run goes
    /// through one [`RunDedup`] over that hull, which keeps a target only
    /// the first time it is seen when the hull's bitset has no more words
    /// than there are targets. No list becomes empty, so the hull of the
    /// sources stays as it is.
    fn sort_and_dedup(&mut self, hull: (NodeId, usize)) {
        let mut dedup = RunDedup::new(hull, self.targets.len());
        let mut kept = 0;
        let mut start = 0;
        for i in 0..self.offsets.len() - 1 {
            let end = self.offsets[i + 1] as usize;
            let first = kept;
            for r in start..end {
                let t = self.targets[r];
                if dedup.first_time(t) {
                    self.targets[kept] = t;
                    kept += 1;
                }
            }
            kept = first + dedup.end_run(&mut self.targets[first..kept]);
            self.offsets[i + 1] = kept as u32;
            start = end;
        }
        self.targets.truncate(kept);
        self.targets.shrink_to_fit();
    }

    /// The transpose: `u` is a neighbor of `w` in it exactly when `w` is a
    /// neighbor of `u` here — the backward index of a forward one.
    ///
    /// One counting sort, no flipped copy: scanning sources in ascending
    /// order leaves every list sorted, and duplicate-free lists here leave
    /// it duplicate-free, so it equals [`Csr::from_edges`] of the flipped
    /// pairs.
    pub fn transpose(&self) -> Csr {
        let (base, span) = key_hull(self.targets.iter().copied());
        let flipped = self.iter_edges().map(|(s, t)| (t, s));
        group_by_key(base, span, flipped)
    }

    #[inline]
    fn bounds(&self, v: NodeId) -> (usize, usize) {
        let i = v.wrapping_sub(self.base) as usize;
        if i < self.offsets.len() - 1 {
            (self.offsets[i] as usize, self.offsets[i + 1] as usize)
        } else {
            (0, 0)
        }
    }

    /// Total number of stored edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbor list of `v`; empty outside the hull.
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

    /// The first node of the hull (see [`Csr::offsets`]); 0 when there are
    /// no edges.
    #[inline]
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// The raw offset array over the hull: `span + 1` monotone entries,
    /// starting at 0, for the `span` nodes from [`Csr::base`] on — the
    /// lowest through the highest node with a neighbor — with
    /// `neighbors(base + i) = targets()[offsets()[i] as usize ..
    /// offsets()[i + 1] as usize]`. Nodes outside the hull have no entry;
    /// a CSR without edges has the single entry 0.
    ///
    /// Offsets are `u32`: a CSR holds at most [`Csr::MAX_EDGES`] pairs.
    /// Exposed for bulk consumers — the on-disk store writes it as it is,
    /// and endpoint statistics scan offsets without touching targets.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated target array (see [`Csr::offsets`]).
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// `(lowest target, span)`: the smallest id range holding every target,
    /// read off the ends of each run (runs are sorted), so it costs one
    /// step per source of the hull; `(0, 0)` without edges.
    pub fn target_hull(&self) -> (NodeId, usize) {
        let ends = self.offsets.windows(2).filter(|w| w[0] < w[1]);
        let (lo, hi) = ends.fold((NodeId::MAX, 0), |(lo, hi), w| {
            let run = &self.targets[w[0] as usize..w[1] as usize];
            (lo.min(run[0]), hi.max(run[run.len() - 1]))
        });
        hull(lo, hi)
    }

    /// Iterates all `(source, target)` pairs in source order.
    pub fn iter_edges(&self) -> CsrEdges<'_> {
        CsrEdges {
            base: self.base,
            offsets: &self.offsets,
            targets: &self.targets,
            e: 0,
            v: 0,
            hi: self.offsets.get(1).map_or(0, |&o| o as usize),
        }
    }
}

/// Concrete iterator behind [`Csr::iter_edges`]: walks the edge index and
/// advances the source node whenever it crosses an offset boundary.
#[derive(Debug, Clone)]
pub struct CsrEdges<'a> {
    base: NodeId,
    offsets: &'a [u32],
    targets: &'a [NodeId],
    e: usize,
    /// The current source's position in the hull.
    v: usize,
    hi: usize,
}

impl Iterator for CsrEdges<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.e >= self.targets.len() {
            return None;
        }
        while self.e >= self.hi {
            self.v += 1;
            self.hi = self.offsets[self.v + 1] as usize;
        }
        let t = self.targets[self.e];
        self.e += 1;
        Some((self.base + self.v as NodeId, t))
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
    /// the pairs need no sort.
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
    /// Two [`ordered_map`](crate::ordered_map) passes of one unit per
    /// predicate: the first builds each forward CSR and frees its edge list
    /// as soon as it is consumed, the second transposes each forward CSR
    /// into its backward one. Every unit depends only on its own
    /// predicate, so the graph is identical for every thread count.
    pub fn build_with_threads(self, threads: usize) -> Graph {
        let GraphBuilder { partition, edges } = self;
        let n = partition.node_count();
        let slots: Vec<Mutex<Vec<(NodeId, NodeId)>>> = edges.into_iter().map(Mutex::new).collect();
        let fwd = crate::ordered_map(threads, slots.len(), |pred| {
            let edges =
                std::mem::take(&mut *slots[pred].lock().expect("no unit panics holding its slot"));
            let csr = Csr::from_edges(edges.iter().copied());
            let end = u64::from(csr.base()) + csr.offsets().len() as u64 - 1;
            assert!(end <= u64::from(n), "edge source beyond node_count {n}");
            csr
        });
        let bwd = crate::ordered_map(threads, fwd.len(), |pred| fwd[pred].transpose());
        let edge_count = fwd.iter().map(Csr::edge_count).sum();
        Graph {
            partition,
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
        let csr = Csr::from_edges([(3, 8), (3, 1), (3, 2), (5, 0)]);
        assert_eq!(csr.neighbors(3), &[1, 2, 8]);
        assert_eq!(csr.neighbors(4), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(5), &[0]);
        assert_eq!(csr.edge_count(), 4);
        // Offsets span the sources 3..=5 only; the rest read as empty.
        assert_eq!((csr.base(), csr.offsets()), (3, &[0, 3, 3, 4][..]));
        for v in [0, 2, 6, 8, NodeId::MAX] {
            assert_eq!(csr.degree(v), 0, "node {v}");
        }
    }

    #[test]
    fn csr_dedup() {
        let csr = Csr::from_edges([(2, 3), (1, 3), (2, 3), (2, 3), (2, 0), (1, 3)]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(2), &[0, 3]);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.targets().len(), 3, "repeats are compacted out");
        assert_eq!(csr.offsets(), &[0, 1, 3]);
    }

    #[test]
    fn csr_transpose_is_the_flipped_build() {
        let edges = [(4, 7), (2, 7), (4, 5), (2, 6), (3, 7)];
        let csr = Csr::from_edges(edges);
        let flipped: Vec<_> = edges.iter().map(|&(s, t)| (t, s)).collect();
        let t = csr.transpose();
        assert_eq!(t, Csr::from_edges(flipped));
        assert_eq!((t.base(), t.offsets()), (5, &[0, 1, 2, 5][..]));
        assert_eq!(t.neighbors(7), &[2, 3, 4]);
        let empty = Csr::from_edges([]);
        assert_eq!((empty.base(), empty.offsets()), (0, &[0][..]));
        assert_eq!(empty.transpose(), empty);
    }

    #[test]
    fn csr_contains() {
        let csr = Csr::from_edges([(0, 2), (1, 0)]);
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
        // Types 0..8, 8..14 and 14..24. Predicate 0 runs inside type 0,
        // predicate 1 from the interior type 1 to the last type, predicate
        // 2 within type 1, and predicate 3 has no edges; all carry
        // duplicates.
        let part = TypePartition::from_counts(&[8, 6, 10]);
        let mut lists: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); 4];
        for i in 0..300u32 {
            lists[0].push((i % 8, (i * 7 + 3) % 8));
            lists[1].push((8 + i % 6, 14 + (i * 3) % 10));
            lists[2].push((9 + i % 4, 8 + (i * 3) % 5));
        }
        let build_input = || {
            let mut b = GraphBuilder::new(part.clone(), lists.len());
            for (pred, list) in lists.iter().enumerate() {
                for &(s, t) in list {
                    b.edge(s, pred, t);
                }
            }
            b
        };
        for threads in [1, 2, 3, 8] {
            let g = build_input().build_with_threads(threads);
            assert_eq!(g.partition(), &part);
            for (pred, list) in lists.iter().enumerate() {
                let flipped: Vec<_> = list.iter().map(|&(s, t)| (t, s)).collect();
                assert_eq!(
                    g.forward(pred),
                    &Csr::from_edges(list.iter().copied()),
                    "forward CSR, pred {pred}, {threads} threads"
                );
                assert_eq!(
                    g.backward(pred),
                    &Csr::from_edges(flipped.iter().copied()),
                    "backward CSR, pred {pred}, {threads} threads"
                );
            }
            assert_eq!(g.forward(1).base(), 8, "{threads} threads");
            assert_eq!(g.backward(1).offsets().len(), 11, "{threads} threads");
            assert_eq!(g.forward(3).offsets(), &[0], "{threads} threads");
        }
    }

    #[test]
    fn a_predicate_is_refused_past_u32_max_edges() {
        assert!(check_edge_total(3, 0).is_ok());
        assert!(check_edge_total(3, u64::from(u32::MAX)).is_ok());
        let err = check_edge_total(3, u64::from(u32::MAX) + 1).unwrap_err();
        assert!(
            matches!(err, StoreError::TooManyEdges { predicate: 3, edges } if edges == 1 << 32),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "predicate 3 would have 4294967296 edges, but a graph holds at most 4294967295 \
             per predicate (its CSR offsets are u32)"
        );
    }

    #[test]
    fn try_from_edges_asks_before_it_builds() {
        let edges = [(9, 40), (7, 2), (9, 2), (7, 2)];
        let mut asked = None;
        let csr = Csr::try_from_edges(edges, |sources, targets| {
            asked = Some((sources, targets));
            true
        });
        assert_eq!(asked, Some((3, 39)), "hulls 7..=9 and 2..=40");
        assert_eq!(csr, Some(Csr::from_edges(edges)));
        assert_eq!(Csr::try_from_edges(edges, |_, _| false), None);
        let mut asked = None;
        let empty = Csr::try_from_edges([], |s, t| {
            asked = Some((s, t));
            true
        });
        assert_eq!((asked, empty), (Some((0, 0)), Some(Csr::default())));
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
