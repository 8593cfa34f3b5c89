//! [`GraphView`]: one read interface over the in-memory CSR
//! [`Graph`] and the on-disk paged [`StoreReader`].
//!
//! Every consumer of graph topology — the four evaluation engines, the
//! planner's statistics, the run pipeline — goes through this enum, so
//! the same query code serves both a fully materialized graph and a
//! beyond-RAM store file. The facade is infallible like `&Graph` always
//! was: the paged variant validates structure when the store is opened,
//! and a post-validation I/O failure (disk yanked mid-query) panics with
//! the store's error message rather than threading `Result` through
//! every engine loop.

use crate::paged::StoreReader;
use crate::{Graph, NodeId, PredIdx};

/// A borrowed, `Copy` view over graph topology — either the in-memory
/// CSR or a paged on-disk store.
///
/// Engine entry points accept `impl Into<GraphView<'g>>`, so existing
/// `&Graph` call sites keep compiling while `&StoreReader` slots in for
/// beyond-RAM evaluation.
#[derive(Debug, Clone, Copy)]
pub enum GraphView<'g> {
    /// The fully materialized CSR graph.
    InMemory(&'g Graph),
    /// A paged on-disk store, read through [`StoreReader`].
    Paged(&'g StoreReader),
}

impl<'g> From<&'g Graph> for GraphView<'g> {
    fn from(g: &'g Graph) -> Self {
        GraphView::InMemory(g)
    }
}

impl<'g> From<&'g StoreReader> for GraphView<'g> {
    fn from(r: &'g StoreReader) -> Self {
        GraphView::Paged(r)
    }
}

/// `(source, target)` iterator over one `Σ±` symbol of either variant.
#[derive(Debug)]
pub enum Pairs<'g> {
    /// Walking the in-memory CSR.
    InMemory(crate::graph::CsrEdges<'g>),
    /// Streaming store pages.
    Paged(crate::paged::StorePairs<'g>),
}

impl Iterator for Pairs<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        match self {
            Pairs::InMemory(it) => it.next(),
            Pairs::Paged(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Pairs::InMemory(it) => it.size_hint(),
            Pairs::Paged(it) => it.size_hint(),
        }
    }
}

impl<'g> GraphView<'g> {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> NodeId {
        match self {
            GraphView::InMemory(g) => g.node_count(),
            GraphView::Paged(r) => r.node_count(),
        }
    }

    /// Number of predicates (edge labels) in Σ.
    #[inline]
    pub fn predicate_count(&self) -> usize {
        match self {
            GraphView::InMemory(g) => g.predicate_count(),
            GraphView::Paged(r) => r.predicate_count(),
        }
    }

    /// Total number of edges across all predicates.
    #[inline]
    pub fn edge_count(&self) -> usize {
        match self {
            GraphView::InMemory(g) => g.edge_count(),
            GraphView::Paged(r) => r.edge_count() as usize,
        }
    }

    /// Number of edges of one predicate.
    #[inline]
    pub fn edge_count_for(&self, pred: PredIdx) -> usize {
        match self {
            GraphView::InMemory(g) => g.edge_count_for(pred),
            GraphView::Paged(r) => r.edge_count_for(pred),
        }
    }

    /// Sorted neighbors of `v` along `pred`, forward (`a`) or backward
    /// (`a⁻`). In RAM this borrows the CSR slice and leaves `buf` alone;
    /// paged, it decodes the targets into `buf`
    /// ([`StoreReader::neighbors_into`]) and borrows that. A caller that
    /// reuses one `buf` across lookups allocates only while `buf` grows.
    ///
    /// # Panics
    ///
    /// Paged variant: on I/O failure or offsets that escaped open-time
    /// validation (the error message names the store file and page).
    #[inline]
    pub fn neighbors<'b>(
        &self,
        pred: PredIdx,
        v: NodeId,
        inverse: bool,
        buf: &'b mut Vec<NodeId>,
    ) -> &'b [NodeId]
    where
        'g: 'b,
    {
        match self {
            GraphView::InMemory(g) => g.neighbors(pred, v, inverse),
            GraphView::Paged(r) => {
                r.neighbors_into(pred, v, inverse, buf)
                    .unwrap_or_else(|e| panic!("paged neighbor read failed: {e}"));
                buf
            }
        }
    }

    /// Iterates the `(source, target)` pairs of one `Σ±` symbol in
    /// lexicographic order.
    pub fn pairs(&self, pred: PredIdx, inverse: bool) -> Pairs<'g> {
        match self {
            GraphView::InMemory(g) => Pairs::InMemory(if inverse {
                g.backward(pred).iter_edges()
            } else {
                g.forward(pred).iter_edges()
            }),
            GraphView::Paged(r) => Pairs::Paged(r.pairs(pred, inverse)),
        }
    }

    /// `(distinct sources, distinct targets)` of one predicate — the bulk
    /// statistic behind the planner's `SymbolStats`, computed from the
    /// offset arrays alone on both variants.
    pub fn distinct_endpoints(&self, pred: PredIdx) -> (usize, usize) {
        match self {
            GraphView::InMemory(g) => {
                let distinct = |offsets: &[u64]| {
                    let mut prev = 0u64;
                    let mut n = 0usize;
                    for &o in offsets {
                        if o > prev {
                            n += 1;
                        }
                        prev = o;
                    }
                    n
                };
                (
                    distinct(g.forward(pred).offsets()),
                    distinct(g.backward(pred).offsets()),
                )
            }
            GraphView::Paged(r) => r
                .distinct_endpoints(pred)
                .unwrap_or_else(|e| panic!("paged statistics read failed: {e}")),
        }
    }
}
